"""In-memory spans around calls into the package's modules.

Spans are recorded by wrapping the public names that ``montecarlo``,
``channel`` and ``cli`` call, so the package itself is not changed. Every
span carries the index of its parent span; self time is a span's duration
minus the durations of its direct children. The tracer is single-threaded:
the traced pass runs the ensemble at one worker.
"""

from __future__ import annotations

import functools
import math
import time


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, func, on_return=None):
        """``func`` wrapped in a span; ``on_return(tracer, args, result)`` counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, _, start, end) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


def _count_images(tracer, args, result):
    room, tau_max, speed = args[0], args[3], args[4]
    # Cells in the index cube the documented bound ceil(c*tau/L) + 2 spans.
    cells = 1
    for length in room.lengths:
        bound = math.ceil(speed * tau_max / length) + 2
        cells *= 2 * bound + 1
    tracer.add("geometry.cells_scanned", cells)
    tracer.add("geometry.images", len(result[0]))


def _count_paths(tracer, args, result):
    tracer.add("channel.paths", len(result))


def _count_kernel(tracer, args, result):
    tracer.add("channel.synth.kernel_evals", len(args[0]) * args[2].count)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``roomchan``."""
    from roomchan import antenna, config, geometry, montecarlo, theory

    mc = montecarlo
    for attr, name, counter in (
        ("run_ensemble", "montecarlo.ensemble", None),
        ("compare_with_theory", "montecarlo.compare", None),
        ("write_bundle", "montecarlo.bundle", None),
        ("sample_position", "antenna.sample", None),
        ("sample_orientation", "antenna.sample", None),
        ("enumerate_paths", "channel.enumerate", _count_paths),
        ("arrival_count_curve", "channel.count", None),
        ("synthesize_signal", "channel.synth", _count_kernel),
        ("signal_moments", "channel.moments", None),
    ):
        setattr(mc, attr, tracer.wrap(name, getattr(mc, attr), counter))
    geometry.enumerate_indices = tracer.wrap(
        "geometry.enumerate", geometry.enumerate_indices, _count_images
    )
    for cls in (antenna.AntennaPattern, antenna.Isotropic, antenna.SphericalCap):
        for attr in ("in_support", "gain"):
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap("antenna.gate", vars(cls)[attr]))
    for attr, value in list(vars(theory).items()):
        if callable(value) and not attr.startswith("_") and not isinstance(value, type) \
                and getattr(value, "__module__", None) == theory.__name__:
            setattr(theory, attr, tracer.wrap("theory", value))
    config.load_document = tracer.wrap("config.load", config.load_document)
