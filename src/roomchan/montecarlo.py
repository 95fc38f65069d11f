"""Seeded ensemble simulation over random antenna placement and orientation.

Each run draws the terminals' positions and boresights that its mode leaves
random (see _FIXED), enumerates the paths, evaluates the arrival count on the
configured delay grid, synthesizes the received power, and records the
instantaneous mean delay and rms delay spread up to the moment cutoff.

Reproducibility contract: every run uses its own counter-based random stream
keyed by ``(master seed, run index)``, and aggregation reduces in run-index
order, so results are a pure function of the configuration regardless of how
many workers execute the runs.

Memory: a run's outputs are one row (see _row_layout), its counts in the
smallest unsigned type that holds the index cube, and every run writes its
row in place into one anonymous shared mapping, allocated before any run.
Statistics and records are computed from the rows on first read: the means
are numpy's buffered float64 reductions of the curve fields and the squared
deviations are summed in fixed row blocks, so the process holds one copy of
the rows plus one block's temporaries.

Speed: the runs form contiguous blocks of R runs (McConfig.block_runs), which
forked workers claim in order from a shared counter, so a worker's next
block costs it one counter step under a record lock, not a round trip
through the main process. Workers mark the blocks they complete in a shared
byte mapping, and the main process simulates the rest, with the same bits.
A block's runs are enumerated and gated in one pass, which shares the
per-call cost of numpy that dominates runs with few paths; every run's
values are the ones it gets alone. A run then reads only the delays and
power gains of its path list, the two columns its ``PathList`` sorts on
construction; the indices, directions and carrier phases are put in delay
order only when read, which an ensemble in random-phase mode never does.
"""

from __future__ import annotations

import fcntl
import functools
import json
import mmap
import os
import signal
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import theory
from ._csv import write_csv
from .antenna import AntennaPattern, sample_orientation, sample_position
from .channel import (
    PHASE_MODES,
    RadioConfig,
    SampleGrid,
    _block_paths,
    _moments,
    arrival_count_curve,
    delay_grid,
    synthesis_grid,
    synthesize_signal,
)
# The one-run forms of the block's stages; perfbench/tracing.py wraps these
# names here, though the ensemble takes the block forms.
from .channel import enumerate_paths, signal_moments  # noqa: F401
from .errors import ConfigError, EmptySampleError, ResourceLimitError
from .geometry import DEFAULT_MAX_CELLS, Room, index_bounds

# What each mode fixes, by row field, a fixed boresight being its pattern's
# own aim; see _draw_terminals and compare_with_theory.
_FIXED = {
    "both-random": (),
    "fixed-rx": ("rx_position", "rx_boresight"),
    "fixed-orientation-tx": ("tx_boresight", "rx_position", "rx_boresight"),
    "fixed-distance": ("distance",),
}
MODES = tuple(_FIXED)

# A fixed distance is refused where a run expects to need more draws than
# this to place its terminals (see _placement_probability).
_PLACEMENT_ATTEMPTS = 10_000

# Tolerances of compare_with_theory: relative error of the mean count where
# at least _MIN_EXPECTED_COUNT arrivals are expected, of the conditional mean
# count from one room diagonal past the direct delay on, of the fitted tail
# decay time, and mean relative error of the power curve in the fit window
# (_FIT_WINDOW clipped to the grid).
_COUNT_TOLERANCE = 0.03
_CONDITIONAL_TOLERANCE = 0.05
_MIN_EXPECTED_COUNT = 100.0
_SLOPE_TOLERANCE = 0.05
_POWER_TOLERANCE = 0.25
_FIT_WINDOW = (40e-9, 110e-9)

#: Master seeds fill one 64-bit word of each run's Philox key; negative
#: seeds map one-to-one onto the words from 2**63 up.
SEED_RANGE = (-2**63, 2**63)

# Budgets of a block of runs (see McConfig.block_runs). A block's scan of the
# index cubes holds a few arrays of up to R x cells floats, 4 MB each at
# _BLOCK_CELLS without cones; narrow cones scan fewer columns (about 1.5 MB
# in all for 39 runs of 0.1-coverage caps). Runs with many paths gain nothing
# from blocks, since their synthesis outweighs the per-call costs that blocks
# share; _BLOCK_PATHS keeps them at one run a block. 0.1-coverage caps at
# 120 ns (26 paths and 12,789 cells a run) get 39 runs a block.
_BLOCK_CELLS = 1 << 19
_BLOCK_PATHS = 1024

# Rows per block of the squared deviations: a block buffer holds
# (_STAT_ROWS + 1) x grid floats, row 0 being the sums carried over.
_STAT_ROWS = 128

#: Cap on the bytes of an ensemble's rows (see _row_layout). 80,000 runs on
#: the 481-point 120 ns grid take 396 MB.
MAX_ENSEMBLE_BYTES = 600_000_000


def _placement_probability(room: Room, distance: float) -> float:
    """Chance that a uniform point and a uniform direction place a second point ``distance`` away in ``room``.

    ``E_u prod_i max(0, 1 - distance |u_i| / L_i)``, by a 128 x 128
    Gauss-Legendre rule over one octant in cos(theta) and phi. In the
    5 x 5 x 3 m room it is within 0.4% of a 512 x 512 rule up to 7 m.
    """
    nodes, weights = np.polynomial.legendre.leggauss(128)
    cos_theta, phi = (nodes + 1.0) / 2.0, (nodes + 1.0) * np.pi / 4.0
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    axes = (np.outer(sin_theta, np.cos(phi)), np.outer(sin_theta, np.sin(phi)), cos_theta[:, None])
    inside = (np.maximum(0.0, 1.0 - distance * u / length) for u, length in zip(axes, room.lengths))
    return float(weights @ functools.reduce(np.multiply, inside) @ weights) / 4.0


def _row_layout(points: int, cells: int) -> np.dtype:
    """One run's outputs on a ``points``-point count grid, as one aligned row.

    Boresights are NaN where the mode fixes an isotropic pattern's, and the moments,
    of the samples up to the cutoff, NaN for a run without energy. Counts take
    the smallest unsigned type that holds ``cells``, which no count exceeds.
    """
    return np.dtype([
        ("power", float, (points,)),
        ("tx_position", float, (3,)), ("rx_position", float, (3,)),
        ("tx_boresight", float, (3,)), ("rx_boresight", float, (3,)),
        ("n_paths", float), ("energy", float), ("mean_delay", float), ("rms_spread", float),
        ("counts", np.min_scalar_type(cells), (points,)),
    ], align=True)


# The synthesis grid a run reads, its times, and the samples the moments read.
_Window = NamedTuple("_Window", [("grid", SampleGrid), ("times", np.ndarray), ("cut", int)])


@dataclass(frozen=True)
class McConfig:
    """Full description of one ensemble, whose output is a pure function of it; each value derived from it is cached.

    A boresight the mode fixes is that side's pattern's own aim, as in
    ``SphericalCap(fraction, boresight)``; ``rx_position`` is kept read-only.
    """

    room: Room
    radio: RadioConfig
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    runs: int = 2000
    seed: int = 1
    mode: str = "both-random"
    tau_max: float = 120e-9
    phase_mode: str = "random"
    moment_cutoff: float = 120e-9
    grid_start: float = 0.0
    grid_stop: float = 120e-9
    grid_step: float = 0.25e-9
    rx_position: np.ndarray | None = None
    distance: float | None = None
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self) -> None:
        if isinstance(self.runs, bool) or not isinstance(self.runs, (int, np.integer)) or self.runs < 1:
            raise ConfigError("runs must be an integer of at least 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigError("seed must be an integer")
        if not SEED_RANGE[0] <= self.seed < SEED_RANGE[1]:
            raise ConfigError("seed must lie in [-2**63, 2**63)")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.phase_mode not in PHASE_MODES:
            raise ConfigError(f"phase_mode must be one of {PHASE_MODES}")
        if not self.moment_cutoff > 0.0:
            raise ConfigError("moment cutoff must be positive")
        if not self.tau_max >= self.moment_cutoff:
            raise ConfigError("tau_max must be at least the moment cutoff")
        if not 0.0 <= self.grid_start < self.grid_stop <= self.tau_max:
            raise ConfigError("grid must lie within [0, tau_max]")
        if not self.grid_step > 0.0:
            raise ConfigError("grid step must be positive")
        # Pre-flight: the count grid, the index cube, the rows and the
        # synthesis window are sized before any run allocates them, in Python
        # ints, which numpy integer runs could overflow.
        size = int(self.runs) * self.layout.itemsize
        if size > MAX_ENSEMBLE_BYTES:
            raise ResourceLimitError(
                f"{self.runs} runs x {self.grid.size} grid points take {size:.3g} bytes of rows, "
                f"above the cap of {MAX_ENSEMBLE_BYTES}"
            )
        self.window
        fixed = _FIXED[self.mode]
        if "rx_position" in fixed:
            if self.rx_position is None:
                raise ConfigError(f"mode {self.mode!r} needs rx_position")
            object.__setattr__(self, "rx_position", np.array(self.rx_position, dtype=float))
            self.rx_position.flags.writeable = False  # a copy, so no later write moves it out of the room
            if not self.room.contains(self.rx_position):
                raise ConfigError("rx_position must lie inside the room")
        if "distance" in fixed:
            if self.distance is None or not self.distance >= self.radio.wavelength:
                raise ConfigError(f"mode {self.mode!r} needs a distance of a wavelength or more")
            if self.distance >= self.room.diagonal:
                raise ConfigError("distance does not fit inside the room")
            placed = _placement_probability(self.room, self.distance)
            if placed * _PLACEMENT_ATTEMPTS < 1.0:
                raise ConfigError(
                    f"a distance of {self.distance:g} m places the terminals with probability "
                    f"{placed:.3g} a draw, less than 1/{_PLACEMENT_ATTEMPTS}"
                )

    @functools.cached_property
    def scene(self) -> theory.SceneSummary:
        """The closed forms' summary of the room, radio and patterns, without positions."""
        return theory.SceneSummary.from_components(self.room, self.radio, self.tx_pattern, self.rx_pattern)

    @functools.cached_property
    def cells(self) -> int:
        """Cells of the index cube up to ``tau_max``, refused above ``max_cells``."""
        return index_bounds(self.room, self.tau_max, self.radio.speed_of_light, self.max_cells)[1]

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """The :func:`~roomchan.channel.delay_grid` of the ``grid_*`` fields, of two points or more."""
        if SampleGrid.spanning(self.grid_start, self.grid_stop, self.grid_step).count < 2:
            raise ConfigError("count grid must hold at least two points")
        try:
            return delay_grid(self.grid_start, self.grid_stop, self.grid_step)
        except ValueError:
            raise ConfigError("mc/grid: stop_s - start_s must be a whole number of step_s") from None

    @functools.cached_property
    def layout(self) -> np.dtype:
        """:func:`_row_layout` of the count grid and the index cube."""
        return _row_layout(self.grid.size, self.cells)

    @functools.cached_property
    def block_runs(self) -> int:
        """Runs per block: the expected path count and the index cube, held against their budgets."""
        paths = max(float(theory.mean_count(self.scene, self.tau_max)), 1.0)
        return max(1, int(min(_BLOCK_PATHS / paths, _BLOCK_CELLS / self.cells)))

    @functools.cached_property
    def window(self) -> _Window:
        """:meth:`synthesis_grid` cut after the last sample a run reads, its times, and the moment cut.

        The moments read the samples before ``cut``, and ``np.interp`` at the
        count grid's last point reads up to the first sample at or after it.
        """
        padded = self.synthesis_grid()
        times = padded.times()
        cut = int(np.searchsorted(times, self.moment_cutoff, side="right"))
        read = max(cut, int(np.searchsorted(times, self.grid[-1], side="left")) + 1)
        return _Window(SampleGrid(padded.start, padded.step, read), times[:read], cut)

    def synthesis_grid(self) -> SampleGrid:
        return synthesis_grid(self.radio, self.tau_max)


@dataclass(frozen=True)
class McEstimate:
    """Ensemble mean curve with elementwise standard error."""

    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    runs: int


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical distribution: sorted values, cumulative probs."""

    values: np.ndarray
    probs: np.ndarray

    def quantile(self, q: float) -> float:
        idx = int(np.searchsorted(self.probs, q, side="left"))
        idx = min(idx, self.values.shape[0] - 1)
        return float(self.values[idx])

    @property
    def median(self) -> float:
        return self.quantile(0.5)


@dataclass(frozen=True)
class RunRecord:
    """Per-run provenance and summary."""

    index: int
    tx_position: np.ndarray
    rx_position: np.ndarray
    tx_boresight: np.ndarray | None
    rx_boresight: np.ndarray | None
    n_paths: int
    energy: float
    mean_delay: float | None
    rms_spread: float | None


@dataclass(frozen=True)
class McResult:
    """An ensemble's rows (see :func:`_row_layout`), in run order; the rest is computed on first read.

    A run has no moments exactly when its mean delay is NaN: its record has
    None for them, and ``missing_moments`` counts it.
    """

    config: McConfig
    rows: np.ndarray

    @property
    def counts_raw(self) -> np.ndarray:
        return self.rows["counts"]

    @property
    def power_raw(self) -> np.ndarray:
        return self.rows["power"]

    @functools.cached_property
    def count(self) -> McEstimate:
        return _estimate(self.config.grid, self.counts_raw)

    @functools.cached_property
    def power(self) -> McEstimate:
        return _estimate(self.config.grid, self.power_raw)

    @functools.cached_property
    def missing_moments(self) -> int:
        return int(np.isnan(self.rows["mean_delay"]).sum())

    @functools.cached_property
    def mean_delay(self) -> Ecdf | None:
        return ecdf(self.rows["mean_delay"]) if self.missing_moments < len(self.rows) else None

    @functools.cached_property
    def rms_spread(self) -> Ecdf | None:
        return ecdf(self.rows["rms_spread"]) if self.missing_moments < len(self.rows) else None

    @functools.cached_property
    def records(self) -> list[RunRecord]:
        """One record per run; boresights only for directive patterns."""
        rows, unaimed = self.rows, [None] * len(self.rows)
        aims = (rows[f"{side}_boresight"] if pattern.cone is not None else unaimed
                for side, pattern in (("tx", self.config.tx_pattern), ("rx", self.config.rx_pattern)))
        summaries = (rows[name].tolist() for name in ("n_paths", "energy", "mean_delay", "rms_spread"))
        return [
            RunRecord(index, tx_pos, rx_pos, tx_ori, rx_ori, int(paths), energy,
                      *((None, None) if np.isnan(mean) else (mean, spread)))
            for index, (tx_pos, rx_pos, tx_ori, rx_ori, paths, energy, mean, spread)
            in enumerate(zip(rows["tx_position"], rows["rx_position"], *aims, *summaries))
        ]


def run_rng(seed: int, index: int) -> np.random.Generator:
    """Random stream of run ``index`` of the ensemble with master ``seed``."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _draw_terminals(cfg: McConfig, rng: np.random.Generator):
    """One run's tx position, tx boresight, rx position and rx boresight, drawn in that order unless fixed.

    A fixed boresight is the side's pattern's aim, None for a pattern without
    a cone. A fixed distance draws the rx position and the direction to the
    transmitter until the transmitter lies in the room, then both boresights.
    """
    fixed = _FIXED[cfg.mode]
    if "distance" in fixed:
        while True:
            rx_pos = sample_position(rng, cfg.room)
            tx_pos = rx_pos + cfg.distance * sample_orientation(rng)
            if cfg.room.contains(tx_pos):
                return tx_pos, sample_orientation(rng), rx_pos, sample_orientation(rng)
    tx_pos = sample_position(rng, cfg.room)
    tx_ori = (cfg.tx_pattern.cone or (None,))[0] if "tx_boresight" in fixed else sample_orientation(rng)
    rx_pos = cfg.rx_position if "rx_position" in fixed else sample_position(rng, cfg.room)
    rx_ori = (cfg.rx_pattern.cone or (None,))[0] if "rx_boresight" in fixed else sample_orientation(rng)
    return tx_pos, tx_ori, rx_pos, rx_ori


def _run_rows(runs: int, layout: np.dtype) -> np.ndarray:
    """Rows of ``runs`` runs of ``layout`` (see :func:`_row_layout`) in one anonymous shared mapping.

    Processes forked after this call write the rows their caller reads, and
    the caller writes those of blocks they left undone.
    """
    return np.frombuffer(mmap.mmap(-1, runs * layout.itemsize), layout)


def _simulate_block(cfg: McConfig, rows: np.ndarray, block: int) -> None:
    """Simulates block ``block``, runs ``block * R`` on (R is ``cfg.block_runs``), into its rows.

    The runs draw their terminals and are enumerated and gated as one
    block, into the path lists :func:`enumerate_paths` gives them. They are
    counted, draw their phases and are synthesized one at a time, through
    the module names ``arrival_count_curve`` and ``synthesize_signal``, and
    their energies and moments are taken as rows. Every field of the block's
    rows is written, from the seed and its runs alone, so a redone block
    writes the same bits.
    """
    grid, (synthesis, times, cut) = cfg.grid, cfg.window
    first = block * cfg.block_runs
    rows = rows[first:first + cfg.block_runs]
    rngs = [run_rng(cfg.seed, index) for index in range(first, first + len(rows))]
    tx_pos, tx_ori, rx_pos, rx_ori = zip(*(_draw_terminals(cfg, rng) for rng in rngs))
    rows["tx_position"], rows["rx_position"] = tx_pos, rx_pos
    # A fixed isotropic pattern has no boresight.
    for name, boresights in (("tx_boresight", tx_ori), ("rx_boresight", rx_ori)):
        rows[name] = np.nan if boresights[0] is None else boresights
    paths = _block_paths(
        cfg.room, rows["tx_position"], [cfg.tx_pattern.aimed(b) for b in tx_ori],
        rows["rx_position"], [cfg.rx_pattern.aimed(b) for b in rx_ori],
        cfg.radio, cfg.tau_max, cfg.max_cells,
    )
    counts, power = rows["counts"], rows["power"]
    abs2 = np.empty((len(rows), synthesis.count))
    for row, (run_paths, rng) in enumerate(zip(paths, rngs)):
        counts[row] = arrival_count_curve(run_paths, grid)
        abs2[row] = synthesize_signal(run_paths, cfg.radio, synthesis, cfg.phase_mode, rng).abs2
        power[row] = np.interp(grid, times, abs2[row])

    # Energy and moments of the samples up to the cutoff.
    rows["n_paths"] = [len(run_paths) for run_paths in paths]
    rows["energy"], rows["mean_delay"], rows["rms_spread"] = _moments(abs2[:, :cut], synthesis.step, times[:cut])


def _claim(counter, lock, blocks: int, stop: bool = False) -> int:
    """The shared counter's block index, which it then advances, or with ``stop`` moves to ``blocks``.

    Under the record lock on ``lock``, which the kernel drops if its holder exits.
    """
    fcntl.lockf(lock, fcntl.LOCK_EX)
    index = counter[0]
    counter[0] = blocks if stop else index + 1
    fcntl.lockf(lock, fcntl.LOCK_UN)
    return index


def _worker(cfg: McConfig, rows, counter, lock, done, parent: int) -> None:
    """Body of a forked worker: claims blocks in order and marks each it completes in ``done``.

    It stops claiming once its parent is no longer ``parent``. On an
    exception it moves the counter past the last block, so that the other
    workers stop claiming, and returns; the block stays unmarked.
    """
    blocks = len(done)
    try:
        while os.getppid() == parent and (block := _claim(counter, lock, blocks)) < blocks:
            _simulate_block(cfg, rows, block)
            done[block] = 1
    except Exception:
        _claim(counter, lock, blocks, stop=True)


def _run_workers(cfg: McConfig, rows, done, workers: int) -> None:
    """Runs :func:`_worker` in ``workers`` forked processes and reaps each.

    A block whose worker failed or died stays unmarked in ``done``. A worker
    ends in ``os._exit`` whatever it raises, so it never returns into the
    caller's stack. If this raises, the live workers get ``SIGTERM`` first.
    """
    counter = memoryview(mmap.mmap(-1, 8)).cast("q")
    parent, pids = os.getpid(), []
    with tempfile.TemporaryFile() as lock:
        try:
            for _ in range(workers):
                if (pid := os.fork()) == 0:
                    try:
                        _worker(cfg, rows, counter, lock, done, parent)
                    finally:
                        os._exit(0)
                pids.append(pid)
            while pids:
                pids.remove(os.waitpid(pids[0], 0)[0])
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)


def _estimate(grid: np.ndarray, raw: np.ndarray) -> McEstimate:
    """Mean and standard error of the rows of ``raw``, which has two or more columns.

    Bitwise equal to ``raw.astype(float).mean(axis=0)`` and
    ``raw.astype(float).std(axis=0, ddof=1) / sqrt(runs)`` (zero for one run).
    numpy's axis-0 reductions of such an array add row after row, and its
    mean casts integer rows, of any width, in small float64 buffers. The
    squared deviations are added in the same order a block of rows at a time,
    row 0 of each block holding the sums so far, so neither needs a full-size temporary.
    """
    runs, points = raw.shape
    mean = raw.mean(axis=0)
    squares = np.zeros(points)
    buf = np.empty((min(_STAT_ROWS, runs) + 1, points))
    for start in range(0, runs, _STAT_ROWS):
        rows = raw[start:start + _STAT_ROWS]
        block = buf[:len(rows) + 1]
        block[0] = squares
        deviations = block[1:]
        np.subtract(rows, mean, out=deviations)
        np.square(deviations, out=deviations)
        np.add.reduce(block, axis=0, out=squares)
    # A lone run deviates by 0 from its mean, so its standard error is 0.
    stderr = np.sqrt(squares / max(runs - 1, 1)) / np.sqrt(runs)
    return McEstimate(grid, mean, stderr, runs)


def ecdf(samples) -> Ecdf:
    """Standard right-continuous ECDF of the finite entries of ``samples``."""
    values = np.asarray(samples, dtype=float)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise EmptySampleError("no finite samples for an empirical distribution")
    unique, counts = np.unique(values, return_counts=True)
    probs = np.cumsum(counts) / values.size
    return Ecdf(unique, probs)


def run_ensemble(cfg: McConfig, workers: int = 1) -> McResult:
    """Execute the ensemble into its rows, which the result holds read-only.

    The result is identical for any worker count. ``workers > 1`` forks
    processes, at most one per CPU and one per block of
    ``cfg.block_runs`` runs; they inherit ``cfg`` and the shared rows, write
    each run's row in place and mark each block they complete. The caller
    then simulates every unmarked block in order, at one worker all of them.
    So an error is raised here from the first failing block, as at one
    worker, and the blocks of a worker that died, even holding the counter's
    lock, are redone with the same bits. Every worker is reaped before the
    call returns or raises; one whose parent dies stops after its block.
    """
    rows = _run_rows(cfg.runs, cfg.layout)
    blocks = -(-cfg.runs // cfg.block_runs)
    done = mmap.mmap(-1, blocks)
    workers = min(workers, os.cpu_count() or 1, blocks)
    if workers > 1:
        _run_workers(cfg, rows, done, workers)
    for block in range(blocks):
        if not done[block]:
            _simulate_block(cfg, rows, block)
    rows.flags.writeable = False
    return McResult(cfg, rows)


def fit_decay_time(taus, power, window: tuple[float, float]) -> float:
    """Least-squares exponential decay time of ``power`` over a delay window."""
    taus = np.asarray(taus, dtype=float)
    power = np.asarray(power, dtype=float)
    mask = (taus >= window[0]) & (taus <= window[1]) & (power > 0.0)
    if int(mask.sum()) < 2:
        raise ConfigError("fit window leaves fewer than two usable grid points")
    slope, _ = np.polyfit(taus[mask], np.log(power[mask]), 1)
    if slope >= 0.0:
        raise ConfigError("power does not decay over the fit window")
    return float(-1.0 / slope)


def _max_rel_check(measured, expected, mask, tolerance: float) -> dict:
    """Largest relative error of ``measured`` where ``mask`` holds; an empty mask passes with 0."""
    rel = np.abs(measured[mask] - expected[mask]) / expected[mask]
    worst = float(np.max(rel)) if rel.size else 0.0
    return {"tolerance": tolerance, "max_rel_error": worst, "points": int(mask.sum()),
            "pass": bool(worst <= tolerance)}


def compare_with_theory(result: McResult) -> dict:
    """Structured comparison of an ensemble against the closed forms.

    The scene comes from ``result.config``. The checks follow from what its
    mode fixes (see _FIXED): a fixed distance is compared against the
    conditional mean count, a fixed tx boresight against the min-fraction
    upper bound, and any other mode against the exact mean count and the
    corrected exponential tail. Returns a JSON-ready report with per-check
    errors and PASS/FAIL flags.

    The tail is fitted over [40 ns, 110 ns] clipped to the grid. Tail checks
    are skipped (with a note) when the walls have no single reflectance, are
    lossless or fully absorbing (no exponential tail), or when the mean power
    cannot be fitted with a decay over the window.
    """
    cfg = result.config
    scene, grid = cfg.scene, cfg.grid
    fit_window = (max(_FIT_WINDOW[0], float(grid[0])), min(_FIT_WINDOW[1], float(grid[-1])))
    checks: dict[str, dict] = {}
    notes: list[str] = []

    fixed = _FIXED[cfg.mode]
    if "distance" in fixed:
        tau0 = cfg.distance / cfg.radio.speed_of_light
        expected = theory.conditional_mean_count(scene, grid, tau0)
        far = grid >= tau0 + scene.room.diagonal / scene.radio.speed_of_light
        checks["conditional_count"] = _max_rel_check(result.count.mean, expected, far, _CONDITIONAL_TOLERANCE)
    elif "tx_boresight" in fixed:
        bound = theory.count_upper_bound(scene, grid)
        slack = bound + 3.0 * result.count.stderr - result.count.mean
        checks["count_upper_bound"] = {
            "max_violation": float(np.max(-slack)),
            "pass": bool(np.all(slack >= 0.0)),
        }
    else:
        expected = theory.mean_count(scene, grid)
        mask = expected >= _MIN_EXPECTED_COUNT
        if np.any(mask):
            checks["mean_count"] = _max_rel_check(result.count.mean, expected, mask, _COUNT_TOLERANCE)
        else:
            notes.append("mean-count check skipped: expected count stays below threshold")

        in_window = (grid >= fit_window[0]) & (grid <= fit_window[1])
        try:
            uncorrected = theory.reverberation_time(scene)
            corrected = uncorrected * theory.kuttruff_correction(scene.reflectance)
            fitted = fit_decay_time(grid, result.power.mean, fit_window)
        except ValueError as exc:
            notes.append(f"tail checks skipped: {exc}")
        else:
            checks["tail_decay"] = {
                "fitted_seconds": fitted,
                "corrected_seconds": corrected,
                "uncorrected_seconds": uncorrected,
                "rel_error_corrected": abs(fitted - corrected) / corrected,
                "rel_discrepancy_uncorrected": abs(fitted - uncorrected) / uncorrected,
                "tolerance": _SLOPE_TOLERANCE,
                "pass": bool(abs(fitted - corrected) / corrected <= _SLOPE_TOLERANCE),
            }

            measured = result.power.mean[in_window]
            errors = []
            for corrected in (True, False):
                spectrum = theory.pds(scene, grid, mode="randomized", corrected=corrected)
                expected = theory.expected_received_power(spectrum, cfg.radio, grid[in_window])
                errors.append(float(np.mean(np.abs(measured - expected) / expected)))
            checks["power_curve"] = {
                "tolerance": _POWER_TOLERANCE,
                "mean_rel_error_corrected": errors[0],
                "mean_rel_error_uncorrected": errors[1],
                "pass": bool(errors[0] <= _POWER_TOLERANCE),
            }

    report = {
        "mode": cfg.mode,
        "runs": cfg.runs,
        "missing_moment_runs": result.missing_moments,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()) if checks else True,
    }
    if notes:
        report["notes"] = notes
    return report


def compare_power_curves(a: McResult, b: McResult, window: tuple[float, float]) -> dict:
    """Pointwise consistency of two mean-power curves within standard errors."""
    if not np.array_equal(a.power.grid, b.power.grid):
        raise ConfigError("results use different evaluation grids")
    grid = a.power.grid
    mask = (grid >= window[0]) & (grid <= window[1])
    if not mask.any():
        raise ConfigError(f"window [{window[0]:g}, {window[1]:g}] s holds no grid point")
    sigma = np.sqrt(a.power.stderr[mask] ** 2 + b.power.stderr[mask] ** 2)
    gap = np.abs(a.power.mean[mask] - b.power.mean[mask])
    ratio = gap / np.where(sigma > 0.0, sigma, np.inf)
    return {
        "max_sigma_distance": float(np.max(ratio)),
        "points": int(mask.sum()),
        "pass": bool(np.all(ratio <= 3.0)),
    }


def write_bundle(result: McResult, out_dir, manifest: dict, report: dict) -> None:
    """Write the results bundle: curve CSVs, ECDFs, manifest, and report."""
    os.makedirs(out_dir, exist_ok=True)
    for name, estimate, value_name in (
        ("counts.csv", result.count, "mean_count"),
        ("power.csv", result.power, "mean_power"),
    ):
        write_csv(
            os.path.join(out_dir, name), f"tau_seconds,{value_name},standard_error",
            estimate.grid, estimate.mean, estimate.stderr,
        )
    for name, dist, value_name in (
        ("ecdf_mean_delay.csv", result.mean_delay, "mean_delay_seconds"),
        ("ecdf_rms.csv", result.rms_spread, "rms_spread_seconds"),
    ):
        columns = () if dist is None else (dist.values, dist.probs)
        write_csv(os.path.join(out_dir, name), f"{value_name},cumulative_probability", *columns)
    for name, doc in (("manifest.json", manifest), ("report.json", report)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
