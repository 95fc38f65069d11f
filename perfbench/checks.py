"""Output checks that do not trust the code under test.

Each check returns ``(name, ok, detail)``. The arrival-count oracle walks the
image lattice in plain loops; the synthesis reference sums one sinc pulse
per path; the count z-test uses the closed form written out here. None of
them compares against stored output.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

# Carrier-phase synthesis against the per-path sum, relative to the peak.
# The package expands sin(a - b) with a, b up to about 2e3 rad; the errors
# seen on these workloads stay below 3e-13, while a misplaced or misscaled
# pulse shows as an error of order one.
SYNTH_TOLERANCE = 1e-9

# Two-sided threshold on the ensemble mean count at the horizon. Under the
# null the false-fail rate is 5.7e-7 for a normal z, and 8e-5 for Student's
# t with 19 degrees of freedom (the 20-run ensemble).
Z_LIMIT = 5.0

# Runs rerun at one worker by the determinism probe.
PROBE_RUNS = 4


def _image_coordinate(k: int, length: float, x: float) -> float:
    # k = 2m images x into 2mL + x; k = 2m + 1 mirrors it to 2(m + 1)L - x.
    if k % 2 == 0:
        return k * length + x
    return (k + 1) * length - x


def _in_cap(direction, cap) -> bool:
    if cap is None:
        return True
    fraction, axis = cap
    dot = direction[0] * axis[0] + direction[1] * axis[1] + direction[2] * axis[2]
    return dot >= 1.0 - 2.0 * fraction


def oracle_delays(lengths, tx, rx, tx_cap, rx_cap, tau_max, speed):
    """Delays of all image paths within ``tau_max`` inside both caps.

    ``tx_cap`` and ``rx_cap`` are ``(fraction, unit boresight)`` or ``None``
    for an isotropic antenna. Per axis the departure direction equals the
    arrival direction for an odd reflection count and its negative for an
    even one.
    """
    radius = speed * tau_max
    r2 = radius * radius
    bounds = [int(radius // length) + 2 for length in lengths]
    delays = []
    for kx in range(-bounds[0], bounds[0] + 1):
        dx = _image_coordinate(kx, lengths[0], tx[0]) - rx[0]
        if dx * dx > r2:
            continue
        for ky in range(-bounds[1], bounds[1] + 1):
            dy = _image_coordinate(ky, lengths[1], tx[1]) - rx[1]
            if dx * dx + dy * dy > r2:
                continue
            for kz in range(-bounds[2], bounds[2] + 1):
                dz = _image_coordinate(kz, lengths[2], tx[2]) - rx[2]
                d2 = dx * dx + dy * dy + dz * dz
                if d2 > r2:
                    continue
                d = math.sqrt(d2)
                doa = (dx / d, dy / d, dz / d)
                dod = tuple(v if k % 2 else -v for v, k in zip(doa, (kx, ky, kz)))
                if _in_cap(doa, rx_cap) and _in_cap(dod, tx_cap):
                    delays.append(d / speed)
    delays.sort()
    return delays


def _cap(pattern, boresight):
    if boresight is None:
        return None
    axis = [float(v) for v in boresight]
    norm = math.sqrt(sum(v * v for v in axis))
    return pattern.beam_fraction, [v / norm for v in axis]


def check_oracle_counts(result, index: int):
    """Arrival-count row of one run against the plain-loop lattice walk."""
    cfg = result.config
    record = result.records[index]
    delays = oracle_delays(
        [float(v) for v in cfg.room.lengths],
        [float(v) for v in record.tx_position],
        [float(v) for v in record.rx_position],
        _cap(cfg.tx_pattern, record.tx_boresight),
        _cap(cfg.rx_pattern, record.rx_boresight),
        cfg.tau_max,
        cfg.radio.speed_of_light,
    )
    expected = [bisect.bisect_right(delays, float(t)) for t in result.count.grid]
    got = result.counts_raw[index]
    mismatches = int(np.sum(got != np.asarray(expected)))
    ok = mismatches == 0 and len(delays) == record.n_paths
    detail = f"{len(delays)} oracle paths, {record.n_paths} in record, {mismatches} grid mismatches"
    return f"oracle_counts[run {index}]", ok, detail


def _rebuild_paths(result, index: int):
    from roomchan.channel import enumerate_paths
    from roomchan.antenna import SphericalCap

    cfg = result.config
    record = result.records[index]

    def aimed(pattern, boresight):
        return pattern.aimed(boresight) if isinstance(pattern, SphericalCap) else pattern

    return enumerate_paths(
        cfg.room, record.tx_position, aimed(cfg.tx_pattern, record.tx_boresight),
        record.rx_position, aimed(cfg.rx_pattern, record.rx_boresight),
        cfg.radio, cfg.tau_max, cfg.max_cells,
    )


def check_direct_sum(result, index: int):
    """Carrier-phase synthesis of one rebuilt scene against a per-path sum."""
    from roomchan.channel import synthesize_signal

    cfg = result.config
    paths = _rebuild_paths(result, index)
    grid = cfg.synthesis_grid()
    trace = synthesize_signal(paths, cfg.radio, grid, "carrier")
    t = grid.times()
    direct = np.zeros(grid.count, dtype=complex)
    for gain, phase, delay in zip(paths.power_gains, paths.phases, paths.delays):
        direct += math.sqrt(gain) * np.exp(1j * phase) * np.sinc(cfg.radio.bandwidth * (t - delay))
    peak = float(np.max(np.abs(direct))) if len(paths) else 0.0
    err = float(np.max(np.abs(trace.samples - direct)))
    rel = err / peak if peak > 0.0 else err
    ok = rel <= SYNTH_TOLERANCE
    detail = f"{len(paths)} paths, max error {rel:.3g} of peak (limit {SYNTH_TOLERANCE:g})"
    return f"direct_sum[run {index}]", ok, detail


def check_mean_count(result):
    """z-test of the ensemble mean count at the last grid point.

    The mean under uniform random placement and orientation is
    ``4*pi*c^3*tau^3 / (3*V) * w_tx * w_rx``.
    """
    cfg = result.config
    tau = float(result.count.grid[-1])
    c = cfg.radio.speed_of_light
    expected = (
        4.0 * math.pi * c**3 * tau**3 / (3.0 * cfg.room.volume)
        * cfg.tx_pattern.beam_fraction * cfg.rx_pattern.beam_fraction
    )
    counts = result.counts_raw[:, -1].astype(float)
    stderr = float(np.std(counts, ddof=1)) / math.sqrt(counts.size)
    z = (float(np.mean(counts)) - expected) / stderr
    detail = (
        f"mean {np.mean(counts):.4f} vs {expected:.4f} at {tau * 1e9:g} ns, "
        f"z = {z:.3f} (limit {Z_LIMIT})"
    )
    return "mean_count_z", abs(z) <= Z_LIMIT, detail


def check_worker_determinism(result):
    """First runs at one worker are bitwise equal to the ensemble's rows."""
    from roomchan.montecarlo import run_ensemble

    k = min(PROBE_RUNS, result.config.runs)
    single = run_ensemble(dataclasses.replace(result.config, runs=k), workers=1)
    ok = (
        single.counts_raw.tobytes() == result.counts_raw[:k].tobytes()
        and single.power_raw.tobytes() == result.power_raw[:k].tobytes()
    )
    return "worker_determinism", ok, f"first {k} runs at 1 worker vs the ensemble's rows"


def oracle_indices(runs: int, count: int) -> list[int]:
    """``count`` evenly spaced run indices, first and last included."""
    return sorted({round(i * (runs - 1) / max(1, count - 1)) for i in range(count)})


def check_count(runs: int, oracle_runs: int) -> int:
    """Number of checks ``run_checks`` makes."""
    return 2 * len(oracle_indices(runs, oracle_runs)) + 2


def run_checks(result, oracle_runs: int):
    """All per-run checks of one ensemble, in a fixed order."""
    out = []
    for index in oracle_indices(result.config.runs, oracle_runs):
        out.append(check_oracle_counts(result, index))
        out.append(check_direct_sum(result, index))
    out.append(check_mean_count(result))
    out.append(check_worker_determinism(result))
    return out
