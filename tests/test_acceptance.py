"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s``. The Monte Carlo fixtures
are shared across criteria and pinned to fixed seeds; the full module takes
a few minutes on two cores.
"""

import multiprocessing
import time

import numpy as np
import pytest
from scipy import integrate

from conftest import brute_force_indices, receiver_image_departure
from roomchan import theory
from roomchan.antenna import Isotropic, SphericalCap
from roomchan.channel import RadioConfig, enumerate_paths
from roomchan.geometry import Room, enumerate_indices
from roomchan.montecarlo import (
    McConfig,
    compare_power_curves,
    fit_decay_time,
    run_ensemble,
)

C = 3e8
ROOM = Room((5.0, 5.0, 3.0), 0.6)
RADIO = RadioConfig.from_center_frequency(60e9, 2e9, C)
ISO = Isotropic()
TX = np.array([2.5, 2.5, 1.5])
RX = np.array([3.8, 4.0, 0.6])
GAMMA_SQ = 0.35
WORKERS = min(2, multiprocessing.cpu_count())


def verdict(number, ok, detail) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def scene_for(tx_pattern, rx_pattern, tx_position=None, rx_position=None):
    return theory.SceneSummary.from_components(
        ROOM, RADIO, tx_pattern, rx_pattern, tx_position, rx_position
    )


def table_config(pattern, runs, seed, **kw):
    return McConfig(
        room=ROOM, radio=RADIO, tx_pattern=pattern, rx_pattern=pattern,
        runs=runs, seed=seed, **kw,
    )


@pytest.fixture(scope="module")
def durations():
    return {}


@pytest.fixture(scope="module")
def ens_iso(durations):
    t0 = time.time()
    result = run_ensemble(table_config(ISO, 2000, 202), workers=WORKERS)
    durations["iso"] = time.time() - t0
    return result


@pytest.fixture(scope="module")
def ens_hemi(durations):
    t0 = time.time()
    result = run_ensemble(table_config(SphericalCap(0.5), 2000, 606), workers=WORKERS)
    durations["hemi"] = time.time() - t0
    return result


@pytest.fixture(scope="module")
def ens_quarter(durations):
    t0 = time.time()
    result = run_ensemble(table_config(SphericalCap(0.25), 2000, 405), workers=WORKERS)
    durations["quarter"] = time.time() - t0
    return result


@pytest.fixture(scope="module")
def ens_center_rx():
    # receiver pinned at the room center: the geometry assumed by the
    # second-moment approximation
    cfg = table_config(ISO, 800, 5, mode="fixed-rx", rx_position=(2.5, 2.5, 1.5))
    return run_ensemble(cfg, workers=WORKERS)


def test_criterion_1_mixing_time():
    scene_iso = scene_for(ISO, ISO)
    scene_hemi = scene_for(SphericalCap(0.5), SphericalCap(0.5))
    exact_iso = np.sqrt(RADIO.bandwidth * ROOM.volume / (4 * np.pi * C**3))
    got_iso = theory.mixing_time(scene_iso)
    got_hemi = theory.mixing_time(scene_hemi)
    ok = (
        abs(got_iso - exact_iso) / exact_iso < 1e-3
        and abs(got_hemi - 2 * exact_iso) / (2 * exact_iso) < 1e-3
        and abs(got_iso - 21e-9) / 21e-9 < 0.02
        and abs(got_hemi - 42e-9) / 42e-9 < 0.02
    )
    assert verdict(1, ok, f"mixing time {got_iso*1e9:.3f} ns isotropic, {got_hemi*1e9:.3f} ns hemisphere pair")


def test_criterion_2_correction_factor():
    xi = theory.kuttruff_correction(0.6, GAMMA_SQ)
    ok = abs(xi - 1.0982) <= 1e-4
    assert verdict(2, ok, f"correction factor {xi:.5f} vs 1.0982 +/- 1e-4")


def test_criterion_3_mean_count_law(ens_iso, ens_hemi, ens_quarter, durations):
    details = []
    ok = True
    cases = [
        ("w_tx*w_rx=1", ens_iso, scene_for(ISO, ISO)),
        ("w_tx*w_rx=0.25", ens_hemi, scene_for(SphericalCap(0.5), SphericalCap(0.5))),
        ("w_tx*w_rx=0.0625", ens_quarter, scene_for(SphericalCap(0.25), SphericalCap(0.25))),
    ]
    for label, result, scene in cases:
        grid = result.count.grid
        expected = theory.mean_count(scene, grid)
        mask = expected >= 100.0
        rel = np.abs(result.count.mean[mask] - expected[mask]) / expected[mask]
        worst = float(np.max(rel))
        ok &= worst <= 0.03
        details.append(f"{label}: max rel err {worst:.4f} over {int(mask.sum())} pts")
    runtime = sum(durations.values())
    details.append(f"ensembles built in {runtime:.0f} s")
    ok &= runtime < 300.0
    assert verdict(3, ok, "; ".join(details))


def test_criterion_4_deterministic_asymptote():
    paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 100e-9)
    count = len(paths)
    ratio = count * 3.0 * ROOM.volume / (4.0 * np.pi * C**3 * (100e-9) ** 3)
    ok = 0.95 <= ratio <= 1.05
    assert verdict(4, ok, f"N(100 ns) = {count}, ratio to cubic law {ratio:.4f}")


def test_criterion_5_pds_directivity_invariance(ens_iso, ens_hemi):
    taus = np.linspace(0, 120e-9, 481)
    reference = theory.pds(scene_for(ISO, ISO), taus, mode="randomized")
    bitwise = all(
        np.array_equal(
            reference.values,
            theory.pds(scene_for(SphericalCap(f), SphericalCap(f)), taus, mode="randomized").values,
        )
        for f in (0.5, 0.25, 0.0625)
    )
    mc_report = compare_power_curves(ens_iso, ens_hemi, (20e-9, 100e-9))
    ok = bitwise and mc_report["pass"]
    assert verdict(
        5,
        ok,
        f"theory curves bitwise identical: {bitwise}; "
        f"mean power curves within {mc_report['max_sigma_distance']:.2f} standard errors",
    )


def test_criterion_6_reverberation_slope(ens_iso):
    scene = scene_for(ISO, ISO)
    uncorrected = theory.reverberation_time(scene)
    corrected = uncorrected * theory.kuttruff_correction(0.6, GAMMA_SQ)
    fitted = fit_decay_time(ens_iso.power.grid, ens_iso.power.mean, (40e-9, 110e-9))
    err_corrected = abs(fitted - corrected) / corrected
    disc_uncorrected = abs(fitted - uncorrected) / uncorrected
    ok = err_corrected <= 0.05 and 0.06 <= disc_uncorrected <= 0.12
    assert verdict(
        6,
        ok,
        f"fitted {fitted*1e9:.3f} ns vs corrected {corrected*1e9:.3f} ns "
        f"(err {err_corrected:.3f}); vs uncorrected {uncorrected*1e9:.3f} ns "
        f"(discrepancy {disc_uncorrected:.3f}, band [0.06, 0.12])",
    )


def test_criterion_7_count_upper_bound():
    # directive branch: receiver fraction is the binding minimum
    tx_cap = SphericalCap(0.6, (0.3, -0.5, 0.8))
    rx_cap = SphericalCap(0.35, (-0.2, 0.9, 0.1))
    cfg = McConfig(
        room=ROOM, radio=RADIO, tx_pattern=tx_cap, rx_pattern=rx_cap,
        runs=600, seed=606, mode="fixed-orientation-tx",
        rx_position=(1.2, 3.4, 1.1), rx_orientation=(-0.2, 0.9, 0.1),
        tx_orientation=(0.3, -0.5, 0.8),
    )
    result = run_ensemble(cfg, workers=WORKERS)
    grid = result.count.grid
    bound = theory.count_upper_bound(scene_for(tx_cap, rx_cap), grid)
    slack = bound + 3.0 * result.count.stderr - result.count.mean
    bound_ok = bool(np.all(slack >= 0.0))

    # equality branch: isotropic transmitter saturates the bound; the test
    # has power only where the bound predicts at least one count per run
    rx_eq = SphericalCap(0.5, (0.6, 0.1, 0.7))
    cfg_eq = McConfig(
        room=ROOM, radio=RADIO, tx_pattern=ISO, rx_pattern=rx_eq,
        runs=600, seed=607, mode="fixed-orientation-tx",
        rx_position=(2.5, 1.5, 1.5), rx_orientation=(0.6, 0.1, 0.7),
        tx_orientation=(0.0, 0.0, 1.0),
    )
    result_eq = run_ensemble(cfg_eq, workers=WORKERS)
    bound_eq = theory.count_upper_bound(scene_for(ISO, rx_eq), grid)
    sel = bound_eq >= 1.0
    sigma = np.where(result_eq.count.stderr[sel] > 0, result_eq.count.stderr[sel], np.inf)
    dev = np.abs(result_eq.count.mean[sel] - bound_eq[sel]) / sigma
    equality_ok = bool(np.all(dev <= 3.0))

    ok = bound_ok and equality_ok
    assert verdict(
        7,
        ok,
        f"bound holds pointwise (min slack {float(np.min(slack)):.3f}); "
        f"isotropic-transmitter equality within {float(np.max(dev)):.2f} standard errors",
    )


def test_criterion_8_conditional_count():
    distance = 3.0
    tau0 = distance / C
    cap = SphericalCap(0.5)
    cfg = McConfig(
        room=ROOM, radio=RADIO, tx_pattern=cap, rx_pattern=cap,
        runs=1200, seed=808, mode="fixed-distance", distance=distance,
    )
    result = run_ensemble(cfg, workers=WORKERS)
    scene = scene_for(cap, cap)
    grid = result.count.grid
    expected = theory.conditional_mean_count(scene, grid, tau0)
    far = grid >= tau0 + ROOM.diagonal / C
    rel = np.abs(result.count.mean[far] - expected[far]) / expected[far]
    worst = float(np.max(rel))
    ok = worst <= 0.05
    assert verdict(
        8, ok,
        f"distance {distance} m: max rel err {worst:.4f} for delays past "
        f"{(tau0 + ROOM.diagonal / C)*1e9:.1f} ns ({int(far.sum())} pts)",
    )


def test_criterion_9_count_second_moment(ens_iso, ens_center_rx):
    scene = scene_for(ISO, ISO)
    details = []
    ok = True
    for label, result in (("both-random", ens_iso), ("center receiver", ens_center_rx)):
        grid = result.count.grid
        approx = theory.count_second_moment(scene, grid)
        empirical = (result.counts_raw.astype(float) ** 2).mean(axis=0)
        late = grid >= 40e-9
        rel = np.abs(empirical[late] - approx[late]) / approx[late]
        worst = float(np.max(rel))
        ok &= worst <= 0.15
        details.append(f"{label}: raw moment max rel err {worst:.4f}")

    # variance overshoot, documented for the geometry the approximation
    # assumes (receiver at the room center)
    grid = ens_center_rx.count.grid
    late = grid >= 40e-9
    approx_var = theory.count_second_moment(scene, grid) - theory.mean_count(scene, grid) ** 2
    emp_var = ens_center_rx.counts_raw.astype(float).var(axis=0)
    overshoot = bool(np.all(approx_var[late] >= emp_var[late]))
    ratio = float(np.median(approx_var[late] / np.maximum(emp_var[late], 1e-12)))
    ok &= overshoot
    details.append(f"variance overshoot holds (median approx/empirical {ratio:.1f}x)")
    assert verdict(9, ok, "; ".join(details))


def test_criterion_10_property_pack():
    checks = {}

    # enumeration equals an independent brute-force scan (small room)
    room = Room((2.0, 1.5, 1.0), 0.7)
    src, rcv = np.array([0.3, 1.1, 0.45]), np.array([1.7, 0.2, 0.8])
    oracle = brute_force_indices(room, src, rcv, 25e-9, C)
    indices, _, delays, _ = enumerate_indices(room, src, rcv, 25e-9, C)
    got = {tuple(row): d for row, d in zip(indices, delays)}
    checks["brute-force equivalence"] = got.keys() == oracle.keys() and all(
        abs(got[k] - oracle[k]) <= 1e-12 * oracle[k] for k in oracle
    )

    # rate integrates to count for every pair, including spike weights
    scene = theory.SceneSummary.from_components(
        ROOM, RADIO, SphericalCap(0.6), SphericalCap(0.8), TX, RX
    )
    tau0 = scene.direct_delay
    quad_ok = True
    for tau in (20e-9, 60e-9):
        spike, _ = theory.approx_rate(scene, tau)
        integral, _ = integrate.quad(
            lambda t: float(theory.approx_rate(scene, t)[1]), 0, tau, points=[tau0], limit=200
        )
        quad_ok &= abs(integral + spike - float(theory.approx_count(scene, tau))) <= 1e-6 * float(
            theory.approx_count(scene, tau)
        )
        integral, _ = integrate.quad(lambda t: float(theory.mean_rate(scene, t)), 0, tau)
        quad_ok &= abs(integral - float(theory.mean_count(scene, tau))) <= 1e-6 * float(
            theory.mean_count(scene, tau)
        )
        integral, _ = integrate.quad(lambda t: float(theory.rate_upper_bound(scene, t)), 0, tau)
        quad_ok &= abs(integral - float(theory.count_upper_bound(scene, tau))) <= 1e-6 * float(
            theory.count_upper_bound(scene, tau)
        )
    checks["rate-count quadrature"] = quad_ok

    # direct path with isotropic antennas reduces to the free-space law
    big = Room((40.0, 40.0, 40.0), 0.6)
    paths = enumerate_paths(big, (20.0, 20.0, 20.0), ISO, (21.0, 20.0, 20.0), ISO, RADIO, 3.4e-9)
    friis = (RADIO.wavelength / (4 * np.pi)) ** 2
    checks["free-space reduction"] = len(paths) == 1 and abs(
        paths.power_gains[0] - friis
    ) <= 1e-12 * friis

    # transmit/receive reciprocity with directive antennas
    tx_cap = SphericalCap(0.3, (1.0, 0.2, -0.4))
    rx_cap = SphericalCap(0.7, (-0.3, 1.0, 0.1))
    forward = enumerate_paths(ROOM, TX, tx_cap, RX, rx_cap, RADIO, 60e-9)
    backward = enumerate_paths(ROOM, RX, rx_cap, TX, tx_cap, RADIO, 60e-9)
    checks["reciprocity"] = (
        len(forward) == len(backward)
        and np.allclose(np.sort(forward.delays), np.sort(backward.delays), rtol=1e-12)
        and np.allclose(np.sort(forward.power_gains), np.sort(backward.power_gains), rtol=1e-10)
    )

    # the simulator's departure directions equal the receiver-image
    # construction, for every index up to 3 reflections per axis
    paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 90e-9)
    low = np.all(np.abs(paths.indices) <= 3, axis=1)
    direct = [receiver_image_departure(ROOM, TX, RX, k) for k in paths.indices[low].tolist()]
    checks["departure sign map"] = int(low.sum()) == 7**3 and bool(
        np.allclose(paths.dods[low], direct, atol=1e-12)
    )

    # seed determinism independent of worker count
    cfg = table_config(ISO, 8, 99, tau_max=40e-9, moment_cutoff=40e-9,
                       grid_stop=40e-9, grid_step=1e-9)
    serial = run_ensemble(cfg, workers=1)
    parallel = run_ensemble(cfg, workers=2)
    checks["seed determinism"] = np.array_equal(
        serial.counts_raw, parallel.counts_raw
    ) and np.array_equal(serial.power_raw, parallel.power_raw)

    ok = all(checks.values())
    assert verdict(10, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_note_delay_spread_medians_separate(ens_iso, ens_quarter):
    # distributions of rms delay spread shift with directivity; medians
    # separate far beyond bootstrap uncertainty
    rng = np.random.default_rng(12345)

    def median_sigma(values, n_boot=400):
        medians = [
            float(np.median(rng.choice(values, size=values.size, replace=True)))
            for _ in range(n_boot)
        ]
        return float(np.std(medians, ddof=1))

    spread_iso = np.array([r.rms_spread for r in ens_iso.records if r.rms_spread is not None])
    spread_q = np.array([r.rms_spread for r in ens_quarter.records if r.rms_spread is not None])
    gap = abs(float(np.median(spread_iso)) - float(np.median(spread_q)))
    sigma = float(np.hypot(median_sigma(spread_iso), median_sigma(spread_q)))
    ok = gap > 3.0 * sigma
    assert verdict(
        "note", ok,
        f"median rms spread {np.median(spread_iso)*1e9:.2f} ns isotropic vs "
        f"{np.median(spread_q)*1e9:.2f} ns directive ({gap/sigma:.1f} sigma)",
    )


def test_note_directive_dispersion(ens_iso, ens_quarter):
    # per-run count curves disperse far more for directive antennas once
    # normalized by their (16x smaller) mean level
    grid = ens_iso.count.grid
    i40 = int(np.argmin(np.abs(grid - 40e-9)))
    mean_iso = float(theory.mean_count(scene_for(ISO, ISO), grid[i40]))
    mean_q = float(
        theory.mean_count(scene_for(SphericalCap(0.25), SphericalCap(0.25)), grid[i40])
    )
    norm_iso = ens_iso.counts_raw[:, i40].astype(float) / mean_iso
    norm_q = ens_quarter.counts_raw[:, i40].astype(float) / mean_q

    def var_sigma(values):
        # standard error of the sample variance from the fourth moment
        n = values.size
        centered = values - values.mean()
        m4 = float(np.mean(centered**4))
        s2 = float(values.var(ddof=1))
        return float(np.sqrt(max(m4 - s2**2, 0.0) / n))

    v_iso, v_q = float(norm_iso.var(ddof=1)), float(norm_q.var(ddof=1))
    sigma = float(np.hypot(var_sigma(norm_iso), var_sigma(norm_q)))
    ok = v_q > v_iso + 3.0 * sigma
    assert verdict(
        "note", ok,
        f"normalized count dispersion at 40 ns: {v_q:.4f} directive vs {v_iso:.4f} isotropic",
    )
