import itertools
import math
import sys
import threading

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from conftest import dense_scan, hand_gated_paths
from roomchan import channel, geometry
from roomchan.antenna import AntennaPattern, Isotropic, SphericalCap
from roomchan.channel import (
    PathList,
    RadioConfig,
    SampleGrid,
    SignalTrace,
    arrival_count_curve,
    enumerate_paths,
    signal_moments,
    sinc_pulse,
    synthesis_grid,
    synthesize_signal,
)
from roomchan.errors import DegenerateGeometryError, OutOfHorizonError, ResourceLimitError, ZeroEnergyError
from roomchan.geometry import Room

C = 3e8
ROOM = Room((5.0, 5.0, 3.0), 0.6)
RADIO = RadioConfig.from_center_frequency(60e9, 2e9, C)
TX = np.array([2.5, 2.5, 1.5])
RX = np.array([3.8, 4.0, 0.6])
ISO = Isotropic()
TAU0 = np.sqrt(4.75) / C


def index_set(paths):
    return {tuple(k) for k in paths.indices.tolist()}


def count_at(paths, tau):
    return int(arrival_count_curve(paths, [tau])[0])


def single_path_list(delay, power=1.0, phase=0.0, horizon=None):
    return PathList(
        indices=[[0, 0, 0]],
        delays=[delay],
        dods=[[1.0, 0.0, 0.0]],
        doas=[[-1.0, 0.0, 0.0]],
        power_gains=[power],
        phases=[phase],
        horizon=horizon if horizon is not None else 2 * delay,
    )


class TestRadioConfig:
    def test_wavelength_from_frequency(self):
        assert RADIO.wavelength == pytest.approx(0.005)
        assert RADIO.center_frequency == pytest.approx(60e9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RadioConfig(0.0, 2e9)
        with pytest.raises(ValueError):
            RadioConfig(0.005, -1.0)


class TestEnumeratePaths:
    def test_direct_path_is_friis(self):
        room = Room((40.0, 40.0, 40.0), 0.6)
        tx = np.array([20.0, 20.0, 20.0])
        rx = tx + [1.0, 0.0, 0.0]
        tau_max = 1.0 / C * 1.0001  # only the 1 m direct path fits
        paths = enumerate_paths(room, tx, ISO, rx, ISO, RADIO, tau_max)
        assert len(paths) == 1
        friis = (RADIO.wavelength / (4.0 * np.pi * 1.0)) ** 2
        assert paths.power_gains[0] == pytest.approx(friis, rel=1e-12)
        assert friis == pytest.approx(1.583e-7, rel=1e-3)

    def test_caps_pointed_away_drop_direct_path(self):
        los = (RX - TX) / np.linalg.norm(RX - TX)
        tx_cap = SphericalCap(0.05, -los)
        rx_cap = SphericalCap(0.05, los)
        paths = enumerate_paths(ROOM, TX, tx_cap, RX, rx_cap, RADIO, 40e-9)
        assert (0, 0, 0) not in index_set(paths)

    def test_count_matches_length(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        assert count_at(paths, 40e-9) == len(paths)

    def test_sorted_by_delay(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        assert np.all(np.diff(paths.delays) >= 0.0)
        assert paths.delays[0] == pytest.approx(TAU0, rel=1e-12)

    def test_path_fields_are_row_aligned_arrays(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        n = len(paths)
        assert n > 1 and paths.horizon == 40e-9
        assert paths.indices.shape == (n, 3) and paths.indices.dtype == np.int64
        assert paths.dods.shape == paths.doas.shape == (n, 3)
        for values in (paths.delays, paths.power_gains, paths.phases):
            assert values.shape == (n,) and values.dtype == np.float64
        assert np.all((paths.phases >= 0.0) & (paths.phases < 2.0 * np.pi))
        # row i of every array belongs to the same path
        (direct,) = np.flatnonzero((paths.indices == 0).all(axis=1))
        assert paths.delays[direct] == pytest.approx(TAU0, rel=1e-12)
        assert np.allclose(paths.doas[direct], (TX - RX) / np.linalg.norm(TX - RX))

    def test_directive_paths_are_a_subset(self):
        cap = SphericalCap(0.4, (0.2, -0.7, 0.3))
        full = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        part = enumerate_paths(ROOM, TX, cap, RX, ISO, RADIO, 40e-9)
        assert index_set(part) <= index_set(full)

    def test_beam_filter_commutes_with_truncation(self):
        cap = SphericalCap(0.3, (0.5, 0.5, -0.1))
        short = enumerate_paths(ROOM, TX, cap, RX, cap, RADIO, 30e-9)
        longer = enumerate_paths(ROOM, TX, cap, RX, cap, RADIO, 60e-9)
        truncated = {tuple(k) for k in longer.indices[longer.delays <= 30e-9].tolist()}
        assert index_set(short) == truncated

    def test_transmit_receive_reciprocity(self):
        tx_cap = SphericalCap(0.3, (1.0, 0.2, -0.4))
        rx_cap = SphericalCap(0.7, (-0.3, 1.0, 0.1))
        forward = enumerate_paths(ROOM, TX, tx_cap, RX, rx_cap, RADIO, 60e-9)
        backward = enumerate_paths(ROOM, RX, rx_cap, TX, tx_cap, RADIO, 60e-9)
        assert len(forward) == len(backward)
        assert np.allclose(np.sort(forward.delays), np.sort(backward.delays), rtol=1e-12)
        assert np.allclose(
            np.sort(forward.power_gains), np.sort(backward.power_gains), rtol=1e-10
        )

    def test_power_gain_upper_bound(self):
        tx_cap = SphericalCap(0.3, (1.0, 0.0, 0.0))
        rx_cap = SphericalCap(0.5, (0.0, 1.0, 0.0))
        paths = enumerate_paths(ROOM, TX, tx_cap, RX, rx_cap, RADIO, 60e-9)
        order = np.abs(paths.indices).sum(axis=1)
        spreading = (RADIO.wavelength / (4.0 * np.pi * C * paths.delays)) ** 2
        bound = 0.6**order * spreading / (0.3 * 0.5)
        assert np.all(paths.power_gains <= bound * (1 + 1e-12))

    def test_coincident_terminals_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            enumerate_paths(ROOM, TX, ISO, TX, ISO, RADIO, 20e-9)

    def test_warns_for_large_wavelength(self):
        radio = RadioConfig(1.0, 2e9, C)
        with pytest.warns(UserWarning):
            enumerate_paths(ROOM, TX, ISO, RX, ISO, radio, 0.5e-9)


class TwoSided(AntennaPattern):
    """Gain 2 where ``|direction . z| >= 1/2``: half the sphere, no support cone."""

    beam_fraction = 0.5

    def gain(self, direction):
        return 2.0 * (np.abs(np.asarray(direction, dtype=float)[..., 2]) >= 0.5)


st_position = st.tuples(*[st.floats(min_value=0.0, max_value=0.999)] * 3).map(
    lambda f: np.asarray(f) * ROOM.lengths
)
st_axis = st.sampled_from([s * np.eye(3)[i] for i in range(3) for s in (1.0, -1.0)])
st_direction = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
st_beam = st.tuples(st.floats(min_value=1e-3, max_value=1.0), st.one_of(st_axis, st_direction))
# Cap fractions around the hemisphere (cos_min = 0), which takes no column bound.
st_fraction = st.one_of(st.sampled_from([0.01, 0.1, 0.5, 0.75, 1.0]), st.floats(min_value=0.01, max_value=1.0))


@st.composite
def st_block(draw):
    """Sources, receivers and cones of a block of 1-8 arrangements.

    Boresights are random or axis-aligned (in-plane projection or ``b_z``
    zero); a receiver may sit on its source's vertical, where the direct
    column has in-plane distance 0.
    """
    count = draw(st.integers(min_value=1, max_value=8))
    sources = np.array([draw(st_position) for _ in range(count)])
    receivers = np.array([draw(st_position) for _ in range(count)])
    if draw(st.booleans()):
        run = draw(st.integers(min_value=0, max_value=count - 1))
        receivers[run, :2] = sources[run, :2]
    cones = []
    for fraction in (draw(st.none() | st_fraction), draw(st.none() | st_fraction)):
        if fraction is None:
            cones.append(None)
        else:
            aims = [draw(st.one_of(st_axis, st_direction)) for _ in range(count)]
            aims = np.array([aim / np.linalg.norm(aim) for aim in aims])
            cones.append((aims, SphericalCap(fraction).cone[1]))
    return sources, receivers, tuple(cones)


def assert_matches_reference(tx, tx_pattern, rx, rx_pattern, tau_max):
    try:
        reference = hand_gated_paths(ROOM, tx, tx_pattern, rx, rx_pattern, C, tau_max)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            enumerate_paths(ROOM, tx, tx_pattern, rx, rx_pattern, RADIO, tau_max)
        return None
    paths = enumerate_paths(ROOM, tx, tx_pattern, rx, rx_pattern, RADIO, tau_max)
    got = (paths.indices, paths.delays, paths.dods, paths.doas)
    for a, b in zip(got, reference):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return paths


class TestConePruning:
    """Cone-pruned enumeration against the cone-free one gated by hand."""

    @settings(max_examples=60, deadline=None)
    @given(tx=st_position, rx=st_position, tx_beam=st_beam, rx_beam=st_beam)
    def test_bitwise_equal_to_hand_gated_reference(self, tx, rx, tx_beam, rx_beam):
        assume(not np.array_equal(tx, rx))
        assert_matches_reference(tx, SphericalCap(*tx_beam), rx, SphericalCap(*rx_beam), 30e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        tx=st_position, rx=st_position, axis=st_axis, pick=st.integers(0, 10**6),
        departure=st.booleans(),
    )
    def test_direction_on_the_cap_boundary_is_kept(self, tx, rx, axis, pick, departure):
        # Along an axis the exact test compares one direction component with
        # the threshold, so a cap whose threshold equals that component puts
        # the path exactly on the closed boundary.
        assume(not np.array_equal(tx, rx) and np.sum((tx - rx) ** 2) > 0.0)
        indices, _, dods, doas = hand_gated_paths(ROOM, tx, ISO, rx, ISO, C, 30e-9)
        assume(len(indices) > 0)
        i = pick % len(indices)
        component = float(((dods if departure else doas)[i] * axis).sum())
        fraction = (1.0 - component) / 2.0
        assume(1e-3 <= fraction <= 1.0)
        cap = SphericalCap(fraction, axis)
        assume(cap.threshold == component)
        tx_pattern, rx_pattern = (cap, ISO) if departure else (ISO, cap)
        paths = assert_matches_reference(tx, tx_pattern, rx, rx_pattern, 30e-9)
        assert tuple(indices[i]) in index_set(paths)

    @settings(max_examples=80, deadline=None)
    @given(block=st_block())
    def test_column_bound_keeps_the_dense_rows(self, block):
        sources, receivers, cones = block
        got = geometry.enumerate_indices(ROOM, sources, receivers, 120e-9, C, cones=cones)
        for a, b in zip(got, dense_scan(ROOM, sources, receivers, 120e-9, C, cones)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_pattern_without_cone_is_gated_exactly(self):
        pattern = TwoSided()
        assert pattern.cone is None
        paths = assert_matches_reference(TX, pattern, RX, SphericalCap(0.2, (1.0, 0.0, 0.0)), 40e-9)
        assert 0 < len(paths) < len(enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9))

    def test_block_sides_share_one_threshold(self):
        # One pattern aimed R ways keeps its threshold; caps of two
        # fractions on one side of a block are refused.
        aims = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        boresights, cos_min = channel._cones([SphericalCap(0.25).aimed(aim) for aim in aims])
        assert boresights.tolist() == aims and cos_min == 0.5
        assert channel._cones([ISO, ISO]) is None
        with pytest.raises(ValueError, match="share one cone threshold"):
            channel._cones([SphericalCap(0.25, aims[0]), SphericalCap(0.5, aims[1])])
        with pytest.raises(ValueError, match="share one cone threshold"):
            channel._block_paths(
                ROOM, np.array([TX, TX]), [ISO, ISO], np.array([RX, RX]),
                [SphericalCap(0.25), SphericalCap(0.5)], RADIO, 30e-9, geometry.DEFAULT_MAX_CELLS,
            )

    def test_zero_delay_image_still_raises(self):
        # |tx - rx| = 1e-170 m squares to zero: the direct path and its
        # x-wall image have zero delay. Caps pointed away must not prune them.
        tx = np.array([1e-170, 2.5, 1.5])
        rx = np.array([0.0, 2.5, 1.5])
        away = SphericalCap(0.01, (0.0, 0.0, 1.0))
        with pytest.raises(DegenerateGeometryError):
            enumerate_paths(ROOM, tx, away, rx, away, RADIO, 20e-9)


class TestArrivalCount:
    def test_zero_before_first_arrival(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        assert count_at(paths, 0.5 * TAU0) == 0

    def test_step_at_boundary_is_closed(self):
        paths = single_path_list(5e-9)
        assert count_at(paths, 5e-9) == 1
        assert count_at(paths, 5e-9 - 1e-15) == 0

    def test_beyond_horizon_raises(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        with pytest.raises(OutOfHorizonError):
            count_at(paths, 41e-9)
        with pytest.raises(OutOfHorizonError):
            arrival_count_curve(paths, np.array([10e-9, 50e-9]))

    def test_curve_is_nondecreasing(self):
        paths = enumerate_paths(ROOM, TX, ISO, RX, ISO, RADIO, 40e-9)
        curve = arrival_count_curve(paths, np.linspace(0, 40e-9, 161))
        assert np.all(np.diff(curve) >= 0)


class TestPathList:
    def test_unsorted_rows_count_in_delay_order(self):
        paths = PathList(
            indices=np.zeros((3, 3)), delays=[3e-9, 1e-9, 2e-9], dods=np.zeros((3, 3)),
            doas=np.zeros((3, 3)), power_gains=np.ones(3), phases=np.zeros(3), horizon=4e-9,
        )
        assert arrival_count_curve(paths, [1.5e-9, 2.5e-9]).tolist() == [1, 2]

    def test_rows_sort_by_delay_and_ties_keep_their_order(self):
        # Row k carries k in every field, so each field shows where its rows went.
        k = np.arange(5.0)
        delays = np.array([3.0, 1.0, 2.0, 1.0, 3.0]) * 1e-9
        paths = PathList(
            indices=np.stack([k, -k, 2 * k], axis=1), delays=delays,
            dods=np.stack([k, k, -k], axis=1), doas=np.stack([-k, k, k], axis=1),
            power_gains=k, phases=0.5 * k, horizon=4e-9,
        )
        order = [1, 3, 2, 0, 4]
        assert paths.delays.tolist() == delays[order].tolist()
        assert paths.indices.tolist() == [[i, -i, 2 * i] for i in order]
        assert paths.dods.tolist() == [[i, i, -i] for i in order]
        assert paths.doas.tolist() == [[-i, i, i] for i in order]
        assert paths.power_gains.tolist() == order
        assert paths.phases.tolist() == [0.5 * i for i in order]

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize("reads", [
        ("indices", "dods", "doas", "phases"),
        ("phases", "doas", "dods", "indices"),
        ("doas", "phases", "indices", "dods"),
    ])
    def test_columns_read_later_in_any_order_sort_like_the_delays(self, reads, ties):
        # indices, dods, doas and phases are put in delay order on first
        # read; on tied delays they must land where a stable sort puts them.
        rng = np.random.default_rng(14)
        n = 500
        delays = (rng.integers(0, 40, n) if ties else rng.permutation(n)) * 1e-9
        rows = dict(
            indices=rng.integers(-9, 10, (n, 3)), dods=rng.standard_normal((n, 3)),
            doas=rng.standard_normal((n, 3)), phases=rng.uniform(0.0, 2.0 * np.pi, n),
        )
        paths = PathList(delays=delays, power_gains=rng.random(n), horizon=40e-9, **rows)
        order = np.argsort(delays, kind="stable")
        assert paths.delays.tobytes() == delays[order].tobytes()
        for name in reads + reads:
            assert getattr(paths, name).tobytes() == rows[name][order].tobytes()

    @pytest.mark.parametrize("short", ["indices", "dods", "doas", "power_gains", "phases"])
    def test_mismatched_row_counts_raise(self, short):
        fields = dict(
            indices=np.zeros((3, 3)), delays=[1e-9, 2e-9, 3e-9], dods=np.zeros((3, 3)),
            doas=np.zeros((3, 3)), power_gains=np.ones(3), phases=np.zeros(3),
        )
        fields[short] = fields[short][:2]
        with pytest.raises(ValueError, match="one row per delay"):
            PathList(horizon=4e-9, **fields)


class TestSincPulse:
    def test_peak_is_one(self):
        assert sinc_pulse(RADIO, 0.0) == 1.0

    def test_zeros_at_multiples_of_symbol_time(self):
        t = np.arange(1, 8) / RADIO.bandwidth
        assert np.allclose(sinc_pulse(RADIO, t), 0.0, atol=1e-12)

    def test_spectrum_flat_in_band(self):
        # windowing-limited flatness away from the band edges
        step = 1.0 / (4.0 * RADIO.bandwidth)
        n = 8192
        t = (np.arange(n) - n // 2) * step
        spectrum = np.abs(np.fft.fft(sinc_pulse(RADIO, t))) * step
        freqs = np.fft.fftfreq(n, step)
        interior = np.abs(freqs) <= 0.4 * RADIO.bandwidth
        band = spectrum[interior]
        assert np.max(np.abs(band - band.mean())) / band.mean() < 0.01
        outside = np.abs(freqs) >= 0.6 * RADIO.bandwidth
        assert np.max(spectrum[outside]) < 0.05 * band.mean()


class TestSynthesizeSignal:
    GRID = SampleGrid(-5e-9, 0.125e-9, 241)

    def test_single_path_is_shifted_pulse(self):
        delay = 7e-9
        trace = synthesize_signal(single_path_list(delay), RADIO, SampleGrid(0.0, 0.125e-9, 200))
        expected = sinc_pulse(RADIO, trace.times() - delay)
        assert np.allclose(trace.samples.real, expected, atol=1e-12)
        assert np.allclose(trace.samples.imag, 0.0, atol=1e-12)

    def test_opposite_phases_cancel(self):
        paths = PathList(
            indices=[[0, 0, 0], [1, 0, 0]],
            delays=[5e-9, 5e-9],
            dods=np.zeros((2, 3)),
            doas=np.zeros((2, 3)),
            power_gains=[1.0, 1.0],
            phases=[0.0, np.pi],
            horizon=10e-9,
        )
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert np.allclose(trace.samples, 0.0, atol=1e-12)

    def test_empty_paths_give_zero_trace(self):
        empty = PathList(
            indices=np.zeros((0, 3)), delays=[], dods=np.zeros((0, 3)),
            doas=np.zeros((0, 3)), power_gains=[], phases=[], horizon=1e-9,
        )
        trace = synthesize_signal(empty, RADIO, self.GRID)
        assert np.all(trace.samples == 0.0)

    def test_random_phase_needs_rng(self):
        with pytest.raises(ValueError):
            synthesize_signal(single_path_list(5e-9), RADIO, self.GRID, "random")

    def test_grid_step_must_resolve_bandwidth(self):
        with pytest.raises(ValueError):
            synthesize_signal(single_path_list(5e-9), RADIO, SampleGrid(0, 1e-9, 10))

    def test_random_phase_mean_power_identity(self):
        # ensemble mean of |y|^2 over phase draws approaches the incoherent
        # sum of per-path pulse energies
        paths = PathList(
            indices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            delays=[4e-9, 5.2e-9, 6.1e-9],
            dods=np.zeros((3, 3)), doas=np.zeros((3, 3)),
            power_gains=[1.0, 0.5, 0.25], phases=[0.0, 0.0, 0.0],
            horizon=10e-9,
        )
        grid = SampleGrid(0.0, 0.25e-9, 60)
        rng = np.random.default_rng(11)
        draws = np.stack([
            synthesize_signal(paths, RADIO, grid, "random", rng).abs2
            for _ in range(4000)
        ])
        t = grid.times()
        incoherent = sum(
            p * sinc_pulse(RADIO, t - d) ** 2
            for p, d in zip(paths.power_gains, paths.delays)
        )
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - incoherent) <= 3 * stderr + 1e-12)


def paths_with_delays(rng, delays):
    n = len(delays)
    return PathList(
        indices=np.zeros((n, 3)), delays=delays,
        dods=np.zeros((n, 3)), doas=np.zeros((n, 3)),
        power_gains=rng.uniform(0.0, 1.0, n) ** 4,
        phases=rng.uniform(0.0, 2 * np.pi, n),
        horizon=float(np.max(delays)),
    )


def per_path_sum(paths, grid, phases=None):
    """Reference: one np.sinc pulse per path, summed in a plain loop."""
    phases = paths.phases if phases is None else phases
    t = grid.times()
    out = np.zeros(grid.count, dtype=complex)
    for gain, phase, delay in zip(paths.power_gains, phases, paths.delays):
        out += np.sqrt(gain) * np.exp(1j * phase) * np.sinc(RADIO.bandwidth * (t - delay))
    return out


def assert_near_per_path_sum(samples, reference, tolerance=1e-12):
    assert np.max(np.abs(samples - reference)) <= tolerance * np.max(np.abs(reference))


def model_crossover(grid):
    """Fewest paths for which the cost model picks the lattice kernel, delays spanning the grid."""
    return next(n for n in itertools.count(1) if channel._lattice_is_cheaper(n, grid.count, 2 * grid.count))


@pytest.fixture
def kernels_run(monkeypatch):
    """Names of the synthesis kernels called, in order."""
    calls = []
    for name in ("_direct_sum", "_lattice_sum"):
        def spy(*args, _kernel=getattr(channel, name), _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(channel, name, spy)
    return calls


class TestSynthesisKernels:
    GRID = synthesis_grid(RADIO, 120e-9)

    # Path counts as shares of the cost model's crossover, so that each
    # kernel is tested whatever the model's fitted constants.
    @pytest.mark.parametrize("share, kernel", [
        (0.01, "_direct_sum"), (0.5, "_direct_sum"), (2.0, "_lattice_sum"), (12.0, "_lattice_sum"),
    ])
    def test_matches_per_path_sum_on_both_sides_of_crossover(self, share, kernel, kernels_run):
        n = max(1, round(share * model_crossover(self.GRID)))
        rng = np.random.default_rng(n)
        paths = paths_with_delays(rng, np.sort(rng.uniform(5e-9, 120e-9, n)))
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert kernels_run == [kernel]
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, self.GRID))

    def test_delays_just_past_samples(self, kernels_run):
        # Where a delay nears a sample, sin(a)cos(b) - cos(a)sin(b) loses the
        # relative precision of sin(a - b); that sample must stay exact.
        offsets = np.array([0.0, 1e-18, 1e-17, 1e-16, 1e-15])
        delays = (self.GRID.times()[[100, 333, 517, 999], None] + offsets).ravel()
        paths = paths_with_delays(np.random.default_rng(15), delays)
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert kernels_run == ["_direct_sum"]
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, self.GRID), 1e-13)

    def test_delays_on_samples_and_outside_the_grid(self, kernels_run):
        rng = np.random.default_rng(3)
        times = self.GRID.times()
        edge = np.concatenate([
            times[[0, 1, 7, 8, 9, 500, 1112, 1113, 1119, 1120]],
            times[0] - np.array([0.01e-9, 0.3e-9, 1e-9, 4e-9]),
            times[-1] + np.array([0.01e-9, 0.3e-9, 1e-9, 4e-9]),
        ])
        delays = np.sort(np.concatenate([edge, rng.uniform(0.0, 120e-9, 300)]))
        paths = paths_with_delays(rng, delays)
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert kernels_run == ["_lattice_sum"]
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, self.GRID))

    def test_coincident_opposite_phase_pairs_cancel(self, kernels_run):
        rng = np.random.default_rng(4)
        delays = np.repeat(rng.uniform(0.0, 120e-9, 200), 2)
        phases = np.repeat(rng.uniform(0.0, np.pi, 200), 2) + np.tile([0.0, np.pi], 200)
        paths = PathList(
            indices=np.zeros((400, 3)), delays=delays,
            dods=np.zeros((400, 3)), doas=np.zeros((400, 3)),
            power_gains=np.repeat(rng.uniform(0.1, 1.0, 200), 2), phases=phases,
            horizon=120e-9,
        )
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert kernels_run == ["_lattice_sum"]
        assert np.max(np.abs(trace.samples)) <= 1e-12

    def test_unsorted_delays_with_recurring_cells(self, kernels_run):
        # 100 cells hold four delays each, given 100 list positions apart:
        # PathList's sort must put them in delay order, whose first and last
        # cells the kernel takes as the extremes.
        rng = np.random.default_rng(12)
        cells = rng.choice(np.arange(20, self.GRID.count - 20), 100, replace=False)
        offsets = rng.uniform(0.0, 1.0, 400)
        delays = self.GRID.start + (np.tile(cells, 4) + offsets) * self.GRID.step
        paths = paths_with_delays(rng, delays)
        trace = synthesize_signal(paths, RADIO, self.GRID)
        assert kernels_run == ["_lattice_sum"]
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, self.GRID))

    def test_ten_thousand_paths_with_far_recurring_cells(self, kernels_run):
        # About as many paths as a 300 ns hemisphere-cap run: 2500 cells hold
        # four delays each, given 2500 list positions apart.
        grid = synthesis_grid(RADIO, 300e-9)
        rng = np.random.default_rng(18)
        cells = rng.choice(np.arange(20, grid.count - 20), 2500, replace=False)
        delays = grid.start + (np.tile(cells, 4) + rng.uniform(0.0, 1.0, 10_000)) * grid.step
        paths = paths_with_delays(rng, delays)
        trace = synthesize_signal(paths, RADIO, grid)
        assert kernels_run == ["_lattice_sum"]
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, grid))

    def test_call_order_keeps_results_bitwise(self, kernels_run):
        rng = np.random.default_rng(13)
        grids = (self.GRID, synthesis_grid(RADIO, 300e-9))
        lists = [paths_with_delays(rng, np.sort(rng.uniform(5e-9, 120e-9, n)))
                 for n in (300, 3000, 10_000)]
        first = synthesize_signal(lists[0], RADIO, grids[0]).samples.copy()
        for grid in (grids[1], grids[0], grids[1]):
            for paths in (lists[2], lists[1], lists[0]):
                synthesize_signal(paths, RADIO, grid)
        again = synthesize_signal(lists[0], RADIO, grids[0]).samples
        assert set(kernels_run) == {"_lattice_sum"}
        assert again.tobytes() == first.tobytes()

    def test_concurrent_threads_match_serial_calls(self):
        rng = np.random.default_rng(14)
        grids = (self.GRID, synthesis_grid(RADIO, 300e-9))
        jobs = [
            (paths_with_delays(rng, np.sort(rng.uniform(5e-9, 120e-9, n))), grids[i % 2])
            for i, n in enumerate((400, 3000, 1500, 800, 60, 90))
        ]
        serial = [synthesize_signal(paths, RADIO, grid).samples.tobytes() for paths, grid in jobs]
        mismatches = []

        def worker(shift):
            try:
                for _ in range(3):
                    for i in np.roll(np.arange(len(jobs)), shift):
                        paths, grid = jobs[i]
                        if synthesize_signal(paths, RADIO, grid).samples.tobytes() != serial[i]:
                            mismatches.append(i)
            except Exception as exc:  # reported by the assertion below
                mismatches.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.parametrize("n", [5, 500])
    def test_random_phases_consume_n_uniforms(self, n):
        rng = np.random.default_rng(8)
        paths = paths_with_delays(rng, np.sort(rng.uniform(5e-9, 120e-9, n)))
        draws = np.random.default_rng(21)
        trace = synthesize_signal(paths, RADIO, self.GRID, "random", draws)
        expected = np.random.default_rng(21)
        phases = expected.uniform(0.0, 2 * np.pi, n)
        assert draws.uniform() == expected.uniform()
        assert_near_per_path_sum(trace.samples, per_path_sum(paths, self.GRID, phases))


def oversampled_grid(oversample):
    """The 120 ns synthesis span, -10 to 130 ns, at ``oversample`` samples a pulse width."""
    return SampleGrid.spanning(-10e-9, 130e-9, 1.0 / (oversample * RADIO.bandwidth))


def per_sample_sum(paths, grid):
    """Reference in sample units: one np.sinc pulse per path at ``(m - s_k) B step``.

    ``s_k = (tau_k - start) / step`` as the lattice kernel takes it, so the
    reference does not inherit the rounding of ``t_m - tau_k`` in seconds.
    """
    cells = (paths.delays - grid.start) / grid.step
    lags = np.arange(grid.count) - cells[:, None]
    amplitudes = np.sqrt(paths.power_gains) * np.exp(1j * paths.phases)
    return amplitudes @ np.sinc(RADIO.bandwidth * grid.step * lags)


class TestLatticeKernel:
    # Terms of the expansion the grid asks for, by oversampling.
    ORDERS = {2: 15, 4: 12, 8: 10}

    @pytest.mark.parametrize("oversample", sorted(ORDERS))
    def test_taylor_table_sums_to_the_pulse(self, oversample):
        # Every lag of the 120 ns grid's convolution window, every offset d
        # from -1/2 to 1/2, both ends included.
        grid = oversampled_grid(oversample)
        beta = np.pi * RADIO.bandwidth * grid.step
        nfft = channel._fft_length(2 * grid.count)
        lags = np.arange(grid.count - nfft, grid.count)
        table = channel._taylor_table(lags, beta)
        order = self.ORDERS[oversample]
        assert table.shape == (order, nfft)
        # The remainder bound of the order, plus 1e-15 for rounding.
        bound = (beta / 2) ** order / ((order + 1) * math.factorial(order))
        for d in np.linspace(-0.5, 0.5, 41):
            series = table[-1]
            for row in table[-2::-1]:
                series = series * d + row
            pulse = np.sinc(RADIO.bandwidth * grid.step * (lags - 0.5 - d))
            assert np.max(np.abs(series - pulse)) <= bound + 1e-15

    @pytest.mark.parametrize("oversample", sorted(ORDERS))
    def test_matches_per_sample_sum_at_cell_edges(self, oversample, kernels_run):
        grid = oversampled_grid(oversample)
        rng = np.random.default_rng(oversample)
        samples = grid.times()[[0, 1, 2, 100, grid.count // 2, grid.count - 2, grid.count - 1]]
        edges = np.concatenate([
            samples,  # on a sample: a cell's lower edge, d = -1/2
            np.nextafter(samples, -np.inf),  # just below: the previous cell's upper edge
            samples + grid.step / 2,  # mid-cell, d = 0
            grid.start - np.array([0.01e-9, 0.3e-9, 1e-9, 4e-9]),  # before the grid
            grid.times()[-1] + np.array([0.01e-9, 0.3e-9, 1e-9, 4e-9]),  # past its end
        ])
        delays = np.sort(np.concatenate([edges, rng.uniform(0.0, 120e-9, 400)]))
        paths = paths_with_delays(rng, delays)
        trace = synthesize_signal(paths, RADIO, grid)
        assert kernels_run == ["_lattice_sum"]
        assert_near_per_path_sum(trace.samples, per_sample_sum(paths, grid), 1e-13)

    def test_spectra_follow_the_step_at_equal_sample_counts(self, kernels_run):
        # 4x and 4.5x oversampling: the same count, the same cells, so the
        # same FFT length and window, and the same order, 12; only the
        # pulse width in samples differs.
        grids = [SampleGrid(-10e-9, 1.0 / (over * RADIO.bandwidth), 1121) for over in (4.0, 4.5)]
        assert {channel._taylor_order(np.pi * RADIO.bandwidth * g.step) for g in grids} == {12}
        rng = np.random.default_rng(16)
        cells = np.sort(rng.uniform(80.0, 1040.0, 500))
        lists = [paths_with_delays(np.random.default_rng(17), g.start + cells * g.step) for g in grids]
        references = [per_sample_sum(paths, g) for paths, g in zip(lists, grids)]
        first = [None, None]
        for _ in range(2):
            for i in (0, 1):
                samples = synthesize_signal(lists[i], RADIO, grids[i]).samples
                assert_near_per_path_sum(samples, references[i], 1e-13)
                first[i] = first[i] if first[i] is not None else samples.tobytes()
                assert samples.tobytes() == first[i]
        assert kernels_run == ["_lattice_sum"] * 4


class TestSignalMoments:
    STEP = 0.125e-9

    def test_single_path_mean_is_its_delay(self):
        delay = 10e-9
        grid = SampleGrid(delay - 8e-9, self.STEP, 129)  # symmetric around delay
        trace = synthesize_signal(single_path_list(delay), RADIO, grid)
        mean, spread = signal_moments(trace)
        assert abs(mean - delay) <= self.STEP
        assert spread > 0.0

    def test_two_path_oracle(self):
        # orthogonal phases make |y|^2 split exactly into the two pulse
        # energies; moments follow from the split profile
        d1, d2 = 8e-9, 20e-9
        grid = SampleGrid(-6e-9, self.STEP, 321)
        paths = PathList(
            indices=[[0, 0, 0], [1, 0, 0]], delays=[d1, d2],
            dods=np.zeros((2, 3)), doas=np.zeros((2, 3)),
            power_gains=[1.0, 1.0], phases=[0.0, np.pi / 2],
            horizon=30e-9,
        )
        trace = synthesize_signal(paths, RADIO, grid)
        t = grid.times()
        profile = sinc_pulse(RADIO, t - d1) ** 2 + sinc_pulse(RADIO, t - d2) ** 2
        assert np.allclose(trace.abs2, profile, atol=1e-12)

        total = np.trapezoid(profile, dx=self.STEP)
        mean_oracle = np.trapezoid(profile * t, dx=self.STEP) / total
        var_oracle = np.trapezoid(profile * (t - mean_oracle) ** 2, dx=self.STEP) / total
        mean, spread = signal_moments(trace)
        assert mean == pytest.approx(mean_oracle, rel=1e-12)
        assert spread == pytest.approx(np.sqrt(var_oracle), rel=1e-12)

        # split-profile analytics: midpoint mean, spread from separation
        # plus single-pulse spread measured on the same grid
        single = synthesize_signal(single_path_list(d1), RADIO, SampleGrid(d1 - 14e-9, self.STEP, 225))
        _, pulse_spread = signal_moments(single)
        assert mean == pytest.approx((d1 + d2) / 2, rel=1e-3)
        assert spread**2 == pytest.approx((d2 - d1) ** 2 / 4 + pulse_spread**2, rel=2e-2)

    def test_amplitude_scaling_invariance(self):
        trace = synthesize_signal(single_path_list(5e-9, power=1.0), RADIO, SampleGrid(0, self.STEP, 161))
        scaled = SignalTrace(trace.start, trace.step, 7.3 * trace.samples)
        assert signal_moments(trace) == pytest.approx(signal_moments(scaled))

    def test_zero_energy_raises(self):
        trace = SignalTrace(0.0, self.STEP, np.zeros(32, dtype=complex))
        with pytest.raises(ZeroEnergyError):
            signal_moments(trace)


class TestSignalTrace:
    def test_csv_roundtrip(self, tmp_path):
        trace = SignalTrace(1e-9, 0.5e-9, np.array([1 + 2j, -0.25j, 3.0]))
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "t_seconds,re,im,abs2"
        values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.allclose(values[:, 0], trace.times())
        assert np.allclose(values[:, 1] + 1j * values[:, 2], trace.samples)
        assert np.allclose(values[:, 3], trace.abs2)


class TestDelayGrid:
    @pytest.mark.parametrize("start,stop,step,count", [
        (0.0, 120e-9, 0.25e-9, 481), (0.0, 10e-9, 1.00000000001e-9, 11), (2e-9, 2e-9, 1e-9, 1),
    ])
    def test_ends_exactly_at_stop_and_is_read_only(self, start, stop, step, count):
        grid = channel.delay_grid(start, stop, step)
        assert grid.size == count and grid[0] == start and grid[-1] == stop
        assert not grid.flags.writeable

    @pytest.mark.parametrize("step", [4e-9, 3e-9, 1e-9 * (1 + 1e-8)])
    def test_span_off_the_steps_is_refused(self, step):
        with pytest.raises(ValueError, match="whole number of steps"):
            channel.delay_grid(0.0, 10e-9, step)

    def test_points_over_the_cap_are_refused(self):
        with pytest.raises(ResourceLimitError):
            channel.delay_grid(0.0, 1.0, 1.0 / channel.MAX_GRID_POINTS)


class TestSampleGrid:
    @pytest.mark.parametrize("step", [0.0, -1e-9, math.nan])
    def test_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="^grid step must be positive$"):
            SampleGrid(0.0, step, 3)
