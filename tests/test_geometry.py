import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    brute_force_indices,
    image_position,
    receiver_image_departure,
    receiver_image_index,
    wall_crossings,
)
from roomchan.antenna import Isotropic
from roomchan.channel import RadioConfig, enumerate_paths
from roomchan.errors import DegenerateGeometryError, ResourceLimitError
from roomchan.geometry import (
    DEFAULT_MAX_CELLS,
    Room,
    departure_signs,
    enumerate_indices,
    index_bounds,
    wall_gain_products,
)

C = 3e8
ROOM = Room((5.0, 5.0, 3.0), 0.6)
TX = np.array([2.5, 2.5, 1.5])
RX = np.array([3.8, 4.0, 0.6])
TAU0 = math.sqrt(4.75) / C  # |TX - RX| = sqrt(1.3^2 + 1.5^2 + 0.9^2)
RADIO = RadioConfig.from_center_frequency(60e9, 2e9, C)
ISO = Isotropic()

st_k = st.integers(min_value=-6, max_value=6)
st_index = st.tuples(st_k, st_k, st_k)
st_frac = st.floats(min_value=0.01, max_value=0.99)
st_point = st.tuples(st_frac, st_frac, st_frac)


def interior(fracs, room=ROOM):
    return np.asarray(fracs) * room.lengths


def image_rows(ks, source=TX, receiver=RX, room=ROOM):
    """Positions and delays that ``enumerate_indices`` gives the images ``ks``."""
    ks = np.array(ks, dtype=np.int64).reshape(-1, 3)
    # Per axis an image lies within (|k| + 1) L of any point in the room.
    reach = float(np.max(np.linalg.norm((np.abs(ks) + 1) * room.lengths, axis=1)))
    indices, positions, delays, _ = enumerate_indices(room, source, receiver, reach / C, C)
    rows = [np.flatnonzero((indices == k).all(axis=1)) for k in ks]
    assert all(row.size == 1 for row in rows)
    rows = np.concatenate(rows)
    return positions[rows], delays[rows]


def paths_of(source, receiver, tau_max=40e-9):
    return enumerate_paths(ROOM, source, ISO, receiver, ISO, RADIO, tau_max)


def path_row(paths, k):
    (row,) = np.flatnonzero((paths.indices == k).all(axis=1))
    return row


def wall_hits(indices):
    """Hits per wall of each index row, read off ``wall_gain_products``.

    A probe room with reflectance 1/2 on one wall and 1 on the others gives
    each path the gain ``2**-hits`` on that wall, exactly.
    """
    hits = []
    for wall in range(6):
        gains = np.ones(6)
        gains[wall] = 0.5
        hits.append(-np.log2(wall_gain_products(Room(ROOM.lengths, gains), indices)))
    return np.stack(hits, axis=1).astype(int)


class TestRoom:
    def test_derived_quantities(self):
        assert ROOM.volume == pytest.approx(75.0)
        assert ROOM.surface_area == pytest.approx(110.0)
        assert ROOM.diagonal == pytest.approx(math.sqrt(59.0))

    def test_scalar_gain_broadcasts(self):
        assert np.all(ROOM.wall_gains == 0.6)

    def test_distinct_gains_have_no_uniform_value(self):
        room = Room((5, 5, 3), (0.5, 0.9, 0.6, 0.6, 0.6, 0.6))
        assert room.wall_gains.tolist() == [0.5, 0.9, 0.6, 0.6, 0.6, 0.6]
        assert not hasattr(room, "uniform_gain")

    @pytest.mark.parametrize(
        "lengths,gains",
        # NaN fails every comparison, so the check accepts only gains inside [0, 1].
        [((0, 5, 3), 0.6), ((5, 5, 3), 1.5), ((5, 5, 3), -0.1), ((5, 5), 0.6),
         ((5, 5, 3), math.nan), ((5, 5, 3), (0.6, 0.6, math.nan, 0.6, 0.6, 0.6))],
    )
    def test_rejects_bad_values(self, lengths, gains):
        with pytest.raises(ValueError):
            Room(lengths, gains)

    def test_gains_at_both_ends_accepted(self):
        assert Room((5, 5, 3), (0.0, 1.0) * 3).wall_gains.tolist() == [0.0, 1.0] * 3

    def test_keeps_its_own_copies_of_the_caller_arrays(self):
        lengths, gains = np.array([5.0, 5.0, 3.0]), np.full(6, 0.6)
        room = Room(lengths, gains)
        lengths[0] = 1e-300
        gains[0] = 7.0
        assert room.lengths.tolist() == [5.0, 5.0, 3.0]
        assert room.wall_gains.tolist() == [0.6] * 6
        assert room.volume == 75.0

    def test_arrays_are_read_only(self):
        room = Room(np.array([5.0, 5.0, 3.0]), np.full(6, 0.6))
        for values in (room.lengths, room.wall_gains):
            with pytest.raises(ValueError, match="read-only"):
                values[1] = -1.0
        assert room.volume == 75.0


class TestMirrorSourcePosition:
    def test_zero_index_is_identity(self):
        (pos,), _ = image_rows([(0, 0, 0)])
        assert np.allclose(pos, TX, rtol=0.0, atol=1e-15)

    def test_single_reflection_far_wall(self):
        # ceil(1/2)*2*5 + (-1)*2.5 = 7.5
        (pos,), _ = image_rows([(1, 0, 0)])
        assert pos[0] == pytest.approx(7.5)
        assert pos[1] == pytest.approx(2.5) and pos[2] == pytest.approx(1.5)

    def test_negative_and_double_reflection(self):
        pos, _ = image_rows([(-1, 0, 0), (2, 0, 0)])
        assert pos[0, 0] == pytest.approx(-2.5)
        assert pos[1, 0] == pytest.approx(12.5)

    @given(k=st_index, fracs=st_point)
    def test_positions_unique_for_generic_source(self, k, fracs):
        source = interior(fracs)
        others = [o for o in [(k[0] + 1, k[1], k[2]), (k[0], k[1] - 1, k[2]), (0, 0, 0)] if o != k]
        pos, _ = image_rows([k, *others], source)
        assert np.allclose(pos[0], image_position(ROOM, source, k), rtol=1e-14, atol=1e-14)
        for other in pos[1:]:
            assert not np.allclose(pos[0], other)

    @given(k=st_index)
    def test_one_image_per_axis_cell(self, k):
        # each [m*L, (m+1)*L) interval along an axis holds exactly one image:
        # the one with index m
        pos, _ = image_rows([k])
        assert tuple(np.floor(pos[0] / ROOM.lengths).astype(int)) == k


class TestPathDelay:
    def test_coincident_points(self):
        indices, _, delays, _ = enumerate_indices(ROOM, TX, TX, 1e-9, C)
        assert indices.tolist() == [[0, 0, 0]] and delays[0] == 0.0

    def test_direct_path_delay(self):
        _, (delay,) = image_rows([(0, 0, 0)])
        assert delay == pytest.approx(TAU0, rel=1e-14)
        assert delay == pytest.approx(7.2648e-9, rel=1e-4)

    def test_symmetric_in_arguments(self):
        _, forward = image_rows([(0, 0, 0)], TX, RX)
        _, backward = image_rows([(0, 0, 0)], RX, TX)
        assert forward[0] == backward[0]

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            enumerate_indices(ROOM, TX, RX, 10e-9, 0.0)

    @given(k=st_index, f1=st_point, f2=st_point)
    def test_transmit_receive_symmetry(self, k, f1, f2):
        src, rcv = interior(f1), interior(f2)
        _, d_src = image_rows([k], src, rcv)
        _, d_rcv = image_rows([receiver_image_index(k)], rcv, src)
        assert d_src[0] == pytest.approx(d_rcv[0], rel=1e-12)
        assert d_src[0] == pytest.approx(
            math.dist(image_position(ROOM, src, k), rcv) / C, rel=1e-12
        )


class TestArrivalDirection:
    def test_source_above_receiver(self):
        paths = paths_of(RX + [0, 0, 2.0], RX, 2.5 / C)
        assert np.allclose(paths.doas[0], [0, 0, 1])

    def test_direct_path_direction(self):
        paths = paths_of(TX, RX)
        expected = np.array([-1.3, -1.5, 0.9]) / math.sqrt(4.75)
        assert tuple(paths.indices[0]) == (0, 0, 0)
        assert np.allclose(paths.doas[0], expected, atol=1e-14)

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            paths_of(RX, RX)

    @given(f1=st_point, f2=st_point)
    def test_unit_norm(self, f1, f2):
        src, rcv = interior(f1), interior(f2)
        assume(not np.array_equal(src, rcv))
        paths = paths_of(src, rcv, 30e-9)
        assert np.all(np.abs(np.linalg.norm(paths.doas, axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(np.linalg.norm(paths.dods, axis=1) - 1.0) < 1e-12)


class TestDepartureFromArrival:
    def test_direct_path_reverses(self):
        paths = paths_of(TX, RX)
        row = path_row(paths, (0, 0, 0))
        assert np.array_equal(paths.dods[row], -paths.doas[row])

    def test_single_bounce_oracle(self):
        # oracle: direction from the transmitter toward the receiver image of
        # path k, built purely from positions
        k = (1, 0, 0)
        paths = paths_of(TX, RX)
        row = path_row(paths, k)
        oracle = receiver_image_departure(ROOM, TX, RX, k)
        assert np.allclose(paths.dods[row], oracle, atol=1e-14)
        a, b, c = paths.doas[row]
        assert np.allclose(oracle, [a, -b, -c], atol=1e-14)

    @given(f1=st_point, f2=st_point)
    def test_matches_direct_construction(self, f1, f2):
        src, rcv = interior(f1), interior(f2)
        assume(not np.array_equal(src, rcv))
        paths = paths_of(src, rcv, 30e-9)
        oracle = [receiver_image_departure(ROOM, src, rcv, k) for k in paths.indices.tolist()]
        assert np.allclose(paths.dods, np.reshape(oracle, (-1, 3)), atol=1e-12)

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
    def test_signs_are_minus_one_to_the_index(self, as_array):
        # Negative indices included: their parity comes from two's complement.
        k = list(range(-40, 41))
        signs = departure_signs(np.array(k, dtype=np.int64) if as_array else k)
        assert signs.dtype == np.float64
        assert signs.tolist() == [-((-1.0) ** i) for i in k]

    @given(f1=st_point, f2=st_point)
    def test_involution(self, f1, f2):
        # swapping the terminals swaps departure and arrival of each path
        src, rcv = interior(f1), interior(f2)
        assume(not np.array_equal(src, rcv))
        forward = paths_of(src, rcv, 30e-9)
        backward = paths_of(rcv, src, 30e-9)
        rows = {tuple(k): i for i, k in enumerate(backward.indices.tolist())}
        pair = [rows[receiver_image_index(k)] for k in forward.indices.tolist()]
        assert len(forward) == len(backward)
        assert np.allclose(backward.dods[pair], forward.doas, atol=1e-12)
        assert np.allclose(backward.doas[pair], forward.dods, atol=1e-12)


class TestMirrorReceiverIndex:
    def test_flips_even_components(self):
        # the image (2, 1, -3) of the source seen from the receiver and the
        # image (-2, 1, -3) of the receiver seen from the source lie on one path
        _, forward = image_rows([(2, 1, -3), (0, 0, 0)], TX, RX)
        _, backward = image_rows([(-2, 1, -3), (0, 0, 0)], RX, TX)
        assert forward == pytest.approx(backward, rel=1e-14)
        assert receiver_image_index((2, 1, -3)) == (-2, 1, -3)

    @given(f1=st_point, f2=st_point)
    def test_is_involution(self, f1, f2):
        # the receiver-image map pairs the images of the two directions one to one
        src, rcv = interior(f1), interior(f2)
        forward, _, d_forward, _ = enumerate_indices(ROOM, src, rcv, 30e-9, C)
        backward, _, d_backward, _ = enumerate_indices(ROOM, rcv, src, 30e-9, C)
        mapped = {receiver_image_index(k): d for k, d in zip(forward.tolist(), d_forward)}
        assert set(mapped) == {tuple(k) for k in backward.tolist()}
        for k, d in zip(backward.tolist(), d_backward):
            assert mapped[tuple(k)] == pytest.approx(d, rel=1e-12)
            assert receiver_image_index(receiver_image_index(k)) == tuple(k)


class TestWallInteractionCounts:
    def test_direct_path(self):
        assert wall_hits([(0, 0, 0)]).tolist() == [[0, 0, 0, 0, 0, 0]]

    def test_double_reflection_splits(self):
        assert wall_hits([(2, 0, 0)]).tolist() == [[1, 1, 0, 0, 0, 0]]

    def test_mixed_signs(self):
        assert wall_hits([(-3, 1, 0)]).tolist() == [[2, 1, 0, 1, 0, 0]]

    @given(k=st_index, f1=st_point, f2=st_point)
    def test_per_axis_sums(self, k, f1, f2):
        counts = wall_hits([k])[0]
        sums = (counts[0] + counts[1], counts[2] + counts[3], counts[4] + counts[5])
        assert sums == tuple(abs(v) for v in k)
        assert tuple(counts) == wall_crossings(ROOM, interior(f1), interior(f2), k)


class TestReflectionGain:
    def test_direct_path_unity(self):
        paths = paths_of(TX, RX)
        assert wall_gain_products(ROOM, paths.indices[:1]).tolist() == [1.0]

    def test_equal_gains_power_law(self):
        assert wall_gain_products(ROOM, [(2, 0, 0)])[0] == pytest.approx(0.36)

    def test_distinct_gains(self):
        room = Room((5, 5, 3), (0.5, 0.9, 0.6, 0.6, 0.6, 0.6))
        assert wall_gain_products(room, [(2, 0, 0)])[0] == pytest.approx(0.45)

    def test_distinct_walls_match_the_crossings_oracle(self):
        # Six distinct reflectances, 0 and 1 among them, so a hit put on the
        # wrong wall changes the product; the far z wall reflects nothing,
        # so half the rows keep kz in {-1, 0}, where it is never hit.
        gains = (0.5, 0.9, 1.0, 0.8, 0.7, 0.0)
        room = Room(ROOM.lengths, gains)
        rng = np.random.default_rng(14)
        ks = rng.integers(-40, 41, (400, 3))
        ks[::2, 2] = rng.integers(-1, 1, 200)
        ks = np.concatenate([ks, [(0, 0, 0), (40, -40, -1), (-40, 40, 0), (1, -1, 40)]])
        products = wall_gain_products(room, ks)
        expected = [
            math.prod(g**h for g, h in zip(gains, wall_crossings(room, TX, RX, k))) for k in ks
        ]
        assert 0 < np.count_nonzero(products) < len(ks)
        assert products == pytest.approx(expected, rel=1e-13, abs=0.0)

    @given(k=st_index)
    def test_matches_power_of_order(self, k):
        order = sum(abs(v) for v in k)
        assert wall_gain_products(ROOM, [k])[0] == pytest.approx(0.6**order, rel=1e-12)

    def test_path_power_is_wall_gain_over_spreading(self):
        # isotropic antennas: power_gain * (4 pi c tau / wavelength)**2 = g**|k|
        paths = paths_of(TX, RX, 30e-9)
        spreading = (4.0 * np.pi * C * paths.delays / RADIO.wavelength) ** 2
        orders = np.abs(paths.indices).sum(axis=1)
        assert np.allclose(paths.power_gains * spreading, 0.6**orders, rtol=1e-12)


class TestEnumerateIndices:
    def test_empty_below_direct_delay(self):
        indices, positions, delays, _ = enumerate_indices(ROOM, TX, RX, 0.5 * TAU0, C)
        assert indices.shape == (0, 3)

    def test_boundary_delay_included(self):
        # horizon placed exactly at a known path delay keeps that path
        k = (1, 0, 0)
        _, (exact,) = image_rows([k])
        indices, _, delays, _ = enumerate_indices(ROOM, TX, RX, exact, C)
        assert (1, 0, 0) in {tuple(row) for row in indices}
        assert np.max(delays) == exact

    def test_matches_brute_force(self):
        room = Room((2.0, 1.5, 1.0), 0.7)
        src = np.array([0.3, 1.1, 0.45])
        rcv = np.array([1.7, 0.2, 0.8])
        tau_max = 25e-9
        oracle = brute_force_indices(room, src, rcv, tau_max, C)
        indices, positions, delays, _ = enumerate_indices(room, src, rcv, tau_max, C)
        got = {tuple(row): delay for row, delay in zip(indices, delays)}
        assert got.keys() == oracle.keys()
        for key, delay in got.items():
            assert delay == pytest.approx(oracle[key], rel=1e-12)

    def test_lexicographic_order(self):
        indices, _, _, _ = enumerate_indices(ROOM, TX, RX, 40e-9, C)
        as_tuples = [tuple(row) for row in indices]
        assert as_tuples == sorted(as_tuples)

    def test_monotone_in_horizon(self):
        small, _, _, _ = enumerate_indices(ROOM, TX, RX, 30e-9, C)
        large, _, _, _ = enumerate_indices(ROOM, TX, RX, 60e-9, C)
        assert {tuple(r) for r in small} <= {tuple(r) for r in large}

    @pytest.mark.parametrize("sides", ["both", "tx", "rx", "none"])
    def test_block_rows_equal_lone_calls(self, sides):
        # A block's rows are its arrangements' own rows, bit for bit, in
        # arrangement order, whichever sides carry a cone. The arrangements
        # of a side share its threshold, as one pattern aimed R ways does.
        rng = np.random.default_rng(7)
        count = 6
        sources = rng.random((count, 3)) * ROOM.lengths
        receivers = rng.random((count, 3)) * ROOM.lengths
        aims = rng.standard_normal((2, count, 3))
        aims /= np.linalg.norm(aims, axis=-1, keepdims=True)
        cones = tuple(
            (aim, cos_min) if sides in ("both", side) else None
            for aim, cos_min, side in zip(aims, (0.3, -0.2), ("tx", "rx"))
        )
        indices, positions, delays, runs = enumerate_indices(
            ROOM, sources, receivers, 60e-9, C, cones=cones
        )
        assert len(runs) > 0 and np.all(np.diff(runs) >= 0)
        for run in range(count):
            lone_cones = tuple(None if cone is None else (cone[0][run], cone[1]) for cone in cones)
            lone = enumerate_indices(ROOM, sources[run], receivers[run], 60e-9, C, cones=lone_cones)
            assert np.all(lone[3] == 0)
            rows = runs == run
            for got, want in zip((indices, positions, delays), lone[:3]):
                assert got[rows].tobytes() == want.tobytes()

    def test_cardinality_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_indices(ROOM, TX, RX, 120e-9, C, max_cells=100)

    # ceil(c*tau/L) of the short axis is past int64 (and the cube past
    # float64 at 1e12 s), where a cast before the check wrapped the cube.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lengths,tau_max", [((1e-20, 5.0, 3.0), 120e-9), ((5.0, 5.0, 3.0), 1e12), ((5.0, 5.0, 3.0), math.inf)]
    )
    def test_cube_is_sized_before_any_integer_cast(self, lengths, tau_max):
        room = Room(lengths, 0.6)
        with pytest.raises(ResourceLimitError, match="above the cap"):
            index_bounds(room, tau_max, C, DEFAULT_MAX_CELLS)
        with pytest.raises(ResourceLimitError, match="above the cap"):
            enumerate_indices(room, np.zeros(3), room.lengths / 2, tau_max, C)

    def test_index_bounds_at_the_cap(self):
        # c*tau = 36 m: bounds ceil(36/L) + 2, and a cube of 21 x 21 x 29 cells.
        bounds, cells = index_bounds(ROOM, 120e-9, C, 12789)
        assert bounds.dtype == np.int64 and bounds.tolist() == [10, 10, 14]
        assert cells == 12789
        with pytest.raises(ResourceLimitError, match="holds 12789 cells, above the cap of 12788$"):
            index_bounds(ROOM, 120e-9, C, 12788)

    @pytest.mark.parametrize("tau_max,speed", [(float("nan"), C), (120e-9, float("nan"))])
    def test_nan_horizon_or_speed_is_an_input_error(self, tau_max, speed):
        with pytest.raises(ValueError, match="tau_max|speed"):
            enumerate_indices(ROOM, TX, RX, tau_max, speed)

    def test_narrow_block_scan_stays_small(self):
        # A 39-arrangement block with 0.1-coverage caps at both ends, as an
        # ensemble of such caps at 120 ns takes. The column bound scans only
        # the columns the cones reach, so the block's temporaries stay small
        # and glibc does not hand them back and fault them in every block.
        rng = np.random.default_rng(39)
        sources, receivers = rng.random((2, 39, 3)) * ROOM.lengths
        aims = rng.standard_normal((2, 39, 3))
        aims /= np.linalg.norm(aims, axis=-1, keepdims=True)
        tracemalloc.start()
        try:
            indices = enumerate_indices(ROOM, sources, receivers, 120e-9, C, cones=[(aim, 0.8) for aim in aims])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(indices) > 0
        assert peak < 2.5e6

    def test_positions_must_be_inside(self):
        with pytest.raises(ValueError):
            enumerate_indices(ROOM, TX, np.array([6.0, 1.0, 1.0]), 10e-9, C)

    def test_count_density_matches_volume(self):
        # one image per room volume: count within a large ball approaches
        # (4/3)*pi*r^3 / V, here at c*tau = 10 diagonals
        room = Room((2.0, 1.5, 1.0), 0.7)
        tau = 10.0 * room.diagonal / C
        indices, _, _, _ = enumerate_indices(room, (0.4, 0.7, 0.3), (1.1, 0.9, 0.6), tau, C)
        expected = 4.0 * np.pi * (C * tau) ** 3 / (3.0 * room.volume)
        assert len(indices) == pytest.approx(expected, rel=0.05)
