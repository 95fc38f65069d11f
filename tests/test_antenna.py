import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from roomchan.antenna import (
    Isotropic,
    SphericalCap,
    _dot_last,
    sample_orientation,
    sample_position,
    unit_boresight,
)
from roomchan.geometry import Room

ROOM = Room((5.0, 5.0, 3.0), 0.6)

st_fraction = st.floats(min_value=0.01, max_value=1.0)
st_unit = st.tuples(
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
).filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: np.asarray(v) / np.linalg.norm(v))


def sphere_grid(n_polar=20000, n_azimuth=64):
    """Midpoint quadrature nodes and weights over the unit sphere."""
    u = -1.0 + (np.arange(n_polar) + 0.5) * (2.0 / n_polar)
    phi = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    uu, pp = np.meshgrid(u, phi, indexing="ij")
    s = np.sqrt(1.0 - uu**2)
    dirs = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1)
    weight = (2.0 / n_polar) * (2.0 * np.pi / n_azimuth)
    return dirs.reshape(-1, 3), weight


class TestGain:
    def test_isotropic_is_unity(self):
        iso = Isotropic()
        assert iso.gain((0.0, 0.0, 1.0)) == 1.0
        assert np.all(iso.gain(np.eye(3)) == 1.0)

    def test_hemisphere_gain_at_boresight(self):
        cap = SphericalCap(0.5, (0, 0, 1))
        assert cap.gain((0.0, 0.0, 1.0)) == pytest.approx(2.0)

    def test_outside_threshold_is_zero(self):
        cap = SphericalCap(0.25, (1, 0, 0))
        direction = np.array([0.4, np.sqrt(1 - 0.16), 0.0])  # dot 0.4 < 0.5
        assert cap.gain(direction) == 0.0

    def test_closed_threshold_boundary(self):
        cap = SphericalCap(0.25, (1, 0, 0))
        boundary = np.array([0.5, np.sqrt(0.75), 0.0])  # dot exactly 1 - 2*0.25
        assert cap.in_support(boundary)
        assert cap.gain(boundary) == pytest.approx(4.0)

    def test_full_cap_holds_directions_rounded_past_opposite(self):
        # Opposite unit vectors can have a dot product of -1 - 2**-52: image
        # (0, 0, -5) of a tx 1 m straight below its rx departs along this
        # direction, and a full cap aimed at the rx must keep it.
        cap = SphericalCap(1.0, (0.0, 0.0, 1.0))
        direction = np.array([0.0, 0.0, -1.0000000000000002])
        assert float(direction @ cap.boresight) < cap.threshold == -1.0
        assert cap.in_support(direction) and float(cap.gain(direction)) == 1.0
        assert cap.cone[1] == -1.0

    def test_degenerate_beam_excludes_everything_else(self):
        cap = SphericalCap(1e-12, (0, 0, 1))
        assert not cap.in_support((1.0, 0.0, 0.0))
        assert cap.in_support((0.0, 0.0, 1.0))

    @given(fraction=st_fraction, axis=st_unit, direction=st_unit)
    def test_gain_nonnegative_and_flat_on_support(self, fraction, axis, direction):
        cap = SphericalCap(fraction, axis)
        g = float(cap.gain(direction))
        assert g in (0.0, pytest.approx(1.0 / fraction))

    @given(fraction=st_fraction, direction=st_unit)
    def test_depends_only_on_dot_product(self, fraction, direction):
        # rotating boresight and direction together leaves the gain unchanged
        cap_z = SphericalCap(fraction, (0, 0, 1))
        cap_x = SphericalCap(fraction, (1, 0, 0))
        rotated = np.array([direction[2], direction[1], -direction[0]])
        assert float(cap_z.gain(direction)) == pytest.approx(float(cap_x.gain(rotated)))

    def test_rejects_bad_fraction_or_axis(self):
        with pytest.raises(ValueError):
            SphericalCap(0.0)
        with pytest.raises(ValueError):
            SphericalCap(1.2)
        with pytest.raises(ValueError):
            SphericalCap(0.5, (0, 0, 0))

    def test_rejects_fraction_below_threshold_resolution(self):
        # 1 - 2 * 2**-55 rounds to 1: such a cap has no representable width.
        for fraction in (2.0**-55, 1e-200, 5e-324):
            with pytest.raises(ValueError, match="1 - 2 \\* fraction rounds to 1"):
                SphericalCap(fraction)
        smallest = float(np.nextafter(2.0**-55, 1.0))
        cap = SphericalCap(smallest)
        assert cap.threshold < 1.0
        assert float(cap.gain([0.0, 0.0, 1.0])) == pytest.approx(3.6e16, rel=1e-3)


class TestSupportTest:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_matches_the_summed_dot_product(self, fraction):
        # The reference reduces d * b over its last axis; the cap's test must
        # give the same bits and so the same verdicts, also on its threshold.
        cap = SphericalCap(fraction, (0.3, -0.7, 0.5))
        rng = np.random.default_rng(14)
        random = rng.standard_normal((100_000, 3))
        random /= np.linalg.norm(random, axis=1)[:, None]
        # Directions at the threshold, each nudged until its summed dot
        # product is exactly the threshold where a few ulps allow it.
        helper = np.cross(cap.boresight, rng.standard_normal((2000, 3)))
        helper /= np.linalg.norm(helper, axis=1)[:, None]
        edge = cap.threshold * cap.boresight + np.sqrt(1.0 - cap.threshold**2) * helper
        axis = int(np.argmax(np.abs(cap.boresight)))
        for _ in range(8):
            short = (edge * cap.boresight).sum(-1) - cap.threshold
            edge[:, axis] -= np.sign(cap.boresight[axis]) * np.sign(short) * np.spacing(edge[:, axis])
        reference_dot = (edge * cap.boresight).sum(-1)
        assert np.count_nonzero(reference_dot == cap.threshold) > 100
        assert np.count_nonzero(reference_dot < cap.threshold) > 0
        for directions in (random, edge):
            reference = (directions * cap.boresight).sum(-1)
            assert _dot_last(directions, cap.boresight).tobytes() == reference.tobytes()
            assert np.array_equal(cap.in_support(directions), reference >= cap.threshold)


class TestCone:
    def test_cap_cone_is_boresight_and_threshold(self):
        cap = SphericalCap(0.1, (0.0, 3.0, 4.0))
        boresight, cos_min = cap.cone
        assert np.array_equal(boresight, cap.boresight) and cos_min == cap.threshold

    def test_isotropic_has_no_cone(self):
        assert Isotropic().cone is None

    def test_pattern_without_cone_is_not_re_aimed(self):
        iso = Isotropic()
        assert iso.aimed((1.0, 0.0, 0.0)) is iso and iso.aimed(None) is iso


class TestUnitBoresight:
    def test_keeps_the_bits_of_the_plain_quotient(self):
        rng = np.random.default_rng(3)
        for v in rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-150, 150, (200, 1)):
            assert unit_boresight(v).tobytes() == (v / np.sqrt(np.sum(v * v))).tobytes()
        assert SphericalCap(0.5, (3.0, 0.0, 4.0)).boresight.tolist() == [0.6, 0.0, 0.8]

    # The norm overflows, underflows to zero, or the vector is not a 3-vector.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vector,message", [
        ([1e200, 0.0, 0.0], "positive, finite norm"),
        ([1e-170, 0.0, 0.0], "positive, finite norm"),
        ([0.0, 0.0, 0.0], "positive, finite norm"),
        ([1.0, 0.0], "3-vector"),
    ])
    def test_rejects_norms_that_are_not_positive_and_finite(self, vector, message):
        with pytest.raises(ValueError, match=message):
            unit_boresight(vector)
        with pytest.raises(ValueError, match=message):
            SphericalCap(0.5, vector)


class TestBeamFraction:
    def test_isotropic(self):
        assert Isotropic().beam_fraction == 1.0

    def test_hemisphere_half_beam_width(self):
        cap = SphericalCap(0.5)
        assert cap.beam_fraction == 0.5
        assert np.arccos(cap.threshold) == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.9])
    def test_support_area_matches_fraction(self, fraction):
        # Monte Carlo estimate of the support area against the declared value
        rng = np.random.default_rng(42)
        dirs = rng.standard_normal((1_000_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cap = SphericalCap(fraction, (0.3, -0.5, 0.7))
        hit = cap.in_support(dirs).mean()
        sigma = np.sqrt(fraction * (1 - fraction) / dirs.shape[0])
        assert abs(hit - fraction) < 3 * sigma

    @pytest.mark.parametrize("pattern", [Isotropic(), SphericalCap(0.37, (0, 0, 1)), SphericalCap(1.0)])
    def test_lossless_normalization(self, pattern):
        dirs, weight = sphere_grid()
        integral = float(np.sum(pattern.gain(dirs)) * weight)
        assert integral == pytest.approx(4.0 * np.pi, rel=1e-3)


class TestRandomBeamCoverage:
    def test_fixed_direction_hit_probability(self):
        # uniformly random orientation covers a fixed direction with
        # probability equal to the beam fraction
        rng = np.random.default_rng(7)
        fraction = 0.3
        fixed = np.array([0.0, 1.0, 0.0])
        n = 100_000
        hits = 0
        for _ in range(n):
            cap = SphericalCap(fraction, sample_orientation(rng))
            hits += bool(cap.in_support(fixed))
        sigma = np.sqrt(fraction * (1 - fraction) / n)
        assert abs(hits / n - fraction) < 3 * sigma


class TestSampleOrientation:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = sample_orientation(rng)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_mean_is_zero(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_orientation(rng) for _ in range(100_000)])
        sigma = np.sqrt(1.0 / 3.0 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * sigma)

    def test_covariance_is_isotropic(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_orientation(rng) for _ in range(100_000)])
        cov = draws.T @ draws / draws.shape[0]
        sigma_diag = 3 * np.sqrt(4.0 / 45.0 / draws.shape[0])
        sigma_off = 3 * np.sqrt(1.0 / 15.0 / draws.shape[0])
        for i in range(3):
            for j in range(3):
                bound = sigma_diag if i == j else sigma_off
                target = 1.0 / 3.0 if i == j else 0.0
                assert abs(cov[i, j] - target) < bound


class TestSamplePosition:
    def test_all_draws_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            assert ROOM.contains(sample_position(rng, ROOM))

    def test_per_axis_mean(self):
        rng = np.random.default_rng(4)
        draws = np.array([sample_position(rng, ROOM) for _ in range(50_000)])
        for axis in range(3):
            length = ROOM.lengths[axis]
            sigma = length / np.sqrt(12.0) / np.sqrt(draws.shape[0])
            assert abs(draws[:, axis].mean() - length / 2) < 3 * sigma

    def test_kolmogorov_smirnov_uniform(self):
        rng = np.random.default_rng(5)
        draws = np.array([sample_position(rng, ROOM) for _ in range(10_000)])
        for axis in range(3):
            result = stats.kstest(draws[:, axis], "uniform", args=(0, ROOM.lengths[axis]))
            assert result.pvalue > 0.01

    @pytest.mark.parametrize(
        "lengths", [(5.0, 5.0, 3.0), (10.0, 4.0, 3.0), (0.3, 7.0, 1e-3), (1.0, 1.0, 1.0)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 99, 2**63 - 1])
    def test_draws_equal_uniform_and_leave_the_stream_alike(self, lengths, seed):
        # The ensemble's per-run Philox streams interleave position, normal
        # and phase draws; each must see the stream the uniform draw leaves.
        room = Room(lengths, 0.6)
        streams = [np.random.Generator(np.random.Philox(key=[seed, 7])) for _ in range(2)]
        for _ in range(50):
            got = sample_position(streams[0], room)
            expected = streams[1].uniform(0.0, room.lengths)
            assert got.tobytes() == expected.tobytes()
            for stream in streams:
                stream.standard_normal(3)
            assert sample_orientation(streams[0]).tobytes() == sample_orientation(streams[1]).tobytes()
            assert streams[0].uniform(0.0, 2.0 * np.pi, 7).tobytes() == \
                streams[1].uniform(0.0, 2.0 * np.pi, 7).tobytes()
