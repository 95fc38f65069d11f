import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from roomchan import theory
from roomchan.antenna import AntennaPattern, Isotropic, SphericalCap
from roomchan.channel import RadioConfig, sinc_pulse
from roomchan.errors import ConfigError, DegenerateGeometryError
from roomchan.geometry import Room
from roomchan.theory import SceneSummary, TheoryCurve

C = 3e8
ROOM = Room((5.0, 5.0, 3.0), 0.6)
RADIO = RadioConfig.from_center_frequency(60e9, 2e9, C)
TX = np.array([2.5, 2.5, 1.5])
RX = np.array([3.8, 4.0, 0.6])
TAU0 = np.sqrt(4.75) / C


class Coverage(AntennaPattern):
    """A custom pattern that declares any beam fraction, which is all the closed forms read of it."""

    def __init__(self, fraction):
        self.fraction = fraction

    @property
    def beam_fraction(self):
        return self.fraction


def scene_with(tx_fraction=1.0, rx_fraction=1.0, direct_delay=None, room=ROOM, radio=RADIO):
    return SceneSummary(room, radio, SphericalCap(tx_fraction), SphericalCap(rx_fraction), direct_delay)


SCENE = scene_with()
SCENE_T0 = scene_with(direct_delay=TAU0)


class TestSceneSummary:
    def test_fields_are_the_components_and_direct_delay(self):
        names = tuple(field.name for field in dataclasses.fields(SceneSummary))
        assert names == ("room", "radio", "tx_pattern", "rx_pattern", "direct_delay")

    def test_from_components(self):
        tx_pattern, rx_pattern = Isotropic(), SphericalCap(0.5)
        scene = SceneSummary.from_components(ROOM, RADIO, tx_pattern, rx_pattern, TX, RX)
        # The scene holds the room, radio and patterns themselves, and reads their own values.
        assert scene.room is ROOM and scene.radio is RADIO
        assert scene.tx_pattern is tx_pattern and scene.rx_pattern is rx_pattern
        assert scene.room.volume == 75.0
        assert scene.room.surface_area == 110.0
        assert scene.room.diagonal == np.sqrt(59.0)
        assert scene.reflectance == 0.6
        assert (scene.radio.speed_of_light, scene.radio.wavelength, scene.radio.bandwidth) == (C, 0.005, 2e9)
        assert scene.fraction_product == 0.5
        assert scene.direct_delay == pytest.approx(TAU0, rel=1e-14)

    # A custom pattern declares its own fraction; the scene refuses one outside (0, 1].
    @pytest.mark.parametrize("side", ["tx", "rx"])
    @pytest.mark.parametrize("fraction", [0.0, 1.5, np.nan])
    def test_beam_fraction_outside_unit_interval_rejected(self, side, fraction):
        patterns = {"tx_pattern": Isotropic(), "rx_pattern": Isotropic(), f"{side}_pattern": Coverage(fraction)}
        with pytest.raises(ConfigError, match=rf"^{side} beam fraction must lie in \(0, 1\]$"):
            SceneSummary(ROOM, RADIO, **patterns)

    def test_coincident_positions_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="transmitter and receiver coincide"):
            SceneSummary.from_components(ROOM, RADIO, Isotropic(), Isotropic(), TX, TX)

    # The far-field path gain needs the terminals a wavelength (5 mm) apart
    # or more: 1 mm is refused, and so is 1e-200 m, whose squared separation
    # underflows to 0, without being taken for coincident terminals.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("separation", [1e-3, 1e-200, np.nextafter(RADIO.wavelength, 0.0)])
    def test_terminals_nearer_than_a_wavelength_rejected(self, separation):
        with pytest.raises(ConfigError, match=r"^terminals must lie a wavelength, 0\.005 m, or more apart$") as info:
            SceneSummary.from_components(ROOM, RADIO, Isotropic(), Isotropic(), [0, 0, 0], [0, 0, separation])
        assert not isinstance(info.value, DegenerateGeometryError)

    def test_terminals_a_wavelength_apart_accepted(self):
        scene = SceneSummary.from_components(ROOM, RADIO, Isotropic(), Isotropic(), [0, 0, 0], [0, 0, RADIO.wavelength])
        assert scene.direct_delay == RADIO.wavelength / C

    # Scalars outside the model's domain, where the closed forms' scales
    # would overflow: a huge speed of light, or a tiny room; the radio and
    # room that a scene holds refuse them as ConfigError, without a numpy
    # warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build,message", [
        (lambda: RadioConfig(0.005, 2e9, 1e120), "speed of light must lie in [1e-30, 1e+30], got 1e+120"),
        (lambda: RadioConfig(0.005, 2e9, 2.5e102), "speed of light must lie in [1e-30, 1e+30], got 2.5e+102"),
        (lambda: Room((1e-100,) * 3, 0.6), "room lengths must lie in [1e-30, 1e+30], got 1e-100"),
        (lambda: RadioConfig(1e160, 2e9, C), "wavelength must lie in [1e-30, 1e+30], got 1e+160"),
    ])
    def test_overflowing_scales_rejected(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    # Scalars outside the domain where the scales would underflow to zero,
    # and direct delays outside it, where the direct path's free-space
    # factor, pds' spike weight, would overflow or underflow.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build,message", [
        (lambda: RadioConfig(0.005, 2e9, 1e-110), "speed of light must lie in [1e-30, 1e+30], got 1e-110"),
        (lambda: RadioConfig(1e-300, 2e9, C), "wavelength must lie in [1e-30, 1e+30], got 1e-300"),
        (lambda: dataclasses.replace(SCENE, direct_delay=1e-169),
         "direct_delay must lie in [1e-30, 1e+30], got 1e-169"),
        (lambda: dataclasses.replace(SCENE, direct_delay=1e200),
         "direct_delay must lie in [1e-30, 1e+30], got 1e+200"),
    ])
    def test_vanishing_scales_and_direct_factor_rejected(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    def test_distinct_wall_gains_rejected(self):
        # Only the tail quantities need a single reflectance; the counts do not.
        room = Room((5, 5, 3), (0.5, 0.9, 0.6, 0.6, 0.6, 0.6))
        scene = SceneSummary.from_components(room, RADIO, Isotropic(), Isotropic(), TX, RX)
        assert scene.reflectance is None
        assert theory.mean_count(scene, 10e-9) == theory.mean_count(SCENE, 10e-9)
        message = "walls have distinct gains; no single reflectance"
        for call in (
            lambda: theory.reverberation_time(scene),
            lambda: theory.pds(scene, [10e-9], mode="randomized"),
            lambda: theory.gain_second_moment(scene, 10e-9, mode="randomized"),
        ):
            with pytest.raises(ConfigError, match=message):
                call()


class TestEyringCount:
    def test_zero_at_origin(self):
        assert theory.eyring_count(SCENE, 0.0) == 0.0

    def test_hand_value(self):
        # 4*pi*27 / (3*75)
        assert theory.eyring_count(SCENE, 10e-9) == pytest.approx(1.5079644737231007, rel=1e-12)

    def test_cubic_scaling(self):
        assert theory.eyring_count(SCENE, 20e-9) == pytest.approx(
            8 * theory.eyring_count(SCENE, 10e-9), rel=1e-12
        )


class TestApproxCount:
    def test_zero_before_direct_delay(self):
        assert theory.approx_count(SCENE_T0, 0.9 * TAU0) == 0.0

    def test_fraction_product_at_direct_delay(self):
        scene = scene_with(0.5, 0.5, direct_delay=TAU0)
        assert theory.approx_count(scene, TAU0) == pytest.approx(0.25, rel=1e-12)

    def test_isotropic_colocated_limit_is_cubic_plus_one(self):
        scene = scene_with(direct_delay=1e-15)
        tau = 20e-9
        assert theory.approx_count(scene, tau) == pytest.approx(
            theory.eyring_count(SCENE, tau) + 1.0, rel=1e-9
        )

    def test_small_separation_limit(self):
        scene = dataclasses.replace(scene_with(0.5, 0.5), direct_delay=1e-12)
        tau = 30e-9
        expected = theory.eyring_count(SCENE, tau) * 0.25 + 0.25
        assert theory.approx_count(scene, tau) == pytest.approx(expected, rel=1e-6)

    def test_requires_direct_delay(self):
        with pytest.raises(ConfigError):
            theory.approx_count(SCENE, 10e-9)


class TestApproxRate:
    def test_density_zero_before_direct_delay(self):
        _, density = theory.approx_rate(SCENE_T0, 0.5 * TAU0)
        assert density == 0.0

    def test_hand_value(self):
        scene = scene_with(direct_delay=1e-9)
        _, density = theory.approx_rate(scene, 10e-9)
        assert density == pytest.approx(4.5238934211693017e8, rel=1e-12)

    def test_integral_recovers_count(self):
        scene = scene_with(0.6, 0.8, direct_delay=TAU0)
        spike, _ = theory.approx_rate(scene, TAU0)
        for tau in (10e-9, 25e-9, 60e-9):
            integral, _ = integrate.quad(
                lambda t: float(theory.approx_rate(scene, t)[1]),
                0.0, tau, points=[TAU0], limit=200,
            )
            total = integral + (spike if tau >= TAU0 else 0.0)
            assert total == pytest.approx(float(theory.approx_count(scene, tau)), rel=1e-6)


class TestMeanCountAndRate:
    def test_isotropic_equals_cubic_law(self):
        taus = np.linspace(0, 100e-9, 11)
        assert np.array_equal(theory.mean_count(SCENE, taus), theory.eyring_count(SCENE, taus))

    def test_hand_value_with_fractions(self):
        scene = scene_with(0.5, 0.5)
        assert theory.mean_count(scene, 10e-9) == pytest.approx(0.3769911184307752, rel=1e-12)

    def test_rate_integrates_to_count(self):
        scene = scene_with(0.4, 0.9)
        for tau in (15e-9, 50e-9):
            integral, _ = integrate.quad(lambda t: float(theory.mean_rate(scene, t)), 0, tau)
            assert integral == pytest.approx(float(theory.mean_count(scene, tau)), rel=1e-6)


class TestMixingTime:
    def test_table_settings_isotropic(self):
        exact = np.sqrt(RADIO.bandwidth * 75.0 / (4 * np.pi * C**3))
        assert theory.mixing_time(SCENE) == pytest.approx(exact, rel=1e-12)
        assert theory.mixing_time(SCENE) == pytest.approx(21e-9, rel=0.02)

    def test_hemisphere_pair_doubles(self):
        scene = scene_with(0.5, 0.5)
        assert theory.mixing_time(scene) == pytest.approx(2 * theory.mixing_time(SCENE), rel=1e-12)
        assert theory.mixing_time(scene) == pytest.approx(42e-9, rel=0.02)

    def test_underflowing_beam_product_never_mixes(self):
        scene = SceneSummary(ROOM, RADIO, SphericalCap(0.5), Coverage(5e-324))
        assert theory.mixing_time(scene) == float("inf")

    def test_bandwidth_scaling(self):
        radio4 = RadioConfig(RADIO.wavelength, 4 * RADIO.bandwidth, C)
        assert theory.mixing_time(scene_with(radio=radio4)) == pytest.approx(
            2 * theory.mixing_time(SCENE), rel=1e-12
        )

    def test_component_budget_scaling(self):
        assert theory.mixing_time(SCENE, n_mix=4.0) == pytest.approx(
            2 * theory.mixing_time(SCENE), rel=1e-12
        )

    @pytest.mark.parametrize("n_mix", [0.0, -1.0, np.nan])
    def test_budget_must_be_positive(self, n_mix):
        with pytest.raises(ValueError, match="^n_mix must be positive$"):
            theory.mixing_time(SCENE, n_mix=n_mix)


class TestReverberationTime:
    def test_table_room_value(self):
        assert theory.reverberation_time(SCENE) == pytest.approx(1.7796501717920158e-8, rel=1e-12)

    def test_length_scaling(self):
        scaled = Room(2.0 * ROOM.lengths, 0.6)
        scene = scene_with(room=scaled)
        assert theory.reverberation_time(scene) == pytest.approx(
            2 * theory.reverberation_time(SCENE), rel=1e-12
        )

    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_degenerate_reflectance_rejected(self, gain):
        scene = scene_with(room=Room((5, 5, 3), gain))
        with pytest.raises(ValueError):
            theory.reverberation_time(scene)


class TestKuttruffCorrection:
    def test_reference_value(self):
        assert theory.kuttruff_correction(0.6, 0.35) == pytest.approx(1.0982, abs=1e-4)

    def test_zero_spread_is_identity(self):
        assert theory.kuttruff_correction(0.6, 0.0) == 1.0

    @pytest.mark.parametrize("gain", [0.0, 1.0, np.nan])
    def test_degenerate_reflectance_rejected(self, gain):
        with pytest.raises(ValueError, match=r"^correction needs reflectance strictly in \(0, 1\)$"):
            theory.kuttruff_correction(gain)

    def test_nan_spread_rejected(self):
        with pytest.raises(ValueError, match="^gamma_sq must be non-negative$"):
            theory.kuttruff_correction(0.6, gamma_sq=np.nan)

    # The denominator 1 + gamma_sq*ln(g)/2 reaches 0 at g = exp(-2/gamma_sq):
    # 0.0033 at the default 0.35, 0.0183 at 0.5.
    @pytest.mark.parametrize("gamma_sq", [theory.DEFAULT_GAMMA_SQ, 0.5])
    def test_sign_change_rejected(self, gamma_sq):
        edge = np.exp(-2.0 / gamma_sq)
        for gain in (edge * (1.0 - 1e-9), edge / 2.0, 0.002, 1e-300):
            with pytest.raises(ValueError, match="correction needs reflectance above"):
                theory.kuttruff_correction(gain, gamma_sq)
        for gain in (edge * (1.0 + 1e-9), 2.0 * edge, 0.6):
            xi = theory.kuttruff_correction(gain, gamma_sq)
            assert 1.0 < xi < np.inf
        assert theory.kuttruff_correction(1e-300, 0.0) == 1.0


class TestGainSecondMoment:
    def test_decay_reaches_inverse_e_at_reverberation_time(self):
        decay = theory.reverberation_time(SCENE)
        value = theory.gain_second_moment(SCENE, decay, mode="randomized")
        spreading = (4 * np.pi * C * decay / RADIO.wavelength) ** 2
        assert value * spreading == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_doubling_fraction_product_halves(self):
        half = scene_with(0.5, 1.0)
        assert theory.gain_second_moment(half, 30e-9, "randomized") == pytest.approx(
            2 * theory.gain_second_moment(SCENE, 30e-9, "randomized"), rel=1e-12
        )

    def test_mean_interaction_count_at_50ns(self):
        # exponent tau*c*S/(4V) evaluates to 5.5 wall interactions
        exponent = 50e-9 * C * SCENE.room.surface_area / (4 * SCENE.room.volume)
        assert exponent == pytest.approx(5.5, rel=1e-12)

    def test_direct_delay_special_case(self):
        value = theory.gain_second_moment(SCENE_T0, TAU0, mode="deterministic")
        spreading = (4 * np.pi * C * TAU0 / RADIO.wavelength) ** 2
        assert value == pytest.approx(1.0 / spreading, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theory.gain_second_moment(SCENE, 0.0, "randomized")
        with pytest.raises(ValueError):
            theory.gain_second_moment(SCENE_T0, 0.5 * TAU0, "deterministic")


class TestPds:
    def test_tail_level_near_origin(self):
        # wavelength^2 * c / (4*pi*V)
        curve = theory.pds(SCENE, np.array([1e-18]), mode="randomized")
        assert curve.values[0] == pytest.approx(7.957747154594766, rel=1e-9)

    def test_tail_drops_by_e_at_reverberation_time(self):
        decay = theory.reverberation_time(SCENE)
        curve = theory.pds(SCENE, np.array([1e-18, decay]), mode="randomized")
        assert curve.values[1] / curve.values[0] == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_independent_of_beam_fractions(self):
        taus = np.linspace(0, 120e-9, 481)
        reference = theory.pds(SCENE, taus, mode="randomized")
        for fractions in ((0.5, 0.5), (0.25, 0.9), (0.0625, 1.0)):
            other = theory.pds(scene_with(*fractions), taus, mode="randomized")
            assert np.array_equal(reference.values, other.values)

    def test_deterministic_spike(self):
        taus = np.linspace(0, 120e-9, 481)
        curve = theory.pds(SCENE_T0, taus, mode="deterministic")
        location, weight = curve.dirac
        assert location == TAU0
        assert weight == pytest.approx((RADIO.wavelength / (4 * np.pi * C * TAU0)) ** 2, rel=1e-12)
        assert np.all(curve.values[taus <= TAU0] == 0.0)

    def test_corrected_tail_uses_adjusted_time(self):
        decay = theory.reverberation_time(SCENE) * theory.kuttruff_correction(0.6, 0.35)
        curve = theory.pds(SCENE, np.array([1e-18, decay]), mode="randomized", corrected=True)
        assert curve.values[1] / curve.values[0] == pytest.approx(np.exp(-1.0), rel=1e-6)


class TestExpectedReceivedPower:
    def test_spike_alone_is_pulse_energy_replica(self):
        curve = TheoryCurve(
            np.array([0.0, 1e-9]), np.zeros(2), "power_density_per_second",
            dirac=(5e-9, 2.5),
        )
        taus = np.array([5e-9, 5.2e-9, 8e-9])
        out = theory.expected_received_power(curve, RADIO, taus)
        assert np.allclose(out, 2.5 * sinc_pulse(RADIO, taus - 5e-9) ** 2, rtol=1e-12)

    def test_flat_spectrum_smoothing_limit(self):
        taus = np.linspace(0, 400e-9, 1601)
        curve = TheoryCurve(taus, np.full(taus.shape, 3.0), "power_density_per_second")
        mid = theory.expected_received_power(curve, RADIO, np.array([200e-9]))
        assert mid[0] == pytest.approx(3.0 / RADIO.bandwidth, rel=1e-3)

    @staticmethod
    def dense_power(curve):
        """The convolution at every delay of the curve's grid, as one pulse matrix."""
        grid = curve.tau
        dense = np.zeros(grid.shape)
        if curve.dirac is not None:
            location, weight = curve.dirac
            dense += weight * sinc_pulse(RADIO, grid - location) ** 2
        weights = np.empty(grid.shape)
        weights[1:-1] = (grid[2:] - grid[:-2]) / 2.0
        weights[0] = (grid[1] - grid[0]) / 2.0
        weights[-1] = (grid[-1] - grid[-2]) / 2.0
        pulse_sq = sinc_pulse(RADIO, grid[:, None] - grid[None, :]) ** 2
        dense += (pulse_sq * (weights * curve.values)[None, :]).sum(axis=1)
        return dense

    @pytest.mark.parametrize("mode", ["randomized", "deterministic"])
    def test_blocked_sum_is_bitwise_dense(self, mode):
        # 1201 delays: the output rows end in a partial block.
        grid = np.linspace(0.0, 300e-9, 1201)
        curve = theory.pds(SCENE_T0, grid, mode=mode, corrected=True)
        assert (curve.dirac is not None) == (mode == "deterministic")
        out = theory.expected_received_power(curve, RADIO, grid)
        assert out.tobytes() == self.dense_power(curve).tobytes()

    SUBSETS = {
        "fit-window": lambda grid: np.flatnonzero((grid >= 40e-9) & (grid <= 110e-9)),
        "one-delay": lambda grid: np.array([577]),
        "out-of-order": lambda grid: np.random.default_rng(5).permutation(grid.size)[:700],
        "spike-and-ends": lambda grid: np.array([grid.size - 1, int(np.argmin(np.abs(grid - TAU0))), 0, 1]),
    }

    @pytest.mark.parametrize("mode", ["randomized", "deterministic"])
    @pytest.mark.parametrize("subset", sorted(SUBSETS))
    def test_subset_of_delays_is_bitwise_dense(self, mode, subset):
        grid = np.linspace(0.0, 300e-9, 1201)
        curve = theory.pds(SCENE_T0, grid, mode=mode, corrected=True)
        rows = self.SUBSETS[subset](grid)
        out = theory.expected_received_power(curve, RADIO, grid[rows])
        assert out.tobytes() == self.dense_power(curve)[rows].tobytes()

    def test_peak_memory_is_a_few_blocks(self):
        # 1201 delays on a 1201-point curve: 64-row blocks of the pulse
        # matrix peaked at 3.7 MB. A block holds about _PULSE_VALUES values,
        # 128 kB, and the pulse's temporaries take 0.9 MB in all.
        grid = np.linspace(0.0, 300e-9, 1201)
        curve = theory.pds(SCENE_T0, grid, mode="deterministic", corrected=True)
        tracemalloc.start()
        try:
            theory.expected_received_power(curve, RADIO, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * theory._PULSE_VALUES


class TestCountSecondMoment:
    def test_zero_well_before_origin(self):
        tau = -SCENE.room.diagonal / C
        assert theory.count_second_moment(SCENE, tau) == 0.0

    def test_correction_vanishes_relative_to_leading_term(self):
        taus = np.array([20e-9, 50e-9, 100e-9, 200e-9])
        mean_sq = theory.mean_count(SCENE, taus) ** 2
        correction = theory.count_second_moment(SCENE, taus) - mean_sq
        ratio = correction / mean_sq
        assert np.all(np.diff(ratio) < 0)
        assert ratio[-1] < 0.01


class TestUpperBounds:
    def test_isotropic_equality(self):
        taus = np.linspace(0, 100e-9, 21)
        assert np.array_equal(
            theory.count_upper_bound(SCENE, taus), theory.mean_count(SCENE, taus)
        )

    def test_min_fraction_selected(self):
        scene = scene_with(0.2, 0.6)
        expected = 0.2 * theory.eyring_count(SCENE, 40e-9)
        assert theory.count_upper_bound(scene, 40e-9) == pytest.approx(expected, rel=1e-12)

    def test_rate_bound_integrates_to_count_bound(self):
        scene = scene_with(0.2, 0.6)
        integral, _ = integrate.quad(lambda t: float(theory.rate_upper_bound(scene, t)), 0, 50e-9)
        assert integral == pytest.approx(float(theory.count_upper_bound(scene, 50e-9)), rel=1e-6)

    def test_mean_below_bound(self):
        scene = scene_with(0.3, 0.7)
        taus = np.linspace(1e-9, 100e-9, 50)
        assert np.all(theory.mean_count(scene, taus) <= theory.count_upper_bound(scene, taus))


class TestTheoryCurve:
    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError):
            TheoryCurve(np.array([0.0, 0.0]), np.zeros(2), "count")

    def test_csv_with_spike_header(self, tmp_path):
        curve = TheoryCurve(np.array([0.0, 1e-9]), np.array([0.5, 0.25]), "count", dirac=(5e-10, 2.0))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("# dirac_location=")
        assert "dirac_weight=2" in lines[0]
        assert lines[1] == "tau_seconds,value,unit"
        assert lines[2].endswith(",count")

    def test_csv_without_spike_has_no_comment(self, tmp_path):
        curve = TheoryCurve(np.array([0.0, 1e-9]), np.array([0.5, 0.25]), "count")
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        assert path.read_text().startswith("tau_seconds,")
