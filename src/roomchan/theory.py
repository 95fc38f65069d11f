"""Closed-form predictions for mirror-source channels in rectangular rooms.

All functions take a :class:`SceneSummary`: the room, whose volume ``V``,
surface area ``S``, diagonal and common wall reflectance ``g`` (``None``
when the walls differ) they read, the radio, the two antenna patterns,
whose beam coverage fractions they read, and the direct delay, if fixed.
Delay arguments may be scalars or arrays; outputs follow numpy broadcasting.

Overview of the quantities:

* arrival counts: the cubic large-delay law ``4*pi*c^3*tau^3 / (3*V)``
  (Eyring's count), the count anchored at the direct delay, the exact mean
  under uniformly random terminal placement and orientation, and upper
  bounds.
* arrival rates: delay derivatives of the counts; spiky components are kept
  symbolic as ``(location, weight)`` pairs.
* power-delay spectrum: spike plus exponential tail with reverberation time
  ``T = -4V / (c*S*ln g)``, optionally corrected for the spread of
  wall-interaction counts around their mean.
* mixing time: the delay at which the mean arrival rate reaches one
  component per transmit pulse duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .antenna import AntennaPattern
from .channel import RadioConfig, sinc_pulse
from .errors import ConfigError, DegenerateGeometryError
from .geometry import Room, check_magnitude

#: Default variance-to-mean ratio of the wall-interaction count (Kuttruff's
#: constant); 0.3 to 0.4 covers common room aspect ratios.
DEFAULT_GAMMA_SQ = 0.35

# Values of a block's pulse matrix in expected_received_power: a block holds
# as many output delays as fit, and at least one, against the curve's grid.
_PULSE_VALUES = 1 << 14


@dataclass(frozen=True)
class SceneSummary:
    """The room, radio, antenna patterns and direct delay that the closed-form results depend on (SI units).

    The room and radio refuse every value outside the model's domain,
    ``geometry.MAGNITUDES``; the patterns' beam fractions must lie in
    ``(0, 1]`` and the direct delay (None unless fixed) in the domain, else
    construction raises :class:`ConfigError`.
    """

    room: Room
    radio: RadioConfig
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    direct_delay: float | None = None

    def __post_init__(self) -> None:
        for side in ("tx", "rx"):
            if not 0.0 < getattr(self, f"{side}_pattern").beam_fraction <= 1.0:
                raise ConfigError(f"{side} beam fraction must lie in (0, 1]")
        if self.direct_delay is not None:
            check_magnitude("direct_delay", self.direct_delay)

    @classmethod
    def from_components(
        cls,
        room: Room,
        radio: RadioConfig,
        tx_pattern: AntennaPattern,
        rx_pattern: AntennaPattern,
        tx_position=None,
        rx_position=None,
    ) -> "SceneSummary":
        """Summarize a concrete scene; positions (if given), a wavelength or more apart, set the direct delay."""
        direct_delay = None
        if tx_position is not None and rx_position is not None:
            diff = np.asarray(tx_position, float) - np.asarray(rx_position, float)
            if not np.any(diff):
                raise DegenerateGeometryError("transmitter and receiver coincide")
            separation = np.sqrt(np.sum(diff * diff))
            if not separation >= radio.wavelength:  # the far-field path gain needs it
                raise ConfigError(f"terminals must lie a wavelength, {radio.wavelength:.3g} m, or more apart")
            direct_delay = float(separation / radio.speed_of_light)
        return cls(room, radio, tx_pattern, rx_pattern, direct_delay)

    @property
    def reflectance(self) -> float | None:
        """The walls' common power gain, or None where the walls differ."""
        gains = self.room.wall_gains
        return float(gains[0]) if np.all(gains == gains[0]) else None

    @property
    def fraction_product(self) -> float:
        return self.tx_pattern.beam_fraction * self.rx_pattern.beam_fraction

    def _require_direct_delay(self) -> float:
        if self.direct_delay is None:
            raise ConfigError("this quantity needs the direct-path delay in the scene")
        return self.direct_delay

    def _require_reflectance(self) -> float:
        if self.reflectance is None:
            raise ConfigError("walls have distinct gains; no single reflectance")
        return self.reflectance


@dataclass(frozen=True)
class TheoryCurve:
    """Sampled analytic function with an optional symbolic spike.

    ``unit`` tags the ordinate (``count``, ``rate_per_second``, or
    ``power_density_per_second``); ``dirac`` is a ``(location, weight)``
    pair for spiky components, never rendered as tall samples.
    """

    tau: np.ndarray
    values: np.ndarray
    unit: str
    dirac: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if tau.ndim != 1 or tau.shape != values.shape:
            raise ValueError("tau and values must be matching 1-d arrays")
        if tau.size > 1 and not np.all(np.diff(tau) > 0.0):
            raise ValueError("curve delays must be strictly increasing")
        if self.dirac is not None and self.dirac[1] < 0.0:
            raise ValueError("spike weight must be non-negative")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "values", values)

    def to_csv(self, path) -> None:
        comment = ()
        if self.dirac is not None:
            comment = (("dirac_location", self.dirac[0]), ("dirac_weight", self.dirac[1]))
        write_csv(
            path, "tau_seconds,value,unit",
            self.tau, self.values, [self.unit] * self.tau.size, comment=comment,
        )


def _arrivals(scene: SceneSummary, tau, factor: float, start: float = 0.0, rate: bool = False):
    """``4*pi*c^3*tau^3 / (3*V) * factor``, or with ``rate`` its derivative, for ``tau > start``."""
    tau = np.asarray(tau, dtype=float)
    power, divisor = (2, 1.0) if rate else (3, 3.0)
    c = scene.radio.speed_of_light
    return np.where(tau > start, 4.0 * np.pi * c**3 * tau**power / (divisor * scene.room.volume) * factor, 0.0)


def eyring_count(scene: SceneSummary, tau):
    """Large-delay arrival count ``4*pi*c^3*tau^3 / (3*V)`` (zero for tau <= 0)."""
    return _arrivals(scene, tau, 1.0)


def approx_count(scene: SceneSummary, tau):
    """Mean count given the scene's direct delay ``tau0``.

    ``1(tau >= tau0) * [1 + 4*pi*c^3*(tau^3 - tau0^3) / (3*V)] * w_tx * w_rx``.
    For isotropic, colocated antennas (``tau0 -> 0``) this is the cubic
    large-delay count plus one.
    """
    tau0 = scene._require_direct_delay()
    tau = np.asarray(tau, dtype=float)
    c = scene.radio.speed_of_light
    bulk = 1.0 + 4.0 * np.pi * c**3 * (tau**3 - tau0**3) / (3.0 * scene.room.volume)
    return np.where(tau >= tau0, bulk * scene.fraction_product, 0.0)


def approx_rate(scene: SceneSummary, tau) -> tuple[float, np.ndarray]:
    """Rate given the scene's direct delay: a spike there plus a density.

    Returns ``(spike_weight, density)`` where the spike of weight
    ``w_tx * w_rx`` sits at the direct delay and the density is
    ``1(tau > tau0) * 4*pi*c^3*tau^2 / V * w_tx * w_rx``.
    """
    tau0 = scene._require_direct_delay()
    return scene.fraction_product, _arrivals(scene, tau, scene.fraction_product, tau0, rate=True)


def mean_count(scene: SceneSummary, tau):
    """Exact mean arrival count for uniformly random terminal placement.

    ``4*pi*c^3*tau^3 / (3*V) * w_tx * w_rx`` for ``tau > 0``; for isotropic
    antennas the mean coincides with the cubic large-delay count.
    """
    return _arrivals(scene, tau, scene.fraction_product)


def mean_rate(scene: SceneSummary, tau):
    """Mean arrival rate ``4*pi*c^3*tau^2 / V * w_tx * w_rx`` for ``tau > 0``."""
    return _arrivals(scene, tau, scene.fraction_product, rate=True)


def mixing_time(scene: SceneSummary, n_mix: float = 1.0) -> float:
    """Delay where the mean arrival rate reaches ``n_mix`` components per pulse.

    Solves ``rate(tau) = n_mix * B`` for the mean rate, giving
    ``sqrt(n_mix * B * V / (4*pi*c^3 * w_tx * w_rx))``. Values beyond
    ``n_mix = 1`` scale the result by ``sqrt(n_mix)``.
    """
    if not n_mix > 0.0:
        raise ValueError("n_mix must be positive")
    rate_scale = 4.0 * np.pi * scene.radio.speed_of_light**3 * scene.fraction_product
    if rate_scale == 0.0:
        # The beam fractions' product underflows: the mean rate is zero.
        return float("inf")
    return float(np.sqrt(n_mix * scene.radio.bandwidth * scene.room.volume / rate_scale))


def reverberation_time(scene: SceneSummary) -> float:
    """Exponential tail time constant ``T = -4V / (c*S*ln g)``.

    Undefined for ``g = 0`` (no reverberation), ``g = 1`` (lossless walls)
    and walls of distinct gains.
    """
    g = scene._require_reflectance()
    if g <= 0.0 or g >= 1.0:
        raise ValueError("reverberation time needs reflectance strictly in (0, 1)")
    return float(-4.0 * scene.room.volume / (scene.radio.speed_of_light * scene.room.surface_area * np.log(g)))


def kuttruff_correction(gain: float, gamma_sq: float = DEFAULT_GAMMA_SQ) -> float:
    """Reverberation-time correction ``1 / (1 + gamma_sq * ln(g) / 2)``.

    Accounts for the spread of wall-interaction counts around their mean;
    ``gamma_sq`` is the variance-to-mean ratio of that count and depends on
    the room aspect ratio. Undefined where the denominator is not positive,
    for ``g <= exp(-2 / gamma_sq)`` (0.0033 at the default ``gamma_sq``).
    """
    if not 0.0 < gain < 1.0:
        raise ValueError("correction needs reflectance strictly in (0, 1)")
    if not gamma_sq >= 0.0:
        raise ValueError("gamma_sq must be non-negative")
    denominator = 1.0 + gamma_sq * np.log(gain) / 2.0
    if denominator <= 0.0:
        raise ValueError(f"correction needs reflectance above exp(-2/gamma_sq) = {np.exp(-2 / gamma_sq):.3g}")
    return float(1.0 / denominator)


def gain_second_moment(scene: SceneSummary, tau, mode: str = "deterministic"):
    """Conditional second moment of the path gain at delay ``tau``.

    ``g**(tau*c*S/(4V)) / (4*pi*c*tau/wavelength)**2 / (w_tx * w_rx)``, using
    the mean number of wall interactions at that delay. In ``deterministic``
    mode the direct delay must be set, delays below it are rejected, and the
    value exactly at the direct delay carries no reflection loss. In
    ``randomized`` mode any ``tau > 0`` is accepted.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("gain second moment is singular at tau <= 0")
    c = scene.radio.speed_of_light
    spreading = (4.0 * np.pi * c * tau / scene.radio.wavelength) ** 2
    exponent = tau * c * scene.room.surface_area / (4.0 * scene.room.volume)
    reflections = scene._require_reflectance() ** exponent
    if mode == "deterministic":
        tau0 = scene._require_direct_delay()
        if np.any(tau < tau0):
            raise ValueError("deterministic mode needs tau >= direct delay")
        reflections = np.where(tau == tau0, 1.0, reflections)
    elif mode != "randomized":
        raise ValueError(f"unknown mode: {mode!r}")
    return reflections / spreading / scene.fraction_product


def pds(
    scene: SceneSummary,
    tau,
    mode: str = "deterministic",
    corrected: bool = False,
) -> TheoryCurve:
    """Power-delay spectrum approximation: optional spike plus exponential tail.

    The tail is ``exp(-tau/T) / (4*pi*V/(wavelength^2 * c))`` and is
    independent of the antenna beam fractions: directivity scales the arrival
    rate down and the per-path gain up by the same factor. ``deterministic``
    mode adds a spike of weight ``(wavelength / (4*pi*c*tau0))**2`` at the
    direct delay and starts the tail there; ``randomized`` mode has no spike
    and starts at zero. With ``corrected=True`` the tail uses the
    interaction-spread-corrected time constant ``xi * T``.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    decay = reverberation_time(scene)
    if corrected:
        decay *= kuttruff_correction(scene.reflectance)
    c = scene.radio.speed_of_light
    level = scene.radio.wavelength**2 * c / (4.0 * np.pi * scene.room.volume)
    dirac = None
    if mode == "deterministic":
        tau0 = scene._require_direct_delay()
        weight = (scene.radio.wavelength / (4.0 * np.pi * c * tau0)) ** 2
        dirac = (tau0, weight)
        tail = np.where(tau > tau0, level * np.exp(-tau / decay), 0.0)
    elif mode == "randomized":
        tail = np.where(tau > 0.0, level * np.exp(-tau / decay), 0.0)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return TheoryCurve(tau, tail, "power_density_per_second", dirac)


def expected_received_power(curve: TheoryCurve, radio: RadioConfig, tau) -> np.ndarray:
    """Mean received power: the spectrum convolved with the pulse energy.

    ``E|y(tau)|^2 = integral P(tau - t) |s(t)|^2 dt`` with the spike handled
    analytically as a pulse-energy replica and the tail integrated by the
    trapezoidal rule on the curve's own grid. The tail is summed over blocks
    of output delays; each delay's sum is the same in any block or subset.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros(tau.shape)
    if curve.dirac is not None:
        location, weight = curve.dirac
        out += weight * sinc_pulse(radio, tau - location) ** 2
    grid = curve.tau
    if grid.size >= 2:
        weights = np.empty(grid.shape)
        weights[1:-1] = (grid[2:] - grid[:-2]) / 2.0
        weights[0] = (grid[1] - grid[0]) / 2.0
        weights[-1] = (grid[-1] - grid[-2]) / 2.0
        weights *= curve.values
        size = max(1, _PULSE_VALUES // grid.size)
        for start in range(0, tau.size, size):
            rows = slice(start, start + size)
            pulse_sq = sinc_pulse(radio, tau[rows, None] - grid[None, :]) ** 2
            out[rows] += (pulse_sq * weights).sum(axis=1)
    return out


def count_second_moment(scene: SceneSummary, tau):
    """Raw second moment of the arrival count under random placement.

    ``E[N]^2 + (E[N(tau + D/2c)] - E[N(tau - D/2c)]) / 4`` with ``D`` the
    room diagonal. Accurate for the raw moment at large delays; the implied
    variance overshoots the empirical one.
    """
    tau = np.asarray(tau, dtype=float)
    half_cross = scene.room.diagonal / (2.0 * scene.radio.speed_of_light)
    mean = mean_count(scene, tau)
    spread = mean_count(scene, tau + half_cross) - mean_count(scene, tau - half_cross)
    return mean**2 + spread / 4.0


def count_upper_bound(scene: SceneSummary, tau):
    """Mean-count bound ``4*pi*c^3*tau^3/(3V) * min(w_tx, w_rx)``.

    Valid for a uniformly placed terminal with fixed orientation; equality
    holds when either antenna is isotropic.
    """
    return _arrivals(scene, tau, min(scene.tx_pattern.beam_fraction, scene.rx_pattern.beam_fraction))


def rate_upper_bound(scene: SceneSummary, tau):
    """Rate analog of :func:`count_upper_bound`."""
    return _arrivals(scene, tau, min(scene.tx_pattern.beam_fraction, scene.rx_pattern.beam_fraction), rate=True)

