"""Closed-form predictions for mirror-source channels in rectangular rooms.

All functions take a :class:`SceneSummary` holding the room volume ``V``,
surface area ``S``, diagonal, common wall reflectance ``g`` (``None`` when
the walls differ), radio constants, and the two beam coverage fractions.
Delay arguments may be scalars or arrays; outputs follow numpy broadcasting.

Overview of the quantities:

* arrival counts: the cubic large-delay law ``4*pi*c^3*tau^3 / (3*V)``
  (Eyring's count), a deterministic approximation anchored at the direct
  delay, the exact mean under uniformly random terminal placement and
  orientation, and upper bounds / conditional variants.
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
from .geometry import MAGNITUDES, Room, check_magnitude

#: Default variance-to-mean ratio of the wall-interaction count (Kuttruff's
#: constant); 0.3 to 0.4 covers common room aspect ratios.
DEFAULT_GAMMA_SQ = 0.35

# Values of a block's pulse matrix in expected_received_power: a block holds
# as many output delays as fit, and at least one, against the curve's grid.
_PULSE_VALUES = 1 << 14

# Cubes of the domain's extreme sides: every room of sides in MAGNITUDES has its scalars between theirs.
_CUBES = [Room((side,) * 3, 0.0) for side in MAGNITUDES]


@dataclass(frozen=True)
class SceneSummary:
    """Scalars that the closed-form results depend on (SI units).

    Outside the model's domain, ``geometry.MAGNITUDES``, construction raises
    :class:`ConfigError`; the room's scalars span those of every room of sides in it.
    """

    volume: float
    surface: float
    diagonal: float
    reflectance: float | None
    speed_of_light: float
    wavelength: float
    bandwidth: float
    tx_fraction: float
    rx_fraction: float
    direct_delay: float | None = None

    def __post_init__(self) -> None:
        for name, attribute in (("volume", "volume"), ("surface", "surface_area"), ("diagonal", "diagonal")):
            check_magnitude(name, getattr(self, name), [getattr(cube, attribute) for cube in _CUBES])
        for name in ("speed_of_light", "wavelength", "bandwidth"):
            check_magnitude(name, getattr(self, name))
        if self.reflectance is not None and not 0.0 <= self.reflectance <= 1.0:
            raise ConfigError("reflectance must lie in [0, 1]")
        for name in ("tx_fraction", "rx_fraction"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1]")
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
        gains = room.wall_gains
        direct_delay = None
        if tx_position is not None and rx_position is not None:
            diff = np.asarray(tx_position, float) - np.asarray(rx_position, float)
            if not np.any(diff):
                raise DegenerateGeometryError("transmitter and receiver coincide")
            separation = np.sqrt(np.sum(diff * diff))
            if not separation >= radio.wavelength:  # the far-field path gain needs it
                raise ConfigError(f"terminals must lie a wavelength, {radio.wavelength:.3g} m, or more apart")
            direct_delay = float(separation / radio.speed_of_light)
        return cls(
            volume=room.volume,
            surface=room.surface_area,
            diagonal=room.diagonal,
            reflectance=float(gains[0]) if np.all(gains == gains[0]) else None,
            speed_of_light=radio.speed_of_light,
            wavelength=radio.wavelength,
            bandwidth=radio.bandwidth,
            tx_fraction=tx_pattern.beam_fraction,
            rx_fraction=rx_pattern.beam_fraction,
            direct_delay=direct_delay,
        )

    @property
    def fraction_product(self) -> float:
        return self.tx_fraction * self.rx_fraction

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
    c = scene.speed_of_light
    return np.where(tau > start, 4.0 * np.pi * c**3 * tau**power / (divisor * scene.volume) * factor, 0.0)


def eyring_count(scene: SceneSummary, tau):
    """Large-delay arrival count ``4*pi*c^3*tau^3 / (3*V)`` (zero for tau <= 0)."""
    return _arrivals(scene, tau, 1.0)


def approx_count(scene: SceneSummary, tau):
    """Deterministic count approximation anchored at the direct delay.

    ``1(tau >= tau0) * [1 + 4*pi*c^3*(tau^3 - tau0^3) / (3*V)] * w_tx * w_rx``.
    For isotropic, colocated antennas (``tau0 -> 0``) this is the cubic
    large-delay count plus one.
    """
    return conditional_mean_count(scene, tau, scene._require_direct_delay())


def approx_rate(scene: SceneSummary, tau) -> tuple[float, np.ndarray]:
    """Arrival-rate approximation: spike at the direct delay plus density.

    Returns ``(spike_weight, density)`` where the spike of weight
    ``w_tx * w_rx`` sits at the direct delay and the density is
    ``1(tau > tau0) * 4*pi*c^3*tau^2 / V * w_tx * w_rx``.
    """
    return conditional_rate(scene, tau, scene._require_direct_delay())


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
    if n_mix <= 0.0:
        raise ValueError("n_mix must be positive")
    rate_scale = 4.0 * np.pi * scene.speed_of_light**3 * scene.fraction_product
    if rate_scale == 0.0:
        # The beam fractions' product underflows: the mean rate is zero.
        return float("inf")
    return float(np.sqrt(n_mix * scene.bandwidth * scene.volume / rate_scale))


def reverberation_time(scene: SceneSummary) -> float:
    """Exponential tail time constant ``T = -4V / (c*S*ln g)``.

    Undefined for ``g = 0`` (no reverberation), ``g = 1`` (lossless walls)
    and walls of distinct gains.
    """
    g = scene._require_reflectance()
    if g <= 0.0 or g >= 1.0:
        raise ValueError("reverberation time needs reflectance strictly in (0, 1)")
    return float(
        -4.0 * scene.volume / (scene.speed_of_light * scene.surface * np.log(g))
    )


def kuttruff_correction(gain: float, gamma_sq: float = DEFAULT_GAMMA_SQ) -> float:
    """Reverberation-time correction ``1 / (1 + gamma_sq * ln(g) / 2)``.

    Accounts for the spread of wall-interaction counts around their mean;
    ``gamma_sq`` is the variance-to-mean ratio of that count and depends on
    the room aspect ratio. Undefined where the denominator is not positive,
    for ``g <= exp(-2 / gamma_sq)`` (0.0033 at the default ``gamma_sq``).
    """
    if gain <= 0.0 or gain >= 1.0:
        raise ValueError("correction needs reflectance strictly in (0, 1)")
    if gamma_sq < 0.0:
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
    c = scene.speed_of_light
    spreading = (4.0 * np.pi * c * tau / scene.wavelength) ** 2
    exponent = tau * c * scene.surface / (4.0 * scene.volume)
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
    c = scene.speed_of_light
    level = scene.wavelength**2 * c / (4.0 * np.pi * scene.volume)
    dirac = None
    if mode == "deterministic":
        tau0 = scene._require_direct_delay()
        weight = (scene.wavelength / (4.0 * np.pi * c * tau0)) ** 2
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
    half_cross = scene.diagonal / (2.0 * scene.speed_of_light)
    mean = mean_count(scene, tau)
    spread = mean_count(scene, tau + half_cross) - mean_count(scene, tau - half_cross)
    return mean**2 + spread / 4.0


def count_upper_bound(scene: SceneSummary, tau):
    """Mean-count bound ``4*pi*c^3*tau^3/(3V) * min(w_tx, w_rx)``.

    Valid for a uniformly placed terminal with fixed orientation; equality
    holds when either antenna is isotropic.
    """
    return _arrivals(scene, tau, min(scene.tx_fraction, scene.rx_fraction))


def rate_upper_bound(scene: SceneSummary, tau):
    """Rate analog of :func:`count_upper_bound`."""
    return _arrivals(scene, tau, min(scene.tx_fraction, scene.rx_fraction), rate=True)


def conditional_mean_count(scene: SceneSummary, tau, tau0: float):
    """Mean count conditioned on the direct delay ``tau0``.

    ``1(tau >= tau0) * [1 + 4*pi*c^3*(tau^3 - tau0^3) / (3*V)] * w_tx * w_rx``.
    :func:`approx_count` evaluates it at the scene's direct delay; the
    semantics differ (expectation given the terminal separation rather than
    a deterministic approximation).
    """
    if tau0 <= 0.0:
        raise ValueError("conditional count needs tau0 > 0")
    tau = np.asarray(tau, dtype=float)
    c = scene.speed_of_light
    bulk = 1.0 + 4.0 * np.pi * c**3 * (tau**3 - tau0**3) / (3.0 * scene.volume)
    return np.where(tau >= tau0, bulk * scene.fraction_product, 0.0)


def conditional_rate(scene: SceneSummary, tau, tau0: float) -> tuple[float, np.ndarray]:
    """Rate conditioned on the direct delay: ``(spike_weight, density)``."""
    if tau0 <= 0.0:
        raise ValueError("conditional rate needs tau0 > 0")
    return scene.fraction_product, _arrivals(scene, tau, scene.fraction_product, tau0, rate=True)
