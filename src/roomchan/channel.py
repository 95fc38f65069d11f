"""Path lists, band-limited signal synthesis, and instantaneous moments.

A path carries the reflection index, delay, directions of departure and
arrival, a power gain, and a phase. The power gain combines wall reflectance,
both antenna gains, and spherical spreading; for the direct path with
isotropic antennas it reduces to the free-space (Friis) value.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry
from .antenna import AntennaPattern
from .errors import DegenerateGeometryError, OutOfHorizonError, ZeroEnergyError
from .geometry import Room

_FMT = "{:.17g}".format

# Direct synthesis kernel: paths per block. Blocks accumulate in a fixed
# order, so a trace never depends on scheduling; a block's temporaries hold
# _SYNTH_CHUNK x samples values.
_SYNTH_CHUNK = 512

# Lattice synthesis kernel: half-width in samples of the band each path
# evaluates exactly, and the number of terms of the far-field expansion.
# With |d| <= 1/2 and far-field distances of at least _NEAR + 1/2 samples,
# the truncation error per path and sample is at most
# |a| * (2*_NEAR + 1)**-_ORDER / (beta*_NEAR): 7.9e-14 |a| on a grid
# oversampled 4x (beta = pi/4).
_NEAR = 8
_ORDER = 10

# Cost model of the kernel choice, in units of one direct kernel evaluation
# (one path at one sample): the lattice kernel costs about
# _LATTICE_PER_PATH per path plus _LATTICE_PER_FFT_OP per nfft*log2(nfft).
# Fit to the measured crossover, where both kernels take equally long: 60-75
# paths on grids of 481-4001 samples (2-vCPU x86-64 VM, numpy 2.4.6 with
# pocketfft; a direct evaluation took 12-30 ns there).
_LATTICE_PER_PATH = 40.0
_LATTICE_PER_FFT_OP = 3.0


@dataclass(frozen=True)
class RadioConfig:
    """Carrier wavelength, bandwidth, and propagation speed (SI units)."""

    wavelength: float
    bandwidth: float
    speed_of_light: float = 3.0e8

    def __post_init__(self) -> None:
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.speed_of_light <= 0.0:
            raise ValueError("speed of light must be positive")

    @classmethod
    def from_center_frequency(
        cls, center_frequency: float, bandwidth: float, speed_of_light: float = 3.0e8
    ) -> "RadioConfig":
        if center_frequency <= 0.0:
            raise ValueError("center frequency must be positive")
        return cls(speed_of_light / center_frequency, bandwidth, speed_of_light)

    @property
    def center_frequency(self) -> float:
        return self.speed_of_light / self.wavelength


@dataclass(frozen=True)
class PathComponent:
    """One propagation path of a mirror-source channel."""

    index: geometry.MirrorIndex
    delay: float
    dod: np.ndarray
    doa: np.ndarray
    power_gain: float
    phase: float


class PathList:
    """Delay-sorted paths for one transmitter/receiver arrangement.

    Array-backed for speed; indexing yields :class:`PathComponent` views.
    ``horizon`` records the enumeration delay limit so count queries beyond
    it can be rejected.
    """

    __slots__ = ("indices", "delays", "dods", "doas", "power_gains", "phases", "horizon")

    def __init__(self, indices, delays, dods, doas, power_gains, phases, horizon):
        self.indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        self.delays = np.asarray(delays, dtype=float)
        self.dods = np.asarray(dods, dtype=float).reshape(-1, 3)
        self.doas = np.asarray(doas, dtype=float).reshape(-1, 3)
        self.power_gains = np.asarray(power_gains, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.horizon = float(horizon)

    def __len__(self) -> int:
        return self.delays.shape[0]

    def __getitem__(self, i: int) -> PathComponent:
        return PathComponent(
            index=tuple(int(v) for v in self.indices[i]),
            delay=float(self.delays[i]),
            dod=self.dods[i],
            doa=self.doas[i],
            power_gain=float(self.power_gains[i]),
            phase=float(self.phases[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def to_csv(self, path) -> None:
        header = "kx,ky,kz,tau_s,gain_pow,dod_x,dod_y,dod_z,doa_x,doa_y,doa_z,phase_rad"
        lines = [header]
        for i in range(len(self)):
            k = self.indices[i]
            vals = [
                self.delays[i], self.power_gains[i],
                *self.dods[i], *self.doas[i], self.phases[i],
            ]
            lines.append(
                f"{k[0]},{k[1]},{k[2]}," + ",".join(_FMT(v) for v in vals)
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def enumerate_paths(
    room: Room,
    tx_position,
    tx_pattern: AntennaPattern,
    rx_position,
    rx_pattern: AntennaPattern,
    radio: RadioConfig,
    tau_max: float,
    max_cells: int = geometry.DEFAULT_MAX_CELLS,
) -> PathList:
    """All paths within ``tau_max`` that fall in both antenna beams.

    Power gain per path is
    ``g_k * G_tx(dod) * G_rx(doa) / (4*pi*c*tau/wavelength)**2``; the phase
    stored with each path is the carrier phase ``-2*pi*c*tau/wavelength``
    wrapped to ``[0, 2*pi)``. Paths are sorted by delay (ties by index).

    The beams' support cones prune the image lattice before any per-image
    work; the survivors then pass the patterns' exact ``in_support`` test.
    """
    tx_position = np.asarray(tx_position, dtype=float)
    rx_position = np.asarray(rx_position, dtype=float)
    if np.array_equal(tx_position, rx_position):
        raise DegenerateGeometryError("transmitter and receiver coincide")
    if radio.wavelength > 0.1 * float(np.min(room.lengths)):
        warnings.warn(
            "carrier wavelength is not small against the room dimensions; "
            "the specular mirror-source model may not apply",
            stacklevel=2,
        )

    indices, positions, delays = geometry.enumerate_indices(
        room, tx_position, rx_position, tau_max, radio.speed_of_light, max_cells,
        cones=(tx_pattern.cone, rx_pattern.cone),
    )
    if np.any(delays == 0.0):
        raise DegenerateGeometryError("receiver sits exactly on a mirror source")

    distances = delays * radio.speed_of_light
    doas = (positions - rx_position) / distances[:, None]
    dods = geometry.departure_signs(indices) * doas

    keep = np.asarray(tx_pattern.in_support(dods)) & np.asarray(rx_pattern.in_support(doas))
    indices, delays, doas, dods = indices[keep], delays[keep], doas[keep], dods[keep]

    spreading = (4.0 * np.pi * delays * radio.speed_of_light / radio.wavelength) ** 2
    power = (
        geometry.wall_gain_products(room, indices)
        * np.asarray(tx_pattern.gain(dods))
        * np.asarray(rx_pattern.gain(doas))
        / spreading
    )
    phases = (-2.0 * np.pi * radio.speed_of_light * delays / radio.wavelength) % (
        2.0 * np.pi
    )

    order = np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0], delays))
    return PathList(
        indices[order], delays[order], dods[order], doas[order],
        power[order], phases[order], tau_max,
    )


def arrival_count(paths: PathList, tau: float) -> int:
    """Number of paths with delay at most ``tau`` (closed comparison)."""
    if tau > paths.horizon:
        raise OutOfHorizonError(
            f"tau={tau} exceeds the enumeration horizon {paths.horizon}"
        )
    return int(np.searchsorted(paths.delays, tau, side="right"))


def arrival_count_curve(paths: PathList, taus) -> np.ndarray:
    """Arrival count evaluated on an array of delays."""
    taus = np.asarray(taus, dtype=float)
    if taus.size and float(np.max(taus)) > paths.horizon:
        raise OutOfHorizonError("count grid exceeds the enumeration horizon")
    return np.searchsorted(paths.delays, taus, side="right").astype(np.int64)


def sinc_pulse(radio: RadioConfig, t):
    """Unit-peak sinc pulse ``sin(pi*B*t) / (pi*B*t)`` with flat band spectrum."""
    return np.sinc(radio.bandwidth * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SampleGrid:
    """Uniform time grid: ``start + step * arange(count)``."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError("grid step must be positive")
        if self.count < 1:
            raise ValueError("grid needs at least one sample")

    @classmethod
    def spanning(cls, start: float, stop: float, step: float) -> "SampleGrid":
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return cls(start, step, count)

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


# Oversampling and padding of the synthesis grid relative to the pulse.
_OVERSAMPLE = 4
_PAD_PULSES = 20


def synthesis_grid(radio: RadioConfig, tau_max: float) -> SampleGrid:
    """Grid for synthesizing delays up to ``tau_max``.

    Steps are ``1/(4B)`` and the grid extends 20 pulse widths ``1/B``
    before zero and past ``tau_max``.
    """
    pad = _PAD_PULSES / radio.bandwidth
    step = 1.0 / (_OVERSAMPLE * radio.bandwidth)
    return SampleGrid.spanning(-pad, tau_max + pad, step)


@dataclass(frozen=True)
class SignalTrace:
    """Complex baseband samples on a uniform grid."""

    start: float
    step: float
    samples: np.ndarray

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.samples.shape[0])

    @functools.cached_property
    def abs2(self) -> np.ndarray:
        """``|samples|**2``, computed once per trace."""
        return np.abs(self.samples) ** 2

    @property
    def energy(self) -> float:
        return float(np.trapezoid(self.abs2, dx=self.step))

    def window(self, t_min: float | None = None, t_max: float | None = None) -> "SignalTrace":
        """Sub-trace with sample times inside ``[t_min, t_max]`` (inclusive).

        The sub-trace shares this trace's ``abs2`` instead of recomputing it.
        """
        t = self.times()
        mask = np.ones(t.shape, dtype=bool)
        if t_min is not None:
            mask &= t >= t_min
        if t_max is not None:
            mask &= t <= t_max
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ValueError("window excludes every sample")
        part = slice(idx[0], idx[-1] + 1)
        sub = SignalTrace(float(t[idx[0]]), self.step, self.samples[part])
        sub.__dict__["abs2"] = self.abs2[part]
        return sub

    def to_csv(self, path) -> None:
        lines = ["t_seconds,re,im,abs2"]
        t = self.times()
        a2 = self.abs2
        for i in range(t.shape[0]):
            s = self.samples[i]
            lines.append(
                ",".join(_FMT(v) for v in (t[i], s.real, s.imag, a2[i]))
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _fft_length(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` at least ``n``: a fast size for pocketfft."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _kernel_spectra(nfft: int, end: int) -> np.ndarray:
    """FFTs of the far-field kernels ``(n - 1/2)**-(p+1)``, ``p < _ORDER``.

    Row ``p`` covers the lags ``n = end - nfft .. end - 1`` and is zero on
    the near band ``1-_NEAR <= n <= _NEAR``. Cached: within an ensemble the
    grid, and with it the window, rarely changes.
    """
    lags = np.arange(end - nfft, end) - 0.5
    inverse = np.where(np.abs(lags) > _NEAR, 1.0 / lags, 0.0)
    spectra = np.fft.fft(np.cumprod(np.broadcast_to(inverse, (_ORDER, nfft)), axis=0), axis=-1)
    spectra.flags.writeable = False
    return spectra


def _lattice_is_cheaper(n: int, samples: int, nfft: float) -> bool:
    """Cost model of the kernel choice; ``nfft`` need not be a fast size."""
    lattice = _LATTICE_PER_PATH * n + _LATTICE_PER_FFT_OP * nfft * math.log2(nfft)
    return lattice < n * samples


@functools.lru_cache(maxsize=8)
def _direct_table(bandwidth: float, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a = pi B t`` on the grid times, ``sin a`` and ``cos a``; read-only.

    Cached like :func:`_kernel_spectra`: an ensemble reuses one grid.
    """
    a = np.pi * bandwidth * grid.times()
    table = (a, np.sin(a), np.cos(a))
    for values in table:
        values.flags.writeable = False
    return table


def _direct_sum(amplitudes, delays, radio: RadioConfig, grid: SampleGrid) -> np.ndarray:
    # sin(a - b) expansion: transcendentals cost O(paths + samples), not their
    # product.
    out = np.zeros(grid.count, dtype=complex)
    scale = np.pi * radio.bandwidth
    a, sin_a, cos_a = _direct_table(radio.bandwidth, grid)
    for lo in range(0, delays.shape[0], _SYNTH_CHUNK):
        sl = slice(lo, lo + _SYNTH_CHUNK)
        b = scale * delays[sl]
        # In place: each call allocates few large temporaries, which keeps
        # its cost from depending on how earlier calls left the allocator.
        arg = a[None, :] - b[:, None]
        kernel = np.cos(b)[:, None] * sin_a[None, :]
        kernel -= np.sin(b)[:, None] * cos_a[None, :]
        small = np.abs(arg) < 1e-9
        arg[small] = 1.0
        kernel /= arg
        kernel[small] = 1.0
        out += (amplitudes[sl, None] * kernel).sum(axis=0)
    return out


def _lattice_sum(amplitudes, cells, radio: RadioConfig, grid: SampleGrid) -> np.ndarray:
    # cells = (delays - start) / step = j + 1/2 + d with integer j, |d| <= 1/2.
    count = grid.count
    j = np.floor(cells).astype(np.int64)
    d = cells - j - 0.5
    j_lo, j_hi = int(j.min()), int(j.max())
    beta = np.pi * radio.bandwidth * grid.step

    # Near band: samples m = j + o, o = 1-_NEAR .. _NEAR, lie x = o - 1/2 - d
    # cells from the delay. On the two samples around it, where x can vanish,
    # np.sinc keeps full relative precision; elsewhere |x| >= 1 and
    # sin(beta*x) splits into known sines of beta*(o - 1/2) and of beta*d.
    offsets = np.arange(1 - _NEAR, _NEAR + 1) - 0.5
    x = offsets - d[:, None]
    pulses = np.divide(
        np.sin(beta * offsets) * np.cos(beta * d)[:, None]
        - np.cos(beta * offsets) * np.sin(beta * d)[:, None],
        beta * x,
        out=np.empty_like(x),
        where=np.abs(offsets) > 1.0,
    )
    around = slice(_NEAR - 1, _NEAR + 1)
    pulses[:, around] = np.sinc(radio.bandwidth * grid.step * x[:, around])
    # Bins from the first to the last sample touched; the grid is a slice.
    first = min(0, j_lo + 1 - _NEAR)
    touched = max(count, j_hi + 1 + _NEAR) - first
    at = (j[:, None] + np.arange(1 - _NEAR - first, _NEAR + 1 - first)).ravel()
    out = (
        np.bincount(at, (amplitudes.real[:, None] * pulses).ravel(), touched)
        + 1j * np.bincount(at, (amplitudes.imag[:, None] * pulses).ravel(), touched)
    )[-first : count - first]

    # Far field: sin(beta*(m - s)) = sin(beta*m)cos(beta*s) - cos(beta*m)sin(beta*s)
    # splits it into two Cauchy sums over q/(m - s), and with n = m - j,
    # 1/((n - 1/2) - d) = sum_p d**p / (n - 1/2)**(p + 1). Each term is a
    # lattice convolution of the binned moments W_p[j] = sum q d**p.
    q = amplitudes * np.stack((np.cos(beta * cells), np.sin(beta * cells)))
    powers = np.ones((_ORDER, d.shape[0]))
    powers[1:] = np.cumprod(np.broadcast_to(d, (_ORDER - 1, d.shape[0])), axis=0)
    # Real and imaginary parts of the cos and sin moments: (2, 2, _ORDER, n).
    moments = np.stack((q.real, q.imag))[:, :, None, :] * powers
    # Bins are indexed from base = min(j_lo, 0), so the kernel window below
    # depends on the grid alone for delays after its start.
    base = min(j_lo, 0)
    cells_used = j_hi - base + 1
    bins = (np.arange(4 * _ORDER)[:, None] * cells_used + (j - base)).ravel()
    binned = np.bincount(bins, moments.ravel(), 4 * _ORDER * cells_used)
    binned = binned.reshape(2, 2, _ORDER, cells_used)
    binned = binned[0] + 1j * binned[1]

    # Lags m - j of samples 0 .. count-1 and cells base .. j_hi lie in the
    # window count-base-nfft .. count-base-1 when nfft >= count + j_hi - base;
    # the circular convolution then equals the linear one on its last count
    # entries.
    nfft = _fft_length(count + j_hi - base)
    spectra = np.einsum(
        "spk,pk->sk", np.fft.fft(binned, nfft, axis=-1), _kernel_spectra(nfft, count - base)
    )
    cauchy = np.fft.ifft(spectra, axis=-1)[:, nfft - count :]
    m = beta * np.arange(count)
    out += (np.sin(m) * cauchy[0] - np.cos(m) * cauchy[1]) / beta
    return out


def synthesize_signal(
    paths: PathList,
    radio: RadioConfig,
    grid: SampleGrid,
    phase_mode: str = "carrier",
    rng: np.random.Generator | None = None,
) -> SignalTrace:
    """Superpose one sinc pulse per path on the grid.

    ``phase_mode='carrier'`` uses the phases stored with the paths;
    ``'random'`` draws i.i.d. uniform phases from ``rng`` for each path.
    An empty path list yields a zero trace.

    Two kernels compute ``y_m = sum_k a_k sinc(B (t_m - tau_k))`` with
    ``a_k = sqrt(gain_k) exp(i phase_k)``:

    - Direct: each path at each sample, O(paths x samples), summed over
      fixed blocks of paths.
    - Lattice: write ``tau_k = start + s_k step`` with
      ``s_k = j_k + 1/2 + d_k``, integer ``j_k`` and ``|d_k| <= 1/2``. The 16
      samples ``j_k - 7 .. j_k + 8`` nearest each delay are evaluated
      exactly. With ``beta = pi B step``, the rest of the trace is
      ``(sin(beta m) C_m - cos(beta m) S_m) / beta``, where ``C_m`` and
      ``S_m`` are the Cauchy sums ``sum_k a_k cos(beta s_k) / (m - s_k)``
      and ``sum_k a_k sin(beta s_k) / (m - s_k)``. Expanding
      ``1/((n - 1/2) - d) = sum_{p<10} d**p / (n - 1/2)**(p+1)``, with
      ``n = m - j_k``, turns them into 10 lattice convolutions of per-cell
      moments ``sum a_k cos(beta s_k) d_k**p`` (and likewise with sin), done
      in one batch of FFTs. It costs O(paths + nfft log nfft), where
      ``nfft`` covers the samples and the cells the delays occupy. The
      truncation error is at most ``|a_k| 17**-10 / (8 beta)`` per path and
      sample: 7.9e-14 of the path's amplitude at 4x oversampling, the order
      of the rounding error of either kernel.

    A cost model on the number of paths, the number of samples and the FFT
    length picks the kernel predicted to be faster. Short path lists take
    the direct kernel: up to 66 paths on the 1121-sample grid of a 120 ns
    horizon, for instance. Both kernels are deterministic, so a trace does
    not depend on scheduling or on the worker count.
    """
    if grid.step > 1.0 / (2.0 * radio.bandwidth):
        raise ValueError("grid step must not exceed 1/(2*bandwidth)")
    n = len(paths)
    if n == 0:
        return SignalTrace(grid.start, grid.step, np.zeros(grid.count, dtype=complex))

    if phase_mode == "carrier":
        phases = paths.phases
    elif phase_mode == "random":
        if rng is None:
            raise ValueError("phase_mode='random' requires an rng")
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
    else:
        raise ValueError(f"unknown phase_mode: {phase_mode!r}")
    amplitudes = np.sqrt(paths.power_gains) * np.exp(1j * phases)

    # The lattice kernel's FFT spans the samples and the cells from
    # min(first cell, 0) to the last (see _lattice_sum). The samples alone
    # bound its cost from below, which settles short path lists without
    # looking at their delays.
    out = None
    if _lattice_is_cheaper(n, grid.count, grid.count):
        cells = (paths.delays - grid.start) / grid.step
        reach = np.floor(cells.max()) - min(np.floor(cells.min()), 0.0)
        if _lattice_is_cheaper(n, grid.count, grid.count + reach):
            out = _lattice_sum(amplitudes, cells, radio, grid)
    if out is None:
        out = _direct_sum(amplitudes, paths.delays, radio, grid)
    return SignalTrace(grid.start, grid.step, out)


def signal_moments(trace: SignalTrace) -> tuple[float, float]:
    """Instantaneous mean delay and rms delay spread of ``|y(t)|**2``.

    Trapezoidal integration on the trace grid; raises
    :class:`ZeroEnergyError` when the trace carries no energy.
    """
    weights = trace.abs2
    total = float(np.trapezoid(weights, dx=trace.step))
    if total <= 0.0:
        raise ZeroEnergyError("trace has zero energy; moments are undefined")
    t = trace.times()
    mean = float(np.trapezoid(weights * t, dx=trace.step)) / total
    var = float(np.trapezoid(weights * (t - mean) ** 2, dx=trace.step)) / total
    return mean, float(np.sqrt(var))
