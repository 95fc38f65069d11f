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
from ._csv import write_csv
from .antenna import AntennaPattern
from .errors import ConfigError, DegenerateGeometryError, OutOfHorizonError, ResourceLimitError, ZeroEnergyError
from .geometry import Room

# Direct synthesis kernel: paths per block, summed in a fixed order so a trace
# never depends on scheduling. A block's reciprocal matrix is _SYNTH_CHUNK x samples.
_SYNTH_CHUNK = 128

#: Cap on the points of a delay grid. Synthesis holds kilobytes per sample
#: (the direct kernel's blocks of paths, the lattice kernel's per-cell
#: moments), so a grid this size already needs gigabytes per run; a larger one
#: is a mistyped step or bandwidth.
MAX_GRID_POINTS = 1_000_000

#: Phase models of :func:`synthesize_signal`: the phases stored with the
#: paths, or i.i.d. uniform phases.
PHASE_MODES = ("carrier", "random")

# Lattice synthesis kernel: bound on the truncation error of its Taylor
# expansion per path and sample, relative to the path's amplitude. The
# number of terms Q follows from it and the grid (see _taylor_order): 15 at
# 2x oversampling, 12 at 4x and 10 at 8x.
_TAYLOR_TOLERANCE = 1e-14

# Cost model of the kernel choice, in units of one direct kernel evaluation
# (one path at one sample): the lattice kernel costs about
# _LATTICE_PER_PATH per path plus _LATTICE_PER_FFT_OP per nfft*log2(nfft).
# Fit to the measured crossover, where both kernels take equally long: about
# 105-135 paths on grids of 481-4001 samples (2-vCPU x86-64 VM, numpy 2.4.6
# with pocketfft; a direct evaluation took about 4 ns there, one reciprocal
# and one four-row projection step).
_LATTICE_PER_PATH = 50.0
_LATTICE_PER_FFT_OP = 4.7


@dataclass(frozen=True)
class RadioConfig:
    """Carrier wavelength, bandwidth, and propagation speed (SI units), each in ``geometry.MAGNITUDES``."""

    wavelength: float
    bandwidth: float
    speed_of_light: float = 3.0e8

    def __post_init__(self) -> None:
        # Speed first: from_center_frequency derives the wavelength from it.
        for name in ("speed_of_light", "wavelength", "bandwidth"):
            geometry.check_magnitude(name.replace("_", " "), getattr(self, name))

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


class PathList:
    """Delay-sorted paths for one transmitter/receiver arrangement.

    Array-backed: row ``i`` of every array describes path ``i``, in delay
    order, keeping the given order among equal delays. Construction raises
    ``ValueError`` unless every array holds one row per delay. ``horizon``
    records the enumeration delay limit so count queries beyond it can be
    rejected.

    ``delays`` and ``power_gains``, which counting and synthesis read, are
    sorted at construction. ``indices``, ``dods``, ``doas`` and ``phases``
    are gathered in that same order on their first read and kept, so a
    caller that reads none of them, like a random-phase ensemble, never
    pays for them.
    """

    def __init__(self, indices, delays, dods, doas, power_gains, phases, horizon):
        delays = np.asarray(delays, dtype=float).reshape(-1)
        power_gains = np.asarray(power_gains, dtype=float).reshape(-1)
        # The columns gathered on first read, in the given row order.
        self._given = {
            "indices": np.asarray(indices, dtype=np.int64).reshape(-1, 3),
            "dods": np.asarray(dods, dtype=float).reshape(-1, 3),
            "doas": np.asarray(doas, dtype=float).reshape(-1, 3),
            "phases": np.asarray(phases, dtype=float).reshape(-1),
        }
        if any(row.shape[0] != delays.shape[0] for row in (power_gains, *self._given.values())):
            raise ValueError("path arrays must hold one row per delay")
        # Without ties the sorted order is unique, so numpy's fast unstable
        # sort gives the stable one; any tie (or NaN) takes the stable sort.
        self._order = np.argsort(delays)
        self.delays = delays[self._order]
        if not np.all(self.delays[1:] > self.delays[:-1]):
            self._order = np.argsort(delays, kind="stable")
            self.delays = delays[self._order]
        self.power_gains = power_gains[self._order]
        self.horizon = float(horizon)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return self._given["indices"][self._order]

    @functools.cached_property
    def dods(self) -> np.ndarray:
        return self._given["dods"][self._order]

    @functools.cached_property
    def doas(self) -> np.ndarray:
        return self._given["doas"][self._order]

    @functools.cached_property
    def phases(self) -> np.ndarray:
        return self._given["phases"][self._order]

    def __len__(self) -> int:
        return self.delays.shape[0]

    def to_csv(self, path) -> None:
        write_csv(
            path, "kx,ky,kz,tau_s,gain_pow,dod_x,dod_y,dod_z,doa_x,doa_y,doa_z,phase_rad",
            *self.indices.T, self.delays, self.power_gains, *self.dods.T, *self.doas.T, self.phases,
        )


def _gains(patterns, directions: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Gain of each arrangement's pattern on its rows of ``directions``.

    ``runs`` gives each row's arrangement, ascending; a block of one
    arrangement takes one call.
    """
    offsets = np.searchsorted(runs, np.arange(len(patterns) + 1))
    return np.concatenate([
        np.asarray(pattern.gain(directions[lo:hi]), dtype=float)
        for pattern, lo, hi in zip(patterns, offsets[:-1], offsets[1:])
    ])


def _cones(patterns):
    """Support cone of one side's patterns for a block, or None without a direction.

    They are one pattern aimed R ways; patterns that differ in ``cos_min`` raise ValueError.
    """
    if patterns[0].cone is None:
        return None
    boresights, cos_min = zip(*(pattern.cone for pattern in patterns))
    if cos_min.count(cos_min[0]) != len(cos_min):
        raise ValueError("a block's patterns on one side must share one cone threshold")
    return np.array(boresights), cos_min[0]


def _block_paths(room: Room, tx_positions, tx_patterns, rx_positions, rx_patterns,
                 radio: RadioConfig, tau_max: float, max_cells: int) -> list[PathList]:
    """Path lists of a block of ``R`` arrangements, enumerated and gated together.

    Arrangement ``r`` has its terminals at row ``r`` of the ``(R, 3)``
    position arrays and the patterns ``tx_patterns[r]`` and
    ``rx_patterns[r]``; its path list is the one :func:`enumerate_paths`
    gives for it alone.
    """
    if np.any(np.all(tx_positions == rx_positions, axis=1)):
        raise DegenerateGeometryError("transmitter and receiver coincide")
    # Enumerated first, so that a cube over the cap is refused without the warning.
    indices, positions, delays, runs = geometry.enumerate_indices(
        room, tx_positions, rx_positions, tau_max, radio.speed_of_light, max_cells,
        cones=(_cones(tx_patterns), _cones(rx_patterns)),
    )
    if radio.wavelength > 0.1 * float(np.min(room.lengths)):
        warnings.warn(
            "carrier wavelength is not small against the room dimensions; "
            "the specular mirror-source model may not apply",
            stacklevel=3,
        )
    if np.any(delays == 0.0):
        raise DegenerateGeometryError("receiver sits exactly on a mirror source")

    # A lone arrangement's receiver broadcasts over its rows.
    receivers = rx_positions if len(rx_positions) == 1 else rx_positions[runs]
    distances = delays * radio.speed_of_light
    doas = (positions - receivers) / distances[:, None]
    dods = geometry.departure_signs(indices) * doas

    # A path is in a beam where its gain is nonzero (see in_support).
    tx_gain = _gains(tx_patterns, dods, runs)
    rx_gain = _gains(rx_patterns, doas, runs)
    keep = (tx_gain > 0.0) & (rx_gain > 0.0)
    if not keep.all():
        runs, indices, delays, doas, dods = runs[keep], indices[keep], delays[keep], doas[keep], dods[keep]
        tx_gain, rx_gain = tx_gain[keep], rx_gain[keep]

    spreading = (4.0 * np.pi * delays * radio.speed_of_light / radio.wavelength) ** 2
    power = geometry.wall_gain_products(room, indices) * tx_gain * rx_gain / spreading
    phases = (-2.0 * np.pi * radio.speed_of_light * delays / radio.wavelength) % (
        2.0 * np.pi
    )
    # Rows arrive by arrangement, each arrangement's in lexicographic index
    # order, so PathList's stable sort by delay breaks ties by index.
    bounds = np.searchsorted(runs, np.arange(len(tx_patterns) + 1))
    rows = (indices, delays, dods, doas, power, phases)
    return [PathList(*(row[lo:hi] for row in rows), tau_max) for lo, hi in zip(bounds[:-1], bounds[1:])]


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
    work; of the survivors, those where both patterns' gains are positive
    (their exact ``in_support`` test) are kept. This is the one-arrangement
    case of the block that ensembles enumerate.
    """
    tx_position = np.asarray(tx_position, dtype=float).reshape(1, 3)
    rx_position = np.asarray(rx_position, dtype=float).reshape(1, 3)
    (paths,) = _block_paths(
        room, tx_position, [tx_pattern], rx_position, [rx_pattern], radio, tau_max, max_cells
    )
    return paths


def arrival_count_curve(paths: PathList, taus) -> np.ndarray:
    """Number of paths with delay at most each of ``taus`` (closed comparison)."""
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
        if not self.step > 0.0:
            raise ValueError("grid step must be positive")
        if self.count < 1:
            raise ValueError("grid needs at least one sample")

    @classmethod
    def spanning(cls, start: float, stop: float, step: float) -> "SampleGrid":
        """Samples from ``start`` to ``stop`` (inclusive, within 1e-9 steps).

        Raises :class:`ResourceLimitError` when the grid would hold more than
        :data:`MAX_GRID_POINTS` points, before anything is allocated.
        """
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise ResourceLimitError(
                f"grid holds {steps + 1:.3g} points, above the cap of {MAX_GRID_POINTS}"
            )
        return cls(start, step, int(np.floor(steps)) + 1)

    @staticmethod
    def whole_steps(start: float, stop: float, step: float) -> bool:
        """Whether ``stop - start`` is a whole number of ``step``, within 1e-9 steps.

        Exactly then the grid :meth:`spanning` builds ends at ``stop``.
        """
        steps = (stop - start) / step
        return bool(abs(steps - np.floor(steps + 1e-9)) <= 1e-9)

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


def delay_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Read-only ``np.linspace`` from ``start`` to exactly ``stop``, ``step`` apart.

    ValueError unless :meth:`SampleGrid.whole_steps`; the point cap as in :meth:`SampleGrid.spanning`.
    """
    count = SampleGrid.spanning(start, stop, step).count
    if not SampleGrid.whole_steps(start, stop, step):
        raise ValueError("stop - start must be a whole number of steps")
    grid = np.linspace(start, stop, count)
    grid.flags.writeable = False
    return grid


# Oversampling and padding of the synthesis grid relative to the pulse.
_OVERSAMPLE = 4
_PAD_PULSES = 20


def synthesis_grid(radio: RadioConfig, tau_max: float) -> SampleGrid:
    """Grid for synthesizing delays up to ``tau_max``.

    Steps are ``1/(4B)`` and the grid extends 20 pulse widths ``1/B``
    before zero and past ``tau_max``, which must span a pulse or more (else
    :class:`ConfigError`): a shorter horizon holds no delay spread.
    """
    if not radio.bandwidth * tau_max >= 1.0:
        raise ConfigError(f"horizon of {tau_max:.3g} s is shorter than one pulse, {1 / radio.bandwidth:.3g} s")
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

    def to_csv(self, path) -> None:
        write_csv(
            path, "t_seconds,re,im,abs2",
            self.times(), self.samples.real, self.samples.imag, self.abs2,
        )


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


def _taylor_order(beta: float) -> int:
    """Fewest terms Q of the lattice kernel's expansion at ``beta = pi B step``.

    The pulse ``f(x) = sin(beta x)/(beta x)`` has ``|f^(Q)| <= beta**Q/(Q+1)``,
    so truncating its Taylor series after Q terms errs by at most
    ``(beta/2)**Q / ((Q+1) Q!)`` for offsets ``|d| <= 1/2``.
    """
    order = 1
    while (beta / 2.0) ** order / ((order + 1) * math.factorial(order)) > _TAYLOR_TOLERANCE:
        order += 1
    return order


def _taylor_table(lags: np.ndarray, beta: float) -> np.ndarray:
    """Row ``q``: the coefficient ``c_q[n]`` of ``d**q`` in ``f(n - 1/2 - d)``, at each lag ``n``.

    With ``x0 = n - 1/2`` (never 0), ``f(x0 - d) * beta * (x0 - d)`` is the
    d-series of ``sin(beta x0) cos(beta d) - cos(beta x0) sin(beta d)``,
    whose term q is ``s_q beta**q / q!`` with ``s_q`` cycling through
    ``sin, -cos, -sin, cos`` of ``beta x0``. Matching terms gives
    ``c_q = (s_q beta**(q-1) / q! + c_{q-1}) / x0``.
    """
    x0 = lags - 0.5
    sin0, cos0 = np.sin(beta * x0), np.cos(beta * x0)
    table = np.empty((_taylor_order(beta), x0.shape[0]))
    previous = 0.0
    for q, row in enumerate(table):
        sine = (sin0, -cos0, -sin0, cos0)[q % 4]
        np.divide(sine * (beta ** (q - 1) / math.factorial(q)) + previous, x0, out=row)
        previous = row
    return table


@functools.lru_cache(maxsize=8)
def _kernel_spectra(nfft: int, end: int, beta: float) -> np.ndarray:
    """Real FFTs of the rows of :func:`_taylor_table` on the lags ``end - nfft .. end - 1``.

    Cached on first use: within an ensemble the grid, and with it the
    window, rarely changes.
    """
    spectra = np.fft.rfft(_taylor_table(np.arange(end - nfft, end), beta), axis=-1)
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
    # sin(a - b) = sin(a)cos(b) - cos(a)sin(b) splits the trace into
    # cos(a) P_sin - sin(a) P_cos, where P_f projects the four real rows
    # of amplitude * f(b) onto R[k, m] = 1/(b_k - a_m). Transcendentals cost
    # O(paths + samples); R, a new array per block of paths, costs one division
    # per path and sample. einsum, unlike BLAS, sums in one order at any thread count.
    scale = np.pi * radio.bandwidth
    a, sin_a, cos_a = _direct_table(radio.bandwidth, grid)
    # The split loses relative precision as a - b nears 0. Every sample but
    # a path's nearest lies at least half a step away (pi/8 in a at 4x
    # oversampling), so R skips the nearest and np.sinc evaluates it exactly.
    near = np.clip(np.rint((delays - grid.start) / grid.step), 0, grid.count - 1).astype(np.intp)
    projection = np.zeros((4, grid.count))
    for lo in range(0, delays.shape[0], _SYNTH_CHUNK):
        block = slice(lo, lo + _SYNTH_CHUNK)
        b = scale * delays[block]
        reciprocals = np.subtract(b[:, None], a)
        reciprocals[np.arange(b.shape[0]), near[block]] = np.inf
        np.reciprocal(reciprocals, out=reciprocals)
        cos_b, sin_b = amplitudes[block] * np.cos(b), amplitudes[block] * np.sin(b)
        rows = np.stack((cos_b.real, cos_b.imag, sin_b.real, sin_b.imag))
        projection += np.einsum("pk,km->pm", rows, reciprocals)
    out = np.empty(grid.count, dtype=complex)
    # Rows: real cos, imaginary cos, real sin, imaginary sin projections.
    out.real = cos_a * projection[2] - sin_a * projection[0]
    out.imag = cos_a * projection[3] - sin_a * projection[1]
    t_near = grid.start + grid.step * near
    np.add.at(out, near, amplitudes * np.sinc(radio.bandwidth * (t_near - delays)))
    return out


def _lattice_sum(amplitudes, cells, radio: RadioConfig, grid: SampleGrid) -> np.ndarray:
    # cells = (delays - start) / step = j + 1/2 + d with integer j, |d| <= 1/2,
    # in delay order. Sample m lies n - 1/2 - d steps past a delay, n = m - j,
    # so with f(n - 1/2 - d) = sum_q c_q[n] d**q (see _taylor_table) the trace
    # is sum_q (c_q * mu_q)[m], a lattice convolution of the per-cell moments
    # mu_q[j] = sum a d**q over the paths in cell j.
    count = grid.count
    beta = np.pi * radio.bandwidth * grid.step
    order = _taylor_order(beta)
    j = np.floor(cells)
    d = cells - j - 0.5
    # Cells are indexed from base = min(first cell, 0), so the kernel window
    # below depends on the grid alone for delays after its start.
    j_hi = int(j[-1])
    base = min(int(j[0]), 0)
    column = j.astype(np.intp) - base

    # Row q of the moments: each path adds a d**q, the last row's term
    # times d, at its column, in path order. The real and imaginary parts
    # are multiplied as reals: a complex-by-real product would turn -0.0
    # into +0.0.
    moments = np.zeros((order, j_hi - base + 1), dtype=complex)
    terms = amplitudes.copy()
    for q, row in enumerate(moments):
        if q:
            np.multiply(terms.real, d, out=terms.real)
            np.multiply(terms.imag, d, out=terms.imag)
        np.add.at(row, column, terms)

    # Lags m - j of samples 0 .. count-1 and cells base .. j_hi lie in the
    # window count-base-nfft .. count-base-1 when nfft >= count + j_hi - base;
    # the circular convolution then equals the linear one on its last count
    # entries. One rfft takes the moments' real and imaginary parts as real rows.
    nfft = _fft_length(count + j_hi - base)
    spectra = np.fft.rfft(np.stack((moments.real, moments.imag)), nfft)
    products = np.einsum("cqk,qk->ck", spectra, _kernel_spectra(nfft, count - base, beta))
    trace = np.fft.irfft(products, nfft)
    out = np.empty(count, dtype=complex)
    out.real, out.imag = trace[:, nfft - count :]
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

    - Direct: with ``phi_m = pi B t_m`` and ``theta_k = pi B tau_k``, the
      trace is ``cos(phi_m) P_m - sin(phi_m) Q_m``, where ``P`` and ``Q``
      project ``a_k sin(theta_k)`` and ``a_k cos(theta_k)`` onto the
      reciprocal matrix ``1/(theta_k - phi_m)``: O(paths x samples)
      divisions and products, over fixed blocks of paths. Each path's
      nearest sample, where that split would lose precision, is evaluated
      by ``np.sinc`` instead.
    - Lattice: write ``tau_k = start + s_k step`` with
      ``s_k = j_k + 1/2 + d_k``, integer ``j_k`` and ``|d_k| <= 1/2``. With
      ``beta = pi B step`` the pulse ``f(x) = sin(beta x)/(beta x)`` is
      entire, and sample ``m`` receives ``a_k f(n - 1/2 - d_k)``, where
      ``n = m - j_k``, expanded as ``a_k sum_{q<Q} c_q[n] d_k**q``. The trace
      is then ``sum_q (c_q * mu_q)[m]``: Q lattice convolutions of the
      per-cell moments ``mu_q[j] = sum a_k d_k**q`` over the paths in cell
      ``j``, done in one batch of real FFTs against cached spectra of the
      coefficient rows ``c_q``. It costs O(Q paths + Q nfft log nfft), where
      ``nfft`` covers the samples and the cells the delays occupy. Q is the
      fewest terms whose truncation error, at most
      ``(beta/2)**Q / ((Q+1) Q!)`` of the path's amplitude per sample, is
      below 1e-14: 12 on a grid oversampled 4x, 15 at 2x and 10 at 8x. The
      per-path stage is one pass per moment row over the paths in delay order.

    A cost model on the number of paths, the number of samples and the FFT
    length picks the kernel predicted to be faster. Short path lists take
    the direct kernel: up to about 110 paths on the 1121-sample grid of a
    120 ns horizon, for instance. Both kernels are deterministic and share
    no buffer between calls, so a trace depends on neither threads nor workers.
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
    # sqrt(g) exp(i phase), written as its real and imaginary parts.
    amplitudes = np.empty(n, dtype=complex)
    root = np.sqrt(paths.power_gains)
    np.multiply(root, np.cos(phases), out=amplitudes.real)
    np.multiply(root, np.sin(phases), out=amplitudes.imag)

    # The lattice kernel's FFT spans the samples and the cells from
    # min(first cell, 0) to the last (see _lattice_sum).
    cells = (paths.delays - grid.start) / grid.step
    reach = np.floor(cells[-1]) - min(np.floor(cells[0]), 0.0)
    if _lattice_is_cheaper(n, grid.count, grid.count + reach):
        out = _lattice_sum(amplitudes, cells, radio, grid)
    else:
        out = _direct_sum(amplitudes, paths.delays, radio, grid)
    return SignalTrace(grid.start, grid.step, out)


def _moments(abs2: np.ndarray, step: float, times: np.ndarray):
    """Energy, mean delay and rms spread of each row of ``|y|**2`` on ``times``.

    Trapezoidal integration along each row; a row without energy has NaN
    moments. Each row's values equal those of the row alone.
    """
    total = np.trapezoid(abs2, dx=step, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.trapezoid(abs2 * times, dx=step, axis=-1) / total
        var = np.trapezoid(abs2 * (times - mean[:, None]) ** 2, dx=step, axis=-1) / total
    return total, mean, np.sqrt(var)


def signal_moments(trace: SignalTrace) -> tuple[float, float]:
    """Instantaneous mean delay and rms delay spread of ``|y(t)|**2``.

    Trapezoidal integration on the trace grid; raises
    :class:`ZeroEnergyError` when the trace carries no energy.
    """
    total, mean, spread = _moments(trace.abs2[None], trace.step, trace.times())
    if total[0] <= 0.0:
        raise ZeroEnergyError("trace has zero energy; moments are undefined")
    return float(mean[0]), float(spread[0])
