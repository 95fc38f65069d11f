"""Mirror-source geometry for a rectangular room.

The room spans ``[0, Lx) x [0, Ly) x [0, Lz)`` in a corner-anchored Cartesian
frame. Reflecting the transmitter repeatedly in the six walls tiles space with
image ("mirror") sources, one per ``Lx x Ly x Lz`` cell, indexed by a signed
triplet ``k = (kx, ky, kz)`` of per-axis reflection counts. Index ``(0, 0, 0)``
is the direct path.

Walls are paired per axis: wall 1 is the plane ``x = 0``, wall 2 is ``x = Lx``,
walls 3/4 are the analogous ``y`` planes and walls 5/6 the ``z`` planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceLimitError

#: The model's domain: every SI input lies in this range. There every closed-form
#: scale lies within about 1e+-180, so no formula guards its own result.
MAGNITUDES = (1e-30, 1e30)

#: Default cap on candidate index cells scanned by :func:`enumerate_indices`.
DEFAULT_MAX_CELLS = 20_000_000

# Slack of the cone test in enumerate_indices, relative to the horizon radius
# plus the room's side lengths; see the notes there.
_CONE_SLACK = 1e-9


def check_magnitude(name: str, value, bounds=MAGNITUDES) -> None:
    """Raise :class:`ConfigError` unless ``bounds[0] <= value <= bounds[1]``."""
    if not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"{name} must lie in [{bounds[0]:.3g}, {bounds[1]:.3g}], got {value:.3g}")


@dataclass(frozen=True)
class Room:
    """Rectangular room with per-wall power reflectances.

    Parameters
    ----------
    lengths : array_like
        Side lengths ``(Lx, Ly, Lz)`` in meters, each in :data:`MAGNITUDES`.
    wall_gains : float or array_like
        Power reflectance of the six walls, each in ``[0, 1]``, ordered
        ``(x=0, x=Lx, y=0, y=Ly, z=0, z=Lz)``. A scalar applies to all walls.
    """

    lengths: np.ndarray
    wall_gains: np.ndarray

    def __post_init__(self) -> None:
        # Read-only copies: neither the caller's arrays nor a write in place can move the room out of its domain.
        lengths = np.array(self.lengths, dtype=float)
        if lengths.shape != (3,):
            raise ValueError("room lengths must be three values")
        for length in lengths:
            check_magnitude("room lengths", length)
        gains = np.array(self.wall_gains, dtype=float)
        if gains.ndim == 0:
            gains = np.full(6, float(gains))
        if gains.shape != (6,):
            raise ValueError("wall_gains must be a scalar or six values")
        if not np.all((gains >= 0.0) & (gains <= 1.0)):
            raise ValueError("wall gains must lie in [0, 1]")
        lengths.flags.writeable = gains.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "wall_gains", gains)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def surface_area(self) -> float:
        lx, ly, lz = self.lengths
        return float(2.0 * (lx * ly + lx * lz + ly * lz))

    @property
    def diagonal(self) -> float:
        return float(np.sqrt(np.sum(self.lengths**2)))

    def contains(self, position) -> bool:
        p = np.asarray(position, dtype=float)
        return bool((p >= 0.0).all() and (p < self.lengths).all())


def _axis_image_positions(length, coordinate, k_values: np.ndarray) -> np.ndarray:
    """Per-axis image coordinates ``ceil(k/2) * 2L + (-1)**k * coordinate``.

    ``k = 0`` returns ``coordinate`` unchanged; broadcasts over its arguments.
    """
    offsets = ((k_values + 1) // 2) * 2.0 * length
    signs = 1.0 - 2.0 * (k_values % 2)
    return offsets + signs * coordinate


def departure_signs(k) -> np.ndarray:
    """Per-axis factors ``2*(k mod 2) - 1`` turning arrival into departure.

    Folding the straight mirror-space ray back into the room flips each axis
    once per reflection, so per axis ``dod_i = -(-1)**k_i * doa_i``. Takes
    index arrays of any shape; ``k & 1`` is the parity of negative ``k``
    too, in two's complement.
    """
    return 2.0 * (np.asarray(k, dtype=np.int64) & 1) - 1.0


def _wall_hits(k) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis hits on the near wall, ``|floor(k/2)|``, and the far wall, ``|ceil(k/2)|``."""
    k = np.asarray(k, dtype=np.int64)
    return np.abs(k // 2), np.abs((k + 1) // 2)


def wall_gain_products(room: Room, indices) -> np.ndarray:
    """Power gain of the wall reflections of each row of an ``(N, 3)`` index array.

    Product of per-wall reflectances raised to the interaction counts; for
    identical walls with gain ``g`` this equals ``g ** (|kx|+|ky|+|kz|)``.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
    # Row w of the tables is wall w's factor at each k in [-reach, reach]:
    # its gain raised to the hits on the near (even w) or far (odd w) wall.
    reach = int(np.abs(indices).max(initial=0))
    k = np.arange(-reach, reach + 1, dtype=np.int64)
    hits = np.stack(_wall_hits(k))
    powers = room.wall_gains[:, None] ** np.arange(hits.max() + 1)
    tables = powers[np.arange(6)[:, None], hits[[0, 1, 0, 1, 0, 1]]]
    # Factors multiply in wall order: near and far wall of x, then y, then z.
    columns = indices + reach
    out = tables[0][columns[:, 0]] * tables[1][columns[:, 0]]
    for wall in range(2, 6):
        out *= tables[wall][columns[:, wall // 2]]
    return out


def index_bounds(room: Room, tau_max: float, speed: float, max_cells: int) -> tuple[np.ndarray, int]:
    """Per-axis index bound ``ceil(speed * tau_max / L) + 2`` and the cells of its cube, at most ``max_cells``.

    The cube is sized in floating point, where it cannot wrap, and one above
    the cap raises :class:`ResourceLimitError` before any integer is formed.
    """
    with np.errstate(over="ignore"):
        bounds = np.ceil(speed * tau_max / room.lengths) + 2.0
        cells = float(np.prod(2.0 * bounds + 1.0))
    if not cells <= max_cells:
        raise ResourceLimitError(f"index cube holds {cells:.6g} cells, above the cap of {max_cells}")
    return bounds.astype(np.int64), int(cells)


def _column_reaches(projection, plane, b_z, cos_min, r2, slack) -> np.ndarray:
    """Whether a cone ``projection >= cos_min * d - slack`` can hold a cell of each column.

    Along a column at in-plane distance ``rho = sqrt(plane)``, whose cells lie
    at heights ``|z| <= h = sqrt(r2 - plane)``, the cosine to an axis of
    in-plane projection ``p`` and height ``b_z >= 0`` is
    ``(p + b_z*z) / sqrt(plane + z**2)``. It never exceeds
    ``sqrt(p**2 + b_z**2 * plane) / rho``, its value at ``z = b_z*plane/p``;
    when that point lies off the segment, it peaks at ``z = h``. The segment
    is symmetric, so ``-b_z`` peaks alike: a transmitter column's two kz
    parities share the bound. As ``d >= rho``, a kept cell's cosine is at
    least ``cos_min - slack/rho``; a second ``slack`` and an ``h`` widened by
    ``1e-14 * r2`` cover the rounding of both tests. Columns at ``rho = 0`` stay.
    """
    h2 = np.maximum(r2 - plane, 0.0) + 1e-14 * r2
    h = np.sqrt(h2)
    rho = np.sqrt(plane)
    limit = cos_min * rho - 2.0 * slack
    return np.where(
        b_z * plane <= projection * h,
        np.sqrt(projection * projection + b_z * b_z * plane) >= limit,
        rho * (projection + b_z * h) >= limit * np.sqrt(plane + h2),
    )


def enumerate_indices(
    room: Room,
    source,
    receiver,
    tau_max: float,
    speed: float,
    max_cells: int = DEFAULT_MAX_CELLS,
    *,
    cones=(None, None),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mirror-source indices whose path delay is at most ``tau_max``.

    Parameters
    ----------
    room : Room
    source, receiver : array_like
        Positions inside the room: one pair of 3-vectors, or a block of
        ``R`` arrangements as two ``(R, 3)`` arrays.
    tau_max : float
        Delay horizon in seconds; the comparison is closed (``<=``).
    speed : float
        Propagation speed in m/s.
    max_cells : int
        Cap on the index cube scanned per arrangement, checked by
        :func:`index_bounds`.
    cones : pair
        Support cones of the source and receiver beams, each
        ``(unit boresight, cos_min)`` or None (see
        :attr:`~roomchan.antenna.AntennaPattern.cone`); for a block, the
        boresights are an ``(R, 3)`` array and ``cos_min`` one scalar that
        every arrangement of the side shares. Images whose departure or
        arrival direction lies clearly outside its cone are dropped; every
        image inside both cones is kept.

    Returns
    -------
    indices : (N, 3) int64 array
        Reflection triplets in lexicographic order.
    positions : (N, 3) float array
        Mirror-source positions.
    delays : (N,) float array
        Path delays in seconds.
    runs : (N,) intp array
        The arrangement of each row (all 0 for one pair). Rows come in
        arrangement order, each arrangement's in lexicographic index order,
        and each row equals the one a call for its arrangement alone gives.

    Notes
    -----
    A per-axis index bound of ``ceil(speed * tau_max / L) + 2`` covers every
    image within the horizon: axis images satisfy ``|position| >= (|k|-1)*L``,
    so any admissible index obeys ``|k| <= speed*tau_max/L + 2``.

    With ``o`` the image position relative to the receiver and ``d = |o|``,
    the arrival direction is ``o/d`` and the departure direction
    ``departure_signs(k) * o/d``. Both projections of ``o`` onto a boresight
    are outer sums of per-axis terms over the index cube, like ``d**2``. Only
    the ``(kx, ky)`` columns whose ``x**2 + y**2`` lies within the horizon
    can hold images in it, and of those, for each cone narrower than a
    hemisphere (``cos_min > 0``), only the columns whose segment inside the
    horizon ball the cone reaches; the column bound (``_column_reaches``)
    drops no column that holds a cell the cone test keeps. Wider cones seldom
    miss a whole column and take no column bound. The horizon test and the
    first cone test ``projection >= cos_min * d - slack`` run on the cells of
    the kept columns, and the second cone test on the cells the first kept,
    before any per-image array is built, so the per-image work scales with
    the cones' coverage fractions.
    The slack is ``1e-9 * (speed*tau_max + Lx + Ly + Lz)`` metres.
    The test differs from the exact per-path test, which recomputes the
    direction from the image position, by at most about ``15 * 2**-53`` of
    that sum in rounding, so an image inside a cone is never dropped.

    A block tests the columns of all its arrangements as one array, from
    per-arrangement axis tables; every value is the same elementwise
    arithmetic as for one arrangement, so the rows do not depend on the
    block.
    """
    source = np.asarray(source, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    sources, receivers = source.reshape(-1, 3), receiver.reshape(-1, 3)
    if not tau_max >= 0.0:
        raise ValueError("tau_max must be non-negative")
    if not speed > 0.0:
        raise ValueError("propagation speed must be positive")
    if not room.contains(sources) or not room.contains(receivers):
        raise ValueError("source and receiver must lie inside the room")

    radius = speed * tau_max
    bounds, _ = index_bounds(room, tau_max, speed, max_cells)

    # Per-axis image offsets from each receiver on one shared index range;
    # row i is read at |k| <= bounds[i].
    reach = int(bounds.max())
    k = np.arange(-reach, reach + 1, dtype=np.int64)
    table = (
        _axis_image_positions(room.lengths[:, None], sources[:, :, None], k)
        - receivers[:, :, None]
    )
    rows = [slice(reach - b, reach + b + 1) for b in bounds]

    def per_axis(values):
        return [values[:, i, rows[i]] for i in range(3)]

    def column_rows(values):
        # Each column's row of a per-arrangement table; one arrangement's broadcasts.
        return values if len(values) == 1 else values[run]

    r2 = radius * radius
    # Only the (arrangement, kx, ky) columns with x**2 + y**2 in the horizon
    # ball, and in reach of each cone with cos_min > 0 (a wider one seldom
    # misses a whole column), can hold kept cells. Their cells are tested as
    # one (column, kz) array, in C order: by arrangement, then lexicographically.
    x, y, z2 = per_axis(table**2)
    plane = x[:, :, None] + y[:, None, :]
    within = plane <= r2
    slack = _CONE_SLACK * (radius + float(np.sum(room.lengths)))
    tests = []
    for cone, signs in zip(cones, (departure_signs(k), 1.0)):
        if cone is not None:
            boresight, cos_min = cone
            axis = np.reshape(boresight, (-1, 3, 1))
            x, y, z = per_axis(signs * table * axis)
            projection = x[:, :, None] + y[:, None, :]
            if cos_min > 0.0:
                within &= _column_reaches(projection, plane, np.abs(axis[:, 2:]), cos_min, r2, slack)
            tests.append((projection, z, cos_min))
    columns = np.flatnonzero(within)
    nx, ny, nz = plane.shape[1], plane.shape[2], z2.shape[1]
    run_kx, ky = np.divmod(columns, ny)
    run, kx = np.divmod(run_kx, nx)
    dist = plane.ravel()[columns][:, None] + column_rows(z2)
    inside = dist <= r2
    np.sqrt(dist, out=dist)
    tests = [(projection.ravel()[columns], z, cos_min) for projection, z, cos_min in tests]

    # The first cone test runs on every cell of the columns, the second only
    # on the cells the first kept: after a narrow first cone few remain, and
    # gathering those costs less than a second pass over every cell.
    for projection, z, cos_min in tests[:1]:
        inside &= projection[:, None] + column_rows(z) >= cos_min * dist - slack
    cells = np.flatnonzero(inside)
    column, kz = np.divmod(cells, nz)
    dist = dist.ravel()[cells]
    for projection, z, cos_min in tests[1:]:
        keep = projection[column] + z[run[column], kz] >= cos_min * dist - slack
        column, kz, dist = column[keep], kz[keep], dist[keep]

    x, y, z = per_axis(table + receivers[:, :, None])
    x, y = x[run, kx], y[run, ky]  # image coordinates of each column
    run, kx, ky = run[column], kx[column], ky[column]
    indices = np.stack((kx, ky, kz), axis=1) - bounds[None, :]
    positions = np.stack((x[column], y[column], z.ravel()[run * nz + kz]), axis=1)
    delays = dist / speed
    return indices, positions, delays, run
