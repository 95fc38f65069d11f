import math

import numpy as np

from roomchan.errors import DegenerateGeometryError
from roomchan.geometry import departure_signs, enumerate_indices


def image_position(room, point, k):
    """Image of ``point`` with reflection index ``k``, by plain arithmetic.

    Per axis the image sits at ``(1 - 2q) * x + 2 m L`` with ``q = k mod 2``
    and ``m = ceil(k / 2)``: the image construction of Allen & Berkley (1979).
    """
    return [
        (1 - 2 * (k_i % 2)) * x + 2 * math.ceil(k_i / 2) * length
        for k_i, x, length in zip(k, point, room.lengths)
    ]


def brute_force_indices(room, source, receiver, tau_max, speed, margin=4):
    """Independent enumeration oracle: plain loops over a generous cube."""
    radius = speed * tau_max
    bounds = [int(math.ceil(radius / L)) + 2 + margin for L in room.lengths]
    found = {}
    for kx in range(-bounds[0], bounds[0] + 1):
        for ky in range(-bounds[1], bounds[1] + 1):
            for kz in range(-bounds[2], bounds[2] + 1):
                dist_sq = 0.0
                for pos, r in zip(image_position(room, source, (kx, ky, kz)), receiver):
                    dist_sq += (pos - r) ** 2
                if math.sqrt(dist_sq) <= radius:
                    found[(kx, ky, kz)] = math.sqrt(dist_sq) / speed
    return found


def receiver_image_index(k):
    """Index of the receiver image that unfolds path ``k`` from the source's side.

    Followed from the receiver, the path meets each axis's walls in reverse
    order. An odd count starts and ends on the same wall, so its index stays;
    an even count starts and ends on opposite walls, so its index flips sign.
    """
    return tuple(k_i if k_i % 2 else -k_i for k_i in k)


def receiver_image_departure(room, source, receiver, k):
    """Departure direction of path ``k``: from the source toward the receiver image."""
    image = image_position(room, receiver, receiver_image_index(k))
    diff = [a - b for a, b in zip(image, source)]
    norm = math.sqrt(sum(d * d for d in diff))
    return [d / norm for d in diff]


def wall_crossings(room, source, receiver, k):
    """Hits of path ``k`` on each wall, counted along the unfolded ray.

    The straight segment from the receiver to the source image crosses the
    planes ``x = m L`` that lie strictly between them; even ``m`` are images
    of the wall through the origin, odd ``m`` of the far wall. Returns six
    counts in wall order (near and far wall of x, then y, then z).
    """
    counts = []
    for image, r, length in zip(image_position(room, source, k), receiver, room.lengths):
        lo, hi = sorted((image, r))
        planes = range(math.floor(lo / length) + 1, math.ceil(hi / length))
        near = sum(1 for m in planes if m % 2 == 0)
        counts += [near, len(planes) - near]
    return tuple(counts)


def hand_gated_paths(room, tx, tx_pattern, rx, rx_pattern, speed, tau_max):
    """Pruning-free reference for ``enumerate_paths``: indices, delays, dods, doas.

    Enumerates every image within the horizon without cones, gates each path
    with the patterns' exact ``in_support`` and sorts by delay, then index.
    Raises :class:`DegenerateGeometryError` for a zero-delay image.
    """
    rx = np.asarray(rx, dtype=float)
    indices, positions, delays, _ = enumerate_indices(room, tx, rx, tau_max, speed)
    if np.any(delays == 0.0):
        raise DegenerateGeometryError("zero-delay image")
    doas = (positions - rx) / (delays * speed)[:, None]
    dods = departure_signs(indices) * doas
    keep = tx_pattern.in_support(dods) & rx_pattern.in_support(doas)
    indices, delays, dods, doas = indices[keep], delays[keep], dods[keep], doas[keep]
    order = np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0], delays))
    return indices[order], delays[order], dods[order], doas[order]
