import math

import numpy as np

from roomchan.errors import DegenerateGeometryError
from roomchan.geometry import departure_from_arrival, enumerate_indices


def brute_force_indices(room, source, receiver, tau_max, speed, margin=4):
    """Independent enumeration oracle: plain loops over a generous cube."""
    radius = speed * tau_max
    bounds = [int(math.ceil(radius / L)) + 2 + margin for L in room.lengths]
    found = {}
    for kx in range(-bounds[0], bounds[0] + 1):
        for ky in range(-bounds[1], bounds[1] + 1):
            for kz in range(-bounds[2], bounds[2] + 1):
                dist_sq = 0.0
                for axis, k in enumerate((kx, ky, kz)):
                    pos = math.ceil(k / 2) * 2 * room.lengths[axis] + (-1) ** k * source[axis]
                    dist_sq += (pos - receiver[axis]) ** 2
                if math.sqrt(dist_sq) <= radius:
                    found[(kx, ky, kz)] = math.sqrt(dist_sq) / speed
    return found


def hand_gated_paths(room, tx, tx_pattern, rx, rx_pattern, speed, tau_max):
    """Pruning-free reference for ``enumerate_paths``: indices, delays, dods, doas.

    Enumerates every image within the horizon without cones, gates each path
    with the patterns' exact ``in_support`` and sorts by delay, then index.
    Raises :class:`DegenerateGeometryError` for a zero-delay image.
    """
    rx = np.asarray(rx, dtype=float)
    indices, positions, delays = enumerate_indices(room, tx, rx, tau_max, speed)
    if np.any(delays == 0.0):
        raise DegenerateGeometryError("zero-delay image")
    doas = (positions - rx) / (delays * speed)[:, None]
    dods = departure_from_arrival(indices, doas)
    keep = tx_pattern.in_support(dods) & rx_pattern.in_support(doas)
    indices, delays, dods, doas = indices[keep], delays[keep], dods[keep], doas[keep]
    order = np.lexsort((indices[:, 2], indices[:, 1], indices[:, 0], delays))
    return indices[order], delays[order], dods[order], doas[order]
