"""Directional antenna power-gain patterns and uniform random placement.

Patterns are lossless: the gain integrates to ``4*pi`` over the sphere. The
beam coverage fraction is the solid angle of nonzero gain divided by ``4*pi``
and equals the probability that a uniformly random direction lies in the
beam. A pattern is its ``beam_fraction``, ``gain``, ``cone`` and ``aimed``;
subclassing :class:`AntennaPattern` adds one without touching callers. A
pattern is directive exactly when it has a cone, and ensembles re-aim it on
every run. A cap of coverage 1 equals an isotropic antenna.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Room


def unit_boresight(vector) -> np.ndarray:
    """``v / sqrt(sum(v*v))`` of a 3-vector ``v``; raises ValueError unless its norm is positive and finite."""
    v = np.asarray(vector, dtype=float)
    if v.shape != (3,):
        raise ValueError("boresight must be a 3-vector")
    x, y, z = v.tolist()  # Python floats add in numpy's order and overflow to inf without a warning
    norm = math.sqrt(x * x + y * y + z * z)
    if not 0.0 < norm < math.inf:
        raise ValueError("boresight must have a positive, finite norm")
    return v / norm


def _dot_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a . b`` over the last axis of ``a`` against the 3-vector ``b``.

    Column by column and summed left to right: the same rounding as
    ``(a * b).sum(axis=-1)``, whose three-element reduction adds in that
    order, without its (N, 3) temporary or per-row reduction.
    """
    return a[..., 0] * b[0] + a[..., 1] * b[1] + a[..., 2] * b[2]


class AntennaPattern:
    """Directional power gain with a declared beam coverage fraction."""

    @property
    def beam_fraction(self) -> float:
        raise NotImplementedError

    def gain(self, direction):
        """Power gain per solid angle toward unit vector(s) ``direction``."""
        raise NotImplementedError

    def in_support(self, direction):
        """Whether ``direction`` lies in the beam (gain is nonzero there)."""
        return np.asarray(self.gain(direction)) > 0.0

    @property
    def cone(self) -> tuple[np.ndarray, float] | None:
        """``(boresight, cos_min)`` of a cone holding the support, or None.

        :func:`~roomchan.geometry.enumerate_indices` drops image cells whose
        direction lies outside the cone. None marks a pattern without a
        direction; a directive pattern that cannot prune declares the
        trivial cone ``(boresight, -1.0)``. :meth:`aimed` turns the cone and
        keeps ``cos_min``, so the patterns an ensemble aims share one
        threshold.
        """
        return None

    def aimed(self, boresight) -> "AntennaPattern":
        """Same pattern pointed along ``boresight``; one without a cone stays as it is."""
        return self


@dataclass(frozen=True)
class Isotropic(AntennaPattern):
    """Unit gain in every direction."""

    @property
    def beam_fraction(self) -> float:
        return 1.0

    def gain(self, direction):
        direction = np.asarray(direction, dtype=float)
        return np.ones(direction.shape[:-1])


@dataclass(frozen=True, eq=False)
class SphericalCap(AntennaPattern):
    """Constant gain on a spherical cap around a boresight axis.

    The cap covers a fraction ``fraction`` of the sphere, giving a gain of
    ``1 / fraction`` inside and zero outside. Membership uses the closed
    threshold ``direction . boresight >= 1 - 2 * fraction``; the half-beam
    width is ``arccos(1 - 2 * fraction)``. A cap of fraction 1 holds every
    direction, also those whose dot product with the boresight rounds below
    -1. Fractions whose threshold rounds to 1 are rejected.
    """

    fraction: float
    boresight: np.ndarray = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("beam coverage fraction must lie in (0, 1]")
        if self.threshold == 1.0:  # no representable width; 1/fraction overflows path powers
            raise ValueError(f"beam coverage fraction {self.fraction!r} is too small: 1 - 2 * fraction rounds to 1")
        object.__setattr__(self, "boresight", unit_boresight(self.boresight))

    @property
    def beam_fraction(self) -> float:
        return self.fraction

    @property
    def threshold(self) -> float:
        return 1.0 - 2.0 * self.fraction

    @property
    def cone(self) -> tuple[np.ndarray, float]:
        return self.boresight, self.threshold

    def aimed(self, boresight) -> "SphericalCap":
        """Same cap pointed along a new boresight."""
        return SphericalCap(self.fraction, boresight)

    def in_support(self, direction):
        direction = np.asarray(direction, dtype=float)
        return (_dot_last(direction, self.boresight) >= self.threshold) | (self.fraction == 1.0)

    def gain(self, direction):
        return self.in_support(direction) / self.fraction


def sample_orientation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit vector: normalized triple of standard normals."""
    while True:
        v = rng.standard_normal(3)
        norm = float(np.sqrt(np.sum(v * v)))
        if norm > 1e-12:
            return v / norm


def sample_position(rng: np.random.Generator, room: Room) -> np.ndarray:
    """Uniform random position in the room, per-axis on ``[0, L)``.

    Draws the same numbers as ``rng.uniform(0.0, room.lengths)`` and leaves
    the stream in the same state, at a fraction of the per-call cost.
    """
    return rng.random(3) * room.lengths
