"""Reduction modulo a period, finite unions of open intervals on the
line, and the one preimage the sections need: the heights W of a
z-section.

Everything here stores *open* intervals: membership at an endpoint is
always false.  This matches the open cubes and punctured squares the
rest of the package works with, and measure statements do not care
about boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LineIntervalSet",
    "reduce",
    "preimage_affine_mod",
]

# Representatives this close to the period (relative) snap to 0 so that
# rounding never produces representative == period.
_SNAP_REL = 1e-15


def reduce(x: float, period: float) -> float:
    """The representative of x on the circle R/(period Z), in [0, period)."""
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    r = x - period * math.floor(x / period)
    if r < 0.0:
        # x / period can underflow to -0.0 for denormal x, leaving a
        # negative remainder behind.
        r += period
    if r >= period or period - r <= _SNAP_REL * period:
        r = 0.0
    return r


def circle_distance(x, y):
    """Shortest distance on R/Z between x and y (numpy-friendly).  The
    difference is reduced mod 1 as d − floor(d), bit-identical to
    np.mod(d, 1.0)."""
    d = np.asarray(x) - y
    d -= np.floor(d)
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class LineIntervalSet:
    """A finite union of disjoint open intervals on the real line, sorted
    (intervals that touch stay separate: the shared endpoint is not in
    the open union)."""

    intervals: tuple

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (xs > a) & (xs < b)
        return out


# A wrapped arc's piece this short is a rounding artifact of the wrap point
# landing on an endpoint, and is dropped; an unwrapped arc is kept at any c.
_FRAGMENT_TOL = 1e-15


def preimage_affine_mod(target: float, scale: float) -> LineIntervalSet:
    """Solve {x in (0, 1) : exists t in (0, 1) with scale*x + t = target (mod scale)}.

    scale*x must lie in (target - 1, target) mod scale, so x lies on the
    arc of R/Z from s = (target - 1)/scale mod 1 to e = s + 1/scale.
    Unrolled into (0, 1) that is (s, e) when e <= 1, whatever its length,
    else the pieces of (0, e - 1) and (s, 1) longer than _FRAGMENT_TOL.
    """
    c = float(scale)
    if not c >= 1:
        raise ValueError(f"scale must be >= 1, got {c}")
    s = reduce((float(target) - 1.0) / c, 1.0)
    e = s + 1.0 / c
    if e <= 1.0:
        return LineIntervalSet(intervals=((s, e),))
    # the wrapped piece cannot analytically reach past the arc start;
    # rounding in s + 1/c may say otherwise
    pieces = [(0.0, min(e - 1.0, s)), (s, 1.0)]
    return LineIntervalSet(intervals=tuple((a, b) for a, b in pieces if b - a > _FRAGMENT_TOL))
