"""Arithmetic on circles R/LZ and finite unions of open intervals.

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
    "InvalidPeriodError",
    "CircleValue",
    "CircleIntervalSet",
    "LineIntervalSet",
    "reduce",
    "complement",
    "preimage_affine_mod",
]

# Representatives this close to the period (relative) snap to 0 so that
# rounding never produces representative == period.
_SNAP_REL = 1e-15


class InvalidPeriodError(ValueError):
    """Raised when a circle is constructed with a non-positive period."""


def _reduce_scalar(x: float, period: float) -> float:
    r = x - period * math.floor(x / period)
    if r < 0.0:
        # x / period can underflow to -0.0 for denormal x, leaving a
        # negative remainder behind.
        r += period
    if r >= period or period - r <= _SNAP_REL * period:
        r = 0.0
    return r


@dataclass(frozen=True)
class CircleValue:
    """A point on the circle R/(period Z), stored by its representative in [0, period)."""

    representative: float
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise InvalidPeriodError(f"period must be positive, got {self.period}")
        object.__setattr__(
            self, "representative", _reduce_scalar(self.representative, self.period)
        )


def reduce(x: float, period: float) -> CircleValue:
    """Reduce a real number modulo the period, result in [0, period)."""
    return CircleValue(x, period)


def circle_distance(x, y, period):
    """Shortest distance on R/(period Z) between x and y (numpy-friendly)."""
    d = np.mod(np.asarray(x) - y, period)
    return np.minimum(d, period - d)


def _normalize_arcs(arcs, period):
    """Sort, reduce, and merge arcs; adjacent and overlapping arcs merge."""
    segs = []
    for start, length in arcs:
        if length <= 0:
            continue
        if length > period:
            raise ValueError("arc length exceeds the period")
        s = _reduce_scalar(start, period)
        segs.append((s, float(length)))
    if not segs:
        return ()
    if len(segs) == 1:
        # Keep single arcs verbatim (preserves exact lengths, including
        # full-length arcs representing the circle minus a point).
        return (segs[0],)
    # Split wrapped arcs at the period so we can merge on a line.
    flat = []
    for s, length in segs:
        e = s + length
        if e > period:
            flat.append((s, period))
            flat.append((0.0, e - period))
        else:
            flat.append((s, e))
    flat.sort()
    merged = [list(flat[0])]
    for s, e in flat[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    # Re-join across the 0 == period seam.
    if len(merged) > 1 and merged[0][0] == 0.0 and merged[-1][1] == period:
        s0, e0 = merged.pop(0)
        merged[-1][1] += e0
    out = tuple((s, e - s) for s, e in merged)
    if sum(length for _, length in out) > period * (1 + 1e-12):
        raise ValueError("arcs cover more than the full circle")
    return out


@dataclass(frozen=True)
class CircleIntervalSet:
    """A finite union of disjoint open arcs on R/(period Z).

    Arcs are (start, length) with start in [0, period) and length in
    (0, period]; at most one arc wraps past the period.  A single arc of
    full length is the circle minus its start point.
    """

    period: float
    arcs: tuple

    def __post_init__(self):
        if not self.period > 0:
            raise InvalidPeriodError(f"period must be positive, got {self.period}")

    @classmethod
    def from_arcs(cls, arcs, period: float) -> "CircleIntervalSet":
        if not period > 0:
            raise InvalidPeriodError(f"period must be positive, got {period}")
        return cls(period=period, arcs=_normalize_arcs(arcs, period))

    @classmethod
    def empty(cls, period: float) -> "CircleIntervalSet":
        return cls.from_arcs([], period)

    @property
    def total_length(self) -> float:
        return float(sum(length for _, length in self.arcs))

    def contains(self, x: float, edge_tol: float = 0.0) -> bool:
        for start, length in self.arcs:
            off = _reduce_scalar(x - start, self.period)
            if edge_tol < off < length - edge_tol:
                return True
        return False

    def contains_many(self, xs, edge_tol: float = 0.0):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=bool)
        for start, length in self.arcs:
            off = np.mod(xs - start, self.period)
            out |= (off > edge_tol) & (off < length - edge_tol)
        return out

    def complement(self) -> "CircleIntervalSet":
        return complement(self)

    def line_pieces(self):
        """The arcs unrolled into open intervals inside [0, period]."""
        pieces = []
        for s, length in self.arcs:
            e = s + length
            if e <= self.period:
                pieces.append((s, e))
            else:
                pieces.append((s, self.period))
                # the wrapped piece cannot analytically reach past the
                # arc start; rounding in s + length may say otherwise
                pieces.append((0.0, min(e - self.period, s)))
        pieces.sort()
        return pieces


def complement(s: CircleIntervalSet) -> CircleIntervalSet:
    """Interior of the set complement on the circle.

    The complement of the empty set is returned as the full-length arc
    starting at 0 (the circle minus a boundary point, same measure).
    """
    if not s.arcs:
        return CircleIntervalSet(period=s.period, arcs=((0.0, s.period),))
    gaps = []
    arcs = s.arcs
    for i, (start, length) in enumerate(arcs):
        end = _reduce_scalar(start + length, s.period)
        nxt = arcs[(i + 1) % len(arcs)][0]
        gap = _reduce_scalar(nxt - end, s.period)
        if len(arcs) == 1:
            gap = s.period - length
        if gap > 0:
            gaps.append((end, gap))
    return CircleIntervalSet.from_arcs(gaps, s.period)


def _normalize_intervals(intervals):
    # Merge overlapping intervals only; intervals that merely touch stay
    # separate (the shared endpoint is not in the open union).
    ivs = sorted((float(a), float(b)) for a, b in intervals if b > a)
    if not ivs:
        return ()
    merged = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class LineIntervalSet:
    """A finite union of disjoint open intervals on the real line."""

    intervals: tuple

    @classmethod
    def from_intervals(cls, intervals) -> "LineIntervalSet":
        return cls(intervals=_normalize_intervals(intervals))

    @classmethod
    def empty(cls) -> "LineIntervalSet":
        return cls(intervals=())

    @property
    def total_length(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, x: float, edge_tol: float = 0.0) -> bool:
        return any(a + edge_tol < x < b - edge_tol for a, b in self.intervals)

    def contains_many(self, xs, edge_tol: float = 0.0):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (xs > a + edge_tol) & (xs < b - edge_tol)
        return out


# Fragments shorter than this are rounding artifacts of the wrap point
# landing on an endpoint; they are dropped.
_FRAGMENT_TOL = 1e-15


def preimage_affine_mod(
    target: CircleValue,
    scale: float,
    offset_range=(0.0, 1.0),
    clip=(0.0, 1.0),
) -> LineIntervalSet:
    """Solve {x in clip : exists t in offset_range with scale*x + t = target (mod period)}.

    The solution set of scale*x + t = target mod scale, over the open
    offset range, is an arc of length (hi-lo)/scale on R/Z; clipping to
    an open interval of the line splits it into at most two pieces.
    """
    c = float(scale)
    if not c >= 1:
        raise ValueError(f"scale must be >= 1, got {c}")
    if target.period != c:
        raise ValueError("target period must equal the scale")
    lo, hi = offset_range
    if not (0 <= lo < hi):
        raise ValueError("offset_range must be a nondegenerate interval")
    t = target.representative
    # scale*x must lie in (t - hi, t - lo) mod c, so x lies in an arc of
    # length (hi - lo)/c on R/Z.
    arc = CircleIntervalSet.from_arcs([((t - hi) / c, (hi - lo) / c)], 1.0)
    a, b = clip
    out = []
    for s, e in arc.line_pieces():
        s2, e2 = max(s, a), min(e, b)
        if e2 - s2 > _FRAGMENT_TOL:
            out.append((s2, e2))
    return LineIntervalSet.from_intervals(out)
