"""Raster verification of section topology: connected complements and
bounded hulls.

The complement of a section is taken in the whole plane, so every raster
carries an explicit free margin ring around its box.  Occupancy uses
cell-center membership; the zero-width radial slit, and every annulus
of heights between two intervals of a ψ section's W that is thinner
than two cells (a touching height is one of width 0), are kept open by
freeing every closed cell they meet.  That cover is 4-connected, so the
complement corridor survives discretization at any resolution, and
nothing is sampled.

A φ section is every angle but the slit's at the heights in W, so a φ
raster reads only heights, from its 1-D axis of cell centres, and the
slit's cover carries the slit; it is built as row runs
(`rasterize_section`), and so are the synthetic fixtures.  A ψ raster's
one (N, N) array is the angle q̄ of its cells, built once per N, not per
z (`psi_section_cells`).  Per z, a ψ cell is occupied when its angle lies
in the arc of its height p = 1 − π|y|² (`sections._arc_members`), which
only heights in `sections._arc_heights` can pass, an annulus or two: the
kernel runs on boxes of whole row blocks, one or two column ranges each
(`_annulus_boxes`), each reading p from the 1-D axis.  No other N² array
is made until a reader asks for the grid (`Raster.occupancy`).
Complement components join overlapping free row runs of adjacent rows,
the gaps between a raster's occupied runs (those of a dense grid from
`_runs`); the hull adds the runs not joined to the free margin ring.
Every raster, the synthetic fixtures too, starts from `_phi_blank`,
which rejects N < 64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import _BLOCK_ELEMENTS, DISC_RADIUS, ChiMap, EmbeddingConfig, disc_to_cylinder
from .maps import make_lambda, psi_config
from .sections import _HEIGHT_SLACK, _arc_heights, _arc_members, resolve_section, z_grid

__all__ = [
    "Raster",
    "psi_section_cells",
    "rasterize_section",
    "rasterize_psi_section",
    "complement_components",
    "check_complement_connected",
    "bounded_hull",
    "check_hull_bound",
    "annulus_fixture",
    "annulus_with_slit_fixture",
    "disk_fixture",
]

# Free cells between the disc of a ψ raster and the edge of its box, on
# each side.
_PSI_MARGIN_CELLS = 2

# A gap of W whose radial width is under this many cells is freed as a
# band.  The centres inside a band hold a 4-connected ring only from
# about √2 cells wide, where it runs diagonally; 2 leaves room for its
# curvature.
_THIN_GAP_CELLS = 2.0

# A cell within this many cell widths of a freed segment is freed too.
_TOUCH_TOL = 1e-9


class Raster:
    """A binary occupancy grid over the square box [x0, x0+side]^2.

    occupancy[i, j] covers the cell with center
    (x0 + (i+0.5)*side/n, x0 + (j+0.5)*side/n).  A raster holds the grid
    or its `row_runs`: (rows, starts, ends) of the maximal runs of
    occupied cells, ends exclusive, in row-major order.  A raster of runs
    paints its grid the first time `occupancy` is read, and from then on
    every reader sees the grid.  `pgm()` returns the grid as PGM bytes;
    no raster writes a file.
    """

    def __init__(self, n: int, occupancy: np.ndarray | None = None, x0: float = 0.0,
                 side: float = 1.0, *, row_runs: tuple | None = None):
        self.n, self.x0, self.side = n, x0, side
        self._grid, self._row_runs = occupancy, row_runs

    @property
    def occupancy(self) -> np.ndarray:
        if self._grid is None:
            self._grid = np.zeros((self.n, self.n), dtype=bool)
            _paint(self._grid, *self._row_runs)
        return self._grid

    def row_runs(self):
        """(rows, starts, ends) of the occupied runs; a grid's from `_runs`."""
        return self._row_runs if self._grid is None else _runs(self._grid)

    @property
    def cell(self) -> float:
        return self.side / self.n

    def cell_offsets(self):
        """Offsets of the cell centres from the box corner, along either
        axis."""
        return (np.arange(self.n) + 0.5) * self.cell

    def occupied(self) -> int:
        """The number of occupied cells."""
        rows, starts, ends = self.row_runs()
        return int((ends - starts).sum())

    def area(self) -> float:
        return float(self.occupied()) * self.cell**2

    def perimeter_estimate(self) -> float:
        """Total length of occupied/free cell edges, diagonal contacts counting
        both: two per maximal run and per cell, less two per cell shared
        with the row below (`_adjacent`)."""
        rows, starts, ends = self.row_runs()
        a, b = _adjacent(rows, starts, ends)
        shared = np.minimum(ends[a], ends[b]) - np.maximum(starts[a], starts[b])
        return (2 * len(rows) + 2 * int((ends - starts).sum()) - 2 * int(shared.sum())) * self.cell

    def pgm(self) -> bytes:
        """The grid as binary PGM bytes (magic P5), one byte per cell,
        255 = occupied.

        Rows run along the second index so the image is the grid seen
        with the first index increasing downward.
        """
        data = (self.occupancy.astype(np.uint8) * 255).tobytes()
        return f"P5\n{self.n} {self.n}\n255\n".encode() + data


def _runs(mask: np.ndarray):
    """Row-major runs of the nonzero cells of a 2-D array, as (rows, starts,
    ends), ends exclusive: where each row, framed with False, changes."""
    framed = np.zeros((mask.shape[0], mask.shape[1] + 2), dtype=bool)
    framed[:, 1:-1] = mask
    rows, cols = np.divmod(np.flatnonzero(framed[:, 1:] != framed[:, :-1]), mask.shape[1] + 1)
    return rows[0::2], cols[0::2], cols[1::2]


def _ranges(first, count):
    """first[k], …, first[k] + count[k] − 1 for every k, concatenated."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def _paint(grid: np.ndarray, rows, starts, ends):
    """Set the cells of the runs (rows, starts, ends) in `grid`."""
    count = ends - starts
    grid[np.repeat(rows, count), _ranges(starts, count)] = True


def _joined(rows, starts, ends):
    """Row-major runs with each two that touch in a row joined."""
    new, last = np.ones((2, len(rows)), dtype=bool)
    new[1:] = last[:-1] = (rows[1:] != rows[:-1]) | (starts[1:] != ends[:-1])
    return rows[new], starts[new], ends[last]


def _union(*runs):
    """The maximal row-major runs of the union of sets of runs: sorted by
    row·w + start (w above every column), each is clipped to the farthest
    end so far in its row, and then they are joined (`_joined`)."""
    rows, starts, ends = (np.concatenate(x) for x in zip(*runs))
    w = int(ends.max(initial=0)) + 1
    order = np.argsort(rows * w + starts, kind="stable")
    rows, starts, key = rows[order], starts[order], rows[order] * w
    ends = np.maximum.accumulate(key + ends[order]) - key
    starts[1:] = np.where(rows[1:] == rows[:-1], np.maximum(starts[1:], ends[:-1]), starts[1:])
    return _joined(rows, starts, ends)


def _cut(rows, starts, ends, lo, hi):
    """Row-major runs less the column range [lo[i], hi[i]) of each row i,
    which cuts nothing where lo[i] ≥ hi[i].  Each run keeps its part left
    of the range and then its part right of it, so the runs stay
    row-major and maximal."""
    lo, hi = lo[rows], hi[rows]
    cut = lo < hi
    s = np.stack([starts, np.where(cut, np.maximum(starts, hi), ends)], axis=1).ravel()
    e = np.stack([np.where(cut, np.minimum(ends, lo), ends), ends], axis=1).ravel()
    keep = s < e
    return np.repeat(rows, 2)[keep], s[keep], e[keep]


def _adjacent(rows, starts, ends):
    """Index pairs (a, b) of row-major, disjoint runs, b in the row after
    a's, from the first ending after a starts to the last starting before
    a ends: the pairs that share a column (row·w + column as in `_union`)."""
    w = int(ends.max(initial=0)) + 1
    first = np.searchsorted(rows * w + ends, (rows + 1) * w + starts, side="right")
    count = np.searchsorted(rows * w + starts, (rows + 1) * w + ends) - first
    return np.repeat(np.arange(len(rows)), count), _ranges(first, count)


def _free_runs(r: Raster):
    """The runs of r's free cells framed by a free ring, and the root of
    each: the least run index of its 4-connected component.  The ring's
    rows 0 and n + 1 are one run each; row i + 1 holds the gaps of row
    i's occupied runs, one column to the right: from column 0 to the
    first start, between each end and the next start, and from the last
    end to n + 2.  Runs that share a column in adjacent rows are joined
    (`_adjacent`).  Hook each root to the least root joined to it, jump
    pointers, and repeat until joined runs share a root."""
    n = r.n
    rows, starts, ends = r.row_runs()
    at = np.arange(len(rows)) + rows  # the gap before each occupied run
    gap_starts, gap_ends = np.zeros(len(rows) + n, dtype=np.intp), np.full(len(rows) + n, n + 2)
    gap_starts[at + 1], gap_ends[at] = ends + 1, starts + 1
    gap_rows = np.repeat(np.arange(1, n + 1), np.bincount(rows, minlength=n) + 1)
    rows = np.concatenate([[0], gap_rows, [n + 1]])
    starts = np.concatenate([[0], gap_starts, [0]])
    ends = np.concatenate([[n + 2], gap_ends, [n + 2]])
    a, b = _adjacent(rows, starts, ends)
    root = np.arange(len(rows))
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return rows, starts, ends, root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def complement_components(r: Raster) -> int:
    """The number of 4-connected components of r's complement in the plane."""
    root = _free_runs(r)[3]
    return int(np.count_nonzero(root == np.arange(len(root))))


def _segment_cells(n: int, start, end, x0, cell):
    """(first, second) indices of every closed cell, of an n-cell grid
    with corner (x0, x0) and cells of side `cell`, that the segment from
    `start` to `end` meets.  In grid units, strips one cell wide step
    along the major axis; y at each strip edge is computed once, and each
    strip takes rows ceil(y_min − 1 − tol) … floor(y_max + tol), so
    neighbouring strips share a row and a pass within rounding of an edge
    takes both sides."""
    g0, g1 = ((np.asarray(pt, dtype=float) - x0) / cell for pt in (start, end))
    k = int(abs(g1[1] - g0[1]) > abs(g1[0] - g0[0]))
    (a, ya), (b, yb) = sorted([(g0[k], g0[1 - k]), (g1[k], g1[1 - k])])
    lo, hi = max(math.ceil(a - 1.0 - _TOUCH_TOL), 0), min(math.floor(b + _TOUCH_TOL), n - 1)
    x = np.clip(np.arange(lo, hi + 2, dtype=float), a, b)
    y = ya + (x - a) * ((yb - ya) / (b - a))
    first = np.clip(np.ceil(np.minimum(y[:-1], y[1:]) - 1.0 - _TOUCH_TOL), 0, n).astype(np.intp)
    last = np.clip(np.floor(np.maximum(y[:-1], y[1:]) + _TOUCH_TOL), -1, n - 1).astype(np.intp)
    count = last - first + 1
    rows, cols = _ranges(first, count), np.repeat(np.arange(lo, hi + 1), count)
    return (cols, rows) if k == 0 else (rows, cols)


def _slit_cover(n: int, start, end, x0, cell):
    """Per row i of an n-cell grid, the column range [lo_i, hi_i) of the
    closed cells that the segment meets (`_segment_cells`), with
    lo_i ≥ hi_i where it meets none.  In a row they are one range: each
    strip's range of rows has ends that move monotonically along the
    segment."""
    i, j = _segment_cells(n, start, end, x0, cell)
    lo, hi = np.full(n, n), np.zeros(n, dtype=np.intp)
    np.minimum.at(lo, i, j)
    np.maximum.at(hi, i, j + 1)
    return lo, hi


def _gap_cover(r: Raster, r_in: float, r_out: float):
    """Two column ranges [lo_i, hi_i) per row i of the raster r (box centred
    at 0) holding the closed cells the closed annulus r_in ≤ |y| ≤ r_out
    meets: those with near2_i ≤ r_out² − near2_j and far2_i ≥ r_in² − far2_j,
    the squared offsets of their nearest and farthest points.  Both fall,
    then rise, along the axis of cell edges, so the first test holds on
    one range and the second fails on one (`_at_least`)."""
    e = r.x0 + np.arange(r.n + 1) * r.cell
    lo, hi = np.abs(e[:-1]), np.abs(e[1:])
    near2 = np.where((e[:-1] <= 0.0) & (e[1:] >= 0.0), 0.0, np.minimum(lo, hi)) ** 2
    far2 = np.maximum(lo, hi) ** 2
    a_lo, a_hi = _at_least(r_out * r_out - near2, int(np.argmin(near2)), near2)
    c_lo, c_hi = _at_least(r_in * r_in - far2, int(np.argmin(far2)), far2, strict=True)
    return (a_lo, np.minimum(a_hi, c_lo)), (np.maximum(a_lo, c_hi), a_hi)


def _phi_blank(N: int) -> Raster:
    """An empty raster of runs over the unit square, of resolution N ≥ 64."""
    if N < 64:
        raise ValueError(f"raster resolution must be at least 64, got {N}")
    none = np.empty(0, dtype=np.intp)
    return Raster(n=N, row_runs=(none, none, none))


def _psi_blank(N: int) -> Raster:
    """An empty raster of runs over a square centred at 0, just wider than the disc."""
    runs = _phi_blank(N).row_runs()
    side = 2 * DISC_RADIUS * (1.0 + 2.0 * _PSI_MARGIN_CELLS / N)
    return Raster(n=N, row_runs=runs, x0=-side / 2.0, side=side)


def psi_section_cells(N: int) -> np.ndarray:
    """The angle q̄ of χ⁻¹ of each cell centre of a ψ raster, an (N, N)
    array indexed like its grid, computed from the 1-D axis of centres on
    the disc's boxes (`_annulus_boxes`, widened past the rim) only; q̄ is
    0 beyond them, where p = 1 − π|y|² ≤ 0 and no cell is a member."""
    r = _psi_blank(N)
    axis = r.x0 + r.cell_offsets()
    qbar = np.zeros((N, N))
    for rows, cols in _annulus_boxes(r, 0.0, (1.0 + _HEIGHT_SLACK) / math.pi):
        qbar[rows, cols] = disc_to_cylinder(axis[rows, None], axis[cols])[0]
    return qbar


def _at_least(g, m, t, strict=False):
    """Per entry of t, the range [lo, hi) of the j with g_j ≥ t (g_j > t if
    strict), for g rising on its first m entries and falling on the rest:
    a tail of the first part and a head of the second (`np.searchsorted`)."""
    first, second = ("right", "left") if strict else ("left", "right")
    return np.searchsorted(g[:m], t, first), m + np.searchsorted(-g[m:], -t, second)


def rasterize_section(z, config: EmbeddingConfig, N: int) -> Raster:
    """Rasterize the section at z over [0,1]^2 by cell-center membership,
    as row runs.

    The section is λ(V × W): every angle but the slit's, at the heights
    in W.  So a cell is occupied when its height lies in W, and the
    closed cells the slit segment meets are then freed; the slit has zero
    width, so plain center sampling would close it at every finite
    resolution.  No angle is computed.

    The height of a cell centre (u, v) + ½ is p = 1 − 4r², r the
    coordinate of larger magnitude (`maps.square_to_cylinder`), which is
    min(h(u), h(v)) with h(u) = 1 − 4u² bit for bit, since x ↦ 1 − 4x is
    monotone in floating point: one 1-D axis of heights gives all N², and
    W is decided once per axis height, as the mask w.  h rises on its
    first N // 2 entries and falls on the rest (x ↦ 1 − 4x² is monotone
    on each sign of x), so along row i the cells with h_j ≥ h_i are one
    column range holding i (`_at_least`); they take w[i], and every other
    cell takes w[j], the runs of w outside that range.
    The odd-N centre cell, the puncture, has height 1 ∉ W.

    Dropping the angle test frees no fewer cells.  By the slit-ray bound
    (`sections` module docstring), q̄ moves at least 1/8 as fast as the
    Euclidean angle, so a cell centre y within SLIT_TOL of the slit angle
    is within 8·SLIT_TOL of the ray's direction and so within
    8·SLIT_TOL·|y − ½| < 6e-9 of the slit ray.  The ray meets that cell,
    and its cover (`_slit_cover`), one column range per row, is cut from
    the runs.  The closed cover of a segment is 4-connected, so the
    corridor stays open.
    """
    sd = resolve_section(z, config)
    r = _phi_blank(N)
    if sd.status != "generic":
        return r
    u = r.cell_offsets() - 0.5
    h = 1.0 - 4.0 * (u * u)
    w = sd.W.contains_many(h)
    lo, hi = (x[:, None] for x in _at_least(h, N // 2, h))
    _, ws, we = _runs(w[None])
    ws, we = np.broadcast_to(ws, (N, len(ws))), np.broadcast_to(we, (N, len(we)))
    # Per row: the runs of w left of [lo, hi), that range if w[i], and the
    # runs of w right of it; an empty slot has start ≥ end.
    starts = np.concatenate([ws, lo, np.maximum(ws, hi)], axis=1).ravel()
    ends = np.concatenate([np.minimum(we, lo), np.where(w[:, None], hi, lo), we], axis=1).ravel()
    keep = starts < ends
    rows = np.repeat(np.arange(N), len(starts) // N)
    runs = _joined(rows[keep], starts[keep], ends[keep])
    rim = make_lambda().forward((sd.slit_angle, 0.0))
    return Raster(n=N, row_runs=_cut(*runs, *_slit_cover(N, (0.5, 0.5), rim, r.x0, r.cell)))


def _annulus_boxes(r: Raster, rr_in: float, rr_out: float):
    """(rows, columns) slices of boxes of r's cells that hold every cell
    whose centre y has rr_in < |y|² < rr_out: for each block of
    _BLOCK_ELEMENTS // N rows that the outer circle meets, the columns
    within the outer circle at the block's row nearest 0, less those
    within the inner circle at its row farthest from 0, found by
    `np.searchsorted` on the sorted 1-D axis of centres.  That is one
    column range, or two where the hole spans the block.  Callers widen
    the annulus far beyond rounding, so whether an end is kept does not
    matter."""
    axis = r.x0 + r.cell_offsets()
    edge = math.sqrt(rr_out)
    first, last = np.searchsorted(axis, (-edge, edge)).tolist()
    step = max(1, _BLOCK_ELEMENTS // r.n)
    for i in range(first, last, step):
        rows = slice(i, min(i + step, last))
        ends = axis[[rows.start, rows.stop - 1]]
        near = 0.0 if ends[0] <= 0.0 <= ends[1] else float(np.min(ends * ends))
        far = float(np.max(ends * ends))
        out = math.sqrt(max(rr_out - near, 0.0))
        hole = math.sqrt(max(rr_in - far, 0.0))
        lo, hole_lo, hole_hi, hi = np.searchsorted(axis, (-out, -hole, hole, out)).tolist()
        for cols in (slice(lo, hole_lo), slice(hole_hi, hi)) if hole_lo < hole_hi else (slice(lo, hi),):
            if cols.start < cols.stop:
                yield rows, cols


def rasterize_psi_section(z, config: EmbeddingConfig, a: float, N: int, *, cells=None) -> Raster:
    """Rasterize the z-section of the ball embedding's image over a box
    slightly larger than the disc of radius 1/sqrt(pi), as row runs.
    `cells`, if given, is `psi_section_cells(N)`.

    Only cells whose height can pass are tested: `sections._arc_heights`
    bounds the heights of every member, each piece is an annulus through
    p = 1 − π|y|², and the arc kernel runs on the boxes of
    `_annulus_boxes`, reading q̄ from `cells` and p from the 1-D axis by
    `maps.disc_to_cylinder`'s expression, so bit for bit, and the runs of
    the boxes, which may overlap, are merged (`_union`).

    The slit, and every gap between two intervals of W that is under
    _THIN_GAP_CELLS cells wide radially, are free in the section but too
    thin for cell centres to keep open, so the closed cells they meet
    are cut from the runs (`_slit_cover`, `_gap_cover`): such a gap would
    otherwise close into pockets of enclosed cells.  A touching height,
    where two intervals of W share an endpoint, is a gap of zero width.
    """
    cfg = psi_config(config, a)
    sd = resolve_section(z, cfg)
    r = _psi_blank(N)
    if sd.status != "generic":
        return r
    if cells is not None and cells.shape != (N, N):
        raise ValueError(f"cells were built for another raster, not N = {N}")
    heights = _arc_heights(sd)
    if not heights:
        return r
    qbar = psi_section_cells(N) if cells is None else cells
    axis = r.x0 + r.cell_offsets()
    square = axis * axis
    runs = [r.row_runs()]
    for lo, hi in heights:
        for rows, cols in _annulus_boxes(r, (1.0 - hi) / math.pi, (1.0 - lo) / math.pi):
            p = 1.0 - math.pi * (square[rows, None] + square[cols])
            i, j, end = _runs(_arc_members(qbar[rows, cols], p, sd))
            runs.append((i + rows.start, j + cols.start, end + cols.start))
    # κ⁻¹∘λ = χ, so the slit is the ray from 0 to the rim point χ(slit angle, 0).
    rim = ChiMap().forward((sd.slit_angle, 0.0))
    runs = _cut(*_union(*runs), *_slit_cover(N, (0.0, 0.0), rim, r.x0, r.cell))
    iv = sd.W.intervals
    for (_, top), (bottom, _) in zip(iv, iv[1:]):
        r_in, r_out = (math.sqrt((1.0 - v) / math.pi) for v in (bottom, top))
        if r_out - r_in < _THIN_GAP_CELLS * r.cell:
            for lo, hi in _gap_cover(r, r_in, r_out):
                runs = _cut(*runs, lo, hi)
    return Raster(n=N, x0=r.x0, side=r.side, row_runs=runs)


@dataclass(frozen=True)
class ConnectivityReport:
    z: tuple
    N: int
    components: int
    connected: bool
    occupied_fraction: float


def _resolution_for(W) -> int:
    """The least N above 1/width of W's thinnest height band, so that at
    it and every N beyond, each interval of heights in W holds an axis
    cell's height.  Heights (lo, hi) are the square radii
    (√(1 − hi)/2, √(1 − lo)/2) about ½, and the axis offsets of the cell
    centres from ½ are 1/N apart, so a band wider than 1/N holds one."""
    width = min(math.sqrt(1.0 - lo) - math.sqrt(1.0 - hi) for lo, hi in W.intervals) / 2.0
    return math.floor(1.0 / width) + 1


def check_complement_connected(z, config: EmbeddingConfig, N: int):
    """True iff the complement of the section raster (in the plane) is a
    single 4-connected component.  Verdicts below N = 256 are advisory.
    A generic φ section has area 1/c > 0, so an empty raster is an error."""
    if N < 256:
        raise ValueError("acceptance-grade connectivity checks need N >= 256")
    sd = resolve_section(z, config)
    r = rasterize_section(sd, config, N)
    occupied = r.occupied()
    if sd.status == "generic" and not occupied:
        raise ValueError(
            f"the section at z = {sd.z} (c = {config.c}) is thinner than a cell "
            f"of the N = {N} raster; raise --N (N >= {_resolution_for(sd.W)} puts a cell "
            "centre in every height band of W)"
        )
    components = complement_components(r)
    report = ConnectivityReport(
        z=tuple(sd.z),
        N=N,
        components=components,
        connected=components == 1,
        occupied_fraction=float(occupied / (N * N)),
    )
    return report.connected, report


class AmbiguousHullError(ValueError):
    """Occupancy reaches the raster margin; the bounded hull is undefined."""


def _holes(r: Raster):
    """The runs of r's bounded complement components: the free margin ring
    is connected, so the unbounded one is root 0's (`_free_runs`)."""
    rows, starts, ends = r.row_runs()
    if len(rows) and (rows[0] == 0 or rows[-1] == r.n - 1 or starts.min() == 0 or ends.max() == r.n):
        raise AmbiguousHullError("occupancy touches the raster margin")
    rows, starts, ends, root = _free_runs(r)
    hole = root != 0
    # Framed cell (i, j) is cell (i − 1, j − 1) of the box.
    return rows[hole] - 1, starts[hole] - 1, ends[hole] - 1


def bounded_hull(r: Raster) -> Raster:
    """The occupied runs joined with those of every hole (`_holes`)."""
    return Raster(n=r.n, x0=r.x0, side=r.side, row_runs=_union(r.row_runs(), _holes(r)))


@dataclass(frozen=True)
class HullReport:
    a: float
    N: int
    grid: tuple
    max_hull_area: float
    tolerance: float
    all_within_bound: bool
    hull_equals_section: bool
    entries: tuple  # ((z1, z2, hull_area, section_area), ...)
    # (z1, z2, hull_area) of the entry furthest above its own bound
    # a + tolerance; named by a failing check, not serialized.
    worst: tuple = ()


def check_hull_bound(
    a: float, config: EmbeddingConfig, grid=(20, 20), N: int = 1024
) -> HullReport:
    """Verify that every section hull of the ball embedding has area at
    most a (up to a raster tolerance scaling with boundary length / N).
    The angles q̄ are built once and serve every z of the grid; the hull's
    area and tolerance are counted on runs (`_holes`, perimeter)."""
    cfg = psi_config(config, a)
    zs = z_grid(cfg, grid)[0]
    cells = psi_section_cells(N)
    entries, worst_tol, hull_eq = [], 0.0, True
    worst, worst_excess = (), -math.inf
    for z in zs:
        r = rasterize_psi_section(z, cfg, a, N, cells=cells)
        _, starts, ends = _holes(r)
        tol = 4.0 * r.perimeter_estimate() / N
        worst_tol = max(worst_tol, tol)
        area, section_area = float(r.occupied() + int((ends - starts).sum())) * r.cell**2, r.area()
        zi, zj = float(z[0]), float(z[1])
        entries.append((zi, zj, area, section_area))
        if area - (a + tol) > worst_excess:
            worst, worst_excess = (zi, zj, area), area - (a + tol)
        # The hull only adds cells, and both areas are a cell count times
        # one cell area, so equal areas mean equal cell sets.
        hull_eq &= area == section_area
    return HullReport(
        a=a,
        N=N,
        grid=tuple(grid),
        max_hull_area=float(max(e[2] for e in entries)),
        tolerance=float(worst_tol),
        # x − y > 0 iff x > y in floating point (gradual underflow).
        all_within_bound=bool(worst_excess <= 0.0),
        hull_equals_section=hull_eq,
        entries=tuple(entries),
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Synthetic fixtures (negative controls and hull tests)


def _hypot_count(a, half, rho):
    """For each a, how many leading entries b of the ascending array
    `half` have np.hypot(a, b) < rho: the count below √(rho² − a²), moved
    by one entry where np.hypot disagrees."""
    if rho <= 0.0:
        return np.zeros(len(a), dtype=np.intp)
    m = np.searchsorted(half, np.sqrt(np.maximum(rho * rho - a * a, 0.0)))
    last = len(half) - 1
    m += (m <= last) & (np.hypot(a, half[np.minimum(m, last)]) < rho)
    m -= (m > 0) & (np.hypot(a, half[np.maximum(m - 1, 0)]) >= rho)
    return m


def _radial_fixture(N, inner, outer, slit_halfwidth=None):
    """Cells of an N-cell unit raster (`_phi_blank`) whose centres lie at
    distance in (inner, outer) from ½, as row runs from the 1-D axis d of
    centre offsets.  |d| falls along the first N // 2 entries and rises
    along the rest, so in row i the centres within a radius form one
    column range, counted on each half (`_hypot_count`).  The range within
    `inner` is cut from the range within `outer`, and the slit's columns
    |d| < slit_halfwidth from the rows with d > 0."""
    _phi_blank(N)
    d = (np.arange(N) + 0.5) / N - 0.5
    k = N // 2
    halves = (-d[k - 1 :: -1], d[k:])

    def within(rho):
        return k - _hypot_count(d, halves[0], rho), k + _hypot_count(d, halves[1], rho)

    lo, hi = within(outer)
    rows = np.flatnonzero(lo < hi)
    runs = _cut(rows, lo[rows], hi[rows], *within(np.nextafter(inner, math.inf)))
    if slit_halfwidth is not None:
        ray = d > 0.0
        lo = k - np.searchsorted(halves[0], slit_halfwidth)
        hi = k + np.searchsorted(halves[1], slit_halfwidth)
        runs = _cut(*runs, np.where(ray, lo, 0), np.where(ray, hi, 0))
    return Raster(n=N, row_runs=runs)


def annulus_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """A closed annulus: its complement has two components."""
    return _radial_fixture(N, inner, outer)


def annulus_with_slit_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """An annulus cut by a radial slit: path-connected complement."""
    return _radial_fixture(N, inner, outer, slit_halfwidth=1.5 / N)


def disk_fixture(N: int = 256, radius: float = 0.3) -> Raster:
    return _radial_fixture(N, -math.inf, radius)
