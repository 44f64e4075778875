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
raster reads only heights, from its 1-D axis of cell centres: the
height of cell (i, j) is min(h_i, h_j), h = 1 − 4u² for the offsets u
of the centres from ½ (`rasterize_section`), and the slit's cover
carries the slit.  A ψ cell's cylinder coordinates (q̄, p), the polar
coordinates of its centre, depend only on the raster's resolution and
box, not on z; `psi_section_cells` builds them as two (N, N) arrays, the
raster's grid, by broadcasting the box's 1-D axis in blocks of whole
rows of about `maps._BLOCK_ELEMENTS` cells, and `check_hull_bound`,
which holds N fixed, builds them once and passes them as `cells=` to
every z.  Per z, a ψ cell is occupied when its angle lies in the arc of
its height (`sections._arc_members`).  Only heights in
`sections._arc_heights` can pass, an annulus or two through
p = 1 − π|y|², so the kernel runs only on boxes of whole row blocks,
one or two column ranges each, taken from the annulus on the sorted 1-D
axis (`_annulus_boxes`); cells outside them stay free.
Complement components join overlapping free row runs of adjacent rows;
`bounded_hull` adds the runs not joined to the free margin ring.
Every raster, the synthetic fixtures too, starts from `_phi_blank`,
which rejects N < 64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .maps import _BLOCK_ELEMENTS, DISC_RADIUS, ChiMap, EmbeddingConfig, disc_to_cylinder
from .maps import make_lambda, psi_config
from .sections import _arc_heights, _arc_members, resolve_section, section_membership_many, z_grid

__all__ = [
    "Raster",
    "psi_section_cells",
    "rasterize_section",
    "rasterize_psi_section",
    "complement_components",
    "check_complement_connected",
    "slit_path_witness",
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


@dataclass(frozen=True)
class Raster:
    """A binary occupancy grid over the square box [x0, x0+side]^2.

    occupancy[i, j] covers the cell with center
    (x0 + (i+0.5)*side/n, x0 + (j+0.5)*side/n).  `pgm()` returns the
    grid as PGM bytes; no raster writes a file.
    """

    n: int
    occupancy: np.ndarray
    x0: float = 0.0
    side: float = 1.0

    @property
    def cell(self) -> float:
        return self.side / self.n

    def cell_offsets(self):
        """Offsets of the cell centres from the box corner, along either
        axis."""
        return (np.arange(self.n) + 0.5) * self.cell

    def cell_centers(self):
        t = self.x0 + self.cell_offsets()
        X, Y = np.meshgrid(t, t, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def area(self) -> float:
        return float(np.count_nonzero(self.occupancy)) * self.cell**2

    def perimeter_estimate(self) -> float:
        """Total length of occupied/free cell edges (8-connectivity is
        used only implicitly: diagonal contacts contribute both edges)."""
        occ = self.occupancy
        pad = np.pad(occ, 1, constant_values=False)
        edges = 0
        edges += np.count_nonzero(pad[1:, :] != pad[:-1, :])
        edges += np.count_nonzero(pad[:, 1:] != pad[:, :-1])
        return edges * self.cell

    def pgm(self) -> bytes:
        """The grid as binary PGM bytes (magic P5), one byte per cell,
        255 = occupied.

        Rows run along the second index so the image is the grid seen
        with the first index increasing downward.
        """
        data = (self.occupancy.astype(np.uint8) * 255).tobytes()
        return f"P5\n{self.n} {self.n}\n255\n".encode() + data

    def runs(self) -> np.ndarray:
        """Row-wise runs of occupied cells: an (m, 3) array of
        (row, start, length), in row-major order."""
        rows, starts, ends = _runs(self.occupancy)
        return np.stack([rows, starts, ends - starts], axis=1)


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


def _free_runs(r: Raster):
    """The runs of r's free cells framed by a free ring, and the root of
    each: the least run index of its 4-connected component.  Run a of row i
    meets the runs of row i + 1 from the first ending after a starts to the
    last starting before a ends.  Hook each root to the least root joined
    to it, jump pointers, and repeat until joined runs share a root."""
    free = np.ones((r.n + 2, r.n + 2), dtype=bool)
    np.logical_not(r.occupancy, out=free[1:-1, 1:-1])
    rows, starts, ends = _runs(free)
    w = r.n + 3  # above every column, so row·w + column orders runs row-major
    first = np.searchsorted(rows * w + ends, (rows + 1) * w + starts, side="right")
    count = np.searchsorted(rows * w + starts, (rows + 1) * w + ends) - first
    a, b = np.repeat(np.arange(len(rows)), count), _ranges(first, count)
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


def _free_segment(occupancy: np.ndarray, start, end, x0, cell):
    """Free every closed cell, of a grid with corner (x0, x0) and cells
    of side `cell`, that the segment from `start` to `end` meets.  In
    grid units, strips one cell wide step along the major axis; y at each
    strip edge is computed once, and each strip frees rows
    ceil(y_min − 1 − tol) … floor(y_max + tol), so neighbouring strips
    share a row and a pass within rounding of an edge frees both sides."""
    n = occupancy.shape[0]
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
    occupancy[(cols, rows) if k == 0 else (rows, cols)] = False


def _free_band(occupancy: np.ndarray, r: Raster, r_in: float, r_out: float):
    """Free every closed cell of the raster r (box centred at 0) that the
    closed annulus r_in ≤ |y| ≤ r_out about 0 meets: a cell's distances
    from 0 fill the range from its nearest to its farthest point, so it
    meets the annulus iff near ≤ r_out and far ≥ r_in.  Both offsets come
    from the 1-D axis of cell edges and are compared as 1-D vectors: no
    N² float array is built.  r_in = r_out is a circle."""
    e = r.x0 + np.arange(r.n + 1) * r.cell
    lo, hi = np.abs(e[:-1]), np.abs(e[1:])
    near2 = np.where((e[:-1] <= 0.0) & (e[1:] >= 0.0), 0.0, np.minimum(lo, hi)) ** 2
    far2 = np.maximum(lo, hi) ** 2
    occupancy &= ~((near2[:, None] <= r_out * r_out - near2) & (far2[:, None] >= r_in * r_in - far2))


def _phi_blank(N: int) -> Raster:
    """An empty raster over the unit square, of resolution N ≥ 64."""
    if N < 64:
        raise ValueError(f"raster resolution must be at least 64, got {N}")
    return Raster(n=N, occupancy=np.zeros((N, N), dtype=bool))


def _psi_blank(N: int) -> Raster:
    """An empty raster over a box slightly larger than the disc of
    radius 1/sqrt(pi)."""
    r = _phi_blank(N)
    side = 2 * DISC_RADIUS * (1.0 + 2.0 * _PSI_MARGIN_CELLS / N)
    return replace(r, x0=-side / 2.0, side=side)


def psi_section_cells(N: int):
    """Cylinder coordinates (q̄, p) of the cell centres of a ψ raster, as
    two (N, N) arrays indexed like its occupancy.  Its box is a square
    centred at 0, so both axes share one 1-D array of cell centres, and
    χ⁻¹ runs on blocks of whole rows, about _BLOCK_ELEMENTS cells each."""
    r = _psi_blank(N)
    axis = r.x0 + r.cell_offsets()
    qbar, p = np.empty((2, N, N))
    rows = max(1, _BLOCK_ELEMENTS // N)
    for i in range(0, N, rows):
        qbar[i : i + rows], p[i : i + rows] = disc_to_cylinder(axis[i : i + rows, None], axis)
    return qbar, p


def rasterize_section(z, config: EmbeddingConfig, N: int) -> Raster:
    """Rasterize the section at z over [0,1]^2 by cell-center membership.

    The section is λ(V × W): every angle but the slit's, at the heights
    in W.  So a cell is occupied when its height lies in W, and the
    closed cells the slit segment meets are then freed; the slit has zero
    width, so plain center sampling would close it at every finite
    resolution.  No angle is computed.

    The height of a cell centre (u, v) + ½ is p = 1 − 4r², r the
    coordinate of larger magnitude (`maps.square_to_cylinder`), which is
    min(h(u), h(v)) with h(u) = 1 − 4u² bit for bit, since x ↦ 1 − 4x is
    monotone in floating point: one 1-D axis of heights gives all N², and
    W is decided once per axis height.  The odd-N centre cell, the
    puncture, has height 1 ∉ W.

    Dropping the angle test frees no fewer cells.  By the slit-ray bound
    (`sections` module docstring), q̄ moves at least 1/8 as fast as the
    Euclidean angle, so a cell centre y within SLIT_TOL of the slit angle
    is within 8·SLIT_TOL of the ray's direction and so within
    8·SLIT_TOL·|y − ½| < 6e-9 of the slit ray.  The ray meets that cell
    and `_free_segment` frees it.  The closed cover of a segment is
    4-connected, so the corridor stays open.
    """
    sd = resolve_section(z, config)
    r = _phi_blank(N)
    if sd.status != "generic":
        return r
    u = r.cell_offsets() - 0.5
    h = 1.0 - 4.0 * (u * u)
    w = sd.W.contains_many(h)
    occ = np.where(h[:, None] <= h, w[:, None], w)
    _free_segment(occ, (0.5, 0.5), make_lambda().forward((sd.slit_angle, 0.0)), r.x0, r.cell)
    return Raster(n=N, occupancy=occ)


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
    slightly larger than the disc of radius 1/sqrt(pi).  `cells`, if
    given, is `psi_section_cells(N)`.

    Only cells whose height can pass are tested: `sections._arc_heights`
    bounds the heights of every member, each piece is an annulus through
    p = 1 − π|y|², and the arc kernel runs on the boxes of
    `_annulus_boxes`, writing into a zeroed occupancy.  A section with
    no piece skips the kernel.

    The slit, and every gap between two intervals of W that is under
    _THIN_GAP_CELLS cells wide radially, are free in the section but too
    thin for cell centres to keep open, so the closed cells they meet
    are freed: such a gap would otherwise close into pockets of enclosed
    cells.  A touching height, where two intervals of W share an
    endpoint, is a gap of zero width.
    """
    cfg = psi_config(config, a)
    sd = resolve_section(z, cfg)
    r = _psi_blank(N)
    if sd.status != "generic":
        return r
    if cells is not None and (cells[0].shape != (N, N) or cells[1].shape != (N, N)):
        raise ValueError(f"cells were built for another raster, not N = {N}")
    heights = _arc_heights(sd)
    if not heights:
        return r
    qbar, p = psi_section_cells(N) if cells is None else cells
    occ = r.occupancy
    for lo, hi in heights:
        for box in _annulus_boxes(r, (1.0 - hi) / math.pi, (1.0 - lo) / math.pi):
            _arc_members(qbar[box], p[box], sd, out=occ[box])
    # κ⁻¹∘λ = χ, so the slit is the ray from 0 to the rim point χ(slit angle, 0).
    _free_segment(occ, (0.0, 0.0), ChiMap().forward((sd.slit_angle, 0.0)), r.x0, r.cell)
    iv = sd.W.intervals
    for (_, top), (bottom, _) in zip(iv, iv[1:]):
        r_in, r_out = (math.sqrt((1.0 - v) / math.pi) for v in (bottom, top))
        if r_out - r_in < _THIN_GAP_CELLS * r.cell:
            _free_band(occ, r, r_in, r_out)
    return r


@dataclass(frozen=True)
class ConnectivityReport:
    z: tuple
    N: int
    components: int
    connected: bool
    occupied_fraction: float


def check_complement_connected(z, config: EmbeddingConfig, N: int):
    """True iff the complement of the section raster (in the plane) is a
    single 4-connected component.  Verdicts below N = 256 are advisory.
    A generic φ section has area 1/c > 0, so an empty raster is an error."""
    if N < 256:
        raise ValueError("acceptance-grade connectivity checks need N >= 256")
    sd = resolve_section(z, config)
    r = rasterize_section(sd, config, N)
    occupied = np.count_nonzero(r.occupancy)
    if sd.status == "generic" and not occupied:
        raise ValueError(
            f"the section at z = {sd.z} (c = {config.c}) is thinner than a cell "
            f"of the N = {N} raster; raise --N"
        )
    components = complement_components(r)
    report = ConnectivityReport(
        z=tuple(sd.z),
        N=N,
        components=components,
        connected=components == 1,
        occupied_fraction=float(occupied / r.occupancy.size),
    )
    return report.connected, report


def slit_path_witness(z, config: EmbeddingConfig, steps: int = 1000):
    """Sample the slit path and confirm every sample avoids the section.

    Returns (polyline, all_outside).  The path starts on the square
    boundary (t -> 0) and ends at the puncture (t -> 1).
    """
    sd = resolve_section(z, config)
    if sd.status != "generic":
        raise ValueError("the slit path exists only for generic sections")
    lam = make_lambda()
    t = (np.arange(steps) + 0.5) / steps
    qp = np.stack([np.full_like(t, sd.slit_angle), t], axis=-1)
    pts = lam.forward(qp)
    inside = section_membership_many(pts, sd, config)
    return pts, bool(~inside.any())


class AmbiguousHullError(ValueError):
    """Occupancy reaches the raster margin; the bounded hull is undefined."""


def bounded_hull(r: Raster) -> Raster:
    """Union of the occupancy with every bounded complement component:
    the free margin ring is connected, so the one unbounded component is
    root 0's, run 0 being the ring's top row."""
    hull = r.occupancy.astype(bool)
    if hull[0, :].any() or hull[-1, :].any() or hull[:, 0].any() or hull[:, -1].any():
        raise AmbiguousHullError("occupancy touches the raster margin")
    rows, starts, ends, root = _free_runs(r)
    hole = root != 0
    # Padded cell (i, j) is cell (i − 1, j − 1) of the box.
    count = (ends - starts)[hole]
    hull[np.repeat(rows[hole] - 1, count), _ranges(starts[hole] - 1, count)] = True
    return Raster(n=r.n, occupancy=hull, x0=r.x0, side=r.side)


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

    The raster geometry is built once and serves every z of the grid."""
    cfg = psi_config(config, a)
    zs = z_grid(cfg, grid)[0]
    cells = psi_section_cells(N)
    entries = []
    worst_tol = 0.0
    worst, worst_excess = (), -math.inf
    hull_eq = True
    for z in zs:
        r = rasterize_psi_section(z, cfg, a, N, cells=cells)
        hull = bounded_hull(r)
        tol = 4.0 * r.perimeter_estimate() / N
        worst_tol = max(worst_tol, tol)
        area, section_area = hull.area(), r.area()
        zi, zj = float(z[0]), float(z[1])
        entries.append((zi, zj, area, section_area))
        if area - (a + tol) > worst_excess:
            worst, worst_excess = (zi, zj, area), area - (a + tol)
        # bounded_hull only adds cells, and both areas are a cell count
        # times one cell area, so equal areas mean equal cell sets.
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


def _radial_fixture(N, inner, outer, slit_halfwidth=None):
    """Cells of an N-cell unit raster (`_phi_blank`) whose centres lie at
    distance in (inner, outer) from ½, built from the 1-D axis of centre
    offsets."""
    r = _phi_blank(N)
    d = (np.arange(N) + 0.5) / N - 0.5
    rho = np.hypot(d[:, None], d)
    np.logical_and(rho > inner, rho < outer, out=r.occupancy)
    if slit_halfwidth is not None:
        r.occupancy[(d > 0.0)[:, None] & (np.abs(d) < slit_halfwidth)] = False
    return r


def annulus_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """A closed annulus: its complement has two components."""
    return _radial_fixture(N, inner, outer)


def annulus_with_slit_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """An annulus cut by a radial slit: path-connected complement."""
    return _radial_fixture(N, inner, outer, slit_halfwidth=1.5 / N)


def disk_fixture(N: int = 256, radius: float = 0.3) -> Raster:
    return _radial_fixture(N, -math.inf, radius)
