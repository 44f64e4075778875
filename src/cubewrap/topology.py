"""Raster verification of section topology: connected complements and
bounded hulls.

The complement of a section is taken in the whole plane, so every raster
carries an explicit free margin ring around its box.  Occupancy uses
cell-center membership; the zero-width radial slit is kept open on the
grid by freeing the cells a fine polyline of the slit passes through
(plus their 8-neighborhood), so that the complement corridor the slit
provides survives discretization at any resolution.

The cylinder coordinates of a raster's cell centres depend only on its
resolution and box, not on z, and have closed forms (see
`sections.SectionCells`): λ⁻¹ of the square for φ, polar coordinates of
the disc for ψ.  `phi_section_cells` and `psi_section_cells` build them
for one raster; the loops that hold N fixed (`check_hull_bound`, the
CLI's connectivity sweep) build them once and pass them as `cells=` to
every z.  `bounded_hull` skips the search for holes when every
complement component reaches the margin ring, the usual case for a
slit section.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .maps import DISC_RADIUS, ChiMap, EmbeddingConfig, make_lambda, psi_config
from .sections import (
    SectionCells,
    SectionDescription,
    psi_section_membership_many,
    resolve_section,
    section_membership_many,
    z_grid,
)

__all__ = [
    "Raster",
    "RegionLabels",
    "phi_section_cells",
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

_FOUR_CONN = ndimage.generate_binary_structure(2, 1)

# Free cells between the disc of a ψ raster and the edge of its box, on
# each side.
_PSI_MARGIN_CELLS = 2

# Two intervals of W closer than this share an endpoint.
_TOUCH_TOL = 1e-9


@dataclass(frozen=True)
class Raster:
    """A binary occupancy grid over the square box [x0, x0+side]^2.

    occupancy[i, j] covers the cell with center
    (x0 + (i+0.5)*side/n, y0 + (j+0.5)*side/n).
    """

    n: int
    occupancy: np.ndarray
    x0: float = 0.0
    y0: float = 0.0
    side: float = 1.0

    @property
    def cell(self) -> float:
        return self.side / self.n

    def cell_centers(self):
        t = (np.arange(self.n) + 0.5) * self.cell
        X, Y = np.meshgrid(self.x0 + t, self.y0 + t, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def area(self) -> float:
        return float(self.occupancy.sum()) * self.cell**2

    def perimeter_estimate(self) -> float:
        """Total length of occupied/free cell edges (8-connectivity is
        used only implicitly: diagonal contacts contribute both edges)."""
        occ = self.occupancy
        pad = np.pad(occ, 1, constant_values=False)
        edges = 0
        edges += np.count_nonzero(pad[1:, :] != pad[:-1, :])
        edges += np.count_nonzero(pad[:, 1:] != pad[:, :-1])
        return edges * self.cell

    def to_pgm(self, path):
        """Binary PGM (magic P5), one byte per cell, 255 = occupied.

        Rows run along the second index so the image is the grid seen
        with the first index increasing downward.
        """
        data = (self.occupancy.astype(np.uint8) * 255).tobytes()
        header = f"P5\n{self.n} {self.n}\n255\n".encode()
        with open(path, "wb") as fh:
            fh.write(header + data)

    def runs(self) -> np.ndarray:
        """Row-wise runs of occupied cells: an (m, 3) array of
        (row, start, length), in row-major order."""
        pad = np.zeros((self.n, self.n + 2), dtype=np.int8)
        pad[:, 1:-1] = self.occupancy.astype(bool)
        step = np.diff(pad, axis=1)
        rows, starts = np.nonzero(step == 1)
        _, ends = np.nonzero(step == -1)
        return np.stack([rows, starts, ends - starts], axis=1)


@dataclass(frozen=True)
class RegionLabels:
    """Flood-fill labels (4-connectivity) of the complement cells of a
    raster, computed with one free margin ring around the box."""

    labels: np.ndarray  # padded shape (n+2, n+2); 0 on occupied cells
    count: int
    boundary_touching: tuple

    @property
    def interior_labels(self):
        return self.labels[1:-1, 1:-1]


def complement_components(r: Raster) -> RegionLabels:
    """Label the free cells, including a one-cell free ring outside the
    box (the complement is taken in the plane)."""
    padded_occ = np.pad(r.occupancy.astype(bool), 1, constant_values=False)
    labels, count = ndimage.label(~padded_occ, structure=_FOUR_CONN)
    ring = np.concatenate(
        [labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]
    )
    touching = tuple(np.unique(ring[ring > 0]).tolist())
    return RegionLabels(labels=labels, count=int(count), boundary_touching=touching)


def _stamp_polyline(occupancy: np.ndarray, pts, x0, y0, cell, n):
    """Free every cell a polyline passes through, plus its 8-neighborhood,
    so the corridor it cuts is at least one 4-connected cell wide."""
    ii = np.floor((pts[:, 0] - x0) / cell).astype(int)
    jj = np.floor((pts[:, 1] - y0) / cell).astype(int)
    mask = np.zeros_like(occupancy, dtype=bool)
    keep = (ii >= -1) & (ii <= n) & (jj >= -1) & (jj <= n)
    ii, jj = ii[keep], jj[keep]
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            a = np.clip(ii + di, 0, n - 1)
            b = np.clip(jj + dj, 0, n - 1)
            mask[a, b] = True
    occupancy &= ~mask


def _slit_cylinder(sd: SectionDescription, steps: int):
    """Cylinder points (slit angle, t) of the removed angle, from the rim
    (t -> 0) to the puncture (t -> 1).

    Sampled uniformly in the disc radius of χ, where the path is a
    straight ray; uniform height sampling would leave large spatial gaps
    near the center.  The radii are the midpoints ρ_k = R·(1 − (k + ½)/
    steps), R = DISC_RADIUS, so that ½ ± m_k, m_k = ½(1 − (k + ½)/steps)
    the half-side of λ's square there, is never a cell edge of a raster
    whose N divides steps: a slit along a diagonal (z1 = ½) does not run
    through cell corners.
    """
    rho = DISC_RADIUS * (1.0 - (np.arange(steps) + 0.5) / steps)
    t = 1.0 - math.pi * rho * rho
    return np.stack([np.full_like(t, sd.slit_angle), t], axis=-1)


def slit_polyline(sd: SectionDescription, steps: int):
    """Points of the slit path: the image of the removed angle under λ,
    from the square boundary to the puncture."""
    return make_lambda().forward(_slit_cylinder(sd, steps))


def _phi_blank(N: int) -> Raster:
    return Raster(n=N, occupancy=np.zeros((N, N), dtype=bool))


def _psi_blank(N: int) -> Raster:
    """An empty raster over a box slightly larger than the disc of
    radius 1/sqrt(pi)."""
    side = 2 * DISC_RADIUS * (1.0 + 2.0 * _PSI_MARGIN_CELLS / N)
    x0 = -side / 2.0
    return Raster(n=N, occupancy=np.zeros((N, N), dtype=bool), x0=x0, y0=x0, side=side)


def phi_section_cells(N: int) -> SectionCells:
    """Cylinder coordinates of the cell centres of a φ raster at N."""
    return SectionCells.phi(_phi_blank(N).cell_centers().reshape(-1, 2))


def psi_section_cells(N: int) -> SectionCells:
    """Cylinder coordinates of the cell centres of a ψ raster at N."""
    return SectionCells.psi(_psi_blank(N).cell_centers().reshape(-1, 2))


def _raster_cells(r: Raster, cells, build) -> SectionCells:
    """`cells` if given, after checking they are r's cell centres, else
    `build(centres)`."""
    if cells is None:
        return build(r.cell_centers().reshape(-1, 2))
    first = cells.points[:1]
    if cells.points.shape != (r.n * r.n, 2) or not np.array_equal(
        first, [[r.x0 + 0.5 * r.cell, r.y0 + 0.5 * r.cell]]
    ):
        raise ValueError("cells were built for another raster")
    return cells


def rasterize_section(z, config: EmbeddingConfig, N: int, cells=None) -> Raster:
    """Rasterize the section at z over [0,1]^2 by cell-center membership.

    The cells along the analytic slit path are freed; the slit has zero
    width, so plain center sampling would close it at every finite
    resolution.  `cells`, if given, is `phi_section_cells(N)`.
    """
    if N < 64:
        raise ValueError("raster resolution must be at least 64")
    sd = resolve_section(z, config)
    r = _phi_blank(N)
    if sd.status != "generic":
        return r
    cells = _raster_cells(r, cells, SectionCells.phi)
    occ = section_membership_many(cells.points, sd, config, cells=cells).reshape(N, N)
    _stamp_polyline(occ, slit_polyline(sd, steps=8 * N), r.x0, r.y0, r.cell, N)
    return Raster(n=N, occupancy=occ)


def _touching_heights(W):
    """Heights where two open intervals of W share an endpoint.

    The shared endpoint is excluded from the open union, so it is a
    zero-width free curve inside the occupied band."""
    iv = W.intervals
    return [
        0.5 * (iv[k][1] + iv[k + 1][0])
        for k in range(len(iv) - 1)
        if iv[k + 1][0] - iv[k][1] < _TOUCH_TOL
    ]


def rasterize_psi_section(z, config: EmbeddingConfig, a: float, N: int, *, cells=None) -> Raster:
    """Rasterize the z-section of the ball embedding's image over a box
    slightly larger than the disc of radius 1/sqrt(pi).  `cells`, if
    given, is `psi_section_cells(N)`."""
    if N < 64:
        raise ValueError("raster resolution must be at least 64")
    cfg = psi_config(config, a)
    sd = resolve_section(z, cfg)
    r = _psi_blank(N)
    if sd.status != "generic":
        return r
    cells = _raster_cells(r, cells, SectionCells.psi)
    occ = psi_section_membership_many(cells.points, sd, cfg, a, cells=cells).reshape(N, N)
    # The disc points are κ⁻¹ of the square ones, and κ⁻¹∘λ = χ.
    chi = ChiMap()
    _stamp_polyline(occ, chi.forward(_slit_cylinder(sd, 8 * N)), r.x0, r.y0, r.cell, N)
    # A shared endpoint of touching height intervals is a zero-width
    # free loop around the band; the ball constraint widens it into
    # visible pockets in places, so keep the whole loop open too.
    for v in _touching_heights(sd.W):
        ang = np.mod(sd.slit_angle + (np.arange(8 * N) + 0.5) / (8 * N), 1.0)
        loop = chi.forward(np.stack([ang, np.full_like(ang, v)], axis=-1))
        _stamp_polyline(occ, loop, r.x0, r.y0, r.cell, N)
    return Raster(n=N, occupancy=occ, x0=r.x0, y0=r.y0, side=r.side)


@dataclass(frozen=True)
class ConnectivityReport:
    z: tuple
    N: int
    components: int
    connected: bool
    occupied_fraction: float


def check_complement_connected(z, config: EmbeddingConfig, N: int, cells=None):
    """True iff the complement of the section raster (in the plane) is a
    single flood-fill component.  Verdicts below N = 256 are advisory.
    `cells`, if given, is `phi_section_cells(N)`."""
    if N < 256:
        raise ValueError("acceptance-grade connectivity checks need N >= 256")
    sd = resolve_section(z, config)
    r = rasterize_section(sd, config, N, cells=cells)
    labels = complement_components(r)
    report = ConnectivityReport(
        z=tuple(sd.z),
        N=N,
        components=labels.count,
        connected=labels.count == 1,
        occupied_fraction=float(r.occupancy.mean()),
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
    """Union of the occupancy with every complement component that does
    not touch the free margin ring (the bounded components).  When every
    component touches the ring there is no hole, and the hull is the
    occupancy."""
    occ = r.occupancy.astype(bool)
    if occ[0, :].any() or occ[-1, :].any() or occ[:, 0].any() or occ[:, -1].any():
        raise AmbiguousHullError("occupancy touches the raster margin")
    labels = complement_components(r)
    if len(labels.boundary_touching) == labels.count:
        return Raster(n=r.n, occupancy=occ, x0=r.x0, y0=r.y0, side=r.side)
    bounded = np.isin(labels.interior_labels, labels.boundary_touching, invert=True)
    hull = occ | (bounded & (labels.interior_labels > 0))
    return Raster(n=r.n, occupancy=hull, x0=r.x0, y0=r.y0, side=r.side)


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
    all_ok = True
    hull_eq = True
    for z in zs:
        r = rasterize_psi_section(z, cfg, a, N, cells=cells)
        hull = bounded_hull(r)
        tol = 4.0 * r.perimeter_estimate() / N
        worst_tol = max(worst_tol, tol)
        area = hull.area()
        zi, zj = float(z[0]), float(z[1])
        entries.append((zi, zj, area, r.area()))
        if area - (a + tol) > worst_excess:
            worst, worst_excess = (zi, zj, area), area - (a + tol)
        if area > a + tol:
            all_ok = False
        if not np.array_equal(hull.occupancy, r.occupancy):
            hull_eq = False
    return HullReport(
        a=a,
        N=N,
        grid=tuple(grid),
        max_hull_area=float(max(e[2] for e in entries)),
        tolerance=float(worst_tol),
        all_within_bound=all_ok,
        hull_equals_section=hull_eq,
        entries=tuple(entries),
        worst=worst,
    )


# ---------------------------------------------------------------------------
# Synthetic fixtures (negative controls and hull tests)


def _radial_fixture(N, inner, outer, slit_halfwidth=None):
    occ = np.zeros((N, N), dtype=bool)
    t = (np.arange(N) + 0.5) / N
    X, Y = np.meshgrid(t, t, indexing="ij")
    rho = np.hypot(X - 0.5, Y - 0.5)
    occ = (rho > inner) & (rho < outer)
    if slit_halfwidth is not None:
        on_ray = (np.abs(Y - 0.5) < slit_halfwidth) & (X > 0.5)
        occ &= ~on_ray
    return Raster(n=N, occupancy=occ)


def annulus_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """A closed annulus: its complement has two components."""
    return _radial_fixture(N, inner, outer)


def annulus_with_slit_fixture(N: int = 256, inner: float = 0.2, outer: float = 0.4) -> Raster:
    """An annulus cut by a radial slit: path-connected complement."""
    return _radial_fixture(N, inner, outer, slit_halfwidth=1.5 / N)


def disk_fixture(N: int = 256, radius: float = 0.3) -> Raster:
    t = (np.arange(N) + 0.5) / N
    X, Y = np.meshgrid(t, t, indexing="ij")
    occ = np.hypot(X - 0.5, Y - 0.5) < radius
    return Raster(n=N, occupancy=occ)
