import inspect
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import ndimage

import cubewrap.sections as sections
import cubewrap.topology as topology
from cubewrap.maps import (
    DISC_RADIUS,
    ChiMap,
    EmbeddingConfig,
    disc_to_cylinder,
    make_lambda,
    psi_config,
)
from cubewrap.sections import (
    fubini_check,
    psi_section_membership_many,
    section_membership_many,
    section_of_phi,
    z_grid,
)
from cubewrap.quotient import preimage_affine_mod, reduce
from cubewrap.topology import (
    AmbiguousHullError,
    Raster,
    annulus_fixture,
    annulus_with_slit_fixture,
    bounded_hull,
    check_complement_connected,
    check_hull_bound,
    complement_components,
    disk_fixture,
    psi_section_cells,
    rasterize_psi_section,
    rasterize_section,
)
from slit_path import slit_path_witness

CFG2 = EmbeddingConfig(n=2, c=2.0)


def _labels_reference(occ):
    """`ndimage.label`'s 4-connected labels and count of the free cells,
    with a one-cell free ring around the box."""
    return ndimage.label(~np.pad(occ.astype(bool), 1))


def _cell_centers(r):
    """The centres of r's cells, an (n, n, 2) array indexed like its
    occupancy."""
    t = r.x0 + r.cell_offsets()
    X, Y = np.meshgrid(t, t, indexing="ij")
    return np.stack([X, Y], axis=-1)


def _run_lists(runs):
    """(rows, starts, ends) as lists, for comparing two sets of runs."""
    return [x.tolist() for x in runs]


def _hull_reference(occ):
    """The occupancy plus every labelled free cell not in the ring's
    component."""
    labels = _labels_reference(occ)[0]
    inner = labels[1:-1, 1:-1]
    return occ | ((inner != labels[0, 0]) & (inner > 0))


class TestRaster:
    def test_cell_geometry(self):
        r = Raster(n=4, occupancy=np.zeros((4, 4), dtype=bool), x0=1.0, side=2.0)
        assert r.cell == 0.5
        cc = _cell_centers(r)
        assert cc[0, 0].tolist() == [1.25, 1.25]
        assert cc[0, 3].tolist() == [1.25, 2.75]
        assert cc[3, 3].tolist() == [2.75, 2.75]

    def test_area(self):
        occ = np.zeros((8, 8), dtype=bool)
        occ[:2, :2] = True
        r = Raster(n=8, occupancy=occ)
        assert r.area() == pytest.approx(4 / 64)

    def test_perimeter_single_cell(self):
        occ = np.zeros((8, 8), dtype=bool)
        occ[3, 3] = True
        assert Raster(n=8, occupancy=occ).perimeter_estimate() == pytest.approx(4 / 8)

    def test_perimeter_counts_the_edges_of_the_runs(self):
        """The edge count from runs equals the padded grid's count of
        occupied/free neighbours, on random grids, fixtures, φ and ψ
        rasters."""
        rng = np.random.default_rng(5)
        rasters = [
            Raster(n=n, occupancy=rng.uniform(size=(n, n)) < d)
            for n, d in [(1, 0.5), (7, 0.3), (40, 0.5), (64, 0.9)]
        ]
        rasters += [annulus_fixture(100), disk_fixture(64), rasterize_section((0.3, 0.7), CFG2, 256)]
        rasters += [rasterize_psi_section(z, CFG2, 0.5, 256) for z in z_grid(psi_config(CFG2, 0.5), (2, 2))[0]]
        for r in rasters:
            got = r.perimeter_estimate()
            pad = np.pad(r.occupancy, 1)
            edges = np.count_nonzero(pad[1:] != pad[:-1]) + np.count_nonzero(pad[:, 1:] != pad[:, :-1])
            assert got == edges * r.cell

    def test_pgm_export(self, tmp_path):
        occ = np.zeros((4, 4), dtype=bool)
        occ[1, 2] = True
        path = tmp_path / "r.pgm"
        path.write_bytes(Raster(n=4, occupancy=occ).pgm())
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 4\n255\n")
        body = data.split(b"255\n", 1)[1]
        assert len(body) == 16 and body[1 * 4 + 2] == 255

    def test_rle_round_trip(self):
        occ = np.zeros((6, 6), dtype=bool)
        occ[2, 1:4] = True
        occ[4, 5] = True
        runs = Raster(n=6, occupancy=occ).row_runs()
        rebuilt = np.zeros((6, 6), dtype=bool)
        for i, j, end in zip(*runs):
            rebuilt[i, j:end] = True
        assert np.array_equal(rebuilt, occ)
        assert _run_lists(runs) == [[2, 4], [1, 5], [4, 6]]


class TestFixtures:
    def test_annulus_complement_has_two_components(self):
        r = annulus_fixture()
        assert complement_components(r) == 2
        # one of them is unbounded: the hull adds only the hole
        assert bounded_hull(r).occupancy.sum() > r.occupancy.sum()

    def test_slit_annulus_complement_connected(self):
        assert complement_components(annulus_with_slit_fixture()) == 1

    def test_disk_complement_connected(self):
        assert complement_components(disk_fixture()) == 1

    def test_regions_meeting_only_at_corners_stay_apart(self):
        # a diamond ring of occupied cells: the free cells inside and
        # outside it touch only at cell corners, so 4-connectivity counts
        # two components where 8-connectivity would merge them
        i, j = np.indices((64, 64))
        occ = np.abs(i - 32) + np.abs(j - 32) == 10
        r = Raster(n=64, occupancy=occ)
        assert complement_components(r) == 2
        assert np.array_equal(bounded_hull(r).occupancy, np.abs(i - 32) + np.abs(j - 32) <= 10)
        assert ndimage.label(~np.pad(occ, 1), structure=np.ones((3, 3)))[1] == 1

    @pytest.mark.parametrize("N", [64, 255, 256, 1024])
    def test_fixtures_equal_meshgrid_reference(self, N):
        """Each fixture's row runs, read before its grid is painted, are
        the runs of a dense np.hypot reference, and so is the grid."""
        t = (np.arange(N) + 0.5) / N
        X, Y = np.meshgrid(t, t, indexing="ij")
        rho = np.hypot(X - 0.5, Y - 0.5)
        annulus = (rho > 0.2) & (rho < 0.4)
        on_ray = (np.abs(Y - 0.5) < 1.5 / N) & (X > 0.5)
        for r, ref in [
            (annulus_fixture(N), annulus),
            (annulus_with_slit_fixture(N), annulus & ~on_ray),
            (disk_fixture(N), rho < 0.3),
            (disk_fixture(N, radius=0.45), rho < 0.45),
        ]:
            assert _run_lists(r.row_runs()) == _run_lists(topology._runs(ref))
            assert np.array_equal(r.occupancy, ref)


class TestBoundedHull:
    def test_annulus_hull_fills_hole(self):
        r = annulus_fixture()
        hull = bounded_hull(r)
        t = (np.arange(r.n) + 0.5) / r.n
        X, Y = np.meshgrid(t, t, indexing="ij")
        rho = np.hypot(X - 0.5, Y - 0.5)
        assert np.array_equal(hull.occupancy, rho < 0.4)

    def test_disk_hull_is_identity(self):
        r = disk_fixture()
        assert np.array_equal(bounded_hull(r).occupancy, r.occupancy)

    def test_idempotent(self):
        h = bounded_hull(annulus_fixture())
        assert np.array_equal(bounded_hull(h).occupancy, h.occupancy)

    def test_monotone_on_nested_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inner = rng.uniform(0.05, 0.2)
            outer = rng.uniform(inner + 0.05, 0.45)
            small = annulus_fixture(128, inner, outer - 0.02)
            big = annulus_fixture(128, inner, outer)
            hs = bounded_hull(small).occupancy
            hb = bounded_hull(big).occupancy
            assert not np.any(hs & ~hb)

    def test_matches_ndimage_reference_with_and_without_holes(self):
        rng = np.random.default_rng(4)
        rasters = [disk_fixture(), annulus_with_slit_fixture(), annulus_fixture()]
        for density in (0.05, 0.3, 0.55, 0.7):
            for n in (48, 97):
                occ = rng.uniform(size=(n, n)) < density
                occ[[0, -1], :] = occ[:, [0, -1]] = False
                rasters.append(Raster(n=n, occupancy=occ))
        holes = []
        for r in rasters:
            hull = bounded_hull(r)
            assert np.array_equal(hull.occupancy, _hull_reference(r.occupancy))
            assert hull.occupancy is not r.occupancy
            holes.append(not np.array_equal(hull.occupancy, r.occupancy))
        assert holes[:3] == [False, False, True] and True in holes[3:]
        assert False in holes[3:]

    def test_margin_contact_is_ambiguous(self):
        occ = np.zeros((64, 64), dtype=bool)
        occ[0, 10] = True
        with pytest.raises(AmbiguousHullError):
            bounded_hull(Raster(n=64, occupancy=occ))


class TestRasterizeSection:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            rasterize_section([0.3, 0.7], CFG2, N=32)

    def test_empty_statuses_give_blank_rasters(self):
        assert rasterize_section(CFG2.z0, CFG2, N=64).occupancy.sum() == 0
        assert rasterize_section([5.0, 0.5], CFG2, N=64).occupancy.sum() == 0

    def test_area_converges_to_analytic(self):
        # raster area error should shrink roughly like boundary/N
        for N in (128, 256, 512):
            r = rasterize_section([0.3, 0.7], CFG2, N)
            err = abs(r.area() - 0.5)
            assert err < 10.0 / N

    def test_slit_open_vs_closed(self):
        # Cell-centre membership alone, with no slit corridor.
        opened = rasterize_section([0.3, 0.7], CFG2, 256)
        occ = section_membership_many(_cell_centers(opened), [0.3, 0.7], CFG2)
        closed = Raster(n=256, occupancy=occ)
        assert complement_components(closed) >= 2
        assert complement_components(opened) == 1
        assert opened.occupancy.sum() <= closed.occupancy.sum()


def _segment_cover(start, end, x0, side, N, tol=Fraction(0)):
    """The cells of an N-cell raster over [x0, x0 + side]² whose closed
    square, widened by tol cells on every side, meets the closed segment
    from `start` to `end`, in exact rational arithmetic on the given
    floats.

    In grid units g = (point − x0)·N/side, cell (i, j) is [i, i + 1] ×
    [j, j + 1].  The part of the segment over the column
    [i − tol, i + 1 + tol] is a sub-segment whose y range is [lo, hi],
    and the widened cell meets it iff j − tol ≤ hi and j + 1 + tol ≥ lo."""
    x0, scale = Fraction(x0), N / Fraction(side)
    (sx, sy), (ex, ey) = sorted(
        tuple((Fraction(float(v)) - x0) * scale for v in pt) for pt in (start, end)
    )
    cover = np.zeros((N, N), dtype=bool)
    for i in range(N):
        xa, xb = max(sx, i - tol), min(ex, i + 1 + tol)
        if xa > xb:
            continue
        ya, yb = (sy, ey) if sx == ex else (sy + (x - sx) * (ey - sy) / (ex - sx) for x in (xa, xb))
        lo, hi = min(ya, yb), max(ya, yb)
        cover[i, max(math.ceil(lo - 1 - tol), 0) : math.floor(hi + tol) + 1] = True
    return cover


def _free_segment(occupancy, start, end, x0, cell):
    """Free every closed cell of the grid that the segment from `start` to
    `end` meets (`topology._segment_cells`), in place."""
    occupancy[topology._segment_cells(occupancy.shape[0], start, end, x0, cell)] = False


def _phi_rim(sd):
    """The rim end λ(slit angle, 0) of the φ slit segment."""
    return make_lambda().forward((sd.slit_angle, 0.0))


def _slit_cover(sd, N, tol=Fraction(0)):
    """The closed cells of an N-cell φ raster that the slit segment, from
    the puncture (½, ½) to its rim point, meets (`_segment_cover`)."""
    return _segment_cover((0.5, 0.5), _phi_rim(sd), 0.0, 1.0, N, tol)


def _slit_cases():
    """z1 = ½ gives an axis slit at c = 1 and 2 and a diagonal one at
    c = 1.5; the other z are generic."""
    for c in (1.0, 1.5, 2.0, math.pi):
        cfg = EmbeddingConfig(n=2, c=c)
        for z in [*z_grid(cfg, (1, 2))[0], (0.3, 0.7), (0.8, 0.15 * c)]:
            yield cfg, section_of_phi(z, cfg)


def _sample_cells(n, start, end, x0, cell):
    """A faulty cover: only the cells that hold one of 8n samples of the
    segment."""
    s = (np.arange(8 * n) + 0.5) / (8 * n)
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    ij = np.floor((start + s[:, None] * (end - start) - x0) / cell).astype(int)
    return ij[:, 0], ij[:, 1]


def _no_cover(n, *segment):
    """A slit cover that cuts no cell: an empty range on every row."""
    return np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)


class TestSlitCorridor:
    def test_cover_of_a_diagonal_slit_counts_corner_touches(self):
        sd = section_of_phi((0.5, 0.375), EmbeddingConfig(n=2, c=1.5))
        cover = _slit_cover(sd, 8)
        # The segment from (4, 4) to (8, 0) in grid units: the cells it
        # crosses, those it touches at a corner only, and the three more
        # around its end at the puncture.
        crossed = {(4, 3), (5, 2), (6, 1), (7, 0)}
        corners = {(4, 2), (5, 3), (5, 1), (6, 2), (6, 0), (7, 1)}
        puncture = {(3, 3), (3, 4), (4, 4)}
        assert set(zip(*np.nonzero(cover))) == crossed | corners | puncture

    @pytest.mark.parametrize("N", [255, 256, 512])
    def test_every_cell_the_slit_meets_is_free(self, N):
        for cfg, sd in _slit_cases():
            r = rasterize_section(sd, cfg, N)
            cover = _slit_cover(sd, N)
            assert r.occupancy.any() and cover.any()
            assert not (r.occupancy & cover).any(), (cfg.c, sd.z, N)

    @pytest.mark.parametrize("N", [64, 255, 256, 1024])
    def test_corridor_is_the_exact_cover_within_tol(self, N):
        """The freed cells contain the exact closed cover, every extra
        cell lies within _TOUCH_TOL cells of the segment, and they are
        4-connected."""
        tol = Fraction(topology._TOUCH_TOL)
        for cfg, sd in _slit_cases():
            occ = np.ones((N, N), dtype=bool)
            _free_segment(occ, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
            exact = _slit_cover(sd, N)
            assert not (exact & occ).any(), (cfg.c, sd.z, N)
            extra = ~occ & ~exact
            assert not (extra & ~_slit_cover(sd, N, tol)).any(), (cfg.c, sd.z, N)
            assert ndimage.label(~occ)[1] == 1

    def test_passes_within_rounding_of_corners_free_both_sides(self):
        # At z = (0.3, 0.7) and c = 2 the segment from (128, 128) to
        # (56.32, 256) in grid units passes within 1e-13 cells of the
        # corners (114, 153), (100, 178) and (58, 253), so the four
        # cells around each are freed whichever side it passes on.
        N = 256
        sd = section_of_phi((0.3, 0.7), CFG2)
        occ = np.ones((N, N), dtype=bool)
        _free_segment(occ, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
        for i, j in [(114, 153), (100, 178), (58, 253)]:
            assert not occ[i - 1 : i + 1, j - 1 : j + 1].any(), (i, j)
            assert _slit_cover(sd, N)[i - 1 : i + 1, j - 1 : j + 1].sum() == 3

    def test_fails_on_a_stamp_that_frees_only_the_sample_cells(self, monkeypatch):
        monkeypatch.setattr(topology, "_segment_cells", _sample_cells)
        N = 256
        left = [
            sd.slit_angle
            for cfg, sd in _slit_cases()
            if (rasterize_section(sd, cfg, N).occupancy & _slit_cover(sd, N)).any()
        ]
        assert {0.25, 0.5, 0.875} <= set(left)


def _psi_cases():
    """ψ rasters at a ∈ {1, ½, ¼}: z1 = ½ gives an axis slit at every a
    and a diagonal one at a = ½; at a = 1 every W has a touching height."""
    for a in (1.0, 0.5, 0.25):
        cfg = psi_config(CFG2, a)
        for z in [*z_grid(cfg, (1, 2))[0], *z_grid(cfg, (1, 4))[0], (0.3, 0.7), (0.025, 0.375)]:
            yield a, section_of_phi(z, cfg)


def _band_cover(r, r_in, r_out):
    """The cells of the raster r that the closed annulus r_in ≤ |y| ≤ r_out
    about 0 meets, per cell: np.hypot at its nearest and farthest points."""
    edges = r.x0 + np.arange(r.n + 1) * r.cell
    lo = np.meshgrid(edges[:-1], edges[:-1], indexing="ij")
    hi = np.meshgrid(edges[1:], edges[1:], indexing="ij")
    near = [np.clip(0.0, l, h) for l, h in zip(lo, hi)]
    far = [np.maximum(np.abs(l), np.abs(h)) for l, h in zip(lo, hi)]
    return (np.hypot(*near) <= r_out) & (r_in <= np.hypot(*far))


def _thin_gaps(W, r):
    """(r_in, r_out) of every gap between consecutive intervals of W whose
    radial width in the ψ raster r is under `_THIN_GAP_CELLS` cells; a
    touching height is a gap of width 0."""
    radius = lambda v: math.sqrt((1.0 - v) / math.pi)  # noqa: E731
    iv = W.intervals
    gaps = [(radius(b), radius(t)) for (_, t), (b, _) in zip(iv, iv[1:])]
    return [(ri, ro) for ri, ro in gaps if ro - ri < topology._THIN_GAP_CELLS * r.cell]


def _psi_left_on_curves(N):
    """(a, z, curve) of every ψ raster at resolution N that leaves an
    occupied cell meeting its slit ray (`_segment_cover`) or a thin gap
    of W (`_band_cover`)."""
    left = []
    for a, sd in _psi_cases():
        r = rasterize_psi_section(sd, CFG2, a, N)
        if not r.occupancy.any():
            continue  # the ball empties (0.5, 0.75) at a = ½, (0.5, 1.5) at a = ¼
        rim = ChiMap().forward((sd.slit_angle, 0.0))
        if (r.occupancy & _segment_cover((0.0, 0.0), rim, r.x0, r.side, N)).any():
            left.append((a, sd.z, "slit"))
        for r_in, r_out in _thin_gaps(sd.W, r):
            if (r.occupancy & _band_cover(r, r_in, r_out)).any():
                left.append((a, sd.z, "ring"))
    return left


def _free_band(occupancy, r, r_in, r_out):
    """Free every closed cell of the raster r (box centred at 0) that the
    closed annulus r_in ≤ |y| ≤ r_out meets, by the N × N comparison of
    the offsets of the cells' nearest and farthest points: the dense
    reference for `topology._gap_cover`."""
    e = r.x0 + np.arange(r.n + 1) * r.cell
    lo, hi = np.abs(e[:-1]), np.abs(e[1:])
    near2 = np.where((e[:-1] <= 0.0) & (e[1:] >= 0.0), 0.0, np.minimum(lo, hi)) ** 2
    far2 = np.maximum(lo, hi) ** 2
    occupancy &= ~((near2[:, None] <= r_out * r_out - near2) & (far2[:, None] >= r_in * r_in - far2))


def _gap_cells(r, r_in, r_out):
    """The cells of `topology._gap_cover`'s column ranges, painted."""
    cells = np.zeros((r.n, r.n), dtype=bool)
    for lo, hi in topology._gap_cover(r, r_in, r_out):
        rows = np.flatnonzero(lo < hi)
        topology._paint(cells, rows, lo[rows], hi[rows])
    return cells


def _no_gap_cover(r, r_in, r_out):
    """A gap cover that cuts no cell."""
    return [_no_cover(r.n)]


class TestPsiCorridor:
    @pytest.mark.parametrize("N", [255, 256])
    def test_no_occupied_cell_meets_the_slit_or_touching_circle(self, N):
        r = topology._psi_blank(N)
        touching = [a for a, sd in _psi_cases() if _thin_gaps(sd.W, r)]
        assert set(touching) == {1.0}
        assert _psi_left_on_curves(N) == []

    @pytest.mark.parametrize("N", [64, 255, 256, 1024])
    def test_ring_frees_exactly_the_cells_the_circle_meets(self, N):
        r = topology._psi_blank(N)
        for radius in DISC_RADIUS * np.array([0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0]):
            ref = np.ones((N, N), dtype=bool)
            _free_band(ref, r, radius, radius)
            cells = _gap_cells(r, radius, radius)
            assert np.array_equal(cells, _band_cover(r, radius, radius)), (N, radius)
            assert np.array_equal(cells, ~ref), (N, radius)

    @pytest.mark.parametrize("N", [64, 255, 256, 1024])
    def test_band_frees_exactly_the_cells_the_annulus_meets(self, N):
        r = topology._psi_blank(N)
        for r_in, r_out in DISC_RADIUS * np.array([[0.0, 0.01], [0.1, 0.1 + 0.3 / N], [0.5, 0.52], [0.9, 1.0]]):
            ref = np.ones((N, N), dtype=bool)
            _free_band(ref, r, r_in, r_out)
            cells = _gap_cells(r, r_in, r_out)
            assert np.array_equal(cells, _band_cover(r, r_in, r_out)), (N, r_in, r_out)
            assert np.array_equal(cells, ~ref), (N, r_in, r_out)

    def test_gap_cover_equals_the_dense_comparison_at_every_n(self):
        """Two column ranges per row hold exactly the cells of the N × N
        comparison at every N from 64 to 300, at the touching height's
        circle of a = 1 and a band thinner than a cell."""
        for N in range(64, 301):
            r = topology._psi_blank(N)
            for r_in, r_out in [(0.5, 0.5), (0.3, 0.3 + 0.7 / N)]:
                ref = np.ones((N, N), dtype=bool)
                _free_band(ref, r, r_in * DISC_RADIUS, r_out * DISC_RADIUS)
                assert np.array_equal(_gap_cells(r, r_in * DISC_RADIUS, r_out * DISC_RADIUS), ~ref), N

    @pytest.mark.parametrize("N", [64, 255, 256])
    def test_gap_cover_at_exact_ties(self, N):
        """Radii whose square is exactly twice a cell's squared nearest or
        farthest offset put that cell's diagonal on the annulus's edge in
        floating point: the outer test keeps its equality, the inner one
        does not, as in the dense comparison."""
        r = topology._psi_blank(N)
        e = r.x0 + np.arange(N + 1) * r.cell
        near = np.where((e[:-1] <= 0.0) & (e[1:] >= 0.0), 0.0, np.minimum(np.abs(e[:-1]), np.abs(e[1:])))
        far = np.maximum(np.abs(e[:-1]), np.abs(e[1:]))
        cases = []
        for offsets, band in [(near, lambda x: (0.8 * x, x)), (far, lambda x: (x, 1.2 * x))]:
            for v in 2.0 * offsets[offsets > 0.0] ** 2:
                x = math.sqrt(v)
                for _ in range(4):
                    if x * x != v:
                        x = np.nextafter(x, math.inf if x * x < v else 0.0)
                if x * x == v:
                    cases.append(band(x))
        assert len(cases) > N // 2
        for r_in, r_out in cases[:: max(1, len(cases) // 40)]:
            ref = np.ones((N, N), dtype=bool)
            _free_band(ref, r, r_in, r_out)
            assert np.array_equal(_gap_cells(r, r_in, r_out), ~ref), (N, r_in, r_out)

    def test_fails_on_a_ring_omission(self, monkeypatch):
        monkeypatch.setattr(topology, "_gap_cover", _no_gap_cover)
        left = _psi_left_on_curves(256)
        assert left and {curve for _, _, curve in left} == {"ring"}

    def test_fails_on_a_corridor_that_frees_only_the_sample_cells(self, monkeypatch):
        monkeypatch.setattr(topology, "_segment_cells", _sample_cells)
        left = _psi_left_on_curves(256)
        assert left and {curve for _, _, curve in left} == {"slit"}

    @pytest.mark.parametrize("a, N", [(0.999, 256), (0.99, 256), (0.9875, 256), (0.999, 1024)])
    def test_a_gap_thinner_than_a_cell_stays_open(self, a, N):
        """At a near 1, W = (0, s − (1 − a)) ∪ (s, 1): the heights between
        are free, an annulus thinner than a cell or two, joined to the
        rim by the slit.  Cell centres miss it, so unless its cells are
        freed the raster closes it into enclosed pockets, and the hull
        grows past the section."""
        cfg = psi_config(CFG2, a)
        zs = [z for z in z_grid(cfg, (9, 13))[0] if len(section_of_phi(z, cfg).W.intervals) == 2]
        assert zs
        cells = psi_section_cells(N)
        for z in zs:
            r = rasterize_psi_section(z, CFG2, a, N, cells=cells)
            assert np.array_equal(bounded_hull(r).occupancy, r.occupancy), (a, N, z)


class TestConnectivity:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            check_complement_connected([0.3, 0.7], CFG2, N=128)

    @pytest.mark.parametrize("N", [256, 512])
    def test_generic_sections_connected(self, N):
        rng = np.random.default_rng(1)
        for _ in range(3):
            z = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.95))
            ok, report = check_complement_connected(z, CFG2, N)
            assert ok and report.components == 1

    def test_report_fields(self):
        ok, report = check_complement_connected([0.3, 0.7], CFG2, 256)
        assert ok
        assert report.N == 256 and report.connected and 0 < report.occupied_fraction < 1
        occupancy = rasterize_section([0.3, 0.7], CFG2, 256).occupancy
        assert report.occupied_fraction == float(occupancy.mean())

    # W = (¼ − 1/c, ¼) is the band of square radii (√¾, √(¾ + 1/c))/2,
    # (√(¾ + 1/c) − √¾)/2 wide: 1/2079.6 at c = 600 and 1/34642.0 at 1e4.
    @pytest.mark.parametrize("c", [600.0, 1e4])
    def test_section_thinner_than_a_cell_is_an_error(self, c):
        # the section has area 1/c > 0, yet no cell centre of the raster
        # lies in it: an empty raster would pass on nothing
        z, cfg = (0.5, c / 4), EmbeddingConfig(c=c)
        needed = {600.0: 2080, 1e4: 34643}[c]
        assert not rasterize_section(z, cfg, 256).occupancy.any()
        with pytest.raises(
            ValueError,
            match=rf"z = \({z[0]}, {z[1]}\) \(c = {c}\).*N = 256.*--N \(N >= {needed} puts",
        ):
            check_complement_connected(z, cfg, 256)
        ok, report = check_complement_connected(z, cfg, needed)
        assert ok and report.components == 1

    @pytest.mark.parametrize("c", [2.0, 600.0])
    def test_a_check_at_n_8192_stays_small(self, c):
        """Row runs keep one check far below one 8192² grid (64 MiB)."""
        cfg = EmbeddingConfig(c=c)
        z = z_grid(cfg, (1, 2))[0][0]
        tracemalloc.start()
        try:
            ok, report = check_complement_connected(z, cfg, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and report.components == 1
        assert peak < 16 * 2**20


def _phi_cases():
    """(config, section) at c ∈ {1, 1.5, 2, π, 7, 600}: z1 = ½ gives axis
    and diagonal slits, and the 2 × 4 grid one- and two-piece W."""
    for c in (1.0, 1.5, 2.0, math.pi, 7.0, 600.0):
        cfg = EmbeddingConfig(n=2, c=c)
        for z in [*z_grid(cfg, (1, 2))[0], *z_grid(cfg, (2, 4))[0]]:
            yield cfg, section_of_phi(z, cfg)


def _phi_dense_reference(sd, N):
    """The φ raster as the dense formula builds it: W at min(h_i, h_j)
    for every cell (i, j), then `_free_segment`."""
    u = (np.arange(N) + 0.5) * (1.0 / N) - 0.5
    h = 1.0 - 4.0 * (u * u)
    w = sd.W.contains_many(h)
    occ = np.where(h[:, None] <= h, w[:, None], w)
    _free_segment(occ, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
    return occ


def _phi_run_mismatches():
    """(c, z, N) of each φ raster whose row runs, read before its grid is
    painted, are not the runs of `_phi_dense_reference`, or whose grid
    differs from it; lazily, so a fault stops at its first case."""
    for cfg, sd in _phi_cases():
        for N in (64, 255, 256, 1023, 1024):
            r = rasterize_section(sd, cfg, N)
            ref = _phi_dense_reference(sd, N)
            runs = _run_lists(r.row_runs())
            if runs != _run_lists(topology._runs(ref)) or not np.array_equal(r.occupancy, ref):
                yield cfg.c, sd.z, N


class TestPhiRowRuns:
    def test_runs_equal_the_dense_formula(self):
        assert {len(sd.W.intervals) for _, sd in _phi_cases()} == {1, 2}
        assert list(_phi_run_mismatches()) == []

    @pytest.mark.parametrize(
        "fault",
        [
            lambda lo, hi: (np.maximum(lo - 1, 0), hi),
            lambda lo, hi: (lo, hi - 1),
        ],
        ids=["one_column_wider", "one_column_narrower"],
    )
    def test_fails_on_a_height_range_off_by_one_column(self, fault, monkeypatch):
        real = topology._at_least
        monkeypatch.setattr(topology, "_at_least", lambda *args: fault(*real(*args)))
        assert next(_phi_run_mismatches(), None) is not None

    def test_fails_on_a_slit_cover_dropped_on_one_row(self, monkeypatch):
        real = topology._slit_cover

        def dropped(n, *segment):
            lo, hi = real(n, *segment)
            rows = np.flatnonzero(lo < hi)
            lo[rows[len(rows) // 2]] = n
            return lo, hi

        monkeypatch.setattr(topology, "_slit_cover", dropped)
        assert next(_phi_run_mismatches(), None) is not None


class TestSlitWitness:
    def test_all_samples_outside(self):
        pts, outside = slit_path_witness([0.3, 0.7], CFG2, steps=1000)
        assert outside and pts.shape == (1000, 2)
        assert np.all((pts > 0) & (pts < 1))

    def test_endpoints_approach_boundary_and_puncture(self):
        pts, _ = slit_path_witness([0.3, 0.7], CFG2, steps=4000)
        d0 = min(pts[0].min(), (1 - pts[0]).min())
        d1 = math.hypot(pts[-1, 0] - 0.5, pts[-1, 1] - 0.5)
        assert d0 < 5e-3 and d1 < 5e-2

    def test_requires_generic_section(self):
        with pytest.raises(ValueError):
            slit_path_witness(CFG2.z0, CFG2)


def _touching_only(*runs):
    """A faulty `topology._union`: sorted runs are joined only where one
    ends as the next starts, so overlapping runs stay apart."""
    rows, starts, ends = (np.concatenate(x) for x in zip(*runs))
    order = np.lexsort((starts, rows))
    rows, starts, ends = rows[order], starts[order], ends[order]
    new, last = np.ones((2, len(rows)), dtype=bool)
    new[1:] = last[:-1] = (rows[1:] != rows[:-1]) | (starts[1:] != ends[:-1])
    return rows[new], starts[new], ends[last]


def _psi_run_faults(N, a, zs):
    """(z, fault) of each ψ raster whose runs, read before its grid is
    painted, are not row-major, disjoint and maximal ("order"), or are not
    the runs of the painted grid ("grid")."""
    cells = psi_section_cells(N)
    bad = []
    for z in zs:
        r = rasterize_psi_section(z, CFG2, a, N, cells=cells)
        rows, starts, ends = r.row_runs()
        same_row = rows[1:] == rows[:-1]
        ordered = np.all(rows[1:] >= rows[:-1]) and np.all(starts < ends)
        if not (ordered and np.all(~same_row | (starts[1:] > ends[:-1]))):
            bad.append((tuple(z), "order"))
        elif _run_lists(topology._runs(r.occupancy)) != _run_lists((rows, starts, ends)):
            bad.append((tuple(z), "grid"))
    return bad


class TestPsiRowRuns:
    """ψ rasters are the union of the runs of the kernel's boxes, less the
    slit's and the gaps' column ranges."""

    @pytest.mark.parametrize("N, grid", [(256, (1, 2)), (1024, (1, 4))])
    def test_runs_are_maximal_and_equal_the_grid(self, N, grid, monkeypatch):
        """At a = ½, W = (0, ¼) ∪ (¾, 1), and at N = 256 the boxes of its
        two pieces overlap near the centre, on occupied cells: the union
        still gives one set of row-major, disjoint, maximal runs."""
        union, overlaps = topology._union, []

        def counted(*runs):
            out = union(*runs)
            cells = sum(int((e - s).sum()) for _, s, e in runs)
            overlaps.append(cells - int((out[2] - out[1]).sum()))
            return out

        monkeypatch.setattr(topology, "_union", counted)
        assert _psi_run_faults(N, 0.5, z_grid(psi_config(CFG2, 0.5), grid)[0]) == []
        assert max(overlaps) > 0 or N == 1024

    def test_fails_on_a_merge_that_only_joins_touching_runs(self, monkeypatch):
        monkeypatch.setattr(topology, "_union", _touching_only)
        assert _psi_run_faults(256, 0.5, z_grid(psi_config(CFG2, 0.5), (1, 2))[0])

    @pytest.mark.parametrize("a, N", [(1.0, 255), (0.5, 256), (0.25, 1024)])
    def test_box_p_equals_disc_to_cylinder(self, a, N, monkeypatch):
        """Each box's p, read from the raster's 1-D axis, is
        `disc_to_cylinder`'s p of its cell centres bit for bit, and its q̄
        is χ⁻¹'s wherever p > 0."""
        cells, (ref_q, ref_p) = psi_section_cells(N), _dense_cells(N)
        annulus_boxes, arc_members = topology._annulus_boxes, topology._arc_members
        boxes, inputs = [], []

        def recorded(*args):
            for box in annulus_boxes(*args):
                boxes.append(box)
                yield box

        def kernel(qbar, p, sd):
            inputs.append((qbar.copy(), p.copy()))
            return arc_members(qbar, p, sd)

        monkeypatch.setattr(topology, "_annulus_boxes", recorded)
        monkeypatch.setattr(topology, "_arc_members", kernel)
        for z in z_grid(psi_config(CFG2, a), (2, 3))[0]:
            rasterize_psi_section(z, CFG2, a, N, cells=cells)
        assert len(boxes) == len(inputs) > 0
        for box, (q, p) in zip(boxes, inputs):
            assert np.array_equal(p.view(np.int64), ref_p[box].view(np.int64))
            inside = p > 0.0
            assert np.array_equal(q[inside].view(np.int64), ref_q[box][inside].view(np.int64))


class TestPsiSections:
    def test_raster_box_covers_disc(self):
        r = rasterize_psi_section([0.3, 0.7], CFG2, a=0.5, N=128)
        assert r.x0 < -DISC_RADIUS and r.x0 + r.side > DISC_RADIUS

    def test_hull_report(self):
        report = check_hull_bound(0.5, EmbeddingConfig(n=2, c=2.0), grid=(3, 3), N=256)
        assert report.all_within_bound
        assert report.hull_equals_section
        assert report.max_hull_area <= 0.5 + report.tolerance
        # the 3x3 grid center lands on the puncture and is skipped
        assert len(report.entries) == 8

    def test_hull_with_an_added_cell_differs_from_section(self, monkeypatch):
        real = topology._holes

        def grown(r):
            # Cell (1, 1) lies in the free margin of every ψ raster.
            return (np.append(x, v) for x, v in zip(real(r), (1, 1, 2)))

        monkeypatch.setattr(topology, "_holes", grown)
        assert not check_hull_bound(0.5, CFG2, grid=(1, 2), N=256).hull_equals_section

    def test_hull_area_counts_the_holes(self, monkeypatch):
        """With an annulus planted as every section, each entry's hull area
        is that of the labelled reference, which fills the hole."""
        section = annulus_fixture(256, inner=0.2, outer=0.3)
        monkeypatch.setattr(topology, "rasterize_psi_section", lambda *args, **kw: section)
        report = check_hull_bound(0.5, CFG2, grid=(1, 2), N=256)
        area = float(np.count_nonzero(_hull_reference(section.occupancy))) * section.cell**2
        assert [e[2] for e in report.entries] == [area, area]
        assert area > section.area() and not report.hull_equals_section

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            check_hull_bound(1.5, CFG2, grid=(2, 2), N=256)

    def test_touching_interval_loop_stays_open(self):
        # at a = 1 the two height intervals share an endpoint; the shared
        # endpoint is a free loop around the band and must not be closed
        # by discretization (it would leave enclosed pockets)
        cfg = EmbeddingConfig(n=2, c=1.0)
        r = rasterize_psi_section((0.025, 0.375), cfg, a=1.0, N=512)
        hull = bounded_hull(r)
        assert np.array_equal(hull.occupancy, r.occupancy)

    def test_empty_section_near_puncture_skipped(self):
        report = check_hull_bound(0.5, CFG2, grid=(2, 2), N=256)
        assert all(len(e) == 4 for e in report.entries)

    def test_empty_raster_of_an_empty_generic_section_passes(self):
        # At a = 1/2, z = (0.5, 0.75): Q2 = 0.9375, so the ball allows
        # only |p - 1/2| < sqrt(1/4 - 0.4375^2) ~ 0.242, while W =
        # (0, 1/4) u (3/4, 1) has |p - 1/2| > 1/4 throughout.  The section
        # is empty, not unresolved, so its empty raster is no error.
        z = (0.5, 0.75)
        sd = section_of_phi(z, psi_config(CFG2, 0.5))
        assert sd.status == "generic" and sd.Q2 == 0.9375
        assert sd.W.intervals == ((0.0, 0.25), (0.75, 1.0))
        assert 0.25**2 > 0.25 - (sd.Q2 - 0.5) ** 2
        ys = np.random.default_rng(0).uniform(-DISC_RADIUS, DISC_RADIUS, size=(2_000_000, 2))
        assert not psi_section_membership_many(ys, z, CFG2, 0.5).any()
        assert not rasterize_psi_section(z, CFG2, a=0.5, N=1024).occupancy.any()
        report = check_hull_bound(0.5, CFG2, grid=(1, 4), N=256)
        assert report.all_within_bound and (*z, 0.0, 0.0) in report.entries


def _runs_reference(occ):
    """Row-wise runs as [rows, starts, ends], by scanning each row cell by
    cell."""
    runs = [[], [], []]
    for i, row in enumerate(occ.astype(bool)):
        j = 0
        while j < len(row):
            if row[j]:
                k = j
                while k < len(row) and row[k]:
                    k += 1
                for part, v in zip(runs, (i, j, k)):
                    part.append(v)
                j = k
            else:
                j += 1
    return runs


class TestRuns:
    def test_matches_row_scan(self):
        rng = np.random.default_rng(3)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            occ = rng.uniform(size=(37, 37)) < density
            assert _run_lists(Raster(n=37, occupancy=occ).row_runs()) == _runs_reference(occ)

    def test_union_of_overlapping_runs(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n, k = int(rng.integers(1, 40)), int(rng.integers(0, 60))
            rows, starts = rng.integers(0, n, k), rng.integers(0, n, k)
            ends = np.minimum(starts + rng.integers(1, 6, k), n)
            ref = np.zeros((n, n), dtype=bool)
            topology._paint(ref, rows, starts, ends)
            half = k // 2
            got = topology._union((rows[:half], starts[:half], ends[:half]), (rows[half:], starts[half:], ends[half:]))
            assert _run_lists(got) == _run_lists(topology._runs(ref))

    def test_fixture_runs(self):
        r = annulus_with_slit_fixture(128)
        assert _run_lists(r.row_runs()) == _runs_reference(r.occupancy)


class TestRunLabels:
    """The run labeller against `ndimage.label` as the reference."""

    @staticmethod
    def _same_count(r):
        assert complement_components(r) == _labels_reference(r.occupancy)[1]

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    @pytest.mark.parametrize("N", [256, 512, 1024])
    def test_criterion_3_phi_rasters(self, c, N):
        cfg = EmbeddingConfig(n=2, c=c)
        for z in z_grid(cfg, (10, 10))[0][:100:10]:
            self._same_count(rasterize_section(z, cfg, N))

    @pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
    def test_psi_rasters_and_hulls(self, a):
        N = 1024
        cells = psi_section_cells(N)
        for z in z_grid(psi_config(CFG2, a), (20, 20))[0][::50]:
            r = rasterize_psi_section(z, CFG2, a, N, cells=cells)
            self._same_count(r)
            assert np.array_equal(bounded_hull(r).occupancy, _hull_reference(r.occupancy))

    @pytest.mark.parametrize("N", [64, 256, 1024])
    def test_fixtures(self, N):
        for fixture in (annulus_fixture, annulus_with_slit_fixture, disk_fixture):
            self._same_count(fixture(N))

    def test_random_rasters(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            n = int(rng.integers(1, 160))
            occ = rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.9)
            self._same_count(Raster(n=n, occupancy=occ))

    def test_full_and_empty(self):
        for n in (1, 2, 64):
            assert complement_components(Raster(n=n, occupancy=np.ones((n, n), dtype=bool))) == 1
            assert complement_components(Raster(n=n, occupancy=np.zeros((n, n), dtype=bool))) == 1


class TestSharedGeometry:
    @pytest.mark.parametrize(
        "n, c",
        [(2, 1.0), (2, 1.5), (2, 2.0), (2, math.pi), (2, 7.0), (3, 1.5), (3, 2.0), (3, math.pi)],
    )
    def test_phi_raster_equals_per_cell_reference(self, n, c):
        """Occupancy from the 1-D height axis equals the per-cell path, λ⁻¹
        of every cell centre with the slit-angle test, plus the same slit
        corridor, bit for bit.  The z include z1 = ½, whose slit is an
        axis or diagonal ray at c ∈ {1, 1.5, 2, 7}, and two-piece W."""
        cfg = EmbeddingConfig(n=n, c=c)
        zs = np.concatenate([z_grid(cfg, (1, 2))[0], z_grid(cfg, (2, 4))[0]])
        assert zs[0][0] == 0.5
        pieces = [len(section_of_phi(z, cfg).W.intervals) for z in zs]
        assert 2 in pieces
        for N in (255, 256):
            for z in zs:
                got = rasterize_section(z, cfg, N)
                sd = section_of_phi(z, cfg)
                ref = section_membership_many(_cell_centers(got), sd, cfg)
                _free_segment(ref, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
                assert ref.any()
                assert np.array_equal(got.occupancy, ref), (N, z)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi, 600.0])
    def test_phi_heights_decided_once_per_axis_cell(self, c, monkeypatch):
        """W tested on the 1-D height axis and spread by the lower of each
        cell's two heights equals W tested at every cell's height
        min(h_i, h_j), bit for bit, before the slit corridor."""
        monkeypatch.setattr(topology, "_slit_cover", _no_cover)
        cfg = EmbeddingConfig(n=2, c=c)
        for N in (64, 255, 256, 1023, 1024):
            u = Raster(n=N, occupancy=np.zeros((N, N), dtype=bool)).cell_offsets() - 0.5
            h = 1.0 - 4.0 * (u * u)
            for z in z_grid(cfg, (7, 9))[0]:
                sd = section_of_phi(z, cfg)
                ref = sd.W.contains_many(np.minimum.outer(h, h))
                assert np.array_equal(rasterize_section(sd, cfg, N).occupancy, ref), (N, z)

    @pytest.mark.parametrize(
        "n, a, zs",
        [
            (2, 1.0, [(0.025, 0.375), (0.3, 0.7)]),  # touching intervals at a = 1
            (2, 1 / math.pi, [(0.3, 0.7), (0.61, 2.9)]),
            (3, 0.5, [(0.3, 0.7, 0.2, 0.6), (0.45, 1.2, 0.5, 0.5)]),
        ],
    )
    def test_psi_shared_cells(self, n, a, zs):
        cfg = EmbeddingConfig(n=n, c=2.0)
        cells = psi_section_cells(256)
        for z in zs:
            shared = rasterize_psi_section(z, cfg, a, 256, cells=cells)
            own = rasterize_psi_section(z, cfg, a, 256)
            assert own.occupancy.any()
            assert np.array_equal(shared.occupancy, own.occupancy)
            assert (shared.x0, shared.side) == (own.x0, own.side)

    @pytest.mark.parametrize("N, chunk", [(64, None), (1024, None), (333, 4099), (1000, 4099)])
    def test_psi_grid_cells_equal_point_cells(self, N, chunk, monkeypatch):
        """ψ angles built from the raster's 1-D axis, in blocks of whole
        rows (at most `_BLOCK_ELEMENTS // N` of them per χ⁻¹ call), equal
        χ⁻¹ of its N² cell centres bit for bit wherever p > 0, as an (N, N)
        array indexed like the grid; χ⁻¹ runs only on the rectangles of the
        row blocks the disc meets, and q̄ is 0 on the other cells."""
        from cubewrap.topology import _psi_blank

        centres = _cell_centers(_psi_blank(N))
        ref_q, ref_p = disc_to_cylinder(centres[..., 0], centres[..., 1])
        if chunk is not None:
            monkeypatch.setattr(topology, "_BLOCK_ELEMENTS", chunk)
        shapes = []
        monkeypatch.setattr(
            topology, "disc_to_cylinder", lambda x, y: shapes.append((len(x), len(y))) or disc_to_cylinder(x, y)
        )
        got = psi_section_cells(N)
        assert got.shape == (N, N)
        assert max(rows for rows, _ in shapes) <= min(N, topology._BLOCK_ELEMENTS // N)
        assert len(shapes) > 1 or N == 64
        assert sum(rows * cols for rows, cols in shapes) < 0.9 * N * N
        inside = ref_p > 0.0
        assert np.array_equal(got[inside].view(np.int64), ref_q[inside].view(np.int64))
        assert np.all((got == ref_q) | (got == 0.0))

    def test_cells_of_another_raster_rejected(self):
        qbar = psi_section_cells(256)
        for cells in [psi_section_cells(128), qbar[:-1], qbar[:, :-1]]:
            with pytest.raises(ValueError, match="N = 256"):
                rasterize_psi_section([0.3, 0.7], CFG2, 0.5, 256, cells=cells)

    def test_hull_report_equals_per_z_recomputation(self):
        a, N = 0.5, 256
        cfg = EmbeddingConfig(n=2, c=2.0)
        entries, tols = [], []
        for zi in (np.arange(3) + 0.5) / 3:
            for zj in (np.arange(3) + 0.5) / 3 * 2.0:
                if math.hypot(zi - 0.5, zj - 1.0) < 1e-3:
                    continue
                r = rasterize_psi_section((zi, zj), cfg, a, N)
                hull = bounded_hull(r)
                tols.append(4.0 * r.perimeter_estimate() / N)
                entries.append((float(zi), float(zj), hull.area(), r.area()))
        report = check_hull_bound(a, cfg, grid=(3, 3), N=N)
        assert report.entries == tuple(entries)
        assert report.tolerance == max(tols)
        assert report.max_hull_area == max(e[2] for e in entries)


def _arc_reference(qbar, p, sd):
    """ψ's arc predicate on every cell at once, in the float steps of
    `sections._arc_members`, with no blocks and no boxes, and with no
    clamp on |p2 − ½|: at c = 1e300 its square overflows to inf, so
    B = −inf and no cell is a member, as in the kernel."""
    c = sd.c
    shift, m2, base = sections._arc_terms(sd)
    p2 = sd.P2bar + p * -c
    p2 = np.where(p2 < 0.0, p2 + c, p2)
    m = np.maximum(np.abs(p2 - 0.5), m2)
    with np.errstate(over="ignore"):
        B = np.minimum(base - m * m, (0.5 - sections.SLIT_TOL) ** 2)
    q1 = qbar + shift
    q1 = q1 - np.floor(q1) - 0.5
    return ((p - 0.5) * (p - 0.5) < B) & (q1 * q1 < B)


def _mutant(fn, old, new):
    """fn recompiled in its own module's namespace with one piece of its
    source replaced: a planted fault."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


def _band_cases(a, N):
    """(section, config) pairs at a: a z grid at n = 2, off-centre tails
    at n = 3, and W with an end at the height ½, where a member can have
    a height arbitrarily close to the end."""
    cases = []
    for n, tails in [(2, [()]), (3, [(0.3, 0.65), (0.55, 0.2)])]:
        config = EmbeddingConfig(n=n, c=2.0)
        cfg = psi_config(config, a)
        for z in z_grid(cfg, (2, 3))[0]:
            for t in tails:
                cases.append((section_of_phi((*z[:2], *t), cfg), config))
    sd, c = cases[0][0], psi_config(CFG2, a).c
    for P2bar in (c / 2, reduce(c / 2 + 1.0, c)):
        cases.append((replace(sd, P2bar=P2bar, W=preimage_affine_mod(P2bar, c)), CFG2))
    return cases


def _knife_edge_cases(N):
    """Sections at a = 1 whose arc bound B_max is the least float that
    keeps one cell of the column x = 0 of an odd-N raster a member, with
    Q2 = 0.8 and p2 = ½ there, so that the band of heights ends exactly
    at that cell: the outer circle passes through its centre and decides
    whether its row is tested.  p is read from the raster's axis."""
    qbar = psi_section_cells(N)
    mid, r = N // 2, topology._psi_blank(N)
    axis = r.x0 + r.cell_offsets()
    assert axis[mid] == 0.0
    p = 1.0 - math.pi * (axis * axis + axis[mid] * axis[mid])
    config = EmbeddingConfig(n=3, c=2.0)
    sd = section_of_phi((0.3, 0.7, 0.5, 0.5), psi_config(config, 1.0))
    cases = []
    for i in range(mid):
        ps = p[i]
        if not 0.12 < ps < 0.28:
            continue
        P2bar = ps + 0.5

        def member(t):
            edge = replace(sd, z=(0.3, 0.7, t, 0.5), Q2=0.8, P2bar=P2bar)
            return _arc_reference(qbar[i, mid], ps, edge), edge

        t = 0.5 + math.sqrt(0.25 - 0.09 - (ps - 0.5) ** 2)
        while not member(t)[0]:
            t = np.nextafter(t, 0.0)
        while member(np.nextafter(t, 1.0))[0]:
            t = np.nextafter(t, 1.0)
        edge = member(t)[1]
        cases.append((replace(edge, W=preimage_affine_mod(P2bar, 1.0)), config))
    assert len(cases) > 10
    return cases


def _dense_cells(N):
    """(q̄, p) = χ⁻¹ of every cell centre of a ψ raster, as two (N, N)
    arrays: the dense reference for the kernel's inputs."""
    centres = _cell_centers(topology._psi_blank(N))
    return disc_to_cylinder(centres[..., 0], centres[..., 1])


def _band_mismatches(cases, a, N, monkeypatch):
    """The sections of `cases` whose banded raster, before the slit and the
    gaps are cut, differs from `_arc_reference` on all N² cells."""
    monkeypatch.setattr(topology, "_slit_cover", _no_cover)
    monkeypatch.setattr(topology, "_gap_cover", _no_gap_cover)
    cells, dense = psi_section_cells(N), _dense_cells(N)
    bad = []
    for sd, config in cases:
        ref = _arc_reference(*dense, sd)
        got = rasterize_psi_section(sd, config, a, N, cells=cells).occupancy
        if not np.array_equal(got, ref):
            bad.append(sd.z)
    return bad


class TestPsiBands:
    """ψ rasters run the arc kernel only on the boxes of the annuli whose
    heights can pass (`sections._arc_heights`, `topology._annulus_boxes`)."""

    @pytest.mark.parametrize("N", [64, 256, 333, 1024])
    @pytest.mark.parametrize("a", [1.0, 0.999, 0.5, 0.3, 0.25, 1e-3, 1e-6, 1e-15, 1e-16, 1e-300])
    def test_banded_raster_equals_the_dense_kernel(self, a, N, monkeypatch):
        assert _band_mismatches(_band_cases(a, N), a, N, monkeypatch) == []

    @pytest.mark.parametrize("N", [255, 333])
    def test_band_edge_through_a_cell_centre(self, N, monkeypatch):
        assert _band_mismatches(_knife_edge_cases(N), 1.0, N, monkeypatch) == []

    @pytest.mark.parametrize(
        "fault", ["narrower-box", "no-slack", "hole-at-nearest-row", "second-piece-of-w-dropped"]
    )
    def test_fails_on_planted_faults(self, fault, monkeypatch):
        if fault == "no-slack":
            monkeypatch.setattr(sections, "_HEIGHT_SLACK", 0.0)
        elif fault == "second-piece-of-w-dropped":
            old, new = "in sd.W.intervals:", "in sd.W.intervals[:1]:"
            monkeypatch.setattr(topology, "_arc_heights", _mutant(sections._arc_heights, old, new))
        else:
            old, new = {
                "narrower-box": ("yield rows, cols", "yield rows, slice(cols.start, cols.stop - 1)"),
                "hole-at-nearest-row": ("rr_in - far", "rr_in - near"),
            }[fault]
            monkeypatch.setattr(topology, "_annulus_boxes", _mutant(topology._annulus_boxes, old, new))
        cases = [(_knife_edge_cases(N), 1.0, N) for N in (255, 333)]
        cases.append((_band_cases(0.5, 1024), 0.5, 1024))
        assert any(_band_mismatches(*case, monkeypatch) for case in cases)

    def test_kernel_sees_under_half_the_cells_of_the_benchmark_hulls(self, monkeypatch):
        """Over the hull checks of `topology --hull --N 1024 --grid 1x4` at
        a = 1, ½, ¼, the kernel sees under half of the 12·N² cells, and
        two sections, whose ball bound leaves no height of W, skip it."""
        N, seen = 1024, []
        arc_members = topology._arc_members

        def counted(qbar, p, sd):
            seen[-1] += qbar.size
            return arc_members(qbar, p, sd)

        rasterize = topology.rasterize_psi_section
        monkeypatch.setattr(topology, "_arc_members", counted)
        monkeypatch.setattr(
            topology, "rasterize_psi_section", lambda *args, **kw: seen.append(0) or rasterize(*args, **kw)
        )
        for a in (1.0, 0.5, 0.25):
            check_hull_bound(a, CFG2, grid=(1, 4), N=N)
        assert len(seen) == 12 and seen.count(0) == 2
        assert sum(seen) <= 0.5 * 12 * N * N


class TestSectionKnowsItsC:
    """A SectionDescription records the c it was built for, and a caller
    given a config of another c rejects it instead of mixing the two."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sd: rasterize_section(sd, EmbeddingConfig(c=4.0), 256),
            lambda sd: rasterize_psi_section(sd, CFG2, 0.25, 256),
            lambda sd: section_membership_many(np.full((3, 2), 0.3), sd, EmbeddingConfig(c=4.0)),
            lambda sd: psi_section_membership_many(np.zeros((3, 2)), sd, CFG2, 0.25),
        ],
        ids=["phi-raster", "psi-raster", "phi-membership", "psi-membership"],
    )
    def test_section_of_another_c_raises(self, call):
        sd = section_of_phi((0.3, 0.7), CFG2)
        with pytest.raises(ValueError, match=r"built for c = 2\.0, not c = 4\.0"):
            call(sd)

    def test_every_status_records_c(self):
        cfg = EmbeddingConfig(c=3.0)
        sds = [section_of_phi(z, cfg) for z in [(0.3, 0.7), cfg.z0, (1.5, 0.5)]]
        assert [sd.status for sd in sds] == ["generic", "puncture", "empty"]
        assert {sd.c for sd in sds} == {3.0}
        # built for the config's own c, a section is taken as given
        assert rasterize_psi_section(sds[0], CFG2, 1 / 3.0, 64).area() > 0


class TestHalfDimensionThree:
    """At n = 3 the z grids put the trailing pair at the cube centre,
    where no section changes: every section check equals its n = 2 value,
    which is why only the CLI's `verify` takes --n."""

    CFG3 = EmbeddingConfig(n=3, c=2.0)

    def test_fubini_check_equals_n2(self):
        kw = dict(grid=(4, 4), mc_spots=1, samples_per_spot=20_000, seed=0)
        fr = fubini_check(self.CFG3, **kw)
        assert fr == fubini_check(CFG2, **kw)
        assert fr.max_area == fr.min_generic_area == 0.5 and fr.mc_spots
        assert section_of_phi((0.5, 1.0, 0.5, 0.5), self.CFG3).status == "puncture"

    def test_connectivity_equals_n2(self):
        zs3, zs2 = z_grid(self.CFG3, (1, 2))[0], z_grid(CFG2, (1, 2))[0]
        assert len(zs3) == len(zs2) == 2
        for z3, z2 in zip(zs3, zs2):
            ok3, rep3 = check_complement_connected(z3, self.CFG3, 256)
            ok2, rep2 = check_complement_connected(z2, CFG2, 256)
            assert ok3 and ok2 and rep3.z[:2] == rep2.z
            assert {**rep3.__dict__, "z": rep2.z} == rep2.__dict__

    def test_connectivity_z_has_trailing_centre(self):
        for z in z_grid(self.CFG3, (1, 2))[0]:
            _, rep = check_complement_connected(z, self.CFG3, 256)
            assert len(rep.z) == 4 and rep.z[2:] == (0.5, 0.5)

    def test_hull_bound_equals_n2(self):
        hr = check_hull_bound(0.5, self.CFG3, grid=(2, 2), N=256)
        assert hr == check_hull_bound(0.5, CFG2, grid=(2, 2), N=256)
        assert hr.all_within_bound and hr.hull_equals_section
