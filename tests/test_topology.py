import inspect
import math
import sys
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
    slit_path_witness,
)

CFG2 = EmbeddingConfig(n=2, c=2.0)


def _labels_reference(occ):
    """`ndimage.label`'s 4-connected labels and count of the free cells,
    with a one-cell free ring around the box."""
    return ndimage.label(~np.pad(occ.astype(bool), 1))


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
        cc = r.cell_centers()
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
        runs = Raster(n=6, occupancy=occ).runs()
        rebuilt = np.zeros((6, 6), dtype=bool)
        for i, j, ln in runs:
            rebuilt[i, j : j + ln] = True
        assert np.array_equal(rebuilt, occ)
        assert runs.tolist() == [[2, 1, 3], [4, 5, 1]]


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
        t = (np.arange(N) + 0.5) / N
        X, Y = np.meshgrid(t, t, indexing="ij")
        rho = np.hypot(X - 0.5, Y - 0.5)
        annulus = (rho > 0.2) & (rho < 0.4)
        on_ray = (np.abs(Y - 0.5) < 1.5 / N) & (X > 0.5)
        assert np.array_equal(annulus_fixture(N).occupancy, annulus)
        assert np.array_equal(annulus_with_slit_fixture(N).occupancy, annulus & ~on_ray)
        assert np.array_equal(disk_fixture(N).occupancy, rho < 0.3)


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
        occ = section_membership_many(opened.cell_centers(), [0.3, 0.7], CFG2)
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


def _sample_cells_only(occupancy, start, end, x0, cell):
    """A faulty corridor: frees only the cells that hold one of 8N
    samples of the segment."""
    s = (np.arange(8 * len(occupancy)) + 0.5) / (8 * len(occupancy))
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    ij = np.floor((start + s[:, None] * (end - start) - x0) / cell).astype(int)
    occupancy[ij[:, 0], ij[:, 1]] = False


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
            topology._free_segment(occ, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
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
        topology._free_segment(occ, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
        for i, j in [(114, 153), (100, 178), (58, 253)]:
            assert not occ[i - 1 : i + 1, j - 1 : j + 1].any(), (i, j)
            assert _slit_cover(sd, N)[i - 1 : i + 1, j - 1 : j + 1].sum() == 3

    def test_fails_on_a_stamp_that_frees_only_the_sample_cells(self, monkeypatch):
        monkeypatch.setattr(topology, "_free_segment", _sample_cells_only)
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
            occ = np.ones((N, N), dtype=bool)
            topology._free_band(occ, r, radius, radius)
            assert np.array_equal(~occ, _band_cover(r, radius, radius)), (N, radius)

    @pytest.mark.parametrize("N", [64, 255, 256, 1024])
    def test_band_frees_exactly_the_cells_the_annulus_meets(self, N):
        r = topology._psi_blank(N)
        for r_in, r_out in DISC_RADIUS * np.array([[0.0, 0.01], [0.1, 0.1 + 0.3 / N], [0.5, 0.52], [0.9, 1.0]]):
            occ = np.ones((N, N), dtype=bool)
            topology._free_band(occ, r, r_in, r_out)
            assert np.array_equal(~occ, _band_cover(r, r_in, r_out)), (N, r_in, r_out)

    def test_fails_on_a_ring_omission(self, monkeypatch):
        monkeypatch.setattr(topology, "_free_band", lambda occupancy, r, r_in, r_out: None)
        left = _psi_left_on_curves(256)
        assert left and {curve for _, _, curve in left} == {"ring"}

    def test_fails_on_a_corridor_that_frees_only_the_sample_cells(self, monkeypatch):
        monkeypatch.setattr(topology, "_free_segment", _sample_cells_only)
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

    @pytest.mark.parametrize("c", [600.0, 1e4])
    def test_section_thinner_than_a_cell_is_an_error(self, c):
        # the section has area 1/c > 0, yet no cell centre of the raster
        # lies in it: an empty raster would pass on nothing
        z, cfg = (0.5, c / 4), EmbeddingConfig(c=c)
        assert not rasterize_section(z, cfg, 256).occupancy.any()
        with pytest.raises(ValueError, match=rf"z = \({z[0]}, {z[1]}\) \(c = {c}\).*N = 256.*--N"):
            check_complement_connected(z, cfg, 256)


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
        real = topology.bounded_hull

        def grown(r):
            hull = real(r)
            free = np.argwhere(~hull.occupancy[1:-1, 1:-1])[0] + 1
            hull.occupancy[tuple(free)] = True
            return hull

        monkeypatch.setattr(topology, "bounded_hull", grown)
        assert not check_hull_bound(0.5, CFG2, grid=(1, 2), N=256).hull_equals_section

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
    """Row-wise runs by scanning each row cell by cell."""
    runs = []
    for i, row in enumerate(occ.astype(bool)):
        j = 0
        while j < len(row):
            if row[j]:
                k = j
                while k < len(row) and row[k]:
                    k += 1
                runs.append([i, j, k - j])
                j = k
            else:
                j += 1
    return runs


class TestRuns:
    def test_matches_row_scan(self):
        rng = np.random.default_rng(3)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            occ = rng.uniform(size=(37, 37)) < density
            assert Raster(n=37, occupancy=occ).runs().tolist() == _runs_reference(occ)

    def test_fixture_runs(self):
        r = annulus_with_slit_fixture(128)
        assert r.runs().tolist() == _runs_reference(r.occupancy)


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
                ref = section_membership_many(got.cell_centers(), sd, cfg)
                topology._free_segment(ref, (0.5, 0.5), _phi_rim(sd), 0.0, 1.0 / N)
                assert ref.any()
                assert np.array_equal(got.occupancy, ref), (N, z)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi, 600.0])
    def test_phi_heights_decided_once_per_axis_cell(self, c, monkeypatch):
        """W tested on the 1-D height axis and spread by the lower of each
        cell's two heights equals W tested at every cell's height
        min(h_i, h_j), bit for bit, before the slit corridor."""
        monkeypatch.setattr(topology, "_free_segment", lambda *args: None)
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
        """ψ cells built from the raster's 1-D axis, in blocks of whole
        rows (`_BLOCK_ELEMENTS // N` of them, counted by the χ⁻¹ calls),
        equal χ⁻¹ of its N² cell centres bit for bit, as (N, N) arrays
        indexed like the occupancy; cells outside the disc included."""
        from cubewrap.topology import _psi_blank

        centres = _psi_blank(N).cell_centers()
        ref = disc_to_cylinder(centres[..., 0], centres[..., 1])
        if chunk is not None:
            monkeypatch.setattr(topology, "_BLOCK_ELEMENTS", chunk)
        rows = []
        monkeypatch.setattr(
            topology, "disc_to_cylinder", lambda x, y: rows.append(len(x)) or disc_to_cylinder(x, y)
        )
        got = psi_section_cells(N)
        assert sum(rows) == N and max(rows) == min(N, topology._BLOCK_ELEMENTS // N)
        assert len(rows) > 1 or N == 64
        assert len(got) == 2
        for g, r in zip(got, ref):
            assert g.shape == (N, N)
            assert np.array_equal(g.view(np.int64), r.view(np.int64))

    def test_cells_of_another_raster_rejected(self):
        qbar, p = psi_section_cells(256)
        for cells in [psi_section_cells(128), (qbar, p[:-1]), (qbar[:-1], p)]:
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
    whether its row is tested."""
    qbar, p = psi_section_cells(N)
    mid, r = N // 2, topology._psi_blank(N)
    assert r.x0 + r.cell_offsets()[mid] == 0.0
    config = EmbeddingConfig(n=3, c=2.0)
    sd = section_of_phi((0.3, 0.7, 0.5, 0.5), psi_config(config, 1.0))
    cases = []
    for i in range(mid):
        ps = p[i, mid]
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


def _band_mismatches(cases, a, N, monkeypatch):
    """The sections of `cases` whose banded raster, before the slit and the
    gaps are freed, differs from `_arc_reference` on all N² cells."""
    monkeypatch.setattr(topology, "_free_segment", lambda *args: None)
    monkeypatch.setattr(topology, "_free_band", lambda *args: None)
    cells = psi_section_cells(N)
    bad = []
    for sd, config in cases:
        ref = _arc_reference(*cells, sd)
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

        def counted(qbar, p, sd, out=None):
            seen[-1] += qbar.size
            return arc_members(qbar, p, sd, out=out)

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
