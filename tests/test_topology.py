import math

import numpy as np
import pytest

import cubewrap.topology as topology
from cubewrap.maps import DISC_RADIUS, EmbeddingConfig, disc_to_cylinder, make_lambda
from cubewrap.sections import section_membership_many, section_of_phi, z_grid
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
    slit_polyline,
)

CFG2 = EmbeddingConfig(n=2, c=2.0)


class TestRaster:
    def test_cell_geometry(self):
        r = Raster(n=4, occupancy=np.zeros((4, 4), dtype=bool), x0=1.0, y0=2.0, side=2.0)
        assert r.cell == 0.5
        cc = r.cell_centers()
        assert cc[0, 0].tolist() == [1.25, 2.25]
        assert cc[3, 3].tolist() == [2.75, 3.75]

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
        Raster(n=4, occupancy=occ).to_pgm(path)
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
        labels = complement_components(annulus_fixture())
        assert labels.count == 2
        assert len(labels.boundary_touching) == 1

    def test_slit_annulus_complement_connected(self):
        labels = complement_components(annulus_with_slit_fixture())
        assert labels.count == 1

    def test_disk_complement_connected(self):
        assert complement_components(disk_fixture()).count == 1

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

    def test_matches_isin_reference_with_and_without_holes(self):
        def reference(r):
            labels = complement_components(r)
            inner = labels.interior_labels
            bounded = ~np.isin(inner, labels.boundary_touching) & (inner > 0)
            return r.occupancy | bounded

        rng = np.random.default_rng(4)
        rasters = [disk_fixture(), annulus_with_slit_fixture(), annulus_fixture()]
        for density in (0.05, 0.3, 0.55, 0.7):
            occ = rng.uniform(size=(48, 48)) < density
            occ[[0, -1], :] = occ[:, [0, -1]] = False
            rasters.append(Raster(n=48, occupancy=occ))
        holes = []
        for r in rasters:
            labels = complement_components(r)
            hull = bounded_hull(r)
            assert np.array_equal(hull.occupancy, reference(r))
            assert hull.occupancy is not r.occupancy
            holes.append(len(labels.boundary_touching) < labels.count)
            if not holes[-1]:
                assert np.array_equal(hull.occupancy, r.occupancy)
        assert holes[:3] == [False, False, True] and True in holes[3:]

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
        # Cell-centre membership alone, with no slit stamp.
        opened = rasterize_section([0.3, 0.7], CFG2, 256)
        occ = section_membership_many(opened.cell_centers(), [0.3, 0.7], CFG2)
        closed = Raster(n=256, occupancy=occ)
        assert complement_components(closed).count >= 2
        assert complement_components(opened).count == 1
        assert opened.occupancy.sum() <= closed.occupancy.sum()

    def test_slit_samples_avoid_cell_edges(self):
        # At z1 = ½ and c = 1.5 the slit runs along a diagonal of the
        # square; samples on cell corners there leave the stamp to
        # floor()'s rounding.
        N = 1024
        cfg = EmbeddingConfig(n=2, c=1.5)
        zs = z_grid(cfg, (1, 2))[0]
        assert [z[0] for z in zs] == [0.5, 0.5]
        for z in zs:
            # A φ raster has x0 = y0 = 0 and cells of side 1/N.
            g = slit_polyline(section_of_phi(z, cfg), 8 * N) * N
            assert not np.any(g == np.floor(g))


def _slit_cover(sd, N):
    """The closed cells of an N-cell φ raster that the open slit segment,
    from the puncture (½, ½) to the rim point λ(slit angle, 0), meets.

    Worked in grid units, where the segment is N/2 + s·d, s ∈ (0, 1): a
    cell [i, i+1] × [j, j+1] meets it iff the s-intervals of its two
    slabs overlap inside (0, 1).  For an axis or diagonal slit, d has
    entries 0 or ±N/2 and every slab bound is a correctly rounded
    quotient, so touches at cell edges and corners count."""
    rim = make_lambda().forward(np.array([[sd.slit_angle, 0.0]]))[0]
    d = (rim - 0.5) * N
    k = np.arange(N, dtype=float) - 0.5 * N

    def slab(dk):
        if dk == 0.0:
            hit = (k <= 0.0) & (0.0 <= k + 1.0)
            return np.where(hit, -np.inf, np.inf), np.where(hit, np.inf, -np.inf)
        a, b = k / dk, (k + 1.0) / dk
        return np.minimum(a, b), np.maximum(a, b)

    (lo_x, hi_x), (lo_y, hi_y) = slab(d[0]), slab(d[1])
    lo, hi = np.maximum.outer(lo_x, lo_y), np.minimum.outer(hi_x, hi_y)
    return (lo <= hi) & (lo < 1.0) & (hi > 0.0)


def _slit_cases():
    """z1 = ½ gives an axis slit at c = 1 and 2 and a diagonal one at
    c = 1.5; the other z are generic."""
    for c in (1.0, 1.5, 2.0, math.pi):
        cfg = EmbeddingConfig(n=2, c=c)
        for z in [*z_grid(cfg, (1, 2))[0], (0.3, 0.7), (0.8, 0.15 * c)]:
            yield cfg, section_of_phi(z, cfg)


class TestSlitCorridor:
    def test_cover_of_a_diagonal_slit_counts_corner_touches(self):
        sd = section_of_phi((0.5, 0.375), EmbeddingConfig(n=2, c=1.5))
        cover = _slit_cover(sd, 8)
        # The ray from (4, 4) towards (8, 0) in grid units: the cells it
        # crosses, plus those it touches at a corner only.
        crossed = {(4, 3), (5, 2), (6, 1), (7, 0)}
        corners = {(4, 2), (5, 3), (5, 1), (6, 2), (6, 0), (7, 1)}
        assert set(zip(*np.nonzero(cover))) == crossed | corners

    @pytest.mark.parametrize("N", [255, 256, 512])
    def test_every_cell_the_slit_meets_is_free(self, N):
        for cfg, sd in _slit_cases():
            r = rasterize_section(sd, cfg, N)
            cover = _slit_cover(sd, N)
            assert r.occupancy.any() and cover.any()
            assert not (r.occupancy & cover).any(), (cfg.c, sd.z, N)

    def test_fails_on_a_stamp_that_frees_only_the_sample_cells(self, monkeypatch):
        def own_cells(occupancy, pts, x0, y0, cell, n):
            ii = np.floor((pts[:, 0] - x0) / cell).astype(int)
            jj = np.floor((pts[:, 1] - y0) / cell).astype(int)
            occupancy[ii, jj] = False

        monkeypatch.setattr(topology, "_stamp_polyline", own_cells)
        N = 256
        left = [
            sd.slit_angle
            for cfg, sd in _slit_cases()
            if (rasterize_section(sd, cfg, N).occupancy & _slit_cover(sd, N)).any()
        ]
        assert {0.25, 0.5, 0.875} <= set(left)


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


class TestSharedGeometry:
    @pytest.mark.parametrize(
        "n, c",
        [(2, 1.0), (2, 1.5), (2, 2.0), (2, math.pi), (2, 7.0), (3, 1.5), (3, 2.0), (3, math.pi)],
    )
    def test_phi_raster_equals_per_cell_reference(self, n, c):
        """Occupancy from the 1-D height axis equals the per-cell path, λ⁻¹
        of every cell centre with the slit-angle test, plus the same
        stamp, bit for bit.  The z include z1 = ½, whose slit is an axis
        or diagonal ray at c ∈ {1, 1.5, 2, 7}, and two-piece W."""
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
                topology._stamp_polyline(ref, slit_polyline(sd, 8 * N), 0.0, 0.0, 1.0 / N, N)
                assert ref.any()
                assert np.array_equal(got.occupancy, ref), (N, z)

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
        rows, equal χ⁻¹ of its N² cell centres bit for bit, in row-major
        order; cells outside the disc included."""
        from cubewrap.topology import _psi_blank

        centres = _psi_blank(N).cell_centers().reshape(-1, 2)
        ref = disc_to_cylinder(centres[:, 0], centres[:, 1])
        if chunk is not None:
            monkeypatch.setattr(topology, "_CHUNK", chunk)
        got = psi_section_cells(N)
        assert len(got) == 2
        for g, r in zip(got, ref):
            assert g.shape == (N * N,)
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
