import math

import numpy as np
import pytest

from cubewrap.maps import DISC_RADIUS, EmbeddingConfig
from cubewrap.sections import SectionCells, section_membership_many, section_of_phi, z_grid
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
    phi_section_cells,
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
        cells = phi_section_cells(256)
        occ = section_membership_many(cells.points, [0.3, 0.7], CFG2, cells=cells)
        closed = Raster(n=256, occupancy=occ.reshape(256, 256))
        opened = rasterize_section([0.3, 0.7], CFG2, 256)
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
        "n, c, zs",
        [
            (2, 1.0, [(0.3, 0.7), (0.8, 0.15)]),
            (2, math.pi, [(0.3, 0.7), (0.6, 2.9)]),
            (3, 2.0, [(0.3, 0.7, 0.2, 0.6), (0.45, 1.2, 0.5, 0.5)]),
        ],
    )
    def test_phi_shared_cells(self, n, c, zs):
        cfg = EmbeddingConfig(n=n, c=c)
        cells = phi_section_cells(256)
        for z in zs:
            shared = rasterize_section(z, cfg, 256, cells=cells)
            own = rasterize_section(z, cfg, 256)
            assert own.occupancy.any()
            assert np.array_equal(shared.occupancy, own.occupancy)

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
        rows, equal `SectionCells.psi` of its cell centres bit for bit."""
        import cubewrap.sections as sec
        from cubewrap.topology import _psi_blank

        ref = SectionCells.psi(_psi_blank(N).cell_centers().reshape(-1, 2))
        if chunk is not None:
            monkeypatch.setattr(sec, "_CHUNK", chunk)
        got = psi_section_cells(N)
        for name in ("points", "inside", "qbar", "p"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_cells_of_another_raster_rejected(self):
        with pytest.raises(ValueError):
            rasterize_section([0.3, 0.7], CFG2, 128, cells=phi_section_cells(256))
        with pytest.raises(ValueError):
            # same cell count, box of the φ raster
            other_box = SectionCells.psi(phi_section_cells(256).points)
            rasterize_psi_section([0.3, 0.7], CFG2, 0.5, 256, cells=other_box)

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
