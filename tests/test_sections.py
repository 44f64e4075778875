import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composed_maps import SectorKappa, composed_lambda
from cubewrap.maps import EmbeddingConfig, build_phi, make_lambda, make_lambda_prime
from cubewrap.quotient import preimage_affine_mod, reduce
from cubewrap.sections import (
    _in_ribbon,
    fubini_check,
    psi_section_membership_many,
    section_area_mc,
    section_membership,
    section_membership_many,
    section_of_phi,
)

CFG2 = EmbeddingConfig(n=2, c=2.0)


class TestVSet:
    """V, the angle circle minus one point, is stored as that point."""

    def test_removed_point(self):
        sd = section_of_phi([0.3, 0.7], CFG2)
        assert sd.slit_angle == reduce(-2.0 * sd.Q2, 1.0).representative
        # a height in W: the ribbon drops the slit angle, keeps its neighbour
        p = np.full(2, sum(sd.W.intervals[0]) / 2)
        qbar = np.mod([sd.slit_angle, sd.slit_angle + 0.01], 1.0)
        assert _in_ribbon(qbar, p, sd).tolist() == [False, True]

    def test_c1_symmetry(self):
        cfg = EmbeddingConfig(n=2, c=1.0)
        sd = section_of_phi([0.3, 0.7], cfg)
        assert sd.slit_angle == reduce(-sd.Q2, 1.0).representative
        # at c = 1, W is all of (0, 1) but one point, and the slit stays out
        assert sd.W.total_length == pytest.approx(1.0, abs=1e-15)
        lam = make_lambda()
        for t in (0.1, 0.45, 0.8):
            assert not section_membership(lam.forward(np.array([sd.slit_angle, t])), sd, cfg)
            assert section_membership(lam.forward(np.array([sd.slit_angle + 0.1, t])), sd, cfg)

    def test_domain(self):
        # z within rounding of the puncture: λ′⁻¹ returns the height 1
        with pytest.raises(ValueError, match="Q2 must be in"):
            section_of_phi([0.5, float(np.nextafter(1.0, 2.0))], CFG2)
        with pytest.raises(ValueError):
            EmbeddingConfig(n=2, c=0.5)


class TestWSet:
    """W, the heights of a generic section, is `preimage_affine_mod`."""

    @staticmethod
    def _section_at(P2, c, Q2=0.3):
        cfg = EmbeddingConfig(n=2, c=c)
        z = make_lambda_prime(c).forward(np.array([Q2, P2]))
        return section_of_phi(z, cfg)

    def test_split_case(self):
        sd = self._section_at(0.5, 2.0)
        assert sd.W == preimage_affine_mod(sd.P2bar, 2.0)
        assert np.allclose(sd.W.intervals, ((0.0, 0.25), (0.75, 1.0)), atol=1e-12)

    def test_single_case(self):
        sd = self._section_at(1.5, 2.0)
        assert sd.W == preimage_affine_mod(sd.P2bar, 2.0)
        assert np.allclose(sd.W.intervals, ((0.25, 0.75),), atol=1e-12)

    def test_period_mismatch(self):
        # P̄2 lives on R/cZ: W cannot be taken against another period
        sd = self._section_at(0.5, 2.0)
        assert sd.P2bar.period == 2.0
        with pytest.raises(ValueError):
            preimage_affine_mod(sd.P2bar, 3.0)
        with pytest.raises(ValueError):
            preimage_affine_mod(reduce(0.5, 1.0), 2.0)

    def test_interval_count_and_length(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = rng.uniform(1, 8)
            sd = self._section_at(rng.uniform(0, c), c, Q2=rng.uniform(0.01, 0.99))
            assert sd.W == preimage_affine_mod(sd.P2bar, c)
            assert len(sd.W.intervals) in (1, 2)
            assert abs(sd.W.total_length - 1 / c) < 1e-12


class TestSectionOfPhi:
    def test_puncture(self):
        sd = section_of_phi(CFG2.z0, CFG2)
        assert sd.status == "puncture" and sd.analytic_area == 0.0

    def test_outside(self):
        assert section_of_phi([2.0, 0.5], EmbeddingConfig(n=2, c=1.0)).status == "empty"
        assert section_of_phi([0.5, -0.1], CFG2).status == "empty"

    def test_generic(self):
        sd = section_of_phi([0.3, 0.7], CFG2)
        assert sd.status == "generic"
        assert sd.analytic_area == 0.5
        assert 0.0 <= sd.slit_angle < 1.0
        assert abs(sd.W.total_length - 0.5) < 1e-12

    def test_n3_tail_handling(self):
        cfg = EmbeddingConfig(n=3, c=2.0)
        assert section_of_phi([0.3, 0.7, 0.5, 0.5], cfg).status == "generic"
        assert section_of_phi([0.3, 0.7, 1.5, 0.5], cfg).status == "empty"

    def test_wrong_z_dimension(self):
        with pytest.raises(ValueError):
            section_of_phi([0.3, 0.7, 0.5], CFG2)

    def test_areas_constant_over_generic_region(self):
        rng = np.random.default_rng(1)
        areas = set()
        for _ in range(100):
            z = (rng.uniform(0.01, 0.99), rng.uniform(0.01, 1.99))
            sd = section_of_phi(z, CFG2)
            if sd.status == "generic":
                areas.add(sd.analytic_area)
        assert areas == {0.5}


class TestMembership:
    def test_puncture_point_excluded(self):
        assert not section_membership((0.5, 0.5), [0.3, 0.7], CFG2)

    def test_outside_square(self):
        assert not section_membership([1.5, 0.5], [0.3, 0.7], CFG2)

    def test_slit_excluded(self):
        lam = make_lambda()
        sd = section_of_phi([0.3, 0.7], CFG2)
        for t in (0.1, 0.45, 0.8):
            y = lam.forward(np.array([sd.slit_angle, t]))
            assert not section_membership(y, sd, CFG2)

    def test_forward_consistency(self):
        # phi(x) decomposes into a square point and a z with membership true.
        phi = build_phi(CFG2)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (300, 4))
        Y = phi.forward(X)
        for row in Y:
            assert section_membership(row[:2], row[2:], CFG2)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_mc_area_matches_analytic(self, c):
        cfg = EmbeddingConfig(n=2, c=c)
        est, se = section_area_mc([0.3, 0.7 * c / 2], samples=200_000, seed=5, config=cfg)
        assert abs(est - 1 / c) < 3 * se


class TestSectionAreaMC:
    def test_puncture_area_zero(self):
        est, se = section_area_mc(CFG2.z0, samples=10_000, seed=0, config=CFG2)
        assert est == 0.0 and se == 0.0

    def test_samples_floor(self):
        with pytest.raises(ValueError):
            section_area_mc([0.3, 0.7], samples=100, seed=0, config=CFG2)

    def test_c1_full_area(self):
        cfg = EmbeddingConfig(n=2, c=1.0)
        est, se = section_area_mc([0.3, 0.7], samples=200_000, seed=1, config=cfg)
        assert abs(est - 1.0) < 3 * max(se, 1e-5)

    def test_deterministic_given_seed(self):
        a1 = section_area_mc([0.3, 0.7], samples=50_000, seed=9, config=CFG2)
        a2 = section_area_mc([0.3, 0.7], samples=50_000, seed=9, config=CFG2)
        assert a1 == a2


class TestFubini:
    def test_analytic_integral_exact(self):
        fr = fubini_check(CFG2, grid=(20, 40))
        assert fr.analytic_integral == pytest.approx(1.0, abs=1e-12)
        assert fr.max_area == 0.5
        assert fr.min_generic_area == 0.5

    def test_mc_integral(self):
        fr = fubini_check(CFG2, grid=(10, 20), mc_spots=5, samples_per_spot=50_000, seed=3)
        assert fr.mc_integral == pytest.approx(1.0, abs=0.02)
        for _, _, est, se in fr.mc_spots:
            assert abs(est - 0.5) < 3 * se


class TestPsiSectionMembership:
    def test_contained_in_scaled_phi_section(self):
        # psi-section area is below the bound a.
        rng = np.random.default_rng(6)
        from cubewrap.maps import DISC_RADIUS

        ys = rng.uniform(-DISC_RADIUS, DISC_RADIUS, (200_000, 2))
        a = 0.5
        m = psi_section_membership_many(ys, [0.3, 0.7], CFG2, a)
        area = m.mean() * (2 * DISC_RADIUS) ** 2
        assert area < a

    def test_empty_outside_rectangle(self):
        m = psi_section_membership_many(np.zeros((10, 2)), [1.5, 0.7], CFG2, 0.5)
        assert not m.any()

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            psi_section_membership_many(np.zeros((1, 2)), [0.3, 0.7], CFG2, 0.0)


# ---------------------------------------------------------------------------
# Batched sections and the shared cylinder geometry


def _section_reference(z, config):
    """Per-z description with λ′ built and inverted for one point."""
    from cubewrap.sections import SectionDescription

    z = tuple(float(v) for v in z)
    c = config.c
    if not (0 < z[0] < 1 and 0 < z[1] < c and all(0 < v < 1 for v in z[2:])):
        return SectionDescription(z=z, status="empty")
    if (z[0], z[1]) == config.z0:
        return SectionDescription(z=z, status="puncture")
    cyl = make_lambda_prime(c).inverse(np.array([z[0], z[1]]))
    Q2, P2bar = float(cyl[0]), reduce(float(cyl[1]), c)
    return SectionDescription(
        z=z, status="generic", Q2=Q2, P2bar=P2bar,
        slit_angle=reduce(-c * Q2, 1.0).representative,
        W=preimage_affine_mod(P2bar, c), analytic_area=1.0 / c,
    )


def _psi_reference(ys, z, config, a, slit_tol=1e-9):
    """ψ membership with every step per z and the ball norm through the
    sector κ⁻¹."""
    from cubewrap.maps import DISC_RADIUS

    c = 1.0 / a
    cfg = EmbeddingConfig(n=config.n, c=c)
    out = np.zeros(ys.shape[:-1], dtype=bool)
    sd = _section_reference(z, cfg)
    if sd.status != "generic":
        return out
    inside = np.hypot(ys[..., 0], ys[..., 1]) < DISC_RADIUS
    kappa = SectorKappa()
    cyl = composed_lambda().inverse(kappa.forward(ys[inside]))
    qbar, p1 = cyl[..., 0], cyl[..., 1]
    ok = (p1 > 0) & (p1 < 1) & sd.W.contains_many(p1)
    d = np.mod(qbar - sd.slit_angle, 1.0)
    ok &= (d > slit_tol) & (d < 1.0 - slit_tol)
    q1 = np.mod(qbar + c * sd.Q2, 1.0)
    p2 = np.mod(sd.P2bar.representative - c * p1, c)
    ok &= (q1 > 0) & (q1 < 1) & (p2 > 0) & (p2 < 1)
    b1 = kappa.inverse(np.stack([q1, p1], axis=-1))
    b2 = kappa.inverse(np.stack([np.full_like(q1, sd.Q2), p2], axis=-1))
    norm2 = np.sum(b1 * b1, axis=-1) + np.sum(b2 * b2, axis=-1)
    for k in range(2, len(sd.z), 2):
        bk = kappa.inverse(np.array(sd.z[k : k + 2]))
        norm2 = norm2 + float(np.sum(bk * bk))
    out[inside] = ok & (norm2 < DISC_RADIUS**2)
    return out


class TestSectionsOfPhi:
    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_batch_equals_per_z(self, c):
        from cubewrap.sections import _inside_generic, z_grid

        cfg = EmbeddingConfig(n=2, c=c)
        generic_z, special_z = z_grid(cfg, (50, 100))
        zs = np.concatenate([generic_z, special_z, [cfg.z0, (1.5, 0.5)]])
        per_z = [section_of_phi(z, cfg) for z in zs]
        assert per_z == [_section_reference(z, cfg) for z in zs]
        assert [sd.status for sd in per_z[-2:]] == ["puncture", "empty"]
        # fubini_check's one mask gives every z the status section_of_phi does
        inside, generic = _inside_generic(zs, cfg)
        status = np.where(generic, "generic", np.where(inside, "puncture", "empty"))
        assert status.tolist() == [sd.status for sd in per_z]
        # and its areas are the per-z analytic areas, bit for bit
        fr = fubini_check(cfg, grid=(50, 100))
        areas = np.array([sd.analytic_area for sd in per_z[:-2]])
        assert fr.analytic_integral == float(areas.mean() * c)
        assert fr.max_area == float(areas.max())
        assert fr.min_generic_area == float(areas[: len(generic_z)].min())

    def test_n3_tail_and_dimension(self):
        cfg = EmbeddingConfig(n=3, c=2.0)
        zs = [[0.3, 0.7, 0.5, 0.5], [0.3, 0.7, 1.5, 0.5], [0.6, 1.1, 0.2, 0.9]]
        assert [section_of_phi(z, cfg) for z in zs] == [_section_reference(z, cfg) for z in zs]
        with pytest.raises(ValueError):
            section_of_phi([0.3, 0.7], cfg)

    def test_fubini_does_not_call_section_of_phi_per_cell(self, monkeypatch):
        import cubewrap.sections as sec

        calls = []
        real = sec.section_of_phi
        monkeypatch.setattr(sec, "section_of_phi", lambda z, cfg: calls.append(z) or real(z, cfg))
        fr = fubini_check(CFG2, grid=(20, 40), mc_spots=1, samples_per_spot=10_000)
        assert fr.generic_cells == 800 and len(calls) == 1


class TestBallNorm:
    @given(u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @example(u=(0.5, 0.5))
    @example(u=(0.2, 0.2))
    @example(u=(0.8, 0.2))
    @example(u=(0.0, 1.0))
    @example(u=(0.0, 0.3))
    @example(u=(0.7, 1.0))
    @example(u=(1.0, 0.5))
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_kappa_inverse(self, u):
        from cubewrap.sections import _ball_norm2

        u = np.array(u)
        via_kappa = np.sum(SectorKappa().inverse(u) ** 2, -1)
        closed = _ball_norm2(u[0], u[1])
        assert closed == pytest.approx(4 / math.pi * np.max(np.abs(u - 0.5)) ** 2, abs=0, rel=1e-15)
        assert abs(via_kappa - closed) <= 4 * np.spacing(closed)

    def test_ball_test_removes_ribbon_points(self):
        from cubewrap.maps import DISC_RADIUS, psi_config
        from cubewrap.sections import SectionCells

        t = np.linspace(-DISC_RADIUS, DISC_RADIUS, 301)
        ys = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        a, z = 0.5, (0.3, 0.7)
        sd = section_of_phi(z, psi_config(CFG2, a))
        cells = SectionCells.psi(ys)
        ribbon = np.zeros(len(ys), dtype=bool)
        ribbon[cells.inside] = _in_ribbon(cells.qbar, cells.p, sd)
        psi = psi_section_membership_many(ys, z, CFG2, a, cells=cells)
        assert not np.any(psi & ~ribbon)
        assert psi.sum() < ribbon.sum()

    @pytest.mark.parametrize(
        "n, z, a",
        [
            (2, (0.3, 0.7), 0.5),
            (2, (0.025, 0.375), 1.0),
            (2, (0.61, 2.9), 1 / math.pi),
            (2, (0.3, 2.7), 0.25),
            (3, (0.3, 0.7, 0.2, 0.6), 0.5),
            (3, (0.45, 1.2, 0.5, 0.5), 0.5),
        ],
    )
    def test_membership_equals_kappa_inverse_reference(self, n, z, a):
        from cubewrap.maps import DISC_RADIUS

        cfg = EmbeddingConfig(n=n, c=2.0)
        t = (np.arange(400) + 0.5) / 400 * 2.2 * DISC_RADIUS - 1.1 * DISC_RADIUS
        ys = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        got = psi_section_membership_many(ys, z, cfg, a)
        assert got.any()
        assert np.array_equal(got, _psi_reference(ys, z, cfg, a))


def _square_probe_points(rng):
    """Square points where λ⁻¹'s closed form could go wrong: uniform, on
    and beside κ's diagonals, on and beside the edges, near the centre."""
    t = rng.uniform(1e-6, 1.0 - 1e-6, 20_000)
    s = rng.choice([-1.0, 1.0], 20_000)
    side = rng.choice([1e-12, 1e-6, 0.5 - 1e-12], 20_000)
    tiny = rng.uniform(-1e-9, 1e-9, (20_000, 2))
    return np.concatenate([
        rng.uniform(0.0, 1.0, (100_000, 2)),
        np.stack([t, t], -1),
        np.stack([t, 1.0 - t], -1),
        np.stack([t, t + s * 1e-12], -1),
        np.stack([t, side], -1),
        np.stack([side, t], -1),
        np.stack([1.0 - side, t], -1),
        0.5 + tiny,
        0.5 + 1e-4 * rng.uniform(-1.0, 1.0, (20_000, 2)),
    ])


def _disc_probe_points(rng):
    """Disc points: uniform, on κ's diagonals and axes, next to the rim,
    near the centre."""
    from cubewrap.maps import DISC_RADIUS

    k = 20_000
    rho = DISC_RADIUS * rng.uniform(0.0, 1.0, k)
    axis = rng.integers(0, 8, k) * (math.pi / 4)
    rim = DISC_RADIUS * (1.0 - rng.uniform(1e-15, 1e-9, k))
    ang = rng.uniform(-math.pi, math.pi, (3, k))
    near = np.concatenate([rng.uniform(1e-12, 1e-6, k // 2), rng.uniform(1e-6, 1e-3, k // 2)])
    polar = [(rho, axis), (rim, ang[0]), (near, ang[1]), (rho, ang[2])]
    pts = np.concatenate(
        [np.stack([r * np.cos(a), r * np.sin(a)], -1) for r, a in polar]
    )
    return pts[np.hypot(pts[:, 0], pts[:, 1]) < DISC_RADIUS]


# Asserted bounds, (q̄ in circle distance, p), of the closed forms against
# the map round trip through the composed λ (`composed_maps`).  φ: both sides share κ⁻¹'s (u, v) = y − ½, and the
# largest errors on the probe points are 2.2e-16 and 6.7e-16.  ψ: the
# round trip λ⁻¹∘κ adds ½ to coordinates of size |y| in κ and subtracts
# it again in κ⁻¹, so its angle carries an error up to (2/√π)·2⁻⁵³/|y|
# that the closed form χ⁻¹ does not have; beyond that the largest errors
# are 1.1e-14 and 1.1e-15.
PHI_TOL = (1e-15, 1e-15)
PSI_TOL = (2e-14, 2e-15)


class TestSectionCells:
    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_chunked_build_equals_one_pass(self, kind, monkeypatch):
        import cubewrap.sections as sec
        from cubewrap.maps import ChiMap, square_to_cylinder

        rng = np.random.default_rng(8)
        if kind == "phi":
            ys = rng.uniform(0.0, 1.0, (30_000, 2))
            ys[17] = 0.5  # the puncture is left out
            inside = np.ones(len(ys), dtype=bool)
            inside[17] = False
            cyl = square_to_cylinder(ys[inside])
            build = lambda: sec.SectionCells.phi(ys)  # noqa: E731
        else:
            ys = rng.uniform(-0.6, 0.6, (30_000, 2))
            inside = np.hypot(ys[:, 0], ys[:, 1]) < sec.DISC_RADIUS
            cyl = ChiMap().inverse(ys[inside])
            build = lambda: sec.SectionCells.psi(ys)  # noqa: E731
        monkeypatch.setattr(sec, "_CHUNK", 4099)
        cells = build()
        assert np.array_equal(cells.inside, inside)
        assert np.array_equal(cells.qbar, cyl[:, 0]) and np.array_equal(cells.p, cyl[:, 1])

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_closed_form_matches_map_round_trip(self, kind):
        from cubewrap.quotient import circle_distance
        from cubewrap.sections import SectionCells

        rng = np.random.default_rng(21)
        if kind == "phi":
            ys = _square_probe_points(rng)
            cells = SectionCells.phi(ys)
            ref = composed_lambda().inverse(ys[cells.inside])
            qbar_tol, p_tol = PHI_TOL
        else:
            ys = _disc_probe_points(rng)
            cells = SectionCells.psi(ys)
            ref = composed_lambda().inverse(SectorKappa().forward(ys[cells.inside]))
            qbar_tol, p_tol = PSI_TOL
            qbar_tol += 2.0**-52 / np.hypot(*ys[cells.inside].T)
        assert cells.inside.mean() > 0.99
        assert np.all((cells.qbar >= 0.0) & (cells.qbar < 1.0))
        assert np.all(circle_distance(cells.qbar, ref[:, 0], 1.0) <= qbar_tol)
        assert np.abs(cells.p - ref[:, 1]).max() <= p_tol
