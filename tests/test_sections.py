import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composed_maps import SectorKappa, composed_lambda
from cubewrap.maps import (
    _BLOCK_ELEMENTS,
    EmbeddingConfig,
    build_phi,
    make_lambda,
    make_lambda_prime,
    square_to_cylinder,
)
from cubewrap.quotient import preimage_affine_mod, reduce
from cubewrap.sections import (
    SLIT_TOL,
    fubini_check,
    psi_section_membership_many,
    section_area_mc,
    section_membership_many,
    section_of_phi,
    z_grid,
)

CFG2 = EmbeddingConfig(n=2, c=2.0)


def _in_ribbon(qbar, p, sd):
    """Cylinder points of the ribbon V × W: p ∈ W and the angle q̄ at
    circle distance more than SLIT_TOL from the slit.  The full-angle
    reference of `section_membership_many`."""
    ok = sd.W.contains_many(p)
    d = np.mod(qbar - sd.slit_angle, 1.0)
    ok &= (d > SLIT_TOL) & (d < 1.0 - SLIT_TOL)
    return ok


class TestVSet:
    """V, the angle circle minus one point, is stored as that point."""

    def test_removed_point(self):
        sd = section_of_phi([0.3, 0.7], CFG2)
        assert sd.slit_angle == reduce(-2.0 * sd.Q2, 1.0)
        # a height in W: the ribbon drops the slit angle, keeps its neighbour
        p = np.full(2, sum(sd.W.intervals[0]) / 2)
        qbar = np.mod([sd.slit_angle, sd.slit_angle + 0.01], 1.0)
        assert _in_ribbon(qbar, p, sd).tolist() == [False, True]

    def test_c1_symmetry(self):
        cfg = EmbeddingConfig(n=2, c=1.0)
        sd = section_of_phi([0.3, 0.7], cfg)
        assert sd.slit_angle == reduce(-sd.Q2, 1.0)
        # at c = 1, W is all of (0, 1) but one point, and the slit stays out
        assert sd.W.total_length == pytest.approx(1.0, abs=1e-15)
        t = np.array([0.1, 0.45, 0.8])
        on_slit = make_lambda().forward(np.stack([np.full(3, sd.slit_angle), t], axis=-1))
        beside = make_lambda().forward(np.stack([np.full(3, sd.slit_angle + 0.1), t], axis=-1))
        assert not section_membership_many(on_slit, sd, cfg).any()
        assert section_membership_many(beside, sd, cfg).all()

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

    def test_interval_count_and_length(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = rng.uniform(1, 8)
            sd = self._section_at(rng.uniform(0, c), c, Q2=rng.uniform(0.01, 0.99))
            assert sd.W == preimage_affine_mod(sd.P2bar, c)
            assert len(sd.W.intervals) in (1, 2)
            assert abs(sd.W.total_length - 1 / c) < 1e-12

    @pytest.mark.parametrize("c", [1e15, 1e16, 1e300])
    def test_large_c_keeps_the_one_piece(self, c):
        """From c ≈ 1e15 on, W's one piece is shorter than the fragments
        `preimage_affine_mod` drops from a wrapped arc, and is kept: W is
        never empty, and its length is 1/c to within an ulp of 1."""
        cfg = EmbeddingConfig(n=2, c=c)
        zs = z_grid(cfg, (7, 9))[0]
        assert len(zs) > 50
        for z in zs:
            sd = section_of_phi(z, cfg)
            iv = sd.W.intervals
            assert sd.status == "generic" and iv
            assert len(iv) == 1 or (iv[0][0], iv[-1][1]) == (0.0, 1.0)
            assert abs(sd.W.total_length - 1 / c) <= 2.0**-52


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
        assert not section_membership_many((0.5, 0.5), [0.3, 0.7], CFG2)

    def test_outside_square(self):
        assert not section_membership_many([1.5, 0.5], [0.3, 0.7], CFG2)

    def test_slit_excluded(self):
        sd = section_of_phi([0.3, 0.7], CFG2)
        t = np.array([0.1, 0.45, 0.8])
        y = make_lambda().forward(np.stack([np.full(3, sd.slit_angle), t], axis=-1))
        assert not section_membership_many(y, sd, CFG2).any()

    def test_forward_consistency(self):
        # phi(x) decomposes into a square point and a z with membership true.
        phi = build_phi(CFG2)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (300, 4))
        Y = phi.forward(X)
        for row in Y:
            assert section_membership_many(row[:2], row[2:], CFG2)

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


def _full_angle_reference(ys, sd):
    """φ membership with the angle of every point: λ⁻¹ on each point of
    the open square, then `_in_ribbon`."""
    ys = np.asarray(ys, dtype=float)
    out = np.zeros(ys.shape[:-1], dtype=bool)
    pts, flat = ys.reshape(-1, 2), out.reshape(-1)
    inside = np.all((pts > 0.0) & (pts < 1.0), axis=-1)
    cyl = square_to_cylinder(pts[inside])
    flat[inside] = _in_ribbon(cyl[:, 0], cyl[:, 1], sd)
    return out


def _counting_square_to_cylinder(monkeypatch):
    """Replace `sections.square_to_cylinder` by a wrapper; returns the
    list of point counts it was called with."""
    import cubewrap.sections as sec

    seen = []

    def counted(ys):
        seen.append(len(ys))
        return square_to_cylinder(ys)

    monkeypatch.setattr(sec, "square_to_cylinder", counted)
    return seen


# c of the exactness tests, from the smallest to a section far thinner
# than any raster cell; and each c's z, off the puncture.
EXACT_C = [1.0, 1.5, 2.0, math.pi, 600.0, 1e6]
EXACT_Z = [(0.31, 0.7), (0.5, 0.25), (0.9, 0.93), (0.05, 0.5)]
# q̄ offsets from the slit: inside, at and beyond SLIT_TOL, and the
# opposite ray.
SLIT_OFFSETS = [0.0, 0.5] + [s * x for x in (1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7)
                             for s in (1.0, -1.0)]


def _slit_probe(sd, rng, per_height=8):
    """Square points at the SLIT_OFFSETS from the slit angle, at heights
    spread over W, beside W's ends and outside W; returns (points,
    offset of each point)."""
    ends = np.array(sd.W.intervals).ravel()
    inside_w = np.concatenate([rng.uniform(a, b, per_height) for a, b in sd.W.intervals])
    beside = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, 1.0)])
    p = np.concatenate([inside_w, beside, rng.uniform(0.0, 1.0, per_height)])
    p = p[(p > 0.0) & (p < 1.0)]
    q = np.add.outer(np.array(SLIT_OFFSETS), np.full(len(p), sd.slit_angle))
    q -= np.floor(q)
    qp = np.stack([q, np.broadcast_to(p, q.shape)], axis=-1)
    offsets = np.broadcast_to(np.array(SLIT_OFFSETS)[:, None], q.shape)
    return make_lambda().forward(qp.reshape(-1, 2)), offsets.ravel()


class TestAngleFreeMembership:
    """`section_membership_many` reads only heights off the wedge around
    the slit ray (the slit-ray bound in the `sections` docstring) and
    equals the full-angle path bit for bit."""

    @pytest.mark.parametrize("c", EXACT_C)
    def test_uniform_points_match_the_full_angle_path(self, c):
        cfg = EmbeddingConfig(n=2, c=c)
        ys = np.random.default_rng(41).uniform(0.0, 1.0, (1_000_000, 2))
        for z, pts in zip(EXACT_Z, (ys, ys[1::4], ys[2::4], ys[3::4])):
            sd = section_of_phi((z[0], z[1] * c), cfg)
            got = section_membership_many(pts, sd, cfg)
            assert np.array_equal(got, _full_angle_reference(pts, sd))
            assert abs(got.mean() - 1.0 / c) < 0.01

    @pytest.mark.parametrize("c", EXACT_C)
    def test_points_beside_the_slit_match_the_full_angle_path(self, c, monkeypatch):
        """At every offset from the slit, heights in and beside W.  Points
        on the slit ray reach the angle path; points on the opposite ray,
        which are as close to the ray's line, do not."""
        cfg = EmbeddingConfig(n=2, c=c)
        rng = np.random.default_rng(43)
        seen = _counting_square_to_cylinder(monkeypatch)
        for z in EXACT_Z:
            sd = section_of_phi((z[0], z[1] * c), cfg)
            ys, offset = _slit_probe(sd, rng)
            ref = _full_angle_reference(ys, sd)
            seen.clear()
            got = section_membership_many(ys, sd, cfg)
            assert np.array_equal(got, ref)
            p = square_to_cylinder(ys)[:, 1]
            in_w = sd.W.contains_many(p)
            # Members beyond SLIT_TOL and non-members within it: the
            # probe straddles the slit test.  (Near the centre, rounding
            # y moves its angle by more than the offsets.)
            away = in_w & (p < 0.999)
            assert got[away & (np.abs(offset) >= 2e-9)].all()
            assert not got[away & (np.abs(offset) <= 5e-10)].any()
            on_ray = in_w & (offset == 0.0)
            assert on_ray.any() and sum(seen) >= on_ray.sum()
            opposite = in_w & (offset == 0.5)
            seen.clear()
            section_membership_many(ys[opposite], sd, cfg)
            assert opposite.any() and sum(seen) == 0

    @pytest.mark.parametrize("c", EXACT_C)
    def test_centre_edges_and_cell_grid_match(self, c):
        cfg = EmbeddingConfig(n=2, c=c)
        sd = section_of_phi((0.31, 0.7 * c), cfg)
        t = np.random.default_rng(47).uniform(0.0, 1.0, 2_000)
        tiny, below_one = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        edges = [np.stack([np.full_like(t, e), t], -1) for e in (0.0, 1.0, tiny, below_one)]
        edges += [e[:, ::-1] for e in edges]
        ys = np.concatenate(edges + [np.array([[0.5, 0.5]])])
        assert np.array_equal(section_membership_many(ys, sd, cfg), _full_angle_reference(ys, sd))
        for N in (511, 512):
            x = (np.arange(N) + 0.5) / N
            cells = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
            got = section_membership_many(cells, sd, cfg)
            assert got.shape == (N, N)
            assert np.array_equal(got, _full_angle_reference(cells, sd))

    @pytest.mark.parametrize("shift", [1e-8, -1e-8])
    def test_fails_on_a_wrong_slit_angle_in_the_wedge(self, shift, monkeypatch):
        """The wedge's angle test alone keeps the slit out: planted to
        compare q̄ with the slit angle + shift (λ⁻¹'s q̄ moved by −shift),
        it admits points on the slit ray and breaks the full-angle
        match."""
        import cubewrap.sections as sec

        sd = section_of_phi((0.31, 0.7), CFG2)
        ys, offset = _slit_probe(sd, np.random.default_rng(43))
        ref = _full_angle_reference(ys, sd)
        assert np.array_equal(section_membership_many(ys, sd, CFG2), ref)

        def wrong_slit(pts):
            out = square_to_cylinder(pts)
            out[:, 0] -= shift
            return out

        monkeypatch.setattr(sec, "square_to_cylinder", wrong_slit)
        got = section_membership_many(ys, sd, CFG2)
        assert got[(offset == 0.0) & ~ref].any()

    def test_monte_carlo_area_runs_almost_no_angles(self, monkeypatch):
        """One 2·10⁵-point `section_area_mc` at c = 2 sends at most
        0.01 % of its points through λ⁻¹."""
        seen = _counting_square_to_cylinder(monkeypatch)
        samples = 200_000
        section_area_mc([0.3, 0.7], samples=samples, seed=5, config=CFG2)
        assert sum(seen) <= samples // 10_000

    def test_rejects_points_without_two_coordinates(self):
        with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 2\)"):
            section_membership_many(np.full((10, 4), 0.3), [0.3, 0.7], CFG2)


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

    def test_rejects_points_without_two_coordinates(self):
        with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 2\)"):
            psi_section_membership_many(np.full((10, 3), 0.1), [0.3, 0.7], CFG2, 0.5)

    def test_slit_stays_outside_the_widest_arc(self):
        """Q2 = ½ and p2 = ½ at p = ½ make B = ¼, an arc of the whole
        circle but the slit q̄ = −c·Q2 = 0 (mod 1).  B's cap keeps the
        angles within SLIT_TOL of the slit out, as the φ ribbon does."""
        from cubewrap.sections import SLIT_TOL, SectionDescription, _arc_members

        c = 2.0
        sd = SectionDescription(z=(0.5, 0.5), status="generic", Q2=0.5, P2bar=reduce(1.5, c))
        near, far = 0.1 * SLIT_TOL, 10 * SLIT_TOL
        qbar = np.array([0.0, near, 1.0 - near, far, 1.0 - far, 0.5])
        got = _arc_members(qbar, np.full(len(qbar), 0.5), sd, c)
        assert got.tolist() == [False, False, False, True, True, True]

    @pytest.mark.parametrize("scale", [1 - 2.0**-52, 1.0, 1 + 2.0**-52, 1.01, 2.0, 10.0])
    def test_rim_and_beyond_are_never_members(self, scale):
        """The kernel has no disc mask.  Q2 = ½ and P̄2 = ½ with no tail
        make p2 = ½ − c·p (mod c), so B reaches its cap as p → 0, at the
        rim, and stays near it just beyond.  Points at |y| = scale·R have
        p = 1 − π|y|² ≤ 0 up to rounding, and only (p − ½)² ≥ ¼ > B keeps
        them out."""
        from cubewrap.maps import DISC_RADIUS, disc_to_cylinder
        from cubewrap.sections import SectionDescription, _arc_members

        c = 2.0
        sd = SectionDescription(z=(0.5, 0.5), status="generic", Q2=0.5, P2bar=0.5)
        ang = np.linspace(0.0, 2 * math.pi, 97)[:-1] + 0.05
        ys = scale * DISC_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        qbar, p = disc_to_cylinder(ys[:, 0], ys[:, 1])
        assert np.all(p < 1e-15)
        assert not _arc_members(qbar, p, sd, c).any()
        assert not psi_section_membership_many(ys, sd, CFG2, 1 / c).any()
        # the same angles at 0.99 R are members: the arc there is nearly
        # the whole circle
        assert _arc_members(*disc_to_cylinder(*(0.99 / scale * ys).T), sd, c).all()


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
        slit_angle=reduce(-c * Q2, 1.0),
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
    p2 = np.mod(sd.P2bar - c * p1, c)
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
        cfg = EmbeddingConfig(n=2, c=c)
        generic_z, special_z = z_grid(cfg, (50, 100))
        zs = np.concatenate([generic_z, special_z, [cfg.z0, (1.5, 0.5)]])
        per_z = [section_of_phi(z, cfg) for z in zs]
        assert per_z == [_section_reference(z, cfg) for z in zs]
        assert [sd.status for sd in per_z[-2:]] == ["puncture", "empty"]
        # fubini_check's areas are the per-z analytic areas, bit for bit
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
    @example(u=(0.45200498135105904, 0.023065627525636016))
    @example(u=(0.42359116658589613, 0.4498209409490631))
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_kappa_inverse(self, u):
        """|κ⁻¹(u)|² = (4/π)·‖u − ½‖∞², the closed form behind the ¼ form
        of ψ's arc predicate: Σ|κ⁻¹|² < 1/π is Σ‖· − ½‖∞² < ¼."""
        u = np.array(u)
        via_kappa = np.sum(SectorKappa().inverse(u) ** 2, -1)
        m = np.max(np.abs(u - 0.5))
        closed = 4 / math.pi * (m * m)
        assert abs(via_kappa - closed) <= 4 * np.spacing(closed)

    def test_ball_test_removes_ribbon_points(self):
        from cubewrap.maps import DISC_RADIUS, disc_to_cylinder, psi_config

        t = np.linspace(-DISC_RADIUS, DISC_RADIUS, 301)
        ys = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        a, z = 0.5, (0.3, 0.7)
        sd = section_of_phi(z, psi_config(CFG2, a))
        ribbon = _in_ribbon(*disc_to_cylinder(ys[:, 0], ys[:, 1]), sd)
        psi = psi_section_membership_many(ys, z, CFG2, a)
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
            # off-centre tails at n = 4
            (4, (0.62, 1.45, 0.35, 0.6, 0.52, 0.7), 0.5),
            # a = 1: W's two pieces touch
            (2, (0.6, 0.35), 1.0),
            # W wraps into two separate pieces
            (2, (0.55, 0.2), 0.5),
        ],
    )
    def test_membership_equals_kappa_inverse_reference(self, n, z, a):
        cfg = EmbeddingConfig(n=n, c=2.0)
        ys = _disc_box_grid(400)
        got = psi_section_membership_many(ys, z, cfg, a)
        assert got.any()
        assert np.array_equal(got, _psi_reference(ys, z, cfg, a))

    def test_reference_cases_cover_both_w_shapes(self):
        from cubewrap.maps import disc_to_cylinder, psi_config

        touching = section_of_phi((0.6, 0.35), psi_config(CFG2, 1.0)).W.intervals
        assert len(touching) == 2 and touching[0][1] == touching[1][0]
        sd = section_of_phi((0.55, 0.2), psi_config(CFG2, 0.5))
        (a0, b0), (a1, b1) = sd.W.intervals
        assert b0 < a1
        # and the section has cells at heights in both pieces
        ys = _disc_box_grid(400)
        p = disc_to_cylinder(ys[:, 0], ys[:, 1])[1][psi_section_membership_many(ys, sd.z, CFG2, 0.5)]
        assert np.any((a0 < p) & (p < b0)) and np.any((a1 < p) & (p < b1))

    @pytest.mark.parametrize(
        "count", [0, 1, _BLOCK_ELEMENTS - 1, _BLOCK_ELEMENTS, _BLOCK_ELEMENTS + 1]
    )
    def test_kernel_blocks_match_reference(self, count):
        """Point counts at and around the kernel's block size, every
        point inside the disc."""
        from cubewrap.maps import DISC_RADIUS

        rng = np.random.default_rng(count)
        rho = 0.99 * DISC_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, count))
        ang = rng.uniform(0.0, 2 * math.pi, count)
        ys = np.stack([rho * np.cos(ang), rho * np.sin(ang)], axis=-1)
        z, a = (0.55, 0.2), 0.5
        got = psi_section_membership_many(ys, z, CFG2, a)
        assert got.shape == (count,)
        assert np.array_equal(got, _psi_reference(ys, z, CFG2, a))
        if count > 1000:
            assert 0.1 < got.mean() < 0.9

    @pytest.mark.parametrize("plant", ["B + 0.01", "centre + 0.01"])
    def test_planted_arc_error_breaks_the_reference_match(self, plant, monkeypatch):
        import cubewrap.sections as sec

        ys = _disc_box_grid(400)
        z, a = (0.3, 0.7), 0.5
        ref = _psi_reference(ys, z, CFG2, a)
        assert np.array_equal(psi_section_membership_many(ys, z, CFG2, a), ref)
        real = sec._arc_terms

        def planted(sd, c):
            shift, m2, base = real(sd, c)
            if plant == "B + 0.01":
                return shift, m2, base + 0.01
            return shift + 0.01, m2, base

        monkeypatch.setattr(sec, "_arc_terms", planted)
        assert not np.array_equal(psi_section_membership_many(ys, z, CFG2, a), ref)


def _disc_box_grid(n):
    """Cell centres of an n x n grid over a box 10 % wider than the disc."""
    from cubewrap.maps import DISC_RADIUS

    t = (np.arange(n) + 0.5) / n * 2.2 * DISC_RADIUS - 1.1 * DISC_RADIUS
    return np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)


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
    """The cylinder coordinates (q̄, p) that membership reads, built with
    no geometry object: `square_to_cylinder` for φ, `disc_to_cylinder`
    for ψ."""

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_chunked_build_equals_one_pass(self, kind, monkeypatch):
        """Membership mapped and tested in blocks of 4099 points equals
        one pass over all of them.  Both kernels run through
        `maps._by_blocks`, whose block size is `maps._BLOCK_ELEMENTS`; φ's
        is counted by its box test, ψ's by the calls of its arc kernel."""
        import cubewrap.maps as maps
        import cubewrap.sections as sec

        rng = np.random.default_rng(8)
        blocks = []
        if kind == "phi":
            ys = rng.uniform(-0.1, 1.1, (30_000, 2))
            ys[17] = 0.5  # the puncture is left out
            in_box = sec._in_box
            monkeypatch.setattr(
                sec, "_in_box", lambda X, lo, hi: blocks.append(len(X)) or in_box(X, lo, hi)
            )
            member = lambda: sec.section_membership_many(ys, (0.3, 0.7), CFG2)  # noqa: E731
        else:
            ys = rng.uniform(-0.6, 0.6, (30_000, 2))
            ys[17] = 0.0  # the centre, height 1
            arc_members = sec._arc_members
            monkeypatch.setattr(
                sec,
                "_arc_members",
                lambda qbar, p, *args: blocks.append(len(p)) or arc_members(qbar, p, *args),
            )
            member = lambda: sec.psi_section_membership_many(ys, (0.3, 0.7), CFG2, 0.5)  # noqa: E731
        monkeypatch.setattr(maps, "_BLOCK_ELEMENTS", len(ys))
        blocks.clear()
        one_pass = member()
        assert blocks == [len(ys)]
        monkeypatch.setattr(maps, "_BLOCK_ELEMENTS", 4099)
        blocks.clear()
        assert np.array_equal(member(), one_pass)
        assert len(blocks) == -(-len(ys) // 4099) > 1
        assert 0.05 < one_pass.mean() < 0.95 and not one_pass[17]

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_closed_form_matches_map_round_trip(self, kind):
        from cubewrap.maps import disc_to_cylinder, square_to_cylinder
        from cubewrap.quotient import circle_distance

        rng = np.random.default_rng(21)
        if kind == "phi":
            ys = _square_probe_points(rng)
            inside = np.all((ys > 0.0) & (ys < 1.0), axis=-1) & np.any(ys != 0.5, axis=-1)
            assert inside.mean() > 0.99
            qbar, p = square_to_cylinder(ys[inside]).T
            ref = composed_lambda().inverse(ys[inside])
            qbar_tol, p_tol = PHI_TOL
        else:
            ys = _disc_probe_points(rng)
            qbar, p = disc_to_cylinder(ys[:, 0], ys[:, 1])
            ref = composed_lambda().inverse(SectorKappa().forward(ys))
            qbar_tol, p_tol = PSI_TOL
            qbar_tol += 2.0**-52 / np.hypot(*ys.T)
        assert np.all((qbar >= 0.0) & (qbar < 1.0))
        assert np.all(circle_distance(qbar, ref[:, 0]) <= qbar_tol)
        assert np.abs(p - ref[:, 1]).max() <= p_tol
