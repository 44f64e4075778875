import math

import numpy as np
import pytest

from cubewrap import maps
from cubewrap.maps import (
    DISC_RADIUS,
    SMOOTH_MARGIN,
    ChiMap,
    DomainError,
    EmbeddingConfig,
    KappaMap,
    PhaseMap,
    PhiMap,
    PsiMap,
    block_defect,
    build_phi,
    build_psi,
    check_symplectic,
    finite_difference_jacobian,
    jacobian_defect,
    make_lambda,
    make_lambda_prime,
    psi_config,
    shear_wrap,
    symplectic_matrix,
    unshear_wrap,
)
from cubewrap.quotient import circle_distance
from composed_maps import (
    ComposedPsi,
    SectorKappa,
    chi_jacobian,
    composed_lambda,
    composed_lambda_prime,
)

RNG = np.random.default_rng(12345)


def shear(c, n=2):
    """S, the linear shear (q1, p1, q2, p2) -> (q1 − c·q2, p1, q2, c·p1 + p2)
    on the first four coordinates of R^{2n}, the identity on the rest."""
    S = np.eye(2 * n)
    S[0, 2] = -c
    S[3, 1] = c
    return S


def smooth_sample(pm, count, seed):
    """`count` points of pm's domain SMOOTH_MARGIN off its singular loci."""
    return pm.sample_domain(np.random.default_rng(seed), count, margin=SMOOTH_MARGIN)


def random_disc_points(n, radius=DISC_RADIUS, rng=RNG):
    theta = rng.uniform(-np.pi, np.pi, n)
    rad = radius * np.sqrt(rng.uniform(0, 1, n))
    return np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)


class TestConfig:
    def test_defaults(self):
        cfg = EmbeddingConfig(n=2, c=2.0)
        assert cfg.z0 == (0.5, 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(n=1, c=2.0)
        for c in (0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be finite and >= 1"):
                EmbeddingConfig(n=2, c=c)
        # 1/a overflows to inf below a ≈ 5.6e-309.
        with pytest.raises(ValueError, match="c must be finite and >= 1, got inf"):
            psi_config(EmbeddingConfig(n=2, c=2.0), 5e-324)


class TestShear:
    def test_example(self):
        # (q1 - c*q2, p1, q2, c*p1 + p2) needs no wrap here.
        out = shear_wrap(np.array([0.75, 0.5, 0.25, 0.25]), 2.0)
        assert np.allclose(out, [0.25, 0.5, 0.25, 1.25])

    def test_origin_fixed(self):
        assert np.allclose(shear_wrap(np.zeros(4), 1.0), 0.0)

    def test_exactly_symplectic(self):
        for c in [1.0, 1.5, 2.0, math.pi]:
            M = shear(c)
            Om = symplectic_matrix(2)
            assert np.array_equal(M.T @ Om @ M, Om)
            assert np.linalg.det(M) == pytest.approx(1.0)


class TestWrapProject:
    def test_reduction(self):
        # Sheared to (-0.75, 0.5, 0.5, 1.25); only Qbar1 wraps.
        out = shear_wrap(np.array([0.25, 0.5, 0.5, 0.25]), 2.0)
        assert np.allclose(out, [0.25, 0.5, 0.5, 1.25])

    def test_reduction_wrapping(self):
        # Sheared to (0.1, 0.2, 0.3, 2.4); Pbar2 wraps mod c.
        out = shear_wrap(np.array([0.7, 0.2, 0.3, 2.0]), 2.0)
        assert np.allclose(out, [0.1, 0.2, 0.3, 0.4])

    def test_wrap_mod_1_is_bit_identical_to_np_mod(self):
        # Normal samples, then points whose sheared first coordinate is
        # exactly ±0, ±1e-300 or ±1 (X2 = 0 leaves it as X0).
        X = np.random.default_rng(31).normal(scale=2.0, size=(100_006, 4))
        X[-6:, 0] = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0]
        X[-6:, 2] = 0.0
        c = 1.5
        ref = np.mod(X[:, 0] - c * X[:, 2], 1.0)
        got = shear_wrap(X, c)[:, 0]
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_middle_unchanged(self):
        X = RNG.uniform(-5, 5, (100, 4))
        Y = shear_wrap(X, 1.5)
        assert np.array_equal(Y[:, 1:3], X[:, 1:3])

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_unshear_wrap_inverts_on_the_cube(self, c):
        X = np.random.default_rng(15).uniform(0, 1, (10_000, 4))
        W = shear_wrap(X, c)
        q1, p2 = unshear_wrap(W[:, 0], W[:, 1], W[:, 2], W[:, 3], c)
        assert np.abs(q1 - X[:, 0]).max() < 1e-12
        assert np.abs(p2 - X[:, 3]).max() < 1e-12


class TestChi:
    def test_rim_point(self):
        out = ChiMap().forward(np.array([0.0, 0.0]))
        assert np.allclose(out, [math.pi ** -0.5, 0.0])

    def test_interior_point(self):
        out = ChiMap().forward(np.array([0.25, 0.75]))
        assert np.allclose(out, [0.0, math.sqrt(0.25 / math.pi)], atol=1e-15)

    def test_unit_jacobian(self):
        pts = np.stack(
            [RNG.uniform(0, 1, 10_000), RNG.uniform(1e-3, 1 - 1e-3, 10_000)], axis=-1
        )
        det = np.linalg.det(chi_jacobian(pts))
        assert np.abs(det - 1).max() < 1e-9

    def test_jacobian_matches_finite_differences(self):
        pts = np.stack([RNG.uniform(0, 1, 500), RNG.uniform(0.1, 0.9, 500)], axis=-1)
        J = chi_jacobian(pts)
        Jfd = finite_difference_jacobian(ChiMap().forward, pts, 1e-6)
        assert np.abs((J - Jfd) / np.maximum(np.abs(J), 1)).max() < 1e-5

    def test_closed_form_jacobian_matches_chain_rule(self):
        # ChiMap.jacobian against Jκ⁻¹∘λ · Jλ through the sector κ.
        pts = np.stack(
            [RNG.uniform(0, 1, 10_000), RNG.uniform(1e-3, 1 - 1e-3, 10_000)], axis=-1
        )
        pts = pts[composed_lambda().singular_distance(pts) > 1e-6]
        J, Jref = ChiMap().jacobian(pts), chi_jacobian(pts)
        assert np.abs((J - Jref) / np.maximum(np.abs(Jref), 1)).max() < 1e-13
        assert np.abs(np.linalg.det(J) - 1).max() < 1e-13

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ChiMap().forward(np.array([0.5, 1.0]))

    def test_rim_maps_to_boundary_circle(self):
        pts = np.stack([np.linspace(0, 1, 64), np.zeros(64)], axis=-1)
        out = ChiMap().forward(pts)
        assert np.allclose(np.hypot(out[:, 0], out[:, 1]), DISC_RADIUS)


class TestKappa:
    def test_center(self):
        assert np.allclose(KappaMap().forward(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_boundary_angle_zero(self):
        out = KappaMap().forward(np.array([math.pi ** -0.5, 0.0]))
        assert np.allclose(out, [1.0, 0.5])

    def test_round_trip(self):
        k = KappaMap()
        pts = random_disc_points(10_000)
        assert np.abs(k.inverse(k.forward(pts)) - pts).max() < 1e-10

    def test_unit_jacobian_off_diagonals(self):
        k = KappaMap()
        pts = random_disc_points(20_000)
        pts = pts[k.singular_distance(pts) > 1e-4][:10_000]
        det = np.linalg.det(k.jacobian(pts))
        assert np.abs(det - 1).max() < 1e-9

    def test_image_is_square(self):
        sq = KappaMap().forward(random_disc_points(5000))
        assert sq.min() >= 0 and sq.max() <= 1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            KappaMap().forward(np.array([1.0, 1.0]))

    def test_jacobian_matches_finite_differences(self):
        k = KappaMap()
        pts = random_disc_points(5000)
        pts = pts[k.singular_distance(pts) > 1e-3][:1000]
        J = k.jacobian(pts)
        Jfd = finite_difference_jacobian(k.forward, pts, 1e-7)
        assert np.abs(J - Jfd).max() < 1e-5


class TestKappaAgainstSectorReference:
    """κ through λ's sector walk against the sector-by-sector κ of
    `composed_maps.SectorKappa` on 10⁶ points, with probes within 1e-9
    of the centre.  Measured worst gaps: 4.4e-16 forward, 5.8e-16
    inverse, 2.0e-14 Jacobian (relative, 1e-6 off κ's diagonals)."""

    COUNT = 1_000_000

    def disc_points(self):
        rng = np.random.default_rng(31)
        pts = random_disc_points(self.COUNT, rng=rng)
        pts[:1000] *= 1e-9 / DISC_RADIUS  # |x| <= 1e-9
        pts[1000] = 0.0
        return pts

    def square_points(self):
        rng = np.random.default_rng(32)
        ys = rng.uniform(0, 1, (self.COUNT, 2))
        ys[:1000] = 0.5 + (ys[:1000] - 0.5) * 2e-9  # |y - ½| <= 1e-9
        return ys

    def test_forward(self):
        pts = self.disc_points()
        assert np.abs(KappaMap().forward(pts) - SectorKappa().forward(pts)).max() < 1e-15

    def test_inverse(self):
        ys = np.concatenate([self.square_points(), SectorKappa().forward(self.disc_points())])
        assert np.abs(KappaMap().inverse(ys) - SectorKappa().inverse(ys)).max() < 1e-15

    def test_inverse_at_the_centre(self):
        assert np.array_equal(KappaMap().inverse(np.array([0.5, 0.5])), [0.0, 0.0])

    def test_jacobian(self):
        pts = self.disc_points()[:100_000]
        pts = pts[SectorKappa().singular_distance(pts) > 1e-6]
        J, Jref = KappaMap().jacobian(pts), SectorKappa().jacobian(pts)
        assert np.abs((J - Jref) / np.maximum(np.abs(Jref), 1)).max() < 1e-13


class TestLambda:
    def test_round_trip(self):
        lam = make_lambda()
        pts = np.stack(
            [RNG.uniform(0, 1, 10_000), RNG.uniform(1e-4, 1 - 1e-4, 10_000)], axis=-1
        )
        back = lam.inverse(lam.forward(pts))
        dq = np.abs(back[:, 0] - pts[:, 0])
        dq = np.minimum(dq, 1 - dq)
        assert dq.max() < 1e-9
        assert np.abs(back[:, 1] - pts[:, 1]).max() < 1e-9

    def test_area_preservation_mc(self):
        # lambda-image area of a product set equals its cylinder area.
        lam = make_lambda()
        rng = np.random.default_rng(7)
        ys = rng.uniform(0, 1, (1_000_000, 2))
        cyl = lam.inverse(ys)
        q_in = (cyl[:, 0] > 0.1) & (cyl[:, 0] < 0.4)
        p_in = (cyl[:, 1] > 0.2) & (cyl[:, 1] < 0.7)
        est = (q_in & p_in).mean()
        assert est == pytest.approx(0.3 * 0.5, rel=0.01)

    def test_approaches_puncture(self):
        lam = make_lambda()
        dists = [
            np.linalg.norm(lam.forward(np.array([0.3, 1 - eps])) - [0.5, 0.5])
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-2

    def test_unit_jacobian(self):
        lam = make_lambda()
        pts = np.stack(
            [RNG.uniform(0, 1, 20_000), RNG.uniform(1e-3, 1 - 1e-3, 20_000)], axis=-1
        )
        pts = pts[composed_lambda().singular_distance(pts) > 1e-4][:10_000]
        det = np.linalg.det(lam.jacobian(pts))
        assert np.abs(det - 1).max() < 1e-9


class TestLambdaPrime:
    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_round_trip(self, c):
        lamp = make_lambda_prime(c)
        pts = np.stack(
            [RNG.uniform(1e-4, 1 - 1e-4, 10_000), RNG.uniform(0, c, 10_000)], axis=-1
        )
        back = lamp.inverse(lamp.forward(pts))
        da = np.abs(back[:, 1] - pts[:, 1])
        da = np.minimum(da, c - da)
        assert np.abs(back[:, 0] - pts[:, 0]).max() < 1e-9
        assert da.max() < 1e-9

    def test_image_in_rectangle_c1(self):
        lamp = make_lambda_prime(1.0)
        rng = np.random.default_rng(8)
        pts = np.stack(
            [rng.uniform(1e-6, 1 - 1e-6, 100_000), rng.uniform(0, 1, 100_000)], axis=-1
        )
        z = lamp.forward(pts)
        assert np.all((z > 0) & (z < 1))
        assert not np.any((z[:, 0] == 0.5) & (z[:, 1] == 0.5))

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_unit_jacobian(self, c):
        lamp = make_lambda_prime(c)
        pts = np.stack(
            [RNG.uniform(1e-3, 1 - 1e-3, 20_000), RNG.uniform(0, c, 20_000)], axis=-1
        )
        pts = pts[composed_lambda_prime(c).singular_distance(pts) > 1e-4][:10_000]
        det = np.linalg.det(lamp.jacobian(pts))
        assert np.abs(det - 1).max() < 1e-9

    def test_puncture_at_rectangle_center(self):
        lamp = make_lambda_prime(2.0)
        near = lamp.forward(np.array([1 - 1e-9, 0.3]))
        assert np.linalg.norm(near - [0.5, 1.0]) < 1e-3


class TestClosedFormsMatchComposition:
    """λ and λ′ in closed form against their compositions
    (`composed_maps`) on 10⁵ points, heights within 1e-4 of 0 and 1
    excluded.  Measured worst gaps: λ 7e-16 forward and inverse, 1e-14
    Jacobian; λ′ 3e-15 forward, 4e-14 inverse (the composition's own
    loss through np.linalg.inv), 5e-14 Jacobian.  The Jacobians jump
    across κ's diagonals, so they are compared 1e-6 away from them."""

    COUNT = 100_000

    def check(self, closed, composed, cyl, periodic_axis, period, square):
        def gap(a, b, axis=None):
            d = np.abs(a - b)
            if axis is not None:
                d[:, axis] = np.minimum(d[:, axis], period - d[:, axis])
            return d.max()

        assert gap(closed.forward(cyl), composed.forward(cyl)) < 1e-14
        assert gap(closed.inverse(square), composed.inverse(square.copy()), periodic_axis) < 1e-13
        smooth = cyl[composed.singular_distance(cyl) > 1e-6]
        J, Jref = closed.jacobian(smooth), composed.jacobian(smooth)
        assert np.abs((J - Jref) / np.maximum(np.abs(Jref), 1)).max() < 1e-13

    def test_lambda(self):
        rng = np.random.default_rng(21)
        cyl = np.stack(
            [rng.uniform(0, 1, self.COUNT), rng.uniform(1e-4, 1 - 1e-4, self.COUNT)], axis=-1
        )
        square = rng.uniform(0, 1, (self.COUNT, 2))
        self.check(make_lambda(), composed_lambda(), cyl, 0, 1.0, square)

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, math.pi])
    def test_lambda_prime(self, c):
        rng = np.random.default_rng(22)
        cyl = np.stack(
            [rng.uniform(1e-4, 1 - 1e-4, self.COUNT), rng.uniform(0, c, self.COUNT)], axis=-1
        )
        rect = rng.uniform(0, 1, (self.COUNT, 2)) * [1.0, c]
        self.check(make_lambda_prime(c), composed_lambda_prime(c), cyl, 1, c, rect)

    def test_bounds_fail_on_a_wrong_constant(self):
        wrong = composed_lambda_prime(2.0 * (1 + 1e-12))
        rng = np.random.default_rng(23)
        cyl = np.stack([rng.uniform(0.1, 0.9, 1000), rng.uniform(0, 2.0, 1000)], axis=-1)
        with pytest.raises(AssertionError):
            self.check(make_lambda_prime(2.0), wrong, cyl, 1, 2.0, cyl)


class TestPhi:
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_containment(self, c):
        phi = build_phi(EmbeddingConfig(n=2, c=c))
        X = np.random.default_rng(9).uniform(0, 1, (100_000, 4))
        Y = phi.forward(X)
        assert np.all((Y[:, :3] > 0) & (Y[:, :3] < 1))
        assert np.all((Y[:, 3] > 0) & (Y[:, 3] < c))

    def test_symplectic(self):
        phi = build_phi(EmbeddingConfig(n=2, c=1.5))
        rep = check_symplectic(phi, smooth_sample(phi, 2000, seed=0))
        assert rep.passed and rep.max_deviation < 1e-8

    def test_jacobian_vs_finite_differences(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        X = phi.sample_domain(np.random.default_rng(10), 500, margin=1e-3)
        J = phi.jacobian(X)
        Jfd = finite_difference_jacobian(phi.forward, X, 1e-6)
        rel = np.abs(J - Jfd) / np.maximum(np.abs(J), 1.0)
        assert rel.max() < 1e-5

    def test_inverse_round_trip(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        X = np.random.default_rng(11).uniform(0, 1, (10_000, 4))
        Y = phi.forward(X)
        assert phi.image_contains(Y).all()
        assert np.abs(phi.inverse(Y) - X).max() < 1e-12

    @pytest.mark.parametrize("n, c", [(2, 1.0), (2, math.pi), (3, 2.0)])
    def test_image_contains_every_image_point(self, n, c):
        phi = build_phi(EmbeddingConfig(n=n, c=c))
        X = np.random.default_rng(16).uniform(0, 1, (20_000, 2 * n))
        Y = phi.forward(X)
        assert phi.image_contains(Y).all()
        assert np.abs(phi.inverse(Y) - X).max() < 1e-12

    def test_domain_error(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        with pytest.raises(DomainError):
            phi.forward(np.array([1.5, 0.5, 0.5, 0.5]))

    def test_n3_extends_n2(self):
        phi3 = build_phi(EmbeddingConfig(n=3, c=1.5))
        phi2 = build_phi(EmbeddingConfig(n=2, c=1.5))
        X = np.random.default_rng(12).uniform(0, 1, (5000, 6))
        Y = phi3.forward(X)
        assert np.array_equal(Y[:, :4], phi2.forward(X[:, :4]))
        assert np.array_equal(Y[:, 4:], X[:, 4:])

    def test_image_volume(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, (1_000_000, 4))
        pts[:, 3] *= 2.0
        vol = phi.image_contains(pts).mean() * 2.0
        assert vol == pytest.approx(1.0, abs=0.02)


class TestPsi:
    @pytest.mark.parametrize("a", [1.0, 0.5])
    def test_containment(self, a):
        psi = build_psi(EmbeddingConfig(n=2, c=1.0 / a), a)
        X = psi.sample_domain(np.random.default_rng(14), 50_000)
        Y = psi.forward(X)
        assert np.all(np.hypot(Y[:, 0], Y[:, 1]) < DISC_RADIUS)

    def test_symplectic(self):
        psi = build_psi(EmbeddingConfig(n=2, c=2.0), 0.5)
        rep = check_symplectic(psi, smooth_sample(psi, 2000, seed=1))
        assert rep.passed

    def test_domain_error(self):
        psi = build_psi(EmbeddingConfig(n=2, c=2.0), 0.5)
        with pytest.raises(DomainError):
            psi.forward(np.full(4, DISC_RADIUS))

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            build_psi(EmbeddingConfig(n=2, c=2.0), 1.5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_sector_composition(self, n):
        """ψ, with χ on its first output pair, against κ⁻¹∘φ∘κⁿ through
        the sector κ.  Measured worst gaps over n = 2, 3, 4: 3.3e-15
        forward, 5.2e-14 Jacobian (relative)."""
        cfg = EmbeddingConfig(n=n, c=2.0)
        psi, ref = build_psi(cfg, 0.5), ComposedPsi(cfg, 0.5)
        X = psi.sample_domain(np.random.default_rng(33), 20_000, margin=SMOOTH_MARGIN)
        assert np.abs(psi.forward(X) - ref.forward(X)).max() < 1e-14
        J, Jref = psi.jacobian(X), ref.jacobian(X)
        assert np.abs((J - Jref) / np.maximum(np.abs(Jref), 1)).max() < 1e-12


def _block_product(first, X, c, S=None):
    """diag(J₁, Jλ′, I)·S at the cube points X, J₁ the Jacobian of the
    map `first` of the first wrapped pair, as one matrix product; S is
    the shear unless given."""
    n = X.shape[-1] // 2
    W = shear_wrap(X, c)
    block = np.zeros(X.shape[:-1] + (2 * n, 2 * n))
    block[..., 0:2, 0:2] = first.jacobian(W[..., 0:2])
    block[..., 2:4, 2:4] = make_lambda_prime(c).jacobian(W[..., 2:4])
    idx = np.arange(4, 2 * n)
    block[..., idx, idx] = 1.0
    return block @ (shear(c, n) if S is None else S)


class TestJacobianBlocks:
    """φ's closed-form Jacobian columns equal diag(Jλ, Jλ′, I)·S, and ψ's
    that product with χ in λ's place at κ(X), times κ's pair blocks."""

    CASES = [(n, c) for n in (2, 3, 4) for c in (1.0, 1.5, 2.0, math.pi, 600.0)]

    @pytest.mark.parametrize("n, c", CASES)
    def test_phi(self, n, c):
        phi = build_phi(EmbeddingConfig(n=n, c=c))
        X = phi.sample_domain(np.random.default_rng(40), 2000, margin=SMOOTH_MARGIN)
        assert np.array_equal(phi.jacobian(X), _block_product(make_lambda(), X, c))

    @pytest.mark.parametrize("n, c", CASES)
    def test_psi(self, n, c):
        psi = build_psi(EmbeddingConfig(n=n, c=c), 1.0 / c)
        X = psi.sample_domain(np.random.default_rng(41), 2000, margin=SMOOTH_MARGIN)
        ref = _block_product(ChiMap(), psi._to_cube(X), psi.c)
        for i in range(n):
            pair = slice(2 * i, 2 * i + 2)
            ref[..., pair] = ref[..., pair] @ KappaMap().jacobian(X[..., pair])
        assert np.array_equal(psi.jacobian(X), ref)

    def test_fails_on_a_wrong_shear_sign(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        X = phi.sample_domain(np.random.default_rng(42), 100, margin=SMOOTH_MARGIN)
        wrong = _block_product(make_lambda(), X, 2.0, shear(-2.0))
        assert np.abs(phi.jacobian(X) - wrong).max() > 1.0


class TestColumnMasks:
    """The box and ball masks test column by column, with the bits of
    the row reductions they replace."""

    @pytest.mark.parametrize("d", [2, 4, 6, 7, 8, 10, 16, 48])
    def test_sum_of_squares_is_np_sum(self, d):
        X = np.random.default_rng(d).normal(size=(20_000, d))
        assert np.array_equal(maps._sum_of_squares(X), np.sum(X * X, axis=-1))
        assert np.array_equal(np.sqrt(maps._sum_of_squares(X)), np.linalg.norm(X, axis=-1))

    @pytest.mark.parametrize("d", [4, 6, 16])
    def test_in_box_is_np_all(self, d):
        X = np.random.default_rng(d).uniform(-0.001, 1.001, (20_000, d))
        X[:5, -1] = [0.0, 1.0, 0.5, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
        top = np.random.default_rng(0).uniform(0.999, 1.001, d)
        assert np.array_equal(maps._in_box(X, 0.0, 1.0), np.all((X > 0.0) & (X < 1.0), axis=-1))
        assert np.array_equal(maps._in_box(X, 0.0, top), np.all((X > 0.0) & (X < top), axis=-1))
        assert np.array_equal(maps._in_box(X[3], 1e-4, 1 - 1e-4), np.all((X[3] > 1e-4) & (X[3] < 1 - 1e-4)))


class TestBlockDefect:
    """The defect from the Jacobian blocks, max(|CᵀΩ₄C − Ω₄|, |det Bᵢ − 1|),
    is the dense defect of the same Jacobian to the bit (a bound of 0
    ulps): `jacobian_defect` sums each entry pair by pair, so the zero
    entries of the dense matrix add exact zeros.  The dense matrix is
    assembled from the blocks, and the blocks are the Jacobians the
    composition names."""

    CASES = [(n, c) for n in (2, 3, 8) for c in (1.0, 2.0, math.pi)]

    @staticmethod
    def maps(n, c):
        cfg = EmbeddingConfig(n=n, c=c)
        return build_phi(cfg), build_psi(cfg, 1.0 / c)

    @pytest.mark.parametrize("n, c", CASES)
    def test_equals_the_dense_defect(self, n, c):
        for pm in self.maps(n, c):
            X = smooth_sample(pm, 2000, seed=n)
            C, B = pm.jacobian_blocks(X)
            assert C.shape == (2000, 4, 4) and B.shape == (2000, n - 2, 2, 2)
            dense = jacobian_defect(pm.jacobian(X))
            assert np.array_equal(block_defect(C, B), dense)
            assert dense.max() < 1e-12

    @pytest.mark.parametrize("n, c", CASES)
    def test_blocks_are_identity_and_kappa_jacobians(self, n, c):
        phi, psi = self.maps(n, c)
        X = smooth_sample(phi, 500, seed=1)
        _, B = phi.jacobian_blocks(X)
        assert np.array_equal(B, np.broadcast_to(np.eye(2), B.shape))
        Xb = smooth_sample(psi, 500, seed=2)
        _, B = psi.jacobian_blocks(Xb)
        for i in range(2, n):
            assert np.array_equal(B[:, i - 2], KappaMap().jacobian(Xb[:, 2 * i : 2 * i + 2]))

    @staticmethod
    def _two_walk_mask(psi, X, margin):
        """ψ's smooth mask with a second κ walk: off κ's kinks, then
        `KappaMap.forward` of every pair and φ′'s mask of the cube point."""
        ok = psi._off_kinks(X, margin)
        U = np.empty_like(X[ok])
        for i in range(psi.n):
            U[:, 2 * i : 2 * i + 2] = KappaMap().forward(X[ok][:, 2 * i : 2 * i + 2])
        ok[ok] = psi._phi._smooth_wrapped(U, shear_wrap(U, psi.c), margin)
        return ok

    @pytest.mark.parametrize("n, c", CASES)
    def test_smooth_blocks_walk_kappa_once(self, n, c, monkeypatch):
        """ψ's smooth mask and blocks share one κ walk per pair; the mask
        equals the two-walk reference and the blocks `jacobian_blocks`."""
        _, psi = self.maps(n, c)
        X = psi._raw_samples(np.random.default_rng(5), 3000)
        X[:10, 0] = X[:10, 1]  # on κ's diagonal
        X[10:20, -2] = -X[10:20, -1]  # on the last pair's anti-diagonal
        ok_ref = self._two_walk_mask(psi, X, SMOOTH_MARGIN)
        assert not ok_ref[:20].any() and ok_ref.mean() > 0.5
        assert np.array_equal(psi.smooth_mask(X, SMOOTH_MARGIN), ok_ref)
        C_ref, B_ref = psi.jacobian_blocks(X[ok_ref])
        walks = []
        real = maps._disc_walk
        monkeypatch.setattr(maps, "_disc_walk", lambda x, y: walks.append(len(x)) or real(x, y))
        monkeypatch.setattr(KappaMap, "forward", None)
        ok, C, B = psi.smooth_blocks(X, SMOOTH_MARGIN)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(C, C_ref) and np.array_equal(B, B_ref)
        assert len(walks) == n and sum(walks) == n * int(psi._off_kinks(X, SMOOTH_MARGIN).sum())

    def test_det_defect_sees_a_scaled_trailing_block(self, monkeypatch):
        _, psi = self.maps(3, 2.0)
        X = smooth_sample(psi, 1000, seed=6)
        real = PsiMap._kappa_pairs

        def scaled(pm, X):
            U, K = real(pm, X)
            K[..., 2, :, :] *= 1 + 1e-6
            return U, K

        monkeypatch.setattr(PsiMap, "_kappa_pairs", scaled)
        dev = block_defect(*psi.jacobian_blocks(X))
        assert np.abs(dev / 2e-6 - 1).max() < 1e-3
        assert not check_symplectic(psi, X).passed


class TestPunctures:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("c", [1.0, 2.0, math.pi, 600.0])
    def test_image_excludes_y0_and_z0(self, n, c):
        """The inverse sends y0 to P1 = 1 and z0 to Q2 = 1, off the open
        cube, so image_contains needs no puncture test of its own."""
        phi = build_phi(EmbeddingConfig(n=n, c=c))
        Y = phi.forward(np.random.default_rng(43).uniform(0.1, 0.9, (2, 2 * n)))
        Y[0, 0:2] = 0.5, 0.5
        Y[1, 2:4] = 0.5, c / 2
        X = phi.inverse(Y)
        assert X[0, 1] == 1.0 and X[1, 2] == 1.0
        assert not phi.image_contains(Y).any()


class TestShapes:
    @pytest.mark.parametrize(
        "pm", [build_phi(EmbeddingConfig(n=3, c=2.0)), build_psi(EmbeddingConfig(n=3, c=2.0), 0.5)]
    )
    @pytest.mark.parametrize("X", [0.5, np.full(4, 0.1), np.full((3, 7), 0.1)])
    def test_bad_shape_names_the_expected_shape(self, pm, X):
        mask = lambda X: pm.smooth_mask(X, SMOOTH_MARGIN)  # noqa: E731
        for method in (pm.contains, pm.forward, pm.jacobian, mask):
            with pytest.raises(ValueError, match=r"expected points of shape \(\.\.\., 6\)"):
                method(X)


class TestPsiSmoothMask:
    """ψ's first output pair is χ, smooth off the centre, so its mask
    rejects κ's diagonals and λ′'s, but not λ's."""

    PSI = build_psi(EmbeddingConfig(n=2, c=2.0), 0.5)

    def _lambda_diagonal_distance(self, X):
        W = shear_wrap(self.PSI._to_cube(X), self.PSI.c)
        angles = np.array([0.125, 0.375, 0.625, 0.875])
        return circle_distance(W[:, 0:1], angles).min(axis=-1)

    def test_admits_points_beside_lambda_diagonals(self):
        psi = self.PSI
        X = psi._raw_samples(np.random.default_rng(34), 200_000)
        d1 = self._lambda_diagonal_distance(X)
        ok = psi.smooth_mask(X, SMOOTH_MARGIN)
        # Within the margin itself, where a mask borrowing λ's kinks
        # rejects everything, the other tests reject only a few points.
        on = d1 <= SMOOTH_MARGIN
        assert on.sum() > 100 and ok[on].mean() > 0.95
        near = X[ok & (d1 < 1e-3)]
        assert len(near) > 1000
        J = psi.jacobian(near)
        Jfd = finite_difference_jacobian(psi.forward, near, 1e-6)
        assert np.abs(J - Jfd).max() < 1e-6
        assert jacobian_defect(J).max() < 1e-12

    def test_rejects_kappa_input_diagonal(self):
        r = 0.3
        for angle, admitted in [(math.pi / 4, False), (math.pi / 4 + 0.01, True)]:
            X = np.array([[r * math.cos(angle), r * math.sin(angle), 0.05, -0.1]])
            assert self.PSI.smooth_mask(X, SMOOTH_MARGIN)[0] == admitted

    def test_rejects_lambda_prime_diagonal(self):
        # U = κ(X) with c·P1 + Q2 = 0.75, so λ′ reads the angle
        # −0.75/c mod 1 = 0.625, a diagonal; Q2 = 0.17 moves it off.
        kappa = KappaMap()
        for q2, admitted in [(0.15, False), (0.17, True)]:
            U = np.array([[0.5, 0.3], [0.5, q2]])
            X = kappa.inverse(U).reshape(1, 4)
            assert self.PSI.smooth_mask(X, SMOOTH_MARGIN)[0] == admitted


class _LinearPhaseMap(PhaseMap):
    """X -> M X on all of R^4."""

    dim = 4

    def __init__(self, M):
        self.M = M

    def forward(self, X):
        return X @ self.M.T

    def jacobian(self, X):
        return np.broadcast_to(self.M, X.shape[:-1] + (4, 4)).copy()

    def contains(self, X):
        return np.ones(X.shape[:-1], dtype=bool)

    def _raw_samples(self, rng, count):
        return rng.uniform(-1.0, 1.0, size=(count, 4))


class TestCheckSymplectic:
    def test_identity_like_map_zero_deviation(self):
        pm = _LinearPhaseMap(np.eye(4))
        assert jacobian_defect(pm.jacobian(RNG.uniform(0, 1, (100, 4)))).max() == 0.0

    def test_shear_exact(self):
        pm = _LinearPhaseMap(shear(2.0))
        rep = check_symplectic(pm, smooth_sample(pm, 100, seed=2))
        assert rep.max_deviation < 1e-12

    def test_report_fields(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        rep = check_symplectic(phi, smooth_sample(phi, 10, seed=3))
        assert rep.samples == 10 and rep.passed and rep.max_deviation < 1e-12
        assert len(rep.worst_point) == 4

    def test_invalid_samples(self):
        phi = build_phi(EmbeddingConfig(n=2, c=2.0))
        with pytest.raises(ValueError):
            check_symplectic(phi, np.empty((0, 4)))
        # Every point on the cube's margin: none is left to check.
        with pytest.raises(ValueError, match="no point to check"):
            check_symplectic(phi, np.full((5, 4), SMOOTH_MARGIN / 2))

    def test_reads_only_the_smooth_points(self):
        """Points within SMOOTH_MARGIN of a singular locus are skipped and
        not counted; the others are checked as given."""
        cfg = EmbeddingConfig(n=3, c=2.0)
        for pm in (build_phi(cfg), build_psi(cfg, 0.5)):
            X = smooth_sample(pm, 50, seed=4)
            rough = X.copy()
            rough[::5, 0:2] = 0.0  # off the cube for φ, κ's centre for ψ
            rep, ref = check_symplectic(pm, rough), check_symplectic(pm, np.delete(X, np.s_[::5], 0))
            assert rep.samples == ref.samples == 40
            assert (rep.max_deviation, rep.worst_point) == (ref.max_deviation, ref.worst_point)


class TestBlocks:
    """The phase maps' row blocks are invisible: every block size gives
    the same bits, and the domain check still covers every row."""

    B = 7

    @staticmethod
    def _rows(monkeypatch, rows, width):
        """Blocks of `rows` rows for inputs of row length `width`."""
        monkeypatch.setattr(maps, "_BLOCK_ELEMENTS", max(rows, 1) * width)

    def _inputs(self, n, m):
        cfg = EmbeddingConfig(n=n, c=2.0)
        phi, psi = build_phi(cfg), build_psi(cfg, 0.5)
        rng = np.random.default_rng(100 * n + m)
        X = rng.uniform(0.0, 1.0, (m, 2 * n))
        # Box points, about half of them in φ's image.
        Y = rng.uniform(0.0, 1.0, (m, 2 * n))
        Y[:, 3] *= 2.0
        return phi, psi, X, Y, psi._raw_samples(rng, m)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_phase_maps_equal_at_any_block_size(self, n, m, monkeypatch):
        phi, psi, X, Y, Xb = self._inputs(n, m)
        out = []
        for rows in (self.B, m):
            self._rows(monkeypatch, rows, 2 * n)
            out.append((phi.forward(X), phi.image_contains(Y), psi.forward(Xb)))
        # At B rows, φ's body sees one slice of X per block.
        real, calls = PhiMap._forward, []
        monkeypatch.setattr(PhiMap, "_forward", lambda pm, X: calls.append(len(X)) or real(pm, X))
        self._rows(monkeypatch, self.B, 2 * n)
        phi.forward(X)
        assert calls == [len(X[i : i + self.B]) for i in range(0, max(m, 1), self.B)]
        for blocked, whole in zip(*out):
            assert blocked.dtype == whole.dtype and np.array_equal(blocked, whole)
        assert out[0][0].shape == (m, 2 * n) and out[0][1].shape == (m,)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("samples", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_check_symplectic_equal_at_any_block_size(self, n, samples, monkeypatch):
        """Same defects, worst point and count at B rows per block and in
        one block, with a point off the smooth set in the last block."""
        cfg = EmbeddingConfig(n=n, c=2.0)
        for pm in (build_phi(cfg), build_psi(cfg, 0.5)):
            X = smooth_sample(pm, samples + 1, seed=samples)
            X[-1, 0:2] = 0.0  # off the cube for φ, κ's centre for ψ
            reports, blocks = [], []
            real = type(pm).smooth_blocks
            monkeypatch.setattr(
                type(pm), "smooth_blocks", lambda pm, X, m: blocks.append(len(X)) or real(pm, X, m)
            )
            for rows in (self.B, samples + 1):
                # check_symplectic's row blocks hold 8 floats per coordinate.
                self._rows(monkeypatch, rows, 8 * 2 * n)
                reports.append(check_symplectic(pm, X))
            monkeypatch.undo()
            blocked, whole = reports
            assert blocked.max_deviation == whole.max_deviation
            assert blocked.worst_point == whole.worst_point
            assert blocked.samples == whole.samples == samples
            sizes = [len(X[i : i + self.B]) for i in range(0, samples + 1, self.B)]
            assert blocks == sizes + [samples + 1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_domain_error_in_the_last_block(self, n, monkeypatch):
        self._rows(monkeypatch, self.B, 2 * n)
        phi, psi, X, _, Xb = self._inputs(n, 2 * self.B + 1)
        X[-1, -1] = 1.0
        with pytest.raises(DomainError, match="open unit cube"):
            phi.forward(X)
        Xb[-1] *= 1.01 * DISC_RADIUS / np.linalg.norm(Xb[-1])
        with pytest.raises(DomainError, match="open ball"):
            psi.forward(Xb)

    # At n = 8 a 1-D point has more coordinates than a block has rows.
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_one_and_three_dimensional_inputs(self, n, monkeypatch):
        self._rows(monkeypatch, self.B, 2 * n)
        phi, psi, X, Y, Xb = self._inputs(n, 2 * self.B + 2)
        for f, A in ((phi.forward, X), (phi.image_contains, Y), (psi.forward, Xb)):
            whole = f(A)
            assert np.array_equal(f(A[3]), whole[3])
            stacked = f(A.reshape(2, self.B + 1, 2 * n))
            assert np.array_equal(stacked, whole.reshape(stacked.shape))

    def test_sample_domain_draws_are_unchanged(self):
        """A draw the mask accepts whole is returned as drawn; otherwise
        the accepted rows of successive draws are concatenated."""
        cfg = EmbeddingConfig(n=3, c=2.0)
        for pm in (build_phi(cfg), build_psi(cfg, 0.5)):
            got = pm.sample_domain(np.random.default_rng(8), 1000)
            assert np.array_equal(got, pm._raw_samples(np.random.default_rng(8), 1000))
        half = _LinearPhaseMap(np.eye(4))
        half.contains = lambda X: X[:, 0] > 0.0
        rng = np.random.default_rng(9)
        kept = np.concatenate([X[X[:, 0] > 0] for X in (half._raw_samples(rng, 1000) for _ in range(3))])
        assert np.array_equal(half.sample_domain(np.random.default_rng(9), 1000), kept[:1000])
