"""λ and λ′ built as compositions of plane maps, the way `cubewrap.maps`
wrote them before they had closed forms: λ = κ∘χ and λ′ = scale∘κ_√c∘
χ_c∘swap, with χ_L,H the cylinder (R/LZ) x [0, H) onto the disc of area
L·H and κ_s the concentric map onto the square of side s.  κ is
`SectorKappa`, the concentric map written sector by sector with trig:
its forward through arctan2 and one branch per sector, its inverse with
one branch per pair of sectors, and its Jacobian as the matrix inverse
of the inverse's.  It shares no code with `cubewrap.maps.KappaMap`,
which walks λ's sectors.  The tests use these as an independent
reference for the closed forms, and for the distance from the sets
where the compositions are not smooth.
"""
import math

import numpy as np

from cubewrap.maps import DISC_RADIUS, DomainError, _as_points, make_lambda

TWO_PI = 2.0 * math.pi


class Chi:
    """χ_L,H: (q, p) to radius √(L(H − p)/π) at angle 2πq/L."""

    def __init__(self, L, H):
        self.L, self.H = L, H

    def forward(self, pts):
        theta = TWO_PI * pts[..., 0] / self.L
        rho = np.sqrt(self.L * (self.H - pts[..., 1]) / math.pi)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)

    def inverse(self, pts):
        x, y = pts[..., 0], pts[..., 1]
        p = self.H - math.pi * (x * x + y * y) / self.L
        q = np.mod(self.L * np.arctan2(y, x) / TWO_PI, self.L)
        return np.stack([q, p], axis=-1)

    def jacobian(self, pts):
        theta = TWO_PI * pts[..., 0] / self.L
        rho = np.sqrt(self.L * (self.H - pts[..., 1]) / math.pi)
        drho_dp = -self.L / (TWO_PI * rho)
        dtheta_dq = TWO_PI / self.L
        c, s = np.cos(theta), np.sin(theta)
        J = np.empty(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -rho * s * dtheta_dq
        J[..., 0, 1] = c * drho_dp
        J[..., 1, 0] = rho * c * dtheta_dq
        J[..., 1, 1] = s * drho_dp
        return J

    def singular_distance(self, pts):
        return self.H - pts[..., 1]


class SectorKappa:
    """Equal-area concentric map from the closed disc of radius
    1/sqrt(pi) (centered at 0) onto the unit square.

    Concentric circles go to concentric squares; within each of the four
    diagonal sectors the angle is reparametrized linearly.  The Jacobian
    determinant is 1 away from the four diagonal rays, where the map is
    continuous but not differentiable.
    """

    def forward(self, pts):
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        rho = np.hypot(x, y)
        if np.any(rho > DISC_RADIUS * (1 + 1e-12)):
            raise DomainError("point outside the closed disc")
        theta = np.arctan2(y, x)
        m = rho * math.sqrt(math.pi) / 2.0
        k = 4.0 / math.pi
        right = np.abs(theta) <= math.pi / 4
        top = (theta > math.pi / 4) & (theta <= 3 * math.pi / 4)
        bottom = (theta < -math.pi / 4) & (theta >= -3 * math.pi / 4)
        left = ~(right | top | bottom)
        u = np.where(
            right, m, np.where(top, m * (2.0 - k * theta), 0.0)
        )
        v = np.where(
            right, m * k * theta, np.where(top, m, 0.0)
        )
        # Left sector: angle measured from the negative x-axis.
        phi_left = np.where(theta > 0, theta - math.pi, theta + math.pi)
        u = np.where(left, -m, u)
        v = np.where(left, -m * k * phi_left, v)
        u = np.where(bottom, m * (2.0 + k * theta), u)
        v = np.where(bottom, -m, v)
        return np.stack([u + 0.5, v + 0.5], axis=-1)

    def inverse(self, pts):
        # Evaluated in long double and rounded to float64 once, so each
        # coordinate is within about half an ulp of the map at the float64
        # offsets u, v: float64 throughout stacks up to ~2 ulps per
        # coordinate, and |κ⁻¹|² then misses its closed form
        # (4/π)·max(u², v²) by up to 6 ulps instead of at most 4.
        pts = _as_points(pts)
        u = (pts[..., 0] - 0.5).astype(np.longdouble)
        v = (pts[..., 1] - 0.5).astype(np.longdouble)
        au, av = np.abs(u), np.abs(v)
        pi = 4 * np.arctan(np.longdouble(1))
        kk = 2 / np.sqrt(pi)
        # Branch |u| >= |v|: signed radius u, angle (pi/4)(v/u).
        safe_u = np.where(u == 0, 1, u)
        safe_v = np.where(v == 0, 1, v)
        phi1 = (pi / 4) * (v / safe_u)
        phi2 = pi / 2 - (pi / 4) * (u / safe_v)
        use1 = au >= av
        r_signed = np.where(use1, u, v)
        phi = np.where(use1, phi1, phi2)
        x = kk * r_signed * np.cos(phi)
        y = kk * r_signed * np.sin(phi)
        origin = (au == 0) & (av == 0)
        x = np.where(origin, 0, x)
        y = np.where(origin, 0, y)
        return np.stack([x, y], axis=-1).astype(np.float64)

    def _jacobian_square_to_disc(self, square_pts):
        pts = _as_points(square_pts)
        u = pts[..., 0] - 0.5
        v = pts[..., 1] - 0.5
        au, av = np.abs(u), np.abs(v)
        kk = 2.0 / math.sqrt(math.pi)
        use1 = au >= av
        safe_u = np.where(u == 0, 1.0, u)
        safe_v = np.where(v == 0, 1.0, v)
        J = np.empty(pts.shape[:-1] + (2, 2))
        # Branch 1: X = kk*u*cos(phi), Y = kk*u*sin(phi), phi = (pi/4)(v/u).
        phi = (math.pi / 4.0) * (v / safe_u)
        cph, sph = np.cos(phi), np.sin(phi)
        phi_u = -(math.pi / 4.0) * v / safe_u**2
        phi_v = (math.pi / 4.0) / safe_u
        J1 = np.empty_like(J)
        J1[..., 0, 0] = kk * (cph - u * sph * phi_u)
        J1[..., 0, 1] = -kk * u * sph * phi_v
        J1[..., 1, 0] = kk * (sph + u * cph * phi_u)
        J1[..., 1, 1] = kk * u * cph * phi_v
        # Branch 2: X = kk*v*cos(phi), Y = kk*v*sin(phi), phi = pi/2 - (pi/4)(u/v).
        phi = math.pi / 2.0 - (math.pi / 4.0) * (u / safe_v)
        cph, sph = np.cos(phi), np.sin(phi)
        phi_u = -(math.pi / 4.0) / safe_v
        phi_v = (math.pi / 4.0) * u / safe_v**2
        J2 = np.empty_like(J)
        J2[..., 0, 0] = -kk * v * sph * phi_u
        J2[..., 0, 1] = kk * (cph - v * sph * phi_v)
        J2[..., 1, 0] = kk * v * cph * phi_u
        J2[..., 1, 1] = kk * (sph + v * cph * phi_v)
        mask = use1[..., None, None]
        return np.where(mask, J1, J2)

    def jacobian(self, pts):
        # Forward (disc -> square) Jacobian: invert the closed-form
        # square -> disc Jacobian at the image point.
        square_pts = self.forward(pts)
        return np.linalg.inv(self._jacobian_square_to_disc(square_pts))

    def jacobian_inverse(self, pts):
        """Jacobian of the inverse (square -> disc) map at square points."""
        return self._jacobian_square_to_disc(pts)

    def singular_distance(self, pts):
        """Distance from the four diagonal rays (sector boundaries) and 0,
        where the map is not differentiable."""
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        d_diag = np.minimum(np.abs(x - y), np.abs(x + y)) / math.sqrt(2.0)
        return np.minimum(d_diag, np.hypot(x, y))


class ScaledKappa:
    """κ_s(x) = s·κ(x/s), onto the square [0, s]²."""

    def __init__(self, side):
        self.side = side

    def forward(self, pts):
        return self.side * SectorKappa().forward(pts / self.side)

    def inverse(self, pts):
        return self.side * SectorKappa().inverse(pts / self.side)

    def jacobian(self, pts):
        return SectorKappa().jacobian(pts / self.side)

    def singular_distance(self, pts):
        return self.side * SectorKappa().singular_distance(pts / self.side)


class Linear:
    def __init__(self, matrix):
        self.A = np.asarray(matrix, dtype=float)

    def forward(self, pts):
        return pts @ self.A.T

    def inverse(self, pts):
        return pts @ np.linalg.inv(self.A).T

    def jacobian(self, pts):
        return np.broadcast_to(self.A, pts.shape[:-1] + (2, 2))

    def singular_distance(self, pts):
        return np.full(pts.shape[:-1], np.inf)


class Composed:
    """Maps applied left to right; `inverse` reduces the periodic axis."""

    def __init__(self, maps, periodic_axis, period):
        self.maps, self.periodic_axis, self.period = maps, periodic_axis, period

    def forward(self, pts):
        for m in self.maps:
            pts = m.forward(pts)
        return pts

    def inverse(self, pts):
        for m in reversed(self.maps):
            pts = m.inverse(pts)
        pts[..., self.periodic_axis] = np.mod(pts[..., self.periodic_axis], self.period)
        return pts

    def jacobian(self, pts):
        J = np.eye(2)
        for m in self.maps:
            J = m.jacobian(pts) @ J
            pts = m.forward(pts)
        return J

    def singular_distance(self, pts):
        d = np.full(pts.shape[:-1], np.inf)
        for m in self.maps:
            d = np.minimum(d, m.singular_distance(pts))
            pts = m.forward(pts)
        return d


def composed_lambda():
    return Composed((Chi(1.0, 1.0), ScaledKappa(1.0)), 0, 1.0)


def composed_lambda_prime(c):
    sqc = math.sqrt(c)
    swap = Linear(((0.0, -1.0), (1.0, 0.0)))
    scale = Linear(((1.0 / sqc, 0.0), (0.0, sqc)))
    return Composed((swap, Chi(c, 1.0), ScaledKappa(sqc), scale), 1, c)


def chi_jacobian(qp):
    """The Jacobian of `cubewrap.maps.ChiMap` by the chain rule through
    χ = κ⁻¹∘λ: the sector Jκ⁻¹ at λ(q, p) times Jλ(q, p)."""
    lam = make_lambda()
    return SectorKappa().jacobian_inverse(lam.forward(qp)) @ lam.jacobian(qp)


class ComposedPsi:
    """The ball embedding as κ⁻¹∘φ∘κⁿ with the sector κ: κ on every
    input pair, the cube embedding, κ⁻¹ on the first output pair; its
    Jacobian by the chain rule."""

    def __init__(self, config, a):
        from cubewrap.maps import build_phi, psi_config

        self.n = config.n
        self.phi = build_phi(psi_config(config, a))

    def _to_cube(self, X):
        return np.concatenate(
            [SectorKappa().forward(X[..., 2 * i : 2 * i + 2]) for i in range(self.n)], axis=-1
        )

    def forward(self, X):
        out = self.phi.forward(self._to_cube(X))
        out[..., 0:2] = SectorKappa().inverse(out[..., 0:2])
        return out

    def jacobian(self, X):
        U = self._to_cube(X)
        dim = 2 * self.n
        J_in = np.zeros(X.shape[:-1] + (dim, dim))
        for i in range(self.n):
            pair = slice(2 * i, 2 * i + 2)
            J_in[..., pair, pair] = SectorKappa().jacobian(X[..., pair])
        J_out = np.zeros_like(J_in)
        J_out[..., 0:2, 0:2] = SectorKappa().jacobian_inverse(self.phi.forward(U)[..., 0:2])
        idx = np.arange(2, dim)
        J_out[..., idx, idx] = 1.0
        return J_out @ self.phi.jacobian(U) @ J_in
