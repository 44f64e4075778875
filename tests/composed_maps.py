"""λ and λ′ built as compositions of plane maps, the way `cubewrap.maps`
wrote them before they had closed forms: λ = κ∘χ and λ′ = scale∘κ_√c∘
χ_c∘swap, with χ_L,H the cylinder (R/LZ) x [0, H) onto the disc of area
L·H and κ_s the concentric map onto the square of side s.  The tests
use them as an independent reference for the closed forms, and for the
distance from the sets where the compositions are not smooth.
"""
import math

import numpy as np

from cubewrap.maps import KappaMap, make_lambda

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


class ScaledKappa:
    """κ_s(x) = s·κ(x/s), onto the square [0, s]²."""

    def __init__(self, side):
        self.side = side

    def forward(self, pts):
        return self.side * KappaMap().forward(pts / self.side)

    def inverse(self, pts):
        return self.side * KappaMap().inverse(pts / self.side)

    def jacobian(self, pts):
        return KappaMap().jacobian(pts / self.side)

    def singular_distance(self, pts):
        return self.side * KappaMap().singular_distance(pts / self.side)


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
    χ = κ⁻¹∘λ: Jκ⁻¹ at λ(q, p) times Jλ(q, p)."""
    lam = make_lambda()
    return KappaMap().jacobian_inverse(lam.forward(qp)) @ lam.jacobian(qp)
