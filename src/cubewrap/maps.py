"""Primitive area/symplectic maps and the composed embeddings.

Plane maps (2D) act on arrays of shape (..., 2); phase maps (2n-D) act
on arrays of shape (..., 2n).  All maps carry analytic Jacobians;
central finite differences are only used as a cross-check in the tests
and verification driver.

The two composed embeddings are

* the cube-into-polydisc embedding: shear, wrap both mixed coordinates
  onto circles, then map the two resulting cylinders onto a punctured
  square and a punctured rectangle, and

* the ball embedding obtained by conjugating with the equal-area
  disc/square map on every coordinate pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .quotient import circle_distance

__all__ = [
    "DISC_RADIUS",
    "FD_STEP",
    "SMOOTH_MARGIN",
    "SYMPLECTIC_TOL",
    "DomainError",
    "EmbeddingConfig",
    "PlaneMap2D",
    "LinearPlaneMap",
    "ChiMap",
    "KappaMap",
    "ComposedPlaneMap",
    "make_lambda",
    "square_to_cylinder",
    "make_lambda_prime",
    "shear_matrix",
    "shear_wrap",
    "unshear_wrap",
    "PhaseMap",
    "PhiMap",
    "PsiMap",
    "build_phi",
    "build_psi",
    "psi_config",
    "symplectic_matrix",
    "symplectic_defect",
    "finite_difference_jacobian",
    "check_symplectic",
    "SymplecticReport",
]

# Radius of the disc with unit area.
DISC_RADIUS = 1.0 / math.sqrt(math.pi)

TWO_PI = 2.0 * math.pi

# Largest symplectic defect max|JᵀΩJ − Ω| an analytic Jacobian may show.
SYMPLECTIC_TOL = 1e-8

# Central finite-difference step of the Jacobian cross-check.
FD_STEP = 1e-6

# Distance from the singular loci that symplectic checks sample beyond.
SMOOTH_MARGIN = 1e-4

# Batches of raw samples `sample_domain` draws before it gives up.
_MAX_TRIES = 200


class DomainError(ValueError):
    """Raised when a map is evaluated outside its domain."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Parameters of the cube-into-polydisc embedding.

    n is the half-dimension (the cube is 2n-dimensional), c >= 1 the
    length of the last polydisc factor.  The punctures y0 and z0 are
    where the cylinder-to-square maps degenerate; they sit at the
    centers of the square and of the (0,1) x (0,c) rectangle.
    """

    n: int = 2
    c: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not self.c >= 1:
            raise ValueError(f"c must be >= 1, got {self.c}")

    @property
    def z0(self):
        return (0.5, self.c / 2.0)


def _as_points(pts):
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("expected points of shape (..., 2)")
    return pts


class PlaneMap2D:
    """A 2D map with forward/inverse evaluation and an analytic Jacobian.

    `jacobian` is the Jacobian of the forward direction, shape (..., 2, 2).
    `singular_distance` returns the distance from a domain point to the
    declared singular set (inf when there is none).
    """

    def forward(self, pts):
        raise NotImplementedError

    def inverse(self, pts):
        raise NotImplementedError

    def jacobian(self, pts):
        raise NotImplementedError

    def singular_distance(self, pts):
        pts = _as_points(pts)
        return np.full(pts.shape[:-1], np.inf)


@dataclass(frozen=True)
class LinearPlaneMap(PlaneMap2D):
    matrix: tuple
    offset: tuple = (0.0, 0.0)

    def _A(self):
        return np.asarray(self.matrix, dtype=float)

    def forward(self, pts):
        return _as_points(pts) @ self._A().T + np.asarray(self.offset)

    def inverse(self, pts):
        rhs = _as_points(pts) - np.asarray(self.offset)
        return rhs @ np.linalg.inv(self._A()).T

    def jacobian(self, pts):
        pts = _as_points(pts)
        return np.broadcast_to(self._A(), pts.shape[:-1] + (2, 2)).copy()


@dataclass(frozen=True)
class ChiMap(PlaneMap2D):
    """Area-preserving map from the cylinder (R/LZ) x [0, H) onto the
    punctured closed disc of area L*H.

    (q, p) goes to the point at angle 2*pi*q/L and radius sqrt(L*(H-p)/pi):
    the bottom rim p=0 lands on the boundary circle, p -> H collapses to
    the (excluded) center.
    """

    L: float = 1.0
    H: float = 1.0

    def __post_init__(self):
        if not (self.L > 0 and self.H > 0):
            raise ValueError("circumference and height must be positive")

    @property
    def rim_radius(self) -> float:
        return math.sqrt(self.L * self.H / math.pi)

    def forward(self, pts):
        pts = _as_points(pts)
        q, p = pts[..., 0], pts[..., 1]
        if np.any(p < 0) or np.any(p >= self.H):
            raise DomainError("height coordinate outside [0, H)")
        theta = TWO_PI * q / self.L
        rho = np.sqrt(self.L * (self.H - p) / math.pi)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)

    def inverse(self, pts):
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        rho2 = x * x + y * y
        p = self.H - math.pi * rho2 / self.L
        q = np.mod(self.L * np.arctan2(y, x) / TWO_PI, self.L)
        return np.stack([q, p], axis=-1)

    def jacobian(self, pts):
        pts = _as_points(pts)
        q, p = pts[..., 0], pts[..., 1]
        theta = TWO_PI * q / self.L
        rho = np.sqrt(self.L * (self.H - p) / math.pi)
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
        # The map degenerates as p -> H (collapse to the center).
        pts = _as_points(pts)
        return self.H - pts[..., 1]


@dataclass(frozen=True)
class KappaMap(PlaneMap2D):
    """Equal-area concentric map from the closed disc of radius
    side/sqrt(pi) (centered at 0) onto the square [0, side]^2.

    Concentric circles go to concentric squares; within each of the four
    diagonal sectors the angle is reparametrized linearly.  The Jacobian
    determinant is 1 away from the four diagonal rays, where the map is
    continuous but not differentiable.
    """

    side: float = 1.0

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("side must be positive")

    @property
    def radius(self) -> float:
        return self.side / math.sqrt(math.pi)

    def forward(self, pts):
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        rho = np.hypot(x, y)
        if np.any(rho > self.radius * (1 + 1e-12)):
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
        h = self.side / 2.0
        return np.stack([u + h, v + h], axis=-1)

    def inverse(self, pts):
        pts = _as_points(pts)
        h = self.side / 2.0
        u = pts[..., 0] - h
        v = pts[..., 1] - h
        au, av = np.abs(u), np.abs(v)
        kk = 2.0 / math.sqrt(math.pi)
        # Branch |u| >= |v|: signed radius u, angle (pi/4)(v/u).
        safe_u = np.where(u == 0, 1.0, u)
        safe_v = np.where(v == 0, 1.0, v)
        phi1 = (math.pi / 4.0) * (v / safe_u)
        phi2 = math.pi / 2.0 - (math.pi / 4.0) * (u / safe_v)
        use1 = au >= av
        r_signed = np.where(use1, u, v)
        phi = np.where(use1, phi1, phi2)
        x = kk * r_signed * np.cos(phi)
        y = kk * r_signed * np.sin(phi)
        origin = (au == 0) & (av == 0)
        x = np.where(origin, 0.0, x)
        y = np.where(origin, 0.0, y)
        return np.stack([x, y], axis=-1)

    def _jacobian_square_to_disc(self, square_pts):
        pts = _as_points(square_pts)
        h = self.side / 2.0
        u = pts[..., 0] - h
        v = pts[..., 1] - h
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
        # Singular on the four diagonal rays (sector boundaries) and at 0.
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        d_diag = np.minimum(np.abs(x - y), np.abs(x + y)) / math.sqrt(2.0)
        return np.minimum(d_diag, np.hypot(x, y))


@dataclass(frozen=True)
class ComposedPlaneMap(PlaneMap2D):
    """Composition of plane maps, applied left to right.

    A cylinder map names its periodic input axis and period; `inverse`
    reduces that coordinate into [0, period)."""

    maps: tuple
    periodic_axis: int | None = None
    period: float = 1.0

    def forward(self, pts):
        out = _as_points(pts)
        for m in self.maps:
            out = m.forward(out)
        return out

    def inverse(self, pts):
        out = _as_points(pts)
        for m in reversed(self.maps):
            out = m.inverse(out)
        if self.periodic_axis is not None:
            out[..., self.periodic_axis] = np.mod(out[..., self.periodic_axis], self.period)
        return out

    def jacobian(self, pts):
        x = _as_points(pts)
        J = None
        for m in self.maps:
            Jm = m.jacobian(x)
            J = Jm if J is None else Jm @ J
            x = m.forward(x)
        return J

    def singular_distance(self, pts):
        x = _as_points(pts)
        d = np.full(x.shape[:-1], np.inf)
        for m in self.maps:
            d = np.minimum(d, m.singular_distance(x))
            x = m.forward(x)
        return d


def make_lambda() -> ComposedPlaneMap:
    """The cylinder-to-punctured-square symplectomorphism
    (R/Z) x (0,1) -> (0,1)^2 minus the center point.

    Composition of the cylinder-to-disc collapse with the concentric
    disc-to-square map; height -> 1 converges to the square center.
    """
    return ComposedPlaneMap(
        maps=(ChiMap(L=1.0, H=1.0), KappaMap(side=1.0)), periodic_axis=0, period=1.0
    )


def square_to_cylinder(ys):
    """λ⁻¹ in closed form, with no trig: the cylinder point (q̄, p) of
    each point y of the open unit square minus its centre (undefined at
    the centre).

    λ⁻¹ = χ⁻¹∘κ⁻¹.  Write (u, v) = y − ½ and let r be the coordinate of
    larger magnitude (u where |u| ≥ |v|, else v).  On each of κ's four
    sectors, κ⁻¹ sends (u, v) to the disc point of radius k·|r|, k =
    2/√π, at the angle below, and χ⁻¹ reads off q̄ = angle / 2π mod 1
    and p = 1 − π·radius² = 1 − 4r²:

    * |u| ≥ |v|, u > 0: angle (π/4)(v/u), so q̄ = v/8u;
    * |u| ≥ |v|, u < 0: κ⁻¹ has signed radius k·u < 0, which turns the
      angle by π: q̄ = v/8u + ½;
    * |v| > |u|, v > 0: angle π/2 − (π/4)(u/v), so q̄ = ¼ − u/8v;
    * |v| > |u|, v < 0: likewise turned by π: q̄ = ¼ − u/8v + ½.

    Only the sector u > 0 reaches below 0 (q̄ ≥ −⅛), so the reduction
    mod 1 is q̄ − floor(q̄).  Agrees with `make_lambda().inverse` to a
    few ulp (tests/test_certificates.py proves the sector formulas).
    """
    ys = _as_points(ys)
    u, v = ys[..., 0] - 0.5, ys[..., 1] - 0.5
    first = np.abs(u) >= np.abs(v)
    r = np.where(first, u, v)
    offset = np.where(first, 0.0, 0.25)
    offset[r < 0] += 0.5
    out = np.empty(ys.shape)
    q = np.divide(np.where(first, v, -u), 8.0 * r, out=out[..., 0])
    q += offset
    q -= np.floor(q)
    out[..., 1] = 1.0 - 4.0 * (r * r)
    return out


def make_lambda_prime(c: float) -> ComposedPlaneMap:
    """The cylinder-to-punctured-rectangle symplectomorphism
    (0,1) x (R/cZ) -> ((0,1) x (0,c)) minus the rectangle center.

    Input is (height, angle mod c); the orientation-preserving swap
    (h, a) -> (-a, h) feeds the cylinder collapse, then the concentric
    map onto the square of side sqrt(c), then the area-preserving
    stretch onto (0,1) x (0,c).  Total Jacobian determinant +1.
    """
    if not c >= 1:
        raise ValueError(f"c must be >= 1, got {c}")
    sqc = math.sqrt(c)
    swap = LinearPlaneMap(matrix=((0.0, -1.0), (1.0, 0.0)))
    scale = LinearPlaneMap(matrix=((1.0 / sqc, 0.0), (0.0, sqc)))
    return ComposedPlaneMap(
        maps=(swap, ChiMap(L=c, H=1.0), KappaMap(side=sqc), scale), periodic_axis=1, period=c
    )


# ---------------------------------------------------------------------------
# Phase-space maps


def symplectic_matrix(n: int):
    """The standard symplectic matrix for coordinate order (q1, p1, ..., qn, pn)."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), j2)


class PhaseMap:
    """A 2n-dimensional map with evaluation, analytic Jacobian, a domain
    predicate, and a smooth-point mask used to keep differential checks
    away from declared singular loci."""

    dim: int

    def forward(self, X):
        raise NotImplementedError

    def jacobian(self, X):
        raise NotImplementedError

    def contains(self, X):
        raise NotImplementedError

    def smooth_mask(self, X, margin: float):
        return self.contains(X)

    def sample_domain(self, rng, count: int, margin: float = 0.0):
        """Uniform domain samples avoiding the singular margin."""
        out = np.empty((0, self.dim))
        for _ in range(_MAX_TRIES):
            X = self._raw_samples(rng, count)
            ok = self.smooth_mask(X, margin) if margin > 0 else self.contains(X)
            out = np.concatenate([out, X[ok]])
            if len(out) >= count:
                return out[:count]
        raise RuntimeError("domain sampler failed to find enough smooth points")

    def _raw_samples(self, rng, count):
        raise NotImplementedError

    @property
    def component_names(self):
        return (type(self).__name__,)


def _asX(X, dim):
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != dim:
        raise ValueError(f"expected points of shape (..., {dim})")
    return X


def shear_matrix(c: float):
    """The linear shear (q1, p1, q2, p2) -> (q1 - c*q2, p1, q2, c*p1 + p2)."""
    return np.array(
        [
            [1.0, 0.0, -c, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, c, 0.0, 1.0],
        ]
    )


def shear_wrap(X, c: float):
    """(Qbar1, P1, Q2, Pbar2) of the cube points X: the shear of their
    first four coordinates, with Qbar1 wrapped onto R/Z and Pbar2 onto
    R/cZ."""
    Y = X[..., :4] @ shear_matrix(c).T
    return np.stack(
        [np.mod(Y[..., 0], 1.0), Y[..., 1], Y[..., 2], np.mod(Y[..., 3], c)], axis=-1
    )


def unshear_wrap(qbar1, p1, Q2, p2bar, c: float):
    """The cube coordinates (q1, p2) of the cylinder point (Qbar1, P1, Q2,
    Pbar2): the inverse shear, reduced into [0, 1) and [0, c).  The
    reduction mod 1 is x − floor(x), which is bit-identical to
    np.mod(x, 1.0) and cheaper."""
    q1 = qbar1 + c * Q2
    q1 -= np.floor(q1)
    return q1, np.mod(p2bar - c * p1, c)


# Cylinder angles at which the concentric disc/square map is singular
# (its diagonal rays sit at angles 45 + 90k degrees).
_DIAGONAL_ANGLES = np.array([0.125, 0.375, 0.625, 0.875])


class PhiMap(PhaseMap):
    """The cube-into-polydisc embedding on (0,1)^{2n}.

    First four coordinates: shear, wrap, then cylinder-to-square on
    (Qbar1, P1) and cylinder-to-rectangle on (Q2, Pbar2).  Remaining
    2n-4 coordinates pass through unchanged, so the image lies in
    (0,1)^2 x (0,1) x (0,c) x (0,1)^{2n-4}.
    """

    def __init__(self, config: EmbeddingConfig):
        self.config = config
        self.c = config.c
        self.n = config.n
        self.dim = 2 * config.n
        self._lam = make_lambda()
        self._lamp = make_lambda_prime(config.c)

    @property
    def component_names(self):
        return ("shear", "wrap", "lambda x lambda_prime", "identity")

    def contains(self, X):
        X = _asX(X, self.dim)
        return np.all((X > 0.0) & (X < 1.0), axis=-1)

    def forward(self, X):
        X = _asX(X, self.dim)
        if not np.all(self.contains(X)):
            raise DomainError("input outside the open unit cube")
        W = shear_wrap(X, self.c)
        out = np.empty_like(X)
        out[..., 0:2] = self._lam.forward(W[..., 0:2])
        out[..., 2:4] = self._lamp.forward(W[..., 2:4])
        out[..., 4:] = X[..., 4:]
        return out

    def jacobian(self, X):
        X = _asX(X, self.dim)
        W = shear_wrap(X, self.c)
        Jl = self._lam.jacobian(W[..., 0:2])
        Jp = self._lamp.jacobian(W[..., 2:4])
        J = np.zeros(X.shape[:-1] + (self.dim, self.dim))
        S = shear_matrix(self.c)
        block = np.zeros(X.shape[:-1] + (4, 4))
        block[..., 0:2, 0:2] = Jl
        block[..., 2:4, 2:4] = Jp
        J[..., :4, :4] = block @ S
        idx = np.arange(4, self.dim)
        J[..., idx, idx] = 1.0
        return J

    def smooth_mask(self, X, margin: float):
        X = _asX(X, self.dim)
        ok = np.all((X > margin) & (X < 1.0 - margin), axis=-1)
        W = shear_wrap(X, self.c)
        # Stay away from the concentric-map diagonals in both cylinders.
        d1 = circle_distance(W[..., 0:1], _DIAGONAL_ANGLES, 1.0).min(axis=-1)
        a2 = np.mod(-W[..., 3], self.c) / self.c
        d2 = circle_distance(a2[..., None], _DIAGONAL_ANGLES, 1.0).min(axis=-1)
        return ok & (d1 > margin) & (d2 > margin)

    def _raw_samples(self, rng, count):
        return rng.uniform(0.0, 1.0, size=(count, self.dim))

    def image_contains(self, Y):
        """Membership test for the image: inside the punctured target
        box, with its inverse inside the open cube."""
        Y = _asX(Y, self.dim)
        in_box = np.all((Y[..., :3] > 0) & (Y[..., :3] < 1), axis=-1)
        in_box &= (Y[..., 3] > 0) & (Y[..., 3] < self.c)
        if self.dim > 4:
            in_box &= np.all((Y[..., 4:] > 0) & (Y[..., 4:] < 1), axis=-1)
        # Punctured targets.
        in_box &= ~((Y[..., 0] == 0.5) & (Y[..., 1] == 0.5))
        in_box &= ~((Y[..., 2] == 0.5) & (Y[..., 3] == self.c / 2))
        out = np.zeros(Y.shape[:-1], dtype=bool)
        if not np.any(in_box):
            return out
        X = self.inverse(Y[in_box])[..., :4]
        out[in_box] = np.all((X > 0) & (X < 1), axis=-1)
        return out

    def inverse(self, Y):
        """Inverse on the image; callers must ensure membership."""
        Y = _asX(Y, self.dim)
        cyl1 = self._lam.inverse(Y[..., 0:2])
        cyl2 = self._lamp.inverse(Y[..., 2:4])
        X = np.empty_like(Y)
        X[..., 1] = cyl1[..., 1]
        X[..., 2] = cyl2[..., 0]
        X[..., 0], X[..., 3] = unshear_wrap(
            cyl1[..., 0], cyl1[..., 1], cyl2[..., 0], cyl2[..., 1], self.c
        )
        X[..., 4:] = Y[..., 4:]
        return X


def build_phi(config: EmbeddingConfig) -> PhiMap:
    """The symplectic embedding of (0,1)^{2n} into the long polydisc."""
    return PhiMap(config)


def psi_config(config: EmbeddingConfig, a: float) -> EmbeddingConfig:
    """The cube embedding behind the ball embedding of capacity a: c = 1/a."""
    if not 0 < a <= 1:
        raise ValueError(f"a must be in (0, 1], got {a}")
    return replace(config, c=1.0 / a)


class PsiMap(PhaseMap):
    """The ball embedding: conjugate the cube embedding (with c = 1/a)
    by the equal-area disc/square map on every input pair and by its
    inverse on the first output pair.  Embeds the open ball of radius
    1/sqrt(pi) with first factor inside the open disc of the same radius.
    """

    def __init__(self, config: EmbeddingConfig, a: float):
        cube = psi_config(config, a)
        self.a = a
        self.c = cube.c
        self.n = config.n
        self.dim = 2 * config.n
        self.config = config
        self._phi = PhiMap(cube)
        self._kappa = KappaMap(side=1.0)

    def contains(self, X):
        X = _asX(X, self.dim)
        return np.sum(X * X, axis=-1) < DISC_RADIUS**2

    def _to_cube(self, X):
        U = np.empty_like(X)
        for i in range(self.n):
            U[..., 2 * i : 2 * i + 2] = self._kappa.forward(X[..., 2 * i : 2 * i + 2])
        return U

    def forward(self, X):
        X = _asX(X, self.dim)
        if not np.all(self.contains(X)):
            raise DomainError("input outside the open ball")
        U = self._to_cube(X)
        W = self._phi.forward(U)
        out = W.copy()
        out[..., 0:2] = self._kappa.inverse(W[..., 0:2])
        return out

    def jacobian(self, X):
        X = _asX(X, self.dim)
        U = self._to_cube(X)
        W = self._phi.forward(U)
        J = self._phi.jacobian(U)
        Jin = np.zeros(X.shape[:-1] + (self.dim, self.dim))
        for i in range(self.n):
            Jin[..., 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = self._kappa.jacobian(
                X[..., 2 * i : 2 * i + 2]
            )
        Jout = np.zeros_like(Jin)
        Jout[..., 0:2, 0:2] = self._kappa.jacobian_inverse(W[..., 0:2])
        idx = np.arange(2, self.dim)
        Jout[..., idx, idx] = 1.0
        return Jout @ J @ Jin

    def smooth_mask(self, X, margin: float):
        X = _asX(X, self.dim)
        norm2 = np.sum(X * X, axis=-1)
        ok = norm2 < (DISC_RADIUS - margin) ** 2
        for i in range(self.n):
            pair = X[..., 2 * i : 2 * i + 2]
            ok &= self._kappa.singular_distance(pair) > margin
        ok_idx = np.nonzero(ok)
        if len(ok_idx[0]):
            U = self._to_cube(X[ok])
            sub = self._phi.smooth_mask(U, margin)
            W = self._phi.forward(np.clip(U, 1e-12, 1 - 1e-12))
            sub &= self._kappa.singular_distance(
                self._kappa.inverse(W[..., 0:2])
            ) > margin
            tmp = np.zeros(ok.shape, dtype=bool)
            tmp[ok_idx] = sub
            return tmp
        return ok

    def _raw_samples(self, rng, count):
        X = rng.normal(size=(count, self.dim))
        X /= np.linalg.norm(X, axis=-1, keepdims=True)
        radii = DISC_RADIUS * rng.uniform(size=(count, 1)) ** (1.0 / self.dim)
        return X * radii


def build_psi(config: EmbeddingConfig, a: float) -> PsiMap:
    """The ball embedding whose section hulls have area at most a."""
    return PsiMap(config, a)


# ---------------------------------------------------------------------------
# Verification helpers


def symplectic_defect(pm: PhaseMap, X):
    """Max-norm of J^T Omega J - Omega at each point."""
    X = np.asarray(X, dtype=float)
    n = pm.dim // 2
    Om = symplectic_matrix(n)
    J = pm.jacobian(X)
    D = np.swapaxes(J, -1, -2) @ Om @ J - Om
    return np.abs(D).max(axis=(-1, -2))


def finite_difference_jacobian(forward, X, step: float = FD_STEP):
    """Central finite-difference Jacobian of a vectorized map."""
    X = np.asarray(X, dtype=float)
    dim = X.shape[-1]
    cols = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        cols.append((forward(X + e) - forward(X - e)) / (2 * step))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class SymplecticReport:
    map_name: str
    samples: int
    seed: int
    tol: float
    max_deviation: float
    worst_point: tuple
    passed: bool
    component_names: tuple = field(default_factory=tuple)


def check_symplectic(
    pm: PhaseMap,
    samples: int,
    tol: float,
    seed: int = 0,
) -> SymplecticReport:
    """Sample the domain away from singular loci and report the maximal
    symplectic defect of the analytic Jacobian."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    X = pm.sample_domain(rng, samples, margin=SMOOTH_MARGIN)
    dev = symplectic_defect(pm, X)
    worst = int(np.argmax(dev))
    return SymplecticReport(
        map_name=type(pm).__name__,
        samples=samples,
        seed=seed,
        tol=tol,
        max_deviation=float(dev[worst]),
        worst_point=tuple(float(v) for v in X[worst]),
        passed=bool(dev[worst] < tol),
        component_names=tuple(pm.component_names),
    )
