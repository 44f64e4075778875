"""Primitive area/symplectic maps and the composed embeddings.

Plane maps act on arrays of shape (..., 2); phase maps (2n-D) act on
arrays of shape (..., 2n).  The plane maps are all of unit size:

* χ (`ChiMap`), the cylinder (R/Z) x [0, 1) onto the punctured disc of
  unit area, its inverse, plain polar coordinates, and its Jacobian;
* λ = κ∘χ (`make_lambda`), the cylinder onto the punctured square,
  written once in closed form with no trig: forward, inverse
  (`square_to_cylinder`) and Jacobian;
* κ (`KappaMap`), the equal-area concentric map of the disc onto the
  unit square, with its inverse and Jacobian.  κ shares λ's sector walk
  and differs from λ only in the radial coordinate: κ(x) = ½ + m·S(t)
  with m = (√π/2)|x| and t = 8·arg x/2π, and κ⁻¹ reads the angle and
  signed radius off `square_to_cylinder`'s sectors;
* λ′ (`make_lambda_prime(c)`), the cylinder (0, 1) x (R/cZ) onto the
  punctured rectangle (0, 1) x (0, c), which is λ rescaled.

The phase maps carry analytic Jacobians; central finite differences are
only used as a cross-check in the tests and the `verify` command.  The
two composed embeddings are

* the cube-into-polydisc embedding: shear, wrap both mixed coordinates
  onto circles, then map the two resulting cylinders onto a punctured
  square (λ) and a punctured rectangle (λ′), and

* the ball embedding obtained by conjugating with κ on every coordinate
  pair.  Since κ⁻¹∘λ = χ, its first output pair is χ of the wrapped
  cylinder point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .quotient import circle_distance

__all__ = [
    "DISC_RADIUS",
    "FD_STEP",
    "SMOOTH_MARGIN",
    "SYMPLECTIC_TOL",
    "DomainError",
    "EmbeddingConfig",
    "ChiMap",
    "KappaMap",
    "make_lambda",
    "square_to_cylinder",
    "disc_to_cylinder",
    "make_lambda_prime",
    "shear_wrap",
    "unshear_wrap",
    "PhaseMap",
    "PhiMap",
    "PsiMap",
    "build_phi",
    "build_psi",
    "psi_config",
    "jacobian_defect",
    "block_defect",
    "finite_difference_jacobian",
    "check_symplectic",
    "SymplecticReport",
]

# Radius of the disc with unit area.
DISC_RADIUS = 1.0 / math.sqrt(math.pi)

TWO_PI = 2.0 * math.pi

# Half-side of κ's square per unit radius of its circle.
_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0

# Largest symplectic defect max|JᵀΩJ − Ω| an analytic Jacobian may show.
SYMPLECTIC_TOL = 1e-8

# Central finite-difference step of the Jacobian cross-check.
FD_STEP = 1e-6

# Distance from the singular loci that symplectic checks sample beyond.
SMOOTH_MARGIN = 1e-4

# Batches of raw samples `sample_domain` draws before it gives up.
_MAX_TRIES = 200

# Elements per row block of `_by_blocks`: a block's temporaries stay near cache size.
_BLOCK_ELEMENTS = 65_536


class DomainError(ValueError):
    """Raised when a map is evaluated outside its domain."""


@dataclass(frozen=True)
class EmbeddingConfig:
    """Parameters of the cube-into-polydisc embedding.

    n is the half-dimension (the cube is 2n-dimensional), c in [1, ∞) the
    length of the last polydisc factor.  The punctures y0 and z0 are
    where the cylinder-to-square maps degenerate; they sit at the
    centers of the square and of the (0,1) x (0,c) rectangle.
    """

    n: int = 2
    c: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not (self.c >= 1 and math.isfinite(self.c)):
            raise ValueError(f"c must be finite and >= 1, got {self.c}")

    @property
    def z0(self):
        return (0.5, self.c / 2.0)


def _as_points(pts, dim=2):
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1:] != (dim,):
        raise ValueError(f"expected points of shape (..., {dim})")
    return pts


def _by_blocks(f, X, width=None):
    """f(X) for rowwise f, applied to blocks of max(1, _BLOCK_ELEMENTS //
    width) rows of X (width defaults to X's row length) and written into
    one output array.  Inputs that are not 2-D pass through whole."""
    rows = max(1, _BLOCK_ELEMENTS // (width or X.shape[-1]))
    if X.ndim != 2 or len(X) <= rows:
        return f(X)
    first = f(X[:rows])
    out = np.empty((len(X),) + first.shape[1:], first.dtype)
    out[:rows] = first
    for i in range(rows, len(X), rows):
        out[i : i + rows] = f(X[i : i + rows])
    return out


def _in_box(X, low, high):
    """low < X[..., k] < high[k] for every column k (high a float or one
    bound per column): np.all over the last axis, tested column by
    column with no per-row reduction."""
    high = np.broadcast_to(high, X.shape[-1:])
    ok = X[..., 0] > low
    for k in range(X.shape[-1]):
        if k:
            ok &= X[..., k] > low
        ok &= X[..., k] < high[k]
    return ok


def _sum_of_squares(X):
    """np.sum(X * X, axis=-1) bit for bit, column by column.  numpy adds
    fewer than 8 terms in order; from 8 on it sums pairwise, so longer
    rows take np.sum itself."""
    if X.shape[-1] >= 8:
        return np.sum(X * X, axis=-1)
    s = X[..., 0] * X[..., 0]
    for k in range(1, X.shape[-1]):
        s += X[..., k] * X[..., k]
    return s


class ChiMap:
    """Area-preserving map from the cylinder (R/Z) x [0, 1) onto the
    punctured closed disc of unit area.

    (q, p) goes to the point at angle 2*pi*q and radius sqrt((1-p)/pi):
    the bottom rim p=0 lands on the boundary circle, p -> 1 collapses to
    the (excluded) center.
    """

    def forward(self, pts):
        pts = _as_points(pts)
        q, p = pts[..., 0], pts[..., 1]
        if np.any(p < 0) or np.any(p >= 1.0):
            raise DomainError("height coordinate outside [0, 1)")
        theta = TWO_PI * q
        rho = np.sqrt((1.0 - p) / math.pi)
        return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)

    def inverse(self, pts):
        pts = _as_points(pts)
        return np.stack(disc_to_cylinder(pts[..., 0], pts[..., 1]), axis=-1)

    def jacobian(self, pts):
        """[2πρ·(−sin θ, cos θ) | −(cos θ, sin θ)/(2πρ)] at θ = 2πq and
        ρ = √((1 − p)/π), of determinant 1 (`test_chi_jacobian_proved`)."""
        pts = _as_points(pts)
        theta = TWO_PI * pts[..., 0]
        w = TWO_PI * np.sqrt((1.0 - pts[..., 1]) / math.pi)
        cos, sin = np.cos(theta), np.sin(theta)
        J = np.empty(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -w * sin
        J[..., 1, 0] = w * cos
        J[..., 0, 1] = -cos / w
        J[..., 1, 1] = -sin / w
        return J


def disc_to_cylinder(x, y):
    """χ⁻¹ of the disc points with coordinates x and y (arrays that
    broadcast together), as the pair (q̄, p) of plain polar coordinates:
    q̄ = arg(x, y)/2π mod 1 and p = 1 − π(x² + y²).  The reduction mod 1
    is q − floor(q), bit-identical to np.mod(q, 1.0) and cheaper."""
    p = 1.0 - math.pi * (x * x + y * y)
    q = np.arctan2(y, x)
    q /= TWO_PI
    q -= np.floor(q)
    return q, p


# cos and sin of k quarter turns, k = 0, ..., 4 (k = 4 is k = 0 again).
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0, 0.0])


def _square_walk(t):
    """The point S(t) of the boundary of [−1, 1]² at t ∈ [−1, 8), as
    (cos, sin, s): t = 2k + s with s ∈ [−1, 1), and S(t) = R_k·(1, s),
    R_k the turn by k quarters.  So S walks the right edge (1, t) for
    t ∈ [−1, 1) ∪ [7, 8) (as t − 8), the top edge (2 − t, 1) on [1, 3),
    the left edge (−1, 4 − t) on [3, 5) and the bottom edge (t − 6, −1)
    on [5, 7).  Every t − 2k is exact.  λ and κ both walk it: it is the
    only place the concentric map's sectors are written."""
    k = np.floor(0.5 * (t + 1.0)).astype(np.intp)
    return _QUARTER_COS[k], _QUARTER_SIN[k], t - 2.0 * k


def _on_square(m, walk):
    """½ + m·S(t), the point at t on the square of half-side m centred
    at (½, ½), for walk = `_square_walk(t)`."""
    cos, sin, s = walk
    out = np.empty(m.shape + (2,))
    out[..., 0] = 0.5 + m * (cos - sin * s)
    out[..., 1] = 0.5 + m * (sin + cos * s)
    return out


def _walk_jacobian(m, walk):
    """[8m·S′(t) | −S(t)/(8m)], the derivative of ½ + m·S(t) in (q, p)
    when t = 8q and m = ½√(1 − p), for walk = `_square_walk(t)`."""
    cos, sin, s = walk
    J = np.empty(m.shape + (2, 2))
    J[..., 0, 0] = -8.0 * m * sin
    J[..., 1, 0] = 8.0 * m * cos
    w = -1.0 / (8.0 * m)
    J[..., 0, 1] = (cos - sin * s) * w
    J[..., 1, 1] = (sin + cos * s) * w
    return J


def _cylinder_walk(qp):
    """m = ½√(1 − p) and the walk at t = 8·(q mod 1) of the cylinder
    points qp."""
    qp = _as_points(qp)
    q, p = qp[..., 0], qp[..., 1]
    t = q - np.floor(q)
    t *= 8.0
    return 0.5 * np.sqrt(1.0 - p), _square_walk(t)


class _Lambda:
    """λ = κ∘χ, the cylinder (R/Z) x [0,1) onto the punctured square, in
    closed form with no trig: λ(q, p) = ½ + m·S(t), m = ½√(1 − p),
    t = 8·(q mod 1), S the walk of `_square_walk`, with Jacobian
    [8m·S′(t) | −S(t)/(8m)] of determinant 1
    (`test_lambda_closed_form_proved`)."""

    def forward(self, qp):
        return _on_square(*_cylinder_walk(qp))

    def inverse(self, ys):
        return square_to_cylinder(ys)

    def jacobian(self, qp):
        return _walk_jacobian(*_cylinder_walk(qp))


def make_lambda() -> _Lambda:
    """λ in closed form: forward, inverse (`square_to_cylinder`) and
    Jacobian."""
    return _Lambda()


def _square_polar(ys):
    """(q̄, r) of the square points ys, as `square_to_cylinder` defines
    them, with q̄ in [−⅛, ⅞] before its reduction mod 1.  At the centre
    r = 0 and q̄ = 0."""
    ys = _as_points(ys)
    u, v = ys[..., 0] - 0.5, ys[..., 1] - 0.5
    first = np.abs(u) >= np.abs(v)
    r = np.where(first, u, v)
    offset = np.where(first, 0.0, 0.25)
    offset[r < 0] += 0.5
    # The numerator is 0 wherever r is (only at the centre).
    q = np.where(first, v, -u)
    np.divide(q, 8.0 * r, out=q, where=r != 0)
    q += offset
    return q, r


def square_to_cylinder(ys):
    """λ⁻¹ in closed form, with no trig: the cylinder point (q̄, p) of
    each point y of the open unit square minus its centre (the centre,
    where λ⁻¹ is undefined, gets height 1, off the cylinder).

    On each of κ's sectors λ⁻¹ = χ⁻¹∘κ⁻¹ is p = 1 − 4r², r the coordinate
    of y − ½ of larger magnitude, and `_square_polar`'s rational q̄
    reduced mod 1 as q̄ − floor(q̄) (`test_closed_forms_proved`).
    """
    q, r = _square_polar(ys)
    out = np.empty(q.shape + (2,))
    np.subtract(q, np.floor(q), out=out[..., 0])
    out[..., 1] = 1.0 - 4.0 * (r * r)
    return out


def _disc_walk(x, y):
    """The walk at t = 8·arg(x, y)/2π ∈ [−1, 7) of disc points: the
    position on the sector walk of κ's image point."""
    t = np.arctan2(y, x) * (4.0 / math.pi)
    return _square_walk(t + 8.0 * (t < -1.0))


def _kappa_jacobian(x, y, walk):
    """Jκ at (x, y), walk = `_disc_walk(x, y)`: Jλ at χ⁻¹(x) times Jχ⁻¹
    = [∇q̄; ∇p], the gradients of the angle q̄ = arg x/2π and the height
    p = 1 − π|x|², read from x: ∇q̄ = (−y, x)/(2π|x|²) and ∇p =
    −2π·(x, y).  The half-side m is (√π/2)|x|, not ½√(1 − p), which
    would cancel digits near 0."""
    r2 = x * x + y * y
    grad = np.empty(x.shape + (2, 2))
    grad[..., 0, 0] = -y / (TWO_PI * r2)
    grad[..., 0, 1] = x / (TWO_PI * r2)
    grad[..., 1, 0] = -TWO_PI * x
    grad[..., 1, 1] = -TWO_PI * y
    return _walk_jacobian(np.sqrt(r2) * _HALF_SQRT_PI, walk) @ grad


class KappaMap:
    """Equal-area concentric map from the closed disc of radius
    1/sqrt(pi) (centered at 0) onto the unit square.

    κ shares λ's sector walk and differs from λ only in the radial
    coordinate: κ(x) = ½ + m·S(t) with m = (√π/2)|x| and t = 8·arg x/2π.
    The Jacobian determinant is 1 away from the four diagonal rays,
    where the map is continuous but not differentiable.
    """

    def forward(self, pts):
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        rho = np.hypot(x, y)
        if np.any(rho > DISC_RADIUS * (1 + 1e-12)):
            raise DomainError("point outside the closed disc")
        return _on_square(rho * _HALF_SQRT_PI, _disc_walk(x, y))

    def inverse(self, pts):
        """(2/√π)·|r|·(cos 2πq̄, sin 2πq̄), so (0, 0) at the centre."""
        q, r = _square_polar(pts)
        q *= TWO_PI
        rho = np.abs(r) / _HALF_SQRT_PI
        out = np.empty(q.shape + (2,))
        out[..., 0] = rho * np.cos(q)
        out[..., 1] = rho * np.sin(q)
        return out

    def jacobian(self, pts):
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        return _kappa_jacobian(x, y, _disc_walk(x, y))

    def singular_distance(self, pts):
        """Distance from the four diagonal rays (sector boundaries) and 0,
        where the map is not differentiable."""
        pts = _as_points(pts)
        x, y = pts[..., 0], pts[..., 1]
        d_diag = np.minimum(np.abs(x - y), np.abs(x + y)) / math.sqrt(2.0)
        return np.minimum(d_diag, np.hypot(x, y))


@dataclass(frozen=True)
class _LambdaPrime:
    """λ′, the cylinder (0,1) x (R/cZ) of points (height, angle mod c)
    onto the punctured rectangle (0,1) x (0,c), as λ rescaled:
    λ′(h, a) = (y₁, c·y₂) with y = λ(−a/c, h)
    (`test_lambda_prime_through_lambda_proved`)."""

    c: float

    def _lambda_point(self, ha):
        """(−a/c, h), the point where λ′ reads λ."""
        ha = _as_points(ha)
        return np.stack([-ha[..., 1] / self.c, ha[..., 0]], axis=-1)

    def forward(self, ha):
        y = _Lambda().forward(self._lambda_point(ha))
        y[..., 1] *= self.c
        return y

    def inverse(self, zs):
        """(p, −c·q̄ mod c), where (q̄, p) = λ⁻¹(z₁, z₂/c)."""
        zs = _as_points(zs)
        cyl = square_to_cylinder(np.stack([zs[..., 0], zs[..., 1] / self.c], axis=-1))
        return np.stack([cyl[..., 1], np.mod(-self.c * cyl[..., 0], self.c)], axis=-1)

    def jacobian(self, ha):
        """diag(1, c)·Jλ·[[0, −1/c], [1, 0]], entry by entry."""
        J = _Lambda().jacobian(self._lambda_point(ha))
        J[..., 1, :] *= self.c
        out = np.empty_like(J)
        out[..., :, 0] = J[..., :, 1]
        np.multiply(J[..., :, 0], -1.0 / self.c, out=out[..., :, 1])
        return out


def make_lambda_prime(c: float) -> _LambdaPrime:
    """λ′ for the rectangle (0,1) x (0,c), c >= 1, in closed form through
    λ: forward, inverse and Jacobian."""
    if not c >= 1:
        raise ValueError(f"c must be >= 1, got {c}")
    return _LambdaPrime(c)


# ---------------------------------------------------------------------------
# Phase-space maps


class PhaseMap:
    """A 2n-dimensional map with evaluation, analytic Jacobian, a domain
    predicate, and a smooth-point mask used to keep differential checks
    away from declared singular loci."""

    dim: int

    def forward(self, X):
        raise NotImplementedError

    def jacobian(self, X):
        raise NotImplementedError

    def jacobian_blocks(self, X):
        """The Jacobian at X as (C, B), J = diag(C, B₁, …): a core C of
        shape (..., k, k) and 2 × 2 blocks B of shape (..., m, 2, 2).  A
        map without that structure is all core."""
        J = self.jacobian(X)
        return J, np.empty(J.shape[:-2] + (0, 2, 2))

    def smooth_blocks(self, X, margin: float):
        """(ok, C, B): `smooth_mask(X, margin)` and the Jacobian blocks
        at the rows it keeps."""
        ok = self.smooth_mask(X, margin)
        return (ok, *self.jacobian_blocks(X[ok]))

    def contains(self, X):
        raise NotImplementedError

    def smooth_mask(self, X, margin: float):
        return self.contains(X)

    def sample_domain(self, rng, count: int, margin: float = 0.0):
        """Uniform domain samples avoiding the singular margin."""
        out = np.empty((0, self.dim))
        for _ in range(_MAX_TRIES):
            X = self._raw_samples(rng, count)
            ok = self.smooth_mask(X, margin) if margin > 0 else _by_blocks(self.contains, X)
            if not len(out) and ok.all():
                return X
            out = np.concatenate([out, X[ok]])
            if len(out) >= count:
                return out[:count]
        raise RuntimeError("domain sampler failed to find enough smooth points")

    def _raw_samples(self, rng, count):
        raise NotImplementedError


def _assemble(C, B):
    """The dense Jacobian diag(C, B₁, …) of the core C and the 2 × 2
    blocks B."""
    k = C.shape[-1]
    dim = k + 2 * B.shape[-3]
    J = np.zeros(C.shape[:-2] + (dim, dim))
    J[..., :k, :k] = C
    for i in range(k, dim, 2):
        J[..., i : i + 2, i : i + 2] = B[..., (i - k) // 2, :, :]
    return J


def shear_wrap(X, c: float):
    """(Qbar1, P1, Q2, Pbar2) of the cube points X: the shear of their
    first four coordinates, with Qbar1 wrapped onto R/Z and Pbar2 onto
    R/cZ.  The reduction mod 1 is x − floor(x), which is bit-identical
    to np.mod(x, 1.0) and cheaper."""
    out = np.empty(X.shape[:-1] + (4,))
    q = X[..., 0] - c * X[..., 2]
    np.subtract(q, np.floor(q), out=out[..., 0])
    out[..., 1:3] = X[..., 1:3]
    np.mod(c * X[..., 1] + X[..., 3], c, out=out[..., 3])
    return out


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
_DIAGONAL_ANGLES = (0.125, 0.375, 0.625, 0.875)


def _off_diagonals(q, margin: float):
    """Cylinder angles q farther than margin from every diagonal angle,
    tested angle by angle."""
    ok = circle_distance(q, _DIAGONAL_ANGLES[0]) > margin
    for angle in _DIAGONAL_ANGLES[1:]:
        ok &= circle_distance(q, angle) > margin
    return ok


class PhiMap(PhaseMap):
    """The cube-into-polydisc embedding on (0,1)^{2n}.

    First four coordinates: shear, wrap, then cylinder-to-square on
    (Qbar1, P1) and cylinder-to-rectangle on (Q2, Pbar2).  Remaining
    2n-4 coordinates pass through unchanged, so the image lies in
    (0,1)^2 x (0,1) x (0,c) x (0,1)^{2n-4}.
    """

    # The map of the first cylinder (Qbar1, P1).
    _first = _Lambda()

    def __init__(self, config: EmbeddingConfig):
        self.c = config.c
        self.n = config.n
        self.dim = 2 * config.n
        self._lamp = make_lambda_prime(config.c)
        self._box_top = np.ones(self.dim)
        self._box_top[3] = config.c

    def contains(self, X):
        X = _as_points(X, self.dim)
        return _in_box(X, 0.0, 1.0)

    def forward(self, X):
        return _by_blocks(self._forward, _as_points(X, self.dim))

    def _forward(self, X):
        if not np.all(self.contains(X)):
            raise DomainError("input outside the open unit cube")
        W = shear_wrap(X, self.c)
        out = np.empty_like(X)
        out[..., 0:2] = self._first.forward(W[..., 0:2])
        out[..., 2:4] = self._lamp.forward(W[..., 2:4])
        out[..., 4:] = X[..., 4:]
        return out

    def jacobian(self, X):
        """The dense 2n × 2n Jacobian, assembled from `jacobian_blocks`."""
        return _assemble(*self.jacobian_blocks(X))

    def jacobian_blocks(self, X):
        """The 4 × 4 core of diag(J₁, Jλ′)·S and identity blocks on the
        trailing pairs, which φ passes through."""
        X = _as_points(X, self.dim)
        return self._blocks(shear_wrap(X, self.c))

    def _blocks(self, W):
        """The blocks at the cube points whose `shear_wrap` is W: J₁, the
        Jacobian of the first pair's map, and Jλ′ times the shear S,
        column by column: S adds −c times column 0 to column 2 and c
        times column 3 to column 1."""
        C = np.zeros(W.shape[:-1] + (4, 4))
        C[..., 0:2, 0:2] = self._first.jacobian(W[..., 0:2])
        C[..., 2:4, 2:4] = self._lamp.jacobian(W[..., 2:4])
        C[..., 0:2, 2] = -self.c * C[..., 0:2, 0]
        C[..., 2:4, 1] = self.c * C[..., 2:4, 3]
        return C, np.broadcast_to(np.eye(2), W.shape[:-1] + (self.n - 2, 2, 2))

    def smooth_mask(self, X, margin: float):
        """Off the cube margin and off the diagonals of λ and λ′."""
        X = _as_points(X, self.dim)
        return self._smooth(X, shear_wrap(X, self.c), margin)

    def smooth_blocks(self, X, margin: float):
        X = _as_points(X, self.dim)
        W = shear_wrap(X, self.c)
        ok = self._smooth(X, W, margin)
        return (ok, *self._blocks(W[ok]))

    def _smooth(self, X, W, margin: float):
        return self._smooth_wrapped(X, W, margin) & _off_diagonals(W[..., 0], margin)

    def _smooth_wrapped(self, X, W, margin: float):
        """X, with W = shear_wrap(X), off the cube margin and λ′'s
        diagonals: all of ψ's mask on the cube, as ψ's first pair is χ."""
        ok = _in_box(X, margin, 1.0 - margin)
        return ok & _off_diagonals(np.mod(-W[..., 3], self.c) / self.c, margin)

    def _raw_samples(self, rng, count):
        return rng.uniform(0.0, 1.0, size=(count, self.dim))

    def in_target_box(self, Y):
        """Inside the open box (0,1)³ x (0,c) x (0,1)^{2n-4} of the target."""
        Y = _as_points(Y, self.dim)
        return _in_box(Y, 0.0, self._box_top)

    def image_contains(self, Y):
        """Membership test for the image: inside the target box, with its
        inverse inside the open cube.  The inverse sends the punctures y0
        and z0 to heights P1 = 1 and Q2 = 1, off the open cube."""
        return _by_blocks(self._image_contains, _as_points(Y, self.dim))

    def _image_contains(self, Y):
        in_box = self.in_target_box(Y)
        out = np.zeros(Y.shape[:-1], dtype=bool)
        if not np.any(in_box):
            return out
        X = self.inverse(Y[in_box])[..., :4]
        out[in_box] = _in_box(X, 0.0, 1.0)
        return out

    def inverse(self, Y):
        """Inverse on the image; callers must ensure membership."""
        Y = _as_points(Y, self.dim)
        cyl1 = self._first.inverse(Y[..., 0:2])
        cyl2 = self._lamp.inverse(Y[..., 2:4])
        X = np.empty_like(Y)
        X[..., 1] = cyl1[..., 1]
        X[..., 2] = cyl2[..., 0]
        X[..., 0], X[..., 3] = unshear_wrap(
            cyl1[..., 0], cyl1[..., 1], cyl2[..., 0], cyl2[..., 1], self.c
        )
        X[..., 4:] = Y[..., 4:]
        return X


class _ChiCube(PhiMap):
    """φ followed by κ⁻¹ on the first output pair.  κ⁻¹∘λ = χ, so that
    pair is χ of the wrapped cylinder point (Qbar1, P1), with Jacobian
    block Jχ."""

    _first = ChiMap()


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
    by the equal-area disc/square map κ on every input pair and by its
    inverse on the first output pair, which makes that pair χ of the
    wrapped cylinder point (`_ChiCube`).  Embeds the open ball of radius
    1/sqrt(pi) with first factor inside the open disc of the same radius.
    """

    def __init__(self, config: EmbeddingConfig, a: float):
        cube = psi_config(config, a)
        self.a = a
        self.c = cube.c
        self.n = config.n
        self.dim = 2 * config.n
        self._phi = _ChiCube(cube)
        self._kappa = KappaMap()

    def contains(self, X):
        X = _as_points(X, self.dim)
        return _sum_of_squares(X) < DISC_RADIUS**2

    def _to_cube(self, X):
        """κ of each coordinate pair of X."""
        U = np.empty_like(X)
        for i in range(X.shape[-1] // 2):
            U[..., 2 * i : 2 * i + 2] = self._kappa.forward(X[..., 2 * i : 2 * i + 2])
        return U

    def forward(self, X):
        return _by_blocks(self._forward, _as_points(X, self.dim))

    def _forward(self, X):
        if not np.all(self.contains(X)):
            raise DomainError("input outside the open ball")
        return self._phi.forward(self._to_cube(X))

    def first_factor(self, X):
        """forward(X)[..., :2] bit for bit, from κ of the first two input
        pairs only: the ball test on all 2n coordinates, the open-cube test
        on those two κ images U, then χ of (u₀ − c·u₂ mod 1, u₁)."""
        return _by_blocks(self._first_factor, _as_points(X, self.dim))

    def _first_factor(self, X):
        if not np.all(self.contains(X)):
            raise DomainError("input outside the open ball")
        U = self._to_cube(X[..., 0:4])
        if not np.all(_in_box(U, 0.0, 1.0)):
            raise DomainError("input outside the open unit cube")
        return self._phi._first.forward(shear_wrap(U, self.c)[..., 0:2])

    def jacobian(self, X):
        """The dense 2n × 2n Jacobian, assembled from `jacobian_blocks`."""
        return _assemble(*self.jacobian_blocks(X))

    def jacobian_blocks(self, X):
        """The core of Jφ′ at U = κ(X) times diag(Jκ₁, Jκ₂), φ′ the cube
        embedding with χ on its first output pair, and the trailing
        pairs' Jκ, which φ′ passes through."""
        X = _as_points(X, self.dim)
        U, K = self._kappa_pairs(X)
        return self._blocks(shear_wrap(U, self.c), K)

    def smooth_blocks(self, X, margin: float):
        """The mask and the blocks from one κ walk per pair of each row
        off κ's kinks."""
        X = _as_points(X, self.dim)
        ok = self._off_kinks(X, margin)
        U, K = self._kappa_pairs(X[ok])
        W = shear_wrap(U, self.c)
        smooth = self._phi._smooth_wrapped(U, W, margin)
        ok[ok] = smooth
        return (ok, *self._blocks(W[smooth], K[smooth]))

    def _kappa_pairs(self, X):
        """U = κ(X) and the Jacobians Jκ of its n pairs, shape (..., n,
        2, 2), each pair walked once."""
        U = np.empty_like(X)
        K = np.empty(X.shape[:-1] + (self.n, 2, 2))
        for i in range(self.n):
            x, y = X[..., 2 * i], X[..., 2 * i + 1]
            walk = _disc_walk(x, y)
            U[..., 2 * i : 2 * i + 2] = _on_square(np.hypot(x, y) * _HALF_SQRT_PI, walk)
            K[..., i, :, :] = _kappa_jacobian(x, y, walk)
        return U, K

    def _blocks(self, W, K):
        """The blocks at the ball points whose κ-images wrap to W =
        shear_wrap(U) and whose pairs have Jacobians K."""
        C, _ = self._phi._blocks(W)
        C[..., :, 0:2] = C[..., :, 0:2] @ K[..., 0, :, :]
        C[..., :, 2:4] = C[..., :, 2:4] @ K[..., 1, :, :]
        return C, K[..., 2:, :, :]

    def smooth_mask(self, X, margin: float):
        """The mask of `smooth_blocks`, whose one κ walk per pair also
        builds the Jacobian blocks."""
        return self.smooth_blocks(X, margin)[0]

    def _off_kinks(self, X, margin: float):
        """Inside the ball by the margin and off κ's kinks on every pair."""
        ok = _sum_of_squares(X) < (DISC_RADIUS - margin) ** 2
        for i in range(self.n):
            ok &= self._kappa.singular_distance(X[..., 2 * i : 2 * i + 2]) > margin
        return ok

    def _raw_samples(self, rng, count):
        X = rng.normal(size=(count, self.dim))
        X /= np.sqrt(_sum_of_squares(X))[:, None]
        X *= DISC_RADIUS * rng.uniform(size=(count, 1)) ** (1.0 / self.dim)
        return X


def build_psi(config: EmbeddingConfig, a: float) -> PsiMap:
    """The ball embedding whose section hulls have area at most a."""
    return PsiMap(config, a)


# ---------------------------------------------------------------------------
# Verification helpers


def jacobian_defect(J):
    """Max-norm of JᵀΩJ − Ω at each point, J of shape (..., 2n, 2n).

    Entry (i, j) of JᵀΩJ is Σₖ (J[2k, i]·J[2k+1, j] − J[2k+1, i]·J[2k, j]),
    summed over k in order; the entries below the diagonal are the
    negated ones above it, bit for bit, and the diagonal is 0.  Every
    step is elementwise, so a point's defect does not depend on the
    points beside it, and the zero entries of a block-diagonal J add
    exact zeros: `block_defect` of its blocks gives the same bits."""
    k = J.shape[-1]
    dev = np.zeros(J.shape[:-2])
    for i in range(k):
        for j in range(i + 1, k):
            m = J[..., 0, i] * J[..., 1, j] - J[..., 1, i] * J[..., 0, j]
            for r in range(2, k, 2):
                m += J[..., r, i] * J[..., r + 1, j] - J[..., r + 1, i] * J[..., r, j]
            if j == i + 1 and i % 2 == 0:
                m -= 1.0
            np.maximum(dev, np.abs(m), out=dev)
    return dev


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
    samples: int
    max_deviation: float
    worst_point: tuple
    passed: bool


def block_defect(C, B):
    """max|JᵀΩJ − Ω| at each point of J = diag(C, B₁, …), from its
    blocks: JᵀΩJ − Ω = diag(CᵀΩC − Ω, (det B₁ − 1)·Ω₂, …)
    (`test_block_lemma_proved`)."""
    dev = jacobian_defect(C)
    for i in range(B.shape[-3]):
        det = B[..., i, 0, 0] * B[..., i, 1, 1] - B[..., i, 1, 0] * B[..., i, 0, 1]
        np.maximum(dev, np.abs(det - 1.0), out=dev)
    return dev


def _smooth_defect(pm: PhaseMap, X):
    """`block_defect` at the rows of X that lie SMOOTH_MARGIN off pm's
    singular loci, −inf at the others."""
    ok, C, B = pm.smooth_blocks(X, SMOOTH_MARGIN)
    dev = np.full(X.shape[:-1], -np.inf)
    dev[ok] = block_defect(C, B)
    return dev


def check_symplectic(pm: PhaseMap, X) -> SymplecticReport:
    """The largest symplectic defect of pm's analytic Jacobian over the
    rows of X that lie SMOOTH_MARGIN off its singular loci (`samples` of
    them), which passes below SYMPLECTIC_TOL.  The Jacobian blocks are
    built a row block at a time."""
    X = _as_points(X, pm.dim).reshape(-1, pm.dim)
    # A row block holds about 8 floats per coordinate: X, κ(X), the blocks.
    dev = _by_blocks(lambda rows: _smooth_defect(pm, rows), X, width=8 * pm.dim)
    samples = int(np.count_nonzero(dev > -np.inf))
    if not samples:
        raise ValueError("no point to check off the singular loci")
    worst = int(np.argmax(dev))
    return SymplecticReport(
        samples=samples,
        max_deviation=float(dev[worst]),
        worst_point=tuple(float(v) for v in X[worst]),
        passed=bool(dev[worst] < SYMPLECTIC_TOL),
    )
