"""Exact certificates, with sympy, for the closed forms the maps and the
raster geometry rely on.

On each of the concentric map κ's four sectors, κ⁻¹ is written with
trig, as in the sector-by-sector reference `SectorKappa.inverse`
(tests/composed_maps.py): with (u, v) = y − ½ and k = 2/√π, the branch
|u| ≥ |v| sends (u, v) to k·u·(cos φ, sin φ), φ = (π/4)(v/u), and the
branch |v| > |u| to k·v·(cos φ, sin φ), φ = π/2 − (π/4)(u/v).  A sector
is parametrised by R > 0 and a real t (|t| ≤ 1 inside the sector; the
identities hold for every t).  The certificates prove, by symbolic
simplification to 0:

* angle: κ⁻¹(u, v) = ρ·(cos 2πq̄, sin 2πq̄) with ρ = |κ⁻¹(u, v)| > 0,
  so q̄ is the χ⁻¹ angle of κ⁻¹(u, v), mod 1;
* height: 1 − π|κ⁻¹(u, v)|² = p, the χ⁻¹ height;
* ball norm: |κ⁻¹(u, v)|² = (4/π)·‖(u, v)‖∞² (`sections._BALL_K`).

where (q̄, p) is `maps.square_to_cylinder`'s closed form.  `KappaMap`
shares it: κ⁻¹(y) = k·|r|·(cos 2πq̄, sin 2πq̄), r the coordinate of
larger magnitude, which the angle certificate makes the sector κ⁻¹.
Numerical spot checks tie the symbolic κ⁻¹ and closed form to the code.  Each
certificate is shown to fail on a planted wrong constant and on the
formula of a neighbouring sector.

The heights W of a section, `quotient.preimage_affine_mod(T, c)`, are
the x in (0, 1) with c·x + t = T (mod c) for some t in (0, 1).  The
code takes the arc start s = (T − 1)/c + k, k the integer that reduces
it into [0, 1), and e = s + 1/c, and returns (s, e) when e ≤ 1, else
(0, min(e − 1, s)) and (s, 1).  With c = 1 + d, d ≥ 0, the certificates
prove:

* start: (T − c·s − 1)/c is an integer, so at x = s the offset t that
  solves the congruence is 1, and it falls to 0 as x runs to s + 1/c;
* length: on each branch the pieces have total length exactly 1/c (on
  the wrapped one, c ≥ 1 resolves the min to e − 1).

Each fails on a planted wrong arc start or wrapped-piece end.

λ and λ′ are written in closed form (`maps._Lambda`, `maps._LambdaPrime`).
On each of κ's sectors, with t = 8q = 2k + s and 1 − p = w > 0, the
certificates prove:

* forward: ½ + m·R_k·(1, s), m = ½√(1 − p), equals κ∘χ(q, p), κ read
  from the sector reference `SectorKappa.forward` and χ as radius
  √((1 − p)/π) at angle 2πq;
* Jacobian: the code's [8m·S′(t) | −S(t)/(8m)] is the derivative of κ∘χ,
  and its determinant is 1;
* λ′: (h, a) ↦ (y₁, c·y₂), y = λ(−a/c, h), equals scale∘κ_√c∘χ_c∘swap,
  symbolic in c.

Each fails on a planted wrong constant (the 8 of t, the ½ of m, the
scale of a coordinate of λ′) and on the rotation of a neighbouring
sector.  Numerical spot checks tie the symbolic forms to the code.

χ's Jacobian is written in closed form (`ChiMap.jacobian`), and ψ's
first output pair is χ (κ⁻¹∘λ = χ).  With 1 − p = w > 0 the
certificates prove that the code's [2πρ·(−sin θ, cos θ) |
−(cos θ, sin θ)/(2πρ)], θ = 2πq and ρ = √((1 − p)/π), is the
derivative of χ with determinant 1, and that the gradients
[∇q̄; ∇p] = [(−y, x)/(2π|x|²); −2π·(x, y)] that `KappaMap.jacobian`
multiplies λ's Jacobian by are its inverse at x = χ(q, p).  Each fails
on a planted 2π → π and on swapped columns.
"""

import math

import numpy as np
import pytest
import sympy as sp

from cubewrap.maps import (
    _QUARTER_COS,
    _QUARTER_SIN,
    ChiMap,
    KappaMap,
    make_lambda,
    make_lambda_prime,
    square_to_cylinder,
)
from cubewrap.quotient import circle_distance, preimage_affine_mod, reduce
from cubewrap.sections import _BALL_K

R = sp.Symbol("R", positive=True)
t = sp.Symbol("t", real=True)
K = 2 / sp.sqrt(sp.pi)

# (u, v) = y − ½ on each sector, R = ‖(u, v)‖∞.
SECTORS = {
    "right": (R, R * t),
    "top": (R * t, R),
    "left": (-R, R * t),
    "bottom": (R * t, -R),
}
NEXT = {"right": "top", "top": "left", "left": "bottom", "bottom": "right"}


def _first(sector):
    """The sectors on κ⁻¹'s branch |u| ≥ |v|."""
    return sector in ("right", "left")


def kappa_inverse(sector, u, v):
    if _first(sector):
        phi = sp.pi / 4 * (v / u)
        return K * u * sp.cos(phi), K * u * sp.sin(phi)
    phi = sp.pi / 2 - sp.pi / 4 * (u / v)
    return K * v * sp.cos(phi), K * v * sp.sin(phi)


def closed_form(sector, u, v, eight=8, four=4):
    """`square_to_cylinder` on the sector: r the coordinate of larger
    magnitude, q̄ = (v or −u)/8r + ¼·[|v| > |u|] + ½·[r < 0] (before the
    reduction mod 1), p = 1 − 4r².  r < 0 on the left and bottom
    sectors."""
    first = _first(sector)
    r = u if first else v
    num = v if first else -u
    offset = sp.Rational(0 if first else 1, 4)
    offset += sp.Rational(1, 2) if sector in ("left", "bottom") else 0
    return num / (eight * r) + offset, 1 - four * r**2


def certify(sector, formula_sector=None, ball_k=4 / sp.pi, **constants):
    """Which of the three identities simplify to 0 on `sector`, with the
    closed form of `formula_sector` (default: the sector itself)."""
    u, v = SECTORS[sector]
    x, y = kappa_inverse(sector, u, v)
    qbar, p = closed_form(formula_sector or sector, u, v, **constants)
    norm2 = sp.simplify(x**2 + y**2)
    rho = sp.sqrt(norm2)
    angle = 2 * sp.pi * qbar
    return {
        "angle": sp.simplify(x - rho * sp.cos(angle)) == 0
        and sp.simplify(y - rho * sp.sin(angle)) == 0,
        "height": sp.simplify(1 - sp.pi * norm2 - p) == 0,
        "ball_norm": sp.simplify(norm2 - ball_k * R**2) == 0,
    }


@pytest.mark.parametrize("sector", SECTORS)
def test_closed_forms_proved(sector):
    assert certify(sector) == {"angle": True, "height": True, "ball_norm": True}


@pytest.mark.parametrize("sector", SECTORS)
def test_certificates_fail_on_planted_errors(sector):
    assert not certify(sector, eight=7)["angle"]
    assert not certify(sector, four=3)["height"]
    assert not certify(sector, ball_k=3 / sp.pi)["ball_norm"]
    swapped = certify(sector, formula_sector=NEXT[sector])
    assert not swapped["angle"] and not swapped["height"]


def test_ball_constant_is_four_over_pi():
    assert _BALL_K == float(4 / sp.pi)


@pytest.mark.parametrize("sector", SECTORS)
def test_symbolic_forms_match_the_code(sector):
    """The symbolic κ⁻¹ and closed form are the ones the code computes."""
    u, v = SECTORS[sector]
    kappa_inv = sp.lambdify((R, t), kappa_inverse(sector, u, v), "math")
    closed = sp.lambdify((R, t), closed_form(sector, u, v), "math")
    uv = sp.lambdify((R, t), (u, v), "math")
    rng = np.random.default_rng(5)
    for Rv, tv in zip(rng.uniform(1e-3, 0.5, 50), rng.uniform(-0.999, 0.999, 50)):
        du, dv = uv(Rv, tv)
        y = np.array([0.5 + du, 0.5 + dv])
        # y is rounded to the float grid: read (u, v) back from it.
        du, dv = y - 0.5
        Rv, tv = (abs(du), dv / abs(du)) if _first(sector) else (abs(dv), du / abs(dv))
        assert np.allclose(KappaMap().inverse(y), kappa_inv(Rv, tv), rtol=0, atol=1e-15)
        qbar, p = square_to_cylinder(y)
        q_ref, p_ref = closed(Rv, tv)
        assert circle_distance(qbar, q_ref, 1.0) <= 4e-16
        assert p == pytest.approx(p_ref, abs=4e-16, rel=0)
        assert math.isclose(np.sum(KappaMap().inverse(y) ** 2), _BALL_K * Rv**2, rel_tol=1e-14)


TARGET = sp.Symbol("T", real=True)
D = sp.Symbol("d", nonnegative=True)
K_SHIFT = sp.Symbol("k", integer=True)
C_SCALE = 1 + D


def w_pieces(branch, start=None, wrap_end=None):
    """W's pieces on a branch, as `preimage_affine_mod` writes them."""
    c = C_SCALE
    s = (TARGET - 1) / c + K_SHIFT if start is None else start
    e = s + 1 / c
    if branch == "unwrapped":
        return s, [(s, e)]
    end = sp.Min(e - 1, s) if wrap_end is None else wrap_end(e, s)
    return s, [(sp.Integer(0), end), (s, sp.Integer(1))]


def certify_w(branch, **planted):
    s, pieces = w_pieces(branch, **planted)
    c = C_SCALE
    length = sum(b - a for a, b in pieces)
    return {
        "start": sp.simplify((TARGET - c * s - 1) / c).is_integer is True,
        "length": sp.simplify(length - 1 / c) == 0,
    }


@pytest.mark.parametrize("branch", ["unwrapped", "wrapped"])
def test_w_length_proved(branch):
    assert certify_w(branch) == {"start": True, "length": True}


@pytest.mark.parametrize("branch", ["unwrapped", "wrapped"])
def test_w_certificate_fails_on_planted_errors(branch):
    wrong_start = TARGET / C_SCALE + K_SHIFT
    assert not certify_w(branch, start=wrong_start)["start"]
    if branch == "wrapped":
        assert not certify_w(branch, wrap_end=lambda e, s: e - 1 + s)["length"]
        assert not certify_w(branch, wrap_end=lambda e, s: s)["length"]


def test_w_symbolic_pieces_match_the_code():
    """The symbolic pieces are the ones `preimage_affine_mod` returns."""
    branches = {b: sp.lambdify((TARGET, D, K_SHIFT), w_pieces(b)[1], "math")
                for b in ("unwrapped", "wrapped")}
    rng = np.random.default_rng(7)
    seen = set()
    for c in np.concatenate([[1.0, 2.0, math.pi], rng.uniform(1.0, 10.0, 200)]):
        T = float(rng.uniform(0.0, c))
        k = -math.floor((T - 1.0) / c)
        branch = "unwrapped" if (T - 1.0) / c + k + 1.0 / c <= 1.0 else "wrapped"
        seen.add(branch)
        got = preimage_affine_mod(reduce(T, c), c).intervals
        assert np.allclose(got, branches[branch](T, c - 1.0, k), rtol=0, atol=1e-15)
    assert seen == {"unwrapped", "wrapped"}


# λ = κ∘χ in closed form.  On the cylinder, t = 8q = 2k + s with s in
# [−1, 1) picks κ's sector k (right 0, top 1, left 2, bottom 3; the code's
# k = 4 is the right sector again).  χ sends (q, p) to the disc point of
# radius ρ = √((1 − p)/π) at angle θ = 2πq, which κ reads as arctan2's
# principal value (θ − 2π on the bottom sector; on the left one κ uses
# θ ∓ π, which is πs/4 either way).  W1 = 1 − p > 0.
S = sp.Symbol("s", real=True)
W1 = sp.Symbol("w", positive=True)
C_LEN = sp.Symbol("c", positive=True)
QUARTERS = {"right": 0, "top": 1, "left": 2, "bottom": 3}


def kappa_forward(sector, rho, theta, side=sp.Integer(1)):
    """`SectorKappa.forward` on the sector, from the polar coordinates of
    its input point, for the square of the given side."""
    m = rho * sp.sqrt(sp.pi) / 2
    k = 4 / sp.pi
    u, v = {
        "right": (m, m * k * theta),
        "top": (m * (2 - k * theta), m),
        "left": (-m, -m * k * (theta - sp.pi)),
        "bottom": (m * (2 + k * theta), -m),
    }[sector]
    return u + side / 2, v + side / 2


def chi_polar(sector, q, height, L=sp.Integer(1)):
    """χ of circumference L and height 1 at (q, height): (ρ, principal θ)."""
    theta = 2 * sp.pi * q / L
    if sector == "bottom":
        theta -= 2 * sp.pi
    return sp.sqrt(L * (1 - height) / sp.pi), theta


def q_on(sector):
    return (2 * QUARTERS[sector] + S) / 8


def closed_lambda(sector, q, p, eight=8, half=sp.Rational(1, 2), code_sector=None):
    """`_Lambda.forward` on the sector: ½ + m·R_k·(1, s), m = ½√(1 − p),
    s = 8q − 2k, with R_k's cos and sin read from the code's tables."""
    k = QUARTERS[code_sector or sector]
    cos, sin = sp.Integer(int(_QUARTER_COS[k])), sp.Integer(int(_QUARTER_SIN[k]))
    m = half * sp.sqrt(1 - p)
    s = eight * q - 2 * k
    return 1 / sp.Integer(2) + m * (cos - sin * s), 1 / sp.Integer(2) + m * (sin + cos * s)


def closed_lambda_jacobian(sector, q, p, eight=8, code_sector=None):
    """`_Lambda.jacobian` on the sector: [8m·S′(t) | −S(t)/(8m)]."""
    k = QUARTERS[code_sector or sector]
    cos, sin = sp.Integer(int(_QUARTER_COS[k])), sp.Integer(int(_QUARTER_SIN[k]))
    m = sp.sqrt(1 - p) / 2
    s = 8 * q - 2 * k
    w = -1 / (eight * m)
    return sp.Matrix([[-eight * m * sin, (cos - sin * s) * w], [eight * m * cos, (sin + cos * s) * w]])


def _vanishes(exprs):
    return all(sp.simplify(e) == 0 for e in exprs)


def certify_lambda(sector, code_sector=None, **planted):
    """Which identities hold on `sector`: the closed form equals κ∘χ, and
    the code's Jacobian is the derivative of κ∘χ with determinant 1."""
    Q, P = sp.symbols("q p", real=True)
    composed = kappa_forward(sector, *chi_polar(sector, Q, P))
    closed = closed_lambda(sector, Q, P, code_sector=code_sector, **planted)
    jac_planted = {k: v for k, v in planted.items() if k == "eight"}
    J = closed_lambda_jacobian(sector, Q, P, code_sector=code_sector, **jac_planted)
    dJ = sp.Matrix(composed).jacobian([Q, P])
    on = {Q: q_on(sector), P: 1 - W1}
    return {
        "forward": _vanishes([(a - b).subs(on) for a, b in zip(closed, composed)]),
        "jacobian": _vanishes(list((J - dJ).subs(on))) and _vanishes([J.det().subs(on) - 1]),
    }


@pytest.mark.parametrize("sector", QUARTERS)
def test_lambda_closed_form_proved(sector):
    assert certify_lambda(sector) == {"forward": True, "jacobian": True}


@pytest.mark.parametrize("sector", QUARTERS)
def test_lambda_certificate_fails_on_planted_errors(sector):
    assert certify_lambda(sector, eight=7) == {"forward": False, "jacobian": False}
    assert not certify_lambda(sector, half=sp.Rational(1, 3))["forward"]
    neighbour = certify_lambda(sector, code_sector=NEXT[sector])
    assert neighbour == {"forward": False, "jacobian": False}


def test_lambda_tables_close_the_walk():
    """k = 4 (t in [7, 8)) reads the right sector's rotation."""
    assert (_QUARTER_COS[4], _QUARTER_SIN[4]) == (_QUARTER_COS[0], _QUARTER_SIN[0])


def certify_lambda_prime(sector, scale_first=1, scale_second=None, code_sector=None):
    """λ′ through λ, (h, a) ↦ (y₁, c·y₂) with y = λ(−a/c, h), against
    scale∘κ_√c∘χ_c∘swap on the sector of −a/c, symbolic in c > 0."""
    scale_second = C_LEN if scale_second is None else scale_second
    a = -C_LEN * q_on(sector)  # so that −a/c is the sector's q
    h = 1 - W1
    y = closed_lambda(sector, -a / C_LEN, h, code_sector=code_sector)
    through = (scale_first * y[0], scale_second * y[1])
    sqc = sp.sqrt(C_LEN)
    q_swapped, p_swapped = -a, h  # swap: (h, a) -> (−a, h)
    x1, x2 = kappa_forward(sector, *chi_polar(sector, q_swapped, p_swapped, L=C_LEN), side=sqc)
    composed = (x1 / sqc, sqc * x2)
    return _vanishes([u - v for u, v in zip(through, composed)])


@pytest.mark.parametrize("sector", QUARTERS)
def test_lambda_symbolic_forms_match_the_code(sector):
    """The symbolic closed forms of λ, Jλ and λ′ are the ones the code
    computes."""
    Q, P, A, H = sp.symbols("q p a h", real=True)
    lam_f = sp.lambdify((Q, P), closed_lambda(sector, Q, P), "math")
    lam_j = sp.lambdify((Q, P), closed_lambda_jacobian(sector, Q, P).tolist(), "math")
    lamp_f = sp.lambdify((A, H, C_LEN), closed_lambda(sector, -A / C_LEN, H), "math")
    rng = np.random.default_rng(9)
    for sv, pv, c in zip(rng.uniform(-1, 1, 50), rng.uniform(0, 0.999, 50), rng.uniform(1, 5, 50)):
        qv = (2 * QUARTERS[sector] + sv) / 8
        assert np.allclose(make_lambda().forward([qv, pv]), lam_f(qv, pv), rtol=0, atol=1e-15)
        assert np.allclose(make_lambda().jacobian([qv, pv]), lam_j(qv, pv), rtol=1e-14, atol=0)
        y1, y2 = lamp_f(-c * qv, pv, c)
        assert np.allclose(make_lambda_prime(c).forward([pv, -c * qv]), [y1, c * y2], rtol=1e-14)


@pytest.mark.parametrize("sector", QUARTERS)
def test_lambda_prime_through_lambda_proved(sector):
    assert certify_lambda_prime(sector)


@pytest.mark.parametrize("sector", QUARTERS)
def test_lambda_prime_certificate_fails_on_planted_errors(sector):
    assert not certify_lambda_prime(sector, scale_second=sp.sqrt(C_LEN))
    assert not certify_lambda_prime(sector, scale_first=C_LEN)
    assert not certify_lambda_prime(sector, code_sector=NEXT[sector])


# χ and the inverse of its Jacobian.
Q_CHI = sp.Symbol("q", real=True)
P_CHI = sp.Symbol("p", real=True)


def chi_symbolic(q, p):
    rho = sp.sqrt((1 - p) / sp.pi)
    return sp.Matrix([rho * sp.cos(2 * sp.pi * q), rho * sp.sin(2 * sp.pi * q)])


def closed_chi_jacobian(q, p, two_pi=2 * sp.pi, swap=False):
    """`ChiMap.jacobian`: columns w·(−sin θ, cos θ) and −(cos θ, sin θ)/w,
    θ = 2πq and w = 2π·√((1 − p)/π)."""
    theta = two_pi * q
    w = two_pi * sp.sqrt((1 - p) / sp.pi)
    cols = [[-w * sp.sin(theta), w * sp.cos(theta)], [-sp.cos(theta) / w, -sp.sin(theta) / w]]
    return sp.Matrix(cols[::-1] if swap else cols).T


def closed_chi_inverse_gradients(x, y, two_pi=2 * sp.pi, swap=False):
    """The rows ∇q̄ = (−y, x)/(2π|x|²) and ∇p = −2π·(x, y) of
    `KappaMap.jacobian`."""
    r2 = x**2 + y**2
    rows = [[-y / (two_pi * r2), x / (two_pi * r2)], [-two_pi * x, -two_pi * y]]
    return sp.Matrix([[a, b][::-1] if swap else [a, b] for a, b in rows])


def certify_chi(grad_planted=None, **planted):
    """Which identities hold: the code's Jχ is χ's derivative, has
    determinant 1, and the code's [∇q̄; ∇p] at χ(q, p) inverts it."""
    chi = chi_symbolic(Q_CHI, P_CHI)
    J = closed_chi_jacobian(Q_CHI, P_CHI, **planted)
    grad = closed_chi_inverse_gradients(*chi, **(grad_planted or {}))
    on = {P_CHI: 1 - W1}
    return {
        "jacobian": _vanishes(list((J - chi.jacobian([Q_CHI, P_CHI])).subs(on))),
        "det": _vanishes([J.det().subs(on) - 1]),
        "inverse": _vanishes(list((grad * J - sp.eye(2)).subs(on))),
    }


def test_chi_jacobian_proved():
    assert certify_chi() == {"jacobian": True, "det": True, "inverse": True}


def test_chi_certificate_fails_on_planted_errors():
    # 2π → π keeps the determinant (w and 1/w cancel) but not the rest.
    assert certify_chi(two_pi=sp.pi) == {"jacobian": False, "det": True, "inverse": False}
    assert certify_chi(swap=True) == {"jacobian": False, "det": False, "inverse": False}
    assert not certify_chi(grad_planted={"two_pi": sp.pi})["inverse"]
    assert not certify_chi(grad_planted={"swap": True})["inverse"]


def test_chi_symbolic_forms_match_the_code():
    """The symbolic χ, Jχ and [∇q̄; ∇p] are the ones the code computes;
    κ's Jacobian is Jλ at χ⁻¹(x) times [∇q̄; ∇p]."""
    X, Y = sp.symbols("x y", real=True)
    chi_f = sp.lambdify((Q_CHI, P_CHI), list(chi_symbolic(Q_CHI, P_CHI)), "math")
    chi_j = sp.lambdify((Q_CHI, P_CHI), closed_chi_jacobian(Q_CHI, P_CHI).tolist(), "math")
    grad = sp.lambdify((X, Y), closed_chi_inverse_gradients(X, Y).tolist(), "math")
    rng = np.random.default_rng(11)
    for qv, pv in zip(rng.uniform(0, 1, 50), rng.uniform(0, 0.999, 50)):
        assert np.allclose(ChiMap().forward([qv, pv]), chi_f(qv, pv), rtol=0, atol=1e-15)
        assert np.allclose(ChiMap().jacobian([qv, pv]), chi_j(qv, pv), rtol=1e-14, atol=0)
        x = ChiMap().forward([qv, pv])
        Jkappa = make_lambda().jacobian(ChiMap().inverse(x)) @ np.array(grad(*x))
        assert np.allclose(KappaMap().jacobian(x), Jkappa, rtol=1e-13, atol=1e-15)
