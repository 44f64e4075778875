"""Exact certificates, with sympy, for the closed forms the raster
geometry relies on.

On each of the concentric map κ's four sectors, κ⁻¹ is written as in
`KappaMap.inverse`: with (u, v) = y − ½ and k = 2/√π, the branch
|u| ≥ |v| sends (u, v) to k·u·(cos φ, sin φ), φ = (π/4)(v/u), and the
branch |v| > |u| to k·v·(cos φ, sin φ), φ = π/2 − (π/4)(u/v).  A sector
is parametrised by R > 0 and a real t (|t| ≤ 1 inside the sector; the
identities hold for every t).  The certificates prove, by symbolic
simplification to 0:

* angle: κ⁻¹(u, v) = ρ·(cos 2πq̄, sin 2πq̄) with ρ = |κ⁻¹(u, v)| > 0,
  so q̄ is the χ⁻¹ angle of κ⁻¹(u, v), mod 1;
* height: 1 − π|κ⁻¹(u, v)|² = p, the χ⁻¹ height;
* ball norm: |κ⁻¹(u, v)|² = (4/π)·‖(u, v)‖∞² (`sections._BALL_K`).

where (q̄, p) is `maps.square_to_cylinder`'s closed form.  Numerical
spot checks tie the symbolic κ⁻¹ and closed form to the code.  Each
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
"""

import math

import numpy as np
import pytest
import sympy as sp

from cubewrap.maps import KappaMap, square_to_cylinder
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
