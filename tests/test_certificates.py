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
* ball norm: |κ⁻¹(u, v)|² = (4/π)·‖(u, v)‖∞², so the ball test
  Σ|κ⁻¹|² < 1/π is Σ‖·‖∞² < ¼, the form ψ's membership kernel tests.

where (q̄, p) is `maps.square_to_cylinder`'s closed form.  `KappaMap`
shares it: κ⁻¹(y) = k·|r|·(cos 2πq̄, sin 2πq̄), r the coordinate of
larger magnitude, which the angle certificate makes the sector κ⁻¹.
Numerical spot checks tie the symbolic κ⁻¹ and closed form to the code.  Each
certificate is shown to fail on a planted wrong constant and on the
formula of a neighbouring sector.

ψ's section at z is an arc of angles at each height
(`sections._arc_members`): with q1 = q̄ + c·Q2 mod 1,
p2 = P̄2 − c·p mod c and B = ¼ − max(|Q2 − ½|, |p2 − ½|)² −
max(|t1 − ½|, |t2 − ½|)², a cylinder point is a member iff (p − ½)² < B
and (q1 − ½)² < B.  On each branch of the three maxima and of the mod c,
the certificates prove that the ball test (4/π)·(m1² + m2² + m3²) < 1/π
is (4/π) times the binding arc test, and that B ≤ ¼ keeps q1 in (0, 1).
Each fails on a planted B + 0.01, arc centre ½ + 0.01 and dropped tail.

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

φ membership computes an angle only beside the slit ray (the slit-ray
bound, `sections` module docstring).  With (u, v) = ρ(cos θ, sin θ) and
θ = kπ/2 + α on sector k, the certificates prove:

* tan form: the closed form's q̄ is tan(α)/8 + k/4, and the pieces join
  at the sector boundaries α = ±π/4 (mod 1);
* slope: dq̄/dα = (1 + tan²α)/8 ≥ 1/8;
* norms: ‖y‖₁‖d‖₁ ≥ ‖y‖₂‖d‖₂, and (u·d₁ − v·d₀)² + (u·d₀ + v·d₁)² =
  ‖y‖₂²‖d‖₂², so the cross product over ‖y‖₂‖d‖₂ is |sin Δθ|;
* margin: SLIT_RAY_TOL/8 > 100·SLIT_TOL, exactly in the floats' values.

Each fails on a planted slope bound of 1/4, on the formula of a
neighbouring sector, on the norm inequality turned round and on a
planted τ of 1e-8.

`maps.block_defect` reads the symplectic defect from a 4 × 4 core and
2 × 2 trailing blocks.  The certificates prove:

* block lemma: J = diag(A, B₁, B₂) has JᵀΩJ − Ω = diag(AᵀΩA − Ω,
  (det B₁ − 1)·Ω, (det B₂ − 1)·Ω), for generic A and Bᵢ;
* φ at n = 3, on each sector and wrap branch: J = diag(core, I), and
  coreᵀΩcore = Ω;
* ψ at n = 3, for any plane map κ: J = diag(core′·diag(Jκ₁, Jκ₂), Jκ₃),
  core′ the core of the cube map with χ on its first pair, at κ(x).

Each fails on a planted coupling entry off the blocks and on a planted
wrong determinant (a wrong det formula in the lemma, a trailing pair
scaled in φ and ψ); the core fails on a flipped sign of the shear's q2
term.
"""

import math

import numpy as np
import pytest
import sympy as sp

from cubewrap.maps import (
    _QUARTER_COS,
    _QUARTER_SIN,
    DISC_RADIUS,
    ChiMap,
    EmbeddingConfig,
    KappaMap,
    disc_to_cylinder,
    make_lambda,
    make_lambda_prime,
    psi_config,
    square_to_cylinder,
)
from cubewrap.quotient import circle_distance, preimage_affine_mod, reduce
from cubewrap.sections import (
    SLIT_RAY_TOL,
    SLIT_TOL,
    psi_section_membership_many,
    section_of_phi,
)

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
    """|κ⁻¹(u)|² = (4/π)·‖u − ½‖∞² (the ball_norm certificate), so the
    ball test Σ|κ⁻¹|² < DISC_RADIUS² is Σ‖· − ½‖∞² < ¼, the ¼ form that
    ψ's arc predicate starts B from."""
    assert sp.simplify(4 / sp.pi * sp.Rational(1, 4) - (1 / sp.sqrt(sp.pi)) ** 2) == 0
    assert math.isclose(DISC_RADIUS**2 * math.pi / 4, 0.25, rel_tol=1e-15)


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
        assert circle_distance(qbar, q_ref) <= 4e-16
        assert p == pytest.approx(p_ref, abs=4e-16, rel=0)
        assert math.isclose(np.sum(KappaMap().inverse(y) ** 2) * math.pi / 4, Rv**2, rel_tol=1e-14)


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


# ψ's arc predicate (`sections._arc_members`).  A disc
# point with cylinder coordinates (q̄, p), paired with z = (z1, z2, t1,
# t2) and (Q2, P̄2) = λ′⁻¹(z1, z2), pulls back to the cube point with
# pairs (q1, p), (Q2, p2) and (t1, t2), where the kernel reads
# q1 = q̄ + c·Q2 − j (j its floor) and p2 = P̄2 − c·p, plus c where that
# is negative.  |κ⁻¹(u)|² = (4/π)·‖u − ½‖∞², so the point came from the
# ball iff (4/π)·(m1² + m2² + m3²) < DISC_RADIUS² = 1/π, with mi the
# ‖· − ½‖∞ of pair i.  On each branch of each max the max is one of its
# terms and the other term is no larger, and on each branch of the mod
# p2 is one affine form.
QB, P, Q2, PB2, T1, T2 = sp.symbols("qbar p Q2 Pbar2 t1 t2", real=True)
J_FLOOR = sp.Symbol("j", integer=True)
HALF = sp.Rational(1, 2)
ARC_BRANCHES = [
    (wrap, m1, m2, m3)
    for wrap in (0, 1)
    for m1 in ("q1", "p")
    for m2 in ("Q2", "p2")
    for m3 in ("t1", "t2")
]


def certify_arc(wrap, m1, m2, m3, centre=HALF, b_shift=0, drop_tail=False):
    """On one branch: `congruence`, q1 and p2 are the inverse shear of
    (q̄, P̄2) mod 1 and mod c; `ball`, the ball test is (4/π) times the
    arc test that binds on the branch, (q1 − centre)² < B or
    (p − ½)² < B, so one holds exactly when the other does; `range`,
    B ≤ ¼ confines the arc's q1 to (0, 1)."""
    c = C_SCALE
    q1 = QB + c * Q2 - J_FLOOR
    p2 = PB2 - c * P + wrap * c
    term = {"q1": q1 - HALF, "p": P - HALF, "Q2": Q2 - HALF, "p2": p2 - HALF,
            "t1": T1 - HALF, "t2": T2 - HALF}
    ball = 4 / sp.pi * (term[m1] ** 2 + term[m2] ** 2 + term[m3] ** 2) - (1 / sp.sqrt(sp.pi)) ** 2
    B = HALF**2 - term[m2] ** 2 - (0 if drop_tail else term[m3] ** 2) + b_shift
    arc = {"q1": (q1 - centre) ** 2, "p": (P - HALF) ** 2}[m1] - B
    x = sp.Symbol("x", real=True)
    widest = sp.solveset((x - centre) ** 2 < HALF**2 + b_shift, x, sp.S.Reals)
    return {
        "congruence": sp.simplify((PB2 - c * P - p2) / c).is_integer is True
        and sp.simplify(QB + c * Q2 - q1).is_integer is True,
        "ball": sp.simplify(ball - 4 / sp.pi * arc) == 0,
        "range": widest.is_subset(sp.Interval.open(0, 1)) is True,
    }


@pytest.mark.parametrize("branch", ARC_BRANCHES, ids=lambda b: "-".join(map(str, b)))
def test_arc_predicate_proved(branch):
    assert certify_arc(*branch) == {"congruence": True, "ball": True, "range": True}


@pytest.mark.parametrize(
    "plant",
    [{"b_shift": sp.Rational(1, 100)}, {"centre": HALF + sp.Rational(1, 100)}, {"drop_tail": True}],
    ids=["B+0.01", "centre+0.01", "dropped-tail"],
)
def test_arc_certificate_fails_on_planted_errors(plant):
    results = [certify_arc(*branch, **plant) for branch in ARC_BRANCHES]
    assert all(r["congruence"] for r in results)
    assert not all(r["ball"] for r in results)
    if "drop_tail" not in plant:
        assert not any(r["range"] for r in results)


def test_arc_symbolic_predicate_matches_the_code():
    """The predicate the certificate proves, maxima and mods written out,
    is the one the kernel computes, at random cylinder points of random
    n = 3 sections, away from the arc ends."""
    c = C_SCALE
    p2 = sp.Mod(PB2 - c * P, c)
    q1 = sp.Mod(QB + c * Q2, 1)
    m2 = sp.Max(abs(Q2 - HALF), abs(p2 - HALF))
    m3 = sp.Max(abs(T1 - HALF), abs(T2 - HALF))
    B = HALF**2 - m2**2 - m3**2
    margin = sp.Min(B - (P - HALF) ** 2, B - (q1 - HALF) ** 2)
    margin_f = sp.lambdify((QB, P, Q2, PB2, T1, T2, D), margin, "numpy")
    rng = np.random.default_rng(11)
    cfg = EmbeddingConfig(n=3, c=2.0)
    ys = DISC_RADIUS * 0.99 * rng.uniform(-0.7, 0.7, (20_000, 2))
    qbar, p = disc_to_cylinder(ys[:, 0], ys[:, 1])
    members = 0
    for a in (1.0, 0.5, 0.25):
        for _ in range(4):
            z = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) / a, *rng.uniform(0.05, 0.95, 2))
            sd = section_of_phi(z, psi_config(cfg, a))
            got = psi_section_membership_many(ys, z, cfg, a)
            m = margin_f(qbar, p, sd.Q2, sd.P2bar, z[2], z[3], 1 / a - 1)
            clear = np.abs(m) > 1e-12
            assert np.array_equal(got[clear], (m > 0)[clear])
            members += int(got.sum())
    assert members > 1000


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


# The slit-ray bound: q̄ against the Euclidean angle θ = kπ/2 + α of
# (u, v) = y − ½ on sector k, |α| ≤ π/4.
ALPHA = sp.Symbol("alpha", real=True)
RHO = sp.Symbol("rho", positive=True)
TAN_ALPHA = sp.Symbol("T", real=True)
SECTOR_INDEX = {"right": 0, "top": 1, "left": 2, "bottom": 3}


def sector_qbar(sector, formula_sector=None):
    """`closed_form`'s q̄ of the point at angle kπ/2 + α on `sector`."""
    theta = SECTOR_INDEX[sector] * sp.pi / 2 + ALPHA
    u, v = RHO * sp.cos(theta), RHO * sp.sin(theta)
    return closed_form(formula_sector or sector, u, v)[0]


def certify_slit_ray(sector, formula_sector=None, bound=sp.Rational(1, 8)):
    """Whether q̄ = tan(α)/8 + k/4 on `sector`, and whether dq̄/dα is
    (1 + tan²α)/8 and at least `bound` for every real tan α."""
    qbar = sector_qbar(sector, formula_sector)
    offset = sp.Rational(SECTOR_INDEX[sector], 4)
    slope = (1 + TAN_ALPHA**2) / 8
    return {
        "tan_form": sp.simplify(qbar - sp.tan(ALPHA) / 8 - offset) == 0,
        "slope": sp.simplify(sp.diff(qbar, ALPHA) - slope.subs(TAN_ALPHA, sp.tan(ALPHA))) == 0
        and sp.factor(slope - bound).is_nonnegative is True,
    }


def certify_norms(turned=False):
    """‖y‖₁‖d‖₁ ≥ ‖y‖₂‖d‖₂ (or, turned round, ≤), squared, in |u|, |v|,
    |d₀|, |d₁|; and the cross and dot products' Lagrange identity."""
    a, b, c, d = sp.symbols("a b c d", nonnegative=True)
    gap = sp.expand((a + b) ** 2 * (c + d) ** 2 - (a**2 + b**2) * (c**2 + d**2))
    u, v, d0, d1 = sp.symbols("u v d0 d1", real=True)
    lagrange = (u * d1 - v * d0) ** 2 + (u * d0 + v * d1) ** 2 - (u**2 + v**2) * (d0**2 + d1**2)
    return {
        "l1_bounds_l2": (-gap if turned else gap).is_nonnegative is True,
        "lagrange": sp.expand(lagrange) == 0,
    }


def slit_ray_margin(tau=SLIT_RAY_TOL):
    """τ/8, the least q̄ distance from the slit off the wedge, over 100
    SLIT_TOL, in the floats' exact values."""
    return sp.Rational(tau) / 8 > 100 * sp.Rational(SLIT_TOL)


@pytest.mark.parametrize("sector", SECTORS)
def test_slit_ray_slope_proved(sector):
    assert certify_slit_ray(sector) == {"tan_form": True, "slope": True}


def test_slit_ray_sectors_join():
    """q̄ at the end α = π/4 of each sector is q̄ at the start α = −π/4 of
    the next, mod 1, so q̄ runs once round the circle, monotonically."""
    for sector, nxt in NEXT.items():
        end = sector_qbar(sector).subs(ALPHA, sp.pi / 4)
        start = sector_qbar(nxt).subs(ALPHA, -sp.pi / 4)
        assert sp.simplify(end - start).is_integer


def test_slit_ray_norms_and_margin_proved():
    assert certify_norms() == {"l1_bounds_l2": True, "lagrange": True}
    assert slit_ray_margin()


@pytest.mark.parametrize("sector", SECTORS)
def test_slit_ray_certificate_fails_on_planted_errors(sector):
    assert not certify_slit_ray(sector, bound=sp.Rational(1, 4))["slope"]
    swapped = certify_slit_ray(sector, formula_sector=NEXT[sector])
    assert not swapped["tan_form"] and not swapped["slope"]


def test_slit_ray_norm_and_margin_certificates_fail_when_planted():
    assert not certify_norms(turned=True)["l1_bounds_l2"]
    assert not slit_ray_margin(tau=1e-8)


# The block lemma behind `maps.block_defect`.  With Ωₖ the standard
# symplectic matrix on k pairs, a block-diagonal J = diag(A, B₁, …)
# has JᵀΩJ − Ω = diag(AᵀΩ₂A − Ω₂, (det B₁ − 1)·Ω₁, …), since BᵀΩ₁B =
# det(B)·Ω₁ for a 2 × 2 block.  At n = 3, φ's Jacobian is diag(core,
# I) on every branch of its sectors and wraps, and ψ's is diag(core′·
# diag(Jκ₁, Jκ₂), Jκ₃), core′ the core of the cube map with χ on its
# first output pair at U = κ(x).  So the defect is read from a 4 × 4
# core and the trailing 2 × 2 determinants.
PAIR_OMEGA = sp.Matrix([[0, 1], [-1, 0]])
Q3 = sp.symbols("q1 p1 q2 p2 q3 p3", real=True)


def omega(pairs):
    return sp.diag(*[PAIR_OMEGA] * pairs)


def symbol_matrix(name, size):
    return sp.Matrix(size, size, lambda i, j: sp.Symbol(f"{name}{i}{j}", real=True))


def certify_block_lemma(coupling=0, det=lambda B: B.det()):
    """JᵀΩJ − Ω = diag(AᵀΩA − Ω, (det B₁ − 1)·Ω₁, (det B₂ − 1)·Ω₁) for
    J = diag(A, B₁, B₂), A generic 4 × 4 and Bᵢ generic 2 × 2, with an
    optional entry `coupling` planted at J[0, 4]."""
    A, blocks = symbol_matrix("a", 4), [symbol_matrix(f"b{i}_", 2) for i in (1, 2)]
    J = sp.diag(A, *blocks)
    J[0, 4] += coupling
    lhs = J.T * omega(4) * J - omega(4)
    rhs = sp.diag(A.T * omega(2) * A - omega(2), *[(det(B) - 1) * PAIR_OMEGA for B in blocks])
    return (lhs - rhs).expand() == sp.zeros(8, 8)


def test_block_lemma_proved():
    assert certify_block_lemma()


def test_block_lemma_fails_on_planted_errors():
    assert not certify_block_lemma(coupling=sp.Symbol("e"))
    assert not certify_block_lemma(det=lambda B: B[0, 0] * B[1, 1] + B[0, 1] * B[1, 0])


def cube_map(sector, first="lambda", coupling=0, tail_scale=1, shear=1):
    """φ at n = 3 on one branch: the shear with wrap offsets k₁ (mod 1)
    and k₂·c (mod c), λ (or χ) on the first pair and λ′ on the second
    on `sector`, the trailing pair passed through.  Planted: `coupling`
    times q1 added to q3's image, the trailing pair scaled, and the sign
    of the shear's q2 term."""
    q1, p1, q2, p2, q3, p3 = Q3
    k1, k2 = sp.symbols("k1 k2", integer=True)
    W = (q1 - shear * C_LEN * q2 + k1, p1, q2, C_LEN * p1 + p2 + k2 * C_LEN)
    if first == "lambda":
        head = closed_lambda(sector, W[0], W[1])
    else:
        head = tuple(chi_symbolic(W[0], W[1]))
    y = closed_lambda(sector, -W[3] / C_LEN, W[2])
    tail = (tail_scale * (q3 + coupling * q1), tail_scale * p3)
    return sp.Matrix([*head, y[0], C_LEN * y[1], *tail])


def certify_phi_blocks(sector, **planted):
    """Which hold for φ at n = 3 (λ and λ′ on `sector`, heights 1 − w):
    J = diag(core, I); JᵀΩJ − Ω = diag(coreᵀΩcore − Ω, 0), the block
    lemma's form; and coreᵀΩcore = Ω, so φ is symplectic."""
    J = cube_map(sector, **planted).jacobian(Q3)
    core = J[:4, :4]
    blocks = J - sp.diag(core, sp.eye(2)) == sp.zeros(6, 6)
    core_defect = core.T * omega(2) * core - omega(2)
    defect = (J.T * omega(3) * J - omega(3)) - sp.diag(core_defect, sp.zeros(2))
    on = {Q3[1]: 1 - W1}
    return {
        "blocks": blocks,
        "lemma": _vanishes(list(defect)),
        "core": _vanishes(list(core_defect.subs(on))),
    }


@pytest.mark.parametrize("sector", QUARTERS)
def test_phi_jacobian_blocks_proved(sector):
    assert certify_phi_blocks(sector) == {"blocks": True, "lemma": True, "core": True}


def test_phi_block_certificate_fails_on_planted_errors():
    coupled = certify_phi_blocks("right", coupling=sp.Symbol("e"))
    assert coupled == {"blocks": False, "lemma": False, "core": True}
    # det 4 on the trailing pair: still block diagonal, but not symplectic.
    scaled = certify_phi_blocks("right", tail_scale=2)
    assert scaled == {"blocks": False, "lemma": False, "core": True}
    assert not certify_phi_blocks("right", shear=-1)["core"]


def certify_psi_blocks(coupling=0, tail_scale=1):
    """ψ = φ′∘(κ × κ × κ) at n = 3, κ any map of the plane and φ′ the
    cube map with χ on its first pair: Jψ = diag(core′(U)·diag(Jκ₁,
    Jκ₂), Jκ₃) with U = κ(x)."""
    xs = sp.symbols("x1 y1 x2 y2 x3 y3", real=True)
    kappa = [sp.Function("kappa_u"), sp.Function("kappa_v")]
    U = [f(xs[2 * i], xs[2 * i + 1]) for i in range(3) for f in kappa]
    phi = cube_map("right", first="chi", coupling=coupling, tail_scale=tail_scale)
    at_U = dict(zip(Q3, U))
    psi = phi.subs(at_U, simultaneous=True)
    Jk = [sp.Matrix(U[2 * i : 2 * i + 2]).jacobian(xs[2 * i : 2 * i + 2]) for i in range(3)]
    core = cube_map("right", first="chi").jacobian(Q3)[:4, :4].subs(at_U, simultaneous=True)
    claim = sp.diag(core * sp.diag(Jk[0], Jk[1]), Jk[2])
    return (psi.jacobian(xs) - claim).expand() == sp.zeros(6, 6)


def test_psi_jacobian_blocks_proved():
    assert certify_psi_blocks()


def test_psi_block_certificate_fails_on_planted_errors():
    assert not certify_psi_blocks(coupling=sp.Symbol("e"))
    assert not certify_psi_blocks(tail_scale=1 + sp.Rational(1, 10**6))
