"""Analytic sections of the cube embedding's image and Monte Carlo checks.

For a fixed z in the last 2n-2 coordinates, the slice of the image at z
pulls back, through the cylinder-to-square map λ, to a product set on
the cylinder: the full angle circle minus one point (V), times a union
of one or two height intervals of total length 1/c (W).  The section in
the square is λ(V × W), an annular band with a radial slit, of area
exactly 1/c.  `SectionDescription` stores V as its one missing point,
the slit angle, and W as a `LineIntervalSet`.

So whether a plane point lies in a section depends on z only through a
few scalars, and on the point only through its cylinder coordinates
(q̄, p), held as two plain arrays.  For the cube embedding φ they are
λ⁻¹ of square points, `maps.square_to_cylinder`: p = 1 − 4‖y − ½‖∞²
and a sector-wise rational angle, with no trig.  For the ball embedding
ψ they are λ⁻¹∘κ = χ⁻¹ of disc points, `maps.disc_to_cylinder`: plain
polar coordinates, q̄ = arg y / 2π and p = 1 − π|y|².

Both sections are a set of angles at each height.  For φ, a point is a
member iff p ∈ W and q̄ is off the slit (`section_membership_many`).
For ψ (c = 1/a) the angles at height p form one open arc: with
p2 = P̄2 − c·p mod c and
B(p) = ¼ − max(|Q2 − ½|, |p2 − ½|)² − Σ_tail ‖·‖∞², a point is a member
iff (p − ½)² < B and (q̄ + c·Q2 mod 1 − ½)² < B, the arc of half-width
√B centred at ½ − c·Q2 (`_arc_members`).  The kernel needs no disc
mask: a point on or beyond the rim has p ≤ 0, so (p − ½)² ≥ ¼ > B.  A
member's height lies in W and within √B_max of ½, B_max the bound B
reaches at |p2 − ½| ≤ |Q2 − ½|; `_arc_heights` gives those heights, W's
pieces widened past every rounding, so φ and ψ read one W.  A φ raster
needs only heights, read from its 1-D axis, and frees the closed cells
its slit meets (`topology.rasterize_section`); a ψ raster runs the arc
kernel only on the annuli those heights map to, reading q̄ from
`topology.psi_section_cells` and p from its 1-D axis, none of it cached.

The slit-ray bound.  φ membership computes an angle only beside the
slit ray, the ray from ½ through d + ½, d = λ(slit angle, 0) − ½.  Let θ
be the Euclidean angle of (u, v) = y − ½.  On each of κ's four sectors,
centred at θ_k = kπ/2, `square_to_cylinder` reads
q̄ = tan(θ − θ_k)/8 + k/4, so dq̄/dθ = sec²(θ − θ_k)/8 ≥ 1/8, and q̄ runs
monotonically round the circle.  So a point's circle distance from the
slit in q̄ is at least 1/8 of its angle from the ray in θ:

* u·d₀ + v·d₁ ≤ 0 puts it π/2 or more from the ray, π/16 in q̄;
* |u·d₁ − v·d₀| > τ·(|u| + |v|)·(|d₀| + |d₁|) gives |sin Δθ| > τ,
  since ‖y‖₁‖d‖₁ ≥ ‖y‖₂‖d‖₂, so |Δθ| > τ and q̄ is more than
  τ/8 = 1.25e-7 from the slit.

τ = `SLIT_RAY_TOL` = 1e-6 makes τ/8 over 100 times SLIT_TOL, while the
rounding of d, of the two products and of q̄ is about 1e-16.  Only the
points inside the wedge, a share of order τ of the square, go through
`square_to_cylinder`, and of those only the angle is tested, since their
height has already passed p ∈ W; every other point is a member iff its
height is in W.  φ and ψ membership run on blocks of
`maps._BLOCK_ELEMENTS` points (`maps._by_blocks`), a ψ raster's kernel
on its boxes.  tests/test_certificates.py proves the sector identity,
the norm inequality and τ/8 > SLIT_TOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import (
    EmbeddingConfig,
    _as_points,
    _by_blocks,
    _in_box,
    disc_to_cylinder,
    make_lambda,
    make_lambda_prime,
    psi_config,
    square_to_cylinder,
)
from .quotient import (
    LineIntervalSet,
    preimage_affine_mod,
    reduce as circle_reduce,
)

# Fewest Monte Carlo points an area or volume estimate may rest on.
MIN_MC_SAMPLES = 10_000

__all__ = [
    "SectionDescription",
    "section_of_phi",
    "resolve_section",
    "section_membership_many",
    "section_area_mc",
    "fubini_check",
    "FubiniReport",
    "pad_z",
    "z_grid",
    "psi_section_membership_many",
]

# A point whose recovered angle is this close (circle distance) to the
# removed angle counts as on the slit.  Keeps the measure-zero slit
# robustly excluded under floating-point round trips.
SLIT_TOL = 1e-9

# τ of the slit-ray bound (module docstring).  A point y − ½ = (u, v) off
# the wedge |u·d₁ − v·d₀| ≤ τ·‖(u, v)‖₁‖d‖₁ around the slit ray d lies
# more than τ radians from the ray, and dq̄/dθ ≥ 1/8 puts it more than
# τ/8 = 1.25e-7 from the slit in q̄: over 100 times SLIT_TOL.
SLIT_RAY_TOL = 1e-6

# The cap on ψ's arc bound B: every arc stays SLIT_TOL clear of the slit.
_ARC_CAP = (0.5 - SLIT_TOL) ** 2

# Widening of each end of `_arc_heights`' intervals: far above the
# rounding of the kernel's p2 (3·2⁻⁵³ in p) and of a cell's height.
_HEIGHT_SLACK = 1e-9

# z grid cells whose centre lies closer than this to the puncture z0 are
# set apart from the generic cells.
Z0_EXCLUSION = 1e-3


@dataclass(frozen=True)
class SectionDescription:
    """Analytic data of one z-section of the embedded cube's image at
    the length c of the last factor: V as its one missing point,
    `slit_angle`, and the heights W."""

    z: tuple
    status: str  # "empty" | "puncture" | "generic"
    c: float
    Q2: float | None = None
    P2bar: float | None = None
    slit_angle: float | None = None
    W: LineIntervalSet | None = None
    analytic_area: float = 0.0


def section_of_phi(z, config: EmbeddingConfig) -> SectionDescription:
    """Describe the section at z in R^{2n-2}.

    Empty off (0,1) x (0,c) x (0,1)^{2n-4}, empty at the rectangle
    puncture, otherwise a generic ribbon section of area exactly 1/c:
    with (Q2, P2) = λ′⁻¹(z1, z2), the slit sits at angle -c·Q2 mod 1 and
    W is `preimage_affine_mod(P2 mod c, c)`.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if zs.shape != (2 * config.n - 2,):
        raise ValueError(f"z must have {2 * config.n - 2} coordinates")
    z = tuple(zs.tolist())
    inside = 0 < z[0] < 1 and 0 < z[1] < config.c and all(0 < t < 1 for t in z[2:])
    c = config.c
    if not inside or z[:2] == config.z0:
        return SectionDescription(z=z, status="puncture" if inside else "empty", c=c)
    Q2, P2 = make_lambda_prime(c).inverse(zs[:2]).tolist()
    if not 0 < Q2 < 1:
        raise ValueError(
            f"z = {z} lies within rounding of the puncture z0 = {config.z0} or of "
            f"the rectangle's edge: Q2 must be in (0,1), got {Q2}"
        )
    P2bar = circle_reduce(P2, c)
    return SectionDescription(
        z=z,
        status="generic",
        c=c,
        Q2=Q2,
        P2bar=P2bar,
        slit_angle=circle_reduce(-c * Q2, 1.0),
        W=preimage_affine_mod(P2bar, c),
        analytic_area=1.0 / c,
    )


def resolve_section(sd_or_z, config: EmbeddingConfig) -> SectionDescription:
    """A SectionDescription as given, or the section at the given z.  A
    section built for another c than config's is an error."""
    if not isinstance(sd_or_z, SectionDescription):
        return section_of_phi(sd_or_z, config)
    if sd_or_z.c != config.c:
        raise ValueError(f"the section was built for c = {sd_or_z.c}, not c = {config.c}")
    return sd_or_z


def section_membership_many(ys, sd_or_z, config: EmbeddingConfig):
    """Vectorized membership of square points in the section at z: a
    point of the open square is a member iff its height p is in W and,
    only inside the wedge of the slit-ray bound (module docstring), its
    angle q̄ is at circle distance more than SLIT_TOL from the slit."""
    sd = resolve_section(sd_or_z, config)
    ys = _as_points(ys)
    if sd.status != "generic":
        return np.zeros(ys.shape[:-1], dtype=bool)
    d0, d1 = make_lambda().forward((sd.slit_angle, 0.0)) - 0.5
    wedge = SLIT_RAY_TOL * (abs(d0) + abs(d1))

    def members(block):
        u, v = block[:, 0] - 0.5, block[:, 1] - 0.5
        # p = 1 − 4·max(u², v²) is square_to_cylinder's 1 − 4r² bit for
        # bit, since |u| ≥ |v| iff u·u ≥ v·v in floating point, so a
        # point in the wedge has already passed p ∈ W.  The puncture
        # y0 = (½, ½) gets height 1 ∉ W.
        member = _in_box(block, 0.0, 1.0)
        member &= sd.W.contains_many(1.0 - 4.0 * np.maximum(u * u, v * v))
        near = member & (u * d0 + v * d1 > 0.0)
        near &= np.abs(u * d1 - v * d0) <= wedge * (np.abs(u) + np.abs(v))
        idx = np.flatnonzero(near)
        if len(idx):
            # The angle off the slit, reduced mod 1 as d − floor(d),
            # bit-identical to np.mod(d, 1.0).
            d = square_to_cylinder(block[idx])[:, 0] - sd.slit_angle
            d -= np.floor(d)
            member[idx] = (d > SLIT_TOL) & (d < 1.0 - SLIT_TOL)
        return member

    # width=1: blocks of _BLOCK_ELEMENTS points, as ψ membership takes.
    return _by_blocks(members, ys.reshape(-1, 2), width=1).reshape(ys.shape[:-1])


def section_area_mc(z, samples: int, seed: int, config: EmbeddingConfig):
    """Monte Carlo area of the section over the unit square.

    Returns (estimate, binomial standard error).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}")
    sd = resolve_section(z, config)
    if sd.status != "generic":
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0.0, 1.0, size=(samples, 2))
    hits = int(section_membership_many(ys, sd, config).sum())
    p = hits / samples
    stderr = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return p, stderr


@dataclass(frozen=True)
class FubiniReport:
    c: float
    grid: tuple
    seed: int
    generic_cells: int
    special_cells: int
    max_area: float
    min_generic_area: float
    analytic_integral: float
    mc_spots: tuple  # ((z1, z2, mc_area, stderr), ...)
    mc_integral: float | None


def pad_z(z, config: EmbeddingConfig):
    """z (shape (..., k)) padded to 2n-2 coordinates, the missing
    trailing ones at the cube centre 0.5."""
    z = np.asarray(z, dtype=float)
    tail = np.full(z.shape[:-1] + (max(0, 2 * config.n - 2 - z.shape[-1]),), 0.5)
    return np.concatenate([z, tail], axis=-1)


def z_grid(config: EmbeddingConfig, shape=(50, 100)):
    """Cell-center grid over (0,1) x (0,c), in z1-major order, as z of
    2n-2 coordinates (`pad_z`); cells within Z0_EXCLUSION of the
    rectangle puncture are reported separately.  A size below 1, or a
    grid with no cell left outside that radius, is an error."""
    w, h = shape
    if w < 1 or h < 1:
        raise ValueError(f"grid sizes must be positive, got {w}x{h}")
    c = config.c
    z1 = (np.arange(w) + 0.5) / w
    z2 = (np.arange(h) + 0.5) / h * c
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    pts = pad_z(np.stack([Z1.ravel(), Z2.ravel()], axis=-1), config)
    z0 = np.array(config.z0)
    near = np.hypot(pts[:, 0] - z0[0], pts[:, 1] - z0[1]) < Z0_EXCLUSION
    if near.all():
        raise ValueError(
            f"z grid {w}x{h} has no generic cell: no cell centre lies "
            f"{Z0_EXCLUSION} or more from the puncture z0"
        )
    return pts[~near], pts[near]


def fubini_check(
    config: EmbeddingConfig,
    grid=(50, 100),
    mc_spots: int = 0,
    samples_per_spot: int = 100_000,
    seed: int = 0,
) -> FubiniReport:
    """Check that section areas integrate to the cube volume 1 and that
    the maximal area attains the sharp bound 1/c.

    Every generic section has area 1/c (see `section_of_phi`).  The
    integral is the mean over the generic cells only: the cells near the
    puncture, a region of measure zero in the grid limit, are counted in
    `special_cells` and left out."""
    if mc_spots < 0:
        raise ValueError(f"mc_spots must be non-negative, got {mc_spots}")
    generic_z, special_z = z_grid(config, grid)
    c = config.c
    areas = np.full(len(generic_z), 1.0 / c)
    integral = float(areas.mean() * c)
    spots = []
    mc_integral = None
    if mc_spots > 0:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(generic_z), size=min(mc_spots, len(generic_z)), replace=False)
        for j, i in enumerate(idx):
            est, se = section_area_mc(
                generic_z[i], samples_per_spot, seed=seed + 1 + j, config=config
            )
            spots.append((float(generic_z[i][0]), float(generic_z[i][1]), est, se))
        mc_integral = float(np.mean([s[2] for s in spots]) * c)
    return FubiniReport(
        c=c,
        grid=tuple(grid),
        seed=seed,
        generic_cells=len(generic_z),
        special_cells=len(special_z),
        max_area=float(areas.max()),
        min_generic_area=float(areas.min()),
        analytic_integral=integral,
        mc_spots=tuple(spots),
        mc_integral=mc_integral,
    )


def _arc_terms(sd: SectionDescription):
    """The per-z scalars of ψ's arc predicate: the shift c·Q2 that takes
    q̄ to q1, |Q2 − ½|, and ¼ less the squared ‖t − ½‖∞ of each
    trailing coordinate pair t of z."""
    tail = sd.z[2:]
    base = 0.25
    for k in range(0, len(tail), 2):
        m = max(abs(tail[k] - 0.5), abs(tail[k + 1] - 0.5))
        base -= m * m
    return sd.c * sd.Q2, abs(sd.Q2 - 0.5), base


def psi_section_membership_many(ys, z, config: EmbeddingConfig, a: float):
    """Vectorized membership of plane points in the z-section of the
    ball embedding's image (c = 1/a): `_arc_members` of their polar
    coordinates (q̄, p) = χ⁻¹(y), in blocks as φ membership takes them."""
    cfg = psi_config(config, a)
    sd = resolve_section(z, cfg)
    ys = _as_points(ys)
    if sd.status != "generic":
        return np.zeros(ys.shape[:-1], dtype=bool)

    def members(block):
        return _arc_members(*disc_to_cylinder(block[:, 0], block[:, 1]), sd)

    return _by_blocks(members, ys.reshape(-1, 2), width=1).reshape(ys.shape[:-1])


def _arc_members(qbar, p, sd: SectionDescription):
    """Membership of the cylinder points (q̄, p), two arrays of one shape,
    in the generic section `sd` of the ball embedding's image at
    c = sd.c = 1/a, an arc of angles at each height.

    A disc point y with (q̄, p) = χ⁻¹(y), paired with z, pulls back to
    the cube point with (q1, p1) = (q̄ + c·Q2 mod 1, p) and (Q2, p2) =
    (Q2, P̄2 − c·p mod c); it came from the ball iff the κ⁻¹-norms of
    its coordinate pairs, trailing pairs of z included, sum below
    DISC_RADIUS² = 1/π.  |κ⁻¹(u)|² = (4/π)·‖u − ½‖∞², so that is
    max(|q1 − ½|, |p − ½|)² < B with

        B = ¼ − max(|Q2 − ½|, |p2 − ½|)² − Σ_tail max(|t − ½|, |t′ − ½|)²,

    that is (p − ½)² < B and (q1 − ½)² < B: at height p, the arc of
    half-width √B centred at q̄ = ½ − c·Q2.  p2 ∉ (0, 1), that is p ∉ W,
    makes |p2 − ½| ≥ ½ and B ≤ 0, so no point passes; B ≤ ¼ keeps p and
    q1 in (0, 1).  B is capped at (½ − SLIT_TOL)², so every arc stays
    SLIT_TOL clear of the slit q1 = 0.  tests/test_certificates.py
    proves the equivalence on each branch of the max and the mod.

    A point on or beyond the disc's rim has p = 1 − π|y|² ≤ 0, so
    (p − ½)² ≥ ¼ > B and it is never a member.  |p2 − ½| is clamped at 1
    before squaring, so no c overflows: B < 0 wherever the clamp acts.
    One in-place pass; callers pass blocks of about _BLOCK_ELEMENTS
    points, and `_arc_heights` bounds the heights that can pass.
    """
    c = sd.c
    shift, m2, base = _arc_terms(sd)
    member = np.empty(p.shape, dtype=bool)
    B, u, v = np.empty((3,) + p.shape)
    f = np.empty(p.shape, dtype=bool)
    # p2 = P̄2 − c·p, in (−c, c) for p in (0, 1), reduced into [0, c);
    # a p outside (0, 1) fails (p − ½)² < B ≤ ¼ whatever p2 is.
    np.multiply(p, -c, out=u)
    u += sd.P2bar
    np.less(u, 0.0, out=f)
    np.add(u, c, out=u, where=f)
    # B = ¼ − Σ_tail − max(|Q2 − ½|, |p2 − ½|)².
    u -= 0.5
    np.abs(u, out=u)
    np.clip(u, m2, 1.0, out=u)
    u *= u
    np.subtract(base, u, out=B)
    np.minimum(B, _ARC_CAP, out=B)
    np.subtract(p, 0.5, out=u)
    u *= u
    np.less(u, B, out=member)
    # q1 = q̄ + c·Q2 mod 1, as x − floor(x).
    np.add(qbar, shift, out=u)
    np.floor(u, out=v)
    u -= v
    u -= 0.5
    u *= u
    np.less(u, B, out=f)
    member &= f
    return member


def _arc_heights(sd: SectionDescription):
    """Disjoint open height intervals, sorted, at most two, that hold the
    height p of every point `_arc_members` passes in the generic section
    `sd`: W's pieces, each end widened by _HEIGHT_SLACK, clipped to
    ½ ± (√B_max + _HEIGHT_SLACK).  An empty list means an empty section.

    Why this holds bit for bit.  B_max = min(¼ − Σ_tail − |Q2 − ½|², cap)
    bounds the kernel's B, since each float step of B is monotone in
    max(|Q2 − ½|, |p2 − ½|) ≥ |Q2 − ½|; a member has fl((p − ½)²) <
    B ≤ B_max, so |p − ½| < √B_max to within an ulp, and B_max ≤ 0
    leaves no member.  B > 0 needs the kernel's p2 in (0, 1) as a float,
    that is p in the exact W but for three errors, each far below
    _HEIGHT_SLACK: the kernel rounds p2 = P̄2 − c·p (plus c) in three
    steps of at most 2⁻⁵³·c, which moves p by 3·2⁻⁵³; `quotient.reduce`
    snaps a start within 1e-15 of 1 to 0, and W's ends round by about
    2⁻⁵²; and a wrapped W drops pieces of 1e-15 or less, which lie at
    p < 1e-15 or p > 1 − 1e-15, where (p − ½)² > cap ≥ B.  A raster's
    cell heights 1 − π|y|² round by about 2⁻⁵⁰, so a cell whose centre
    lies outside the widened pieces by any rounding fails the kernel.
    """
    m2, base = _arc_terms(sd)[1:]
    b_max = min(base - m2 * m2, _ARC_CAP)
    if not b_max > 0.0:
        return []
    half = math.sqrt(b_max) + _HEIGHT_SLACK
    pieces = []
    for lo, hi in sd.W.intervals:
        lo = max(lo - _HEIGHT_SLACK, 0.5 - half)
        hi = min(hi + _HEIGHT_SLACK, 0.5 + half)
        if pieces and lo <= pieces[-1][1]:
            pieces[-1] = (pieces[-1][0], hi)
        elif lo < hi:
            pieces.append((lo, hi))
    return pieces
