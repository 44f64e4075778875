"""Analytic sections of the cube embedding's image and Monte Carlo checks.

For a fixed z in the last 2n-2 coordinates, the slice of the image at z
pulls back, through the cylinder-to-square map, to a product set on the
cylinder: the full angle circle minus one point, times a union of one or
two height intervals of total length 1/c.  The section in the square is
the image of that ribbon, an annular band with a radial slit, of area
exactly 1/c.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .maps import EmbeddingConfig, make_lambda, make_lambda_prime
from .quotient import (
    CircleIntervalSet,
    CircleValue,
    LineIntervalSet,
    preimage_affine_mod,
    reduce as circle_reduce,
)

# Fewest Monte Carlo points an area or volume estimate may rest on.
MIN_MC_SAMPLES = 10_000

__all__ = [
    "SectionDescription",
    "v_set",
    "w_set",
    "section_of_phi",
    "section_membership",
    "section_membership_many",
    "section_area_mc",
    "fubini_check",
    "FubiniReport",
    "section_to_json",
    "psi_section_membership_many",
]

# A point whose recovered angle is this close (circle distance) to the
# removed angle counts as on the slit.  Keeps the measure-zero slit
# robustly excluded under floating-point round trips.
SLIT_TOL = 1e-9


def v_set(Q2: float, c: float) -> CircleIntervalSet:
    """The angle circle R/Z minus the single point -c*Q2 mod 1."""
    if not 0 < Q2 < 1:
        raise ValueError(f"Q2 must be in (0,1), got {Q2}")
    if not c >= 1:
        raise ValueError(f"c must be >= 1, got {c}")
    vp = circle_reduce(-c * Q2, 1.0).representative
    return CircleIntervalSet.from_arcs([(vp, 1.0)], 1.0)


def w_set(P2bar: CircleValue, c: float) -> LineIntervalSet:
    """Heights P1 in (0,1) reachable at angle class P2bar: one or two
    open intervals of total length 1/c."""
    if P2bar.period != c:
        raise ValueError("P2bar period must equal c")
    return preimage_affine_mod(P2bar, c, offset_range=(0.0, 1.0), clip=(0.0, 1.0))


@dataclass(frozen=True)
class SectionDescription:
    """Analytic data of one z-section of the embedded cube's image."""

    z: tuple
    status: str  # "empty" | "puncture" | "generic"
    Q2: float | None = None
    P2bar: CircleValue | None = None
    V: CircleIntervalSet | None = None
    W: LineIntervalSet | None = None
    analytic_area: float = 0.0

    @property
    def slit_angle(self) -> float | None:
        """The removed angle on the circle (start of the single V arc)."""
        if self.V is None or not self.V.arcs:
            return None
        return self.V.arcs[0][0]


def section_of_phi(z, config: EmbeddingConfig) -> SectionDescription:
    """Describe the section at z in R^{2n-2}.

    Empty off (0,1) x (0,c) x (0,1)^{2n-4}, empty at the rectangle
    puncture, otherwise a generic ribbon section of area exactly 1/c.
    """
    z = tuple(float(v) for v in np.atleast_1d(np.asarray(z, dtype=float)))
    if len(z) != 2 * config.n - 2:
        raise ValueError(f"z must have {2 * config.n - 2} coordinates")
    c = config.c
    z1, z2 = z[0], z[1]
    tail_ok = all(0 < v < 1 for v in z[2:])
    if not (0 < z1 < 1 and 0 < z2 < c and tail_ok):
        return SectionDescription(z=z, status="empty")
    if (z1, z2) == config.z0:
        return SectionDescription(z=z, status="puncture")
    lamp = make_lambda_prime(c)
    cyl = lamp.inverse(np.array([z1, z2]))
    Q2 = float(cyl[0])
    P2bar = circle_reduce(float(cyl[1]), c)
    return SectionDescription(
        z=z,
        status="generic",
        Q2=Q2,
        P2bar=P2bar,
        V=v_set(Q2, c),
        W=w_set(P2bar, c),
        analytic_area=1.0 / c,
    )


def _resolve(sd_or_z, config):
    if isinstance(sd_or_z, SectionDescription):
        return sd_or_z
    return section_of_phi(sd_or_z, config)


def section_membership_many(ys, sd_or_z, config: EmbeddingConfig, slit_tol: float = SLIT_TOL):
    """Vectorized membership of square points in the section at z."""
    sd = _resolve(sd_or_z, config)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros(ys.shape[:-1], dtype=bool)
    if sd.status != "generic":
        return out
    inside = np.all((ys > 0.0) & (ys < 1.0), axis=-1)
    inside &= ~((ys[..., 0] == config.y0[0]) & (ys[..., 1] == config.y0[1]))
    if not np.any(inside):
        return out
    lam = make_lambda(config)
    cyl = lam.inverse(ys[inside])
    qbar, p = cyl[..., 0], cyl[..., 1]
    ok = sd.W.contains_many(p)
    vp = sd.slit_angle
    d = np.mod(qbar - vp, 1.0)
    ok &= (d > slit_tol) & (d < 1.0 - slit_tol)
    out[inside] = ok
    return out


def section_membership(y, sd_or_z, config: EmbeddingConfig, slit_tol: float = SLIT_TOL) -> bool:
    """Is the square point y in the section at z?"""
    return bool(section_membership_many(np.asarray(y, dtype=float), sd_or_z, config, slit_tol))


def section_area_mc(z, samples: int, seed: int, config: EmbeddingConfig):
    """Monte Carlo area of the section over the unit square.

    Returns (estimate, binomial standard error).
    """
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"samples must be at least {MIN_MC_SAMPLES}")
    sd = _resolve(z, config)
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

    def to_dict(self):
        return {
            "c": self.c,
            "grid": list(self.grid),
            "seed": self.seed,
            "generic_cells": self.generic_cells,
            "special_cells": self.special_cells,
            "max_area": self.max_area,
            "min_generic_area": self.min_generic_area,
            "analytic_integral": self.analytic_integral,
            "mc_spots": [list(row) for row in self.mc_spots],
            "mc_integral": self.mc_integral,
        }


def z_grid(config: EmbeddingConfig, shape=(50, 100), exclude_radius: float = 1e-3):
    """Cell-center grid over (0,1) x (0,c); cells within the exclusion
    radius of the rectangle puncture are reported separately."""
    w, h = shape
    c = config.c
    z1 = (np.arange(w) + 0.5) / w
    z2 = (np.arange(h) + 0.5) / h * c
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    pts = np.stack([Z1.ravel(), Z2.ravel()], axis=-1)
    z0 = np.array(config.z0)
    near = np.hypot(pts[:, 0] - z0[0], pts[:, 1] - z0[1]) < exclude_radius
    return pts[~near], pts[near]


def fubini_check(
    config: EmbeddingConfig,
    grid=(50, 100),
    mc_spots: int = 0,
    samples_per_spot: int = 100_000,
    seed: int = 0,
) -> FubiniReport:
    """Check that section areas integrate to the cube volume 1 and that
    the maximal area attains the sharp bound 1/c."""
    generic_z, special_z = z_grid(config, grid)
    c = config.c
    areas = []
    for z in generic_z:
        sd = section_of_phi(z, config)
        areas.append(sd.analytic_area)
    areas = np.asarray(areas)
    # Cells at or near the puncture contribute area 0 over a measure-zero
    # (in the grid limit) region; include them at their analytic value.
    special_areas = [section_of_phi(z, config).analytic_area for z in special_z]
    all_areas = np.concatenate([areas, np.asarray(special_areas)])
    integral = float(all_areas.mean() * c)
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
        max_area=float(all_areas.max()),
        min_generic_area=float(areas.min()),
        analytic_integral=integral,
        mc_spots=tuple(spots),
        mc_integral=mc_integral,
    )


def section_to_json(
    sd: SectionDescription, mc_area=None, mc_stderr=None, seed=None, indent=None
) -> str:
    doc = {
        "z": list(sd.z),
        "status": sd.status,
        "V_arcs": [list(a) for a in (sd.V.arcs if sd.V else [])],
        "W_intervals": [list(i) for i in (sd.W.intervals if sd.W else [])],
        "analytic_area": sd.analytic_area,
        "mc_area": mc_area,
        "mc_stderr": mc_stderr,
        "seed": seed,
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def psi_section_membership_many(ys, z, config: EmbeddingConfig, a: float, slit_tol: float = SLIT_TOL):
    """Vectorized membership of plane points in the z-section of the
    ball embedding's image (c = 1/a).

    A point y belongs iff its square image under the concentric map,
    paired with z, pulls back through the cube embedding to a point of
    the cube that came from the ball.
    """
    from .maps import DISC_RADIUS, KappaMap  # local to avoid cycle at import

    if not 0 < a <= 1:
        raise ValueError(f"a must be in (0,1], got {a}")
    c = 1.0 / a
    cfg = EmbeddingConfig(n=config.n, c=c, fd_step=config.fd_step, tol_symp=config.tol_symp)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros(ys.shape[:-1], dtype=bool)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    tail = z[2:]
    if not (0 < z[0] < 1 and 0 < z[1] < c and np.all((tail > 0) & (tail < 1))):
        return out
    sd = section_of_phi(z, cfg)
    if sd.status != "generic":
        return out
    r = DISC_RADIUS
    inside = np.hypot(ys[..., 0], ys[..., 1]) < r
    if not np.any(inside):
        return out
    kappa = KappaMap(side=1.0)
    u = kappa.forward(ys[inside])
    lam = make_lambda(cfg)
    cyl = lam.inverse(u)
    qbar, p1 = cyl[..., 0], cyl[..., 1]
    ok = (p1 > 0) & (p1 < 1)
    ok &= sd.W.contains_many(p1)
    vp = sd.slit_angle
    d = np.mod(qbar - vp, 1.0)
    ok &= (d > slit_tol) & (d < 1.0 - slit_tol)
    # Reconstruct the cube preimage and apply the ball constraint.
    q1 = np.mod(qbar + c * sd.Q2, 1.0)
    p2 = np.mod(sd.P2bar.representative - c * p1, c)
    ok &= (q1 > 0) & (q1 < 1) & (p2 > 0) & (p2 < 1)
    b1 = kappa.inverse(np.stack([q1, p1], axis=-1))
    b2 = kappa.inverse(np.stack([np.full_like(q1, sd.Q2), p2], axis=-1))
    norm2 = np.sum(b1 * b1, axis=-1) + np.sum(b2 * b2, axis=-1)
    # Trailing coordinate pairs of z contribute through the same
    # concentric map on each pair.
    for k in range(0, len(tail), 2):
        bk = kappa.inverse(np.array(tail[k : k + 2]))
        norm2 = norm2 + float(np.sum(bk * bk))
    ok &= norm2 < r**2
    out[inside] = ok
    return out
