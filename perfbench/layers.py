"""Per-layer metrics from the spans of a traced run.

Every metric is per pass of the workload: a traced run repeats the same
sequence of calls, so counts are the same in every pass and times are
the mean over traced passes.  `_s` is self time (span duration minus
its children), `_pts`/`_cells` sum the span's work count, `_calls`
counts spans, and `_p50_ms`/`_p90_ms` are percentiles of the inclusive
span duration over all traced passes.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

SELF_S = (
    "maps.kappa_forward", "maps.kappa_inverse", "maps.chi_inverse",
    "maps.kappa_jacobian", "maps.phi_forward", "maps.phi_jacobian",
    "maps.psi_jacobian", "maps.check_symplectic", "maps.phi_image_contains",
    "quotient.preimage_affine_mod", "quotient.interval_contains",
    "sections.section_of_phi", "sections.membership", "sections.psi_membership",
    "sections.area_mc", "sections.fubini_check",
    "topology.rasterize", "topology.psi_rasterize", "topology.components",
    "topology.hull", "cli.injectivity",
)
WORK = {
    "maps.kappa_forward_pts": "maps.kappa_forward",
    "maps.kappa_inverse_pts": "maps.kappa_inverse",
    "maps.chi_inverse_pts": "maps.chi_inverse",
    "maps.phi_forward_pts": "maps.phi_forward",
    "quotient.interval_contains_pts": "quotient.interval_contains",
    "sections.membership_pts": "sections.membership",
    "sections.psi_membership_pts": "sections.psi_membership",
    "topology.components_cells": "topology.components",
    "cli.injectivity_pts": "cli.injectivity",
}
CALLS = (
    "quotient.preimage_affine_mod", "sections.section_of_phi",
    "topology.rasterize", "topology.psi_rasterize",
)
LATENCY = ("topology.rasterize", "topology.psi_rasterize")


def _by_name(spans):
    out = defaultdict(list)
    for s in spans:
        out[s.name].append(s)
    return out


def tail_counts(spans) -> dict:
    """Samples behind each reported percentile."""
    named = _by_name(spans)
    return {name: len(named.get(name, ())) for name in LATENCY}


def tail_short(spans, need: int) -> bool:
    """True while some reported p90 has spans but fewer than `need`."""
    return any(0 < n < need for n in tail_counts(spans).values())


def counts_repeat(spans, passes: int) -> bool:
    """True when every traced pass made the same calls on the same work."""
    counted = set(WORK.values()) | set(CALLS)
    work = [defaultdict(int) for _ in range(passes)]
    for s in spans:
        if s.name in counted:
            work[s.pass_index][s.name, "calls"] += 1
            work[s.pass_index][s.name, "n"] += s.n or 0
    return all(w == work[0] for w in work)


def _repeat_share(rasters) -> float:
    """Share of raster calls whose geometry key already occurred earlier
    in the same pass, over all traced passes."""
    seen = defaultdict(set)
    repeats = 0
    for s in rasters:
        key = tuple(s.key)
        repeats += key in seen[s.pass_index]
        seen[s.pass_index].add(key)
    return repeats / len(rasters) if rasters else 0.0


def _percentile_ms(spans, q: int) -> float:
    d = sorted((s.end - s.start) * 1e3 for s in spans)
    if not d:
        return 0.0
    if len(d) == 1:
        return d[0]
    return statistics.quantiles(d, n=100, method="inclusive")[q - 1]


def per_layer(spans, passes: int, checks) -> dict:
    """Metric name -> (value, unit) for every per-layer metric but the
    trace overhead, which needs the untraced passes."""
    named = _by_name(spans)
    selfs = self_times(spans)
    m = {}
    for name in SELF_S:
        m[f"{name}_s"] = (sum(selfs[s.id] for s in named.get(name, ())) / passes, "s")
    for metric, name in WORK.items():
        m[metric] = (sum(s.n or 0 for s in named.get(name, ())) / passes, "count")
    for name in CALLS:
        m[f"{name}_calls"] = (len(named.get(name, ())) / passes, "count")
    for name in LATENCY:
        m[f"{name}_p50_ms"] = (_percentile_ms(named.get(name, ()), 50), "ms")
        m[f"{name}_p90_ms"] = (_percentile_ms(named.get(name, ()), 90), "ms")
    drawn = sum(s.n for s in named.get("maps.raw_samples", ()))
    sampling = {s.id for s in named.get("maps.sample_domain", ())}
    kept = sum(s.n for s in named.get("maps.domain_mask", ()) if s.parent in sampling)
    m["maps.sample_domain_accept_ratio"] = (kept / drawn if drawn else 0.0, "ratio")
    rasters = sorted(
        (s for name in LATENCY for s in named.get(name, ())), key=lambda s: s.id
    )
    m["topology.geometry_repeat_share"] = (_repeat_share(rasters), "ratio")
    m["cli.checks_attempted"] = (sum(a for a, _ in checks) / passes, "count")
    m["cli.checks_failed"] = (sum(f for _, f in checks) / passes, "count")
    return m
