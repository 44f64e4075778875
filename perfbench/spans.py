"""Spans around calls into the cubewrap modules, recorded from outside.

`Tracer.install()` replaces the traced functions and methods with
wrappers that record a span per call: name, start, end, parent span and
an optional work count.  Methods are patched on the class that defines
them; free functions in every cubewrap module namespace that bound the
name, since `cli` imports several of them directly.  `restore()` puts
every original object back.  Spans stay in memory until `write_jsonl`.
"""
from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _points(a):
    """Number of points in an array of shape (..., d)."""
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1])


def _size(a):
    return int(getattr(a, "size", 1))


# Counts are taken from (args, kwargs, result); positions include self.
def _pts_arg1(args, kwargs, result):
    return _points(args[1])


def _size_arg1(args, kwargs, result):
    return _size(args[1])


def _drawn(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "count"))


def _accepted(args, kwargs, result):
    """Points a domain mask lets through (`result` is a boolean mask)."""
    return int(result.sum())


def _cells(args, kwargs, result):
    return (args[0].n + 2) ** 2


def _injectivity_samples(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "samples"))


def _membership_pts(args, kwargs, result):
    return _points(args[0])


# Raster geometry keys: (kind, N, box, c).  A phi raster covers the unit
# square; a psi raster's box is fixed by N and its margin in cells.
def _phi_raster_key(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    return ["phi", int(_arg(args, kwargs, 2, "N")), "unit", float(config.c)]


def _psi_raster_key(args, kwargs, result):
    a = float(_arg(args, kwargs, 2, "a"))
    margin = int(_arg(args, kwargs, 4, "margin_cells", 2))
    return ["psi", int(_arg(args, kwargs, 3, "N")), f"disc+{margin}", 1.0 / a]


# (module, attribute path, span name, count, key)
TRACED = (
    ("maps", "KappaMap.forward", "maps.kappa_forward", _pts_arg1, None),
    ("maps", "KappaMap.inverse", "maps.kappa_inverse", _pts_arg1, None),
    ("maps", "KappaMap.jacobian", "maps.kappa_jacobian", None, None),
    ("maps", "ChiMap.inverse", "maps.chi_inverse", _pts_arg1, None),
    ("maps", "PhiMap.forward", "maps.phi_forward", _pts_arg1, None),
    ("maps", "PhiMap.jacobian", "maps.phi_jacobian", None, None),
    ("maps", "PhiMap.image_contains", "maps.phi_image_contains", None, None),
    ("maps", "PsiMap.jacobian", "maps.psi_jacobian", None, None),
    ("maps", "PhaseMap.sample_domain", "maps.sample_domain", None, None),
    ("maps", "PhiMap._raw_samples", "maps.raw_samples", _drawn, None),
    ("maps", "PsiMap._raw_samples", "maps.raw_samples", _drawn, None),
    # The masks sample_domain applies to each draw; only the calls made
    # directly by sample_domain count towards its accept ratio.
    ("maps", "PhiMap.contains", "maps.domain_mask", _accepted, None),
    ("maps", "PhiMap.smooth_mask", "maps.domain_mask", _accepted, None),
    ("maps", "PsiMap.contains", "maps.domain_mask", _accepted, None),
    ("maps", "PsiMap.smooth_mask", "maps.domain_mask", _accepted, None),
    ("maps", "check_symplectic", "maps.check_symplectic", None, None),
    ("quotient", "preimage_affine_mod", "quotient.preimage_affine_mod", None, None),
    ("quotient", "LineIntervalSet.contains_many", "quotient.interval_contains", _size_arg1, None),
    ("sections", "section_of_phi", "sections.section_of_phi", None, None),
    ("sections", "section_membership_many", "sections.membership", _membership_pts, None),
    ("sections", "psi_section_membership_many", "sections.psi_membership", _membership_pts, None),
    ("sections", "section_area_mc", "sections.area_mc", None, None),
    ("sections", "fubini_check", "sections.fubini_check", None, None),
    ("topology", "rasterize_section", "topology.rasterize", None, _phi_raster_key),
    ("topology", "rasterize_psi_section", "topology.psi_rasterize", None, _psi_raster_key),
    ("topology", "complement_components", "topology.components", _cells, None),
    ("topology", "bounded_hull", "topology.hull", None, None),
    ("topology", "check_complement_connected", "topology.check_complement_connected", None, None),
    ("topology", "check_hull_bound", "topology.check_hull_bound", None, None),
    ("cli", "_injectivity_check", "cli.injectivity", _injectivity_samples, None),
    ("cli", "cmd_verify", "cli.verify", None, None),
    ("cli", "cmd_sections", "cli.sections", None, None),
    ("cli", "cmd_topology", "cli.topology", None, None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "pass_index", "n", "key")

    def __init__(self, id, parent, name, start, pass_index):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.pass_index = pass_index
        self.n = None
        self.key = None


class Tracer:
    """Records spans for the calls listed in TRACED while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.origin = time.perf_counter()
        self.pass_index = 0
        self._stack = []
        self._saved = []  # (owner, attribute, original object)

    def targets(self):
        """(owner, attribute, original, TRACED entry) for every object the
        tracer replaces."""
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if name == "cubewrap" or name.startswith("cubewrap.")
        ]
        out = []
        for entry in TRACED:
            module_name, path = entry[:2]
            module = sys.modules[f"cubewrap.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                out.append((cls, attr, cls.__dict__[attr], entry))
                continue
            original = getattr(module, path)
            for m in namespaces:
                for attr, value in vars(m).items():
                    if value is original:
                        out.append((m, attr, original, entry))
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, original, (_, _, name, count, key) in self.targets():
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name, count, key)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.n = count(args, kwargs, result)
                if key is not None:
                    span.key = key(args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), self.pass_index)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def write_jsonl(self, path):
        """Gzipped JSONL, one object per span; times in seconds from the
        tracer's creation.  A traced run holds some 10^5 spans per pass."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                doc = {
                    "run": self.run_id,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "pass": s.pass_index,
                }
                if s.n is not None:
                    doc["n"] = s.n
                if s.key is not None:
                    doc["key"] = s.key
                fh.write(json.dumps(doc) + "\n")


def self_times(spans):
    """Span id -> duration minus the time covered by its child spans.

    Spans come from one thread, so children of one span never overlap
    and the covered time is the sum of their durations."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}
