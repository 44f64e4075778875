"""Command-line verification harness.

Subcommands:
  verify    symplecticity, injectivity, containment, image volume
  sections  analytic + Monte Carlo section areas, sharpness, Fubini
  topology  complement connectivity and bounded-hull checks
  plot      SVG figures of the cylinder ribbon, its square image, raster

Each subcommand takes only the flags it reads; the defaults are the
argparse defaults, and nothing else (no environment variable) sets them:

  verify    --n --c --seed --samples --out
  sections  --c --seed --samples --grid --mc-spots --out
  topology  --c --seed --N --grid --hull --a --fixture --out
  plot      --c --z --N --out

Only verify takes --n: at any n the library's z grids put the trailing
2n-4 coordinates of z at the cube centre, where no section changes.
--seed is a non-negative integer.  topology checks every generic z, so
there it only orders the connectivity entries and picks which failing z
is named first; --hull ignores it.

verify draws one sample per map, and each check reads it or a prefix:

  cube sample   --samples uniform points (seed + 4), mapped through φ
                once: containment, injectivity and (n >= 3) the trailing
                identity read all of it; φ's analytic symplectic check
                the smooth points among its first SYMPLECTIC_ROWS, and
                φ's finite-difference check the first FD_ROWS of those
  ball sample   --samples points (seed + 3), mapped through ψ's first
                factor (`PsiMap.first_factor`) for psi_first_factor_in_disc;
                ψ's analytic symplectic check reads the smooth points among
                its first SYMPLECTIC_ROWS
  image volume  --samples uniform points of the target box (seed + 5)

Each of the three is one phase on stderr, and each sample is freed at
the end of its phase.

Reports are JSON (schema "1") and byte-identical for identical spec and
seed; the spec keeps every key of the schema, null ([] for grid, false
for hull) where the subcommand has no such flag.  Timing goes to stderr
so it never perturbs report bytes.  Exit codes: 0 all checks pass, 1
check failure, 2 usage/config error, 3 I/O error.

`_finish` is the one writer: each subcommand hands it its checks, its
report sections and its files (path -> text or bytes), and nothing else
opens a file or makes a directory.  So a usage error writes nothing, and
an OSError on any file (the report, sections.csv, plot's figures,
topology's PGM of a failing section or hull) is exit 3 and leaves the
files as they were.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .maps import (
    DISC_RADIUS,
    SMOOTH_MARGIN,
    SYMPLECTIC_TOL,
    EmbeddingConfig,
    build_phi,
    build_psi,
    check_symplectic,
    finite_difference_jacobian,
    jacobian_defect,
    make_lambda,
    psi_config,
)
from .sections import (
    MIN_MC_SAMPLES,
    fubini_check,
    section_of_phi,
    z_grid,
)
from .topology import (
    annulus_fixture,
    annulus_with_slit_fixture,
    bounded_hull,
    check_complement_connected,
    check_hull_bound,
    complement_components,
    disk_fixture,
    rasterize_psi_section,
    rasterize_section,
)

SCHEMA = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# --c, the length of the last factor, when a subcommand is not given it.
DEFAULT_C = 2.0

# verify's injectivity witness: images closer than IMAGE_TOL whose
# preimages are at least PREIMAGE_MIN apart count as a collision.
IMAGE_TOL = 1e-7
PREIMAGE_MIN = 1e-3

# Leading rows of each map's sample that its analytic symplectic check
# reads (the smooth ones), and smooth rows of the cube sample that φ's
# finite-difference check reads.
SYMPLECTIC_ROWS = 10_000
FD_ROWS = 1000

# Pixel sizes of the figures, and the arcs per band outline of section.svg.
_FIGURE_SIZE = 400
_RASTER_FIGURE_SIZE = 512
_BAND_ARCS = 512

_FIXTURES = {
    "annulus": annulus_fixture,
    "annulus_with_slit": annulus_with_slit_fixture,
    "disk": disk_fixture,
}


def _fmt(x: float) -> str:
    """Locale-independent float with 17 significant digits."""
    return format(float(x), ".17g")


class _Phase:
    """Wall-clock phase timer; logs to stderr only (reports stay
    deterministic)."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        print(f"[cubewrap] {self.name}: {dt:.2f}s", file=sys.stderr)


def _check(name, passed, value, tolerance=None, **extra):
    entry = {"name": name, "passed": bool(passed), "value": value}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    entry.update(extra)
    return entry


def _image_collisions(X, Y, image_tol, preimage_min):
    """Every pair (a, b), a < b, with ‖Y[a] − Y[b]‖ < image_tol and
    ‖X[a] − X[b]‖ ≥ preimage_min, as an (m, 2) index array, together
    with the m image distances.

    Sorted sweep on the first image coordinate: each point is compared
    with its sorted successors at offset k = 1, 2, ..., and drops out
    once the gap in that coordinate reaches image_tol.  A pair closer
    than image_tol is closer than that in every coordinate, and every
    point sorted between its two members is too, so no close pair is
    missed, and each pair is tested at exactly one offset.  That holds
    for any order of tied keys, so the sort need not be stable.  The cost is
    O(n log n + P), P the pairs within image_tol in the first coordinate.
    """
    order = np.argsort(Y[:, 0])
    key = Y[order, 0]
    i = np.arange(len(key))
    pairs, dists = [np.empty((0, 2), dtype=np.intp)], [np.empty(0)]
    k = 1
    while i.size:
        i = i[i + k < len(key)]
        i = i[key[i + k] - key[i] < image_tol]
        a, b = order[i], order[i + k]
        dist = np.linalg.norm(Y[a] - Y[b], axis=1)
        hit = (dist < image_tol) & (np.linalg.norm(X[a] - X[b], axis=1) >= preimage_min)
        pairs.append(np.sort(np.stack([a[hit], b[hit]], axis=1), axis=1))
        dists.append(dist[hit])
        k += 1
    return np.concatenate(pairs), np.concatenate(dists)


def _worst_pair(X, pairs, dists):
    """The colliding pair whose images are closest, for a failing report."""
    j = int(np.argmin(dists))
    a, b = pairs[j]
    return {"preimages": [X[a].tolist(), X[b].tolist()], "image_distance": float(dists[j])}


def _injectivity_check(phi, samples, seed):
    """Collision scan of phi on `samples` uniform points X of the cube:
    the number of image pairs closer than IMAGE_TOL (strictly) whose
    preimages are at least PREIMAGE_MIN apart, their `_worst_pair` (None
    when there is none), and X with its images Y = phi(X).

    One sorted sweep on the first image coordinate (`_image_collisions`)
    compares each image only with the successors that lie within
    IMAGE_TOL of it in that coordinate.  Any pair closer than IMAGE_TOL
    is among them, so every close pair is tested, and tested once.
    """
    X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(samples, phi.dim))
    Y = phi.forward(X)
    pairs, dists = _image_collisions(X, Y, IMAGE_TOL, PREIMAGE_MIN)
    worst = _worst_pair(X, pairs, dists) if len(pairs) else None
    return len(pairs), worst, X, Y


def _symplectic_check(name, rep):
    """The check entry of a SymplecticReport; a failing one names the
    sampled point of largest defect."""
    extra = {} if rep.passed else {"worst_point": list(rep.worst_point)}
    return _check(name, rep.passed, rep.max_deviation, SYMPLECTIC_TOL, **extra)


def cmd_verify(args) -> int:
    if args.samples < MIN_MC_SAMPLES:
        raise ValueError(f"--samples must be at least {MIN_MC_SAMPLES}, got {args.samples}")
    config = EmbeddingConfig(n=args.n, c=args.c)
    phi = build_phi(config)
    psi = build_psi(config, a=1.0 / args.c)

    # One sample per map, each living only through its phase.  The cube
    # sample X, with Y = phi(X), serves containment, injectivity and the
    # tail check, and its first rows the symplectic checks.
    with _Phase("phi cube sample"):
        collisions, worst, X, Y = _injectivity_check(phi, args.samples, args.seed + 4)
        first = X[:SYMPLECTIC_ROWS]
        phi_analytic = _symplectic_check("phi_symplectic_analytic", check_symplectic(phi, first))
        Xs = first[phi.smooth_mask(first, SMOOTH_MARGIN)][:FD_ROWS]
        dev_fd = float(jacobian_defect(finite_difference_jacobian(phi.forward, Xs)).max())
        ok = phi.in_target_box(Y)
        contained = _check("phi_containment", bool(ok.all()), int(ok.sum()), args.samples)
        tail_id = bool(np.array_equal(Y[:, 4:], X[:, 4:]))
        del X, Y, ok, first, Xs

    with _Phase("psi ball sample"):
        Xb = psi.sample_domain(np.random.default_rng(args.seed + 3), args.samples)
        psi_analytic = _symplectic_check(
            "psi_symplectic_analytic", check_symplectic(psi, Xb[:SYMPLECTIC_ROWS])
        )
        Yb = psi.first_factor(Xb)
        del Xb
        in_disc = np.hypot(Yb[:, 0], Yb[:, 1]) < DISC_RADIUS
        del Yb

    extra = {"worst_pair": worst} if collisions else {}
    checks = [
        phi_analytic,
        _check("phi_symplectic_fd", dev_fd < 1e-4, dev_fd, 1e-4),
        psi_analytic,
        contained,
        _check("psi_first_factor_in_disc", bool(in_disc.all()), int(in_disc.sum()), args.samples),
        _check("phi_injectivity_collisions", collisions == 0, collisions, 0, **extra),
    ]

    with _Phase("image volume"):
        pts = np.random.default_rng(args.seed + 5).uniform(0.0, 1.0, size=(args.samples, phi.dim))
        pts[:, 3] *= args.c
        vol = float(phi.image_contains(pts).mean()) * args.c
        checks.append(_check("phi_image_volume_mc", abs(vol - 1.0) < 0.02, vol, 0.02))

    if args.n >= 3:
        checks.append(_check("trailing_coordinates_identity", tail_id, tail_id))

    return _finish(args, checks)


def _sections_csv(generic_z, area, mc_spots):
    """The CSV text, rows ending in \\r\\n: one row per generic z with z1,
    z2, the analytic area and, at the Monte Carlo spots, the estimate and
    its standard error.  Every value reads as `_fmt` writes it ('%.17g' is
    format's '.17g'), and all rows are formatted in one call."""
    mc = {(z1, z2): f"{_fmt(est)},{_fmt(se)}" for z1, z2, est, se in mc_spots}
    z1, z2 = generic_z[:, 0].tolist(), generic_z[:, 1].tolist()
    cells = [_fmt(area)] * (4 * len(z1))
    cells[0::4], cells[1::4] = z1, z2
    cells[3::4] = [mc.get(key, ",") for key in zip(z1, z2)]
    header = "z1,z2,analytic_area,mc_area,mc_stderr\r\n"
    return header + "%.17g,%.17g,%s,%s\r\n" * len(z1) % tuple(cells)


def cmd_sections(args) -> int:
    config = EmbeddingConfig(c=args.c)
    checks = []

    with _Phase("analytic grid"):
        fr = fubini_check(
            config,
            grid=args.grid,
            mc_spots=args.mc_spots,
            samples_per_spot=args.samples,
            seed=args.seed,
        )
    checks.append(
        _check("max_analytic_area_sharp", fr.max_area == 1.0 / args.c, fr.max_area, 1.0 / args.c)
    )
    checks.append(
        _check(
            "all_generic_areas_equal",
            fr.min_generic_area == fr.max_area == 1.0 / args.c,
            fr.min_generic_area,
        )
    )
    checks.append(
        _check(
            "fubini_integral_analytic",
            abs(fr.analytic_integral - 1.0) < 1e-12,
            fr.analytic_integral,
            1e-12,
        )
    )
    failed = [
        (abs(est - 1.0 / args.c) / se, z1, z2, est, se)
        for z1, z2, est, se in fr.mc_spots
        if abs(est - 1.0 / args.c) > 3.0 * se
    ]
    if fr.mc_spots:
        extra = {}
        if failed:
            pull, z1, z2, est, se = max(failed)
            extra = dict(worst_z=[z1, z2], worst_mc_area=est, worst_stderr=se, worst_pull=pull)
        checks.append(_check("mc_areas_within_3_sigma", not failed, len(fr.mc_spots), **extra))
        checks.append(
            _check(
                "fubini_integral_mc",
                abs(fr.mc_integral - 1.0) < 0.02,
                fr.mc_integral,
                0.02,
            )
        )
    # Puncture section, tested separately from the generic grid.
    sd0 = section_of_phi(config.z0, config)
    checks.append(_check("puncture_section_empty", sd0.status == "puncture", sd0.status))

    files = {}
    if args.out:
        csv = _sections_csv(z_grid(config, args.grid)[0], 1.0 / args.c, fr.mc_spots)
        files[os.path.join(args.out, "sections.csv")] = csv

    return _finish(args, checks, files, fubini=asdict(fr))


def cmd_topology(args) -> int:
    if args.a is not None and not args.hull:
        raise ValueError("--a sets the bound of --hull and needs it")
    if args.a is not None and args.c is not None:
        raise ValueError("--hull --a sets c = 1/a; --c contradicts it")
    if args.a is not None:  # ψ runs at c = 1/a, and the spec echoes that c
        args.c = psi_config(EmbeddingConfig(), args.a).c
    args.c = DEFAULT_C if args.c is None else args.c
    config = EmbeddingConfig(c=args.c)
    checks = []

    if args.fixture:
        count = complement_components(_FIXTURES[args.fixture](args.N))
        expected = 1 if args.fixture != "annulus" else 2
        checks.append(
            _check(f"fixture_{args.fixture}_components", count == expected, count, expected)
        )
        return _finish(args, checks)

    if args.hull:
        a = args.a if args.a is not None else 1.0 / args.c
        with _Phase("bounded hull"):
            hr = check_hull_bound(a, config, grid=args.grid, N=args.N)
        extra, files = {}, {}
        if not hr.all_within_bound:
            z1, z2, area = hr.worst
            extra = {"worst_z": [z1, z2], "worst_hull_area": area}
            if args.out:
                r = bounded_hull(rasterize_psi_section((z1, z2), config, a, args.N))
                files[os.path.join(args.out, f"hull_over_bound_z_{z1!r}_{z2!r}.pgm")] = r.pgm()
        checks.append(
            _check(
                "hull_areas_bounded", hr.all_within_bound, hr.max_hull_area, a + hr.tolerance,
                **extra,
            )
        )
        checks.append(
            _check("hull_equals_section", hr.hull_equals_section, hr.hull_equals_section)
        )
        hull = {k: v for k, v in asdict(hr).items() if k != "worst"}
        return _finish(args, checks, files, hull=hull)

    with _Phase("connectivity"):
        rng = np.random.default_rng(args.seed)
        w, h = args.grid
        conn_reports = []
        first_bad = None
        generic_z, _ = z_grid(config, (w, h))
        idx = rng.choice(len(generic_z), size=min(w * h, len(generic_z)), replace=False)
        for i in idx:
            ok, rep = check_complement_connected(generic_z[i], config, args.N)
            conn_reports.append(asdict(rep))
            if not ok and first_bad is None:
                first_bad = rep
    extra, files = {}, {}
    if first_bad is not None:
        extra = {
            "first_disconnected_z": list(first_bad.z),
            "first_disconnected_components": first_bad.components,
        }
        if args.out:
            name = "_".join(repr(float(v)) for v in first_bad.z)
            r = rasterize_section(first_bad.z, config, args.N)
            files[os.path.join(args.out, f"disconnected_z_{name}.pgm")] = r.pgm()
    checks.append(
        _check("complement_connected", first_bad is None, len(conn_reports), **extra)
    )
    neg = complement_components(annulus_fixture())
    checks.append(_check("annulus_negative_control", neg == 2, neg, 2))
    return _finish(args, checks, files, connectivity=conn_reports)


# ---------------------------------------------------------------------------
# SVG output


def _svg(size, background, body):
    """A size × size SVG figure: the background, the body's elements in
    order, and a border on top."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n<rect width="{size}" height="{size}" fill="{background}"/>\n'
        + "".join(body)
        + f'<rect width="{size}" height="{size}" fill="none" stroke="#222"/>\n</svg>\n'
    )


def _polygon(points, fill, opacity="1", stroke="none"):
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return (
        f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
        f'stroke="{stroke}"/>\n'
    )


def _polyline(points, stroke, width="1"):
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width}"/>\n'


def _ribbon_svg(sd):
    """The product set on the unrolled cylinder: angle horizontal, height
    vertical, with the removed angle drawn as a slit line."""
    size = _FIGURE_SIZE
    body = []
    for a, b in sd.W.intervals:
        y0, y1 = size * (1 - b), size * (1 - a)
        body.append(
            f'<rect x="0" y="{y0:.3f}" width="{size}" height="{y1 - y0:.3f}" '
            f'fill="#d94141" fill-opacity="0.85"/>\n'
        )
    x = sd.slit_angle * size
    body.append(_polyline([(x, 0), (x, size)], "#2b4c9b", "2"))
    return _svg(size, "#dde9f5", body)


def _section_svg(sd):
    """The section in the square: annular band(s) with the radial slit."""
    size, arcs = _FIGURE_SIZE, _BAND_ARCS
    lam = make_lambda()
    body = []
    if sd.status == "generic":
        vp = sd.slit_angle
        for a, b in sd.W.intervals:
            qs = vp + (np.arange(1, arcs) / arcs)
            outer = lam.forward(np.stack([qs, np.full_like(qs, a + 1e-9)], axis=-1))
            inner = lam.forward(np.stack([qs, np.full_like(qs, b - 1e-9)], axis=-1))
            ring = np.concatenate([outer, inner[::-1]])
            pts = [(x * size, (1 - y) * size) for x, y in ring]
            body.append(_polygon(pts, "#d94141", "0.85"))
        slit = [lam.forward((vp, 0.0)), (0.5, 0.5)]
        body.append(
            _polyline([(x * size, (1 - y) * size) for x, y in slit], "#2b4c9b", "1.5")
        )
    else:
        body.append(
            f'<text x="{size / 2:.0f}" y="{size / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif">empty section</text>\n'
        )
    return _svg(size, "#ffffff", body)


def _raster_svg(r):
    """Run-length rectangles of the occupancy grid."""
    size = _RASTER_FIGURE_SIZE
    s = size / r.n
    body = [
        f'<rect x="{i * s:.3f}" y="{(r.n - end) * s:.3f}" '
        f'width="{s:.3f}" height="{(end - j) * s:.3f}" fill="#d94141"/>\n'
        for i, j, end in zip(*(x.tolist() for x in r.row_runs()))
    ]
    return _svg(size, "#ffffff", body)


def cmd_plot(args) -> int:
    config = EmbeddingConfig(c=args.c)
    if args.z is not None and len(args.z) != 2:
        raise ValueError(f"--z takes exactly two values z1,z2, got {len(args.z)}")
    z = args.z if args.z is not None else (0.3, 0.7 * args.c)
    sd = section_of_phi(z, config)
    r = rasterize_section(sd, config, args.N)
    outdir = args.out or "."
    files = {
        os.path.join(outdir, name): content
        for name, content in [
            ("ribbon.svg", _ribbon_svg(sd) if sd.status == "generic" else _section_svg(sd)),
            ("section.svg", _section_svg(sd)),
            ("raster.svg", _raster_svg(r)),
            ("raster.pgm", r.pgm()),
        ]
    }
    checks = [_check("figures_emitted", True, len(files))]
    return _finish(args, checks, files)


# ---------------------------------------------------------------------------
# Plumbing


def _spec_echo(args):
    """Every key of schema "1"; a flag the subcommand lacks echoes null
    ([] for grid, false for hull)."""
    return {
        "command": args.command,
        "n": getattr(args, "n", None),
        "c": args.c,
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "N": getattr(args, "N", None),
        "grid": list(getattr(args, "grid", ()) or ()),
        "z": list(args.z) if getattr(args, "z", None) is not None else None,
        "a": getattr(args, "a", None),
        "hull": getattr(args, "hull", False),
        "fixture": getattr(args, "fixture", None),
        "out": args.out,
    }


def _write_all(files):
    """Write every file (path -> text or bytes) as bytes (text as UTF-8)
    to a temporary name beside its target, making missing directories.
    After every write, move each old target but a directory aside, rename
    the new file into place, and at the end remove the old.  On an
    OSError, undo all this (old targets back) and re-raise."""
    tmp, old = f".{os.getpid()}.tmp", f".{os.getpid()}.old"
    undo, moved = [], []
    try:
        for path, content in files.items():
            missing, parent = [], os.path.dirname(path)
            while parent and not os.path.exists(parent):
                missing.append(parent)
                parent = os.path.dirname(parent)
            for d in reversed(missing):
                os.mkdir(d)
                undo.append((os.rmdir, d))
            with open(path + tmp, "xb") as fh:
                undo.append((os.remove, path + tmp))
                fh.write(content.encode() if isinstance(content, str) else content)
        for path in files:
            if not os.path.lexists(path):
                undo.append((os.remove, path))
            elif not os.path.isdir(path):
                os.replace(path, path + old)
                undo.append((os.replace, path + old, path))
                moved.append(path + old)
            os.replace(path + tmp, path)
    except OSError:
        for action, *paths in reversed(undo):
            with contextlib.suppress(OSError):
                action(*paths)
        raise
    for path in moved:
        with contextlib.suppress(OSError):
            os.remove(path)


def _finish(args, checks, files=(), **sections) -> int:
    """The one writer: the report of `checks` and `sections`, listing
    `files` (path -> text or bytes) as its artifacts.  Writes the files,
    then with --out `<command>_report.json` (`_write_all`); an OSError
    is exit 3 with nothing printed.  Else prints the report
    and returns the checks' verdict."""
    files = dict(files)
    report = {
        "schema": SCHEMA,
        "tool": "cubewrap",
        "version": __version__,
        "spec": _spec_echo(args),
        "seed": getattr(args, "seed", None),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "artifacts": list(files),
        **sections,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        files[os.path.join(args.out, f"{args.command}_report.json")] = text
    try:
        _write_all(files)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _grid_arg(s):
    """WxH, two integers; anything else is a usage error (exit 2) that
    names the flag and its form."""
    try:
        w, h = s.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be WxH with integer W and H, got {s!r}") from None


def _z_arg(s):
    """z1,z2 as numbers; anything else, or a non-finite value, is a usage
    error (exit 2): JSON cannot echo a non-finite one."""
    try:
        z = tuple(float(v) for v in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be numbers z1,z2, got {s!r}") from None
    if not all(map(math.isfinite, z)):
        raise argparse.ArgumentTypeError(f"must be finite, got {s!r}")
    return z


def _seed_arg(s):
    """A seed: a non-negative integer; anything else is a usage error
    (exit 2) that names --seed."""
    try:
        seed = int(s)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {s!r}")
    return seed


def _count_arg(s):
    """A count such as 1e5; anything else, or a non-finite one, is a
    usage error (exit 2)."""
    try:
        x = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number such as 1e5, got {s!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {s!r}")
    return int(x)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubewrap",
        description="Verify the cube-into-polydisc symplectic embedding.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, help):
        """A subparser with the flags every subcommand reads."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--c", type=float, default=DEFAULT_C)
        sp.add_argument("--out", default=None)
        return sp

    sp = subcommand("verify", "symplecticity, injectivity, containment")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--seed", type=_seed_arg, default=0)
    sp.add_argument("--samples", type=_count_arg, default=1_000_000)

    sp = subcommand("sections", "section areas, sharpness, Fubini")
    sp.add_argument("--seed", type=_seed_arg, default=0)
    sp.add_argument("--samples", type=_count_arg, default=1_000_000)
    sp.add_argument("--grid", type=_grid_arg, default=(50, 100))
    sp.add_argument("--mc-spots", type=int, default=20)

    sp = subcommand("topology", "complement connectivity, bounded hulls")
    sp.add_argument("--seed", type=_seed_arg, default=0)
    sp.add_argument("--N", type=int, default=512)
    sp.add_argument("--grid", type=_grid_arg, default=(10, 10))
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--hull", action="store_true")
    mode.add_argument("--fixture", choices=sorted(_FIXTURES), default=None)
    sp.add_argument("--a", type=float, default=None)
    # None until cmd_topology tells a given --c from the default: --hull
    # --a fixes ψ's c = 1/a, so a --c beside it is a usage error.
    sp.set_defaults(c=None)

    sp = subcommand("plot", "SVG figures of ribbon, section, raster")
    sp.add_argument("--z", type=_z_arg, default=None)
    sp.add_argument("--N", type=int, default=256)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # By name at call time, so a wrapper set on the module applies.
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
