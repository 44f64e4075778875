"""End-to-end acceptance run.

Each test covers one acceptance criterion at full sample counts and the
stated tolerances, and prints a single PASS/FAIL line to the terminal
(visible even under pytest capture).  The whole module is slow by
design; run it with `pytest tests/test_acceptance.py` when a full
verification sweep is wanted.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from composed_maps import chi_jacobian, composed_lambda, composed_lambda_prime
from cubewrap.cli import IMAGE_TOL, PREIMAGE_MIN, _injectivity_check
from cubewrap.maps import (
    DISC_RADIUS,
    SMOOTH_MARGIN,
    ChiMap,
    EmbeddingConfig,
    KappaMap,
    build_phi,
    build_psi,
    check_symplectic,
    finite_difference_jacobian,
    make_lambda,
    make_lambda_prime,
    symplectic_matrix,
)
from cubewrap.quotient import preimage_affine_mod, reduce
from cubewrap.sections import fubini_check, section_area_mc, z_grid
from cubewrap.topology import (
    annulus_fixture,
    check_complement_connected,
    check_hull_bound,
    complement_components,
)
from slit_path import slit_path_witness

C_VALUES = (1.0, 1.5, 2.0, math.pi)


def report(capsys, num, desc, passed, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_01_sharp_section_area(capsys):
    t0 = time.perf_counter()
    worst_pull = 0.0
    ok = True
    for c in C_VALUES:
        cfg = EmbeddingConfig(n=2, c=c)
        fr = fubini_check(cfg, grid=(50, 100), mc_spots=20, samples_per_spot=1_000_000, seed=0)
        ok &= fr.max_area == 1.0 / c and fr.min_generic_area == 1.0 / c
        for _, _, est, se in fr.mc_spots:
            pull = abs(est - 1.0 / c) / se
            worst_pull = max(worst_pull, pull)
            ok &= pull < 3.0
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(
        capsys, 1,
        "analytic section area = 1/c on 50x100 grids, 80 MC spots within 3 sigma",
        ok, f"worst pull {worst_pull:.2f} sigma, {dt:.0f}s",
    )


def test_criterion_02_sharpness_floor_and_fubini(capsys):
    ok = True
    worst = 0.0
    for c in C_VALUES:
        cfg = EmbeddingConfig(n=2, c=c)
        fr = fubini_check(cfg, grid=(50, 100), mc_spots=10, samples_per_spot=200_000, seed=1)
        ok &= fr.max_area >= 1.0 / c and fr.max_area == 1.0 / c
        ok &= abs(fr.analytic_integral - 1.0) < 1e-12
        ok &= abs(fr.mc_integral - 1.0) < 0.02
        worst = max(worst, abs(fr.mc_integral - 1.0))
    report(
        capsys, 2,
        "max area attains 1/c, analytic Fubini integral 1 exactly, MC within 2%",
        ok, f"worst MC integral error {worst:.4f}",
    )


def test_criterion_03_complement_connectivity(capsys):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for c in C_VALUES:
        cfg = EmbeddingConfig(n=2, c=c)
        generic_z, _ = z_grid(cfg, (10, 10))
        assert len(generic_z) >= 100
        for N in (256, 512, 1024):
            for z in generic_z[:100]:
                connected, _ = check_complement_connected(z, cfg, N)
                ok &= connected
                checked += 1
    for N in (256, 512, 1024):
        ok &= complement_components(annulus_fixture(N)) == 2
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    report(
        capsys, 3,
        "single complement component for 100 z per c at N=256/512/1024, annulus control",
        ok, f"{checked} rasters, {dt:.0f}s",
    )


def test_criterion_04_slit_witness(capsys):
    ok = True
    rng = np.random.default_rng(2)
    tested = 0
    for c in C_VALUES:
        cfg = EmbeddingConfig(n=2, c=c)
        for _ in range(5):
            z = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95) * c)
            pts, outside = slit_path_witness(z, cfg, steps=1000)
            ok &= outside and len(pts) == 1000
            tested += 1
    report(
        capsys, 4,
        "1000 slit-path samples per z all avoid the section",
        ok, f"{tested} paths, zero exceptions",
    )


def test_criterion_05_symplecticity(capsys):
    ok = True
    worst_analytic = 0.0
    worst_fd = 0.0
    cases = [
        build_phi(EmbeddingConfig(n=2, c=2.0)),
        build_phi(EmbeddingConfig(n=3, c=2.0)),
        build_psi(EmbeddingConfig(n=2, c=2.0), a=0.5),
    ]
    for pm in cases:
        rep = check_symplectic(
            pm, pm.sample_domain(np.random.default_rng(0), 10_000, margin=SMOOTH_MARGIN)
        )
        worst_analytic = max(worst_analytic, rep.max_deviation)
        ok &= rep.passed
        rng = np.random.default_rng(1)
        X = pm.sample_domain(rng, 10_000, margin=1e-4)
        J = finite_difference_jacobian(pm.forward, X, step=1e-6)
        Om = symplectic_matrix(pm.dim // 2)
        dev = float(np.abs(np.swapaxes(J, -1, -2) @ Om @ J - Om).max())
        worst_fd = max(worst_fd, dev)
        ok &= dev < 1e-4
    report(
        capsys, 5,
        "symplectic defect < 1e-8 analytic / < 1e-4 FD at 10^4 samples (phi n=2,3 and psi)",
        ok, f"analytic {worst_analytic:.2e}, fd {worst_fd:.2e}",
    )


def test_criterion_06_injectivity(capsys):
    phi = build_phi(EmbeddingConfig(n=2, c=2.0))
    # the criterion's witness: the check's image and preimage distances
    assert (IMAGE_TOL, PREIMAGE_MIN) == (1e-7, 1e-3)
    collisions, worst, _, _ = _injectivity_check(phi, 1_000_000, seed=3)
    report(
        capsys, 6,
        "no image pair within 1e-7 among 10^6 samples with preimages >= 1e-3 apart",
        collisions == 0, f"{collisions} collisions, worst pair {worst}",
    )


def test_criterion_07_containment(capsys):
    cfg = EmbeddingConfig(n=2, c=2.0)
    phi = build_phi(cfg)
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 1.0, size=(1_000_000, phi.dim))
    Y = phi.forward(X)
    in_poly = (
        np.all((Y[:, :3] > 0) & (Y[:, :3] < 1), axis=1)
        & (Y[:, 3] > 0)
        & (Y[:, 3] < cfg.c)
    )
    psi = build_psi(cfg, a=0.5)
    Xb = psi.sample_domain(np.random.default_rng(5), 1_000_000)
    Yb = psi.forward(Xb)
    in_disc = np.hypot(Yb[:, 0], Yb[:, 1]) < DISC_RADIUS
    ok = bool(in_poly.all()) and bool(in_disc.all())
    report(
        capsys, 7,
        "10^6/10^6 phi images in the open polydisc; 10^6/10^6 psi first factors in the disc",
        ok, f"{int(in_poly.sum())} and {int(in_disc.sum())} inside",
    )


def test_criterion_08_bounded_hull(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = ""
    cfg = EmbeddingConfig(n=2, c=2.0)
    for a in (1.0, 0.5, 0.25):
        hr = check_hull_bound(a, cfg, grid=(20, 20), N=1024)
        ok &= hr.all_within_bound and hr.hull_equals_section
        worst += f" a={a}: max hull {hr.max_hull_area:.4f} <= {a}+{hr.tolerance:.4f};"
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(
        capsys, 8,
        "hull area <= a + 4*perimeter/N and hull == section on 20x20 grids at N=1024",
        ok, f"{worst.strip(' ;')}, {dt:.0f}s",
    )


def test_criterion_09_primitive_maps(capsys):
    rng = np.random.default_rng(6)
    n_pts = 10_000
    ok = True
    worst_det = 0.0
    worst_rt = 0.0

    def disc_points(radius, count):
        th = rng.uniform(0, 2 * math.pi, count)
        rr = radius * np.sqrt(rng.uniform(0.02, 0.98, count))
        pts = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=-1)
        return pts

    # chi: cylinder to punctured disc, its Jacobian through chi = kappa^-1 o lambda
    chi = ChiMap()
    qp = np.stack([rng.uniform(0, 1, n_pts), rng.uniform(0.01, 0.99, n_pts)], axis=-1)
    dets = np.linalg.det(chi_jacobian(qp))
    worst_det = max(worst_det, float(np.abs(dets - 1).max()))
    back = chi.inverse(chi.forward(qp))
    rt = np.abs(np.mod(back[:, 0] - qp[:, 0] + 0.5, 1.0) - 0.5).max()
    rt = max(float(rt), float(np.abs(back[:, 1] - qp[:, 1]).max()))
    worst_rt = max(worst_rt, rt)

    # kappa: disc to square (off the diagonal rays)
    kappa = KappaMap()
    pts = disc_points(DISC_RADIUS, 4 * n_pts)
    pts = pts[kappa.singular_distance(pts) > 1e-3][:n_pts]
    dets = np.linalg.det(kappa.jacobian(pts))
    worst_det = max(worst_det, float(np.abs(dets - 1).max()))
    worst_rt = max(worst_rt, float(np.abs(kappa.inverse(kappa.forward(pts)) - pts).max()))

    # lambda (periodic first coordinate) and lambda-prime (periodic
    # second coordinate of period c), via their cylinder coordinates,
    # away from the diagonals of their compositions
    lam_cases = [
        (make_lambda(), composed_lambda(), 0, 1.0),
        (make_lambda_prime(2.0), composed_lambda_prime(2.0), 1, 2.0),
    ]
    for pm, composed, periodic_axis, period in lam_cases:
        cols = [None, None]
        cols[periodic_axis] = rng.uniform(0, period, 4 * n_pts)
        cols[1 - periodic_axis] = rng.uniform(0.01, 0.99, 4 * n_pts)
        u = np.stack(cols, axis=-1)
        u = u[composed.singular_distance(u) > 1e-3][:n_pts]
        dets = np.linalg.det(pm.jacobian(u))
        worst_det = max(worst_det, float(np.abs(dets - 1).max()))
        back = pm.inverse(pm.forward(u))
        diff = back - u
        diff[:, periodic_axis] = np.mod(
            diff[:, periodic_axis] + period / 2, period
        ) - period / 2
        worst_rt = max(worst_rt, float(np.abs(diff).max()))

    ok = worst_det < 1e-9 and worst_rt < 1e-9
    report(
        capsys, 9,
        "|det-1| < 1e-9 (chi, kappa, lambda, lambda'), round trips < 1e-9",
        ok, f"det {worst_det:.2e}, round trip {worst_rt:.2e}",
    )


def test_criterion_10_w_set_oracle(capsys):
    rng = np.random.default_rng(7)
    step = 1e-3
    ok = True
    worst_len = 0.0
    for _ in range(1000):
        c = rng.uniform(1, 10)
        t = rng.uniform(0, c)
        w = preimage_affine_mod(reduce(t, c), c)
        worst_len = max(worst_len, abs(w.total_length - 1.0 / c))
        ok &= abs(w.total_length - 1.0 / c) < 1e-12
        P1 = np.arange(1, 1000) * step
        s = np.mod(t - c * P1, c)
        p2g = np.clip(np.round(s / step) * step, step, 1.0 - step)
        oracle = np.abs(s - p2g) <= step / 2 + 1e-12
        analytic = w.contains_many(P1)
        # disagreements only within one grid step of an interval endpoint
        near_edge = np.zeros_like(analytic)
        for lo, hi in w.intervals:
            near_edge |= (np.abs(P1 - lo) <= step + 1e-12) | (np.abs(P1 - hi) <= step + 1e-12)
        ok &= not np.any((analytic != oracle) & ~near_edge)
    report(
        capsys, 10,
        "W matches the brute-force congruence grid for 1000 random cases, length = 1/c",
        ok, f"worst length error {worst_len:.2e}",
    )


def test_criterion_11_determinism(capsys, tmp_path, cli_env):
    def run(tag, argv):
        cwd = tmp_path / tag
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "cubewrap.cli"] + argv + ["--out", "out"],
            capture_output=True,
            cwd=cwd,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return cwd / "out", proc.stdout

    ok = True
    sections = ["sections", "--grid", "10x20", "--mc-spots", "3", "--samples", "50000", "--seed", "9"]
    d1, s1 = run("s1", sections)
    d2, s2 = run("s2", sections)
    ok &= s1 == s2
    ok &= (d1 / "sections_report.json").read_bytes() == (d2 / "sections_report.json").read_bytes()
    ok &= (d1 / "sections.csv").read_bytes() == (d2 / "sections.csv").read_bytes()

    plot = ["plot", "--z", "0.3,0.7", "--N", "256"]
    p1, _ = run("p1", plot)
    p2, _ = run("p2", plot)
    for name in ("ribbon.svg", "section.svg", "raster.svg", "raster.pgm"):
        ok &= (p1 / name).read_bytes() == (p2 / name).read_bytes()

    verify = ["verify", "--samples", "50000", "--seed", "9"]
    v1, o1 = run("v1", verify)
    v2, o2 = run("v2", verify)
    ok &= o1 == o2
    ok &= (v1 / "verify_report.json").read_bytes() == (v2 / "verify_report.json").read_bytes()
    report(
        capsys, 11,
        "repeated runs with identical spec+seed emit byte-identical JSON/CSV/SVG/PGM",
        ok,
    )
