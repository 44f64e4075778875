import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cubewrap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _image_collisions,
    build_parser,
    main,
)

FAST_VERIFY = ["verify", "--samples", "20000"]
FAST_SECTIONS = ["sections", "--grid", "10x20", "--mc-spots", "2", "--samples", "20000"]
FAST_TOPOLOGY = ["topology", "--grid", "2x2", "--N", "256"]


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_verify_ok(self, capsys):
        code, out = run_main(FAST_VERIFY, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] and doc["schema"] == "1"

    def test_usage_error_bad_flag(self, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "cubewrap.cli", "verify", "--bogus"],
            capture_output=True,
            env=cli_env,
        )
        assert proc.returncode == EXIT_USAGE

    def test_usage_error_missing_subcommand(self, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "cubewrap.cli"], capture_output=True, env=cli_env
        )
        assert proc.returncode == EXIT_USAGE

    def test_no_format_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "json"])
        assert exc.value.code == EXIT_USAGE
        code, out = run_main(FAST_VERIFY, capsys)
        assert "format" not in json.loads(out)["spec"]

    @pytest.mark.parametrize("samples", ["0", "9999"])
    def test_usage_error_too_few_samples(self, capsys, samples):
        code = main(["verify", "--samples", samples])
        assert code == EXIT_USAGE
        assert "--samples must be at least 10000" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["inf", "1e400", "nan"])
    @pytest.mark.parametrize("command", ["verify", "sections"])
    def test_usage_error_non_finite_samples(self, cli_env, command, samples):
        proc = subprocess.run(
            [sys.executable, "-m", "cubewrap.cli", command, "--samples", samples],
            capture_output=True,
            env=cli_env,
        )
        assert proc.returncode == EXIT_USAGE
        assert b"Traceback" not in proc.stderr
        assert b"argument --samples" in proc.stderr

    @pytest.mark.parametrize("seed", ["-1", "-2", "x"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["sections"], ["topology"], ["topology", "--hull"]], ids="".join
    )
    def test_usage_error_seed_not_a_non_negative_integer(self, capsys, argv, seed):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["topology", "--grid", "3"], "argument --grid: must be WxH with integer W and H, got '3'"),
            (["sections", "--grid", "2x3x4"], "argument --grid: must be WxH with integer W and H, got '2x3x4'"),
            (["topology", "--hull", "--grid", "ax2"], "argument --grid: must be WxH with integer W and H, got 'ax2'"),
            (["verify", "--samples", "x"], "argument --samples: must be a number such as 1e5, got 'x'"),
            (["sections", "--samples", "inf"], "argument --samples: must be finite, got 'inf'"),
            (["plot", "--z", "0.3,x"], "argument --z: must be numbers z1,z2, got '0.3,x'"),
        ],
    )
    def test_usage_error_names_the_flag_and_its_rule(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert message in captured.err and "_arg" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sections", "--c", "3", "--grid", "1x1"],
            ["sections", "--grid", "1x1"],
            ["topology", "--hull", "--grid", "1x1"],
            ["topology", "--grid", "1x1"],
            ["topology", "--hull", "--a", "0.25", "--grid", "1x1"],
        ],
    )
    def test_usage_error_grid_without_generic_cell(self, capsys, argv):
        # at 1x1 the only cell centre is the puncture z0, at any c
        code = main(argv)
        assert code == EXIT_USAGE
        assert f"z grid {argv[-1]} has no generic cell" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0x5", "-1x5", "5x0"])
    @pytest.mark.parametrize(
        "argv", [["sections"], ["topology"], ["topology", "--hull"]], ids="".join
    )
    def test_usage_error_grid_not_positive(self, capsys, argv, grid):
        code = main(argv + [f"--grid={grid}"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"grid sizes must be positive, got {grid}" in captured.err

    def test_usage_error_negative_mc_spots(self, capsys):
        code = main(["sections", "--grid", "5x10", "--mc-spots", "-3", "--samples", "20000"])
        assert code == EXIT_USAGE
        assert "mc_spots must be non-negative, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--N", "256"],
            ["verify", "--grid", "3x3"],
            ["verify", "--z", "0.3,0.7"],
            ["sections", "--N", "256"],
            ["sections", "--z", "0.3,0.7"],
            ["topology", "--samples", "20000"],
            ["topology", "--z", "0.3,0.7"],
            ["plot", "--samples", "20000"],
            ["plot", "--grid", "3x3"],
            ["plot", "--seed", "9"],
            ["sections", "--n", "3"],
            ["topology", "--n", "3"],
            ["plot", "--n", "3"],
        ],
        ids=lambda argv: "".join(argv[:2]),
    )
    def test_usage_error_flag_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_environment_sets_no_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBEWRAP_C", "3")
        code, out = run_main(FAST_VERIFY, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["spec"]["c"] == 2.0

    def test_config_error_bad_c(self, capsys):
        code, _ = run_main(["verify", "--c", "0.5", "--samples", "20000"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--c", "inf", "--samples", "20000"],
            ["sections", "--c", "1e309", "--grid", "10x20", "--mc-spots", "2"],
            ["topology", "--c", "inf", "--N", "256", "--grid", "1x2"],
            ["topology", "--hull", "--a", "5e-324", "--N", "256", "--grid", "1x2"],
            ["plot", "--c", "1e309"],
        ],
        ids=lambda argv: "".join(argv[:3]),
    )
    def test_usage_error_c_not_finite(self, capsys, tmp_path, argv):
        # 1e309 parses to inf, and --a 5e-324 makes the ball's c = 1/a inf.
        code = main(argv + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "c must be finite and >= 1, got inf" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            FAST_VERIFY,
            ["sections", "--grid", "10x20", "--mc-spots", "0"],
            FAST_TOPOLOGY,
            ["topology", "--hull", "--grid", "1x2", "--N", "256"],
            ["topology", "--fixture", "annulus", "--N", "64"],
            ["plot", "--N", "64"],
        ],
        ids=["verify", "sections", "topology", "hull", "fixture", "plot"],
    )
    def test_io_error_under_a_regular_file(self, capsys, tmp_path, argv):
        """An --out below a regular file cannot be made: exit 3, the
        error on stderr, no report on stdout."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(argv + ["--out", str(blocker / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_IO and captured.out == ""
        assert "I/O error: [Errno 20] Not a directory" in captured.err
        assert blocker.read_text() == ""

    def test_io_error_on_one_file_leaves_nothing_new(self, capsys, tmp_path):
        """A target that is a directory fails plot's third file: exit 3,
        and neither the files before it nor any temporary file is left."""
        (tmp_path / "raster.svg").mkdir()
        code = main(["plot", "--N", "64", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_IO and captured.out == ""
        assert "I/O error: [Errno 21] Is a directory" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["raster.svg"]
        assert list((tmp_path / "raster.svg").iterdir()) == []

    def test_io_error_keeps_the_targets_that_existed(self, capsys, tmp_path):
        """An old ribbon.svg is moved aside before plot's renames and put
        back when raster.svg, a directory, fails: exit 3 leaves the files
        as they were.  A run that succeeds replaces it and leaves nothing
        moved aside."""
        (tmp_path / "ribbon.svg").write_bytes(b"old")
        (tmp_path / "raster.svg").mkdir()
        argv = ["plot", "--N", "64", "--out", str(tmp_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_IO and captured.out == ""
        assert "I/O error: [Errno 21] Is a directory" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raster.svg", "ribbon.svg"]
        assert (tmp_path / "ribbon.svg").read_bytes() == b"old"
        assert list((tmp_path / "raster.svg").iterdir()) == []
        (tmp_path / "raster.svg").rmdir()
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        names = ["plot_report.json", "raster.pgm", "raster.svg", "ribbon.svg", "section.svg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert (tmp_path / "ribbon.svg").read_bytes().startswith(b"<svg")

    def test_io_error_removes_the_directories_it_made(self, capsys, tmp_path, monkeypatch):
        import cubewrap.cli as climod

        def full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(climod.os, "replace", full)
        code = main(["plot", "--N", "64", "--out", str(tmp_path / "a" / "b")])
        captured = capsys.readouterr()
        assert code == EXIT_IO and captured.out == ""
        assert "No space left on device" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_check_failure_exit_code(self, capsys, monkeypatch):
        # sabotage the sharpness check by monkeypatching the analytic area
        import cubewrap.cli as climod

        real = climod.fubini_check

        def broken(config, **kw):
            fr = real(config, **kw)
            return type(fr)(**{**fr.__dict__, "max_area": fr.max_area * 0.9})

        monkeypatch.setattr(climod, "fubini_check", broken)
        code, out = run_main(
            ["sections", "--grid", "5x10", "--mc-spots", "0", "--samples", "20000"],
            capsys,
        )
        assert code == EXIT_CHECK_FAILED
        assert not json.loads(out)["passed"]


class TestVerify:
    def test_report_contents(self, capsys):
        code, out = run_main(FAST_VERIFY + ["--seed", "3"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        names = {c["name"] for c in doc["checks"]}
        assert {
            "phi_symplectic_analytic",
            "phi_symplectic_fd",
            "psi_symplectic_analytic",
            "phi_containment",
            "phi_injectivity_collisions",
            "phi_image_volume_mc",
        } <= names
        assert doc["seed"] == 3 and doc["spec"]["c"] == 2.0
        (inj,) = [c for c in doc["checks"] if c["name"] == "phi_injectivity_collisions"]
        assert "worst_pair" not in inj

    def test_n3_adds_tail_check(self, capsys):
        code, out = run_main(FAST_VERIFY + ["--n", "3"], capsys)
        assert code == EXIT_OK
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert "trailing_coordinates_identity" in names

    def test_n4_passes_every_check(self, capsys):
        code, out = run_main(["verify", "--n", "4", "--samples", "50000"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK, [c["name"] for c in doc["checks"] if not c["passed"]]
        assert all(c["passed"] for c in doc["checks"])
        assert "trailing_coordinates_identity" in {c["name"] for c in doc["checks"]}

    def test_failing_symplectic_check_names_worst_point(self, capsys, monkeypatch):
        import cubewrap.cli as climod
        import cubewrap.maps as mapsmod

        _, out = run_main(FAST_VERIFY, capsys)
        passing = {c["name"]: c for c in json.loads(out)["checks"]}
        # A tolerance of 0 fails both analytic checks: no sampled defect is
        # exactly 0.  check_symplectic gates at it, and the report echoes it.
        monkeypatch.setattr(mapsmod, "SYMPLECTIC_TOL", 0.0)
        monkeypatch.setattr(climod, "SYMPLECTIC_TOL", 0.0)
        code, out = run_main(FAST_VERIFY, capsys)
        assert code == EXIT_CHECK_FAILED
        failing = {c["name"]: c for c in json.loads(out)["checks"]}
        cfg = climod.EmbeddingConfig(n=2, c=2.0)
        maps = {
            "phi_symplectic_analytic": climod.build_phi(cfg),
            "psi_symplectic_analytic": climod.build_psi(cfg, a=0.5),
        }
        for name, pm in maps.items():
            entry = failing[name]
            assert not entry["passed"] and entry["tolerance"] == 0.0
            assert "worst_point" not in passing[name]
            assert len(entry["worst_point"]) == 4
            defect = mapsmod.jacobian_defect(pm.jacobian(np.array([entry["worst_point"]])))[0]
            assert entry["value"] == passing[name]["value"]
            assert defect == pytest.approx(entry["value"], rel=1e-9, abs=0)
        for name in ("phi_symplectic_fd", "phi_image_volume_mc"):
            assert "worst_point" not in failing[name]

    def test_chi_outside_the_disc_fails_the_first_factor_check(self, capsys, monkeypatch):
        """ψ's first factor is χ of the first two κ images: a χ planted to
        land 1.5 times too far out puts first factors outside the disc,
        and only psi_first_factor_in_disc fails."""
        from cubewrap.maps import ChiMap

        real = ChiMap.forward
        monkeypatch.setattr(ChiMap, "forward", lambda chi, pts: 1.5 * real(chi, pts))
        code, out = run_main(FAST_VERIFY, capsys)
        assert code == EXIT_CHECK_FAILED
        failed = {c["name"]: c for c in json.loads(out)["checks"] if not c["passed"]}
        assert list(failed) == ["psi_first_factor_in_disc"]
        assert failed["psi_first_factor_in_disc"]["value"] < 20_000

    def test_scaled_trailing_kappa_block_fails_psi_check(self, capsys, monkeypatch):
        """ψ's check reads the trailing blocks: Jκ of the third pair scaled
        by 1 + 1e-6 (determinant off by 2e-6) fails it, and only it."""
        from cubewrap.maps import PsiMap

        real = PsiMap._kappa_pairs

        def scaled(pm, X):
            U, K = real(pm, X)
            K[..., 2, :, :] *= 1 + 1e-6
            return U, K

        monkeypatch.setattr(PsiMap, "_kappa_pairs", scaled)
        code, out = run_main(["verify", "--n", "3", "--samples", "20000"], capsys)
        assert code == EXIT_CHECK_FAILED
        failed = {c["name"]: c for c in json.loads(out)["checks"] if not c["passed"]}
        assert list(failed) == ["psi_symplectic_analytic"]
        assert failed["psi_symplectic_analytic"]["value"] == pytest.approx(2e-6, rel=1e-3)

    def test_cube_sample_is_mapped_once(self, capsys, monkeypatch):
        # Containment, injectivity and the trailing identity share one
        # sample; the only other φ calls are the FD check's ± shifts of
        # the first 1000 smooth points of that sample along each of the
        # 2n = 6 axes.
        from cubewrap.maps import SMOOTH_MARGIN, EmbeddingConfig, PhiMap

        real, calls = PhiMap.forward, []

        def counted(self, X):
            if type(self) is PhiMap:
                calls.append(X.copy())
            return real(self, X)

        monkeypatch.setattr(PhiMap, "forward", counted)
        code, _ = run_main(["verify", "--n", "3", "--samples", "20000"], capsys)
        assert code == EXIT_OK
        assert sorted(len(X) for X in calls) == [1000] * 6 * 2 + [20000]
        X = calls[0][:10_000]
        smooth = X[PhiMap(EmbeddingConfig(n=3, c=2.0)).smooth_mask(X, SMOOTH_MARGIN)][:1000]
        plus = calls[1]
        assert np.array_equal(plus[:, 1:], smooth[:, 1:])
        assert np.allclose(plus[:, 0], smooth[:, 0] + 1e-6, rtol=0, atol=1e-15)

    def test_one_sample_per_map(self, capsys, monkeypatch):
        """verify draws through `sample_domain` once, the ψ ball sample
        at margin 0, and its symplectic checks read the first 10⁴ points
        of the cube and ball samples."""
        import cubewrap.cli as climod
        from cubewrap.maps import PhaseMap

        draws, checked, cube = [], [], []
        real_draw, real_check, real_inj = (
            PhaseMap.sample_domain, climod.check_symplectic, climod._injectivity_check,
        )

        def draw(pm, rng, count, margin=0.0):
            X = real_draw(pm, rng, count, margin)
            draws.append((type(pm).__name__, count, margin, X))
            return X

        def check(pm, X):
            checked.append((type(pm).__name__, X.copy()))
            return real_check(pm, X)

        def inj(phi, samples, seed):
            out = real_inj(phi, samples, seed)
            cube.append(out[2].copy())
            return out

        monkeypatch.setattr(PhaseMap, "sample_domain", draw)
        monkeypatch.setattr(climod, "check_symplectic", check)
        monkeypatch.setattr(climod, "_injectivity_check", inj)
        for n in (2, 3):
            for log in (draws, checked, cube):
                log.clear()
            assert main(["verify", "--n", str(n), "--samples", "20000"]) == EXIT_OK
            ((name, count, margin, Xb),) = draws
            assert (name, count, margin) == ("PsiMap", 20000, 0.0)
            assert [name for name, _ in checked] == ["PhiMap", "PsiMap"]
            assert np.array_equal(checked[0][1], cube[0][:10_000])
            assert np.array_equal(checked[1][1], Xb[:10_000])
        capsys.readouterr()

    @staticmethod
    def _plant_collisions(monkeypatch):
        """Make images 1 and 2 of verify's cube sample land 4e-8 and 9e-8
        from image 0; returns the log of the cube samples mapped."""
        from cubewrap.maps import PhiMap

        real, drawn = PhiMap.forward, []

        def planted(self, X):
            Y = real(self, X)
            if type(self) is PhiMap and len(X) == 20000:
                drawn.append(X.copy())
                Y[1:3] = Y[0]
                Y[1:3, 0] += [4e-8, 9e-8]
            return Y

        monkeypatch.setattr(PhiMap, "forward", planted)
        return drawn

    def test_collision_names_worst_pair(self, capsys, monkeypatch):
        drawn = self._plant_collisions(monkeypatch)
        code, out = run_main(FAST_VERIFY, capsys)
        # The one cube sample is drawn at seed + 4.
        (X,) = drawn
        assert np.array_equal(X, np.random.default_rng(4).uniform(0.0, 1.0, size=(20000, 4)))
        assert code == EXIT_CHECK_FAILED
        (inj,) = [c for c in json.loads(out)["checks"] if c["name"] == "phi_injectivity_collisions"]
        assert not inj["passed"] and inj["value"] == 3
        worst = inj["worst_pair"]
        assert worst["preimages"] == [X[0].tolist(), X[1].tolist()]
        assert worst["image_distance"] == pytest.approx(4e-8, rel=1e-6)

    def test_collision_is_swept_once(self, capsys, monkeypatch):
        import cubewrap.cli as climod

        self._plant_collisions(monkeypatch)
        real, sweeps = climod._image_collisions, []
        monkeypatch.setattr(
            climod, "_image_collisions", lambda *a: sweeps.append(1) or real(*a)
        )
        code, out = run_main(FAST_VERIFY, capsys)
        assert code == EXIT_CHECK_FAILED and len(sweeps) == 1


    def test_phases_time_what_they_name(self, capsys, monkeypatch):
        """Each stderr phase draws and checks one sample: the calls that
        draw or map it run inside the phase that names it."""
        import cubewrap.cli as climod
        from cubewrap.maps import PhaseMap, PhiMap

        active, log = [], []

        class Phase(climod._Phase):
            def __enter__(self):
                active.append(self.name)
                return super().__enter__()

            def __exit__(self, *exc):
                active.pop()
                return super().__exit__(*exc)

        def spy(owner, name, label):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                log.append((active[-1] if active else None, label(*args, **kwargs)))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        monkeypatch.setattr(climod, "_Phase", Phase)
        spy(PhaseMap, "sample_domain", lambda pm, rng, count, margin=0.0: (type(pm).__name__, count))
        spy(climod, "_injectivity_check", lambda phi, samples, seed: ("cube", samples))
        spy(climod, "check_symplectic", lambda pm, X: ("check", type(pm).__name__, len(X)))
        spy(PhiMap, "image_contains", lambda pm, Y: ("volume", len(Y)))
        code = main(FAST_VERIFY)
        err = capsys.readouterr().err
        assert code == EXIT_OK
        assert log == [
            ("phi cube sample", ("cube", 20_000)),
            ("phi cube sample", ("check", "PhiMap", 10_000)),
            ("psi ball sample", ("PsiMap", 20_000)),
            ("psi ball sample", ("check", "PsiMap", 10_000)),
            ("image volume", ("volume", 20_000)),
        ]
        phases = [line.split("] ")[1].rsplit(":", 1)[0] for line in err.splitlines()]
        assert phases == list(dict.fromkeys(phase for phase, _ in log))


class TestVerifyMemory:
    """verify's peak follows its cube sample, not the phase maps'
    temporaries: the maps work in row blocks, and each sample is freed
    at the end of its phase."""

    @pytest.mark.parametrize("n, samples", [(2, 200_000), (3, 200_000), (8, 10_000)])
    def test_peak_is_bounded_by_the_cube_sample(self, n, samples, capsys, monkeypatch):
        import tracemalloc

        import cubewrap.cli as climod

        real, seen = climod._image_collisions, []

        def sweep(X, Y, *args):
            seen.append((X.nbytes, Y.nbytes, len(Y)))
            return real(X, Y, *args)

        monkeypatch.setattr(climod, "_image_collisions", sweep)
        gc.collect()
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code = main(["verify", "--n", str(n), "--samples", str(samples)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        capsys.readouterr()
        assert code == EXIT_OK
        # The sweep must hold X, Y = φ(X) and its sort order, sort key and
        # index (one float or index per point) at once.  The bound leaves
        # room for one more cube sample of temporaries and 4 MiB of fixed
        # cost (the smooth samples, the parser, the report).
        ((x_bytes, y_bytes, rows),) = seen
        live = x_bytes + y_bytes + rows * (2 * np.dtype(np.intp).itemsize + 8)
        bound = 4 * x_bytes + 4 * 2**20
        assert live + x_bytes <= 4 * x_bytes
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


def _brute_force_collisions(X, Y, image_tol, preimage_min):
    pairs = set()
    for a in range(len(Y) - 1):
        dy = np.linalg.norm(Y[a] - Y[a + 1 :], axis=1)
        dx = np.linalg.norm(X[a] - X[a + 1 :], axis=1)
        pairs |= {(a, a + 1 + j) for j in np.nonzero((dy < image_tol) & (dx >= preimage_min))[0]}
    return pairs


class TestImageCollisions:
    TOL, PMIN = 1e-7, 1e-3

    def count(self, X, Y, image_tol=TOL, preimage_min=PMIN):
        pairs, dists = _image_collisions(X, Y, image_tol, preimage_min)
        assert len(pairs) == len(dists)
        return len(pairs)

    def test_planted_triple(self):
        # A-B and B-C are close in the image but also in the preimage;
        # only A-C collides, and B sorts between A and C.
        shift = np.array([0.0, 2e-8, 4e-8])
        Y = np.tile([0.3, 0.4, 0.5, 0.6], (3, 1))
        Y[:, 0] += shift
        X = np.full((3, 4), 0.5)
        X[:, 0] += [0.0, 7.5e-4, 1.5e-3]
        assert self.count(X, Y) == 1

    def test_image_distance_must_be_strictly_below_tol(self):
        tol = 2.0**-23  # 0.5 + tol is exact, so the distance is exactly tol
        Y = np.full((2, 4), 0.5)
        Y[1, 0] += tol
        X = np.array([[0.1] * 4, [0.9] * 4])
        assert self.count(X, Y, image_tol=tol) == 0
        assert self.count(X, Y, image_tol=np.nextafter(tol, 1.0)) == 1

    def test_close_preimages_are_not_a_collision(self):
        Y = np.full((2, 4), 0.5)
        Y[1] += 1e-9
        X = np.full((2, 4), 0.5)
        X[1, 0] += 0.9e-3
        assert self.count(X, Y) == 0
        X[1, 0] += 0.2e-3
        assert self.count(X, Y) == 1

    def test_pair_in_many_shifted_cells_counts_once(self):
        # Both images share a cell in all 2^d grids of cell size 2*tol
        # shifted by multiples of tol, so a per-grid count would give 16.
        Y = np.full((2, 4), 0.5 + 0.5e-7)
        Y[1] += 1e-9
        X = np.array([[0.1] * 4, [0.9] * 4])
        assert self.count(X, Y) == 1

    def test_tied_keys_match_brute_force(self):
        """Images that share their first coordinate, so the sort may put
        them in any order: every close pair is still found once."""
        rng = np.random.default_rng(17)
        Y = rng.uniform(0.0, 1.0, (400, 4))
        Y[:, 0] = rng.choice([0.25, 0.5, 0.5 + 5e-8, 0.75], size=400)
        Y[::7, 1:] = Y[0, 1:] + rng.uniform(-3e-8, 3e-8, (len(Y[::7]), 3))
        X = rng.uniform(0.0, 1.0, (400, 4))
        pairs, dists = _image_collisions(X, Y, self.TOL, self.PMIN)
        got = {tuple(p) for p in pairs.tolist()}
        expected = _brute_force_collisions(X, Y, self.TOL, self.PMIN)
        assert len(got) == len(pairs) and got == expected and len(expected) > 50
        assert np.array_equal(dists, np.linalg.norm(Y[pairs[:, 0]] - Y[pairs[:, 1]], axis=1))

    def test_empty_and_single(self):
        assert self.count(np.empty((0, 4)), np.empty((0, 4))) == 0
        assert self.count(np.full((1, 4), 0.5), np.full((1, 4), 0.5)) == 0

    @given(
        d=st.sampled_from([4, 6]),
        centres=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, d, centres, data):
        n = data.draw(st.integers(2, 40))
        unit = st.floats(0.0, 1.0)
        cy = data.draw(hnp.arrays(float, (centres, d), elements=unit))
        cx = data.draw(hnp.arrays(float, (centres, d), elements=unit))
        which = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, centres - 1)))
        dy = data.draw(hnp.arrays(float, (n, d), elements=st.floats(-1e-7, 1e-7)))
        dx = data.draw(hnp.arrays(float, (n, d), elements=st.floats(-1e-3, 1e-3)))
        X, Y = cx[which] + dx, cy[which] + dy
        pairs, dists = _image_collisions(X, Y, self.TOL, self.PMIN)
        got = {tuple(p) for p in pairs.tolist()}
        assert len(got) == len(pairs)
        assert got == _brute_force_collisions(X, Y, self.TOL, self.PMIN)
        expected = np.linalg.norm(Y[pairs[:, 0]] - Y[pairs[:, 1]], axis=1)
        assert np.allclose(dists, expected, rtol=1e-12, atol=0)


class TestSections:
    @pytest.mark.parametrize("grid", ["3x3", "5x5", "51x101"])
    @pytest.mark.parametrize("c", ["1", "2", repr(math.pi)])
    def test_odd_grid_passes_the_analytic_fubini_gate(self, capsys, c, grid):
        # The centre cell of an odd grid is the puncture z0: it counts in
        # special_cells and stays out of the integral.
        code, out = run_main(["sections", "--c", c, "--grid", grid, "--mc-spots", "0"], capsys)
        doc = json.loads(out)
        assert code == EXIT_OK, [e for e in doc["checks"] if not e["passed"]]
        assert abs(doc["fubini"]["analytic_integral"] - 1.0) < 1e-12
        w, h = map(int, grid.split("x"))
        assert doc["fubini"]["special_cells"] == 1
        assert doc["fubini"]["generic_cells"] == w * h - 1

    def test_sharpness_and_csv(self, capsys, tmp_path):
        code, out = run_main(FAST_SECTIONS + ["--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["fubini"]["max_area"] == 0.5
        csv_path = tmp_path / "sections.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "z1,z2,analytic_area,mc_area,mc_stderr"
        assert len(lines) > 100
        report_path = tmp_path / "sections_report.json"
        assert json.loads(report_path.read_text()) == doc

    def test_csv_bytes_equal_the_per_value_writer(self, capsys, tmp_path):
        """The bulk CSV writer gives the bytes of csv.writer fed one
        format(x, '.17g') per value, at c = π with three Monte Carlo
        spots."""
        import csv

        from cubewrap.maps import EmbeddingConfig
        from cubewrap.sections import z_grid

        c = math.pi
        argv = ["sections", "--c", repr(c), "--grid", "50x100", "--mc-spots", "3",
                "--samples", "20000", "--seed", "4", "--out", str(tmp_path / "bulk")]
        _, out = run_main(argv, capsys)
        spots = json.loads(out)["fubini"]["mc_spots"]
        mc_by_z = {(z1, z2): (est, se) for z1, z2, est, se in spots}
        ref = tmp_path / "reference.csv"
        with open(ref, "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["z1", "z2", "analytic_area", "mc_area", "mc_stderr"])
            for z in z_grid(EmbeddingConfig(c=c), (50, 100))[0]:
                est, se = mc_by_z.get((float(z[0]), float(z[1])), ("", ""))
                row = [z[0], z[1], 1.0 / c, est, se]
                wtr.writerow([format(float(x), ".17g") if x != "" else "" for x in row])
        got = (tmp_path / "bulk" / "sections.csv").read_bytes()
        assert got == ref.read_bytes()
        assert len(spots) == 3 and got.count(b"\r\n") == 5001

    def test_passing_mc_check_names_no_spot(self, capsys):
        _, out = run_main(FAST_SECTIONS, capsys)
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "mc_areas_within_3_sigma"]
        assert set(check) == {"name", "passed", "value"}

    def test_failing_mc_check_names_worst_spot(self, capsys):
        # seed 707 draws one spot at c = π whose estimate lies 3.12σ from 1/π
        argv = ["sections", "--c", repr(math.pi), "--grid", "50x100", "--mc-spots", "1",
                "--samples", "200000", "--seed", "707"]
        code, out = run_main(argv, capsys)
        assert code == EXIT_CHECK_FAILED
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "mc_areas_within_3_sigma"]
        assert not check["passed"] and check["value"] == 1
        assert check["worst_z"] == [0.31, 2.340486526924396]
        assert check["worst_mc_area"] == 0.321565
        assert check["worst_stderr"] == pytest.approx(0.0010444, rel=1e-4)
        pull = abs(check["worst_mc_area"] - 1 / math.pi) / check["worst_stderr"]
        assert check["worst_pull"] == pull == pytest.approx(3.1167, abs=1e-4)


class TestTopology:
    def test_connectivity(self, capsys):
        code, out = run_main(FAST_TOPOLOGY, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        names = {c["name"] for c in doc["checks"]}
        assert {"complement_connected", "annulus_negative_control"} <= names
        assert all(r["connected"] for r in doc["connectivity"])

    def test_fixture_annulus(self, capsys):
        code, out = run_main(["topology", "--fixture", "annulus", "--N", "256"], capsys)
        assert code == EXIT_OK
        (check,) = json.loads(out)["checks"]
        assert check["value"] == 2

    def test_fixture_slit_annulus(self, capsys):
        code, out = run_main(
            ["topology", "--fixture", "annulus_with_slit", "--N", "256"], capsys
        )
        assert code == EXIT_OK
        (check,) = json.loads(out)["checks"]
        assert check["value"] == 1

    def test_negative_control_fails_on_a_planted_disk(self, capsys, monkeypatch):
        import cubewrap.cli as climod
        from cubewrap.topology import disk_fixture

        monkeypatch.setattr(climod, "annulus_fixture", disk_fixture)
        code, out = run_main(FAST_TOPOLOGY, capsys)
        assert code == EXIT_CHECK_FAILED
        check = self._check(json.loads(out), "annulus_negative_control")
        assert not check["passed"] and check["value"] == 1

    def test_negative_control_is_the_same_at_every_N(self, capsys, monkeypatch):
        import cubewrap.cli as climod

        sizes, real = [], climod.annulus_fixture

        def recording(*args):
            r = real(*args)
            sizes.append(r.n)
            return r

        monkeypatch.setattr(climod, "annulus_fixture", recording)
        entries = set()
        for N in ("256", "512", "1024"):
            _, out = run_main(["topology", "--grid", "1x2", "--N", N], capsys)
            check = self._check(json.loads(out), "annulus_negative_control")
            entries.add(json.dumps(check, sort_keys=True))
        assert entries == {
            '{"name": "annulus_negative_control", "passed": true, "tolerance": 2, "value": 2}'
        }
        assert sizes == [256, 256, 256]

    def test_usage_error_section_thinner_than_a_cell(self, capsys, tmp_path):
        argv = ["topology", "--c", "600", "--N", "256", "--grid", "1x2"]
        code = main(argv + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "z = (0.5, 150.0) (c = 600.0)" in captured.err
        assert "raise --N (N >= 2080 puts a cell centre in every height band of W)" in captured.err
        assert list(tmp_path.iterdir()) == []
        # The N it names passes, and so do both z of the grid.
        code, out = run_main(["topology", "--c", "600", "--N", "2080", "--grid", "1x2"], capsys)
        assert code == EXIT_OK
        assert [e["components"] for e in json.loads(out)["connectivity"]] == [1, 1]

    def test_large_c_at_n_8192(self, capsys):
        """c = 600 at N = 8192, from row runs; the dense path's numbers."""
        code, out = run_main(["topology", "--c", "600", "--N", "8192", "--grid", "1x2"], capsys)
        assert code == EXIT_OK
        entries = json.loads(out)["connectivity"]
        assert [e["components"] for e in entries] == [1, 1]
        assert [e["occupied_fraction"] for e in entries] == [
            0.0016921758651733398,
            0.0017116963863372803,
        ]

    def test_hull(self, capsys):
        code, out = run_main(
            ["topology", "--hull", "--a", "0.5", "--grid", "2x2", "--N", "256"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["hull"]["all_within_bound"] and doc["hull"]["hull_equals_section"]
        assert "worst" not in doc["hull"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "--fixture", "annulus", "--hull"],
            ["topology", "--fixture", "annulus", "--hull", "--a", "0.3"],
        ],
    )
    def test_usage_error_fixture_with_hull(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--N", "256"])
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "--a", "0.3", "--grid", "2x2", "--N", "256"],
            ["topology", "--fixture", "annulus", "--a", "0.3", "--N", "256"],
        ],
    )
    def test_usage_error_a_without_hull(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "--a sets the bound of --hull and needs it" in captured.err

    def test_usage_error_c_with_hull_a(self, capsys):
        # ψ's c is 1/a, so a --c beside --hull --a contradicts it.
        code = main(["topology", "--hull", "--a", "0.5", "--c", "3", "--grid", "1x2", "--N", "256"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "--hull --a sets c = 1/a; --c contradicts it" in captured.err

    @pytest.mark.parametrize("argv", [["--a", "0.5"], []], ids=["a", "no_a"])
    def test_hull_without_c_echoes_default_c(self, capsys, argv):
        code, out = run_main(["topology", "--hull", "--grid", "1x2", "--N", "256"] + argv, capsys)
        assert code == EXIT_OK and json.loads(out)["spec"]["c"] == 2.0

    def test_hull_a_echoes_the_c_it_ran_at(self, capsys):
        # The z grid runs over (0, 1/a), so at a = 0.25 its second z2 is 3.
        argv = ["topology", "--hull", "--a", "0.25", "--grid", "1x2", "--N", "256"]
        code, out = run_main(argv, capsys)
        report = json.loads(out)
        assert code == EXIT_OK and report["spec"]["c"] == 4.0 and report["spec"]["a"] == 0.25
        assert [e[1] for e in report["hull"]["entries"]] == [1.0, 3.0]

    @pytest.mark.parametrize("N", ["0", "-4", "63"])
    def test_usage_error_hull_raster_below_64(self, capsys, N):
        # Checked where the ψ raster's blank is built, before any division by N.
        code = main(["topology", "--hull", "--grid", "1x2", "--N", N])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"raster resolution must be at least 64, got {N}" in captured.err

    @pytest.mark.parametrize(
        "fixture, N", [("disk", "-3"), ("annulus", "0"), ("annulus_with_slit", "63")]
    )
    def test_usage_error_fixture_below_64(self, capsys, fixture, N):
        code = main(["topology", "--fixture", fixture, "--N", N])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert f"raster resolution must be at least 64, got {N}" in captured.err

    @staticmethod
    def _check(doc, name):
        (entry,) = [c for c in doc["checks"] if c["name"] == name]
        return entry

    def test_passing_checks_name_no_z(self, capsys):
        _, out = run_main(FAST_TOPOLOGY, capsys)
        assert set(self._check(json.loads(out), "complement_connected")) == {
            "name", "passed", "value"
        }
        _, out = run_main(["topology", "--hull", "--a", "0.5", "--grid", "2x2", "--N", "256"], capsys)
        assert set(self._check(json.loads(out), "hull_areas_bounded")) == {
            "name", "passed", "value", "tolerance"
        }

    def test_disconnected_section_names_first_z(self, capsys, monkeypatch):
        # plant a closed annulus (complement in two components) at every z
        # after the first one checked
        import cubewrap.topology as topo

        real = topo.rasterize_section
        seen = []

        def planted(sd, config, N, **kw):
            seen.append(sd.z)
            return topo.annulus_fixture(N) if len(seen) > 1 else real(sd, config, N, **kw)

        monkeypatch.setattr(topo, "rasterize_section", planted)
        code, out = run_main(FAST_TOPOLOGY, capsys)
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        check = self._check(doc, "complement_connected")
        assert not check["passed"]
        assert check["first_disconnected_z"] == list(seen[1])
        assert check["first_disconnected_components"] == 2
        assert doc["connectivity"][0]["connected"] and not doc["connectivity"][1]["connected"]

    def test_disconnected_section_leaves_its_raster(self, capsys, monkeypatch, tmp_path):
        """With the slit's cover planted empty, every φ section closes into
        an annulus; --out then gets the PGM of the first z named, painted
        from its runs, and lists it in artifacts.  A passing run gets no
        such file."""
        import cubewrap.topology as topo

        argv = FAST_TOPOLOGY + ["--out", str(tmp_path / "ok")]
        code, out = run_main(argv, capsys)
        assert code == EXIT_OK and json.loads(out)["artifacts"] == []
        assert [p.name for p in (tmp_path / "ok").iterdir()] == ["topology_report.json"]

        monkeypatch.setattr(topo, "_slit_cover", lambda n, *segment: (np.zeros(n, int),) * 2)
        code, out = run_main(FAST_TOPOLOGY + ["--out", str(tmp_path / "bad")], capsys)
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        z = self._check(doc, "complement_connected")["first_disconnected_z"]
        pgm = tmp_path / "bad" / f"disconnected_z_{z[0]!r}_{z[1]!r}.pgm"
        assert doc["artifacts"] == [str(pgm)]
        from cubewrap.maps import EmbeddingConfig

        r = topo.rasterize_section(z, EmbeddingConfig(c=2.0), 256)
        assert topo.complement_components(r) == 2
        assert pgm.read_bytes() == r.pgm()
        assert pgm.read_bytes().startswith(b"P5\n256 256\n255\n")

    def test_oversized_hull_names_worst_z(self, capsys, monkeypatch):
        # plant a disc of area about 0.64 > a = 0.5 at one z of the grid
        import cubewrap.topology as topo

        real = topo._psi_rasters
        target = (0.75, 0.5)

        def planted(zs, cfg, N):
            for z, r in zip(zs, real(zs, cfg, N)):
                yield topo.disk_fixture(N, radius=0.45) if tuple(z) == target else r

        monkeypatch.setattr(topo, "_psi_rasters", planted)
        code, out = run_main(
            ["topology", "--hull", "--a", "0.5", "--grid", "2x2", "--N", "256"], capsys
        )
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        check = self._check(doc, "hull_areas_bounded")
        assert not check["passed"]
        assert check["worst_z"] == list(target)
        planted_entry = [e for e in doc["hull"]["entries"] if tuple(e[:2]) == target]
        assert check["worst_hull_area"] == planted_entry[0][2] > check["tolerance"]


    def test_hull_over_its_bound_leaves_its_raster(self, capsys, monkeypatch, tmp_path):
        """With --out, a failing hull check hands _finish the PGM of its
        worst hull, painted from the occupied and hole runs, named by z
        and listed in artifacts.  A passing run gets no such file."""
        import cubewrap.topology as topo

        argv = ["topology", "--hull", "--a", "0.5", "--grid", "2x2", "--N", "256", "--out"]
        code, out = run_main(argv + [str(tmp_path / "ok")], capsys)
        assert code == EXIT_OK and json.loads(out)["artifacts"] == []
        assert [p.name for p in (tmp_path / "ok").iterdir()] == ["topology_report.json"]

        # An annulus whose hull, the disc of radius 0.45, is over a = 0.5;
        # the hull check and the PGM's raster both come from _psi_rasters.
        real = topo._psi_rasters
        target = (0.75, 0.5)

        def planted(zs, cfg, N):
            for z, r in zip(zs, real(zs, cfg, N)):
                yield topo.annulus_fixture(N, inner=0.2, outer=0.45) if tuple(z) == target else r

        monkeypatch.setattr(topo, "_psi_rasters", planted)
        code, out = run_main(argv + [str(tmp_path / "bad")], capsys)
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(out)
        z = self._check(doc, "hull_areas_bounded")["worst_z"]
        assert z == list(target)
        pgm = tmp_path / "bad" / f"hull_over_bound_z_{z[0]!r}_{z[1]!r}.pgm"
        assert doc["artifacts"] == [str(pgm)]
        section = topo.annulus_fixture(256, inner=0.2, outer=0.45)
        hull = topo.bounded_hull(section)
        assert hull.occupied() > section.occupied()
        assert pgm.read_bytes() == hull.pgm()
        assert pgm.read_bytes().startswith(b"P5\n256 256\n255\n")


class TestProcess:
    def test_parser_is_built_once(self, capsys):
        argv = ["topology", "--fixture", "disk", "--N", "64"]
        run_main(argv, capsys)
        assert build_parser() is build_parser()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_main(argv, capsys)
            gc.collect()
            leaked = {type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == set()

    def test_runs_without_scipy(self, tmp_path):
        # An isolated interpreter with only this checkout's src added.
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = f"""
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import cubewrap, cubewrap.cli
codes = []
for argv in (["topology", "--N", "256", "--grid", "1x2"],
             ["topology", "--hull", "--N", "256", "--grid", "1x2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cubewrap.cli.main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({{"codes": codes, "scipy": scipy, "file": cubewrap.__file__}}))
"""
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script], capture_output=True, cwd=tmp_path, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        result = json.loads(proc.stdout)
        assert result == {"codes": [EXIT_OK, EXIT_OK], "scipy": [], "file": result["file"]}
        assert Path(result["file"]).resolve().parents[1] == Path(src)


class TestPlot:
    def test_artifacts(self, capsys, tmp_path):
        code, out = run_main(
            ["plot", "--z", "0.3,0.7", "--N", "128", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        for name in ("ribbon.svg", "section.svg", "raster.svg", "raster.pgm"):
            assert (tmp_path / name).exists()
        svg = (tmp_path / "section.svg").read_text()
        assert svg.startswith("<svg") and "polygon" in svg

    def test_empty_section_placeholder(self, capsys, tmp_path):
        code, _ = run_main(
            ["plot", "--z", "0.5,1.0", "--N", "128", "--out", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        assert "empty section" in (tmp_path / "section.svg").read_text()


    @pytest.mark.parametrize("N", ["63", "10", "0"])
    def test_usage_error_raster_below_64(self, capsys, tmp_path, N):
        out = tmp_path / "out"
        code = main(["plot", "--z", "0.3,0.7", "--N", N, "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"raster resolution must be at least 64, got {N}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("z", ["nan,0.5", "0.3,inf", "0.3,-inf"])
    def test_usage_error_z_not_finite(self, capsys, tmp_path, z):
        # JSON has no NaN or Infinity, so the spec could not echo it.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--z", z, "--out", str(out)])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert f"argument --z: must be finite, got '{z}'" in captured.err
        assert not out.exists()

    def test_usage_error_one_z_value(self, capsys, tmp_path):
        # README: --z z1,z2; one value is not padded with the centre, and
        # a third is not a tail coordinate
        out = tmp_path / "out"
        for z, count in [("0.3", 1), ("0.3,0.7,0.5", 3)]:
            code = main(["plot", "--z", z, "--out", str(out)])
            assert code == EXIT_USAGE
            assert f"--z takes exactly two values z1,z2, got {count}" in capsys.readouterr().err
            assert not out.exists()

    def test_usage_error_z_within_rounding_of_puncture(self, capsys, tmp_path):
        # not z0 = (0.5, 1.0), but the inverse rectangle map rounds its
        # height Q2 to 1
        out = tmp_path / "out"
        code = main(["plot", "--z", "0.5,1.0000000000000002", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "z = (0.5, 1.0000000000000002)" in err and "z0 = (0.5, 1.0)" in err
        assert not out.exists()


class TestDeterminism:
    @pytest.fixture(autouse=True)
    def _env(self, cli_env):
        self.env = cli_env

    def _run(self, argv, tmp_path, tag):
        # identical spec requires an identical --out string, so each run
        # gets its own working directory and a relative output path
        cwd = tmp_path / tag
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "cubewrap.cli"] + argv + ["--out", "out"],
            capture_output=True,
            cwd=cwd,
            env=self.env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return cwd / "out", proc.stdout

    def test_verify_byte_identical(self, tmp_path):
        d1, s1 = self._run(FAST_VERIFY + ["--seed", "7"], tmp_path, "a")
        d2, s2 = self._run(FAST_VERIFY + ["--seed", "7"], tmp_path, "b")
        assert s1 == s2
        assert (d1 / "verify_report.json").read_bytes() == (d2 / "verify_report.json").read_bytes()

    def test_sections_byte_identical(self, tmp_path):
        d1, s1 = self._run(FAST_SECTIONS + ["--seed", "7"], tmp_path, "a")
        d2, s2 = self._run(FAST_SECTIONS + ["--seed", "7"], tmp_path, "b")
        assert s1 == s2
        assert (d1 / "sections.csv").read_bytes() == (d2 / "sections.csv").read_bytes()

    def test_plot_byte_identical(self, tmp_path):
        argv = ["plot", "--z", "0.3,0.7", "--N", "128"]
        d1, _ = self._run(argv, tmp_path, "a")
        d2, _ = self._run(argv, tmp_path, "b")
        for name in ("ribbon.svg", "section.svg", "raster.svg", "raster.pgm"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_report(self, tmp_path):
        _, s1 = self._run(FAST_VERIFY + ["--seed", "7"], tmp_path, "a")
        _, s2 = self._run(FAST_VERIFY + ["--seed", "8"], tmp_path, "b")
        assert s1 != s2

