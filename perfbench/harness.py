"""Measurement loop, output gate and environment record of the benchmark.

A workload is run as repeated passes over its fixed sequence of CLI
calls, each through `cubewrap.cli.main(argv)` in this process with
stdout captured.  Untraced, a run reports set-up time, the median pass
time and peak RSS.  Traced, it alternates untraced and traced passes and
turns the spans of the traced ones into per-layer metrics.

Every report is gated: the call must exit 0, every check must pass, and
the report must be byte-identical to the same call's report in the
first pass.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One thread per pool: the workload is one process, and the cubewrap
# kernels are element-wise numpy, so extra pool threads only add noise.
THREADS = "1"

# A traced run stops starting passes after this many seconds, so it
# exits well inside the benchmark's 180 s limit.
TRACE_CAP_S = 150.0


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, or a foreign copy)."""


def pinned_env(environ) -> dict:
    """A copy of `environ` with the thread pools fixed and every
    CUBEWRAP_* override dropped, so flags alone define each call."""
    env = {k: v for k, v in environ.items() if not k.startswith("CUBEWRAP_")}
    env.update({k: THREADS for k in THREAD_VARS})
    return env


def import_cli():
    """Import `cubewrap.cli` from this checkout's `src`, never from an
    installed copy."""
    if not (SRC / "cubewrap" / "__init__.py").is_file():
        raise SetupError(f"no cubewrap source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cubewrap
    import cubewrap.cli

    origin = Path(os.path.realpath(cubewrap.__file__))
    if SRC not in origin.parents:
        raise SetupError(f"cubewrap imported from {origin}, not from {SRC}")
    return cubewrap.cli


def call_cli(cli, argv):
    """Run one CLI call; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # A crash is a failed check, not the end of the benchmark.
            print(traceback.format_exc(), file=sys.__stderr__)
            rc = -1
    return rc, out.getvalue().encode()


@dataclass
class Gate:
    """Checks attempted and failed over every report of a run.

    Attempted: each report's own checks, the exit-code gate of every
    call, and the byte-identity gate of every repeated call."""

    reference: list = field(default_factory=list)  # first pass's stdout per call
    attempted: int = 0
    failed: int = 0

    def judge(self, index: int, rc: int, stdout: bytes) -> tuple:
        """Returns (attempted, failed) for one call; also accumulates."""
        try:
            checks = json.loads(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            checks = [{"passed": False}]
        attempted = len(checks) + 1
        failed = sum(not c.get("passed", False) for c in checks) + (rc != 0)
        if index < len(self.reference):
            attempted += 1
            failed += stdout != self.reference[index]
        else:
            self.reference.append(stdout)
        self.attempted += attempted
        self.failed += failed
        return attempted, failed

    def digests(self):
        return [hashlib.sha256(b).hexdigest() for b in self.reference]

    def digest(self):
        return hashlib.sha256(b"".join(self.reference)).hexdigest()


def run_pass(cli, argvs, gate: Gate, tracer=None):
    """One pass over the workload, each call under a `cli.main` span when
    traced; returns (seconds, attempted, failed)."""
    outputs = []
    t0 = time.perf_counter()
    for argv in argvs:
        if tracer is None:
            outputs.append(call_cli(cli, argv))
            continue
        span = tracer.open("cli.main")
        try:
            outputs.append(call_cli(cli, argv))
        finally:
            tracer.close(span)
    dt = time.perf_counter() - t0
    attempted = failed = 0
    for i, (rc, stdout) in enumerate(outputs):
        a, f = gate.judge(i, rc, stdout)
        attempted += a
        failed += f
    return dt, attempted, failed


def measure_setup(warmup_argv, probes: int) -> list:
    """Seconds from starting a fresh process to ready (cubewrap imported,
    parser built, warm-up call done), once per probe."""
    env = pinned_env(os.environ)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *warmup_argv]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up probe failed with exit code {rc}")
        times.append(dt)
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cubewrap_file": os.path.realpath(sys.modules["cubewrap"].__file__),
        "cubewrap_version": sys.modules["cubewrap"].__version__,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    argv: list
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    passes: int
    details: dict
    tracer: Tracer | None = None

    @property
    def check_fail_ratio(self) -> float:
        return self.failed / self.attempted

    def line(self) -> dict:
        """The benchmark's result object (its last line of output)."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }

    def record(self) -> dict:
        doc = self.line()
        doc.update(
            workload=self.workload,
            seed=self.seed,
            trace=self.trace,
            check_fail_ratio=self.check_fail_ratio,
            passes=self.passes,
            argv=self.argv,
            **self.details,
        )
        return doc


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: workloads.Size = workloads.FULL, out_dir: Path | None = OUT) -> Result:
    """Run one workload for about `seconds` and return its metrics.

    With `out_dir`, the result record (and, traced, the spans as JSONL)
    is written there."""
    argvs = workloads.calls(name, seed, size)
    warm = workloads.warmup(name, seed)
    cli = import_cli()
    call_cli(cli, warm)
    if trace:
        result = _traced(cli, name, seed, seconds, argvs, size)
    else:
        result = _untraced(cli, name, seed, seconds, argvs, warm, size.setup_probes)
    result.details["environment"] = environment()
    if out_dir is not None:
        _write(result, out_dir)
    return result


def _write(result: Result, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}_seed{result.seed}_trace{int(result.trace)}"
    if result.tracer is not None:
        path = out_dir / f"{stem}_spans.jsonl.gz"
        result.tracer.write_jsonl(path)
        result.details["spans_file"] = path.name
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(result.record(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _untraced(cli, name, seed, seconds, argvs, warm, probes) -> Result:
    gate = Gate()
    times, setup = [], []
    start = time.perf_counter()
    # Passes until the time is up, at least two so every report is
    # compared with a repeat.  The set-up probes are spread between the
    # passes, so a slow spell of the host weighs on a few of them and
    # not on all.
    while True:
        elapsed = time.perf_counter() - start
        done = len(times) >= 2 and elapsed >= seconds
        due = probes if elapsed >= seconds else math.ceil(probes * elapsed / seconds)
        setup += measure_setup(warm, due - len(setup))
        if done:
            break
        dt, _, _ = run_pass(cli, argvs, gate)
        times.append(dt)
    metrics = {
        # The lower quartile of the probes: a slow spell of the shared
        # host lengthens some probes and shortens none, so the faster
        # probes show the set-up cost most steadily from run to run.
        "setup_s": (sorted(setup)[(len(setup) - 1) // 4], "s"),
        "verdict_s": (statistics.median(times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    details = {
        "pass_seconds": times,
        "setup_seconds": setup,
        "report_sha256": gate.digest(),
        "call_sha256": gate.digests(),
    }
    return Result(name, seed, False, argvs, metrics, gate.attempted, gate.failed,
                  len(times), details)


def _traced(cli, name, seed, seconds, argvs, size) -> Result:
    tracer = Tracer(run_id=f"{name}-{seed}-{uuid.uuid4().hex[:12]}")
    gate = Gate()
    plain, traced, counts = [], [], []
    start = time.perf_counter()

    def need_more():
        elapsed = time.perf_counter() - start
        if len(traced) < 2 or len(plain) < 3:
            return True
        if elapsed > TRACE_CAP_S:
            return False
        return elapsed < seconds or layers.tail_short(tracer.spans, size.tail_samples)

    # Alternate plain and traced passes until three plain ones exist,
    # then trace until the p90s have their tail samples.
    while need_more():
        if len(plain) < 3 and len(plain) <= len(traced):
            dt, _, _ = run_pass(cli, argvs, gate)
            plain.append(dt)
            continue
        tracer.pass_index = len(traced)
        tracer.install()
        try:
            dt, attempted, failed = run_pass(cli, argvs, gate, tracer)
        finally:
            tracer.restore()
        traced.append(dt)
        counts.append((attempted, failed))
    metrics = layers.per_layer(tracer.spans, len(traced), counts)
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    details = {
        "run_id": tracer.run_id,
        "plain_pass_seconds": plain,
        "traced_pass_seconds": traced,
        "traced_verdict_mean_s": sum(traced) / len(traced),
        "tail_samples": layers.tail_counts(tracer.spans),
        "counts_repeat": layers.counts_repeat(tracer.spans, len(traced)),
        "report_sha256": gate.digest(),
        "call_sha256": gate.digests(),
    }
    return Result(name, seed, True, argvs, metrics, gate.attempted, gate.failed,
                  len(traced), details, tracer)

