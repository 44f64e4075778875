"""The benchmark's workloads: fixed sequences of `cubewrap` CLI calls.

Every call carries the workload seed as `--seed`.  The sizes are fixed
per workload so that `verdict_s` is a throughput figure at a stated
input size; a later change must not edit them and claim a gain.  Why
each workload exists, and which layer it loads or leaves idle, is in
`rationale.json` next to this file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

NAMES = ("verify", "phi-sections", "psi-hull")

# The four c of acceptance criteria 1 and 3; pi is written out so the
# argv (and so the report bytes) never depend on float formatting.
C_VALUES = ("1", "1.5", "2", repr(math.pi))


@dataclass(frozen=True)
class Size:
    """Knobs that differ between the measured run and the self-tests."""

    verify: tuple  # (n, samples) of each verify call
    c_values: tuple
    section_grid: str
    mc_samples: int
    conn_N: tuple
    hull_a: tuple
    hull_N: int
    hull_grid: str
    setup_probes: int  # fresh processes timed for setup_s
    tail_samples: int  # spans a traced run needs per reported p90


FULL = Size(
    # The image-volume check allows 0.02 of MC error; below 5e4 samples
    # it fails by chance (4.5 sigma at 5e4, 1.3 sigma at 4e3).
    verify=((2, 100_000), (3, 50_000)),
    c_values=C_VALUES,
    section_grid="50x100",
    mc_samples=200_000,
    conn_N=(256, 512, 1024),
    hull_a=("1", "0.5", "0.25"),
    hull_N=1024,
    # Four z per (N, a) key, so geometry reuse is higher than on
    # phi-sections (two z per (N, c) key).
    hull_grid="1x4",
    setup_probes=11,
    # Ten samples beyond the 90th percentile.
    tail_samples=100,
)

TINY = Size(
    verify=((2, 50_000),),
    c_values=("2",),
    section_grid="4x4",
    mc_samples=10_000,
    conn_N=(256,),
    hull_a=("0.5",),
    hull_N=256,
    hull_grid="1x2",
    setup_probes=1,
    tail_samples=0,
)


def calls(name: str, seed: int, size: Size = FULL) -> list:
    """The argv of every CLI call in one pass of workload `name`."""
    s = str(seed)
    if name == "verify":
        return [
            ["verify", "--n", str(n), "--c", "2", "--samples", str(k), "--seed", s]
            for n, k in size.verify
        ]
    if name == "phi-sections":
        out = []
        for c in size.c_values:
            out.append(
                ["sections", "--c", c, "--grid", size.section_grid,
                 "--mc-spots", "1", "--samples", str(size.mc_samples),
                 "--seed", s]
            )
            for N in size.conn_N:
                # Two z per (N, c) key: the one cell centre of a 1x1 grid
                # is the puncture z0, which z_grid leaves out.
                out.append(
                    ["topology", "--c", c, "--grid", "1x2", "--N", str(N),
                     "--seed", s]
                )
        return out
    if name == "psi-hull":
        return [
            ["topology", "--hull", "--a", a, "--N", str(size.hull_N),
             "--grid", size.hull_grid, "--seed", s]
            for a in size.hull_a
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def warmup(name: str, seed: int) -> list:
    """One small call of the workload's subcommand, run untimed during
    set-up so lazy imports and first-call costs stay out of verdict_s."""
    s = str(seed)
    if name == "verify":
        return ["verify", "--n", "2", "--c", "2", "--samples", "50000", "--seed", s]
    if name == "phi-sections":
        return ["topology", "--c", "2", "--grid", "1x2", "--N", "256", "--seed", s]
    if name == "psi-hull":
        return ["topology", "--hull", "--a", "0.5", "--N", "256", "--grid", "1x2",
                "--seed", s]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
