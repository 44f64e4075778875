"""Run one cubewrap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Prints each metric by name and unit, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (setup_s, verdict_s,
peak_rss_mb); with `--trace 1` the per-layer ones.  The full record
(environment, argv of every call, report digests) goes to
perfbench/out/, and traced spans to a gzipped JSONL file beside it.
"""
import argparse
import json
import os
import sys

import harness
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Before numpy is imported, so its thread pools read the pinned values.
    pinned = harness.pinned_env(os.environ)
    os.environ.clear()
    os.environ.update(pinned)
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = result.details["environment"]
    print(f"workload {result.workload} seed {result.seed} trace {args.trace} "
          f"passes {result.passes} nproc {env['nproc']} cubewrap {env['cubewrap_file']}")
    print(f"reports sha256 {result.details['report_sha256']}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"check_fail_ratio {result.check_fail_ratio!r} ratio "
          f"({result.failed} of {result.attempted} checks failed)")
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
