"""Set-up probe: a fresh process that imports cubewrap from this
checkout, builds the CLI parser and runs one warm-up call (the argv
given), then prints `ready`.  `harness.measure_setup` times it from
process start to that line."""
import sys

import harness

cli = harness.import_cli()
cli.build_parser()
rc, _ = harness.call_cli(cli, sys.argv[1:])
if rc != 0:
    sys.exit(f"warm-up call exited with {rc}")
print("ready", flush=True)
