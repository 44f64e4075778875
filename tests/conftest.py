"""Shared test set-up: every import of `cubewrap`, in this process and in
the CLI child processes the tests launch, resolves to this checkout's
`src`, whether or not a copy of the package is installed."""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def cli_env():
    """Environment for a `python -m cubewrap.cli` child process: a copy of
    this process's environment with `SRC` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env
