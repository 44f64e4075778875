"""Smoke test: every narrative script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [d.name for d in DEMOS] == [
        "ball_hull.py",
        "embedding_tour.py",
        "section_anatomy.py",
        "slit_topology.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        env=cli_env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout
