"""Smoke test: every narrative script under demos/ and the README quick start
run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


def run_python(*args):
    """A fresh interpreter on the package's source, any warning an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    proc = run_python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "133 6250.0\n"
