"""Each demo script, and the python block of README.md, runs to completion from a clean working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bohmatom

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS, "no demo scripts found"


def run_python(tmp_path, args):
    """Run python with args from tmp_path; exit 0 and no Traceback.

    The package's own directory goes first on the path, so demo 04's CLI subprocesses import it
    too; TMPDIR keeps the files demo 04 writes inside tmp_path."""
    package_root = str(Path(bohmatom.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    run_python(tmp_path, [str(demo)])


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "no python block in README.md"
    run_python(tmp_path, ["-c", "\n".join(blocks)])
