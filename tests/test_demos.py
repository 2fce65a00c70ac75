"""Every script in ``demos/`` runs to completion.

Each demo runs in its own process with the package's ``src`` directory
on the import path, must exit 0 and must print something. Python demos
run with warnings as errors; shell demos run under bash, with this
interpreter's directory first on ``PATH`` so their ``python3`` is the
one running the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SHELL_DEMOS = sorted((ROOT / "demos").glob("*.sh"))


def _run(command, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PATH"] = os.pathsep.join(
        p for p in (str(Path(sys.executable).parent), env.get("PATH")) if p
    )
    done = subprocess.run(
        command, cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_demos_are_found():
    assert DEMOS
    assert SHELL_DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(script, tmp_path):
    _run([sys.executable, "-W", "error", str(script)], tmp_path)


@pytest.mark.parametrize("script", SHELL_DEMOS, ids=[d.name for d in SHELL_DEMOS])
def test_shell_demo_runs_cleanly(script, tmp_path):
    _run(["bash", str(script)], tmp_path)
