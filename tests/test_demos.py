"""Smoke tests of the demo scripts: the fast ones run, the slow ones compile."""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("argv", [
    ["reproduce_tables.py", "--quick", "--state", "2P_2p"],
    ["single_orbital_walkthrough.py"],
    ["subshell_scaling.py"],
    pytest.param(["subshell_scaling.py", "--mc-check"],
                 id="subshell_scaling.py-mc-check"),
], ids=lambda argv: argv[0])
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / argv[0])] + argv[1:],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("name", ["nodal_topology.py", "harmonic_cases.py"])
def test_slow_demo_compiles(name, tmp_path):
    py_compile.compile(str(DEMOS / name), cfile=str(tmp_path / "demo.pyc"),
                       doraise=True)
