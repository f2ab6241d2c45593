"""Each demo script and README's quick start run to completion, exit 0,
with nothing on stderr."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    """A python process on the checkout's src, which must exit 0 with an
    empty stderr; returns its stdout."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(demo):
    run_python([str(demo)])


def test_readme_quick_start_runs_clean():
    """The python block under "Library quick start" prints the verdicts its
    comments name.  The size cap is set between hh's 9 x 9 Choi matrices
    and rho_t's 27 x 27 matrix, so the block builds no d^3 x d^3 matrix."""
    text = (ROOT / "README.md").read_text()
    block = (text.split("## Library quick start")[1]
             .split("```python\n")[1].split("```")[0])
    cap = "import covwit.linalg\ncovwit.linalg.MAX_DIM = 26\n"
    eb, w3, witness, tmax = run_python(["-c", cap + block]).splitlines()
    assert (eb, w3) == ("EB", "ENTANGLED")
    witness = ast.literal_eval(witness)
    assert witness["id"] == "L0"
    assert abs(witness["min_eig"] + (2 / 3) / 47) <= 1e-15
    assert abs(float(tmax) - (21 + math.sqrt(1161)) / 10) <= 1e-12
