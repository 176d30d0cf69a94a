"""Import-time dependencies: the package runs on numpy and sympy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negflow

SRC = str(Path(negflow.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "modules, prefix",
    [
        ("negflow, negflow.cli, negflow.distsim", "scipy"),
        # the loop modules leave sympy to the symbolic ones, out of the loop's memory
        ("negflow, negflow.gf, negflow.sse, negflow.distsim", "sympy"),
        # only the propagate command loads the symbolic modules, when it runs
        ("negflow, negflow.cli", "sympy"),
    ],
    ids=["cli-scipy", "loop-sympy", "cli-sympy"],
)
def test_no_scipy_module_is_loaded(modules, prefix):
    code = (
        "import json, sys\n"
        f"import {modules}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
