"""Import-time dependencies: the package runs on numpy and sympy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negflow

SRC = str(Path(negflow.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports negflow from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True).stdout


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
    assert json.loads(_fresh(code)) == []


def test_every_exported_name_resolves():
    # a fresh interpreter, so that no earlier import fills in a missing name
    code = (
        "import negflow\n"
        "missing = [name for name in negflow.__all__ if not hasattr(negflow, name)]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        "exec('from negflow import *', namespace)\n"
        "assert set(negflow.__all__) <= set(namespace), sorted(set(negflow.__all__) - set(namespace))\n"
    )
    _fresh(code)
