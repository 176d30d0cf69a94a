"""Import-time dependencies: the package runs on numpy and sympy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import negflow

SRC = str(Path(negflow.__file__).resolve().parents[1])


def test_no_scipy_module_is_loaded():
    code = (
        "import json, sys\n"
        "import negflow, negflow.cli, negflow.distsim\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []
