"""What `import graphhardy, graphhardy.cli` loads of scipy, in a fresh
interpreter.  Start-up is mostly import time: of a 0.39-0.44 s benchmark
set-up, 0.32-0.47 s was import (seed 3, 2-core x86 VM).  scipy.special
alone costs 79 ms there, and the tail sums of `calculus` are in closed
form so as not to need it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The public scipy packages the package imports today; a new one is a
# new import cost and must be added here on purpose.
SCIPY_PACKAGES = {"scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph",
                  "scipy.sparse.linalg"}

PROBE = """
import json, sys
import graphhardy, graphhardy.cli
print(json.dumps(sorted(
    name for name, mod in sys.modules.items()
    if (name == "scipy" or name.startswith("scipy.")) and hasattr(mod, "__path__")
    and not any(part.startswith("_") for part in name.split("."))
)))
"""


def test_import_loads_no_new_scipy_package():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, env=env)
    packages = set(json.loads(out.stdout))
    assert "scipy.special" not in packages
    assert packages <= SCIPY_PACKAGES, sorted(packages - SCIPY_PACKAGES)
