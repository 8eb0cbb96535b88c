"""What the package loads of scipy, each probe in a fresh interpreter.
Start-up is mostly import time.  While `graphs` imported
`scipy.sparse.csgraph`, whose `__init__` loads `scipy.sparse.linalg` and
`scipy.linalg`, `import graphhardy, graphhardy.cli` took 0.163 s and left
61.3 MB resident; without them it takes 0.144 s and 50.0 MB (medians of
16 alternating fresh interpreters each, 2-core x86 VM).  A command
needs neither package until it builds the oracle or certifies a spectrum.
scipy.special alone costs 79 ms there, and the tail sums of `calculus`
are in closed form so as not to need it.  LAPACK (`scipy.linalg`) is
loaded by the first oracle build, and ARPACK and SuperLU
(`scipy.sparse.linalg`) by the first certified spectrum."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The public scipy packages the import loads; a new one is a new import
# cost and must be added here on purpose.
SCIPY_PACKAGES = {"scipy", "scipy.sparse"}

# loaded on first use only
LAZY_PACKAGES = ["scipy.linalg", "scipy.sparse.csgraph", "scipy.sparse.linalg"]

LOADED = """
def loaded():
    return sorted(
        name for name, mod in sys.modules.items()
        if (name == "scipy" or name.startswith("scipy.")) and hasattr(mod, "__path__")
        and not any(part.startswith("_") for part in name.split(".")))
"""


def _probe(body):
    """The JSON that `body` prints, run after the package import in a
    fresh interpreter that has `loaded()` and `lazy()` at hand."""
    source = "\n".join([
        "import json, sys",
        "import numpy as np",
        "import graphhardy, graphhardy.cli",
        "from graphhardy import calculus, hardy, quadratic, zoo",
        "from graphhardy.operators import random_mean_zero",
        LOADED,
        f"def lazy(): return [name for name in {LAZY_PACKAGES!r} if name in sys.modules]",
        body,
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                         check=True, env=env)
    return json.loads(out.stdout)


def test_import_loads_no_new_scipy_package():
    packages = set(_probe("print(json.dumps(loaded()))"))
    assert "scipy.special" not in packages
    assert packages <= SCIPY_PACKAGES, sorted(packages - SCIPY_PACKAGES)


def test_the_commands_above_the_cap_load_no_dense_or_sparse_solver():
    # on lazy_torus_17 (n = 289, above the oracle cap) the square
    # function, both BMO kinds and all six Davies-Gaffney families run on
    # the series path and the set search, and load none of the three
    still = _probe("""
g = zoo.lazy_torus_2d(17)
assert not calculus.has_oracle(g)
f = random_mean_zero(g, np.random.default_rng(0))
quadratic.quad_norm(g, f, 1.0)
for kind in ("bz1", "bz2"):
    hardy.bmo_norm(g, f, kind, 1, 16)
for family in calculus.FAMILIES:
    calculus.gaffney_fit(g, family, [8 * 17 + 8], [0], [4, 16, 64])
print(json.dumps(lazy()))
""")
    assert still == []


def test_the_oracle_loads_lapack_and_the_certificate_arpack():
    loads = _probe("""
steps = [lazy()]
calculus.spectral(zoo.lazy_cycle(16))
steps.append(lazy())
assert calculus.spectrum(zoo.lazy_torus_2d(17)).source == "certified"
steps.append(lazy())
print(json.dumps(steps))
""")
    assert loads[0] == []
    assert loads[1] == ["scipy.linalg"]
    assert "scipy.sparse.linalg" in loads[2]
