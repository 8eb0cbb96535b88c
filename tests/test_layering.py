"""One home per decision: the raw Markov matrix (hence every P^l loop),
the oracle/series choice, the spectral oracle, the cone sum and the dense
tent mask may be reached only from the modules and functions listed
here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphhardy"

# callee -> (modules where any call is allowed, "module.function" allowed)
ALLOWED = {
    "markov_matrix": ({"operators"}, {"tentspace.horner_synthesis"}),
    "has_oracle": (set(), {"calculus.phi_apply", "calculus._mean_zero_radius",
                           "quadratic.lusin_tail_bound"}),
    "spectral": ({"calculus"}, {"quadratic.lusin_tail_bound"}),
    "_cone_accumulate": (set(), {"quadratic.lusin", "quadratic.lusin_tilde",
                                 "quadratic.tent_functional"}),
    # the decomposition works on per-vertex tent depths, never on masks
    "tent_mask": (set(), {"tentspace.tent"}),
}


def _calls(tree, module):
    """(callee, "module.outer_function") for every call of a name in ALLOWED."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and where == module:
                inner = f"{module}.{child.name}"
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in ALLOWED:
                    out.append((name, inner))
            visit(child, inner)

    visit(tree, module)
    return out


def _all_calls():
    out = []
    for path in sorted(SRC.glob("*.py")):
        out += _calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return out


def test_scanner_sees_calls():
    found = _all_calls()
    assert ("markov_matrix", "tentspace.horner_synthesis") in found
    assert ("has_oracle", "quadratic.lusin_tail_bound") in found
    assert ("_cone_accumulate", "quadratic.lusin_tilde") in found
    assert ("tent_mask", "tentspace.tent") in found


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_calls_stay_in_their_home(callee):
    modules, functions = ALLOWED[callee]
    stray = sorted({where for name, where in _all_calls() if name == callee
                    and where.split(".")[0] not in modules and where not in functions})
    assert stray == [], f"{callee}( called outside its home: {stray}"


def test_no_threads_in_the_package():
    # blocks, not worker pools: no module starts threads
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.stem, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.stem, node.module))
    assert ("riesz", "json") in imported
    stray = sorted((mod, name) for mod, name in imported
                   if name.split(".")[0] in ("concurrent", "threading"))
    assert stray == [], f"thread imports in the package: {stray}"
