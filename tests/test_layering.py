"""One home per decision: the raw Markov matrix and the counted step
that multiplies by it (hence every P^l loop, the Horner scan included),
the level walk, the oracle/series choice, the spectral oracle, the
series object, the cone sum, the dense tent mask, the ball matrices, the
molecule validator's rederivation, size table and report, and the
kernel error may be reached only from the modules and functions listed
here; scipy's private sparse kernels are imported by `operators`
alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphhardy"

# callee -> (modules where any call is allowed, "module.function" allowed)
ALLOWED = {
    # every product with the matrix is counted: it is read by the counted
    # step, the level walk (which `powers` and `weighted_powers` consume)
    # and the Horner scan, and by `kernel` for its sparse-sparse products
    # alone
    "markov_matrix": (set(), {"operators.markov_step", "operators.level_blocks",
                              "operators.horner", "operators.kernel"}),
    "markov_step": ({"operators"}, set()),
    # the square functions and the Riesz transform read every P^l f from
    # the walks
    "apply_P": ({"operators", "calculus", "hardy", "tentspace"}, set()),
    "_kernel_step": (set(), {"operators.markov_step", "operators.level_blocks",
                             "operators.horner"}),
    # every P^l f outside `operators` is read from its walks, except the
    # cone sum's squared chunks
    "level_blocks": ({"operators"}, {"quadratic._level_square_sums"}),
    "has_oracle": (set(), {"calculus.phi_apply", "calculus._mean_zero_radius",
                           "quadratic.lusin_tail_bound"}),
    # the oracle applies operators only through the one oracle/series
    # choice; it is read elsewhere for lambda_star and the tail bound
    "spectral": (set(), {"calculus.phi_apply", "calculus._mean_zero_radius",
                         "quadratic.lusin_tail_bound"}),
    # the series path is reached through `phi_apply` and the certified
    # series objects of `calculus`
    "SeriesOperator": ({"calculus"}, set()),
    "_cone_accumulate": (set(), {"quadratic.lusin", "quadratic.lusin_tilde",
                                 "quadratic.tent_functional"}),
    # the decomposition works on per-vertex tent depths, never on masks
    "tent_mask": (set(), {"tentspace.tent"}),
    # ball matrices are grown one radius at a time by the BMO sup only
    "ball_matrices": (set(), {"hardy.bmo_norm"}),
    # validation is one mode: the block validator rederives a, reads the
    # size table (which the stage also reads for its excess) and makes
    # every report
    "rederive_molecules": (set(), {"hardy._validate_block"}),
    "_size_table": (set(), {"hardy._validate_block", "hardy.synthesize_molecules"}),
    "ValidationReport": (set(), {"hardy._validate_block"}),
    # the kernel rule has one check: symbols are finite on the spectrum,
    # so only the mean-zero test raises for a constant part
    "KernelComponent": (set(), {"calculus.require_mean_zero"}),
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
    assert ("markov_matrix", "operators.horner") in found
    assert ("_kernel_step", "operators.horner") in found
    assert ("_kernel_step", "operators.level_blocks") in found
    assert ("markov_step", "operators.apply_P") in found
    assert ("has_oracle", "quadratic.lusin_tail_bound") in found
    assert ("spectral", "calculus.phi_apply") in found
    assert ("SeriesOperator", "calculus.delta_power_series") in found
    assert ("level_blocks", "quadratic._level_square_sums") in found
    assert ("_cone_accumulate", "quadratic.lusin_tilde") in found
    assert ("tent_mask", "tentspace.tent") in found
    assert ("ball_matrices", "hardy.bmo_norm") in found
    assert ("rederive_molecules", "hardy._validate_block") in found
    assert ("_size_table", "hardy.synthesize_molecules") in found
    assert ("ValidationReport", "hardy._validate_block") in found
    assert ("KernelComponent", "calculus.require_mean_zero") in found


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_calls_stay_in_their_home(callee):
    modules, functions = ALLOWED[callee]
    stray = sorted({where for name, where in _all_calls() if name == callee
                    and where.split(".")[0] not in modules and where not in functions})
    assert stray == [], f"{callee}( called outside its home: {stray}"


def _imports():
    """(module, imported dotted name) for every import in the package;
    `from a import b` gives both a and a.b."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.stem, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.stem, node.module))
                imported.update((path.stem, f"{node.module}.{a.name}") for a in node.names)
    return imported


def test_sparse_kernels_are_imported_by_operators_alone():
    # the private CSR kernel is bound in one place, so a scipy upgrade
    # that changes it breaks one function (and its property test)
    imported = _imports()
    assert ("operators", "scipy.sparse._sparsetools") in imported
    stray = sorted((mod, name) for mod, name in imported if mod != "operators"
                   and name.startswith("scipy.sparse._sparsetools"))
    assert stray == [], f"_sparsetools imported outside operators: {stray}"


def test_no_threads_in_the_package():
    # blocks, not worker pools: no module starts threads
    imported = _imports()
    assert ("riesz", "json") in imported
    stray = sorted((mod, name) for mod, name in imported
                   if name.split(".")[0] in ("concurrent", "threading"))
    assert stray == [], f"thread imports in the package: {stray}"
