"""One home per decision: the raw Markov matrix and the counted step
that multiplies by it (hence every P^l loop, the Horner scan included),
the level walk, the kernel chains, the chunked walk on them and scipy's
kernels that run them, the Chebyshev walk and its certified interval,
the oracle/series choice, the spectral oracle, the spectrum record, the
series object, the cone sum, the Lusin terms, the dense tent mask, the
ball matrices, the bz1 product, the molecular pipeline body, the
molecule validator's rederivation, size table and report, and the
kernel error may be reached only from the modules and functions listed
here; the exact Delta^k step and the pipeline body are defined once;
scipy's private sparse kernels are imported by `operators` alone, and
no module imports a private name of another."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphhardy"

# callee -> (modules where any call is allowed, "module.function" allowed)
ALLOWED = {
    # every product with the matrix is counted: it is read by the counted
    # step, by the chain builder of the level walk (which `powers`,
    # `weighted_powers` and the Horner scan consume) and of the Chebyshev
    # recurrence, by `kernel` for its sparse-sparse products alone, and
    # by the Gershgorin interval, which makes no product
    "markov_matrix": (set(), {"operators.markov_step", "operators._chain",
                              "operators.kernel", "operators.spectral_interval"}),
    "markov_step": ({"operators"}, set()),
    # the square functions and the Riesz transform read every P^l f from
    # the walks, and every exact Delta^k is `operators.delta_steps`; the
    # other sites apply other polynomials in P: the bz1 product P^t, the
    # bz2 pre-image (I + s Delta)/s and the synthesis factor (I + P)^eta
    "apply_P": ({"operators"}, {"calculus.bz1_product", "hardy._pre_images",
                                "tentspace.horner_synthesis"}),
    # one bz1 product for the strict generator and the lenient validator
    "bz1_product": (set(), {"calculus.a_s", "hardy.rederive_molecules"}),
    # one molecular pipeline body for functions and forms
    "_decompose": (set(), {"hardy.molecular_decompose", "hardy.form_molecular_decompose"}),
    "_kernel_step": (set(), {"operators.markov_step"}),
    # scipy's kernel bound to the graph's chain once per walk, by the one
    # chunked walk, whose products it counts
    "_kernel": (set(), {"operators._chain_blocks"}),
    # one chunked walk, with its buffer and carry, for the level walk, the
    # Chebyshev walk and the Horner scan (a level walk into pre-filled rows)
    "_chain_blocks": (set(), {"operators.level_blocks", "operators.chebyshev_blocks",
                              "operators.horner"}),
    # a chain is read only by the binder that never passes the kernel more
    # steps than the chain holds (the kernel checks no bounds)
    "_chain": (set(), {"operators._kernel"}),
    # scipy's kernels are called by name only in the counted step and the
    # cone sum; every chain runs them through the binding of `_kernel`
    "csr_matvec": (set(), {"operators._kernel_step", "operators.cone_gather"}),
    "csr_matvecs": (set(), {"operators._kernel_step", "operators.cone_gather"}),
    # every series is walked by the chained recurrence in `apply`, on the
    # interval certified on the series path only
    "chebyshev_blocks": (set(), {"calculus.apply"}),
    "spectral_interval": (set(), {"calculus.phi_apply", "calculus.delta_power_series",
                                  "calculus.resolvent_frac_series", "calculus.spectrum"}),
    # every P^l f outside `operators` is read from its walks, except the
    # cone sum's squared chunks
    "level_blocks": ({"operators"}, {"quadratic._level_square_sums"}),
    # the oracle has two homes: it applies operators only through the
    # one oracle/series choice, and gives lambda_star only to the
    # spectrum record
    "has_oracle": (set(), {"calculus.phi_apply", "calculus.spectrum"}),
    "spectral": (set(), {"calculus.phi_apply", "calculus.spectrum"}),
    # lambda_star is read from the one spectrum record, which is built
    # from the oracle or certified by spectrum slicing
    "_certify": (set(), {"calculus.spectrum"}),
    "_negative_pivots": (set(), {"calculus._certify"}),
    "spectrum": (set(), {"calculus._deflated", "hardy._decompose",
                         "tentspace.reproducing_l_max", "quadratic.lusin_tail_bound"}),
    # the series path is reached through `phi_apply` and the certified
    # series objects of `calculus`
    "SeriesOperator": ({"calculus"}, set()),
    "_cone_accumulate": (set(), {"quadratic.lusin", "quadratic.lusin_tilde",
                                 "quadratic.tent_functional_of_terms"}),
    # the Lusin terms F^2 / (l + 1) are squared once: the tent functional
    # sums them over cones, and the decomposition also over its runs
    "lusin_terms": (set(), {"quadratic.tent_functional", "tentspace.atomic_decompose"}),
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
    assert ("markov_matrix", "operators._chain") in found
    assert ("_chain", "operators._kernel") in found
    assert ("_kernel_step", "operators.markov_step") in found
    assert ("_chain_blocks", "operators.horner") in found
    assert ("_kernel", "operators._chain_blocks") in found
    assert ("_chain_blocks", "operators.level_blocks") in found
    assert ("_chain_blocks", "operators.chebyshev_blocks") in found
    assert ("markov_matrix", "operators.spectral_interval") in found
    assert ("csr_matvecs", "operators._kernel_step") in found
    assert ("chebyshev_blocks", "calculus.apply") in found
    assert ("spectral_interval", "calculus.phi_apply") in found
    assert ("markov_step", "operators.apply_P") in found
    assert ("apply_P", "operators.delta_steps") in found
    assert ("apply_P", "calculus.bz1_product") in found
    assert ("apply_P", "hardy._pre_images") in found
    assert ("apply_P", "tentspace.horner_synthesis") in found
    assert ("bz1_product", "calculus.a_s") in found
    assert ("bz1_product", "hardy.rederive_molecules") in found
    assert ("_decompose", "hardy.molecular_decompose") in found
    assert ("_decompose", "hardy.form_molecular_decompose") in found
    assert ("has_oracle", "calculus.spectrum") in found
    assert ("spectral", "calculus.spectrum") in found
    assert ("_certify", "calculus.spectrum") in found
    assert ("spectrum", "hardy._decompose") in found
    assert ("spectrum", "quadratic.lusin_tail_bound") in found
    assert ("spectral", "calculus.phi_apply") in found
    assert ("SeriesOperator", "calculus.delta_power_series") in found
    assert ("level_blocks", "quadratic._level_square_sums") in found
    assert ("_cone_accumulate", "quadratic.lusin_tilde") in found
    assert ("lusin_terms", "tentspace.atomic_decompose") in found
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


def test_steps_and_pipeline_have_one_definition():
    # the exact step Delta^k, the bz1 product and the pipeline body are
    # each defined once, in their home module
    homes = {"delta_steps": "operators", "bz1_product": "calculus", "_decompose": "hardy"}
    defined = sorted((node.name, path.stem) for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name in homes)
    assert defined == sorted(homes.items())


def test_chains_are_built_in_one_place():
    # the graph's chain cache is created with the graph and filled and
    # read by `_chain` alone: no second chain builder
    touched = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in tree.body:
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "_chains":
                    touched.add(f"{path.stem}.{getattr(fn, 'name', '')}")
    assert touched == {"operators._chain", "graphs.WeightedGraph"}


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


def test_no_private_names_cross_modules():
    # a module reads another's facts through its public names only:
    # lambda_star, say, through `calculus.spectrum`
    stray = sorted((path.stem, node.module, a.name) for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.ImportFrom) and node.level
                   for a in node.names if a.name.startswith("_"))
    assert stray == [], f"private names imported across modules: {stray}"
