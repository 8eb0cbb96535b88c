"""One home per decision: the raw Markov matrix and the counted step
that multiplies by it (hence every P^l loop, the Horner scan included),
the level walk, the kernel chains, the chunked walk on them and scipy's
kernels that run them, the Chebyshev walk and its certified interval,
the Chebyshev interpolant and its column cache, the oracle/series
choice, the spectral oracle, the spectrum record, the series object,
the Horner scan, the tail's symbols, the reproducing error, the cone
sum, the Lusin terms, the ball matrices, the breadth-first set search,
the annulus ring table, the level-set depths, the bz1 block, the
molecular pipeline body, the molecule validator's rederivation, size
table and report, and the kernel error may be reached only from the
modules and functions listed here; the exact Delta^k step, the bz1
block, the pipeline body, the ring table and the depths are defined
once; every operator reaches `phi_apply` as a symbol, never as a
lambda; every module-level definition is read by a package module (the
CLI and the fixtures included) as a bare name or as an attribute of a
module, `self` or `cls`, an export or a field of the same name being no
caller, unless UNCALLED gives it a reason, and every method and
property of a package class is read as an attribute by a package module
unless UNREAD gives it a reason; scipy's private sparse
kernels are imported by `operators` alone, no module imports threads,
`hardy` imports nothing of `riesz`, and no module imports a private
name of another.

The member check has two blind spots.  It leaves dunder methods to
Python, so an operator method that nothing uses (an
`EdgeFunction.__truediv__`, say) passes it.  And it matches members by
name alone, so a member counts as read when an attribute of that name
is loaded from any object.  `SpaceTimeEntries.values` passes through
the second: the package loads the `values` fields of
`SpaceTimeFunction` and `TentAtom`, never that property.  It stays
because the synthesis hook of `perfbench/tracing.py` and the tests
read it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphhardy"

# callee -> (modules where any call is allowed, "module.function" allowed)
ALLOWED = {
    # every product with the matrix is counted: it is read by the counted
    # step, by the chain builder of the level walk (which `heat_sweep`
    # and the Horner scan consume) and of the Chebyshev
    # recurrence, and by the Gershgorin interval, which makes no product
    "markov_matrix": (set(), {"operators.markov_step", "operators._chain",
                              "operators.spectral_interval"}),
    "markov_step": ({"operators"}, set()),
    # every stored P^l f is read from the walks and every exact Delta^k
    # is `operators.delta_steps`; the one other site applies another
    # polynomial in P, the synthesis factor (I + P)^eta
    "apply_P": ({"operators"}, {"tentspace.horner_synthesis"}),
    # one bz1, combining a table of stored powers, for the BMO sup and the
    # Riesz molecule suite
    "bz1_block": (set(), {"hardy.bmo_norm", "riesz.molecule_suite"}),
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
    "spectral_interval": (set(), {"calculus.series", "calculus.spectrum"}),
    # every column interpolates its symbol in `Symbol.column`, and is
    # built, memoized, by the series object alone
    "chebyshev_series": (set(), {"calculus.column"}),
    "_column": (set(), {"calculus.series"}),
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
                         "calculus.reproducing_l_max"}),
    # the error of a reproducing sum stopped at K has one home: the
    # horizon search and the tail's symbols read it in `calculus`
    "_reproducing_error": ({"calculus"}, set()),
    # the series path is reached through `phi_apply` and the certified
    # series objects of `calculus.series`
    "SeriesOperator": ({"calculus"}, set()),
    # every cone sum runs through one function, which the Lusin function
    # feeds with its one walk of the block
    "_cone_columns": (set(), {"quadratic.lusin", "quadratic.lusin_tilde",
                              "quadratic.tent_functional_of_terms"}),
    # the Horner scan reads stored levels only, in the synthesis, and no
    # tail is walked
    "horner": (set(), {"tentspace.horner_synthesis"}),
    # the tail's symbols are applied by the tail alone: its Lusin mass
    # and its share of a synthesis
    "LusinTail": (set(), {"quadratic.mass"}),
    "SynthesisTail": (set(), {"quadratic.share"}),
    # the Lusin terms F^2 / (l + 1) are squared once: the tent functional
    # sums them over cones, and the decomposition also over its runs
    "lusin_terms": (set(), {"quadratic.tent_functional", "tentspace.atomic_decompose"}),
    # ball matrices are grown one radius at a time by the BMO sup only
    "ball_matrices": (set(), {"hardy.bmo_norm"}),
    # the set distance serves gaffney and the parity test of a loop-free
    # graph, and reads `dist` rows when the graph holds them; no tent depth
    # is searched for
    "distance_to": (set(), {"graphs.set_distance", "graphs.aperiodic"}),
    # one breadth-first search, run by the set distance when `dist` is not
    # built and by the connectivity check of a new graph
    "_search": (set(), {"graphs.distance_to", "graphs.__init__"}),
    # the 2^j R thresholds of the annuli have one reader: the size table
    # of `hardy`
    "annulus_rings": (set(), {"hardy._size_table"}),
    # every tent depth d(., O^c) is read from one running minimum of `dist`
    "level_set_depths": ({"tentspace"}, set()),
    # validation is one mode: the block validator rederives a and reads
    # the size table (which the stage also reads for its excess); the one
    # report is made for the one molecule a caller validates
    "rederive_molecules": (set(), {"hardy._validate_block"}),
    "_size_table": (set(), {"hardy._validate_block", "hardy.synthesize_molecules"}),
    "ValidationReport": (set(), {"hardy.validate_molecule"}),
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


@pytest.fixture(scope="module")
def trees():
    """module name -> its parsed source, the package parsed once for all
    cases."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


@pytest.fixture(scope="module")
def calls(trees):
    """Every call of `_calls` in the package."""
    return [call for module, tree in trees.items() for call in _calls(tree, module)]


def test_scanner_sees_calls(calls):
    assert ("markov_matrix", "operators._chain") in calls
    assert ("_chain", "operators._kernel") in calls
    assert ("_kernel_step", "operators.markov_step") in calls
    assert ("_chain_blocks", "operators.horner") in calls
    assert ("_kernel", "operators._chain_blocks") in calls
    assert ("_chain_blocks", "operators.level_blocks") in calls
    assert ("_chain_blocks", "operators.chebyshev_blocks") in calls
    assert ("markov_matrix", "operators.spectral_interval") in calls
    assert ("csr_matvecs", "operators._kernel_step") in calls
    assert ("chebyshev_blocks", "calculus.apply") in calls
    assert ("spectral_interval", "calculus.series") in calls
    assert ("chebyshev_series", "calculus.column") in calls
    assert ("_column", "calculus.series") in calls
    assert ("markov_step", "operators.apply_P") in calls
    assert ("apply_P", "operators.delta_steps") in calls
    assert ("apply_P", "tentspace.horner_synthesis") in calls
    assert ("bz1_block", "hardy.bmo_norm") in calls
    assert ("bz1_block", "riesz.molecule_suite") in calls
    assert ("_decompose", "hardy.molecular_decompose") in calls
    assert ("_decompose", "hardy.form_molecular_decompose") in calls
    assert ("has_oracle", "calculus.spectrum") in calls
    assert ("spectral", "calculus.spectrum") in calls
    assert ("_certify", "calculus.spectrum") in calls
    assert ("spectrum", "hardy._decompose") in calls
    assert ("spectrum", "calculus.reproducing_l_max") in calls
    assert ("_reproducing_error", "calculus.reproducing_l_max") in calls
    assert ("spectral", "calculus.phi_apply") in calls
    assert ("SeriesOperator", "calculus.series") in calls
    assert ("level_blocks", "quadratic._level_square_sums") in calls
    assert ("_cone_columns", "quadratic.lusin_tilde") in calls
    assert ("_cone_columns", "quadratic.tent_functional_of_terms") in calls
    assert ("lusin_terms", "tentspace.atomic_decompose") in calls
    assert ("ball_matrices", "hardy.bmo_norm") in calls
    assert ("distance_to", "graphs.set_distance") in calls
    assert ("distance_to", "graphs.aperiodic") in calls
    assert ("_search", "graphs.distance_to") in calls
    assert ("_search", "graphs.__init__") in calls
    assert ("annulus_rings", "hardy._size_table") in calls
    assert ("level_set_depths", "tentspace.atomic_decompose") in calls
    assert ("rederive_molecules", "hardy._validate_block") in calls
    assert ("_size_table", "hardy.synthesize_molecules") in calls
    assert ("ValidationReport", "hardy.validate_molecule") in calls
    assert ("KernelComponent", "calculus.require_mean_zero") in calls
    assert ("horner", "tentspace.horner_synthesis") in calls
    assert ("LusinTail", "quadratic.mass") in calls
    assert ("SynthesisTail", "quadratic.share") in calls
    assert ("_cone_columns", "quadratic.lusin") in calls


@pytest.mark.parametrize("callee", sorted(ALLOWED))
def test_calls_stay_in_their_home(callee, calls):
    modules, functions = ALLOWED[callee]
    stray = sorted({where for name, where in calls if name == callee
                    and where.split(".")[0] not in modules and where not in functions})
    assert stray == [], f"{callee}( called outside its home: {stray}"


# module-level definitions that no package module reads, each with why it
# stays; an entry for an open item goes when that item lands
UNCALLED = {
    "quadratic.lusin_tilde": "the paper's linear-cone square function (item 25)",
    "quadratic.g_littlewood": "the paper's Littlewood-Paley g-function (item 25)",
    "quadratic.quad_norm_forms": "the paper's quadratic norm of 1-forms",
    "quadratic.tent_functional": "the paper's tent functional A F, whose L^1 norm is the "
                                 "T^1 norm; the decomposition sums its Lusin terms itself",
    "hardy.duality_pairing": "the H^1-BMO pairing of a decomposition (item 21)",
    "hardy.form_molecular_decompose": "the molecular pipeline of 1-forms (item 20)",
    "hardy.validate_molecule": "the paper's molecule conditions on one molecule; "
                               "the benchmark traces it",
    "riesz.riesz": "the paper's Riesz transform of one function; the benchmark traces it",
    "hardy.make_molecule_from_tent_atom": "traced by the benchmark harness (item 2)",
    "operators.thread_cap": "the benchmark's run metadata reads it as riesz.thread_cap "
                            "(item 17)",
}


def _references(tree, modules):
    """Every name a module reads, as a bare name or as an attribute of a
    package module, `self` or `cls`, outside the module-level definition
    of that same name (so recursion is no caller).  An attribute of any
    other object, a dataclass field such as `tdec.t1_norm` say, reads no
    module-level name."""
    owners = set(modules) | {"self", "cls"}
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in owners):
                name = node.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_every_definition_has_a_caller(trees):
    # what nothing in the package reaches is not kept: every module-level
    # function and class is read by a package module (the CLI and the
    # fixtures of `zoo` included), unless UNCALLED gives it a reason; an
    # export in `__init__` is no caller
    reached = set().union(*(_references(tree, trees) for module, tree in trees.items()
                            if module != "__init__"))
    uncalled = {f"{module}.{node.name}" for module, tree in trees.items()
                if module not in ("zoo", "cli") for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in reached}
    assert uncalled == set(UNCALLED), (f"no caller: {sorted(uncalled - set(UNCALLED))}; "
                                       f"called now: {sorted(set(UNCALLED) - uncalled)}")


# methods and properties of package classes that no package module reads,
# each with why it stays
UNREAD = {}


def _members(tree):
    """(class name, definition) of every method and property of the
    module's classes, dunder methods (which Python calls itself) aside."""
    return [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_member_is_read(trees):
    # what nothing in the package reaches is not kept, members included:
    # every method and property of a package class is loaded as an
    # attribute, of any object, by some package module outside its own
    # definition (so recursion is no reader), unless UNREAD gives it a
    # reason; an export in `__init__` is no reader
    loads = [node for module, tree in trees.items() if module != "__init__"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = set()
    for module, tree in trees.items():
        for cls, member in _members(tree):
            own = {id(node) for node in ast.walk(member)}
            if not any(node.attr == member.name and id(node) not in own for node in loads):
                unread.add(f"{module}.{cls}.{member.name}")
    assert unread == set(UNREAD), (f"never read: {sorted(unread - set(UNREAD))}; "
                                   f"read now: {sorted(set(UNREAD) - unread)}")


def test_member_scanner_sees_members(trees):
    # the scan reaches methods, properties and cached properties, and
    # leaves dunder methods to Python
    found = {f"{cls}.{node.name}" for tree in trees.values() for cls, node in _members(tree)}
    assert {"SpaceTimeEntries.rows", "SpaceTimeEntries.values", "WeightedGraph.dist",
            "ProfileTail.mass", "ProfileTail.share", "Molecule.graph"} <= found
    assert not any(name.endswith(".__post_init__") for name in found)


def test_steps_and_pipeline_have_one_definition():
    # the exact step Delta^k, the bz1 block, the pipeline body, the
    # annulus ring table and the level-set depths are each defined once,
    # in their home module
    homes = {"delta_steps": "operators", "bz1_block": "calculus", "_decompose": "hardy",
             "annulus_rings": "graphs", "level_set_depths": "graphs"}
    defined = sorted((node.name, path.stem) for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name in homes)
    assert defined == sorted(homes.items())


def test_phi_apply_takes_no_lambda():
    # an operator reaches the oracle/series choice as one frozen symbol,
    # whose values and column are described once, never as a callable
    # built at the call site
    calls = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "phi_apply"]
    assert len(calls) >= 5
    stray = [ast.unparse(node) for node in calls
             if any(isinstance(arg, ast.Lambda)
                    for arg in node.args + [k.value for k in node.keywords])]
    assert stray == [], f"lambdas passed to phi_apply: {stray}"


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
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    imported.add((path.stem, node.module))
                # `from . import b` names b alone
                prefix = f"{node.module}." if node.module else ""
                imported.update((path.stem, prefix + a.name) for a in node.names)
    return imported


def test_sparse_kernels_are_imported_by_operators_alone():
    # the private CSR kernel is bound in one place, so a scipy upgrade
    # that changes it breaks one function (and its property test)
    imported = _imports()
    assert ("operators", "scipy.sparse._sparsetools") in imported
    stray = sorted((mod, name) for mod, name in imported if mod != "operators"
                   and name.startswith("scipy.sparse._sparsetools"))
    assert stray == [], f"_sparsetools imported outside operators: {stray}"


def test_hardy_imports_nothing_of_riesz():
    # the exactness test of a 1-form lives in the forms pipeline, so the
    # molecule layer reads nothing of the Riesz transform above it
    imported = _imports()
    assert ("__init__", "riesz") in imported
    stray = sorted(name for mod, name in imported
                   if mod == "hardy" and "riesz" in name.split("."))
    assert stray == [], f"hardy imports from riesz: {stray}"


def test_no_module_imports_threads():
    # the package runs on the calling thread: scipy's CSR kernels hold
    # the GIL, so a pool of them would take turns on one core
    stray = sorted((mod, name) for mod, name in _imports()
                   if name.split(".")[0] in ("concurrent", "threading"))
    assert stray == [], f"thread imports: {stray}"


def test_no_private_names_cross_modules():
    # a module reads another's facts through its public names only:
    # lambda_star, say, through `calculus.spectrum`
    stray = sorted((path.stem, node.module, a.name) for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.ImportFrom) and node.level
                   for a in node.names if a.name.startswith("_"))
    assert stray == [], f"private names imported across modules: {stray}"
