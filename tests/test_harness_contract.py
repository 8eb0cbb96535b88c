"""The benchmark harness in perfbench/ reaches into the package by name:
every name it reads must exist, so that removing or renaming one fails
here instead of as a failed benchmark run.  The harness's files are
parsed as text, never imported or changed."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

from graphhardy import calculus, graphs, hardy, riesz, zoo

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes of the harness's package object that are not graphhardy.<name>
SPECIAL = {"root": "graphhardy", "riesz_module": "graphhardy.riesz"}


def _module(name):
    return importlib.import_module(SPECIAL.get(name, f"graphhardy.{name}"))


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_harness_package_names_exist(name):
    text = (BENCH / name).read_text(encoding="utf-8")
    refs = sorted(set(re.findall(r"\bgh\.(\w+)\.(\w+)", text)))
    assert refs, f"no gh.<module>.<name> read in perfbench/{name}"
    missing = [f"gh.{m}.{a}" for m, a in refs if not hasattr(_module(m), a)]
    assert not missing, f"perfbench/{name} reads names the package lacks: {missing}"


def test_harness_result_fields_exist():
    # the result attributes that `check` and `checksums` read are fields
    # of the reports the jobs return, and each molecule's `a` one of Molecule
    text = (BENCH / "workloads.py").read_text(encoding="utf-8")
    reports = (hardy.MolecularDecomposition, hardy.BmoReport, calculus.GaffneyFit,
               riesz.RieszSuiteReport)
    fields = {f.name for report in reports for f in dataclasses.fields(report)}
    read = set(re.findall(r"\bresult\.(\w+)", text))
    assert {"coefficients", "entries", "max_chain_gap", "value"} <= read
    assert sorted(read - fields) == [], "perfbench/workloads.py reads result fields reports lack"
    molecule = set(re.findall(r"\bmol\.(\w+)", text))
    assert "a" in molecule
    assert molecule <= {f.name for f in dataclasses.fields(hardy.Molecule)}


def test_harness_modules_exist():
    # the modules the harness's package object imports by name
    (package,) = [c for c in ast.walk(_tree("run.py"))
                  if isinstance(c, ast.ClassDef) and c.name == "Package"]
    names = [n for loop in ast.walk(package) if isinstance(loop, ast.For)
             for n in ast.literal_eval(loop.iter)]
    assert "operators" in names
    for name in names:
        _module(name)


def test_tracing_names_exist():
    tree = _tree("tracing.py")
    (entry,) = [a.value for a in ast.walk(tree) if isinstance(a, ast.Assign)
                and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in a.targets)]
    for mod, attr in ast.literal_eval(entry):
        assert callable(getattr(_module(mod), attr, None)), f"{mod}.{attr}"
    # module attributes read in code (span names in strings do not count)
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("calculus", "graphs", "operators")}
    assert {("calculus", "SpectralOracle"), ("calculus", "SeriesOperator")} <= read
    for mod, attr in read:
        assert hasattr(_module(mod), attr), f"{mod}.{attr}"
    # the tracer subclasses the oracle and the series object, overriding
    # their constructor and apply, and wraps the graph's metric property
    assert list(inspect.signature(calculus.SpectralOracle).parameters) == ["g"]
    assert list(inspect.signature(calculus.SpectralOracle.apply).parameters) == ["self", "phi", "f"]
    assert list(inspect.signature(calculus.SeriesOperator.apply).parameters) == ["self", "f"]
    assert isinstance(calculus.SeriesOperator.truncation, property)
    assert isinstance(graphs.WeightedGraph.__dict__.get("dist"), property)
    g = zoo.lazy_cycle(4)
    assert hasattr(g, "_markov") and hasattr(g, "_dist")
