import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from oracles import save_vertex_csv

import graphhardy
from graphhardy import calculus, cli, graphs, hardy
from graphhardy.cli import main
from graphhardy.operators import random_mean_zero
from graphhardy.riesz import RieszSuiteEntry, riesz_h1_experiment
from graphhardy.zoo import k2l, lazy_cycle


@pytest.fixture
def f0_csv(tmp_path):
    path = tmp_path / "f0.csv"
    save_vertex_csv(k2l(), np.array([1.0, -1.0]), path)
    return str(path)


def test_geometry_json(capsys):
    assert main(["geometry", "k2l"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eps_LB"] == pytest.approx(0.5)
    assert payload["M0"] == 2


@pytest.mark.parametrize("report", ["gaffney", "geometry", "bmo", "riesz"])
def test_report_keys_follow_the_field_order(report):
    # a report serializes its own fields: the payload's keys are the
    # dataclass fields in their declared order
    g = lazy_cycle(16)
    f = random_mean_zero(g, np.random.default_rng(0))
    rep = {
        "gaffney": lambda: calculus.gaffney_fit(g, "heat", [8], [0], [2, 4, 8]),
        "geometry": lambda: graphs.geometry_report(g),
        "bmo": lambda: hardy.bmo_norm(g, f, "bz1", 1, 4),
        "riesz": lambda: riesz_h1_experiment(g, [("f", f), ("g", 2.0 * f)]),
    }[report]()
    # one line, from json's C encoder (no indent)
    assert "\n" not in rep.to_json()
    payload = json.loads(rep.to_json())
    assert list(payload) == [fld.name for fld in dataclasses.fields(rep)]
    if report == "riesz":
        names = [fld.name for fld in dataclasses.fields(RieszSuiteEntry)]
        assert [list(e) for e in payload["entries"]] == [names, names]


def test_quadnorm_k2l(capsys, f0_csv):
    assert main(["quadnorm", "k2l", "--f", f0_csv, "--beta", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out)["quad_norm"] == pytest.approx(4.0, abs=1e-11)


def test_gaffney_json_and_outputs(tmp_path, capsys):
    argv = ["gaffney", "lazy_torus_8", "--family", "heat",
            "--E", "4,4", "--F", "0,0", "--s", "4,8,16,32,64"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c"] > 0
    assert payload["eta"] == 1.0
    # csv and svg variants land in --out
    for fmt in ("csv", "svg"):
        code = main(["--out", str(tmp_path), "--format", fmt] + argv)
        assert code == 0
    assert (tmp_path / "gaffney.csv").read_text().startswith("s,ratio")
    assert (tmp_path / "gaffney.svg").read_text().startswith("<svg")


def test_decompose_cycle(tmp_path, capsys):
    g = lazy_cycle(16)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.n)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, f, path)
    assert main(["decompose", "lazy_cycle_16", "--f", str(path),
                 "--M", "1", "--beta", "1", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["l2_residual"] <= 1e-8
    assert payload["molecules"]


def test_bmo_command(capsys, f0_csv):
    assert main(["bmo", "k2l", "--f", f0_csv, "--kind", "bz1",
                 "--M", "1", "--smax", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(1.0, abs=1e-12)


def test_riesz_command(capsys):
    assert main(["riesz", "lazy_cycle_16", "--suite", "molecules", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_chain_gap"] <= 1e-10


def test_riesz_csv_reads_back(tmp_path, capsys):
    # molecule labels hold commas, bz1(s=1,x=0): every row still has the
    # header's width and starts with its entry's label
    argv = ["riesz", "lazy_cycle_16", "--n", "2"]
    assert main(argv) == 0
    labels = [e["label"] for e in json.loads(capsys.readouterr().out)["entries"]]
    assert main(["--out", str(tmp_path), "--format", "csv"] + argv) == 0
    with open(tmp_path / "riesz.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == [fld.name for fld in dataclasses.fields(RieszSuiteEntry)]
    assert any("," in label for label in labels)
    assert [len(row) for row in rows] == [len(header)] * len(labels)
    assert [row[0] for row in rows] == labels


def test_riesz_seed_reproduces_bytes(capsys):
    argv = ["--seed", "3", "riesz", "lazy_cycle_16", "--suite", "random", "--n", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("n, centres", [
    (5, [0, 3, 6, 9, 12]),
    (6, [0, 2, 5, 8, 10, 13]),
    (8, [0, 2, 4, 6, 8, 10, 12, 14]),
    (20, list(range(16))),
])
def test_riesz_n_runs_n_centres(capsys, n, centres):
    # --n N runs the min(N, n) centres i n // N, each at the suite's four
    # scales; where N divides n they are the evenly spaced ones
    assert main(["riesz", "lazy_cycle_16", "--n", str(n)]) == 0
    labels = [e["label"] for e in json.loads(capsys.readouterr().out)["entries"]]
    assert len(labels) == 4 * len(centres)
    assert sorted({int(label.split("x=")[1].rstrip(")")) for label in labels}) == centres


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-3"], ["--suite", "random", "--n", "0"]])
def test_riesz_n_below_one_is_refused(capsys, argv):
    # no centre step of zero, no silent run of every centre, no empty
    # report: a usage error naming --n, and nothing runs
    with pytest.raises(SystemExit) as exit_info:
        main(["riesz", "lazy_cycle_16"] + argv)
    assert exit_info.value.code == 2
    assert f"--n {argv[-1]}: expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_decompose_refuses_a_bad_tol(capsys, f0_csv, tol):
    assert main(["--tol", tol, "decompose", "k2l", "--f", f0_csv]) == 1
    assert "tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["quadnorm", "k2l", "--f", "F"], ["riesz", "lazy_cycle_16"]])
def test_a_negative_lmax_is_refused(capsys, f0_csv, argv):
    assert main(["--lmax", "-1"] + [f0_csv if a == "F" else a for a in argv]) == 1
    assert "l_max must be >= 0, not -1" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    assert main(["quadnorm", "k2l", "--f", "/nonexistent/f.csv"]) == 2


def test_vertex_csv_names_a_bad_line(tmp_path, capsys):
    # an unknown vertex label and a vertex listed twice are refused with
    # the label and the line, as a validation failure
    path = tmp_path / "f.csv"
    path.write_text("vertex,value\n0,1.0\n99,2.0\n")
    assert main(["quadnorm", "k2l", "--f", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 3: 99 is no vertex label" in err
    path.write_text("vertex,value\n0,1.0\n1,-1.0\n0,2.0\n")
    assert main(["quadnorm", "k2l", "--f", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 4: 0 is listed twice" in err
    # a malformed row is refused with its line too
    for row in ("0,1.0,2", "x,1.0", "1"):
        path.write_text(f"vertex,value\n1,1.0\n{row}\n")
        assert main(["quadnorm", "k2l", "--f", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"line 3: expected `vertex,value`, not {row!r}" in err


@pytest.mark.parametrize("argv", [["quadnorm"], ["decompose"], ["bmo", "--smax", "2"]])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_value_is_refused_with_its_line(tmp_path, capsys, argv, value):
    # a NaN or an infinity in `--f` is refused where it is read, with its
    # line, as a validation failure: no NaN payload, no overflow
    path = tmp_path / "f.csv"
    path.write_text(f"vertex,value\n0,1.0\n1,{value}\n")
    assert main([argv[0], "k2l", "--f", str(path)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}, line 3: {value} is not finite" in captured.err


@pytest.mark.parametrize("command", ["quadnorm", "decompose"])
@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_a_non_finite_beta_is_refused_by_name(tmp_path, capsys, command, beta):
    # --beta nan printed {"quad_norm": NaN} (quadnorm) or exited on a NaN
    # cast to an integer, and --beta inf ended in an OverflowError
    # traceback (decompose)
    g = lazy_cycle(16)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, random_mean_zero(g, np.random.default_rng(0)), path)
    assert main([command, "lazy_cycle_16", "--f", str(path), f"--beta={beta}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"beta must be finite, not {float(beta)!r}" in captured.err


@pytest.mark.parametrize("out", [False, True])
def test_a_non_finite_result_is_refused(tmp_path, capsys, out):
    # a finite beta can still give a NaN cone sum (P^l f of Delta^1e308 f
    # overflows): the payload is refused before it is printed or written
    g = lazy_cycle(16)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, random_mean_zero(g, np.random.default_rng(0)), path)
    argv = ["quadnorm", "lazy_cycle_16", "--f", str(path), "--beta", "1e308"]
    with np.errstate(all="ignore"):
        assert main((["--out", str(tmp_path / "out")] if out else []) + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the result holds NaN, not a finite number" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_emit_refuses_every_non_finite_payload(capsys, value):
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(ValueError, match="the result holds"):
        cli._emit(args, "x", json.dumps({"x": [1.0, value]}))
    assert capsys.readouterr().out == ""


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["geometry", "lazy_cycle_16"],
    ["gaffney", "lazy_cycle_16", "--E", "8", "--F", "0", "--s", "2,4,8"],
    ["quadnorm", "lazy_cycle_16", "--f", "F"],
    ["decompose", "lazy_cycle_16", "--f", "F"],
    ["bmo", "lazy_cycle_16", "--f", "F", "--smax", "4"],
    ["riesz", "lazy_cycle_16", "--n", "2"],
])
def test_every_payload_is_strict_json(tmp_path, capsys, argv):
    # NaN and Infinity are no JSON: every subcommand's payload parses with
    # a parse_constant that refuses them
    g = lazy_cycle(16)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, random_mean_zero(g, np.random.default_rng(0)), path)
    assert main([str(path) if a == "F" else a for a in argv]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)


def test_vertex_arguments_are_labels(tmp_path, capsys):
    # --E and --F name vertices by label, as graph files and --f CSVs do,
    # and a label or coordinate the graph lacks is refused by name
    path = tmp_path / "g.txt"
    path.write_text("10 20 1.0\n20 30 1.0\n10 10 1.0\n20 20 1.0\n30 30 1.0\n")
    argv = ["gaffney", str(path), "--family", "heat", "--s", "1,2,4"]
    assert main(argv + ["--E", "30", "--F", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["d_EF"] == 2.0
    assert main(argv + ["--E", "2", "--F", "0"]) == 1
    assert "vertex '2' is no vertex label" in capsys.readouterr().err
    for graph, E, why in (("lazy_torus_16", "0,20", "coordinate '0,20' is not two integers in [0, 16)"),
                          ("lazy_torus_16", "-1,3", "coordinate '-1,3' is not two"),
                          ("lazy_cycle_16", "-1", "vertex '-1' is no vertex label"),
                          ("lazy_cycle_16", "1,2", "coordinate '1,2' is not two integers in [0, 0)"),
                          ("lazy_torus_16", "1,2,3", "coordinate '1,2,3' is not two"),
                          ("lazy_cycle_16", "x", "vertex 'x' is not an integer")):
        argv = ["gaffney", graph, "--family", "heat", "--s", "1,2", f"--E={E}", "--F", "3"]
        assert main(argv) == 1, E
        assert why in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [["--E", "-1,3", "--F", "0,0"], ["--E=-1,3", "--F", "0,0"],
                                      ["--E", "0,0", "--F", "-1,3"], ["--F=-1,3", "--E", "0,0"]])
def test_a_leading_minus_reaches_the_vertex_parser(spelling, capsys):
    # a coordinate that starts with a minus is a value, not an option:
    # both spellings exit 1 naming it, none exits 2 with argparse's
    # "expected one argument"
    assert main(["gaffney", "lazy_torus_16", "--s", "1,2"] + spelling) == 1
    err = capsys.readouterr().err
    assert "coordinate '-1,3' is not two integers in [0, 16)" in err


@pytest.mark.parametrize("s", ["0..8", "1..x", "2.5,4", ""])
def test_a_bad_s_names_the_option(s, capsys):
    # a time list that is neither a range of positive integers nor a
    # comma list of integers exits 1 quoting --s and what it expects
    assert main(["gaffney", "lazy_cycle_16", "--E", "0", "--F", "5", "--s", s]) == 1
    err = capsys.readouterr().err
    assert f"--s {s!r}: expected a range a..b of integers 1 <= a, b, or a comma list" in err


def test_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1.0\n1 1 1.0\n")  # two components
    assert main(["geometry", str(bad)]) == 1


def test_nonconvergent_exit_code(tmp_path, capsys, f0_csv):
    g = lazy_cycle(16)
    f = np.random.default_rng(0).standard_normal(g.n)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, f, path)
    code = main(["--tol", "1e-30", "decompose", "lazy_cycle_16", "--f", str(path)])
    assert code == 3


def test_periodic_walk_exit_code(tmp_path, capsys):
    # a bipartite graph without loops has a periodic walk: refused with
    # the validation-failure code
    g_path = tmp_path / "square.txt"
    g_path.write_text("0 1 1.0\n1 2 1.0\n2 3 1.0\n3 0 1.0\n")
    f_path = tmp_path / "f.csv"
    f_path.write_text("vertex,value\n0,1.0\n1,0.0\n2,-1.0\n3,0.0\n")
    assert main(["decompose", str(g_path), "--f", str(f_path)]) == 1
    assert "periodic" in capsys.readouterr().err
    assert main(["quadnorm", str(g_path), "--f", str(f_path)]) == 1
    assert "periodic" in capsys.readouterr().err


def test_console_entry_point():
    # the child imports the package the suite imported, installed or not
    src = str(Path(graphhardy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphhardy.cli", "geometry", "k2l"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["M0"] == 2


def test_graph_file_input(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"edges": [[0, 0, 1], [1, 1, 1], [0, 1, 1]]}))
    assert main(["geometry", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2


def test_gaffney_rejects_M_below_one(capsys):
    argv = ["gaffney", "lazy_torus_8", "--family", "resolvent_diff",
            "--E", "4,4", "--F", "0,0", "--s", "2,4,8", "--M", "0"]
    assert main(argv) == 1
    assert "M must be >= 1" in capsys.readouterr().err


def test_above_the_oracle_cap_exit_code(monkeypatch, capsys, tmp_path):
    # above the cap riesz and a fractional quadnorm run on the certified
    # lambda_star, and agree with the oracle's result; a failed
    # certificate is refused as a validation failure
    g = lazy_cycle(16)
    path = tmp_path / "f.csv"
    save_vertex_csv(g, np.random.default_rng(0).standard_normal(g.n), path)
    argv = ["quadnorm", "lazy_cycle_16", "--f", str(path), "--beta", "0.5"]
    assert main(argv) == 0
    below = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == pytest.approx(below, rel=1e-8)
    assert main(["riesz", "lazy_cycle_16", "--n", "2"]) == 0
    capsys.readouterr()

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    assert main(["riesz", "lazy_cycle_16", "--n", "2"]) == 1
    assert "Lanczos estimate of lambda_star failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,option", [
    (["--lmax", "40", "decompose", "lazy_cycle_16", "--f", "F"], "--lmax"),
    (["--lmax", "40", "bmo", "k2l", "--f", "F"], "--lmax"),
    (["--tol", "1e-6", "quadnorm", "k2l", "--f", "F"], "--tol"),
    (["--tol", "1e-6", "riesz", "lazy_cycle_16"], "--tol"),
    (["--seed", "3", "decompose", "lazy_cycle_16", "--f", "F"], "--seed"),
    (["--seed", "3", "geometry", "k2l"], "--seed"),
    (["--seed", "3", "gaffney", "k2l", "--E", "0", "--F", "1"], "--seed"),
])
def test_global_option_a_subcommand_does_not_read_is_refused(capsys, argv, option):
    # a global option the subcommand never reads is a usage error naming
    # it, not dropped without a word; nothing runs
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"{option} is not read by {argv[2]}" in err


@pytest.mark.parametrize("argv", [
    ["--lmax", "8", "quadnorm", "k2l", "--f", "F"],
    ["--tol", "1e-6", "decompose", "k2l", "--f", "F"],
    ["--seed", "2", "bmo", "k2l", "--f", "F", "--smax", "2"],
])
def test_global_option_a_subcommand_reads_is_kept(capsys, f0_csv, argv):
    assert main([f0_csv if a == "F" else a for a in argv]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv,writes", [
    (["--format", "csv", "geometry", "lazy_cycle_16"], "json"),
    (["--format", "svg", "riesz", "lazy_cycle_16", "--n", "2"], "json, csv"),
    (["--format", "svg", "bmo", "k2l", "--f", "F"], "json"),
])
def test_format_a_subcommand_does_not_write_is_refused(tmp_path, capsys, argv, writes):
    # a --format the subcommand has no payload for is a usage error
    # naming what it writes, not a silent json file; nothing is written
    with pytest.raises(SystemExit) as exit_info:
        main(["--out", str(tmp_path)] + argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"--format {argv[1]} is not written by {argv[2]} (it writes {writes})" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,written", [
    (["--format", "csv", "riesz", "lazy_cycle_16", "--n", "2"], "riesz.csv"),
    (["--format", "json", "geometry", "lazy_cycle_16"], "geometry.json"),
])
def test_format_a_subcommand_writes_is_kept(tmp_path, capsys, argv, written):
    assert main(["--out", str(tmp_path)] + argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == [written]
    assert capsys.readouterr().out.strip() == str(tmp_path / written)


GAFFNEY_ARGV = ["gaffney", "lazy_torus_8", "--E", "4,4", "--F", "0,0", "--s", "4,8"]


@pytest.mark.parametrize("argv,written", [
    (["--format", "csv"] + GAFFNEY_ARGV, "gaffney.csv"),
    (["--format", "svg"] + GAFFNEY_ARGV, "gaffney.svg"),
    (["--format", "csv", "riesz", "lazy_cycle_16", "--n", "2"], "riesz.csv"),
])
def test_format_without_out_is_printed(tmp_path, capsys, argv, written):
    # without --out the payload --format names is printed, the one --out
    # writes, ending in one newline; json stays the default
    assert main(["--out", str(tmp_path)] + argv) == 0
    capsys.readouterr()
    want = (tmp_path / written).read_text(encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == want + ("" if want.endswith("\n") else "\n")
    assert main(argv[2:]) == 0
    json.loads(capsys.readouterr().out)


def test_scoped_option_defaults_reach_their_readers(monkeypatch, f0_csv):
    # without the options, their readers see the documented defaults
    seen = {}

    def record(args):
        seen.update(lmax=args.lmax, tol=args.tol, seed=args.seed)
        return 0

    monkeypatch.setattr("graphhardy.cli.cmd_decompose", record)
    assert main(["decompose", "k2l", "--f", f0_csv]) == 0
    assert seen == {"lmax": None, "tol": 1e-8, "seed": 0}
