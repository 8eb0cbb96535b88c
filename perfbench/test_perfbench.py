"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

The last tests run every workload once, shortened, as child processes.
"""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchstats  # noqa: E402
import tracing  # noqa: E402


def test_self_time_of_nested_spans_adds_up_to_the_root():
    # (id, name, start, end, parent)
    spans = [
        (0, "job", 0.0, 10.0, None),
        (1, "hardy.a", 1.0, 4.0, 0),
        (2, "operators.b", 2.0, 3.0, 1),
        (3, "calculus.c", 5.0, 9.0, 0),
    ]
    selfs, overlaps = benchstats.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(overlaps.values()) == 0.0
    per_layer, remainder, overlap, job = benchstats.accounting(
        spans, ("hardy", "operators", "calculus"))
    assert per_layer == {"hardy": 2.0, "operators": 1.0, "calculus": 4.0}
    assert remainder == 3.0 and job == 10.0
    assert sum(per_layer.values()) + remainder - overlap == job


def test_concurrent_children_are_reported_as_overlap():
    spans = [
        (0, "job", 0.0, 10.0, None),
        (1, "riesz.pool", 1.0, 9.0, 0),
        (2, "riesz.t", 1.0, 6.0, 1),
        (3, "riesz.t", 2.0, 8.0, 1),
    ]
    selfs, overlaps = benchstats.self_times(spans)
    assert selfs[1] == pytest.approx(1.0)  # 8 s span, children cover 1..8
    assert overlaps[1] == pytest.approx(4.0)  # 11 s of children over 7 s
    per_layer, remainder, overlap, job = benchstats.accounting(spans, ("riesz",))
    assert per_layer["riesz"] + remainder - overlap == pytest.approx(job)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert benchstats.tail(range(1, 21)) == (10, 50.0, 20)
    value, pct, n = benchstats.tail([float(x) for x in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10
    assert benchstats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert benchstats.tail(range(11)) == (0, 100.0 / 11, 11)


def test_counting_matrix_counts_a_k_column_block_as_k_columns_and_one_call():
    tracer = tracing.Tracer()
    W = sp.random(30, 30, density=0.2, random_state=1, format="csr")
    C = tracing.counting_matrix(W, tracer)
    X = np.random.default_rng(0).standard_normal((30, 7))
    np.testing.assert_array_equal(C @ X, W @ X)
    assert (tracer.counts["matvec_calls"], tracer.counts["matvec_cols"]) == (1, 7)
    np.testing.assert_array_equal(C @ X[:, 0], W @ X[:, 0])
    C @ X[:, :1]
    assert (tracer.counts["matvec_calls"], tracer.counts["matvec_cols"]) == (3, 9)


def test_pool_spans_take_parent_and_job_from_the_owner():
    tracer = tracing.Tracer()
    tracer.job = 5
    with tracer.span("riesz.owner") as owner:
        tracer.adopt(owner, tracer.job)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: tracer.close(tracer.open("riesz.work")), range(4)))
        tracer.adopt(None, None)
    work = [s for s in tracer.spans if s[1] == "riesz.work"]
    assert len(work) == 4
    assert all(s[4] == owner and s[5] == 5 for s in work)
    assert threading.current_thread() is threading.main_thread()


def test_install_wraps_every_alias_and_uninstall_restores_them():
    import graphhardy
    from graphhardy import hardy, tentspace
    original = tentspace.atomic_decompose
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert hardy.atomic_decompose is tentspace.atomic_decompose
        assert graphhardy.atomic_decompose is tentspace.atomic_decompose
        assert tentspace.atomic_decompose is not original
    finally:
        uninstall()
    assert hardy.atomic_decompose is original
    assert graphhardy.atomic_decompose is original


def _run(workload, trace, seconds="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["molecular", "analysis", "series"])
def test_one_cycle_of_each_workload_passes_every_check(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_traced_counters_repeat_across_runs():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a, b = _run("analysis", 1), _run("analysis", 1)
    assert a["correct"] and b["correct"]
    assert {k: v["unit"] for k, v in a["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        if m["unit"] in ("count", "cols/call"):
            assert a["metrics"][m["name"]] == b["metrics"][m["name"]], m["name"]
