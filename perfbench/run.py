"""graphhardy benchmark: one workload per run, one fresh process.

    python3 perfbench/run.py --workload molecular --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

A run imports the package from `src/` next to this directory, sets up the
workload's fixtures several times (reporting the median), then runs its
job cycle in a closed loop with one client: as many whole cycles as take
`--seconds` at the workload's nominal pace, so every run has the same
job mix.  End-to-end times are scaled to a reference machine pace (see
`benchstats.Pace`).  Each job's output is checked and its checksums are
compared with `reference.json`.  `--trace 0` prints the end-to-end metrics; `--trace 1`
instruments the package from outside and prints the per-layer metrics.
The last line of standard output is the JSON result.  `--workload all`
runs every workload untraced and traced in child processes and reports
the tracing overhead.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("molecular", "analysis", "series")
SETUPS = 3
MIN_TRACED_CYCLES = 2  # a traced run compares each job's counters across cycles
PACE_SETUP_SAMPLES = 3
PACE_EVERY_S = 0.5     # pace sample after a job once this long has passed
BLAS_THREADS = 1       # times the riesz pool (<= nproc workers) stays <= nproc
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def git_commit(root):
    """HEAD commit read from .git inside `root`, or None outside a checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Package:
    """The package's modules, looked up by attribute at call time so that
    trace wrappers installed later are the ones called."""

    def __init__(self):
        import graphhardy
        self.root = graphhardy
        for name in ("zoo", "graphs", "operators", "calculus", "quadratic",
                     "tentspace", "hardy", "cli"):
            setattr(self, name, importlib.import_module(f"graphhardy.{name}"))
        # `graphhardy.riesz` is the function; the module lives in sys.modules
        self.riesz_module = importlib.import_module("graphhardy.riesz")


def load_package():
    """Import graphhardy from this checkout's src/ and time it."""
    if not os.path.isfile(os.path.join(SRC, "graphhardy", "__init__.py")):
        raise SystemExit(f"error: no graphhardy package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    gh = Package()
    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(gh.root.__file__))
    if where != os.path.join(SRC, "graphhardy"):
        raise SystemExit(f"error: graphhardy imported from {where}, not {SRC}")
    return gh, import_s


def metadata(gh, args):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    cap = gh.riesz_module.thread_cap()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": nproc,
        "riesz_thread_cap": cap,
        "threads_within_nproc": BLAS_THREADS * cap <= nproc,
        "setups": SETUPS,
    }


def load_reference():
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def counter_snapshot(tracer, first_span):
    counts = dict(tracer.counts)
    for s in tracer.spans[first_span:]:
        counts[s[1]] = counts.get(s[1], 0) + 1
    return counts


def cycle_count(wl, args, traced):
    """Whole cycles that take `--seconds` at the workload's nominal pace.

    The count does not follow the clock: a shared virtual machine's speed
    can swing by 2x over minutes, and a count that followed it would
    change the job mix and with it the job type the order statistics
    land on.
    """
    nominal = math.ceil(args.seconds / wl.NOMINAL_CYCLE_S[args.workload])
    return max(nominal, MIN_TRACED_CYCLES if traced else 1)


def run_loop(gh, wl, args, fixtures, jobs, tracer, pace, reference):
    """Closed loop, one client, a fixed number of whole cycles of the job
    list.  Returns the job records, the loop's wall time without the pace
    samples taken in it, and the cycle count."""
    records = []
    pace_before = len(pace.samples) if pace else 0
    first_counts = {}
    start = time.perf_counter()
    cycles = cycle_count(wl, args, tracer is not None)
    for cycle in range(cycles):
        for job in jobs:
            idx = len(records)
            rec = {"i": idx, "cycle": cycle, "position": job.position,
                   "command": job.command, "fixture": job.fixture,
                   "label": job.label}
            if tracer is not None:
                tracer.job = idx
                before = dict(tracer.counts)
                first_span = len(tracer.spans)
                sid = tracer.open("job")
            t0 = time.perf_counter()
            try:
                result, payload = wl.run_job(gh, job, fixtures)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            rec["seconds"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(sid)
                tracer.job = None
                after = counter_snapshot(tracer, first_span)
                counts = {k: v - before.get(k, 0) for k, v in after.items()}
                counts.pop("job", None)
                rec["counters"] = counts
                if cycle == 0:
                    first_counts[job.position] = counts
                elif counts != first_counts[job.position]:
                    rec["counter_mismatch"] = True
            if error is None:
                fails = wl.check(gh, job, fixtures, result, payload)
                sums = wl.checksums(gh, job, fixtures, result)
                rec["checksums"] = sums
                want = reference.get(wl.reference_key(job, args.workload, args.seed))
                if want is None:
                    rec["reference"] = "missing"
                else:
                    diff = wl.compare(want, sums)
                    rec["reference"] = "mismatch" if diff else "match"
                    fails += [f"reference {d}" for d in diff]
            else:
                fails = [error]
            if rec.get("counter_mismatch"):
                fails.append("counters differ from cycle 0")
            rec["fails"] = fails
            rec["ok"] = not fails
            records.append(rec)
            status = "pass" if rec["ok"] else "FAIL " + "; ".join(fails)
            print(f"job {idx:4d} cycle {cycle} {job.command:9s} {job.fixture:14s} "
                  f"{job.label:15s} {rec['seconds']:.4f} s {status}", flush=True)
            if pace:
                pace.sample_every(PACE_EVERY_S)
    wall = time.perf_counter() - start
    if pace:
        wall -= sum(pace.samples[pace_before:])
    return records, wall, cycles


def e2e_metrics(records, wall, setup_s, pace):
    """End-to-end metrics, every time scaled to the reference pace."""
    import benchstats
    k = pace.factor()
    times = [k * r["seconds"] for r in records if r["ok"]] or [
        k * r["seconds"] for r in records]
    passed = sum(r["ok"] for r in records)
    tail_value, tail_pct, tail_n = benchstats.tail(times)
    metrics = {
        "setup_s": (k * setup_s, "s"),
        "jobs_per_s": (passed / (k * wall), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"pace_factor": (k, "ratio"),
             "pace_sample_s": (statistics.median(pace.samples), "s"),
             "failed_ratio": ((len(records) - passed) / len(records), "ratio"),
             "job_tail_percentile": (tail_pct, "%"),
             "job_samples": (tail_n, "count"),
             "job_mean_s": (statistics.fmean(times), "s")}
    for command in sorted({r["command"] for r in records}):
        xs = [k * r["seconds"] for r in records if r["command"] == command and r["ok"]]
        if xs:
            extra[f"{command}_p50_s"] = (statistics.median(xs), "s")
    return metrics, extra


def layer_metrics(tracer, records, setup_counts, thread_cap):
    """Per-layer metrics: the traced set-up's total plus the loop's total
    divided by the number of jobs (whole cycles, so a fixed job mix).
    Work done while generating inputs or checking outputs is excluded."""
    import benchstats
    import tracing
    jobs = len(records)
    setup_spans = [s for s in tracer.spans if s[5] == "setup"]
    loop_spans = [s for s in tracer.spans if isinstance(s[5], int)]
    loop_counts = {k: sum(r["counters"].get(k, 0) for r in records)
                   for k in tracing.COUNTERS}

    def total(name, field="seconds"):
        def agg(spans):
            sel = [s for s in spans if s[1] == name]
            if field == "calls":
                return len(sel)
            if field == "cols":
                return sum(s[6] for s in sel)
            return sum(s[3] - s[2] for s in sel)
        return agg(setup_spans) + agg(loop_spans) / jobs

    def count(key):
        return setup_counts[key] + loop_counts[key] / jobs

    cols, calls = count("matvec_cols"), count("matvec_calls")
    synth_cols = total("hardy.make_molecule_from_tent_atom", "cols")
    experiment = total("riesz.riesz_h1_experiment")
    transform = total("riesz.riesz")
    m = {
        "graphs.dist_s": (total("graphs.dist"), "s"),
        "graphs.geometry_s": (total("graphs.geometry_report"), "s"),
        "graphs.ball_calls": (total("graphs.ball", "calls"), "count"),
        "graphs.ball_s": (total("graphs.ball"), "s"),
        "operators.matvec_cols": (cols, "count"),
        "operators.matvec_calls": (calls, "count"),
        "operators.cols_per_call": (cols / calls if calls else 0.0, "cols/call"),
        "operators.apply_P_s": (total("operators.apply_P"), "s"),
        "calculus.oracle_builds": (count("oracle_builds"), "count"),
        "calculus.oracle_build_s": (total("calculus.oracle_build"), "s"),
        "calculus.oracle_apply_calls": (count("oracle_apply_calls"), "count"),
        "calculus.oracle_apply_s": (total("calculus.oracle_apply"), "s"),
        "calculus.series_apply_calls": (count("series_apply_calls"), "count"),
        "calculus.series_terms": (count("series_terms"), "count"),
        "calculus.series_apply_s": (total("calculus.series_apply"), "s"),
        "calculus.resolvent_apply_s": (total("calculus.resolvent_apply"), "s"),
        "quadratic.quad_norm_calls": (total("quadratic.quad_norm", "calls"), "count"),
        "quadratic.quad_norm_s": (total("quadratic.quad_norm"), "s"),
        "quadratic.tent_functional_s": (total("quadratic.tent_functional"), "s"),
        "tentspace.atomic_decompose_s": (total("tentspace.atomic_decompose"), "s"),
        "tentspace.atoms": (count("atoms"), "count"),
        "hardy.synthesis_s": (total("hardy.make_molecule_from_tent_atom"), "s"),
        "hardy.synthesis_matvec_cols": (synth_cols, "count"),
        "hardy.horner_active_ratio": (
            count("active_levels") / synth_cols if synth_cols else 0.0, "ratio"),
        "hardy.validate_calls": (total("hardy.validate_molecule", "calls"), "count"),
        "hardy.validate_s": (total("hardy.validate_molecule"), "s"),
        "hardy.l_max": (
            loop_counts["l_max_sum"] / loop_counts["l_max_calls"]
            if loop_counts["l_max_calls"] else 0.0, "count"),
        "hardy.bmo_norm_s": (total("hardy.bmo_norm"), "s"),
        "riesz.experiment_s": (experiment, "s"),
        "riesz.transform_s": (transform, "s"),
        "riesz.pool_busy_ratio": (
            transform / (experiment * thread_cap) if experiment else 0.0, "ratio"),
    }
    per_layer, remainder, overlap, job_total = benchstats.accounting(
        loop_spans, tracing.LAYERS)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (per_layer[layer] / jobs, "s")
    m["trace.remainder_s"] = (remainder / jobs, "s")
    m["trace.overlap_s"] = (overlap / jobs, "s")
    m["trace.job_s"] = (job_total / jobs, "s")
    accounted = sum(per_layer.values()) + remainder - overlap
    balanced = abs(accounted - job_total) <= 1e-9 * max(job_total, 1.0)
    return m, balanced


def run_workload(args):
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    gh, import_s = load_package()
    import benchstats
    import tracing
    import workloads as wl

    meta = metadata(gh, args)
    print("meta " + json.dumps(meta), flush=True)
    tracer = pace = None
    build_s = []
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.job = "setup"
        fixtures = wl.build_fixtures(gh, args.workload)
        tracer.job = None
        for g in fixtures.values():
            tracing.count_markov(g, tracer)
        setup_counts = dict(tracer.counts)
    else:
        pace = benchstats.Pace()
        for _ in range(PACE_SETUP_SAMPLES):
            pace.sample()
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            fixtures = wl.build_fixtures(gh, args.workload)
            build_s.append(time.perf_counter() - t0)
    jobs = wl.make_jobs(gh, args.workload, fixtures, args.seed)
    reference = {} if args.record_reference else load_reference()

    records, wall, cycles = run_loop(gh, wl, args, fixtures, jobs, tracer, pace,
                                     reference)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    report = {"meta": meta, "import_s": import_s, "build_s": build_s,
              "cycles": cycles, "loop_wall_s": wall, "jobs": records}
    if pace:
        report["pace_samples"] = pace.samples
    if args.trace:
        metrics, balanced = layer_metrics(tracer, records, setup_counts,
                                          meta["riesz_thread_cap"])
        extra = {}
        report["accounting_balanced"] = balanced
        report["spans"] = tracer.spans
        correct = failed == 0 and balanced
    else:
        metrics, extra = e2e_metrics(records, wall, import_s + statistics.median(build_s),
                                     pace)
        correct = failed == 0
    if args.record_reference:
        record_reference(wl, args, records, jobs)

    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in {**metrics, **extra}.items()}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    print(f"report {os.path.relpath(path, ROOT)}")
    print(f"cycles {cycles} jobs {attempted} failed {failed} loop_wall_s {wall:.3f}")
    refs = [r.get("reference") for r in records]
    print(f"reference match {refs.count('match')} mismatch {refs.count('mismatch')} "
          f"missing {refs.count('missing')}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record_reference(wl, args, records, jobs):
    """Store the first cycle's checksums as the reference for this seed."""
    ref = load_reference()
    for job, rec in zip(jobs, records):
        if rec["ok"]:
            ref[wl.reference_key(job, args.workload, args.seed)] = rec["checksums"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= results[trace]["correct"]
        if len(results) == 2:
            path = os.path.join(OUT, f"{workload}-seed{args.seed}-trace0.json")
            with open(path, encoding="utf-8") as fh:
                m = json.load(fh)["metrics"]
            untraced = m["job_mean_s"]["value"] / m["pace_factor"]["value"]
            traced = results[1]["metrics"]["trace.job_s"]["value"]
            rows.append((workload, untraced, traced, traced / untraced - 1.0))
    print("tracing overhead (mean job time, traced vs untraced):")
    for workload, untraced, traced, overhead in rows:
        print(f"  {workload:10s} untraced {untraced:.4f} s traced {traced:.4f} s "
              f"overhead {100 * overhead:+.1f}%")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's first-cycle checksums in reference.json")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
