"""Workload definitions: fixtures, seeded inputs, the job cycle of each
workload, the call each job makes, its output checks and its checksums.

Every job calls the public function the matching CLI subcommand calls,
with the CLI defaults (M=1, beta=1, eps=1, tol=1e-8, smax=16,
--s 40..512, --n 8), and serializes the result with its `to_json` (for
quadnorm, the `{"quad_norm": value}` object the CLI writes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Base fields of the molecular workload come from this fixed stream; the
# run's seed picks a graph symmetry and a sign per job.  Independent
# white-noise draws change the atom count by +-20% (19..31 atoms on
# lazy_cycle_64), which would swamp run-to-run timing differences;
# symmetry images keep the work per job fixed while the arrays differ.
BASE_SEED = 1411_3352

M, BETA, EPS, TOL, SMAX = 1, 1.0, 1.0, 1e-8, 16
S_RANGE = "40..512"
RIESZ_N = 8

CONTRACTION_FAMILIES = ("heat", "resolvent")
RATIO_SLACK = 1e-12
PAIRING_RTOL = 1e-6
CHAIN_GAP_MAX = 1e-8
REFERENCE_RTOL = 1e-6

# Seconds one cycle of each workload takes at the commit that added the
# benchmark, on a 2-core x86 virtual machine with BLAS pinned to one thread
# (in a quiet period); `--seconds` is turned into whole cycles with these.
NOMINAL_CYCLE_S = {"molecular": 6.0, "analysis": 1.3, "series": 8.5}

FIXTURES = {
    "molecular": ("lazy_torus_16", "lazy_cycle_64"),
    "analysis": ("lazy_torus_32", "lazy_torus_16"),
    "series": ("lazy_torus_48",),
}


@dataclass
class Job:
    position: int            # index in the workload's cycle
    command: str             # CLI subcommand mirrored by the job
    fixture: str
    label: str
    params: dict = field(default_factory=dict)
    f: np.ndarray = field(default=None, repr=False)
    seeded: bool = True      # input depends on --seed

    @property
    def key(self):
        return f"{self.position}:{self.command}:{self.fixture}:{self.label}"


# -- set-up ------------------------------------------------------------------

def build_fixtures(gh, workload):
    """Build the workload's zoo graphs and fill their lazy caches."""
    out = {}
    for name in FIXTURES[workload]:
        g = gh.zoo.by_name(name)
        g.dist
        gh.operators.markov_matrix(g)
        gh.graphs.cached_geometry(g)
        if gh.calculus.has_oracle(g):
            gh.calculus.spectral(g)
        out[name] = g
    return out


# -- inputs ------------------------------------------------------------------

def _ball_sum(g, rng, count):
    """Signed sum of `count` ball indicators, radii 1..3, mean-projected."""
    f = np.zeros(g.n)
    for _ in range(count):
        center = int(rng.integers(g.n))
        radius = int(rng.integers(1, 4))
        f[g.dist[center] < radius] += rng.choice((-1.0, 1.0))
    return f - (g.m @ f) / g.m.sum()


def _noise(g, rng):
    f = rng.standard_normal(g.n)
    return f - (g.m @ f) / g.m.sum()


def _symmetry(g, rng):
    """A seeded vertex permutation that is a graph automorphism of a
    lazy torus or lazy cycle fixture, and a sign."""
    kind, n = g.meta["kind"], g.meta["n"]
    if kind == "lazy_torus_2d":
        grid = np.arange(n * n).reshape(n, n)
        grid = np.roll(grid, (int(rng.integers(n)), int(rng.integers(n))), axis=(0, 1))
        if rng.integers(2):
            grid = grid.T
        if rng.integers(2):
            grid = grid[::-1]
        perm = grid.ravel()
    elif kind == "lazy_cycle":
        perm = np.roll(np.arange(n), int(rng.integers(n)))
        if rng.integers(2):
            perm = perm[::-1]
    else:
        raise ValueError(f"no symmetry group for fixture kind {kind!r}")
    return perm, float(rng.choice((-1.0, 1.0)))


# molecular cycle: (fixture, input kind, number of balls for local inputs)
MOLECULAR_CYCLE = (
    ("lazy_torus_16", "noise", 0),
    ("lazy_cycle_64", "noise", 0),
    ("lazy_torus_16", "local", 1),
    ("lazy_cycle_64", "local", 2),
    ("lazy_torus_16", "local", 3),
)


def _molecular_jobs(fixtures, rng):
    base_rng = np.random.default_rng(BASE_SEED)
    jobs = []
    for pos, (name, kind, balls) in enumerate(MOLECULAR_CYCLE):
        g = fixtures[name]
        base = _noise(g, base_rng) if kind == "noise" else _ball_sum(g, base_rng, balls)
        perm, sign = _symmetry(g, rng)
        label = "noise" if kind == "noise" else f"local{balls}"
        jobs.append(Job(pos, "decompose", name, label, f=sign * base[perm]))
    return jobs


def _analysis_jobs(gh, fixtures, rng):
    name = "lazy_torus_32"
    g = fixtures[name]
    noise, local = _noise(g, rng), _ball_sum(g, rng, 1 + int(rng.integers(3)))
    centre = gh.cli._parse_vertices("16,16", g)
    jobs = [
        Job(0, "quadnorm", name, "noise", {"beta": BETA}, noise),
        Job(1, "quadnorm", name, "local", {"beta": BETA}, local),
        Job(2, "bmo", name, "bz1", {"kind": "bz1"}, noise),
        Job(3, "bmo", name, "bz2", {"kind": "bz2"}, noise),
    ]
    for family in sorted(gh.calculus.FAMILIES):
        jobs.append(Job(len(jobs), "gaffney", name, family,
                        {"family": family, "E": centre, "F": [0]}, seeded=False))
    g16 = fixtures["lazy_torus_16"]
    suite = gh.riesz_module.molecule_suite(
        g16, centers=range(0, g16.n, max(1, g16.n // RIESZ_N)))
    jobs.append(Job(len(jobs), "riesz", "lazy_torus_16", "molecules",
                    {"suite": suite}, seeded=False))
    return jobs


def _series_jobs(gh, fixtures, rng):
    name = "lazy_torus_48"
    g = fixtures[name]
    noise = _noise(g, rng)
    centre = gh.cli._parse_vertices("24,24", g)
    jobs = [
        Job(0, "quadnorm", name, "noise", {"beta": BETA}, noise),
        Job(1, "bmo", name, "bz1", {"kind": "bz1"}, noise),
        Job(2, "bmo", name, "bz2", {"kind": "bz2"}, noise),
    ]
    for family in ("heat", "resolvent", "resolvent_diff", "grad_resolvent"):
        jobs.append(Job(len(jobs), "gaffney", name, family,
                        {"family": family, "E": centre, "F": [0]}, seeded=False))
    return jobs


def make_jobs(gh, workload, fixtures, seed):
    """The workload's job cycle; inputs are a function of the seed only."""
    rng = np.random.default_rng(seed)
    if workload == "molecular":
        return _molecular_jobs(fixtures, rng)
    if workload == "analysis":
        return _analysis_jobs(gh, fixtures, rng)
    if workload == "series":
        return _series_jobs(gh, fixtures, rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- running a job -----------------------------------------------------------

def run_job(gh, job, fixtures):
    """Call the package exactly as the CLI subcommand does; returns the
    result object and its serialized form."""
    g = fixtures[job.fixture]
    p = job.params
    if job.command == "decompose":
        f = gh.operators.mean_project(g, job.f)
        res = gh.hardy.molecular_decompose(g, f, M, BETA, EPS, tol=TOL)
        return res, res.to_json()
    if job.command == "quadnorm":
        value = gh.quadratic.quad_norm(g, job.f, p["beta"], None)
        return value, json.dumps({"quad_norm": value})
    if job.command == "bmo":
        res = gh.hardy.bmo_norm(g, job.f, p["kind"], M, SMAX, seed=0)
        return res, res.to_json()
    if job.command == "gaffney":
        s_values = gh.cli._parse_s_range(S_RANGE)
        res = gh.calculus.gaffney_fit(g, p["family"], p["E"], p["F"], s_values, M=M)
        return res, res.to_json()
    if job.command == "riesz":
        res = gh.riesz_module.riesz_h1_experiment(g, p["suite"], l_max=None)
        return res, res.to_json()
    raise ValueError(f"unknown command {job.command!r}")


# -- checks and checksums ----------------------------------------------------

def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def check(gh, job, fixtures, result, payload):
    """Output checks; returns a list of failure messages (empty = pass)."""
    fails = []
    parsed = json.loads(payload)
    if not all(math.isfinite(x) for x in _numbers(parsed)):
        fails.append("non-finite value in output")
    g = fixtures[job.fixture]
    if job.command == "decompose":
        f = gh.operators.mean_project(g, job.f)
        if not result.l2_residual <= TOL:
            fails.append(f"l2_residual {result.l2_residual:.3e} > {TOL:.0e}")
        norm2 = float(np.sum(f * f * g.m))
        pairing = sum(lam * float(np.sum(f * np.asarray(mol.a) * g.m))
                      for lam, mol in result.coefficients)
        if not abs(pairing - norm2) <= PAIRING_RTOL * norm2:
            fails.append(f"sum lambda <f,a> = {pairing!r} vs ||f||^2 = {norm2!r}")
    elif job.command == "quadnorm":
        if not result > 0.0:
            fails.append(f"quad_norm {result!r} not positive")
    elif job.command == "bmo":
        if not result.value > 0.0 or result.argmax is None:
            fails.append(f"bmo value {result.value!r} without argmax")
    elif job.command == "gaffney":
        if job.params["family"] in CONTRACTION_FAMILIES:
            worst = max(result.ratios)
            if not worst <= 1.0 + RATIO_SLACK:
                fails.append(f"{job.params['family']} ratio {worst!r} > 1 + {RATIO_SLACK:.0e}")
        if not result.c >= 0.0:
            fails.append(f"decay constant c = {result.c!r} < 0")
    elif job.command == "riesz":
        if not result.max_chain_gap <= CHAIN_GAP_MAX:
            fails.append(f"max_chain_gap {result.max_chain_gap:.3e} > {CHAIN_GAP_MAX:.0e}")
    return fails


def checksums(gh, job, fixtures, result):
    """Behaviour fingerprint of one job, compared against the reference."""
    g = fixtures[job.fixture]
    if job.command == "decompose":
        f = gh.operators.mean_project(g, job.f)
        d0 = gh.graphs.cached_geometry(g).d0_estimate
        eta = gh.hardy.synthesis_eta(M, BETA, EPS, d0)
        l_max = gh.hardy.pipeline_l_max(g, eta, TOL, gh.operators.lp_norm(g, f, 2))
        return {"sum_abs_lambda": result.sum_abs_lambda,
                "molecules": len(result.coefficients),
                "l_max": int(l_max)}
    if job.command == "quadnorm":
        return {"quad_norm": result}
    if job.command == "bmo":
        return {"value": result.value, "argmax": result.argmax}
    if job.command == "gaffney":
        return {"C": result.C, "c": result.c}
    if job.command == "riesz":
        return {"max_ratio": result.max_ratio, "min_ratio": result.min_ratio,
                "entries": len(result.entries)}
    raise ValueError(job.command)


def reference_key(job, workload, seed):
    prefix = f"seed={seed}:" if job.seeded else ""
    return f"{workload}:{prefix}{job.key}"


def compare(expected, got, rtol=REFERENCE_RTOL):
    """Mismatch messages between two checksum records (floats to rtol,
    everything else exactly)."""
    out = []
    for k, want in expected.items():
        have = got.get(k)
        if isinstance(want, float) and isinstance(have, float):
            if not abs(have - want) <= rtol * max(abs(want), 1e-300):
                out.append(f"{k}: {have!r} != {want!r}")
        elif have != want:
            out.append(f"{k}: {have!r} != {want!r}")
    return out
