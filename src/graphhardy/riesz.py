"""The Riesz transform d Delta^{-1/2} and the H^1 -> L^1 experiment
harness.

On the mean-zero subspace the transform is an exact L^2 isometry onto
the space of differentials, and its quadratic H^1 norm equals the
input's through the identity Delta^{-1/2} d* d Delta^{-1/2} = I.

The experiment runs the primitives of `riesz` on (n, k) blocks of
inputs F, checks h = Delta^{-1/2} d* d Delta^{-1/2} F against F in L^2,
and one `quad_norm` of F walks the power sequence once for the block
(`quadratic.lusin`).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .calculus import bz1_block, bz2_apply, delta_power_apply, require_mean_zero
from .graphs import WeightedGraph, ball
from .operators import (
    EdgeFunction,
    differential,
    gradient,
    heat_sweep,
    lp_norm,
    lp_norm_forms,
    thread_cap,  # noqa: F401  (re-exported: benchmark run metadata reads riesz.thread_cap)
)
from .quadratic import form_potential, quad_norm

# Inputs per block of the suite experiment: at most RIESZ_BLOCK, and few
# enough that a cone-sum radius table of the block, (n, diameter + 1, k)
# for its k inputs, holds at most RIESZ_TABLE_ENTRIES numbers.
# Past 16 inputs the block size hardly moves the time per input (the
# 1024-input suite on lazy_torus_16 took 1.1-1.2 s for blocks of 16-128).
RIESZ_BLOCK = 64
RIESZ_TABLE_ENTRIES = 1 << 22


@dataclass
class RieszResult:
    input: np.ndarray = field(repr=False)
    output: EdgeFunction = field(repr=False)
    gradient_form: np.ndarray = field(repr=False)
    norm_l2_input: float
    norm_l2_output: float
    norm_l1_gradient: float
    h1_quad_input: float


def riesz(g: WeightedGraph, f, l_max=None) -> RieszResult:
    """d Delta^{-1/2} f for a mean-zero f, with the L^2 norms of both
    sides, the L^1 norm of the gradient and the input's quadratic H^1 norm
    (the output's equals it; `quadratic.quad_norm_forms` computes it)."""
    f = require_mean_zero(g, f)
    half = delta_power_apply(g, f, -0.5)
    out = differential(g, half)
    grad = gradient(g, half)
    return RieszResult(
        input=f,
        output=out,
        gradient_form=grad,
        norm_l2_input=lp_norm(g, f, 2),
        norm_l2_output=lp_norm_forms(g, out, 2),
        norm_l1_gradient=lp_norm(g, grad, 1),
        h1_quad_input=quad_norm(g, f, 1.0, l_max),
    )


@dataclass
class RieszSuiteEntry:
    label: str
    h1_quad_input: float
    grad_l1: float
    ratio: float | None  # grad_l1 / h1_quad_input; None when that norm is 0
    chain_gap: float


@dataclass
class RieszSuiteReport:
    entries: list
    max_ratio: float
    min_ratio: float
    max_chain_gap: float

    def to_json(self):
        return json.dumps(vars(self), default=vars)

    def to_csv(self):
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(f.name for f in fields(RieszSuiteEntry))
        rows.writerows(astuple(e) for e in self.entries)
        return out.getvalue()


def molecule_suite(g: WeightedGraph, s_values=(1, 4, 16, 64), kind="bz1",
                   M=1, centers=None):
    """Unit pre-image molecules a = A_s (1_B / V(B)) over a sweep of
    scales and ball centers; inputs for the H^1 -> L^1 experiment.  kind
    is "bz1" or "bz2" (ValueError otherwise)."""
    if kind not in ("bz1", "bz2"):
        raise ValueError(f"molecule kind must be 'bz1' or 'bz2', not {kind!r}")
    if centers is None:
        centers = range(g.n)
    suite = []
    for s in s_values:
        r = math.ceil(math.sqrt(s))
        for x in centers:
            B = ball(g, x, r)
            b = B.mask.astype(float) / B.volume
            if kind == "bz1":
                a = bz1_block(heat_sweep(g, b, range(M * s + 1)), [(s,) * M])[:, 0]
            else:
                a = bz2_apply(g, b, s, M)
            suite.append((f"{kind}(s={s},x={x})", a))
    return suite


def riesz_h1_experiment(g: WeightedGraph, suite, l_max=None) -> RieszSuiteReport:
    """For each mean-zero input F: its quadratic H^1 norm (the output's
    too), the L^1 mass of grad Delta^{-1/2} F as a ratio against it
    (None, a JSON null and an empty CSV cell, when the norm is 0; max_ratio
    and min_ratio skip it), and the chain gap ||h - F||_2 / ||F||_2 (0 for
    a zero input) of the h = Delta^{-1/2} d* d Delta^{-1/2} F that the
    exact-form chain makes F."""
    block = min(RIESZ_BLOCK, RIESZ_TABLE_ENTRIES // (g.n * (g.diameter + 1)))
    entries = []
    items = iter(suite)
    while chunk := list(itertools.islice(items, max(block, 1))):
        F = require_mean_zero(g, np.column_stack([f for _, f in chunk]))
        half = delta_power_apply(g, F, -0.5)
        masses = lp_norm(g, gradient(g, half), 1).tolist()
        h = form_potential(g, differential(g, half))
        norms = lp_norm(g, F, 2)
        gaps = (lp_norm(g, h - F, 2) / np.where(norms > 0, norms, 1.0)).tolist()
        quad = quad_norm(g, F, 1.0, l_max).tolist()
        for (label, _), q, mass, gap in zip(chunk, quad, masses, gaps):
            entries.append(RieszSuiteEntry(label, q, mass, mass / q if q > 0 else None, gap))
    ratios = [e.ratio for e in entries if e.ratio is not None]
    return RieszSuiteReport(
        entries,
        max(ratios, default=0.0),
        min(ratios, default=0.0),
        max((e.chain_gap for e in entries), default=0.0),
    )
