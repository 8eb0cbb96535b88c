"""The Riesz transform d Delta^{-1/2}, the exact-form projector, and
the H^1 -> L^1 experiment harness.

On the mean-zero subspace the transform is an exact L^2 isometry onto
the space of differentials, and its quadratic H^1 norm equals the
input's through the identity Delta^{-1/2} d* d Delta^{-1/2} = I.

The experiment runs the primitives of `riesz` on (n, k) blocks of
inputs F, and one `quad_norm` of the stacked [F, h],
h = Delta^{-1/2} d* d Delta^{-1/2} F, walks the power sequence once.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .calculus import BZ1Kind, BZ2Kind, a_s, delta_power_apply, require_mean_zero
from .graphs import WeightedGraph, ball
from .operators import (
    EdgeFunction,
    differential,
    divergence,
    gradient,
    lp_norm,
    lp_norm_forms,
    tx_norms,
)
from .quadratic import form_potential, quad_norm, quad_norm_forms

# Inputs per block of the suite experiment: at most RIESZ_BLOCK, and few
# enough that a cone-sum radius table of the block, (n, diameter + 1, 2k)
# for the inputs and their h, holds at most RIESZ_TABLE_ENTRIES numbers.
# Past 16 inputs the block size hardly moves the time per input (the
# 1024-input suite on lazy_torus_16 took 1.1-1.2 s for blocks of 16-128).
RIESZ_BLOCK = 64
RIESZ_TABLE_ENTRIES = 1 << 22


def thread_cap(default=4) -> int:
    """The core count up to `default`.  The package runs no pool; the
    value is kept for benchmark run metadata only."""
    return max(1, min(default, os.cpu_count() or 1))


@dataclass
class RieszResult:
    input: np.ndarray = field(repr=False)
    output: EdgeFunction = field(repr=False)
    gradient_form: np.ndarray = field(repr=False)
    norm_l2_input: float
    norm_l2_output: float
    norm_l1_gradient: float
    h1_quad_input: float
    h1_quad_output: float


def riesz(g: WeightedGraph, f, l_max=None) -> RieszResult:
    """d Delta^{-1/2} f for a mean-zero f, with the L^2/L^1/H^1 norms
    of both sides attached."""
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
        h1_quad_output=quad_norm_forms(g, out, 1.0, l_max),
    )


def h2_project(g: WeightedGraph, F: EdgeFunction) -> EdgeFunction:
    """d Delta^{-1} d* F: the orthogonal projector onto exact forms."""
    u = delta_power_apply(g, divergence(g, F), -1.0)
    return differential(g, u)


@dataclass
class RieszSuiteEntry:
    label: str
    h1_quad_input: float
    h1_quad_output: float
    grad_l1: float
    ratio: float
    chain_gap: float


@dataclass
class RieszSuiteReport:
    entries: list
    max_ratio: float
    min_ratio: float
    max_chain_gap: float

    def to_json(self):
        return json.dumps(vars(self), indent=2, default=vars)

    def to_csv(self):
        lines = ["label,h1_quad_input,h1_quad_output,grad_l1,ratio,chain_gap"]
        for e in self.entries:
            lines.append(
                f"{e.label},{e.h1_quad_input!r},{e.h1_quad_output!r},"
                f"{e.grad_l1!r},{e.ratio!r},{e.chain_gap!r}"
            )
        return "\n".join(lines) + "\n"


def molecule_suite(g: WeightedGraph, s_values=(1, 4, 16, 64), kind="bz1",
                   M=1, centers=None):
    """Unit pre-image molecules a = A_s (1_B / V(B)) over a sweep of
    scales and ball centers; inputs for the H^1 -> L^1 experiment."""
    if centers is None:
        centers = range(g.n)
    suite = []
    for s in s_values:
        r = math.ceil(math.sqrt(s))
        for x in centers:
            B = ball(g, x, r)
            b = B.mask.astype(float) / B.volume
            if kind == "bz1":
                a = a_s(g, b, BZ1Kind(s, (s,) * M))
            else:
                a = a_s(g, b, BZ2Kind(s, M))
            suite.append((f"{kind}(s={s},x={x})", a))
    return suite


def riesz_h1_experiment(g: WeightedGraph, suite, l_max=None) -> RieszSuiteReport:
    """For each mean-zero input: the quadratic H^1 norms on both sides
    of the transform (equal through the exact-form chain) and the L^1
    gradient mass, reported as a ratio against the input H^1 norm."""
    block = min(RIESZ_BLOCK, RIESZ_TABLE_ENTRIES // (2 * g.n * (g.diameter + 1)))
    entries = []
    items = iter(suite)
    while chunk := list(itertools.islice(items, max(block, 1))):
        F = require_mean_zero(g, np.column_stack([f for _, f in chunk]))
        half = delta_power_apply(g, F, -0.5)
        masses = lp_norm(g, gradient(g, half), 1).tolist()
        h = form_potential(g, differential(g, half))
        quad = quad_norm(g, np.hstack((F, h)), 1.0, l_max).tolist()
        k = len(chunk)
        for (label, _), q_in, q_out, mass in zip(chunk, quad[:k], quad[k:], masses):
            ratio = mass / q_in if q_in > 0 else math.inf
            gap = abs(q_out - q_in) / (q_in if q_in > 0 else 1.0)
            entries.append(RieszSuiteEntry(label, q_in, q_out, mass, ratio, gap))
    ratios = [e.ratio for e in entries if math.isfinite(e.ratio)]
    return RieszSuiteReport(
        entries,
        max(ratios, default=0.0),
        min(ratios, default=0.0),
        max((e.chain_gap for e in entries), default=0.0),
    )


def gradient_matches_fiber_norms(g: WeightedGraph, f) -> float:
    """max_x | ||df(x,.)||_{T_x} - grad f(x) |."""
    F = differential(g, f)
    return float(np.abs(tx_norms(g, F) - gradient(g, f)).max(initial=0.0))
