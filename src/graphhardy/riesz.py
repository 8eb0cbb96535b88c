"""The Riesz transform d Delta^{-1/2}, the exact-form projector, and
the H^1 -> L^1 experiment harness.

On the mean-zero subspace the transform is an exact L^2 isometry onto
the space of differentials, and its quadratic H^1 norm equals the
input's through the identity Delta^{-1/2} d* d Delta^{-1/2} = I.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    mean_project,
    tx_norms,
)
from .quadratic import quad_norm, quad_norm_forms


def thread_cap(default=4) -> int:
    """Worker cap for suite experiments, from GRAPH_HARDY_THREADS."""
    env = os.environ.get("GRAPH_HARDY_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
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
    w = divergence(g, F)
    w = mean_project(g, w)  # zero mean by antisymmetry; drop rounding dust
    u = delta_power_apply(g, w, -1.0)
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
        return json.dumps(
            {
                "entries": [e.__dict__ for e in self.entries],
                "max_ratio": self.max_ratio,
                "min_ratio": self.min_ratio,
                "max_chain_gap": self.max_chain_gap,
            },
            indent=2,
        )

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

    def run(item):
        label, f = item
        res = riesz(g, f, l_max)
        denom = res.h1_quad_input
        ratio = res.norm_l1_gradient / denom if denom > 0 else math.inf
        gap = abs(res.h1_quad_output - res.h1_quad_input)
        rel_gap = gap / denom if denom > 0 else gap
        return RieszSuiteEntry(label, res.h1_quad_input, res.h1_quad_output,
                               res.norm_l1_gradient, ratio, rel_gap)

    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        entries = list(pool.map(run, suite))
    ratios = [e.ratio for e in entries if math.isfinite(e.ratio)]
    return RieszSuiteReport(
        entries,
        max(ratios, default=0.0),
        min(ratios, default=0.0),
        max((e.chain_gap for e in entries), default=0.0),
    )


def isometry_defect(g: WeightedGraph, f) -> float:
    """| ||d Delta^{-1/2} f||_{L^2(T)} - ||f||_2 | for mean-zero f."""
    res = riesz(g, f)
    return abs(res.norm_l2_output - res.norm_l2_input)


def gradient_matches_fiber_norms(g: WeightedGraph, f) -> float:
    """max_x | ||df(x,.)||_{T_x} - grad f(x) |."""
    F = differential(g, f)
    return float(np.abs(tx_norms(g, F) - gradient(g, f)).max(initial=0.0))
