"""Vertical and conical square functions and the tent functional.

The parabolic cone over x collects (y, l) with d(x, y)^2 <= l; since
d(x,y)^2 <= l iff d(x,y) <= floor(sqrt(l)), the levels l in
[rho^2, (rho+1)^2) share the spatial ball {d <= rho}, which is exactly
the strict ball of radius ceil(sqrt(l+1)).  All cone sums below exploit
that grouping, and the naive double loops live in the test tree as
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    delta_inv_sqrt,
    delta_inv_sqrt_exact,
    delta_power_apply,
    has_oracle,
    require_mean_zero,
    spectral,
)
from .errors import KernelComponent
from .graphs import WeightedGraph
from .operators import (
    EdgeFunction,
    apply_P,
    divergence,
    inner,
    lp_norm,
    mean_project,
    powers,
)


def default_l_max(g: WeightedGraph) -> int:
    """Smallest horizon at which every parabolic cone saturates."""
    return g.diameter ** 2 + 1


@dataclass
class SpaceTimeFunction:
    """F(y, l) for l = 0..L_max, the domain of tent functionals."""

    graph: WeightedGraph
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.graph.n:
            raise ValueError("values must have shape (n, L_max + 1)")

    @property
    def l_max(self) -> int:
        return self.values.shape[1] - 1

    def t22_norm(self) -> float:
        g = self.graph
        k = np.arange(self.values.shape[1])
        return math.sqrt(float(np.sum(
            (self.values ** 2 / (k + 1.0)[None, :]) * g.m[:, None]
        )))


def _cone_accumulate(g: WeightedGraph, weights: np.ndarray) -> np.ndarray:
    """sum over (y, l) in the parabolic cone of weights[y, l] / V(x, sqrt(l+1)).

    weights carries every per-(y, l) factor except the volume divisor.
    """
    n, L1 = weights.shape
    out = np.zeros(n)
    D = g.dist
    rho = 0
    while rho * rho < L1:
        lo = rho * rho
        hi = min((rho + 1) ** 2, L1)
        w = weights[:, lo:hi].sum(axis=1)
        mask = D <= rho
        out += (mask @ w) / (mask @ g.m)
        rho += 1
    return out


def _heat_weights(g, f, beta, l_max):
    """(l+1)^{2 beta - 1} |Delta^beta P^l f(y)|^2 m(y) for l = 0..l_max."""
    out = np.empty((g.n, l_max + 1))
    for l, u in enumerate(powers(g, delta_power_apply(g, f, beta), l_max)):
        out[:, l] = (l + 1.0) ** (2 * beta - 1) * u * u * g.m
    return out


def lusin(g: WeightedGraph, f, beta: float, l_max=None) -> np.ndarray:
    """Conical square function over the parabolic cone,

    L_beta f(x)^2 = sum_{d(x,y)^2 <= l <= L}
        (l+1)^{2b-1} / V(x, sqrt(l+1)) |Delta^b P^l f(y)|^2 m(y).

    ||L_beta f||_1 is the quadratic H^1 norm.
    """
    if l_max is None:
        l_max = default_l_max(g)
    w = _heat_weights(g, f, beta, l_max)
    return np.sqrt(_cone_accumulate(g, w))


def quad_norm(g: WeightedGraph, f, beta: float = 1.0, l_max=None) -> float:
    return lp_norm(g, lusin(g, f, beta, l_max), 1)


def lusin_tail_bound(g: WeightedGraph, f, beta: float, l_max: int,
                     rel_cutoff=1e-30) -> float:
    """Upper bound on the cone mass ignored above l_max.

    sup_x of the missing sum is at most
    (1/min m) sum_{l > L} (l+1)^{2b-1} ||Delta^b P^l f||_2^2, evaluated
    spectrally until the geometric terms are negligible.
    """
    if not has_oracle(g):
        raise ValueError("tail bound needs the spectral oracle")
    o = spectral(g)
    lam = o.eigenvalues[:-1]
    coeff = o.basis.T @ (mean_project(g, f) * np.sqrt(g.m))
    coeff = coeff[:-1]
    front = coeff ** 2 * (1.0 - lam) ** (2 * beta)
    zpow = lam ** (2 * (l_max + 1))
    z = lam * lam
    total = 0.0
    l = l_max + 1
    while True:
        term = float(np.sum(front * zpow)) * (l + 1.0) ** (2 * beta - 1)
        total += term
        if term <= rel_cutoff * max(total, 1e-300) or np.max(zpow, initial=0.0) == 0.0:
            break
        zpow *= z
        l += 1
    return math.sqrt(total / g.m.min())


def lusin_tilde(g: WeightedGraph, f, beta: float, k_max=None) -> np.ndarray:
    """Variant cone functional on the linear cone d(x, y) <= k <= K,

    sum_k 1/((k+1) V(x, k+1)) | (k^2 Delta)^b P^{k^2} f(y) m(y) |^2,

    with the k = 0 term taken with unit time scale so the shortest
    scale is not annihilated (the m(y) really sits inside the square).
    """
    if k_max is None:
        k_max = g.diameter + 1
    u = delta_power_apply(g, f, beta)
    D = g.dist
    out = np.zeros(g.n)
    for k in range(k_max + 1):
        if k:
            u = apply_P(g, u, 2 * k - 1)  # P^{(k-1)^2} -> P^{k^2}
        scale = float(max(k, 1)) ** (2 * beta)
        # 1/(k+1) folded into w; the volume V(x, k+1) is (mask @ m)
        w = (scale * u * g.m) ** 2 / (k + 1.0)
        mask = D <= k
        out += (mask @ w) / (mask @ g.m)
    return np.sqrt(out)


def g_littlewood(g: WeightedGraph, f, beta: float, l_max=None) -> np.ndarray:
    """Vertical square function
    G_beta f(x)^2 = sum_{l=1..L} l^{2b-1} |Delta^b P^{l-1} f(x)|^2."""
    if l_max is None:
        l_max = default_l_max(g)
    acc = np.zeros(g.n)
    u0 = delta_power_apply(g, f, beta)
    for l, u in enumerate(powers(g, u0, l_max - 1), start=1):
        acc += float(l) ** (2 * beta - 1) * u * u
    return np.sqrt(acc)


def tent_functional(g: WeightedGraph, F: SpaceTimeFunction) -> np.ndarray:
    """A F(x)^2 = sum_{(y,k) in cone(x)} m(y) F(y,k)^2 /
    ((k+1) V(x, sqrt(k+1)))."""
    k = np.arange(F.values.shape[1])
    w = F.values ** 2 * g.m[:, None] / (k + 1.0)[None, :]
    return np.sqrt(_cone_accumulate(g, w))


def t1_norm(g: WeightedGraph, F: SpaceTimeFunction) -> float:
    return lp_norm(g, tent_functional(g, F), 1)


def quad_norm_forms(g: WeightedGraph, F: EdgeFunction, beta: float,
                    l_max=None, tol=1e-10) -> float:
    """H^1 quadratic norm of an exact 1-form,
    ||L_beta [Delta^{-1/2} d* F]||_1."""
    h = divergence(g, F)
    total = abs(inner(g, h, np.ones(g.n)))
    if total > 1e-8 * max(lp_norm(g, h, 2), 1e-300) * math.sqrt(g.total_volume()):
        raise KernelComponent("d*F has a nonzero mean: antisymmetry violated")
    h = require_mean_zero(g, h)
    if has_oracle(g):
        u = delta_inv_sqrt_exact(g, h)
    else:
        u = delta_inv_sqrt(g, h, tol)
    return quad_norm(g, u, beta, l_max)
