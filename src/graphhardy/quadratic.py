"""Vertical and conical square functions and the tent functional.

The parabolic cone over x collects (y, l) with d(x, y)^2 <= l; since
d(x,y)^2 <= l iff d(x,y) <= floor(sqrt(l)), the levels l in
[rho^2, (rho+1)^2) share the spatial ball {d <= rho}, which is exactly
the strict ball of radius ceil(sqrt(l+1)).  Every cone sum below first
groups its weights by that radius into an (n, R) table W (`lusin` while
it walks the power sequence, so no (n, l_max + 1) array is formed; an
(n, R, k) table for a block of k inputs) and hands W to
`_cone_accumulate`.  With V = `WeightedGraph.ball_volumes`,

    out[x] = sum_y T_x[y, d(x, y)],  T_x[y, r] = sum_{rho >= r} W[y, rho] / V[x, rho],

so the centres sharing one ball-volume profile (one row of V; every
torus and cycle has a single profile) share one tail table and read it
with one integer gather; centres with a rare profile are summed radius by
radius.  The naive double loops live in the test tree as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import delta_power_apply, has_oracle, require_mean_zero, spectral
from .errors import OracleCapExceeded
from .graphs import WeightedGraph, row_blocks
from .operators import (
    EdgeFunction,
    apply_P,
    divergence,
    lp_norm,
    mean_project,
    per_row,
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


# A ball-volume profile shared by at least this many centres gets its own
# tail table; the centres of rarer profiles are summed radius by radius,
# which measured about five times faster than a table per centre on a
# jittered lazy_torus_2d(32).
SHARED_PROFILE_MIN = 4


def _profile_groups(V: np.ndarray):
    """Vertex index arrays, one per distinct row of V."""
    rows = np.ascontiguousarray(V).view(np.dtype((np.void, V.itemsize * V.shape[1])))
    _, inverse, counts = np.unique(rows.ravel(), return_inverse=True,
                                   return_counts=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    return np.split(order, np.cumsum(counts)[:-1])


def _cone_accumulate(g: WeightedGraph, W: np.ndarray) -> np.ndarray:
    """sum over (y, rho) with d(x, y) <= rho of W[y, rho] / V(x, rho), where
    V(x, rho) = m({d(x, .) <= rho}) and column rho of W carries every
    factor of the cone levels [rho^2, (rho+1)^2) except the volume
    divisor.  Radii past the diameter see the whole graph, so they are
    folded into the radius `diameter`.  (n, R, k) weights give an (n, k)
    block: k columns read each tail table with one gather."""
    n = g.n
    width = g.diameter + 1
    cols = W.shape[2:]
    W = W.reshape(n, W.shape[1], -1)
    if W.shape[1] > width:
        W = np.concatenate((W[:, :width - 1], W[:, width - 1:].sum(axis=1, keepdims=True)),
                           axis=1)
    R, k = W.shape[1:]
    V = g.ball_volumes
    out = np.empty((n, k))
    rare = []
    offsets = np.arange(n) * width
    for rows in _profile_groups(V):
        if len(rows) < SHARED_PROFILE_MIN:
            rare.append(rows)
            continue
        T = np.zeros((n, width, k))
        T[:, :R] = np.cumsum((W / V[rows[0], :R, None])[:, ::-1], axis=1)[:, ::-1]
        T = T.reshape(n * width, k)
        for block in row_blocks(rows, n * k):
            cells = g.dist[block].astype(np.intp)
            cells += offsets
            out[block] = np.take(T, cells, axis=0).sum(axis=1)
    rare = np.concatenate(rare) if rare else np.empty(0, dtype=np.intp)
    for block in row_blocks(rare, n):
        D = g.dist[block]
        acc = np.zeros((len(block), k))
        for rho in range(R):
            acc += ((D <= rho) @ W[:, rho]) / V[block, rho, None]
        out[block] = acc
    return out.reshape((n,) + cols)


def lusin(g: WeightedGraph, f, beta: float, l_max=None) -> np.ndarray:
    """Conical square function over the parabolic cone,

    L_beta f(x)^2 = sum_{d(x,y)^2 <= l <= L}
        (l+1)^{2b-1} / V(x, sqrt(l+1)) |Delta^b P^l f(y)|^2 m(y).

    ||L_beta f||_1 is the quadratic H^1 norm.  The weights are summed per
    cone radius floor(sqrt(l)) while the power sequence is walked; an
    (n, k) block of inputs walks it once and gives an (n, k) block.
    """
    if l_max is None:
        l_max = default_l_max(g)
    W = np.zeros((math.isqrt(l_max) + 1,) + np.shape(f))
    for l, u in enumerate(powers(g, delta_power_apply(g, f, beta), l_max)):
        W[math.isqrt(l)] += (l + 1.0) ** (2 * beta - 1) * u * u
    W = np.moveaxis(W, 0, 1)
    return np.sqrt(_cone_accumulate(g, W * per_row(g.m, W)))


def quad_norm(g: WeightedGraph, f, beta: float = 1.0, l_max=None):
    """||L_beta f||_1; the (k,) norms of the columns of an (n, k) block,
    from one walk of the power sequence."""
    return lp_norm(g, lusin(g, f, beta, l_max), 1)


def lusin_tail_bound(g: WeightedGraph, f, beta: float, l_max: int,
                     rel_cutoff=1e-30) -> float:
    """Upper bound on the cone mass ignored above l_max.

    sup_x of the missing sum is at most
    (1/min m) sum_{l > L} (l+1)^{2b-1} ||Delta^b P^l f||_2^2, evaluated
    spectrally until the geometric terms are negligible.
    """
    if not has_oracle(g):
        raise OracleCapExceeded("tail bound needs the spectral oracle")
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
    W = np.empty((k_max + 1, g.n))
    for k in range(k_max + 1):
        if k:
            u = apply_P(g, u, 2 * k - 1)  # P^{(k-1)^2} -> P^{k^2}
        scale = float(max(k, 1)) ** (2 * beta)
        # cone radius k, with 1/(k+1) folded into the weight
        W[k] = (scale * u * g.m) ** 2 / (k + 1.0)
    return np.sqrt(_cone_accumulate(g, W.T))


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
    w = np.square(F.values)
    w /= np.arange(1.0, F.l_max + 2)
    # level k belongs to cone radius floor(sqrt(k))
    W = np.add.reduceat(w, np.arange(math.isqrt(F.l_max) + 1) ** 2, axis=1)
    return np.sqrt(_cone_accumulate(g, W * g.m[:, None]))


def t1_norm(g: WeightedGraph, F: SpaceTimeFunction) -> float:
    return lp_norm(g, tent_functional(g, F), 1)


def form_potential(g: WeightedGraph, F: EdgeFunction, tol=1e-10):
    """Delta^{-1/2} d* F, whose quadratic norm is that of the exact 1-form F;
    k forms give an (n, k) block.  d* F has zero mean by antisymmetry, so
    a nonzero mean raises KernelComponent."""
    return delta_power_apply(g, require_mean_zero(g, divergence(g, F)), -0.5, tol)


def quad_norm_forms(g: WeightedGraph, F: EdgeFunction, beta: float,
                    l_max=None, tol=1e-10):
    """H^1 quadratic norm of an exact 1-form,
    ||L_beta [Delta^{-1/2} d* F]||_1."""
    return quad_norm(g, form_potential(g, F, tol), beta, l_max)
