"""Vertical and conical square functions and the tent functional.

The parabolic cone over x collects (y, l) with d(x, y)^2 <= l; since
d(x,y)^2 <= l iff d(x,y) <= floor(sqrt(l)), the levels l in
[rho^2, (rho+1)^2) share the spatial ball {d <= rho}, which is exactly
the strict ball of radius ceil(sqrt(l+1)).  Every cone sum below first
groups its weights by that radius into an (n, R) table W (an (n, R, k)
table for a block of k inputs) and hands W to `_cone_accumulate`.
`lusin` fills W from the chunks of `operators.level_blocks`: it squares
each chunk of levels in place and adds it into W with one weighted row
sum per cone radius the chunk meets, so neither an (n, l_max + 1) array
nor per-level Python work is spent.  With V = `WeightedGraph.ball_volumes`,

    out[x] = sum_y T_x[y, d(x, y)],  T_x[y, r] = sum_{rho >= r} W[y, rho] / V[x, rho],

so the centres sharing one ball-volume profile (one row of V; every
torus and cycle has a single profile) share one tail table, read per
block of centres by one sparse gather-product (`operators.cone_gather`)
on the int32 index y * width + d(x, y); centres with a rare profile are
summed radius by radius.  The naive double loops live in the test tree
as oracles.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (TAIL_TOL, delta_power_apply, delta_power_series, lusin_tail_apply,
                       reproducing_tail_apply, require_mean_zero, spectrum)
from .errors import PeriodicWalk
from .graphs import WeightedGraph, row_blocks
from .operators import (
    EdgeFunction,
    cone_gather,
    divergence,
    heat_sweep,
    inner,
    level_blocks,
    lp_norm,
    mean_project,
    per_row,
)


def default_l_max(g: WeightedGraph) -> int:
    """Smallest horizon at which every parabolic cone saturates."""
    return g.diameter ** 2 + 1


@dataclass(frozen=True)
class ProfileTail:
    """The levels l > start of a profile F(., l) = (l+1)^beta P^l u / scale,
    held instead of stored by the mean-zero potential h of their
    generator u = Delta^order h (bz2: f, of u = Delta^beta f; forms:
    Delta^{-1} w, of u = w).  Past start >= diam^2 every parabolic cone
    is the whole graph, so all that the tent functional and the
    synthesis read of these levels is two functions of P applied to h:
    their Lusin mass (`mass`) and their part of the synthesis sum
    (`synthesis`).  They act on h rather than on u because a slowly
    mixing walk makes both large near lam = 1, where u = Delta^order h
    is small: on h the symbols carry that factor, and the series path
    loses no digits to it.

    `tol` is the accuracy the synthesis is held to (`reproducing_tail_apply`),
    the share of the molecular pipeline's tolerance that a truncated
    profile's horizon had; None holds it to TAIL_TOL times the norm of h.

    An atom over B(x, r) covers the levels below r^2, so the atom that
    holds the tail, whose levels never end, takes its radius from the
    levels up to `reach` (by default only the stored ones); the
    molecular pipeline builds the tail with the level by which the
    reproducing sum has converged to its tolerance (`hardy.pipeline_l_max`),
    so that molecule's scale is the truncated pipeline's."""

    graph: WeightedGraph
    potential: np.ndarray = field(repr=False)
    order: float
    beta: float
    start: int
    reach: int = 0
    tol: float = None
    scale: float = 1.0

    def __post_init__(self):
        if self.start < self.graph.diameter ** 2:
            raise ValueError(f"a tail from level {self.start} starts inside the cones "
                             f"of radius below the diameter {self.graph.diameter}")

    def scaled(self, c: float) -> "ProfileTail":
        """The tail divided by c."""
        return dataclasses.replace(self, scale=self.scale * c)

    @functools.cached_property
    def mass(self) -> float:
        """sum_{l > start} ||F(., l)||_m^2 / (l + 1) = <chi(P) h, h>_m /
        scale^2 (`lusin_tail_apply`)."""
        h = self.potential
        chi_h = lusin_tail_apply(self.graph, h, self.beta, self.order, self.start)
        return inner(self.graph, chi_h, h) / self.scale ** 2

    def synthesis(self, eta: int, exp: float) -> np.ndarray:
        """sum_{l > start} (c_{l+1}^eta / (l+1)^beta) Delta^exp P^l F(., l)
        = psi(P) h / scale, psi of the power exp + order
        (`reproducing_tail_apply`), within tol / scale."""
        h = self.potential
        tol = TAIL_TOL * lp_norm(self.graph, h, 2) if self.tol is None else self.tol
        return reproducing_tail_apply(self.graph, h, self.start, eta, exp + self.order,
                                      tol) / self.scale


def tail_mass(F) -> float:
    """The Lusin mass of the levels of F past its l_max: that of its
    `tail`, and 0 without one."""
    return 0.0 if F.tail is None else F.tail.mass


@dataclass
class SpaceTimeFunction:
    """F(y, l) for l = 0..L_max, the domain of tent functionals, and
    with a `tail` (ProfileTail), whose start must be L_max, for every
    l > L_max as well."""

    graph: WeightedGraph
    values: np.ndarray = field(repr=False)
    tail: ProfileTail = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.graph.n:
            raise ValueError("values must have shape (n, L_max + 1)")
        if self.tail is not None and self.tail.start != self.l_max:
            raise ValueError(f"a tail past level {self.tail.start} does not continue "
                             f"levels 0..{self.l_max}")

    @property
    def l_max(self) -> int:
        return self.values.shape[1] - 1

    def t22_norm(self) -> float:
        g = self.graph
        k = np.arange(self.values.shape[1])
        return math.sqrt(float(np.sum(
            (self.values ** 2 / (k + 1.0)[None, :]) * g.m[:, None]
        )) + tail_mass(self))


# A ball-volume profile shared by at least this many centres gets its own
# tail table; the centres of rarer profiles are summed radius by radius,
# which measured about five times faster than a table per centre on a
# jittered lazy_torus_2d(32).
SHARED_PROFILE_MIN = 4


def _profile_groups(V: np.ndarray):
    """Vertex index arrays, each holding rows of V that are equal, in
    increasing order.  Rows are sorted by a linear key, so equal rows
    sit together, and cut wherever a row differs from the one before it;
    the key only orders, the cut compares whole rows."""
    order = np.argsort(V @ np.linspace(1.0, 2.0, V.shape[1]), kind="stable")
    S = V[order]
    return np.split(order, np.flatnonzero(np.any(S[1:] != S[:-1], axis=1)) + 1)


def _cone_accumulate(g: WeightedGraph, W: np.ndarray) -> np.ndarray:
    """sum over (y, rho) with d(x, y) <= rho of W[y, rho] / V(x, rho), where
    V(x, rho) = m({d(x, .) <= rho}) and column rho of W carries every
    factor of the cone levels [rho^2, (rho+1)^2) except the volume
    divisor.  Radii past the diameter see the whole graph, so they are
    folded into the radius `diameter`.  (n, R, k) weights give an (n, k)
    block: k columns read each tail table with one gather-product."""
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
    # row y of the index reads T[y, d(x, y)] at y * width + d(x, y)
    index_type = np.int32 if n * width < 2 ** 31 else np.intp
    offsets = np.arange(n, dtype=index_type) * width
    for rows in _profile_groups(V):
        if len(rows) < SHARED_PROFILE_MIN:
            rare.append(rows)
            continue
        T = np.zeros((n, width, k))
        np.divide(W, V[rows[0], :R, None], out=T[:, :R])
        for r in range(R - 2, -1, -1):  # tail sums, one (n, k) add per radius
            T[:, r] += T[:, r + 1]
        T = T.reshape(n * width, k)
        blocks = row_blocks(rows, n)
        index = np.empty((len(blocks[0]), n), dtype=index_type)
        ones = np.ones(index.size)
        for block in blocks:
            cells = np.add(g.dist[block], offsets, out=index[:len(block)])
            out[block] = cone_gather(T, cells, ones, np.zeros((len(block), k)))
    rare = np.concatenate(rare) if rare else np.empty(0, dtype=np.intp)
    for block in row_blocks(rare, n):
        D = g.dist[block]
        acc = np.zeros((len(block), k))
        for rho in range(R):
            acc += ((D <= rho) @ W[:, rho]) / V[block, rho, None]
        out[block] = acc
    return out.reshape((n,) + cols)


def _level_square_sums(g: WeightedGraph, u, beta: float, L: int, starts) -> np.ndarray:
    """S[i] = sum (l+1)^{2b-1} |P^l u|^2 over the levels l of
    [starts[i], starts[i+1]) (the last segment ends at L), for increasing
    starts from 0, with shape (len(starts),) + u.shape.  The walk hands
    over a chunk of levels at a time; it is squared in place and each
    segment it meets is added with one weighted row sum."""
    S = np.zeros((len(starts),) + np.shape(u))
    flat = S.reshape(len(starts), -1)
    weight = np.arange(1.0, L + 2) ** (2 * beta - 1)
    ends = list(starts[1:]) + [L + 1]
    for lo, rows in level_blocks(g, u, L):
        hi = lo + len(rows)
        rows = rows.reshape(len(rows), -1)
        np.square(rows, out=rows)
        for i in range(bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)):
            a, b = max(starts[i], lo), min(ends[i], hi)
            flat[i] += weight[a:b] @ rows[a - lo:b - lo]
    return S


def lusin(g: WeightedGraph, f, beta: float, l_max=None) -> np.ndarray:
    """Conical square function over the parabolic cone,

    L_beta f(x)^2 = sum_{d(x,y)^2 <= l <= L}
        (l+1)^{2b-1} / V(x, sqrt(l+1)) |Delta^b P^l f(y)|^2 m(y).

    ||L_beta f||_1 is the quadratic H^1 norm.  The weights are summed per
    cone radius floor(sqrt(l)), one chunk of the power walk at a time; an
    (n, k) block of inputs walks it once and gives an (n, k) block.  A
    periodic walk raises PeriodicWalk: its P^l f keeps oscillating, so the
    sum depends on the horizon.
    """
    if not g.aperiodic:
        raise PeriodicWalk("the walk is periodic, so P^l f does not settle "
                           "and the cone sum depends on its horizon")
    if l_max is None:
        l_max = default_l_max(g)
    u = delta_power_apply(g, f, beta)
    radii = range(math.isqrt(l_max) + 1)
    W = _level_square_sums(g, u, beta, l_max, [rho * rho for rho in radii])
    W *= per_row(g.m, u)
    return np.sqrt(_cone_accumulate(g, np.moveaxis(W, 0, 1)))


def quad_norm(g: WeightedGraph, f, beta: float = 1.0, l_max=None):
    """||L_beta f||_1; the (k,) norms of the columns of an (n, k) block,
    from one walk of the power sequence."""
    return lp_norm(g, lusin(g, f, beta, l_max), 1)


# `lusin_tail_bound` sums its weights until a term adds at most this fraction.
TAIL_REL_CUTOFF = 1e-30


def lusin_tail_bound(g: WeightedGraph, f, beta: float, l_max: int) -> float:
    """Upper bound on the cone mass ignored above l_max = L, at every n.

    sup_x of the missing sum is at most
    (1/min m) sum_{l > L} w_l ||Delta^b P^l Pi f||_2^2, w_l =
    (l+1)^{2b-1}.  With v the series `delta_power_series` at tol 1e-12
    applied to Pi f, each norm is at most ||P^l v|| plus the series'
    tail times lam^l ||Pi f||, as P has norm lam = lambda_star
    (`spectrum`) on mean-zero functions.  The levels L < l < K =
    2(L + 1) are walked and summed exactly; past them ||P^l v|| <=
    lam^(l-K) ||P^K v||, and the scalar sum of w_l lam^(2(l-K)) runs
    until a term is at most TAIL_REL_CUTOFF times it.  The oracle's lam
    is eigh's value, so there the bound holds up to eigh's rounding.
    """
    lam = spectrum(g).lambda_star
    u = mean_project(g, f)
    op = delta_power_series(g, beta, 1e-12)
    K = 2 * l_max + 2
    sums = g.m @ _level_square_sums(g, op.apply(u), beta, K, [0, l_max + 1, K]).T
    zpow, rest, l = 1.0, 0.0, K
    while True:
        term = zpow * (l + 1.0) ** (2 * beta - 1)
        rest += term
        if term <= TAIL_REL_CUTOFF * rest:
            break
        zpow *= lam * lam
        l += 1
    walked = sums[1] + sums[2] * rest / (K + 1.0) ** (2 * beta - 1)
    levels = np.arange(l_max + 1.0, K)
    drift = np.sum((levels + 1.0) ** (2 * beta - 1) * lam ** (2 * levels)) + lam ** (2 * K) * rest
    series = op.tail_bound * lp_norm(g, u, 2) * math.sqrt(drift)
    return (math.sqrt(walked) + series) / math.sqrt(g.m.min())


def lusin_tilde(g: WeightedGraph, f, beta: float, k_max=None) -> np.ndarray:
    """Variant cone functional on the linear cone d(x, y) <= k <= K,

    sum_k 1/((k+1) V(x, k+1)) | (k^2 Delta)^b P^{k^2} f(y) m(y) |^2,

    with the k = 0 term taken with unit time scale so the shortest
    scale is not annihilated (the m(y) really sits inside the square).
    """
    if k_max is None:
        k_max = g.diameter + 1
    k = np.arange(k_max + 1)
    U = heat_sweep(g, delta_power_apply(g, f, beta), k * k)
    scale = [float(max(j, 1)) ** (2 * beta) for j in k]
    # cone radius k, with 1/(k+1) folded into the weight
    return np.sqrt(_cone_accumulate(g, (scale * U * g.m[:, None]) ** 2 / (k + 1.0)))


def g_littlewood(g: WeightedGraph, f, beta: float, l_max=None) -> np.ndarray:
    """Vertical square function
    G_beta f(x)^2 = sum_{l=1..L} l^{2b-1} |Delta^b P^{l-1} f(x)|^2."""
    if l_max is None:
        l_max = default_l_max(g)
    u0 = delta_power_apply(g, f, beta)
    return np.sqrt(_level_square_sums(g, u0, beta, l_max - 1, [0])[0])


def lusin_terms(F: SpaceTimeFunction) -> np.ndarray:
    """The Lusin terms F(y, k)^2 / (k + 1) of F, a new array."""
    w = np.square(F.values)
    w /= np.arange(1.0, F.l_max + 2)
    return w


def tent_functional_of_terms(g: WeightedGraph, w: np.ndarray, tau=0.0) -> np.ndarray:
    """A F from the Lusin terms w of F's stored levels and the Lusin mass
    tau of its tail, whose levels lie past diam^2, where every cone is
    the whole graph: tau / m(Gamma) is added to every A F(x)^2."""
    # level k belongs to cone radius floor(sqrt(k))
    W = np.add.reduceat(w, np.arange(math.isqrt(w.shape[1] - 1) + 1) ** 2, axis=1)
    AF2 = _cone_accumulate(g, W * g.m[:, None])
    if tau:
        AF2 += tau / g.total_volume()
    return np.sqrt(AF2)


def tent_functional(g: WeightedGraph, F: SpaceTimeFunction) -> np.ndarray:
    """A F(x)^2 = sum_{(y,k) in cone(x)} m(y) F(y,k)^2 /
    ((k+1) V(x, sqrt(k+1))), over the levels of F's tail too."""
    return tent_functional_of_terms(g, lusin_terms(F), tail_mass(F))


def t1_norm(g: WeightedGraph, F: SpaceTimeFunction) -> float:
    return lp_norm(g, tent_functional(g, F), 1)


def form_potential(g: WeightedGraph, F: EdgeFunction):
    """Delta^{-1/2} d* F, whose quadratic norm is that of the exact 1-form F;
    k forms give an (n, k) block.  d* F has zero mean by antisymmetry, so
    a nonzero mean raises KernelComponent."""
    return delta_power_apply(g, require_mean_zero(g, divergence(g, F)), -0.5)


def quad_norm_forms(g: WeightedGraph, F: EdgeFunction, beta: float, l_max=None):
    """H^1 quadratic norm of an exact 1-form,
    ||L_beta [Delta^{-1/2} d* F]||_1."""
    return quad_norm(g, form_potential(g, F), beta, l_max)
