"""Naive reference evaluators.

Everything here is written as literal double loops over vertices and
time levels, recomputing distances, ball volumes and cone membership
from scratch; the optimized cone iteration in the package is checked
against these.  `horner_synthesis_levels_first` keeps the synthesis
with its whole heat prefix on the levels, the order the package's
synthesis is compared against.  `counting_markov` reads the package's
count of the products with P a computation makes, for tests that pin
how often the power sequence is walked.  `delta_power_exact` and
`resolvent_exact` apply their operators by the dense spectral oracle on
any graph the oracle takes, the references the automatic-path functions
and the certified series objects are compared against; `cesaro_mean` is
the walk's Cesaro mean Q_s, which factors the bz1 product through bz2.
`bz1` is the package's bz1 of one vector, a column of `calculus.bz1_block`
on the `heat_sweep` table of its powers, as the Riesz suite takes it, and
`bz1_walks` the same product by nested walks, its reference.
`reproducing_l_max_mpmath` finds the reproducing horizon at 50 digits,
the reference of `calculus.reproducing_l_max`.
`chebyshev_terms` is the three-term recurrence one `markov_step` at a
time, the reference of the chained walk `operators.chebyshev_blocks`,
and `step_powers` the power sequence P^k f the same way, so the
references built on it stay independent of the chained level walk.
`lusin_tail_mass_exact` and `synthesis_tail_exact` sum a profile's
levels past a horizon to infinity over the oracle's eigenvalues in long
double, the references of the closed-form tail (`ProfileTail`): its
Lusin mass, and its shares of a molecule and of the molecule's
pre-image.
`graphs` is the Hypothesis strategy of the property tests: jittered zoo
graphs and random trees with loops.
`ball_volume_mask`, `tent_depth_search` and `annuli_by_masks` build a
ball's volume, the depth d(., O^c) of a set and a ball's annuli the
way the package once did, from one mask sum, one breadth-first search
and the masks of the scaled balls: the references of the ball volumes
read from `ball_volumes`, of `graphs.level_set_depths` and of
`graphs.annulus_rings`.
`kernels` reads the kernels p_l from the level walk, for the kernel laws.
`tent_mask`, `annulus`, `vitali_cover`, `write_graph`, `form_profile`,
`m0_norm`, `h2_project`, `gradient_matches_fiber_norms` and
`pi_synthesis` are referees built on the package's public functions that
no command or pipeline calls: dense tents and annuli, the Vitali
covering, the inverse of `read_graph`, the forms profile, the dual test
class norm, the exact-form projector, the fibre norms of df and the
synthesis of one space-time function.
`entries_of`, `tent_atom`, `t22_norm` and `is_tent_atom` are the tent
layer's checks that the pipeline never runs, since it builds its atoms
to satisfy them: a dense space-time function as its runs, the atom that
holds them, the T^2_2 norm, and the paper's two atom conditions;
`tent_residual` and `sum_abs_lambda` measure a decomposition,
`truncated_profile` is the heat profile cut at l_max without its tail,
and `rev_edges` and `antisymmetry_defect` check that a 1-form is one.
`laplacian` is Delta f = f - P f by one exact step (`delta_steps`), the
operator the first-order calculus and the spectral tests check against.
`fourier_apply` applies any operator of the calculus exactly, at any n,
on the lazy cycles, tori and paths of the zoo, by one FFT pair: the
referee of the series path above the oracle cap.
"""

import itertools
import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from graphhardy import zoo
from graphhardy.calculus import (SeriesOperator, binomial_coefficients, bz1_block, bz2_apply,
                                 delta_power_apply, require_mean_zero, resolvent_apply,
                                 spectral, spectrum)
from graphhardy.errors import NonConvergent
from graphhardy.graphs import (Ball, annulus_rings, ball, build_graph, cached_geometry,
                               level_set_depths)
from graphhardy.hardy import _profile, synthesize_molecules
from graphhardy.operators import (EdgeFunction, apply_P, delta_steps, differential, divergence,
                                  gradient, heat_sweep, horner, level_blocks, lp_norm,
                                  markov_step, mean_project, tx_norms)
from graphhardy.quadratic import SpaceTimeFunction, form_potential, tail_mass, tent_functional
from graphhardy.riesz import RieszSuiteEntry, riesz
from graphhardy.tentspace import (SpaceTimeEntries, TentAtom, TentDecomposition,
                                  horner_synthesis)


GRAPH_BASES = {
    "cycle9": lambda: zoo.lazy_cycle(9),
    "path7": lambda: zoo.lazy_path(7),
    "torus4": lambda: zoo.lazy_torus_2d(4),
    "tree3": lambda: zoo.binary_tree(3),
}


def graphs():
    """Hypothesis strategy: a jittered zoo graph, or a random tree with
    loops on a random subset of its vertices (at least one, so the walk
    is aperiodic).  Hypothesis is imported here, so a module without it
    can still import the oracles."""
    from hypothesis import strategies as st

    @st.composite
    def draw_graph(draw):
        if draw(st.booleans()):
            base = GRAPH_BASES[draw(st.sampled_from(sorted(GRAPH_BASES)))]()
            return zoo.random_weights(base, draw(st.integers(0, 2 ** 16)))
        n = draw(st.integers(2, 24))
        weight = st.floats(0.1, 10.0)
        edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
        loops = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        return build_graph(edges + [(x, x, draw(weight)) for x in loops])

    return draw_graph()


def delta_power_exact(g, f, beta):
    """Delta^beta f by the spectral oracle, whatever ORACLE_MAX_N: the
    symbol (1 - lam)^beta, and 0 on the constants (lam = 1) for beta < 0,
    where Delta^beta is defined on mean-zero functions only."""
    def symbol(lam):
        d = np.maximum(1.0 - lam, 0.0)
        return np.power(d, beta, out=np.zeros_like(d), where=(d > 0.0) | (beta >= 0))
    return spectral(g).apply(symbol, f)


def resolvent_exact(g, f, s, power=1.0):
    """(I + s Delta)^{-power} f by the spectral oracle, whatever
    ORACLE_MAX_N."""
    return spectral(g).apply(lambda lam: (1.0 + s * (1.0 - lam)) ** (-power), f)


def laplacian(g, f):
    return delta_steps(g, np.array(f, dtype=float), 1)


def step_powers(g, f, L):
    """[P^0 f, ..., P^L f] (L >= 0) by repeated `markov_step`, one new
    array per level."""
    out = [np.asarray(f, dtype=float)]
    for _ in range(L):
        out.append(markov_step(g, out[-1]))
    return out


def cesaro_mean(g, f, s):
    """Q_s f = (1/s) sum_{k<s} P^k f, the Cesaro mean of the walk over s
    levels."""
    return sum(step_powers(g, f, s - 1)) / s


def bz1(g, f, times):
    """(I - P^{t_1}) ... (I - P^{t_M}) f for a vector f, by
    `calculus.bz1_block` on the table P^0 f, ..., P^{t_1 + ... + t_M} f of
    one `heat_sweep`."""
    return bz1_block(heat_sweep(g, f, range(sum(times) + 1)), [tuple(times)])[:, 0]


def bz1_walks(g, f, times):
    """(I - P^{t_1}) ... (I - P^{t_M}) f by nested walks, x <- x - P^t x
    one `markov_step` at a time, for each t in turn."""
    x = np.asarray(f, dtype=float)
    for t in times:
        x = x - step_powers(g, x, t)[-1]
    return x


def chebyshev_terms(g, f, N, interval=(-1.0, 1.0), deflate=False):
    """Yield T_0(X) f, ..., T_N(X) f by the three-term recurrence
    T_{k+1} = 2 X T_k - T_{k-1}, one `markov_step` and one new array per
    term, X = (2P - (hi + lo) I)/(hi - lo) for interval = (lo, hi) (P
    itself on (-1, 1)).  With deflate, f is mean-projected on entry and
    every product after it, a vector walked as its one-column block."""
    lo, hi = interval
    if deflate and np.ndim(f) == 1:
        for u in chebyshev_terms(g, np.reshape(f, (-1, 1)), N, interval, deflate):
            yield u[:, 0]
        return
    u = prev = mean_project(g, f) if deflate else np.asarray(f, dtype=float)
    yield u
    for k in range(N):
        nxt = markov_step(g, u)
        if deflate:
            nxt -= (g.m @ nxt) / g.total_volume()
        if (lo, hi) != (-1.0, 1.0):
            nxt = (2.0 * nxt - (hi + lo) * u) / (hi - lo)
        if k:
            nxt *= 2.0
            nxt -= prev
        prev, u = u, nxt
        yield u


def ball_volume_mask(g, x, r):
    """m(B(x, r)), summed over the mask of the strict ball."""
    return float(g.m[g.dist[x] < r].sum())


def tent_depth_search(g, set_mask):
    """d(y, O^c) for every vertex y, as floats, by one breadth-first
    search from the complement of O = set_mask, +inf when it is empty."""
    comp = np.flatnonzero(~np.asarray(set_mask, dtype=bool))
    if not comp.size:
        return np.full(g.n, np.inf)
    return dijkstra(g.adjacency, indices=comp, unweighted=True, min_only=True)


def annuli_by_masks(b):
    """(J, masks, volumes) of a ball B(x, r): J the first j with
    2^{j+1} r > diameter, and for j = 1..J + 1 the mask of C_j(B), 4B for
    j = 1 and 2^{j+1} B minus 2^j B past it, and the mask sum V(2^j B)."""
    g, x, r = b.graph, b.center, b.radius
    J = 1
    while 2 ** (J + 1) * r <= g.diameter:
        J += 1
    masks, volumes = [], []
    for j in range(1, J + 2):
        outer = g.dist[x] < 2 ** (j + 1) * r
        masks.append(outer if j == 1 else outer & ~(g.dist[x] < 2 ** j * r))
        volumes.append(ball_volume_mask(g, x, 2 ** j * r))
    return J, masks, volumes


def _ball_volume(g, x, r):
    return sum(float(g.m[y]) for y in range(g.n) if g.dist[x, y] < r)


def cover_overlap_bound(g, r, doubling_constant):
    """Multiplicity bound checked against annulus_cover output.

    Radius <= 2 balls are controlled by the degree bound; larger radii
    by five doublings (disjoint seed balls at scale r/3 inside B(x, 2r)).
    """
    if r <= 2:
        M0 = g.max_degree
        return 1 + M0 * M0
    return doubling_constant ** 5


def ball_matrix_dense(g, r):
    """Sparse 0/1 matrix whose row x is the indicator of the strict ball
    B(x, r), scanned out of the dense metric."""
    rows, cols = np.nonzero(g.dist < r)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))


def cone_members(g, x, l_max):
    """Parabolic cone {(y, l) : d(x, y)^2 <= l <= l_max}; (x, 0) always
    belongs."""
    return [(int(y), l) for l in range(l_max + 1)
            for y in np.where(g.dist[x].astype(np.int64) ** 2 <= l)[0]]


def cone_members_tilde(g, x, k_max):
    """Linear cone {(y, k) : d(x, y) <= k <= k_max}."""
    return [(int(y), k) for k in range(k_max + 1)
            for y in np.where(g.dist[x] <= k)[0]]


def naive_lusin(g, f, beta, l_max):
    levels = [delta_power_exact(g, f, beta)]
    for _ in range(l_max):
        levels.append(apply_P(g, levels[-1]))
    out = np.zeros(g.n)
    for x in range(g.n):
        acc = 0.0
        for l in range(l_max + 1):
            vol = _ball_volume(g, x, math.ceil(math.sqrt(l + 1)))
            for y in range(g.n):
                if int(g.dist[x, y]) ** 2 <= l:
                    acc += ((l + 1) ** (2 * beta - 1) / vol
                            * levels[l][y] ** 2 * g.m[y])
        out[x] = math.sqrt(acc)
    return out


def naive_lusin_tilde(g, f, beta, k_max):
    base = delta_power_exact(g, f, beta)
    powers = {0: base}
    cur = base
    steps = 0
    for k in range(1, k_max + 1):
        while steps < k * k:
            cur = apply_P(g, cur)
            steps += 1
        powers[k] = cur
    out = np.zeros(g.n)
    for x in range(g.n):
        acc = 0.0
        for k in range(k_max + 1):
            scale = float(max(k, 1)) ** (2 * beta)
            vol = _ball_volume(g, x, k + 1)
            for y in range(g.n):
                if g.dist[x, y] <= k:
                    acc += (scale * powers[k][y] * g.m[y]) ** 2 / ((k + 1) * vol)
        out[x] = math.sqrt(acc)
    return out


def naive_g_littlewood(g, f, beta, l_max):
    u = delta_power_exact(g, f, beta)
    out = np.zeros(g.n)
    for l in range(1, l_max + 1):
        out += float(l) ** (2 * beta - 1) * u ** 2
        u = apply_P(g, u)
    return np.sqrt(out)


def tail_series_longdouble(lam, first, weight):
    """sum_{l >= first} weight(l) lam^{2l} for each entry of lam
    (|lam| < 1), in np.longdouble, one level at a time until a level
    changes no sum."""
    z = np.square(np.asarray(lam, dtype=np.longdouble))
    zpow = z ** first
    total = np.zeros_like(z)
    level = first
    while True:
        grown = total + weight(level) * zpow
        if np.array_equal(grown, total):
            return total
        total = grown
        zpow *= z
        level += 1


def _mean_zero_modes(g, u):
    """(eigenvalues, coefficients) of u on the oracle's mean-zero
    eigenvectors (the top one, lam = 1, is the constants)."""
    o = spectral(g)
    coeff = o.basis.T @ (np.asarray(u, dtype=float) * o.sqrt_m)
    return o.eigenvalues[:-1], coeff[:-1]


def lusin_tail_mass_exact(g, h, beta, K, order=0.0):
    """sum_{l>K} (l+1)^{2 beta - 1} ||P^l u||_m^2 for u = Delta^order h,
    h mean-zero, with no horizon: over the oracle's mean-zero
    eigenvalues, each series summed in np.longdouble
    (`tail_series_longdouble`) and weighted by (1 - lam)^{2 order}."""
    lam, coeff = _mean_zero_modes(g, h)
    a = np.longdouble(2 * beta - 1)
    chi = tail_series_longdouble(lam, K + 1, lambda l: np.longdouble(l + 1) ** a)
    chi *= np.power(1.0 - lam.astype(np.longdouble), 2 * np.longdouble(order))
    return float(np.sum(np.square(coeff.astype(np.longdouble)) * chi))


def synthesis_tail_exact(g, h, K, eta, power=0.0, s=None, q=0.0):
    """((I + s Delta)/s)^q Delta^power E(P) h for a mean-zero h, E(lam) =
    (1 - lam^2)^eta sum_{j>K} C(j + eta - 1, eta - 1) lam^{2j} the
    reproducing error of the levels up to K, with no horizon: over the
    oracle's mean-zero eigenvalues, each series summed in np.longdouble
    (`tail_series_longdouble`) and multiplied out in np.longdouble."""
    lam, coeff = _mean_zero_modes(g, h)
    x = lam.astype(np.longdouble)
    series = tail_series_longdouble(
        lam, K + 1, lambda j: np.longdouble(math.comb(j + eta - 1, eta - 1)))
    phi = np.power((1.0 - x) * (1.0 + x), eta) * np.power(1.0 - x, power) * series
    if q:
        s = np.longdouble(s)
        phi *= np.power((1.0 + s * (1.0 - x)) / s, np.longdouble(q))
    o = spectral(g)
    return o.basis[:, :-1] @ (phi * coeff).astype(float) / o.sqrt_m


def naive_tent_functional(g, F):
    vals = F.values
    out = np.zeros(g.n)
    for x in range(g.n):
        acc = 0.0
        for k in range(vals.shape[1]):
            vol = _ball_volume(g, x, math.ceil(math.sqrt(k + 1)))
            for y in range(g.n):
                if int(g.dist[x, y]) ** 2 <= k:
                    acc += vals[y, k] ** 2 * g.m[y] / ((k + 1) * vol)
        out[x] = math.sqrt(acc)
    return out


def naive_tent_members(g, ball_mask, l_max):
    """Set of (y, k) with d(y, complement)^2 > k."""
    comp = [z for z in range(g.n) if not ball_mask[z]]
    out = set()
    for y in range(g.n):
        if comp:
            d = min(int(g.dist[y, z]) for z in comp)
        else:
            d = math.inf
        for k in range(l_max + 1):
            if d * d > k:
                out.add((y, k))
    return out


def binomial_series(beta, q, tol, pref=1.0):
    """(b_0..b_N, tail bound) for the Taylor coefficients b_k of
    (1 - z)^beta, the power series Delta^beta was summed with before
    Chebyshev columns (on mean-zero functions, q = lambda_star): N is the
    first k >= 1 whose certified weighted tail
    pref |b_{k+1}| q^{k+1} / (1 - rho_k) >= pref sum_{j>k} |b_j| q^j is
    <= tol.  Once k + 1 > beta the ratios |b_{j+1} / b_j| = (j - beta) /
    (j + 1), j > k, are monotone toward 1, so their sup is
    max((k + 1 - beta) / (k + 2), 1) and rho_k is q times it."""
    count = 2048
    while True:
        b = binomial_coefficients(beta, count + 1)
        k = np.arange(1.0, count)
        rho = q * np.maximum((k + 1.0 - beta) / (k + 2.0), 1.0)
        with np.errstate(divide="ignore"):
            tail = pref * np.abs(b[2:]) * q ** (k + 1.0) / (1.0 - rho)
        hit = np.flatnonzero((k + 1.0 > beta) & (rho < 1.0) & (tail <= tol))
        if len(hit):
            return b[:hit[0] + 2], float(tail[hit[0]])
        count *= 2


def taylor_delta_power(g, f, beta, tol, lambda_star):
    """Delta^beta f by the power series of `binomial_series` on the
    mean-projected f, (coefficients, result)."""
    b, _ = binomial_series(beta, lambda_star, tol)
    acc = np.zeros(g.n)
    for c, u in zip(b, step_powers(g, f - (g.m @ f) / g.m.sum(), len(b) - 1)):
        acc += c * u
    return b, acc


def resolvent_frac_coefficients(s, power, tol):
    """(coefficients, tail bound) of the Taylor series of
    (I + s Delta)^{-power} = (1+s)^{-power} (1 - q P)^{-power},
    q = s/(1+s), one term at a time: the truncation is the first k >= 1
    whose certified tail is <= tol (`binomial_series` at beta = -power,
    weight q and prefactor (1+s)^{-power}, term by term)."""
    q = s / (1.0 + s)
    pref = (1.0 + s) ** (-power)
    a = 1.0
    coeffs = [pref * a]
    k = 0
    while True:
        a = a * (k + power) / (k + 1)
        k += 1
        coeffs.append(pref * a * q ** k)
        # tail ratio sup_{j >= k+1} q (j+power)/(j+1)
        rho = q * max((k + 1 + power) / (k + 2), 1.0)
        if rho < 1.0:
            a_next = a * (k + power) / (k + 1)
            tail = pref * a_next * q ** (k + 1) / (1.0 - rho)
            if tail <= tol:
                return np.array(coeffs), tail


def taylor_resolvent_degree(s, power, tol):
    """Degree of the Taylor series in P that summed (I + s Delta)^{-power}
    before Chebyshev columns, q = s/(1+s): for an integer power M, M
    Neumann steps each truncated at the first N with q^N <= tol / M; else
    the (1 - qz)^{-power} series of `binomial_series` (pinned to
    `resolvent_frac_coefficients` in the calculus tests, and vectorized:
    the loop takes seconds over the scales 1..600)."""
    q = s / (1.0 + s)
    if float(power).is_integer():
        M = int(power)
        return M * max(0, math.ceil(math.log(tol / M) / math.log(q)))
    return len(binomial_series(-power, q, tol, (1.0 + s) ** (-power))[0]) - 1


def family_per_s(g, family, f, s, M):
    """One Davies-Gaffney family at one scale, by scalar calls (the
    per-scale reference for the sweeps of `calculus.FAMILIES`)."""
    if family in ("heat", "delta_heat", "grad_heat"):
        out = apply_P(g, f, int(s))
        if family == "delta_heat":
            for _ in range(M):
                out = s * (out - apply_P(g, out))
        if family == "grad_heat":
            out = math.sqrt(s) * gradient(g, out)
        return out
    if family == "resolvent":
        return resolvent_apply(g, f, s, float(M))
    if family == "resolvent_diff":
        return bz2_apply(g, f, s, M)
    if family == "grad_resolvent":
        out = resolvent_apply(g, f, s, M + 0.5)
        for _ in range(M):
            out = out - apply_P(g, out)
        return s ** (M + 0.5) * gradient(g, out)
    raise ValueError(family)


def bmo_norm_per_s(g, f, kind, M, s_max, seed=0, cap=4096):
    """(value, argmax, enumeration_policy) of `hardy.bmo_norm` one scale
    and one candidate at a time: a scalar `bz2_apply` per s for bz2, a dense
    ball mask per s.  bz1 tuples are enumerated while s^M <= cap
    (`hardy.TUPLE_EXHAUSTIVE_CAP` for the default) and sampled past it;
    the policy names the scales of each, a sampled range as a lower
    bound."""
    f = np.asarray(f, dtype=float)
    best = (-1.0, None)
    enumerated, drawn = [], []  # the scales of each policy
    PK = np.column_stack(step_powers(g, f, 2 * s_max * M))
    rng = np.random.default_rng(seed)
    for s in range(1, s_max + 1):
        r = math.ceil(math.sqrt(s))
        mask = g.dist < r
        vols = mask @ g.m
        if kind == "bz2":
            candidates = [((), bz2_apply(g, f, s, M))]
            enumerated.append(s)
        else:
            if s ** M <= cap:
                tuples = itertools.product(range(s, 2 * s + 1), repeat=M)
                enumerated.append(s)
            else:
                drawn.append(s)
                corner = list(itertools.product((s, 2 * s), repeat=M))
                sampled = [tuple(rng.integers(s, 2 * s + 1, size=M))
                           for _ in range(32)]
                tuples = corner + sampled
            candidates = []
            for times in tuples:
                u = np.zeros_like(f)
                for bits in range(1 << M):
                    chosen = [i for i in range(M) if bits >> i & 1]
                    u += (-1.0) ** len(chosen) * PK[:, sum(times[i] for i in chosen)]
                candidates.append((times, u))
        for times, u in candidates:
            local = (mask @ (u * u * g.m)) / vols
            x = int(np.argmax(local))
            val = math.sqrt(float(local[x]))
            if val > best[0]:
                best = (val, {"s": s, "times": list(times), "center": x,
                              "radius": r})
    parts = []
    if enumerated:
        parts.append(f"exhaustive s<={max(enumerated)}")
    if drawn:
        low = "" if min(drawn) == 1 else f"{min(drawn)}<="
        parts.append(f"sampled {low}s<={max(drawn)} (lower bound)")
    return best + ("+".join(parts),)


def riesz_entries_per_input(g, suite, l_max=None):
    """The entries of `riesz.riesz_h1_experiment`, one `riesz` call per
    input; the chain gap is the L^2 distance of Delta^{-1/2} d* of the
    output from the input, relative to the input's norm."""
    entries = []
    for label, f in suite:
        res = riesz(g, f, l_max)
        denom = res.h1_quad_input
        ratio = res.norm_l1_gradient / denom if denom > 0 else None
        h = form_potential(g, res.output)
        gap = lp_norm(g, h - res.input, 2)
        entries.append(RieszSuiteEntry(label, denom, res.norm_l1_gradient, ratio,
                                       gap / res.norm_l2_input if res.norm_l2_input > 0 else gap))
    return entries


class MarkovCount:
    """The products with P made on a graph since this count was taken
    (or since `products` was last set), read off `g.matvec_calls`."""

    def __init__(self, g):
        self.graph = g
        self._base = g.matvec_calls

    @property
    def products(self):
        return self.graph.matvec_calls - self._base

    @products.setter
    def products(self, value):
        self._base = self.graph.matvec_calls - value


def counting_markov(g):
    """A count of the products with P made on g from now on."""
    return MarkovCount(g)


def top_level(values):
    """Number of levels up to the last one of a dense (n, L + 1) array
    holding a nonzero entry (0 for an all-zero array)."""
    live = np.flatnonzero(values.any(axis=0))
    return int(live[-1]) + 1 if live.size else 0


def eta_coefficients_recurrence(eta, count):
    """c_l, l = 1..count, of (1-z)^{-eta} by the ratio recurrence
    c_{l+1} = c_l (l + eta - 1) / l, one rounding per step."""
    out = np.empty(count)
    out[:1] = 1.0
    for l in range(1, count):
        out[l] = out[l - 1] * (l + eta - 1) / l
    return out


def horner_synthesis_levels_first(g, atoms, eta, beta, exp):
    """`tentspace.horner_synthesis` with the whole heat prefix
    Delta^exp (I + P)^eta applied to the (n, sum top) block of levels
    before the scans, (I + P)^eta first."""
    tops = [e.top for e in atoms]
    starts = np.cumsum(tops) - tops
    V = np.zeros((g.n, int(sum(tops))))
    for e, lo, top in zip(atoms, starts, tops):
        V[e.verts, lo:lo + top] = e.rows()
    for _ in range(eta):
        V += apply_P(g, V)
    if float(exp).is_integer():
        for _ in range(int(exp)):
            V -= apply_P(g, V)
    else:
        V = delta_power_apply(g, V, exp)
    top = max(tops, default=0)
    coeffs = (eta_coefficients_recurrence(eta, top)
              / np.arange(1, top + 1, dtype=float) ** beta)
    out = np.empty((g.n, len(atoms)))
    for i, (lo, k) in enumerate(zip(starts, tops)):
        out[:, i] = horner(g, V[:, lo:lo + k] * coeffs[:k])
    return out


def reproducing_l_max_mpmath(g, eta, tol, digits=50):
    """`calculus.reproducing_l_max` at `digits` digits: the least K whose
    reproducing error at lambda_star of the graph's record is at most
    tol.  That error, the chance of fewer than eta successes of
    probability 1 - z in K + eta trials (z = lambda_star^2), is the
    regularized incomplete beta function I_z(K + 1, eta), decreasing in
    K; K doubles until it meets tol, and the last step is bisected."""
    import mpmath

    with mpmath.workdps(digits):
        z = mpmath.mpf(spectrum(g).lambda_star) ** 2

        def met(K):
            return mpmath.betainc(K + 1, eta, 0, z, regularized=True) <= tol

        if met(0):
            return 0
        lo, hi = 0, 1
        while not met(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if met(mid) else (mid, hi)
        return hi


def reproducing_l_max_spectrum(g, eta, tol, n_cap=200000):
    """`tentspace.reproducing_l_max` with the error evaluated at every
    mean-zero eigenvalue of the oracle, one array per step."""
    lams = spectral(g).eigenvalues[:-1]
    z = lams * lams
    front = (1.0 - z) ** eta
    partial = np.zeros_like(z)
    c = 1.0
    zpow = np.ones_like(z)
    for k in range(n_cap):
        partial += c * zpow
        err = np.abs(1.0 - front * partial).max()
        if err <= tol:
            return k
        c = c * (k + eta) / (k + 1)
        zpow *= z
    raise NonConvergent(f"reproducing horizon beyond {n_cap}")


def _whitney_balls_dense(g, level_mask):
    comp = ~level_mask
    rho = g.dist[:, comp].min(axis=1).astype(float)
    verts = np.where(level_mask)[0]
    order = verts[np.lexsort((verts, -rho[verts]))]
    covered = np.zeros(g.n, dtype=bool)
    centers, radii = [], []
    for x in order:
        if covered[x]:
            continue
        centers.append(int(x))
        radii.append(float(rho[x]))
        covered |= g.dist[x] < rho[x]
    return centers, radii


def tent_pieces_dense(g, F):
    """(center, radius, ys, ls) of every nonempty piece of
    `tentspace.atomic_decompose`, from dense per-level tent masks and
    slabs and one owner mask per Whitney ball: the slab entries, zeros
    of F included, row-major.  Nothing when A F is 0 everywhere."""
    l_max = F.l_max
    AF = tent_functional(g, F)
    pos = AF[AF > 0]
    if not pos.size:
        return
    k_lo = math.floor(math.log2(pos.min())) - 1
    k_hi = math.ceil(math.log2(AF.max()))
    O_next = AF > 2.0 ** k_lo
    tent_next = tent_mask(g, O_next, l_max)
    for k in range(k_lo, k_hi + 1):
        O, tent_k = O_next, tent_next
        O_next = AF > 2.0 ** (k + 1)
        tent_next = tent_mask(g, O_next, l_max)
        slab = tent_k & ~tent_next
        if not slab.any():
            continue
        if O.all():
            centers = [0]
            radii = [float(g.diameter + 1)]
            assign_of = np.zeros(g.n, dtype=int)
        else:
            centers, radii = _whitney_balls_dense(g, O)
            assign_of = np.full(g.n, -1, dtype=int)
            for i in reversed(range(len(centers))):
                assign_of[g.dist[centers[i]] < radii[i]] = i
        slab_y, slab_l = np.nonzero(slab)
        owner = assign_of[slab_y]
        for i in range(len(centers)):
            sel = owner == i
            if sel.any():
                yield centers[i], radii[i], slab_y[sel], slab_l[sel]


def atomic_decompose_dense(g, F, tol=1e-8):
    """`tentspace.atomic_decompose` over `tent_pieces_dense`, one
    (n, l_max + 1) array per atom and the residual from a float
    reconstruction."""
    vals = F.values
    AF = tent_functional(g, F)
    t1 = lp_norm(g, AF, 1)
    if not vals.any():
        return TentDecomposition([], t1)
    coefficients = []
    reconstruction = np.zeros_like(vals)
    for center, radius, ys, ls in tent_pieces_dense(g, F):
        keep = vals[ys, ls] != 0.0
        ys, ls = ys[keep], ls[keep]
        if not ys.size:
            continue
        reach = g.dist[center, ys].astype(np.int64) + np.floor(np.sqrt(ls)) + 1.0
        atom_ball = ball(g, center, float(max(radius, reach.max())))
        v = vals[ys, ls]
        t22 = math.sqrt(float(np.sum(v ** 2 / (ls + 1.0) * g.m[ys])))
        if t22 == 0.0:
            continue
        lam = t22 * math.sqrt(atom_ball.volume)
        piece = np.zeros(vals.shape)
        piece[ys, ls] = v / lam
        atom = tent_atom(atom_ball, SpaceTimeFunction(g, piece))
        coefficients.append((lam, atom))
        reconstruction[ys, ls] += v
    residual = t22_norm(SpaceTimeFunction(g, vals - reconstruction))
    if residual > tol:
        raise NonConvergent(
            f"tent decomposition residual {residual:.3e} above tol {tol:.3e}"
        )
    return TentDecomposition(coefficients, t1)


def geometry_report_masks(g):
    """(doubling constant, growth exponent) of `graphs.geometry_report`
    over every centre, with the volume table built from one dense ball
    mask per radius."""
    diam = g.diameter
    radii = np.arange(1, max(diam, 1) + 2)
    vols = np.empty((g.n, len(radii)))
    for k, r in enumerate(radii):
        vols[:, k] = (g.dist < r) @ g.m
    doubling = 1.0
    for r in range(1, max(diam, 1) + 1):
        ratio = vols[:, min(2 * r, len(radii)) - 1] / vols[:, r - 1]
        doubling = max(doubling, float(ratio.max()))
    lams, logs = [], []
    for lam in (2, 4, 8):
        feasible = [r for r in radii if lam * r <= diam and r >= 2]
        if not feasible:
            continue
        ratios = [vols[:, lam * r - 1] / vols[:, r - 1] for r in feasible]
        lams.append(np.log(lam))
        logs.append(np.log(np.mean(np.concatenate(ratios))))
    if len(lams) >= 2:
        d0 = float(max(np.polyfit(lams, logs, 1)[0], 0.0))
    elif len(lams) == 1:
        d0 = float(max(logs[0] / lams[0], 0.0))
    else:
        d0 = 0.0
    return doubling, d0


# Helpers only the tests call: the reproducing-sum check, the bounded-
# overlap annulus cover, the exponential tail bound and the constants of
# two closed-form bounds, the zero form, the L^2(T) inner product of
# forms, the CSV writers, the Riesz isometry defect and the one-atom form
# molecule.


def reproducing_check(g, f, beta, N):
    """L^2 error of the truncated reproducing sum
    sum_{k<=N} a_k Delta^beta P^k f against f (mean-zero input), a_k the
    coefficients of (1-z)^{-beta}: the same polynomial in T_k(P)."""
    ft = require_mean_zero(g, f)
    coeffs = np.polynomial.chebyshev.poly2cheb(binomial_coefficients(-beta, N + 1))
    acc = SeriesOperator(g, coeffs, math.inf).apply(ft)
    return lp_norm(g, delta_power_apply(g, acc, beta) - ft, 2)


def annulus_cover(g, b, j):
    """Bounded-overlap covering of C_j(B) by balls of radius r.

    For r in {1, 2} the balls centered on C_j(B) already work; for
    larger r the centers come from a Vitali family at scale ~ r/3.
    """
    if j < 1:
        raise ValueError("annulus index must be >= 1")
    r = int(b.radius)
    ring = annulus(b, j)
    if not ring.any():
        return []
    if r <= 2:
        return [ball(g, int(x), r) for x in np.flatnonzero(ring)]
    s = r // 3
    seed = ball(g, b.center, s)
    family = vitali_cover(g, seed, (2 ** (j + 1) * r) / s)
    out = []
    for small in family:
        tripled = g.dist[small.center] < 3 * s
        if np.any(tripled & ring):
            out.append(ball(g, small.center, r))
    return out


def exp_decay_bound(m: float, t: float, k: int) -> float:
    """((1+k)/(1+t))^m (t/(1+t))^k, the quantity dominated by
    C_m exp(-c k/(1+t))."""
    if m < 0 or t < 0 or k < 0:
        raise ValueError("m, t, k must be nonnegative")
    if k == 0:
        return (1.0 / (1.0 + t)) ** m
    if t == 0.0:
        return 0.0
    return ((1.0 + k) / (1.0 + t)) ** m * (t / (1.0 + t)) ** k


def exp_decay_constants(m: float):
    """A valid pair (C_m, c): since (1 - 1/(1+t))^{1+t} <= 1/e, the
    bound holds with c = 1/2 and C_m = max(1, (2m)^m e^{1/2 - m})."""
    c = 0.5
    if m == 0:
        return 1.0, c
    C = max(1.0, (2.0 * m) ** m * math.exp(0.5 - m))
    return C, c


def gradient_gaffney_constant(eps_lb: float) -> float:
    """Largest c with 8 c e^{8c} <= eps_LB (bisection)."""
    lo, hi = 0.0, 1.0
    while 8 * hi * math.exp(8 * hi) <= eps_lb:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 8 * mid * math.exp(8 * mid) <= eps_lb:
            lo = mid
        else:
            hi = mid
    return lo


def zero_form(g):
    return EdgeFunction(g, np.zeros(g.adjacency.nnz))


def inner_forms(g, F, G) -> float:
    """L^2(T_Gamma) inner product, (1/2) sum_{x,y} p(x,y) F G m(x) m(y)."""
    return float(0.5 * np.sum(g.adjacency.data * F.data * G.data))


def save_vertex_csv(g, f, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex,value\n")
        for i, v in enumerate(np.asarray(f, dtype=float)):
            fh.write(f"{int(g.labels[i])},{float(v)!r}\n")


def save_edge_csv(g, F, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for e in range(g.adjacency.nnz):
            x = int(g.labels[g.edge_rows[e]])
            y = int(g.labels[g.edge_cols[e]])
            fh.write(f"{x},{y},{float(F.data[e])!r}\n")


def isometry_defect(g, f) -> float:
    """| ||d Delta^{-1/2} f||_{L^2(T)} - ||f||_2 | for mean-zero f."""
    res = riesz(g, f)
    return abs(res.norm_l2_output - res.norm_l2_input)


def make_form_molecule_from_tent_atom(A, M, eps, d0=None):
    """Form analogue of `hardy.make_molecule_from_tent_atom` with
    beta = 1/2 and a trailing d Delta^{-1/2}, i.e.
    a = s^{M+1/2} d Delta^M (I + s Delta)^{-M-1/2} b: a one-atom
    `synthesize_molecules` stage."""
    g = A.ball.graph
    if d0 is None:
        d0 = cached_geometry(g).d0_estimate
    tdec = TentDecomposition([(1.0, A)])
    [(_, mol)], _ = synthesize_molecules(g, tdec, "form", M, 0.5, eps, d0)
    return mol


def kernels(g, L):
    """The kernels p_0, ..., p_L as an (L + 1, n, n) array, p_l(x, y) =
    P^l (delta_y / m(y))(x), from the level walk of diag(1 / m) that
    every pipeline runs (`operators.level_blocks`)."""
    out = np.empty((L + 1, g.n, g.n))
    for lo, block in level_blocks(g, np.diag(1.0 / g.m), L):
        out[lo:lo + len(block)] = block
    return out


def tent_mask(g, set_mask, l_max):
    """(y, k) membership of the tent over a vertex set O,
    d(y, O^c)^2 > k, with d(y, emptyset) = +inf."""
    d_out = level_set_depths(g, set_mask, [0])[0]
    k = np.arange(l_max + 1)
    return (d_out[:, None] ** 2) > k[None, :]


def annulus(b, j):
    """The mask of C_j(B) = 2^{j+1} B \\ 2^j B for j >= 2, and C_1(B) = 4B,
    from the ring table of `graphs.annulus_rings` (empty past J_B)."""
    return annulus_rings(b.graph, [b])[0][0] == j - 1


def vitali_cover(g, b, alpha):
    """Greedy maximal family of disjoint radius-r balls inside alpha*B.

    Scanning centers in ascending vertex order guarantees maximality,
    hence the tripled balls cover alpha*B (alpha >= 1).
    """
    big = ball(g, b.center, alpha * b.radius)
    taken = np.zeros(g.n, dtype=bool)
    out = []
    for x in range(g.n):
        cand = Ball(g, x, b.radius)
        if np.all(big.mask[cand.mask]) and not np.any(taken & cand.mask):
            taken |= cand.mask
            out.append(cand)
    return out


def write_graph(g, path, fmt="text"):
    """g as the edge list (or, fmt="json", the JSON object) that
    `graphs.read_graph` reads, one x y mu triple per undirected edge."""
    coo = sp.triu(g.adjacency).tocoo()
    triples = [
        (int(g.labels[i]), int(g.labels[j]), float(v))
        for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            json.dump({"edges": [[x, y, mu] for x, y, mu in triples]}, fh)
        else:
            fh.write("# x y mu\n")
            for x, y, mu in triples:
                fh.write(f"{x} {y} {mu}\n")


def _truncated(g, u, beta, l_max):
    """F(., l) = (l+1)^beta P^l u for l = 0..l_max, without a tail: the
    levels `hardy._profile` stores, cut at l_max."""
    values = heat_sweep(g, u, range(l_max + 1))
    values *= [(l + 1.0) ** beta for l in range(l_max + 1)]
    return SpaceTimeFunction(g, values)


def truncated_profile(g, f, beta, l_max):
    """F(., l) = [(l+1) Delta]^beta P^l f for l = 0..l_max only: the heat
    profile of `hardy.heat_profile` cut at l_max, its tail dropped."""
    return _truncated(g, delta_power_apply(g, f, beta), beta, l_max)


def form_profile(g, w, l_max=None, *, reach=0, tol=None):
    """F(., l) = sqrt(l+1) P^l w (w = d*G for the forms pipeline) for
    l = 0..l_max, or for every l >= 0 without l_max, the tail held by
    Delta^{-1} w: the profile `hardy.form_molecular_decompose` builds;
    reach and tol are those of the tail (`ProfileTail`)."""
    if l_max is not None:
        return _truncated(g, w, 0.5, l_max)
    return _profile(g, w, 0.5, delta_power_apply(g, w, -1.0), 1.0, reach, tol)


def m0_norm(g, phi, M, eps, x0, phi_tilde=None):
    """Dual-test-class norm sup_j 2^{j eps} V(2^j B_0)^{1/2}
    ||phi_tilde||_{L^2(C_j(B_0))} with B_0 = {x0} and phi = Delta^M phi_tilde."""
    if phi_tilde is None:
        phi_tilde = delta_power_apply(g, require_mean_zero(g, phi), -float(M))
    ring, J, volumes = annulus_rings(g, [ball(g, x0, 1)])
    mass = g.m * np.asarray(phi_tilde, dtype=float) ** 2
    return max(2.0 ** (j * eps) * math.sqrt(mass[ring[0] == j - 1].sum() * volumes[0, j - 1])
               for j in range(1, J[0] + 1))


def h2_project(g, F):
    """d Delta^{-1} d* F: the orthogonal projector onto exact forms."""
    return differential(g, delta_power_apply(g, divergence(g, F), -1.0))


def gradient_matches_fiber_norms(g, f):
    """max_x | ||df(x,.)||_{T_x} - grad f(x) |."""
    return float(np.abs(tx_norms(g, differential(g, f)) - gradient(g, f)).max(initial=0.0))


def pi_synthesis(g, F, eta, beta):
    """Synthesis sum_{l>=1} (c_l^eta / l^beta)
    Delta^{eta-beta} (I+P)^eta P^{l-1} F(., l-1): the stored levels by
    `tentspace.horner_synthesis`, and the levels of F's tail, whose beta
    must be this beta, as its share at power order - beta
    (`ProfileTail.share`); eta >= beta."""
    out = horner_synthesis(g, [entries_of(F)], eta, beta, eta - beta)[:, 0]
    if F.tail is not None:
        out += F.tail.share(eta, beta, F.tail.order - beta)
    return out


def entries_of(F):
    """F as `tentspace.SpaceTimeEntries`: one run up to its last nonzero
    level per vertex, and its tail (F.values is referenced, not copied)."""
    live = F.values != 0.0
    verts = np.flatnonzero(live.any(axis=1))
    hi = live.shape[1] - np.argmax(live[verts, ::-1], axis=1)
    return SpaceTimeEntries(F.graph, F.values, verts, np.zeros_like(hi), hi, 1.0, F.tail)


def tent_atom(b, F):
    """The `tentspace.TentAtom` over the ball b holding the dense
    space-time function F as its runs."""
    return TentAtom(b, entries_of(F))


def t22_norm(F):
    """||F||_{T^2_2} = (sum_{y, l} m(y) F(y, l)^2 / (l + 1) + the Lusin
    mass of F's tail)^{1/2}, of a dense `SpaceTimeFunction` or of
    `SpaceTimeEntries` from its rows."""
    if isinstance(F, SpaceTimeEntries):
        rows = F.rows()
        terms = rows * rows / np.arange(1.0, rows.shape[1] + 1.0)
        return math.sqrt(float(F.graph.m[F.verts] @ terms.sum(axis=1)) + tail_mass(F))
    k = np.arange(F.values.shape[1])
    return math.sqrt(float(np.sum(
        (F.values ** 2 / (k + 1.0)[None, :]) * F.graph.m[:, None]
    )) + tail_mass(F))


def is_tent_atom(A):
    """The paper's two conditions on a T^1_2 atom A over B: support in
    the tent of B (a run's last level is its highest entry), and
    ||A||_{T^2_2}^2 <= 1/V(B), to a relative 1e-12."""
    e = A.values
    depth = level_set_depths(A.ball.graph, A.ball.mask, [0])[0]
    support_ok = bool(np.all(depth[e.verts] ** 2 > e.hi - 1))
    norm_ok = t22_norm(e) ** 2 <= (1.0 + 1e-12) / A.ball.volume
    return support_ok and norm_ok


def tent_residual(F, dec):
    """The T^2_2 norm of the stored levels of F that no atom of the tent
    decomposition dec holds: what the atoms leave out."""
    owned = np.zeros(F.values.shape, dtype=bool)
    for _, atom in dec.coefficients:
        owned |= atom.values.values != 0.0
    return t22_norm(SpaceTimeFunction(F.graph, np.where(owned, 0.0, F.values)))


def sum_abs_lambda(dec):
    """Sum of |lambda| over the coefficients of a decomposition."""
    return float(sum(abs(lam) for lam, _ in dec.coefficients))


def rev_edges(g):
    """Permutation sending the CSR slot of (x, y) to the slot of (y, x)."""
    A = g.adjacency
    coo = A.tocoo()
    order = np.lexsort((coo.col, coo.row))
    assert np.all(order == np.arange(A.nnz))
    return np.lexsort((coo.row, coo.col))


def antisymmetry_defect(F):
    """max over directed edges of |F(x, y) + F(y, x)| of an EdgeFunction."""
    return float(np.abs(F.data + F.data[rev_edges(F.graph)]).max(initial=0.0))


def _lazy_decay(n):
    """1 - lam = sin^2(t / 2) at the n frequencies t = 2 pi k / n of the
    lazy walk on Z_n, P = 1/2 + cos(t)/2, in long double: the gap is
    formed without the cancellation of 1 - lam."""
    return np.sin(np.pi * np.arange(n, dtype=np.longdouble) / n) ** 2


def fourier_apply(g, f, op, s):
    """op(P) at the scale s applied to f on `zoo.lazy_cycle`,
    `zoo.lazy_torus_2d` or `zoo.lazy_path` (default loops), exact to
    rounding at any n.  The cycle and the torus are Cayley graphs of Z_n
    and Z_n^2 with uniform m, so P is diagonal in the discrete Fourier
    basis, with symbols 1/2 + cos(t)/2 and 1/2 + (cos t_1 + cos t_2)/4;
    op is evaluated there in long double and applied by one FFT pair.
    The path is the reflection quotient of the cycle of 2n - 2 vertices:
    its P is the cycle's on even extensions.  A deflated op acts on
    mean-zero functions, so its zero mode is masked by index (near 1 a
    nonzero mode of a long cycle lies within `isclose` of it)."""
    kind, n = g.meta.get("kind"), g.meta.get("n")
    f = np.asarray(f, dtype=float)
    if kind == "lazy_path":
        assert np.array_equal(g.m, np.r_[2.0, np.full(n - 2, 4.0), 2.0])
        even = np.concatenate((f, f[-2:0:-1]))
        return _fourier(even[:, None], _lazy_decay(2 * n - 2), op, s)[:n, 0]
    if kind == "lazy_cycle":
        assert np.all(g.m == 4.0)
        return _fourier(f[:, None], _lazy_decay(n), op, s)[:, 0]
    assert kind == "lazy_torus_2d" and np.all(g.m == 8.0)
    d = _lazy_decay(n)
    return _fourier(f.reshape(n, n), (d[:, None] + d[None, :]) / 2, op, s).ravel()


def _fourier(f, decay, op, s):
    """op(1 - decay) applied to f in the Fourier basis of its axes, the
    zero mode of a deflated op masked."""
    vals = np.asarray(op(1 - decay, s), dtype=np.longdouble)
    if op.deflated:
        vals.flat[0] = 0.0
    vals = vals.astype(float).reshape(decay.shape + (1,) * (f.ndim - decay.ndim))
    axes = tuple(range(decay.ndim))
    return np.fft.ifftn(np.fft.fftn(f, axes=axes) * vals, axes=axes).real
