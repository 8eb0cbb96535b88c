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
and the certified series objects are compared against, and
`lusin_tail_bound_spectral` sums the Lusin tail over the oracle's
eigenvalues, the reference of `quadratic.lusin_tail_bound`.
`chebyshev_terms` is the three-term recurrence one `markov_step` at a
time, the reference of the chained walk `operators.chebyshev_blocks`.
`lusin_tail_mass_exact` and `reproducing_tail_exact` sum a profile's
levels past a horizon to infinity over the oracle's eigenvalues in long
double, the references of the closed-form tail (`ProfileTail`).
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from graphhardy.calculus import (BZ2Kind, SeriesOperator, a_s, binomial_coefficients,
                                 delta_power_apply, require_mean_zero, resolvent_apply,
                                 spectral, spectrum)
from graphhardy.errors import NonConvergent
from graphhardy.graphs import annulus, ball, cached_geometry, vitali_cover
from graphhardy.hardy import synthesize_molecules
from graphhardy.operators import (EdgeFunction, apply_P, gradient, horner, lp_norm,
                                  markov_step, mean_project, powers)
from graphhardy.quadratic import SpaceTimeFunction, tent_functional
from graphhardy.riesz import RieszSuiteEntry, riesz
from graphhardy.tentspace import HORIZON_CAP, TentAtom, TentDecomposition, tent_mask


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


def lusin_tail_bound_spectral(g, f, beta, l_max):
    """`quadratic.lusin_tail_bound` eigenvalue by eigenvalue:
    (1/min m) sum_{l > L} (l+1)^{2b-1} ||Delta^b P^l Pi f||_2^2 with each
    norm summed over the oracle's mean-zero eigenvalues, until a term is
    at most 1e-30 times the sum; the oracle's cap applies."""
    o = spectral(g)
    lam = o.eigenvalues[:-1]
    coeff = (o.basis.T @ (mean_project(g, f) * np.sqrt(g.m)))[:-1]
    front = coeff ** 2 * (1.0 - lam) ** (2 * beta)
    zpow = lam ** (2 * (l_max + 1))
    total = 0.0
    l = l_max + 1
    while True:
        term = float(np.sum(front * zpow)) * (l + 1.0) ** (2 * beta - 1)
        total += term
        if term <= 1e-30 * max(total, 1e-300) or np.max(zpow, initial=0.0) == 0.0:
            break
        zpow *= lam * lam
        l += 1
    return math.sqrt(total / g.m.min())


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


def reproducing_tail_exact(g, h, K, eta, power):
    """sum_{j>K} c_{j+1} Delta^power P^{2j} h, c_{j+1} = C(j + eta - 1,
    eta - 1), for a mean-zero h, with no horizon: over the oracle's
    mean-zero eigenvalues, each series summed in np.longdouble."""
    lam, coeff = _mean_zero_modes(g, h)
    series = tail_series_longdouble(
        lam, K + 1, lambda j: np.longdouble(math.comb(j + eta - 1, eta - 1)))
    psi = np.power(1.0 - lam.astype(np.longdouble), power) * series
    o = spectral(g)
    return o.basis[:, :-1] @ (psi * coeff).astype(float) / o.sqrt_m


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
    for c, u in zip(b, powers(g, f - (g.m @ f) / g.m.sum(), len(b) - 1)):
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
        return a_s(g, f, BZ2Kind(s, M))
    if family == "grad_resolvent":
        out = resolvent_apply(g, f, s, M + 0.5)
        for _ in range(M):
            out = out - apply_P(g, out)
        return s ** (M + 0.5) * gradient(g, out)
    raise ValueError(family)


def bmo_norm_per_s(g, f, kind, M, s_max, seed=0, cap=4096):
    """(value, argmax) of `hardy.bmo_norm` one scale and one candidate
    at a time: a scalar `a_s` per s for bz2, a dense ball mask per s.
    bz1 tuples are enumerated while s^M <= cap (`hardy.TUPLE_EXHAUSTIVE_CAP`
    for the default) and sampled past it."""
    f = np.asarray(f, dtype=float)
    best = (-1.0, None)
    PK = np.column_stack(list(powers(g, f, 2 * s_max * M)))
    rng = np.random.default_rng(seed)
    for s in range(1, s_max + 1):
        r = math.ceil(math.sqrt(s))
        mask = g.dist < r
        vols = mask @ g.m
        if kind == "bz2":
            candidates = [((), a_s(g, f, BZ2Kind(s, M)))]
        else:
            if s ** M <= cap:
                tuples = itertools.product(range(s, 2 * s + 1), repeat=M)
            else:
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
    return best


def riesz_entries_per_input(g, suite, l_max=None):
    """The entries of `riesz.riesz_h1_experiment`, one `riesz` call per
    input."""
    entries = []
    for label, f in suite:
        res = riesz(g, f, l_max)
        denom = res.h1_quad_input
        ratio = res.norm_l1_gradient / denom if denom > 0 else math.inf
        gap = abs(res.h1_quad_output - res.h1_quad_input)
        entries.append(RieszSuiteEntry(label, res.h1_quad_input, res.h1_quad_output,
                                       res.norm_l1_gradient, ratio,
                                       gap / denom if denom > 0 else gap))
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
    for e, lo in zip(atoms, starts):
        V[e.ys, lo + e.ls] = e.vals
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


def reproducing_l_max_loop(g, eta, tol):
    """`tentspace.reproducing_l_max` as the scalar recurrence, one level
    per step from k = 0."""
    lam = spectrum(g).lambda_star
    z = lam * lam
    front = (1.0 - z) ** eta
    partial = 0.0
    c = 1.0
    zpow = 1.0
    for k in range(HORIZON_CAP):
        partial += c * zpow
        if abs(1.0 - front * partial) <= tol:
            return k
        c = c * (k + eta) / (k + 1)
        zpow *= z
    raise NonConvergent(f"reproducing horizon beyond {HORIZON_CAP}")


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
        return TentDecomposition([], 0.0, 0.0, t1)
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
        atom = TentAtom(atom_ball, SpaceTimeFunction(g, piece),
                        1.0 / math.sqrt(atom_ball.volume))
        coefficients.append((lam, atom))
        reconstruction[ys, ls] += v
    residual = SpaceTimeFunction(g, vals - reconstruction).t22_norm()
    if residual > tol:
        raise NonConvergent(
            f"tent decomposition residual {residual:.3e} above tol {tol:.3e}"
        )
    sum_abs = float(sum(abs(lam) for lam, _ in coefficients))
    return TentDecomposition(coefficients, float(residual), sum_abs, t1)


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
    if not ring.mask.any():
        return []
    if r <= 2:
        return [ball(g, int(x), r) for x in ring.members]
    s = r // 3
    seed = ball(g, b.center, s)
    family = vitali_cover(g, seed, (2 ** (j + 1) * r) / s)
    out = []
    for small in family:
        tripled = g.dist[small.center] < 3 * s
        if np.any(tripled & ring.mask):
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
    tdec = TentDecomposition([(1.0, A)], 0.0, 1.0)
    [(_, mol)], _ = synthesize_molecules(g, tdec, "form", M, 0.5, eps, d0)
    return mol
