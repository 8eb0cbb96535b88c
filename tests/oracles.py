"""Naive reference evaluators.

Everything here is written as literal double loops over vertices and
time levels, recomputing distances, ball volumes and cone membership
from scratch; the optimized cone iteration in the package is checked
against these.  `CountingCSR` counts the sparse products a computation
makes, for tests that pin how often the power sequence is walked.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from graphhardy.calculus import BZ2Kind, a_s, delta_power_exact, resolvent_apply, spectral
from graphhardy.errors import NonConvergent
from graphhardy.graphs import ball
from graphhardy.operators import apply_P, gradient, lp_norm, markov_matrix, powers
from graphhardy.quadratic import SpaceTimeFunction, tent_functional
from graphhardy.riesz import RieszSuiteEntry, riesz
from graphhardy.tentspace import TentAtom, TentDecomposition, tent_mask


def _ball_volume(g, x, r):
    return sum(float(g.m[y]) for y in range(g.n) if g.dist[x, y] < r)


def cone_members(g, x, l_max):
    """Parabolic cone {(y, l) : d(x, y)^2 <= l <= l_max}; (x, 0) always
    belongs."""
    return [(int(y), l) for l in range(l_max + 1)
            for y in np.where(g.dist[x] ** 2 <= l)[0]]


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
                if g.dist[x, y] ** 2 <= l:
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


def naive_tent_functional(g, F):
    vals = F.values
    out = np.zeros(g.n)
    for x in range(g.n):
        acc = 0.0
        for k in range(vals.shape[1]):
            vol = _ball_volume(g, x, math.ceil(math.sqrt(k + 1)))
            for y in range(g.n):
                if g.dist[x, y] ** 2 <= k:
                    acc += vals[y, k] ** 2 * g.m[y] / ((k + 1) * vol)
        out[x] = math.sqrt(acc)
    return out


def naive_tent_members(g, ball_mask, l_max):
    """Set of (y, k) with d(y, complement)^2 > k."""
    comp = [z for z in range(g.n) if not ball_mask[z]]
    out = set()
    for y in range(g.n):
        if comp:
            d = min(g.dist[y, z] for z in comp)
        else:
            d = math.inf
        for k in range(l_max + 1):
            if d * d > k:
                out.add((y, k))
    return out


def resolvent_frac_coefficients(s, power, tol):
    """(coefficients, tail bound) of `calculus.resolvent_frac_series`, one
    term at a time: the truncation is the first k >= 1 whose certified
    tail is <= tol."""
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
        return resolvent_apply(g, f, int(s), float(M))
    if family == "resolvent_diff":
        return a_s(g, f, BZ2Kind(int(s), M))
    if family == "grad_resolvent":
        out = resolvent_apply(g, f, int(s), M + 0.5)
        for _ in range(M):
            out = out - apply_P(g, out)
        return s ** (M + 0.5) * gradient(g, out)
    raise ValueError(family)


def bmo_norm_per_s(g, f, kind, M, s_max, tuple_policy="auto", seed=0):
    """(value, argmax) of `hardy.bmo_norm` one scale and one candidate
    at a time: a scalar `a_s` per s for bz2, a dense ball mask per s."""
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
            exhaustive = s ** M <= 4096
            if tuple_policy != "auto":
                exhaustive = tuple_policy == "exhaustive"
            if exhaustive:
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


class CountingCSR(sp.csr_matrix):
    """csr_matrix counting its products with dense operands."""

    products = 0

    def _matmul_vector(self, other):
        self.products += 1
        return super()._matmul_vector(other)

    def _matmul_multivector(self, other):
        self.products += 1
        return super()._matmul_multivector(other)


def counting_markov(g):
    """Swap the cached Markov matrix of g for a CountingCSR and return it."""
    W = markov_matrix(g)
    g._markov = CountingCSR((W.data, W.indices, W.indptr), shape=W.shape)
    return g._markov


def top_level(values):
    """Number of levels up to the last one of a dense (n, L + 1) array
    holding a nonzero entry (0 for an all-zero array)."""
    live = np.flatnonzero(values.any(axis=0))
    return int(live[-1]) + 1 if live.size else 0


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
    rho = g.dist[:, comp].min(axis=1)
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


def atomic_decompose_dense(g, F, tol=1e-8):
    """`tentspace.atomic_decompose` with dense per-level tent masks and
    slabs, one (n, l_max + 1) array per atom, one owner mask per Whitney
    ball and the residual from a float reconstruction."""
    vals = F.values
    l_max = F.l_max
    AF = tent_functional(g, F)
    t1 = lp_norm(g, AF, 1)
    nonzero = vals != 0.0
    if not nonzero.any():
        return TentDecomposition([], 0.0, 0.0, t1)
    pos = AF[AF > 0]
    k_lo = math.floor(math.log2(pos.min())) - 1
    k_hi = math.ceil(math.log2(AF.max()))
    coefficients = []
    reconstruction = np.zeros_like(vals)
    O_next = AF > 2.0 ** k_lo
    tent_next = tent_mask(g, O_next, l_max)
    for k in range(k_lo, k_hi + 1):
        O, tent_k = O_next, tent_next
        O_next = AF > 2.0 ** (k + 1)
        tent_next = tent_mask(g, O_next, l_max)
        slab = tent_k & ~tent_next & nonzero
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
            if not sel.any():
                continue
            ys, ls = slab_y[sel], slab_l[sel]
            reach = g.dist[centers[i], ys] + np.floor(np.sqrt(ls)) + 1.0
            R = float(max(radii[i], reach.max()))
            atom_ball = ball(g, centers[i], R)
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


def geometry_report_masks(g, n_exhaustive=2000, sample_size=256, seed=0):
    """(doubling constant, growth exponent, enumeration policy) of
    `graphs.geometry_report`, with the volume table built from one dense
    ball mask per radius."""
    if g.n <= n_exhaustive:
        centers = np.arange(g.n)
        policy = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        centers = rng.choice(g.n, size=min(sample_size, g.n), replace=False)
        policy = f"sampled({len(centers)})"
    diam = g.diameter
    D = g.dist[centers]
    radii = np.arange(1, max(diam, 1) + 2)
    vols = np.empty((len(centers), len(radii)))
    for k, r in enumerate(radii):
        vols[:, k] = (D < r) @ g.m
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
    return doubling, d0, policy
