"""Discrete tent spaces: T^1_2 atoms, the stopping-time atomic
decomposition, and the synthesis operator mapping tent atoms back to
vertex functions.

The decomposition is the standard one over dyadic level sets of the
tent functional; tie-breaking is frozen (levels bottom-up, Whitney
centers largest-ball-first then ascending vertex index) so runs are
reproducible.  Every emitted atom satisfies the support and size
conditions exactly, and the pieces partition the support of F, so the
reconstruction residual is at rounding level.

At a vertex y the tent over O holds the levels l < h(y) = d(y, O^c)^2,
so the slab tent(O_k) minus tent(O_{k+1}) is one run of levels per
vertex, [h_{k+1}(y), h_k(y)), and the decomposition is a table of
heights over the row-major profile: one reduction of the Lusin terms at
the run boundaries gives every run's sum, and an atom keeps only its
runs into the one profile (`SpaceTimeEntries`).  Synthesis scatters each
atom only into its own (n, top) column range, below its last level, of
one block shared by all atoms it synthesizes.

Synthesis splits the heat prefix Delta^exp (I + P)^eta of the paper's
pi_{eta, beta}: Delta^exp runs on that block of levels, because the raw
sum over the levels cancels and the cancellative factor must come
before it, and (I + P)^eta, whose spectrum lies in [0, 2^eta], runs on
the (n, atoms) output of the scans.

A profile's levels past l_max >= diam^2 may come as its closed-form
tail (`ProfileTail`) instead of stored.  A tent over any proper vertex
set has height at most diam^2, so those levels all lie in the one piece
over the whole graph: the decomposition adds the tail's Lusin mass to
that piece, and to A F(x)^2 over m(Gamma) at every x, and the synthesis
adds that atom's tail as one function of P applied to its potential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import delta_power_apply, spectrum
from .errors import NonConvergent
from .graphs import Ball, WeightedGraph, ball, distance_to
from .operators import apply_P, delta_steps, horner, lp_norm
from .quadratic import (ProfileTail, SpaceTimeFunction, lusin_terms, tail_mass,
                        tent_functional_of_terms)

# Longest reproducing horizon `reproducing_l_max` searches.
HORIZON_CAP = 200_000


def _tent_depth(g: WeightedGraph, set_mask: np.ndarray) -> np.ndarray:
    """d(y, O^c) for every vertex y, as floats (squared without wrapping),
    with d(y, emptyset) = +inf."""
    comp = np.flatnonzero(~set_mask)
    if not comp.size:
        return np.full(g.n, np.inf)
    return distance_to(g, comp)


def _tent_height(depth: np.ndarray, l_max: int) -> np.ndarray:
    """Number of tent levels at each vertex: d^2 > l iff l < ceil(d^2),
    clipped to the l_max + 1 levels there are."""
    return np.minimum(np.ceil(depth ** 2), l_max + 1).astype(np.int64)


def tent_mask(g: WeightedGraph, set_mask: np.ndarray, l_max: int) -> np.ndarray:
    """(y, k) membership of the tent over a vertex set O,
    d(y, O^c)^2 > k, with d(y, emptyset) = +inf."""
    d_out = _tent_depth(g, set_mask)
    k = np.arange(l_max + 1)
    return (d_out[:, None] ** 2) > k[None, :]


def tent(b: Ball, l_max: int) -> np.ndarray:
    return tent_mask(b.graph, b.mask, l_max)


@dataclass
class SpaceTimeEntries:
    """A space-time function on levels 0..l_max held as runs of one
    shared (n, l_max + 1) profile: profile[y, l] / scale at y = verts[j]
    for lo[j] <= l < hi[j], and 0 elsewhere, and, with a `tail`
    (ProfileTail), the levels past l_max that it holds.  The
    vertices increase and each run ends at a nonzero entry, so `top` is
    the largest hi.  The nonzero entries F(ys[i], ls[i]) = vals[i] of the
    stored levels, row-major with int32 indices, and the dense `values`
    are built on access."""

    graph: WeightedGraph
    profile: np.ndarray = field(repr=False)
    verts: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    scale: float = 1.0
    tail: ProfileTail = None

    @classmethod
    def of(cls, F: SpaceTimeFunction) -> "SpaceTimeEntries":
        """F as one run up to its last nonzero level per vertex, and its
        tail (F.values is referenced, not copied)."""
        live = F.values != 0.0
        verts = np.flatnonzero(live.any(axis=1))
        hi = live.shape[1] - np.argmax(live[verts, ::-1], axis=1)
        return cls(F.graph, F.values, verts, np.zeros_like(hi), hi, 1.0, F.tail)

    @property
    def l_max(self) -> int:
        return self.profile.shape[1] - 1

    @property
    def top(self) -> int:
        """One past the last level holding an entry (0 without entries)."""
        return int(self.hi.max(initial=0))

    def rows(self) -> np.ndarray:
        """The (len(verts), top) rows of the function at its vertices,
        0 outside the runs."""
        rows = self.profile[self.verts, :self.top]
        rows /= self.scale
        levels = np.arange(rows.shape[1])
        rows[(levels < self.lo[:, None]) | (levels >= self.hi[:, None])] = 0.0
        return rows

    def _entries(self):
        rows = self.rows()
        i, ls = np.nonzero(rows)
        return self.verts[i].astype(np.int32), ls.astype(np.int32), rows[i, ls]

    ys = property(lambda self: self._entries()[0])
    ls = property(lambda self: self._entries()[1])
    vals = property(lambda self: self._entries()[2])

    @property
    def values(self) -> np.ndarray:
        """Dense (n, l_max + 1) view of the stored levels, built on each
        access."""
        out = np.zeros((self.graph.n, self.l_max + 1))
        out[self.verts, :self.top] = self.rows()
        return out

    def t22_norm(self) -> float:
        ys, ls, vals = self._entries()
        return math.sqrt(float(np.sum(vals ** 2 / (ls + 1.0) * self.graph.m[ys]))
                         + tail_mass(self))


@dataclass
class TentAtom:
    """Space-time function supported in the tent of `ball` with
    ||A||_{T^2_2}^2 <= 1/V(ball), kept as its runs (a dense
    SpaceTimeFunction passed in is converted)."""

    ball: Ball
    values: SpaceTimeEntries = field(repr=False)
    t22_norm: float

    def __post_init__(self):
        if isinstance(self.values, SpaceTimeFunction):
            self.values = SpaceTimeEntries.of(self.values)

    def validate(self):
        """Support in the tent of the ball (a run's last level is its
        highest entry), and the size bound to a relative 1e-12."""
        e = self.values
        depth = _tent_depth(self.ball.graph, self.ball.mask)
        support_ok = bool(np.all(depth[e.verts] ** 2 > e.hi - 1))
        norm_ok = e.t22_norm() ** 2 <= (1.0 + 1e-12) / self.ball.volume
        return support_ok and norm_ok


@dataclass
class TentDecomposition:
    coefficients: list  # (lambda_i, TentAtom)
    residual_t22: float
    sum_abs_lambda: float
    t1_norm: float = 0.0  # ||A F||_1 of the decomposed F

    def to_json(self):
        return json.dumps(
            {
                "atoms": [
                    {
                        "lambda": lam,
                        "center": int(atom.ball.center),
                        "radius": float(atom.ball.radius),
                        "t22_norm": atom.t22_norm,
                    }
                    for lam, atom in self.coefficients
                ],
                "residual_t22": self.residual_t22,
                "sum_abs_lambda": self.sum_abs_lambda,
            },
            indent=2,
        )


def _whitney_balls(g: WeightedGraph, rho: np.ndarray):
    """Greedy ball cover of the proper subset O = {rho > 0}, where
    rho = d(., O^c): centers taken largest rho first, ties by vertex
    index.  Returns (centers, radii, owner), owner[y] the index of the
    first selected ball containing y (-1 outside every ball)."""
    verts = np.flatnonzero(rho > 0)
    order = verts[np.lexsort((verts, -rho[verts]))]
    owner = np.full(g.n, -1)
    centers, radii = [], []
    for x in order:
        if owner[x] >= 0:
            continue
        owner[(g.dist[x] < rho[x]) & (owner < 0)] = len(centers)
        centers.append(int(x))
        radii.append(float(rho[x]))
    return centers, radii, owner


def _run_sums(w: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """(n, S + 1) sums of the C-ordered (n, width) array w over the runs
    that the nondecreasing rows of `heights` (S + 1, n), heights[0] = 0,
    cut each row into: column c < S over [heights[c], heights[c + 1]),
    column S over [heights[S], width).  One reduction at the run starts;
    an empty run sums to 0."""
    n, width = w.shape
    starts = (heights.T + np.arange(n)[:, None] * width).ravel()
    sums = np.zeros(starts.size)
    # an empty run starts where the next one does, so the nonempty runs
    # end where the next nonempty one starts (the last at the end of w)
    live = np.flatnonzero(np.diff(starts, append=n * width))
    sums[live] = np.add.reduceat(w.reshape(-1), starts[live])
    return sums.reshape(n, -1)


def _run_tops(vals: np.ndarray, verts, lo, hi) -> np.ndarray:
    """The last level l in [lo, hi) with vals[y, l] != 0 at each y of
    verts (lo and hi indexed by vertex), -1 for a run of zeros."""
    top = hi[verts] - 1
    for j in np.flatnonzero(vals[verts, top] == 0.0):
        y = verts[j]
        live = np.flatnonzero(vals[y, lo[y]:hi[y]])
        top[j] = lo[y] + live[-1] if live.size else -1
    return top


def atomic_decompose(g: WeightedGraph, F: SpaceTimeFunction,
                     tol=1e-8) -> TentDecomposition:
    """Stopping-time atomic decomposition of F in T^1_2.

    Level sets O_k = {A F > 2^k} carve the support of F into tent
    differences; each slab is split along a Whitney cover of O_k and
    each piece is normalized into a T^1_2 atom.

    The levels of F's tail lie past diam^2, so they are in the tent of
    O_k only where O_k is the whole graph: the tail joins the one piece
    of the slab over the whole graph, its Lusin mass added to that
    piece's, whose runs end at l_max and whose radius covers the levels
    up to the tail's reach.  A nonzero tail without that piece raises
    NonConvergent.
    """
    vals = np.ascontiguousarray(F.values)
    l_max = F.l_max
    tau = tail_mass(F)
    w = lusin_terms(F)
    AF = tent_functional_of_terms(g, w, tau)
    t1 = lp_norm(g, AF, 1)
    pos = AF[AF > 0]
    # no level set when every Lusin term underflows: F is all residual
    ks = range(0)
    if pos.size:
        ks = range(math.floor(math.log2(pos.min())) - 1, math.ceil(math.log2(AF.max())) + 1)
    depths = [_tent_depth(g, AF > 2.0 ** k) for k in ks]
    # heights[j] holds the tent levels of O_{k_hi + 1 - j}; O_{k_hi + 1}
    # is empty, so is its tent, and heights[S] is that of O_{k_lo}
    S = len(ks)
    heights = np.stack([np.zeros(g.n, dtype=np.int64)]
                       + [_tent_height(d, l_max) for d in depths[::-1]])
    sums = _run_sums(w, heights)
    del w
    coefficients = []
    held = False  # whether a piece holds the tail
    for j, depth in enumerate(depths):
        c = S - 1 - j  # the slab of O_{k_lo + j} in the run table
        lo, hi = heights[c], heights[c + 1]
        verts = np.flatnonzero(hi > lo)
        if not verts.size:
            continue
        whole = np.isinf(depth).all()  # O_k is the whole graph
        if whole:
            centers, radii = [0], [float(g.diameter + 1)]
            owner = np.zeros(g.n, dtype=int)
        else:
            centers, radii, owner = _whitney_balls(g, depth)
        owner = owner[verts]
        mass = np.bincount(owner, g.m[verts] * sums[verts, c], minlength=len(centers))
        holder = whole and tau > 0.0  # the piece that holds the tail
        if holder:
            mass[0] += tau
            held = True
        if not mass.any():
            continue
        top = _run_tops(vals, verts, lo, hi)
        # the runs holding an entry, grouped by owner in vertex order, so
        # each piece's runs are one slice
        order = np.flatnonzero(top >= 0)
        order = order[np.argsort(owner[order], kind="stable")]
        verts, owner, top = verts[order], owner[order], top[order]
        lo = lo[verts]
        covered = np.maximum(top, F.tail.reach) if holder else top
        reach = g.dist[np.asarray(centers)[owner], verts] + np.floor(np.sqrt(covered)) + 1.0
        bounds = np.searchsorted(owner, np.arange(len(centers) + 1))
        for i in np.flatnonzero(mass):
            runs = slice(bounds[i], bounds[i + 1])
            # radius large enough that every entry sits in the tent
            atom_ball = ball(g, centers[i], max(radii[i], float(reach[runs].max(initial=0.0))))
            lam = math.sqrt(mass[i]) * math.sqrt(atom_ball.volume)
            entries = SpaceTimeEntries(g, vals, verts[runs], lo[runs], top[runs] + 1, lam,
                                       F.tail.scaled(lam) if holder else None)
            coefficients.append((lam, TentAtom(atom_ball, entries,
                                               1.0 / math.sqrt(atom_ball.volume))))
    if tau > 0.0 and not held:
        raise NonConvergent(f"the tail of Lusin mass {tau:.3e} lies in no tent: "
                            "no level set of A F is the whole graph")
    # the atoms hold every entry in a tent but those of pieces whose
    # norm is 0, so what they miss weighs what lies outside every tent
    residual = math.sqrt(float(g.m @ sums[:, S]))
    if residual > tol:
        raise NonConvergent(
            f"tent decomposition residual {residual:.3e} above tol {tol:.3e}"
        )
    sum_abs = float(sum(abs(lam) for lam, _ in coefficients))
    return TentDecomposition(coefficients, residual, sum_abs, t1)


# -- synthesis ----------------------------------------------------------------

def eta_coefficients(eta: int, count: int) -> np.ndarray:
    """c_l for l = 1..count with sum_l c_l z^{l-1} = (1-z)^{-eta}, eta >= 1:
    the binomial coefficient prod_{j=1}^{eta-1} (l - 1 + j) / (eta - 1)!,
    exact while the product stays below 2^53."""
    if eta < 1:
        raise ValueError("eta must be >= 1")
    out = np.ones(count)
    base = np.arange(count, dtype=float)
    for j in range(1, eta):
        out *= base + j
    out /= math.factorial(eta - 1)
    return out


def horner_synthesis(g: WeightedGraph, atoms, eta: int, beta: float,
                     exp: float) -> np.ndarray:
    """The (n, k) block whose column i is
    sum_{l>=1} (c_l^eta / l^beta) Delta^exp (I + P)^eta P^{l-1} F_i(., l-1)
    for the k space-time functions F_i held in `atoms` (SpaceTimeEntries):
    the stored levels l - 1 < top_i are scanned, and the levels of a
    tail, (l+1)^beta P^l u / scale for l past l_max, come in closed form,
    psi(P) h / scale for the potential h of u (`ProfileTail.synthesis`,
    which needs the tail's beta to be this beta), added to the scan's
    output.

    Only the levels l - 1 < top_i = `atoms[i].top` are visited: every F_i
    is scattered into its own column range of one (n, sum_i top_i)
    block, Delta^exp is applied to that whole block in place (one block
    product per factor, whatever k), each column is scaled by its
    level's entry of one coefficient table up to max_i top_i, in one
    multiply, each function's columns are scanned by `operators.horner`
    (top_i - 1 products), and (I + P)^eta is applied to the (n, k)
    output.  This is exact, not an approximation: the factors are linear
    and column-wise, so a zero level contributes a zero column, and the
    scan over the levels above top_i only ever carries the zero vector.
    A tent atom over B(x, R) lives at levels k < R^2, so top_i is
    usually far below the horizon.

    Delta^exp stays on the levels: the raw sum of the P^{l-1} F_i(., l-1)
    is badly conditioned (its terms are large and cancel), and applying
    the cancellative factor before the scan keeps the partial sums at the
    output scale.  (I + P)^eta has its spectrum in [0, 2^eta], so nothing
    cancels in it: it commutes with the scan and runs on k columns
    instead of sum_i top_i.  An integer exp is applied as exp exact steps
    of `operators.delta_steps` in place on the block (never through the
    oracle, so it is the same on every graph size); a fractional exp goes
    through `delta_power_apply`.  Any further function of P (a molecule's
    per-atom scale) likewise belongs on the (n, k) output.
    """
    tops = np.array([e.top for e in atoms], dtype=np.int64)
    starts = np.cumsum(tops) - tops
    width = int(tops.sum())
    V = np.zeros((g.n, width))
    for e, lo, k in zip(atoms, starts, tops):
        V[e.verts, lo:lo + k] = e.rows()
    if float(exp).is_integer():
        delta_steps(g, V, int(exp))
    else:
        V = delta_power_apply(g, V, exp)
    top = int(tops.max(initial=0))
    coeffs = eta_coefficients(eta, top) / np.arange(1, top + 1, dtype=float) ** beta
    V *= coeffs[np.arange(width) - np.repeat(starts, tops)]
    out = np.empty((g.n, len(atoms)))
    for i, (lo, k) in enumerate(zip(starts, tops)):
        out[:, i] = horner(g, V[:, lo:lo + k])
    for i, e in enumerate(atoms):
        if e.tail is not None:
            if e.tail.beta != beta:
                raise ValueError(f"a tail of weight (l+1)^{e.tail.beta} synthesized at "
                                 f"beta = {beta}")
            out[:, i] += e.tail.synthesis(eta, exp)
    for _ in range(eta):
        out += apply_P(g, out)
    return out


def pi_synthesis(g: WeightedGraph, F: SpaceTimeFunction, eta: int,
                 beta: float) -> np.ndarray:
    """Synthesis sum_{l>=1} (c_l^eta / l^beta)
    Delta^{eta-beta} (I+P)^eta P^{l-1} F(., l-1), via `horner_synthesis`."""
    if eta < beta:
        raise ValueError("eta must be >= beta")
    return horner_synthesis(g, [SpaceTimeEntries.of(F)], eta, beta, eta - beta)[:, 0]


def reproducing_l_max(g: WeightedGraph, eta: int, tol: float) -> int:
    """Horizon L with || sum_{k<=L} c_{k+1} (I-P^2)^eta P^{2k} f - f ||
    <= tol ||f|| on the mean-zero subspace, from one scalar; eta >= 1.

    At an eigenvalue lambda of P the error is
    1 - (1-z)^eta sum_{k<=L} c_k z^k with z = lambda^2.  It lies in
    [0, 1] and increases in z (its derivative is
    -(L+eta) c_L z^L (1-z)^(eta-1)), so its sup over the mean-zero
    spectrum is its value at z = lambda_star^2, and L is the first k at
    which the scalar recurrence c_{k+1} = c_k (k + eta) / (k + 1),
    z^{k+1} = z^k z, partial_k = partial_{k-1} + c_k z^k meets tol.  A
    periodic walk (lambda_star = 1) raises PeriodicWalk before the
    search starts, and a horizon past HORIZON_CAP raises NonConvergent.

    The recurrence runs a block of levels at a time while c_k (k + eta)
    < 2^53: there each c_k is the exact binomial C(k + eta - 1, eta - 1),
    built as prod_j (k + j) / j with every product below 2^53, and z^k
    and the partial sums are the sequential products and sums of
    multiply.accumulate and cumsum, so every number is the scalar
    recurrence's bit for bit.  Past that bound the same recurrence goes
    on one level at a time from the blocks' last state.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    lam = spectrum(g).lambda_star
    z = lam * lam
    front = (1.0 - z) ** eta
    k, c, zpow, partial, size = 0, 1.0, 1.0, 0.0, 256
    while k < HORIZON_CAP:
        ks = np.arange(k, min(k + size, HORIZON_CAP), dtype=float)
        cs = np.ones(len(ks))
        for j in range(1, eta):
            cs *= ks + j
            cs /= j
        exact = int(np.count_nonzero(cs * (ks + eta) < 2.0 ** 53))  # a prefix
        if not exact:
            break
        zs = np.multiply.accumulate(np.append(zpow, np.full(exact - 1, z)))
        sums = np.cumsum(np.append(partial, cs[:exact] * zs))[1:]
        hit = np.flatnonzero(np.abs(1.0 - front * sums) <= tol)
        if hit.size:
            return k + int(hit[0])
        last = k + exact - 1
        c, zpow, partial = cs[exact - 1] * (last + eta) / (last + 1), zs[-1] * z, sums[-1]
        k, size = last + 1, 2 * size
        if exact < len(ks):
            break
    for k in range(k, HORIZON_CAP):
        partial += c * zpow
        if abs(1.0 - front * partial) <= tol:
            return k
        c = c * (k + eta) / (k + 1)
        zpow *= z
    raise NonConvergent(f"reproducing horizon beyond {HORIZON_CAP}")
