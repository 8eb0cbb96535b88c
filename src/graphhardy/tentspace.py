"""Discrete tent spaces: T^1_2 atoms, the stopping-time atomic
decomposition, and the synthesis operator mapping tent atoms back to
vertex functions.

The decomposition is the standard one over dyadic level sets of the
tent functional; tie-breaking is frozen (levels bottom-up, Whitney
centers largest-ball-first then ascending vertex index) so runs are
reproducible.  Every emitted atom satisfies the support and size
conditions exactly, and the pieces partition the support of F, so the
reconstruction residual is at rounding level.

At a vertex y the tent over O holds the levels l < d(y, O^c)^2, so the
slab tent(O_k) minus tent(O_{k+1}) is one run of levels per vertex,
[ceil(d_{k+1}(y)^2), ceil(d_k(y)^2)).  The decomposition builds each
slab from those runs, splits it among the Whitney balls by one stable
sort of its vertices, and keeps every atom as its own (ys, ls, vals)
entries (`SpaceTimeEntries`): no (n, l_max + 1) array is formed per
level or per atom, and synthesis scatters each atom only into its own
(n, top) column range, below its last level, of one block shared by
all atoms it synthesizes.

Synthesis splits the heat prefix Delta^exp (I + P)^eta of the paper's
pi_{eta, beta}: Delta^exp runs on that block of levels, because the raw
sum over the levels cancels and the cancellative factor must come
before it, and (I + P)^eta, whose spectrum lies in [0, 2^eta], runs on
the (n, atoms) output of the scans.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _mean_zero_radius, delta_power_apply
from .errors import NonConvergent
from .graphs import Ball, WeightedGraph, ball, distance_to
from .operators import apply_P, horner, lp_norm
from .quadratic import SpaceTimeFunction, tent_functional

# Entries handled per vectorized step where an entry needs a float
# temporary, so a large piece never holds a second full-length array.
ENTRY_CHUNK = 1 << 15

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
    """A space-time function on levels 0..l_max kept as its nonzero
    entries F(ys[i], ls[i]) = vals[i], in row-major order (int32
    indices, so an entry costs 16 bytes)."""

    graph: WeightedGraph
    ys: np.ndarray = field(repr=False)
    ls: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    l_max: int

    @classmethod
    def of(cls, F: SpaceTimeFunction) -> "SpaceTimeEntries":
        ys, ls = np.nonzero(F.values)
        return cls(F.graph, ys.astype(np.int32), ls.astype(np.int32),
                   F.values[ys, ls], F.l_max)

    @property
    def top(self) -> int:
        """One past the last level holding an entry (0 without entries)."""
        return int(self.ls.max()) + 1 if self.ls.size else 0

    @property
    def values(self) -> np.ndarray:
        """Dense (n, l_max + 1) view, built on each access."""
        out = np.zeros((self.graph.n, self.l_max + 1))
        out[self.ys, self.ls] = self.vals
        return out

    def t22_norm(self) -> float:
        g = self.graph
        return math.sqrt(float(np.sum(self.vals ** 2 / (self.ls + 1.0) * g.m[self.ys])))


@dataclass
class TentAtom:
    """Space-time function supported in the tent of `ball` with
    ||A||_{T^2_2}^2 <= 1/V(ball), kept as its entries (a dense
    SpaceTimeFunction passed in is converted)."""

    ball: Ball
    values: SpaceTimeEntries = field(repr=False)
    t22_norm: float

    def __post_init__(self):
        if isinstance(self.values, SpaceTimeFunction):
            self.values = SpaceTimeEntries.of(self.values)

    def validate(self):
        """Support in the tent of the ball, and the size bound to a
        relative 1e-12."""
        e = self.values
        depth = _tent_depth(self.ball.graph, self.ball.mask)
        support_ok = bool(np.all(depth[e.ys] ** 2 > e.ls))
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


def _runs(verts: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """int32 entries (y, l) with l in [starts[j], starts[j] + counts[j])
    at y = verts[j], in row-major order."""
    ys = np.repeat(verts.astype(np.int32), counts)
    ls = np.arange(len(ys), dtype=np.int32)
    ls -= np.repeat((np.cumsum(counts) - counts - starts).astype(np.int32), counts)
    return ys, ls


def _entry_chunks(ys, ls, width: int, offset: int = 0):
    """(slice, flat index) for each ENTRY_CHUNK of the entries (ys, ls):
    ys * width + offset + ls, their positions in the flat view of a
    C-ordered (n, width) array, so one intp index chunk is held at a
    time."""
    for lo in range(0, len(ys), ENTRY_CHUNK):
        sl = slice(lo, lo + ENTRY_CHUNK)
        idx = ys[sl].astype(np.intp)
        idx *= width
        idx += ls[sl]
        idx += offset
        yield sl, idx


def _gather(flat, width: int, ys, ls) -> np.ndarray:
    """The entries (ys, ls) of a C-ordered (n, width) array, read from its
    flat view `flat` a chunk at a time."""
    out = np.empty(len(ys))
    for sl, idx in _entry_chunks(ys, ls, width):
        np.take(flat, idx, out=out[sl])
    return out


def _piece_norm(g: WeightedGraph, terms: np.ndarray, ys, ls, center: int):
    """(T^2_2 norm, max of d(center, y) + floor(sqrt(l)) + 1) of the
    nonempty entries held in `terms` at (ys, ls), in row-major order.
    `terms` is overwritten with m(y) F(y, l)^2 / (l + 1) a chunk at a
    time and summed in entry order; the reach of a vertex is that of its
    last, highest entry."""
    for lo in range(0, len(terms), ENTRY_CHUNK):
        sl = slice(lo, lo + ENTRY_CHUNK)
        t = terms[sl]
        np.square(t, out=t)
        t /= ls[sl] + 1.0
        t *= g.m[ys[sl]]
    ends = np.append(np.flatnonzero(ys[1:] != ys[:-1]), len(ys) - 1)
    reach = float((g.dist[center, ys[ends]] + np.floor(np.sqrt(ls[ends])) + 1.0).max())
    return math.sqrt(float(np.sum(terms))), reach


def atomic_decompose(g: WeightedGraph, F: SpaceTimeFunction,
                     tol=1e-8) -> TentDecomposition:
    """Stopping-time atomic decomposition of F in T^1_2.

    Level sets O_k = {A F > 2^k} carve the support of F into tent
    differences; each slab is split along a Whitney cover of O_k and
    each piece is normalized into a T^1_2 atom.
    """
    vals = np.ascontiguousarray(F.values)
    flat, width = vals.reshape(-1), vals.shape[1]
    l_max = F.l_max
    AF = tent_functional(g, F)
    t1 = lp_norm(g, AF, 1)
    nonzero = np.count_nonzero(vals)
    if not nonzero:
        return TentDecomposition([], 0.0, 0.0, t1)
    pos = AF[AF > 0]
    k_lo = math.floor(math.log2(pos.min())) - 1
    k_hi = math.ceil(math.log2(AF.max()))
    coefficients = []
    covered = 0
    # the slab of level k holds, at each vertex, the tent levels of O_k
    # above those of O_{k+1}; O_{k_hi + 1} is empty, so is its tent
    depth_next = _tent_depth(g, AF > 2.0 ** k_lo)
    for k in range(k_lo, k_hi + 1):
        depth = depth_next
        depth_next = _tent_depth(g, AF > 2.0 ** (k + 1))
        lo = _tent_height(depth_next, l_max)
        counts = _tent_height(depth, l_max) - lo
        verts = np.flatnonzero(counts)
        if not verts.size:
            continue
        if np.isinf(depth).all():  # O_k is the whole graph
            centers, radii = [0], [float(g.diameter + 1)]
            owner = np.zeros(g.n, dtype=int)
        else:
            centers, radii, owner = _whitney_balls(g, depth)
        owner = owner[verts]
        # group the slab's vertices by owner; each group stays in vertex
        # order, so its entries come out row-major
        order = np.argsort(owner, kind="stable")
        verts, owner = verts[order], owner[order]
        bounds = np.searchsorted(owner, np.arange(len(centers) + 1))
        for i in range(len(centers)):
            vs = verts[bounds[i]:bounds[i + 1]]
            if not vs.size:
                continue
            ys, ls = _runs(vs, lo[vs], counts[vs])
            v = _gather(flat, width, ys, ls)
            keep = v != 0.0
            if not keep.all():
                ys, ls, v = ys[keep], ls[keep], v[keep]
            if not v.size:
                continue
            t22, reach = _piece_norm(g, v, ys, ls, centers[i])
            del v, keep  # the terms go before the piece is gathered
            if t22 == 0.0:
                continue
            # radius large enough that every entry sits in the tent
            atom_ball = ball(g, centers[i], max(radii[i], reach))
            lam = t22 * math.sqrt(atom_ball.volume)
            piece = _gather(flat, width, ys, ls)
            piece /= lam
            atom = TentAtom(atom_ball, SpaceTimeEntries(g, ys, ls, piece, l_max),
                            1.0 / math.sqrt(atom_ball.volume))
            coefficients.append((lam, atom))
            covered += len(piece)
    # every nonzero entry lies in at most one atom, so the atoms cover F
    # exactly when their entries add up to its nonzero count
    residual = 0.0
    if covered < nonzero:
        mask = np.zeros(vals.shape, dtype=bool)
        for _, atom in coefficients:
            mask[atom.values.ys, atom.values.ls] = True
        residual = SpaceTimeFunction(g, np.where(mask, 0.0, vals)).t22_norm()
    if residual > tol:
        raise NonConvergent(
            f"tent decomposition residual {residual:.3e} above tol {tol:.3e}"
        )
    sum_abs = float(sum(abs(lam) for lam, _ in coefficients))
    return TentDecomposition(coefficients, float(residual), sum_abs, t1)


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
    sum_{l=1..top_i} (c_l^eta / l^beta) Delta^exp (I + P)^eta P^{l-1} F_i(., l-1)
    for the k space-time functions F_i held in `atoms` (SpaceTimeEntries).

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
    instead of sum_i top_i.  An integer exp is applied as exp factors
    V - P V (never through the oracle, so it is the same on every graph
    size); a fractional exp goes through `delta_power_apply`.  Any
    further function of P (a molecule's per-atom scale) likewise belongs
    on the (n, k) output.
    """
    tops = np.array([e.top for e in atoms], dtype=np.int64)
    starts = np.cumsum(tops) - tops
    width = int(tops.sum())
    V = np.zeros((g.n, width))
    flat = V.reshape(-1)
    for e, lo in zip(atoms, starts):
        for sl, idx in _entry_chunks(e.ys, e.ls, width, int(lo)):
            flat[idx] = e.vals[sl]
    if float(exp).is_integer():
        for _ in range(int(exp)):
            V -= apply_P(g, V)
    else:
        V = delta_power_apply(g, V, exp)
    top = int(tops.max(initial=0))
    coeffs = eta_coefficients(eta, top) / np.arange(1, top + 1, dtype=float) ** beta
    V *= coeffs[np.arange(width) - np.repeat(starts, tops)]
    out = np.empty((g.n, len(atoms)))
    for i, (lo, k) in enumerate(zip(starts, tops)):
        out[:, i] = horner(g, V[:, lo:lo + k])
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
    <= tol ||f|| on the mean-zero subspace, from one scalar.

    At an eigenvalue lambda of P the error is
    1 - (1-z)^eta sum_{k<=L} c_k z^k with z = lambda^2.  It lies in
    [0, 1] and increases in z (its derivative is
    -(L+eta) c_L z^L (1-z)^(eta-1)), so its sup over the mean-zero
    spectrum is its value at z = lambda_star^2, and L comes from a
    scalar loop.  A periodic walk (lambda_star = 1) raises PeriodicWalk
    before the loop starts, and a horizon past HORIZON_CAP raises
    NonConvergent.
    """
    lam = _mean_zero_radius(g)
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
