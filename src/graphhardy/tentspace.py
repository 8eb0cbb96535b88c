"""Discrete tent spaces: T^1_2 atoms, the stopping-time atomic
decomposition, and the synthesis operator mapping tent atoms back to
vertex functions.

The decomposition is the standard one over dyadic level sets of the
tent functional; tie-breaking is frozen (levels bottom-up, Whitney
centers largest-ball-first then ascending vertex index) so runs are
reproducible.  Every emitted atom satisfies the support and size
conditions exactly, and the pieces partition the support of F, so the
reconstruction residual is at rounding level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import delta_power_apply, spectral
from .errors import NonConvergent
from .graphs import Ball, WeightedGraph, ball
from .operators import apply_P, lp_norm, markov_matrix
from .quadratic import SpaceTimeFunction, tent_functional


def tent_mask(g: WeightedGraph, set_mask: np.ndarray, l_max: int) -> np.ndarray:
    """(y, k) membership of the tent over a vertex set O,
    d(y, O^c)^2 > k, with d(y, emptyset) = +inf."""
    comp = ~set_mask
    if not comp.any():
        return np.ones((g.n, l_max + 1), dtype=bool)
    d_out = g.dist[:, comp].min(axis=1)
    k = np.arange(l_max + 1)
    return (d_out[:, None] ** 2) > k[None, :]


def tent(b: Ball, l_max: int) -> np.ndarray:
    return tent_mask(b.graph, b.mask, l_max)


@dataclass
class TentAtom:
    """Space-time function supported in the tent of `ball` with
    ||A||_{T^2_2}^2 <= 1/V(ball)."""

    ball: Ball
    values: SpaceTimeFunction = field(repr=False)
    t22_norm: float

    def validate(self, norm_tol=1e-12):
        g = self.ball.graph
        inside = tent(self.ball, self.values.l_max)
        support_ok = not np.any((self.values.values != 0.0) & ~inside)
        norm = self.values.t22_norm()
        norm_ok = norm ** 2 <= (1.0 + norm_tol) / self.ball.volume
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


def _whitney_balls(g: WeightedGraph, level_mask: np.ndarray):
    """Greedy ball cover of a proper subset: centers taken
    largest-distance-to-complement first, ties by vertex index."""
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


def atomic_decompose(g: WeightedGraph, F: SpaceTimeFunction,
                     tol=1e-8) -> TentDecomposition:
    """Stopping-time atomic decomposition of F in T^1_2.

    Level sets O_k = {A F > 2^k} carve the support of F into tent
    differences; each slab is split along a Whitney cover of O_k and
    each piece is normalized into a T^1_2 atom.
    """
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
    # the slab of level k is tent(O_k) minus tent(O_{k+1}); each tent is
    # built once and handed on, and O_{k_hi + 1} is empty, so is its tent
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
            centers, radii = _whitney_balls(g, O)
            assign_of = np.full(g.n, -1, dtype=int)
            # first selected ball containing the vertex
            for i in reversed(range(len(centers))):
                assign_of[g.dist[centers[i]] < radii[i]] = i
        slab_y, slab_l = np.nonzero(slab)
        owner = assign_of[slab_y]
        for i in range(len(centers)):
            sel = owner == i
            if not sel.any():
                continue
            ys, ls = slab_y[sel], slab_l[sel]
            # radius large enough that every assigned (y, l) sits in the tent
            reach = g.dist[centers[i], ys] + np.floor(np.sqrt(ls)) + 1.0
            R = float(max(radii[i], reach.max()))
            atom_ball = ball(g, centers[i], R)
            # the piece is F on its own (ys, ls) entries and zero elsewhere,
            # so its T^2_2 norm is a sum over those entries alone
            v = vals[ys, ls]
            t22 = math.sqrt(float(np.sum(v ** 2 / (ls + 1.0) * g.m[ys])))
            if t22 == 0.0:
                continue
            lam = t22 * math.sqrt(atom_ball.volume)
            piece = np.zeros(vals.shape)  # calloc: untouched pages stay free
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


# -- synthesis ----------------------------------------------------------------

def eta_coefficients(eta: int, count: int) -> np.ndarray:
    """c_l for l = 1..count with sum_l c_l z^{l-1} = (1-z)^{-eta}."""
    out = np.empty(count)
    out[0] = 1.0
    for l in range(1, count):
        out[l] = out[l - 1] * (l + eta - 1) / l
    return out


def top_level(values: np.ndarray) -> int:
    """Number of levels up to the last one holding a nonzero entry
    (0 for an all-zero space-time function)."""
    live = np.flatnonzero(values.any(axis=0))
    return int(live[-1]) + 1 if live.size else 0


def horner_synthesis(g: WeightedGraph, values: np.ndarray, eta: int,
                     beta: float, prefix) -> np.ndarray:
    """sum_{l=1..top} (c_l^eta / l^beta) P^{l-1} prefix(values[:, l-1]).

    Only the levels l - 1 < top = top_level(values) are visited: the
    coefficient table and the prefix are evaluated on those columns,
    and the Horner scan starts at level top.  This is exact, not an
    approximation: the prefix is linear and column-wise, so a zero
    level contributes a zero column, and the scan over the levels above
    top only ever carries the zero vector.  A tent atom over B(x, R)
    lives at levels k < R^2, so top is usually far below the horizon.

    Applying the (level-independent) prefix to all visited levels at
    once keeps partial sums at the output scale (the raw sum is badly
    conditioned) and leaves one matvec per level for the scan.
    """
    top = top_level(values)
    acc = np.zeros(g.n)
    if top == 0:
        return acc
    coeffs = eta_coefficients(eta, top) / np.arange(1, top + 1, dtype=float) ** beta
    U = prefix(values[:, :top]) * coeffs[None, :]
    W = markov_matrix(g)
    for l in range(top, 0, -1):
        acc = W @ acc + U[:, l - 1]
    return acc


def heat_prefix(g: WeightedGraph, V: np.ndarray, eta: int, exp: float,
                tol=1e-10) -> np.ndarray:
    """Delta^exp (I + P)^eta V, column by column on an (n, k) block.

    The common head of every synthesis prefix.  An integer exp is
    applied as exp factors V - P V (never through the oracle, so it is
    the same on every graph size); a fractional exp goes through
    `delta_power_apply`."""
    for _ in range(eta):
        V = V + apply_P(g, V)
    if not float(exp).is_integer():
        return delta_power_apply(g, V, exp, tol)
    for _ in range(int(exp)):
        V = V - apply_P(g, V)
    return V


def pi_synthesis(g: WeightedGraph, F: SpaceTimeFunction, eta: int,
                 beta: float, tol=1e-10) -> np.ndarray:
    """Synthesis sum_{l>=1} (c_l^eta / l^beta)
    Delta^{eta-beta} (I+P)^eta P^{l-1} F(., l-1), via `horner_synthesis`."""
    if eta < beta:
        raise ValueError("eta must be >= beta")
    return horner_synthesis(g, F.values, eta, beta,
                            lambda V: heat_prefix(g, V, eta, eta - beta, tol))


def reproducing_l_max(g: WeightedGraph, eta: int, tol: float,
                      n_cap=200000) -> int:
    """Horizon L with || sum_{k<=L} c_{k+1} (I-P^2)^eta P^{2k} f - f ||
    <= tol ||f|| on the mean-zero subspace (computed spectrally)."""
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
