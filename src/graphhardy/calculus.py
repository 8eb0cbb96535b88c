"""Functional calculus for Delta = I - P.

Two evaluation paths coexist.  The spectral oracle (dense
eigendecomposition of the m-symmetrized walk) is exact and serves as
the reference on desk-scale graphs; truncated power series are the
scalable path and always carry an explicit tail bound, so the two can
be compared at `tail_bound + eps`.  `delta_power_apply` (for Delta^beta),
`resolvent_apply` (for (I + s Delta)^{-power}) and `sweep_apply` (for a
symbol at every scale of a sweep) are the only places that choose
between them.

Scale sweeps (the sup over s of the BMO norm, the Davies-Gaffney decay
curves) are evaluated as one block, one column per scale: the oracle
applies an (n_eig, S) symbol table in one pass, and the series path
applies an (N_max + 1, S) coefficient table, each column zero past its
own truncation N_s, during one walk of the power sequence up to
N_max = max_s N_s.  An M-fold composition of a truncated series is the
same polynomial in P as the M-th convolution power of its coefficients,
so it becomes one column too.

On a finite connected graph ker Delta is the constants, so the
operators with a singularity at the spectral point 1 (inverse square
root, reproducing sums) act on the m-mean-zero subspace only.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BadTuple, KernelComponent, NonConvergent, OverlappingSets, PeriodicWalk
from .graphs import WeightedGraph
from .operators import apply_P, gradient, inner, lp_norm, mean_project, powers

ORACLE_MAX_N = 2048
KERNEL_REL_TOL = 1e-8
# Spectral points within this distance of 1 count as 1.
SPECTRAL_ONE_TOL = 1e-12


# -- spectral oracle -----------------------------------------------------

class SpectralOracle:
    """Dense eigendecomposition of P on L^2(Gamma, m).

    P is conjugate to the symmetric matrix S = D^{-1/2} A D^{-1/2}
    (D = diag m), so phi(P) f = D^{-1/2} U phi(L) U^T D^{1/2} f.
    """

    def __init__(self, g: WeightedGraph):
        if g.n > ORACLE_MAX_N:
            raise ValueError(
                f"n = {g.n} too large for the dense oracle (cap {ORACLE_MAX_N})"
            )
        self.graph = g
        self.sqrt_m = np.sqrt(g.m)
        S = (g.adjacency / self.sqrt_m).T / self.sqrt_m
        eigs, U = scipy.linalg.eigh(np.asarray(S.todense()))
        # stochasticity puts the top of the spectrum at exactly 1
        eigs = np.minimum(eigs, 1.0)
        eigs[eigs > 1.0 - SPECTRAL_ONE_TOL] = 1.0
        self.eigenvalues = eigs
        self.basis = U

    @property
    def lambda_star(self) -> float:
        """Spectral radius of P restricted to the mean-zero subspace."""
        return float(np.abs(self.eigenvalues[:-1]).max())

    def apply(self, phi, f):
        """phi(P) f for a scalar function phi on the spectrum; a phi that
        returns an (n_eig, S) table gives an (n, S) block for a vector f.

        Raises KernelComponent when phi is singular at an eigenvalue on
        which f has a non-negligible component.
        """
        f = np.asarray(f, dtype=float)
        coeff = self.basis.T @ ((f.T * self.sqrt_m).T)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(phi(self.eigenvalues), dtype=float)
        table = vals.ndim == 2
        if table and f.ndim != 1:
            raise ValueError("a symbol table applies to a single vector")
        bad = ~np.isfinite(vals)
        if bad.any():
            rows = bad.any(axis=1) if table else bad
            comp = np.abs(coeff[rows])
            scale = max(np.abs(coeff).max(initial=0.0), 1e-300)
            if comp.max(initial=0.0) > KERNEL_REL_TOL * scale:
                raise KernelComponent(
                    "input has a component where the symbol is singular"
                )
            coeff = coeff.copy()
            coeff[rows] = 0.0
            vals = vals.copy()
            vals[bad] = 0.0
        out = self.basis @ (coeff[:, None] * vals if table else (coeff.T * vals).T)
        return (out.T / self.sqrt_m).T


def spectral(g: WeightedGraph) -> SpectralOracle:
    """Cached oracle accessor (graphs are immutable after construction)."""
    if g._oracle is None:
        g._oracle = SpectralOracle(g)
    return g._oracle


def has_oracle(g: WeightedGraph) -> bool:
    return g.n <= ORACLE_MAX_N


def require_mean_zero(g: WeightedGraph, f):
    f = np.asarray(f, dtype=float)
    norm = lp_norm(g, f, 2)
    if norm == 0.0:
        return f
    mean = abs(inner(g, f, np.ones(g.n))) / g.total_volume()
    if mean * math.sqrt(g.total_volume()) > KERNEL_REL_TOL * norm:
        raise KernelComponent("function has a nonzero m-mean")
    return mean_project(g, f)


# -- truncated series ------------------------------------------------------

def binomial_coefficients(exponent: float, count: int):
    """Taylor coefficients of (1 - z)^exponent, sign included."""
    out = np.empty(count)
    out[0] = 1.0
    for k in range(count - 1):
        out[k + 1] = out[k] * (k - exponent) / (k + 1)
    return out


# Powers P^k f stacked per GEMM when a coefficient table is applied.
TABLE_CHUNK = 64

# Coefficients of a fractional resolvent series built per vectorized step.
FRAC_CHUNK = 2048


@dataclass
class SeriesOperator:
    """Sum_k coeff_k P^k truncated at N with a certified tail bound.

    `coeffs` is either one coefficient vector or a table of shape
    (N_max + 1, S), one column per scale, each zero past its own
    truncation; a table carries one tail bound per column."""

    graph: WeightedGraph
    kind: str
    coeffs: np.ndarray = field(repr=False)
    tail_bound: object          # float, or an (S,) array for a table

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f):
        """Evaluate on a vector or a stacked batch (n, k); a table takes
        a vector and returns an (n, S) block."""
        terms = powers(self.graph, f, self.truncation)
        if self.coeffs.ndim == 2:
            if np.ndim(f) != 1:
                raise ValueError("a coefficient table applies to a single vector")
            acc = 0.0    # TABLE_CHUNK powers at a time, one GEMM each
            for start in range(0, len(self.coeffs), TABLE_CHUNK):
                block = np.stack(list(itertools.islice(terms, TABLE_CHUNK)))
                acc += block.T @ self.coeffs[start:start + len(block)]
            return acc
        acc = self.coeffs[0] * next(terms)
        for c, vec in zip(self.coeffs[1:], terms):
            if c != 0.0:
                acc = acc + c * vec
        return acc


def series_table(g: WeightedGraph, kind: str, columns) -> SeriesOperator:
    """One table from (coefficients, tail bound) pairs, one column each,
    zero-padded to the longest."""
    C = np.zeros((max(len(c) for c, _ in columns), len(columns)))
    for j, (c, _) in enumerate(columns):
        C[:len(c), j] = c
    return SeriesOperator(g, kind, C, np.array([t for _, t in columns]))


def _mean_zero_radius(g: WeightedGraph, lambda_star=None) -> float:
    """lambda_star, the spectral radius of P on mean-zero functions: the
    oracle's unless one is supplied.  A supplied value outside [0, 1)
    raises ValueError; a value within SPECTRAL_ONE_TOL of 1 means a
    periodic walk and raises PeriodicWalk."""
    if lambda_star is None:
        if not has_oracle(g):
            raise ValueError("supply lambda_star for graphs beyond the oracle cap")
        lambda_star = spectral(g).lambda_star
    elif not 0.0 <= lambda_star < 1.0:
        raise ValueError("lambda_star must lie in [0, 1)")
    if 1.0 - lambda_star <= SPECTRAL_ONE_TOL:
        raise PeriodicWalk(
            f"lambda_star = {lambda_star!r}: the walk is periodic, so no "
            "series in P converges on mean-zero functions"
        )
    return float(lambda_star)


def delta_power_series(g: WeightedGraph, beta: float, tol: float,
                       lambda_star=None, n_max=200000) -> SeriesOperator:
    """(I - P)^beta as sum b_k P^k, geometric tail on the mean-zero subspace."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if float(beta).is_integer():
        N = int(beta)
        coeffs = binomial_coefficients(beta, N + 1)
        return SeriesOperator(g, f"delta_pow({beta})", coeffs, 0.0)
    lam = _mean_zero_radius(g, lambda_star)
    b = 1.0
    k = 0
    # |b_k| decreases once k > beta; tail <= |b_{N+1}| lam^{N+1} / (1 - lam)
    coeffs = [b]
    while True:
        b = b * (k - beta) / (k + 1)
        k += 1
        coeffs.append(b)
        if k > beta + 1 and abs(b) * lam ** k / (1.0 - lam) <= tol:
            break
        if k > n_max:
            raise NonConvergent(f"delta_power: tol {tol} unreachable at N = {n_max}")
    tail = abs(b) * lam ** k / (1.0 - lam)
    return SeriesOperator(g, f"delta_pow({beta})", np.array(coeffs), tail)


def inv_sqrt_series(g: WeightedGraph, tol: float, lambda_star=None,
                    n_max=2000000) -> SeriesOperator:
    """(I - P)^{-1/2} on the mean-zero subspace, coefficients of (1-z)^{-1/2}."""
    lam = _mean_zero_radius(g, lambda_star)
    a = 1.0
    k = 0
    coeffs = [a]
    while True:
        a = a * (k + 0.5) / (k + 1)
        k += 1
        coeffs.append(a)
        if a * lam ** k / (1.0 - lam) <= tol:
            break
        if k > n_max:
            raise NonConvergent(f"inv_sqrt: tol {tol} unreachable at N = {n_max}")
    tail = a * lam ** k / (1.0 - lam)
    return SeriesOperator(g, "inv_sqrt", np.array(coeffs), tail)


def resolvent_step_series(g: WeightedGraph, s: int, tol: float,
                          n_max=2000000) -> SeriesOperator:
    """(I + s Delta)^{-1} = sum_k (1/(1+s)) (s/(1+s))^k P^k."""
    if s < 1:
        raise ValueError("s must be >= 1")
    q = s / (1.0 + s)
    N = max(0, math.ceil(math.log(tol) / math.log(q)))
    if N > n_max:
        raise NonConvergent(f"resolvent: tol {tol} needs N = {N} > {n_max}")
    coeffs = (1.0 / (1.0 + s)) * q ** np.arange(N + 1)
    return SeriesOperator(g, f"resolvent({s})", coeffs, q ** (N + 1))


def resolvent_frac_series(g: WeightedGraph, s: int, power: float, tol: float,
                          n_max=2000000) -> SeriesOperator:
    """(I + s Delta)^{-power} via the (1 - z)^{-power} series.

    c_k = (1+s)^{-power} a_k q^k with q = s/(1+s) and a_k the
    coefficients of (1 - z)^{-power}; N is the first k >= 1 whose
    certified tail pref a_{k+1} q^{k+1} / (1 - rho_k), with
    rho_k = sup_{j >= k+1} q (j+power)/(j+1), is <= tol.  The a_k are
    built FRAC_CHUNK at a time by a running product.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    q = s / (1.0 + s)
    pref = (1.0 + s) ** (-power)
    chunks = [np.array([pref])]
    a, start = 1.0, 1
    while True:
        k = np.arange(start, min(start + FRAC_CHUNK, n_max + 2), dtype=float)
        if not len(k):
            raise NonConvergent(f"resolvent_frac: tol {tol} unreachable")
        ak = a * np.cumprod((k - 1.0 + power) / k)
        rho = q * np.maximum((k + 1.0 + power) / (k + 2.0), 1.0)
        with np.errstate(divide="ignore"):
            tail = pref * (ak * (k + power) / (k + 1.0)) * q ** (k + 1.0) / (1.0 - rho)
        hit = np.flatnonzero((rho < 1.0) & (tail <= tol))
        stop = hit[0] + 1 if len(hit) else len(k)
        chunks.append(pref * ak[:stop] * q ** k[:stop])
        if len(hit):
            coeffs = np.concatenate(chunks)
            return SeriesOperator(g, f"resolvent_frac({s},{power})", coeffs,
                                  float(tail[hit[0]]))
        a, start = ak[-1], start + len(k)


def reproducing_series(g: WeightedGraph, beta: float, N: int) -> SeriesOperator:
    """sum_{k<=N} a_k P^k with a_k the coefficients of (1-z)^{-beta}."""
    coeffs = binomial_coefficients(-beta, N + 1)
    return SeriesOperator(g, f"reproducing({beta},{N})", coeffs, math.inf)


# -- operation-level wrappers ---------------------------------------------

def delta_power(g: WeightedGraph, f, beta: float, tol=1e-10, lambda_star=None):
    """Delta^beta f; the constant part is annihilated exactly first."""
    ft = mean_project(g, f)
    op = delta_power_series(g, beta, tol, lambda_star=lambda_star)
    return op.apply(ft)


def delta_power_exact(g: WeightedGraph, f, beta: float):
    return spectral(g).apply(lambda lam: np.maximum(1.0 - lam, 0.0) ** beta, f)


def delta_power_apply(g: WeightedGraph, f, beta: float, tol=1e-10):
    """Delta^beta with automatic path choice (oracle when affordable)."""
    if has_oracle(g):
        return delta_power_exact(g, f, beta)
    return delta_power(g, f, beta, tol)


def delta_inv_sqrt_exact(g: WeightedGraph, f):
    """Delta^{-1/2} f on the mean-zero subspace (spectral)."""
    def phi(lam):
        with np.errstate(divide="ignore"):
            return np.where(lam >= 1.0, np.inf, (1.0 - lam) ** -0.5)
    return spectral(g).apply(phi, f)


def delta_inv_sqrt(g: WeightedGraph, f, tol=1e-10, lambda_star=None):
    """Series path for Delta^{-1/2}; requires a mean-zero input."""
    ft = require_mean_zero(g, f)
    return inv_sqrt_series(g, tol, lambda_star=lambda_star).apply(ft)


def delta_inverse_exact(g: WeightedGraph, f, power=1.0):
    def phi(lam):
        with np.errstate(divide="ignore"):
            return np.where(lam >= 1.0, np.inf, (1.0 - lam) ** -power)
    return spectral(g).apply(phi, f)


def resolvent(g: WeightedGraph, f, s: int, M: int = 1, tol=1e-12):
    """(I + s Delta)^{-M} f via the Neumann series composed M times."""
    op = resolvent_step_series(g, s, tol / max(M, 1))
    out = np.asarray(f, dtype=float)
    for _ in range(M):
        out = op.apply(out)
    return out


def resolvent_exact(g: WeightedGraph, f, s: int, power=1.0):
    return spectral(g).apply(lambda lam: (1.0 + s * (1.0 - lam)) ** (-power), f)


def sweep_apply(g: WeightedGraph, f, s_values, symbol, column):
    """phi_s(P) f for every s in s_values as an (n, S) block, with
    automatic path choice: one oracle apply of the (n_eig, S) table
    symbol(lam[:, None], s) when affordable, else one series table whose
    column j is column(s_j) = (coefficients, tail bound)."""
    if has_oracle(g):
        s_arr = np.asarray(s_values, dtype=float)
        return spectral(g).apply(lambda lam: symbol(lam[:, None], s_arr), f)
    kind = f"sweep({len(s_values)})"
    return series_table(g, kind, [column(int(s)) for s in s_values]).apply(f)


def _resolvent_column(g: WeightedGraph, s: int, power, tol):
    """(I + s Delta)^{-power} as one table column: for an integer power
    M the M-fold Neumann composition of `resolvent`, i.e. the M-th
    convolution power of the step's coefficients (tail bound M times the
    step's, every factor being a contraction); the (1 - z)^{-power}
    series otherwise."""
    if float(power).is_integer():
        M = int(power)
        step = resolvent_step_series(g, s, tol / max(M, 1))
        col = np.ones(1)
        for _ in range(M):
            col = np.convolve(col, step.coeffs)
        return col, M * step.tail_bound
    op = resolvent_frac_series(g, s, power, tol)
    return op.coeffs, op.tail_bound


def resolvent_apply(g: WeightedGraph, f, s, power=1.0, tol=1e-12):
    """Resolvent with automatic path choice (oracle when affordable); a
    sequence of scales gives an (n, S) block, one column per scale."""
    if np.ndim(s):
        return sweep_apply(
            g, f, s, lambda lam, t: (1.0 + t * (1.0 - lam)) ** (-power),
            lambda t: _resolvent_column(g, t, power, tol))
    if has_oracle(g):
        return resolvent_exact(g, f, s, power)
    if float(power).is_integer():
        return resolvent(g, f, s, int(power), tol)
    return resolvent_frac_series(g, s, power, tol).apply(f)


def reproducing_check(g: WeightedGraph, f, beta: float, N: int,
                      tol=1e-10) -> float:
    """L^2 error of the truncated reproducing sum
    sum_{k<=N} a_k Delta^beta P^k f against f (mean-zero input)."""
    ft = require_mean_zero(g, f)
    acc = reproducing_series(g, beta, N).apply(ft)
    return lp_norm(g, delta_power_apply(g, acc, beta, tol) - ft, 2)


# -- molecule generators A_s ------------------------------------------------

@dataclass(frozen=True)
class BZ1Kind:
    s: int
    times: tuple

    def __post_init__(self):
        for t in self.times:
            if not self.s <= t <= 2 * self.s:
                raise BadTuple(f"s_i = {t} outside [{self.s}, {2 * self.s}]")


@dataclass(frozen=True)
class BZ2Kind:
    s: object                  # int, or a tuple of ints for a sweep
    M: int


@dataclass(frozen=True)
class QsKind:
    s: int


def a_s(g: WeightedGraph, f, kind, tol=1e-12):
    """Apply a molecule-generating operator.

    BZ1: (I - P^{s_1}) ... (I - P^{s_M});  BZ2: [I - (I+s Delta)^{-1}]^M;
    Qs: the Cesaro average (1/s) sum_{k<s} P^k.  A BZ2 kind whose s is a
    sequence gives an (n, S) block, one column per scale.
    """
    out = np.asarray(f, dtype=float)
    if isinstance(kind, BZ1Kind):
        for t in kind.times:
            out = out - apply_P(g, out, t)
        return out
    if isinstance(kind, BZ2Kind) and np.ndim(kind.s):
        # [I - R]^M = I + sum_{j>=1} C(M, j) (-R)^j: the identity part is
        # added exactly, so where f vanishes the block is as accurate as R f
        def symbol(lam, t):
            r = (1.0 + t * (1.0 - lam)) ** -1.0
            return sum(math.comb(kind.M, j) * (-r) ** j for j in range(1, kind.M + 1))
        return out[:, None] + sweep_apply(
            g, out, kind.s, symbol, lambda t: _bz2_column(g, t, kind.M, tol))
    if isinstance(kind, BZ2Kind):
        for _ in range(kind.M):
            out = out - resolvent_apply(g, out, kind.s, 1.0, tol)
        return out
    if isinstance(kind, QsKind):
        acc = np.zeros_like(out)
        for vec in powers(g, out, kind.s - 1):
            acc += vec
        return acc / kind.s
    raise TypeError(f"unknown A_s kind: {kind!r}")


def _bz2_column(g: WeightedGraph, s: int, M: int, tol):
    """[I - R_N]^M - I = sum_{j>=1} C(M, j) (-R_N)^j as one table column,
    R_N the resolvent step truncated as in `resolvent`; with ||I - R|| <= 1
    and ||I - R_N|| <= 2 the tail bound is (2^M - 1) times the step's."""
    step = resolvent_step_series(g, s, tol)
    col = np.zeros(M * step.truncation + 1)
    term = np.ones(1)
    for j in range(1, M + 1):
        term = np.convolve(term, -step.coeffs)
        col[:len(term)] += math.comb(M, j) * term
    return col, (2.0 ** M - 1.0) * step.tail_bound


# -- Davies-Gaffney decay fits ----------------------------------------------

def _heat_sweep(g, f, s_values):
    """P^s f for every s as an (n, S) block from one power pass."""
    steps = np.array([int(s) for s in s_values], dtype=int)
    if steps.min() < 0:
        raise ValueError("s must be >= 0")
    out = np.empty((g.n, len(steps)))
    for k, u in enumerate(powers(g, f, int(steps.max()))):
        out[:, steps == k] = u[:, None]
    return out


def _gradient_columns(g, U, weights):
    return np.column_stack([w * gradient(g, u) for w, u in zip(weights, U.T)])


def _family_heat(g, f, s, M):
    return _heat_sweep(g, f, s)


def _family_delta_heat(g, f, s, M):
    out = _heat_sweep(g, f, s)
    for _ in range(M):
        out = np.asarray(s, dtype=float) * (out - apply_P(g, out))
    return out


def _family_resolvent(g, f, s, M):
    return resolvent_apply(g, f, [int(t) for t in s], float(M))


def _family_resolvent_diff(g, f, s, M):
    return a_s(g, f, BZ2Kind(tuple(int(t) for t in s), M))


def _family_grad_heat(g, f, s, M):
    return _gradient_columns(g, _heat_sweep(g, f, s), [math.sqrt(t) for t in s])


def _family_grad_resolvent(g, f, s, M):
    out = resolvent_apply(g, f, [int(t) for t in s], M + 0.5)
    for _ in range(M):
        out = out - apply_P(g, out)
    return _gradient_columns(g, out, [t ** (M + 0.5) for t in s])


# family name -> (apply(g, f, s_values, M) -> (n, S) block, one column
# per scale; decay exponent eta)
FAMILIES = {
    "heat": (_family_heat, 1.0),
    "delta_heat": (_family_delta_heat, 1.0),
    "resolvent": (_family_resolvent, 0.5),
    "resolvent_diff": (_family_resolvent_diff, 0.5),
    "grad_heat": (_family_grad_heat, 1.0),
    "grad_resolvent": (_family_grad_resolvent, 0.5),
}


@dataclass
class GaffneyFit:
    family: str
    eta: float
    C: float
    c: float
    residual_rms: float
    n_points: int
    d_EF: float
    s_values: list
    ratios: list

    def to_json(self):
        return json.dumps(
            {
                "family": self.family,
                "eta": self.eta,
                "C": self.C,
                "c": self.c,
                "residual_rms": self.residual_rms,
                "n_points": self.n_points,
                "d_EF": self.d_EF,
                "s_values": list(map(float, self.s_values)),
                "ratios": list(map(float, self.ratios)),
            },
            indent=2,
        )


def gaffney_fit(g: WeightedGraph, family: str, E, F, s_range, M=1) -> GaffneyFit:
    """Measure ||A_s f||_{L^2(E)} / ||f||_{L^2(F)} for f = normalized 1_F
    and fit log ratio = log C - c (d(E,F)^2 / s)^eta.

    Exact zeros (finite propagation speed) are dropped from the fit but
    kept in the recorded curve.  s_range may be any iterable (it is read
    once); all its scales are evaluated as one block.
    """
    E = np.asarray(list(E), dtype=int)
    F = np.asarray(list(F), dtype=int)
    if np.intersect1d(E, F).size:
        raise OverlappingSets("E and F must be disjoint")
    apply_fn, eta = FAMILIES[family]
    d_EF = float(g.dist[np.ix_(E, F)].min())
    f = np.zeros(g.n)
    f[F] = 1.0
    f /= lp_norm(g, f, 2)
    s_values = list(s_range)
    U = apply_fn(g, f, s_values, M) if s_values else np.empty((g.n, 0))
    ratios = np.array([float(np.sqrt(np.sum(u[E] ** 2 * g.m[E]))) for u in U.T])
    s_arr = np.asarray(s_values, dtype=float)
    pos = ratios > 0
    if pos.sum() >= 2:
        y = np.log(ratios[pos])
        u = (d_EF ** 2 / s_arr[pos]) ** eta
        slope, intercept = np.polyfit(u, y, 1)
        c = max(0.0, -float(slope))
        if c == 0.0:
            intercept = float(np.mean(y))
        resid = y - (intercept - c * u)
        rms = float(np.sqrt(np.mean(resid ** 2)))
        C = float(np.exp(intercept))
    else:
        c, rms = 0.0, 0.0
        C = float(ratios.max(initial=0.0))
    return GaffneyFit(family, eta, C, c, rms, int(pos.sum()), d_EF,
                      list(s_arr), list(ratios))


# -- scalar tail bound -------------------------------------------------------

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


# -- gradient weighted estimate ----------------------------------------------

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
