"""Functional calculus for Delta = I - P.

Each operator phi(P) is described once, by a pair:

* an oracle symbol `symbol(lam, s)`, phi_s on the spectrum of P, applied
  exactly by the spectral oracle (dense eigendecomposition of the
  m-symmetrized walk), the reference on desk-scale graphs;
* a series column generator `column(s) -> (coeffs, tail_bound)`, the
  coefficients of sum_k c_k P^k truncated with a certified bound on the
  discarded tail, the scalable path; the two agree to `tail_bound + eps`.

`phi_apply` is the one place that chooses between them, and
`delta_power_apply` (Delta^beta for every real beta), `resolvent_apply`
((I + s Delta)^{-power}) and `a_s` reach it with their pair.  Every
(1 - z)^beta series takes its coefficients from `_binomial_chunks`.

A sequence of scales (the sup over s of the BMO norm, the Davies-Gaffney
decay curves) is evaluated as one block, one column per scale: the oracle
applies an (n_eig, S) symbol table in one pass, and the series path
applies an (N_max + 1, S) coefficient table, each column zero past its
own truncation N_s, during one walk of the power sequence up to
N_max = max_s N_s.  An M-fold composition of a truncated series is the
same polynomial in P as the M-th convolution power of its coefficients,
so it becomes one column too.

On a finite connected graph ker Delta is the constants, so the
operators with a singularity at the spectral point 1 (negative powers of
Delta, reproducing sums) act on the m-mean-zero subspace only.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (BadTuple, KernelComponent, NonConvergent, OracleCapExceeded,
                     OverlappingSets, PeriodicWalk)
from .graphs import WeightedGraph
from .operators import apply_P, gradient, lp_norm, mean_project, powers

ORACLE_MAX_N = 2048
KERNEL_REL_TOL = 1e-8
# Spectral points within this distance of 1 count as 1.
SPECTRAL_ONE_TOL = 1e-12
# Longest truncated series built before NonConvergent is raised.
SERIES_MAX_N = 2_000_000


# -- spectral oracle -----------------------------------------------------

class SpectralOracle:
    """Dense eigendecomposition of P on L^2(Gamma, m).

    P is conjugate to the symmetric matrix S = D^{-1/2} A D^{-1/2}
    (D = diag m), so phi(P) f = D^{-1/2} U phi(L) U^T D^{1/2} f.
    """

    def __init__(self, g: WeightedGraph):
        if g.n > ORACLE_MAX_N:
            raise OracleCapExceeded(
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
        which f (any column of a block) has a non-negligible component.
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
            comp = np.abs(coeff[rows]).max(axis=0, initial=0.0)
            scale = np.maximum(np.abs(coeff).max(axis=0, initial=0.0), 1e-300)
            if np.any(comp > KERNEL_REL_TOL * scale):
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
    """f projected onto the mean-zero subspace; KernelComponent unless its
    constant part is negligible against its L^2 norm.  An (n, k) block is
    checked column by column, and a zero column passes."""
    f = np.asarray(f, dtype=float)
    constant_part = np.abs(g.m @ f) / math.sqrt(g.total_volume())
    if np.any(constant_part > KERNEL_REL_TOL * lp_norm(g, f, 2)):
        raise KernelComponent("function has a nonzero m-mean")
    return mean_project(g, f)


# -- truncated series ------------------------------------------------------

# Powers P^k f stacked per GEMM when a coefficient table is applied.
TABLE_CHUNK = 64

# Binomial coefficients built per vectorized step of the running product.
BINOMIAL_CHUNK = 2048


def _binomial_chunks(beta: float):
    """(k, b_k) for k = 1, 2, ..., BINOMIAL_CHUNK at a time, where b_k are
    the Taylor coefficients of (1 - z)^beta (b_0 = 1), by a running
    product."""
    b, start = 1.0, 1
    while True:
        k = np.arange(start, start + BINOMIAL_CHUNK, dtype=float)
        bk = b * np.cumprod((k - 1.0 - beta) / k)
        yield k, bk
        b, start = bk[-1], start + BINOMIAL_CHUNK


def binomial_coefficients(exponent: float, count: int):
    """Taylor coefficients of (1 - z)^exponent, sign included."""
    chunks = itertools.islice(_binomial_chunks(exponent), -(-(count - 1) // BINOMIAL_CHUNK))
    return np.concatenate([np.ones(1)] + [bk for _, bk in chunks])[:count]


def binomial_series(beta: float, q: float, tol: float, pref=1.0):
    """(b_0..b_N, tail bound) for the Taylor coefficients b_k of
    (1 - z)^beta, with N the first k >= 1 whose certified weighted tail
    pref |b_{k+1}| q^{k+1} / (1 - rho_k) >= pref sum_{j>k} |b_j| q^j is
    <= tol.  Once k + 1 > beta the ratios |b_{j+1} / b_j| = (j - beta) /
    (j + 1), j > k, are monotone toward 1, so their sup is
    max((k + 1 - beta) / (k + 2), 1) and rho_k is q times it.  Raises
    NonConvergent past SERIES_MAX_N."""
    chunks = [np.ones(1)]
    for k, bk in _binomial_chunks(beta):
        rho = q * np.maximum((k + 1.0 - beta) / (k + 2.0), 1.0)
        with np.errstate(divide="ignore"):
            tail = pref * np.abs(bk * (k - beta) / (k + 1.0)) * q ** (k + 1.0) / (1.0 - rho)
        hit = np.flatnonzero((k + 1.0 > beta) & (rho < 1.0) & (tail <= tol))
        if len(hit) and k[hit[0]] <= SERIES_MAX_N:
            chunks.append(bk[:hit[0] + 1])
            return np.concatenate(chunks), float(tail[hit[0]])
        if k[-1] >= SERIES_MAX_N:
            raise NonConvergent(
                f"(1 - z)^{beta}: tol {tol} unreachable at N = {SERIES_MAX_N}")
        chunks.append(bk)


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
    oracle's unless one is supplied (OracleCapExceeded above the cap).
    A supplied value outside [0, 1) raises ValueError; a value within
    SPECTRAL_ONE_TOL of 1 means a periodic walk and raises PeriodicWalk."""
    if lambda_star is None:
        if not has_oracle(g):
            raise OracleCapExceeded(
                f"n = {g.n} is above the oracle cap {ORACLE_MAX_N}: supply lambda_star")
        lambda_star = spectral(g).lambda_star
    elif not 0.0 <= lambda_star < 1.0:
        raise ValueError("lambda_star must lie in [0, 1)")
    if 1.0 - lambda_star <= SPECTRAL_ONE_TOL:
        raise PeriodicWalk(
            f"lambda_star = {lambda_star!r}: the walk is periodic, so no "
            "series in P converges on mean-zero functions"
        )
    return float(lambda_star)


# -- one description per operator: oracle symbol and series column ----------

def _delta_power_symbol(lam, beta: float):
    """Delta^beta on the spectrum: max(1 - lam, 0)^beta, infinite at the
    constants (lam = 1) when beta < 0."""
    return np.maximum(1.0 - lam, 0.0) ** beta


def _delta_power_column(g: WeightedGraph, beta: float, tol: float, lambda_star=None):
    """(I - P)^beta as sum b_k P^k on the mean-zero subspace: a finite sum
    for an integer beta >= 0, else truncated with the geometric weight
    q = lambda_star."""
    if beta >= 0 and float(beta).is_integer():
        return binomial_coefficients(beta, int(beta) + 1), 0.0
    return binomial_series(beta, _mean_zero_radius(g, lambda_star), tol)


def _resolvent_symbol(lam, s, power: float):
    """(I + s Delta)^{-power} on the spectrum."""
    return (1.0 + s * (1.0 - lam)) ** (-power)


def resolvent_step_series(g: WeightedGraph, s: int, tol: float) -> SeriesOperator:
    """(I + s Delta)^{-1} = sum_k (1/(1+s)) (s/(1+s))^k P^k."""
    if s < 1:
        raise ValueError("s must be >= 1")
    q = s / (1.0 + s)
    N = max(0, math.ceil(math.log(tol) / math.log(q)))
    if N > SERIES_MAX_N:
        raise NonConvergent(f"resolvent: tol {tol} needs N = {N} > {SERIES_MAX_N}")
    coeffs = (1.0 / (1.0 + s)) * q ** np.arange(N + 1)
    return SeriesOperator(g, f"resolvent({s})", coeffs, q ** (N + 1))


def resolvent_frac_series(g: WeightedGraph, s: int, power: float,
                          tol: float) -> SeriesOperator:
    """(I + s Delta)^{-power} for power > 0 via the (1 - z)^{-power} series:
    c_k = (1+s)^{-power} a_k q^k with q = s/(1+s) and a_k, N and the
    tail bound from `binomial_series`."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if power <= 0:
        raise ValueError("power must be > 0")
    q = s / (1.0 + s)
    pref = (1.0 + s) ** (-power)
    a, tail = binomial_series(-power, q, tol, pref)
    return SeriesOperator(g, f"resolvent_frac({s},{power})",
                          pref * a * q ** np.arange(len(a), dtype=float), tail)


def _resolvent_column(g: WeightedGraph, s: int, power, tol):
    """(I + s Delta)^{-power} as one table column: for an integer power
    M the M-fold Neumann composition of the step series, i.e. the M-th
    convolution power of its coefficients (tail bound M times the
    step's, every factor being a contraction); the (1 - z)^{-power}
    series otherwise."""
    if power >= 0 and float(power).is_integer():
        M = int(power)
        step = resolvent_step_series(g, s, tol / max(M, 1))
        col = np.ones(1)
        for _ in range(M):
            col = np.convolve(col, step.coeffs)
        return col, M * step.tail_bound
    op = resolvent_frac_series(g, s, power, tol)
    return op.coeffs, op.tail_bound


# -- the one oracle/series choice --------------------------------------------

def phi_apply(g: WeightedGraph, f, s, symbol, column):
    """phi_s(P) f: the oracle applies symbol(lam, s) when affordable, the
    series path the coefficients of column(s) = (coeffs, tail_bound).

    A scalar s (None for an operator without a scale) takes a vector or
    an (n, k) block.  A sequence of scales takes a vector and gives an
    (n, S) block, one column per scale: one oracle apply of the table
    symbol(lam[:, None], s), or one series table of the columns.
    """
    sweep = np.ndim(s) > 0
    if sweep:
        s = np.asarray(s, dtype=float)
    if has_oracle(g):
        return spectral(g).apply(lambda lam: symbol(lam[:, None] if sweep else lam, s), f)
    if sweep:
        return series_table(g, f"sweep({len(s)})", [column(int(t)) for t in s]).apply(f)
    return SeriesOperator(g, "phi", *column(s)).apply(f)


def delta_power_apply(g: WeightedGraph, f, beta: float, tol=1e-10):
    """Delta^beta f for any real beta, with automatic path choice.  A
    negative beta is singular at the constants, so f must have m-mean
    zero (KernelComponent otherwise)."""
    if beta < 0:
        require_mean_zero(g, f)
    return phi_apply(g, f, None, lambda lam, _: _delta_power_symbol(lam, beta),
                     lambda _: _delta_power_column(g, beta, tol))


def resolvent_apply(g: WeightedGraph, f, s, power=1.0, tol=1e-12):
    """(I + s Delta)^{-power} f with automatic path choice; a sequence of
    scales gives an (n, S) block, one column per scale."""
    return phi_apply(g, f, s, lambda lam, t: _resolvent_symbol(lam, t, power),
                     lambda t: _resolvent_column(g, t, power, tol))


# -- single-path names ---------------------------------------------------------

def delta_power_exact(g: WeightedGraph, f, beta: float):
    return spectral(g).apply(lambda lam: _delta_power_symbol(lam, beta), f)


def delta_inv_sqrt_exact(g: WeightedGraph, f):
    """Delta^{-1/2} f on the mean-zero subspace (spectral)."""
    return delta_power_exact(g, f, -0.5)


def resolvent_exact(g: WeightedGraph, f, s: int, power=1.0):
    return spectral(g).apply(lambda lam: _resolvent_symbol(lam, s, power), f)


def delta_power_series(g: WeightedGraph, beta: float, tol: float,
                       lambda_star=None) -> SeriesOperator:
    return SeriesOperator(g, f"delta_pow({beta})",
                          *_delta_power_column(g, beta, tol, lambda_star))


def inv_sqrt_series(g: WeightedGraph, tol: float, lambda_star=None) -> SeriesOperator:
    """(I - P)^{-1/2} on the mean-zero subspace."""
    return delta_power_series(g, -0.5, tol, lambda_star)


def reproducing_series(g: WeightedGraph, beta: float, N: int) -> SeriesOperator:
    """sum_{k<=N} a_k P^k with a_k the coefficients of (1-z)^{-beta}."""
    coeffs = binomial_coefficients(-beta, N + 1)
    return SeriesOperator(g, f"reproducing({beta},{N})", coeffs, math.inf)


def delta_power(g: WeightedGraph, f, beta: float, tol=1e-10, lambda_star=None):
    """Series path for Delta^beta; the constant part is annihilated exactly
    first (a negative beta requires a mean-zero f)."""
    ft = require_mean_zero(g, f) if beta < 0 else mean_project(g, f)
    return delta_power_series(g, beta, tol, lambda_star).apply(ft)


def resolvent(g: WeightedGraph, f, s: int, M: int = 1, tol=1e-12):
    """Series path for (I + s Delta)^{-M} f: the Neumann series composed
    M times, applied as one column."""
    return SeriesOperator(g, f"resolvent({s})", *_resolvent_column(g, s, M, tol)).apply(f)


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

    def __post_init__(self):
        if self.M < 1:
            raise BadTuple(f"M = {self.M} < 1")


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
            r = _resolvent_symbol(lam, t, 1.0)
            return sum(math.comb(kind.M, j) * (-r) ** j for j in range(1, kind.M + 1))
        return out[:, None] + phi_apply(
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
    return gradient(g, _heat_sweep(g, f, s)) * [math.sqrt(t) for t in s]


def _family_grad_resolvent(g, f, s, M):
    out = resolvent_apply(g, f, [int(t) for t in s], M + 0.5)
    for _ in range(M):
        out = out - apply_P(g, out)
    return gradient(g, out) * [t ** (M + 0.5) for t in s]


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
    if M < 1:
        raise ValueError("M must be >= 1")
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
