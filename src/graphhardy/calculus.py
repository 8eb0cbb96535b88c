"""Functional calculus for Delta = I - P.

Each operator phi(P) is described once, by a pair:

* an oracle symbol `symbol(lam, s)`, phi_s on the spectrum of P, applied
  exactly by the spectral oracle (dense eigendecomposition of the
  m-symmetrized walk), the reference on desk-scale graphs;
* a series column generator `column(s) -> (coeffs, tail_bound)`, the
  Chebyshev coefficients of sum_k c_k T_k(P) truncated with a certified
  bound on the discarded tail, the scalable path; the two agree to
  `tail_bound + eps`.

Every series is a Chebyshev interpolant (`chebyshev_series`, certified by
Trefethen, ATAP Thm 8.2) applied with the three-term recurrence
`operators.chebyshev`.  The resolvent families (I + s Delta)^{-power} and
[I - (I + s Delta)^{-1}]^M have symbols analytic off z = 1 + 1/s, outside
the spectrum's [-1, 1], so their interpolants converge on all of [-1, 1]
at a rate of about 1 + sqrt(2/s) per term.  Delta^beta is a polynomial in
P for an integer beta >= 0; otherwise (1 - z)^beta is singular at z = 1,
on the spectrum, so its column is the interpolant on [-r, r] with
r = max(lambda_star, MIN_RADIUS) (it holds the spectrum on mean-zero
functions), walked in (P - Pi)/r with the m-mean projection Pi applied
after every product, and the column carries r as a third element.

`phi_apply` is the one place that chooses between oracle and series, and
`delta_power_apply` (Delta^beta for every real beta), `resolvent_apply`
((I + s Delta)^{-power}) and `a_s` reach it with their pair.  The series
of Delta^beta and of the resolvents are also built whatever n, as the
certified objects `delta_power_series` and `resolvent_frac_series`.

A sequence of scales (the sup over s of the BMO norm, the Davies-Gaffney
decay curves) is evaluated as one block, one column per scale: the oracle
applies an (n_eig, S) symbol table in one pass, and the series path
applies an (N_max + 1, S) coefficient table, each column zero past its
own truncation N_s, during one walk of T_k(P) up to N_max = max_s N_s.

On a finite connected graph ker Delta is the constants, and both paths
treat them by one rule: a symbol is finite on all of [-1, 1], and
Delta^beta for beta < 0 sends the constants to 0, its symbol being 0 at
lam = 1 as its deflated walk projects them out.  A negative power is
defined on the m-mean-zero functions only, so `delta_power_apply` checks
its input with `require_mean_zero`, the one place that raises
KernelComponent, before a path is chosen.  The automatic-path applies
run at fixed tolerances (1e-10 for Delta^beta, GAFFNEY_TOL for the bz2
columns of `a_s`); a tolerance is chosen only on the certified series
objects and on `resolvent_apply`.
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
from .graphs import ROW_BLOCK_ENTRIES, WeightedGraph, set_distance
from .operators import (LEVEL_CHUNK, apply_P, chebyshev, gradient, heat_sweep, lp_norm,
                        mean_project, powers)

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
    (D = diag m), so phi(P) f = D^{-1/2} U phi(L) U^T D^{1/2} f, a plain
    spectral product: phi must be finite on the spectrum, and it decides
    alone what happens on each eigenspace, the constants included.
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
        returns an (n_eig, S) table gives an (n, S) block for a vector f."""
        f = np.asarray(f, dtype=float)
        coeff = self.basis.T @ ((f.T * self.sqrt_m).T)
        vals = np.asarray(phi(self.eigenvalues), dtype=float)
        table = vals.ndim == 2
        if table and f.ndim != 1:
            raise ValueError("a symbol table applies to a single vector")
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

# Least radius of a deflated walk: a smaller lambda_star would divide the
# rounding of every product by it, and [-1/2, 1/2] costs few terms.
MIN_RADIUS = 0.5


def binomial_coefficients(exponent: float, count: int):
    """Taylor coefficients of (1 - z)^exponent, sign included."""
    k = np.arange(1.0, count)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - exponent) / k)))[:count]


@dataclass
class SeriesOperator:
    """Sum_k coeff_k T_k(X) truncated at N with a certified tail bound,
    T_k the Chebyshev polynomials and X = P, or X = (P - Pi)/radius on
    mean-zero functions when a radius is given (`operators.chebyshev`).

    `coeffs` is either one coefficient vector or a table of shape
    (N_max + 1, S), one column per scale, each zero past its own
    truncation; a table carries one tail bound per column.

    Every tail bound holds in the L^2(m) operator norm on the subspace
    the walk acts on: X is self-adjoint on L^2(m) with spectrum in
    [-1, 1] there, so ||phi(X) - p_N(X)|| is the largest |phi - p_N| on
    that spectrum, and a Chebyshev bound holds on all of [-1, 1]."""

    graph: WeightedGraph
    coeffs: np.ndarray = field(repr=False)
    tail_bound: object          # float, or an (S,) array for a table
    radius: object = None       # None, or the radius of a deflated walk

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f):
        """Evaluate on a vector or a stacked batch (n, k); a table takes
        a vector and returns an (n, S) block.  The terms are summed by
        GEMM, a chunk of them at a time on the level walk's memory rule
        (at most LEVEL_CHUNK terms and ROW_BLOCK_ENTRIES numbers), a
        single column standing in as a one-column table, so a one-column
        batch is summed as its vector."""
        f = np.asarray(f, dtype=float)
        table = self.coeffs.ndim == 2
        if table and f.ndim != 1:
            raise ValueError("a coefficient table applies to a single vector")
        C = self.coeffs.reshape(len(self.coeffs), -1)
        chunk = max(1, min(LEVEL_CHUNK, ROW_BLOCK_ENTRIES // max(f.size, 1)))
        terms = chebyshev(self.graph, f, self.truncation, self.radius)
        acc = 0.0
        for start in range(0, len(C), chunk):
            block = np.stack(list(itertools.islice(terms, chunk)))
            acc += block.reshape(len(block), -1).T @ C[start:start + len(block)]
        return acc.reshape(f.shape + C.shape[1:] if table else f.shape)


def series_table(g: WeightedGraph, columns) -> SeriesOperator:
    """One table from (coefficients, tail bound) columns, one per scale,
    zero-padded to the longest."""
    C = np.zeros((max(len(c[0]) for c in columns), len(columns)))
    for j, c in enumerate(columns):
        C[:len(c[0]), j] = c[0]
    return SeriesOperator(g, C, np.array([c[1] for c in columns]))


# Ellipse parameters tried by `chebyshev_series`, as fractions of the way
# from 1 to the largest admissible rho; the best one lies close to the
# pole, so the grid is geometric in the distance to it.
_RHO_FRACTIONS = 1.0 - np.geomspace(1e-4, 1.0, 256, endpoint=False)


def chebyshev_series(symbol, sup, pole: float, tol: float):
    """(c_0..c_N, tail bound): the degree-N interpolant
    sum_k c_k T_k of symbol at the N + 1 Chebyshev points cos(j pi / N).

    symbol must be analytic inside every Bernstein ellipse E_rho (foci
    -1 and 1, semi-axis sum rho) whose right vertex
    x_rho = (rho + 1/rho)/2 lies left of the real pole > 1, and sup(x_rho)
    must bound |symbol| on E_rho.  Then the interpolant is within
    4 sup(x_rho) rho^{-N} / (rho - 1) of symbol on [-1, 1] (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2); rho is
    taken from a grid below pole + sqrt(pole^2 - 1) to make N the smallest
    with that bound <= tol, and the tail bound is the least over the grid
    at that N.  Raises NonConvergent past SERIES_MAX_N."""
    rho = 1.0 + (pole + math.sqrt((pole - 1.0) * (pole + 1.0)) - 1.0) * _RHO_FRACTIONS
    front = 4.0 * sup(0.5 * (rho + 1.0 / rho)) / (rho - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        degrees = np.maximum(np.ceil(np.log(front / tol) / np.log(rho)), 1.0)
        degrees[front * rho ** -degrees > tol] += 1.0    # rounded onto the boundary
    N = degrees.min()
    if not N <= SERIES_MAX_N:
        raise NonConvergent(f"Chebyshev series: tol {tol} needs N > {SERIES_MAX_N}")
    N = int(N)
    tail = float(np.min(front * rho ** -N))
    vals = symbol(np.cos(np.pi * np.arange(N + 1) / N))
    # the interpolant's coefficients are a DCT-I of the values, taken as
    # the real FFT of their even extension
    c = np.fft.rfft(np.concatenate((vals, vals[-2:0:-1]))).real / N
    c[[0, N]] /= 2.0
    return c, tail


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
    """Delta^beta on the spectrum: max(1 - lam, 0)^beta, and 0 at the
    constants (lam = 1) when beta < 0, as the deflated walk has it."""
    d = np.maximum(1.0 - lam, 0.0)
    return (d if beta >= 0 else np.where(d > 0.0, d, np.inf)) ** beta


def _delta_power_column(g: WeightedGraph, beta: float, tol: float, lambda_star=None):
    """(I - P)^beta as (coeffs, tail bound, radius).  An integer beta >= 0
    is the polynomial itself in T_k(P), exact.  Otherwise the walk is
    deflated with radius r = max(lambda_star, MIN_RADIUS): on mean-zero
    functions X = (P - Pi)/r has its spectrum in [-1, 1], and Delta^beta
    is (1 - r x)^beta there, analytic off x = 1/r; on E_rho its modulus
    is at most (1 - r x_rho)^beta for beta < 0 and (1 + r x_rho)^beta
    for beta > 0.  The constants are sent to 0, which is Delta^beta on
    them for beta > 0 (a negative beta needs a mean-zero input)."""
    if beta >= 0 and float(beta).is_integer():
        poly = binomial_coefficients(beta, int(beta) + 1)
        return np.polynomial.chebyshev.poly2cheb(poly), 0.0, None
    r = max(_mean_zero_radius(g, lambda_star), MIN_RADIUS)
    return (*chebyshev_series(lambda x: (1.0 - r * x) ** beta,
                              lambda x: (1.0 + math.copysign(r, beta) * x) ** beta,
                              1.0 / r, tol), r)


def _resolvent_symbol(lam, s, power: float):
    """(I + s Delta)^{-power} on the spectrum."""
    return (1.0 + s * (1.0 - lam)) ** (-power)


def _bz2_symbol(lam, s, M: int):
    """[I - (I + s Delta)^{-1}]^M - I = sum_{j>=1} C(M, j) (-R)^j on the
    spectrum: without the identity part, so it is as accurate as R."""
    r = _resolvent_symbol(lam, s, 1.0)
    return sum(math.comb(M, j) * (-r) ** j for j in range(1, M + 1))


def _resolvent_column(s, power, tol):
    """(I + s Delta)^{-power}, any real power, as one Chebyshev column.
    The symbol (1 + s(1 - x))^{-power} is analytic off x = 1 + 1/s.  On
    E_rho its modulus is at most its value at x_rho, the point of E_rho
    nearest the singularity, for power > 0, and at most
    (1 + s + s x_rho)^{-power}, with |x| <= x_rho there, for power < 0."""
    if s < 1:
        raise ValueError("s must be >= 1")

    def symbol(x):
        return _resolvent_symbol(x, s, power)
    sup = symbol if power > 0 else lambda x: (1.0 + s + s * x) ** (-power)
    return chebyshev_series(symbol, sup, 1.0 + 1.0 / s, tol)


def _bz2_column(s, M: int, tol):
    """[I - (I + s Delta)^{-1}]^M - I as one Chebyshev column; with
    |R| <= R(x_rho) on E_rho its modulus there is at most
    (1 + R(x_rho))^M - 1."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return chebyshev_series(
        lambda x: _bz2_symbol(x, s, M),
        lambda x: (1.0 + _resolvent_symbol(x, s, 1.0)) ** M - 1.0, 1.0 + 1.0 / s, tol)


# -- the one oracle/series choice --------------------------------------------

def phi_apply(g: WeightedGraph, f, s, symbol, column):
    """phi_s(P) f: the oracle applies symbol(lam, s) when affordable, the
    series path the Chebyshev column(s) = (coeffs, tail_bound), or
    (coeffs, tail_bound, radius) for a deflated walk.

    A scalar s (None for an operator without a scale) takes a vector or
    an (n, k) block.  A sequence of scales takes a vector and gives an
    (n, S) block, one column per scale: one oracle apply of the table
    symbol(lam[:, None], s), or one series table of the columns.
    """
    if not has_oracle(g):
        if np.ndim(s) > 0:
            return series_table(g, [column(t) for t in s]).apply(f)
        return SeriesOperator(g, *column(s)).apply(f)
    if np.ndim(s) > 0:
        s = np.asarray(s, dtype=float)
        return spectral(g).apply(lambda lam: symbol(lam[:, None], s), f)
    return spectral(g).apply(lambda lam: symbol(lam, s), f)


def delta_power_apply(g: WeightedGraph, f, beta: float):
    """Delta^beta f for any real beta, with automatic path choice, the
    series at tol 1e-10.  A negative beta is defined on mean-zero
    functions only, so f must have m-mean zero (KernelComponent
    otherwise)."""
    if beta < 0:
        require_mean_zero(g, f)
    return phi_apply(g, f, None, lambda lam, _: _delta_power_symbol(lam, beta),
                     lambda _: _delta_power_column(g, beta, 1e-10))


def resolvent_apply(g: WeightedGraph, f, s, power=1.0, tol=1e-12):
    """(I + s Delta)^{-power} f with automatic path choice; a sequence of
    scales gives an (n, S) block, one column per scale."""
    return phi_apply(g, f, s, lambda lam, t: _resolvent_symbol(lam, t, power),
                     lambda t: _resolvent_column(t, power, tol))


# -- certified series objects ---------------------------------------------------

def delta_power_series(g: WeightedGraph, beta: float, tol: float,
                       lambda_star=None) -> SeriesOperator:
    """Delta^beta on the series path, whatever n: its tail bound and
    truncation, with lambda_star supplied above the oracle cap.  A
    fractional beta's walk drops the constant part of its input."""
    return SeriesOperator(g, *_delta_power_column(g, beta, tol, lambda_star))


def resolvent_frac_series(g: WeightedGraph, s, power: float,
                          tol: float) -> SeriesOperator:
    """(I + s Delta)^{-power}, any real power, on the series path."""
    return SeriesOperator(g, *_resolvent_column(s, power, tol))


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
    s: object                  # a scale, or a tuple of scales for a sweep
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise BadTuple(f"M = {self.M} < 1")


@dataclass(frozen=True)
class QsKind:
    s: int


# Tolerance of the bz2 columns of `a_s` and of the resolvent families'
# evaluations, hence the absolute accuracy of their ratios (f has unit
# norm).
GAFFNEY_TOL = 1e-12


def a_s(g: WeightedGraph, f, kind):
    """Apply a molecule-generating operator.

    BZ1: (I - P^{s_1}) ... (I - P^{s_M});  BZ2: [I - (I+s Delta)^{-1}]^M,
    its series at tol GAFFNEY_TOL;  Qs: the Cesaro average
    (1/s) sum_{k<s} P^k.  A BZ2 kind whose s is a sequence gives an
    (n, S) block, one column per scale.
    """
    out = np.asarray(f, dtype=float)
    if isinstance(kind, BZ1Kind):
        for t in kind.times:
            out = out - apply_P(g, out, t)
        return out
    if isinstance(kind, BZ2Kind):
        # the identity part is added exactly, so where f vanishes the
        # result is as accurate as R f
        return (out[:, None] if np.ndim(kind.s) else out) + phi_apply(
            g, out, kind.s, lambda lam, t: _bz2_symbol(lam, t, kind.M),
            lambda t: _bz2_column(t, kind.M, GAFFNEY_TOL))
    if isinstance(kind, QsKind):
        acc = np.zeros_like(out)
        for vec in powers(g, out, kind.s - 1):
            acc += vec
        return acc / kind.s
    raise TypeError(f"unknown A_s kind: {kind!r}")


# -- Davies-Gaffney decay fits ----------------------------------------------

def _family_heat(g, f, s, M):
    return heat_sweep(g, f, s)


def _family_delta_heat(g, f, s, M):
    out = heat_sweep(g, f, s)
    for _ in range(M):
        out = np.asarray(s, dtype=float) * (out - apply_P(g, out))
    return out


def _family_resolvent(g, f, s, M):
    return resolvent_apply(g, f, s, float(M), GAFFNEY_TOL)


def _family_resolvent_diff(g, f, s, M):
    return a_s(g, f, BZ2Kind(tuple(s), M))


def _family_grad_heat(g, f, s, M):
    return gradient(g, heat_sweep(g, f, s)) * [math.sqrt(t) for t in s]


def _family_grad_resolvent(g, f, s, M):
    out = resolvent_apply(g, f, s, M + 0.5, GAFFNEY_TOL)
    for _ in range(M):
        out = out - apply_P(g, out)
    return gradient(g, out) * [t ** (M + 0.5) for t in s]


def _resolvent_floor(s, M):
    return GAFFNEY_TOL


def _grad_resolvent_floor(s, M):
    # (I - P)^M has norm <= 2^M and the gradient <= sqrt(2) on L^2(m)
    return GAFFNEY_TOL * 2.0 ** M * math.sqrt(2.0) * s ** (M + 0.5)


# family name -> (apply(g, f, s_values, M) -> (n, S) block, one column
# per scale; decay exponent eta; absolute accuracy floor(s, M) of a
# ratio for a unit-norm f, None where the block is exact)
FAMILIES = {
    "heat": (_family_heat, 1.0, None),
    "delta_heat": (_family_delta_heat, 1.0, None),
    "resolvent": (_family_resolvent, 0.5, _resolvent_floor),
    "resolvent_diff": (_family_resolvent_diff, 0.5, _resolvent_floor),
    "grad_heat": (_family_grad_heat, 1.0, None),
    "grad_resolvent": (_family_grad_resolvent, 0.5, _grad_resolvent_floor),
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
        return json.dumps(vars(self), indent=2, default=vars)


def gaffney_fit(g: WeightedGraph, family: str, E, F, s_range, M=1) -> GaffneyFit:
    """Measure ||A_s f||_{L^2(E)} / ||f||_{L^2(F)} for f = normalized 1_F
    and fit log ratio = log C - c (d(E,F)^2 / s)^eta.

    Ratios at or below their evaluation's absolute accuracy are dropped
    from the fit but kept in the recorded curve: exact zeros (finite
    propagation speed) for the heat families, and for the resolvent
    families every ratio not above GAFFNEY_TOL = 1e-12 (times
    2^M sqrt(2) s^(M+1/2) for grad_resolvent), the tail bound the series
    path certifies, which also exceeds the oracle's rounding (about
    n eps).  Heat families take integer times only (ValueError
    otherwise); resolvent scales are used as given.  s_range may be any
    iterable (it is read once); all its scales are evaluated as one
    block.
    """
    E = np.asarray(list(E), dtype=int)
    F = np.asarray(list(F), dtype=int)
    if np.intersect1d(E, F).size:
        raise OverlappingSets("E and F must be disjoint")
    if M < 1:
        raise ValueError("M must be >= 1")
    apply_fn, eta, floor_fn = FAMILIES[family]
    d_EF = float(set_distance(g, E, F))
    f = np.zeros(g.n)
    f[F] = 1.0
    f /= lp_norm(g, f, 2)
    s_values = list(s_range)
    U = apply_fn(g, f, s_values, M) if s_values else np.empty((g.n, 0))
    ratios = np.array([float(np.sqrt(np.sum(u[E] ** 2 * g.m[E]))) for u in U.T])
    s_arr = np.asarray(s_values, dtype=float)
    pos = ratios > (0.0 if floor_fn is None else floor_fn(s_arr, M))
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

