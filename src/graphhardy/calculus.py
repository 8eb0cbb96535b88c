"""Functional calculus for Delta = I - P.

Each operator phi_s(P) is described once, by a frozen `Symbol`:
`DeltaPower(beta)`, `Resolvent(power)` ((I + s Delta)^{-power}),
`Bz2(M)` ([I - (I + s Delta)^{-1}]^M without its identity part), and
the two symbols of a profile's closed-form tail, its Lusin mass
(`LusinTail`) and its share of a molecule and of the molecule's
pre-image (`SynthesisTail`), bounded symbols whose columns sum to about
their size.  op(lam, s) is phi_s on the spectrum of P, applied exactly
by the spectral oracle (dense eigendecomposition of the m-symmetrized
walk), the reference on desk-scale graphs.  `Symbol.column`
interpolates that same function on an interval that holds the
spectrum, with the pole and the ellipse bound `sup` its symbol keeps:
a Chebyshev column truncated with a certified bound on the discarded
tail (`chebyshev_series`, Trefethen, ATAP Thm 8.2), the scalable path.
The two agree to `tail_bound + eps`.

`phi_apply(g, f, op, s, tol)` is the one place that chooses between
oracle and series, and `series(g, op, s, tol)` is the certified series
object its series path runs, built whatever n, walked with the chained
three-term recurrence `operators.chebyshev_blocks` in
X = (2P - (hi + lo) I)/(hi - lo).  The interval is
`operators.spectral_interval(g)`, certified by (LB) through Gershgorin:
[0, 1], widened by a few ulps, on a lazy graph.  The resolvent families
have symbols analytic off z = 1 + 1/s, so their interpolants converge
at a rate of about 1 + sqrt(2/s) per term on [-1, 1], and of
1 + 2 sqrt(1/s) on [0, 1], where the pole sits at x = 1 + 2/s: about
1/sqrt(2) of the terms.  Delta^beta is a polynomial in P for an integer
beta >= 0, kept on X = P (lo, hi = -1, 1) with its exact arithmetic;
otherwise (1 - z)^beta is singular at z = 1, on the spectrum, so, like
the tail symbols, it is deflated: its column is the interpolant on
[max(lo, -r), r] with r = max(lambda_star, MIN_RADIUS) (it holds the
spectrum on mean-zero functions), walked with the m-mean projection Pi
applied after every product.  lambda_star is read from the graph's
spectrum record (`spectrum`): the oracle's up to ORACLE_MAX_N, certified
by spectrum slicing above it.  `delta_power_apply`, `resolvent_apply`
and `bz2_apply` each reach `phi_apply` with their symbol, and
`quadratic.ProfileTail` hands it `LusinTail` and `SynthesisTail` itself;
`bz1_block` combines stored powers of P.

A sequence of scales (the sup over s of the BMO norm, the Davies-Gaffney
decay curves) is evaluated as one block, one column per scale: the oracle
applies an (n_eig, S) symbol table in one pass, and the series path
applies an (N_max + 1, S) coefficient table, each column zero past its
own truncation N_s, during one walk of T_k(X) up to N_max = max_s N_s.

On a finite connected graph ker Delta is the constants, and both paths
treat them by one rule: a symbol is finite on the whole spectrum, and
Delta^beta for beta < 0 sends the constants to 0, its symbol being 0 at
lam = 1 as its deflated walk projects them out.  A negative power is
defined on the m-mean-zero functions only, so `delta_power_apply` checks
its input with `require_mean_zero`, the one place that raises
KernelComponent, before a path is chosen.  The automatic-path applies
run at fixed tolerances (1e-10 for Delta^beta, GAFFNEY_TOL for
`bz2_apply`); a tolerance is chosen only on `series` and on
`resolvent_apply`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (BadTuple, KernelComponent, NonConvergent, OracleCapExceeded,
                     OverlappingSets, PeriodicWalk, UncertifiedSpectrum)
from .graphs import WeightedGraph, set_distance
from .operators import (chebyshev_blocks, delta_steps, gradient, heat_sweep, lp_norm, mean_project,
                        spectral_interval)

# Largest n the dense oracle is built for: its eigh costs 0.04 s at
# n = 256 and 0.73 s at n = 1,024 (one BLAS thread), while the
# certified lambda_star (`spectrum`) costs 0.01-0.13 s from n = 256 to
# 4,096.
ORACLE_MAX_N = 256
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
        # LAPACK, like ARPACK and SuperLU below, is loaded on first use:
        # importing the package loads numpy and scipy.sparse only
        import scipy.linalg

        self.graph = g
        self.sqrt_m = np.sqrt(g.m)
        eigs, U = scipy.linalg.eigh(np.asarray(_symmetrized(g).todense()))
        # stochasticity puts the top of the spectrum at exactly 1
        eigs = np.minimum(eigs, 1.0)
        eigs[eigs > 1.0 - SPECTRAL_ONE_TOL] = 1.0
        self.eigenvalues = eigs
        self.basis = U

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


def _symmetrized(g: WeightedGraph):
    """S = D^{-1/2} A D^{-1/2} (D = diag m), sparse: the m-symmetrized
    walk, conjugate to P, with sqrt(m) its eigenvector of eigenvalue 1."""
    sqrt_m = np.sqrt(g.m)
    return (g.adjacency / sqrt_m).T / sqrt_m


# -- the spectrum record ---------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """What the calculus knows of the spectrum of P: lo, the certified
    lower end of `spectral_interval`, and lambda_star < 1, an upper bound
    of the spectral radius of P on mean-zero functions, with `margin`,
    how far lambda_star may lie above that radius, and its `source`:
    "oracle" (eigh's value raised by a bound on eigh's error) or
    "certified" (`_certify`: no mean-zero eigenvalue lies outside
    [-lambda_star, lambda_star])."""

    lo: float
    lambda_star: float
    margin: float
    source: str


def spectrum(g: WeightedGraph) -> Spectrum:
    """The graph's spectrum record, the one way spectral facts leave the
    calculus, built once per source and cached on it: the oracle's
    lambda_star up to ORACLE_MAX_N, where the oracle is built anyway, and
    a certified one above it.  The oracle's largest mean-zero modulus is
    raised by n eps, a bound on eigh's error for S (`_symmetrized`, of
    2-norm 1), and rounded up; margin is twice that bound, as eigh's
    value may lie below the radius by as much.  Every horizon
    (`reproducing_l_max`) and tail interval is read from this record.
    A periodic walk raises PeriodicWalk on both sources."""
    source = "oracle" if has_oracle(g) else "certified"
    if source not in g._spectra:
        lo = spectral_interval(g)[0]
        if source == "oracle":
            error = g.n * float(np.finfo(float).eps)
            radius = _require_aperiodic(float(np.abs(spectral(g).eigenvalues[:-1]).max()))
            g._spectra[source] = Spectrum(lo, float(np.nextafter(radius + error, np.inf)),
                                          2.0 * error, source)
        else:
            g._spectra[source] = _certify(g, lo)
    return g._spectra[source]


# Slice offsets tried by `_certify`, in order: a factorization near an
# eigenvalue grows its rounding, so a wider offset is tried when the
# backward error does not clear the narrower one.  The certified value
# lies at most twice the widest above the estimate.
SLICE_OFFSETS = (1e-10, 1e-9, 4e-9)


def _ritz(S, v, which: str) -> float:
    """The extreme eigenvalue (ARPACK `which` "LA" or "SA") of S with its
    unit eigenvector v deflated, at tol 1e-12 from a fixed start, so the
    estimate is the same on every call; an ARPACK failure raises
    UncertifiedSpectrum."""
    import scipy.sparse.linalg as spla

    n = S.shape[0]
    deflated = spla.LinearOperator((n, n), matvec=lambda x: S @ x - v * (v @ x), dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        (theta,) = spla.eigsh(deflated, k=1, which=which, tol=1e-12, v0=start,
                              return_eigenvectors=False)
    except spla.ArpackError as err:
        raise UncertifiedSpectrum(f"the Lanczos estimate of lambda_star failed: {err}") from err
    return float(theta)


def _negative_pivots(A):
    """(negatives, error) for a sparse symmetric A: the number of
    negative pivots of its L D L^T factorization, which by Sylvester's
    law of inertia is the number of negative eigenvalues of L D L^T, and
    a bound on the 2-norm of A - L D L^T, so every eigenvalue of A lies
    within error of one of L D L^T (Weyl).

    SuperLU factors A in symmetric mode without pivoting
    (diag_pivot_thresh 0, MMD on A^T + A), so P A P^T = L U with U's
    diagonal the pivots D.  The residual P A P^T - L D L^T is formed in
    long double, and error is the largest row sum of its modulus (the
    2-norm of a symmetric matrix is at most that) plus the rounding of
    forming it, gamma_w times the largest row sum of |L| |D| |L|^T, w the
    longest row of L.  A factorization that pivoted is not symmetric and
    raises UncertifiedSpectrum."""
    import scipy.sparse.linalg as spla

    lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise UncertifiedSpectrum("the symmetric factorization pivoted")
    pivots = lu.U.diagonal()
    L = lu.L.astype(np.longdouble)
    order = np.argsort(lu.perm_c)
    residual = sp.csr_matrix(A)[order][:, order].astype(np.longdouble) - L @ sp.diags(pivots) @ L.T
    w = int(np.diff(L.tocsr().indptr).max()) + 2
    gamma = w * np.finfo(np.longdouble).eps / (1 - w * np.finfo(np.longdouble).eps)
    abs_L = abs(L)
    rounding = gamma * (abs_L @ (np.abs(pivots) * (abs_L.T @ np.ones(len(pivots))))).max()
    error = abs(residual).sum(axis=1).max() + rounding
    return int(np.count_nonzero(pivots < 0.0)), float(np.nextafter(float(error), np.inf))


def _certify(g: WeightedGraph, lo: float) -> Spectrum:
    """lambda_star certified by spectrum slicing (Sylvester inertia
    counts; Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, 3.3).

    The estimate theta is the Lanczos value of the largest eigenvalue of
    S (`_symmetrized`) with the constants deflated, and of the largest
    modulus of the smallest, taken only when the Gershgorin end lo lies
    below -theta.  At mu = theta + delta, mu I - S must count exactly one
    negative pivot, the constants' eigenvalue 1, so every mean-zero
    eigenvalue lies at most mu + error; where -lo > mu, mu I + S must
    count none, so none lies below -(mu + error).  The factorization's
    error (`_negative_pivots`) must be at most delta, else the next
    SLICE_OFFSETS delta is tried; lambda_star is mu + error, rounded up.
    A wrong count, or an error no offset clears, raises
    UncertifiedSpectrum; a theta within SPECTRAL_ONE_TOL of 1,
    PeriodicWalk."""
    S = sp.csr_matrix(_symmetrized(g))
    v = np.sqrt(g.m) / math.sqrt(g.total_volume())
    theta = _ritz(S, v, "LA")
    if -lo > theta:
        theta = max(theta, -_ritz(S, v, "SA"))
    _require_aperiodic(theta)
    eye = sp.identity(g.n, format="csr")
    for delta in SLICE_OFFSETS:
        mu = theta + delta
        slices = [(mu * eye - S, 1)] + ([(mu * eye + S, 0)] if -lo > mu else [])
        counts = [(_negative_pivots(A), want) for A, want in slices]
        error = max(err for (_, err), _ in counts)
        if not error <= delta:
            continue
        for (negatives, _), want in counts:
            if negatives != want:
                raise UncertifiedSpectrum(
                    f"{negatives} eigenvalues of the walk beyond +-{mu!r} where the "
                    f"estimate {theta!r} leaves {want}")
        lambda_star = float(np.nextafter(mu + error, np.inf))
        return Spectrum(lo, lambda_star, lambda_star - theta, "certified")
    raise UncertifiedSpectrum(f"the factorization's backward error {error!r} exceeds "
                              f"the widest slice offset {SLICE_OFFSETS[-1]!r}")


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
    T_k the Chebyshev polynomials and X = (2P - (hi + lo) I)/(hi - lo)
    the affine image of P that maps interval = (lo, hi) onto [-1, 1]
    (X = P on the default (-1, 1)), on mean-zero functions when deflated
    (`operators.chebyshev_blocks`).

    `coeffs` is either one coefficient vector or a table of shape
    (N_max + 1, S), one column per scale, each zero past its own
    truncation; a table carries one tail bound per column.

    Every tail bound holds in the L^2(m) operator norm on the subspace
    the walk acts on: the interval holds the spectrum of P there, so X is
    self-adjoint on L^2(m) with spectrum in [-1, 1], ||phi(X) - p_N(X)||
    is the largest |phi - p_N| on that spectrum, and a Chebyshev bound
    holds on all of [-1, 1]."""

    graph: WeightedGraph
    coeffs: np.ndarray = field(repr=False)
    tail_bound: object              # float, or an (S,) array for a table
    interval: tuple = (-1.0, 1.0)   # (lo, hi), mapped onto [-1, 1]
    deflated: bool = False          # the walk acts on mean-zero functions

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def apply(self, f):
        """Evaluate on a vector or a stacked batch (n, k); a table takes
        a vector and returns an (n, S) block.  The terms are summed by
        GEMM on each chunk of the walk's buffer, a single column standing
        in as a one-column table, so a one-column batch is summed as its
        vector."""
        f = np.asarray(f, dtype=float)
        table = self.coeffs.ndim == 2
        if table and f.ndim != 1:
            raise ValueError("a coefficient table applies to a single vector")
        C = self.coeffs.reshape(len(self.coeffs), -1)
        acc = 0.0
        for lo, block in chebyshev_blocks(self.graph, f, self.truncation, self.interval,
                                          self.deflated):
            acc += block.reshape(len(block), -1).T @ C[lo:lo + len(block)]
        return acc.reshape(f.shape + C.shape[1:] if table else f.shape)


def series_table(g: WeightedGraph, columns) -> SeriesOperator:
    """One table from (coefficients, tail bound, *rest) columns, one per
    scale, zero-padded to the longest; rest, the SeriesOperator arguments
    after the tail bound (a column's interval), must be the same in every
    column.  No columns give an operator of no scales."""
    rest = columns[0][2:] if columns else ()
    if any(c[2:] != rest for c in columns):
        raise ValueError("the columns of a table need one interval")
    C = np.zeros((max((len(c[0]) for c in columns), default=1), len(columns)))
    for j, c in enumerate(columns):
        C[:len(c[0]), j] = c[0]
    return SeriesOperator(g, C, np.array([c[1] for c in columns]), *rest)


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


def _require_aperiodic(lambda_star: float) -> float:
    """lambda_star, or PeriodicWalk within SPECTRAL_ONE_TOL of 1."""
    if 1.0 - lambda_star <= SPECTRAL_ONE_TOL:
        raise PeriodicWalk(
            f"lambda_star = {lambda_star!r}: the walk is periodic, so no "
            "series in P converges on mean-zero functions"
        )
    return lambda_star


# -- one description per operator -------------------------------------------

class Symbol:
    """An operator phi_s(P) of the calculus: op(lam, s) is phi_s on the
    spectrum of P, which the oracle applies, and `column` interpolates
    that same function on an interval holding the spectrum.  With
    lam = mid + half x mapping [-1, 1] onto the interval, phi_s is
    analytic off x = pole(s, mid, half) > 1, and sup(s, mid, half, x)
    bounds |phi_s(mid + half z)| on the Bernstein ellipse E_rho whose
    right vertex is x (`chebyshev_series`).  A deflated op is walked on
    mean-zero functions, on the interval `_deflated` gives."""

    deflated = False

    def column(self, s, tol: float, interval):
        """(coeffs, tail bound, interval, deflated), the arguments of a
        SeriesOperator after the graph: the Chebyshev interpolant of
        op(., s) on interval, within tol."""
        lo, hi = interval
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        return (*chebyshev_series(lambda x: self(mid + half * x, s),
                                  lambda x: self.sup(s, mid, half, x),
                                  self.pole(s, mid, half), tol), interval, self.deflated)


@dataclass(frozen=True)
class DeltaPower(Symbol):
    """Delta^beta, any real beta: max(1 - lam, 0)^beta, and 0 at the
    constants (lam = 1) when beta < 0, as the deflated walk has it.  An
    integer beta >= 0 is the polynomial itself in T_k(P), exact, on
    X = P.  Otherwise the walk is deflated, on [max(lo, -r), r] with
    r = max(lambda_star, MIN_RADIUS) from `spectrum`; r > lo holds by
    the ulps `spectral_interval` widens lo by, as the oracle's
    lambda_star may lie a rounding below the eigenvalue it reads.  There
    (1 - mid - half x)^beta is analytic off x = (1 - mid)/half, and on
    E_rho its modulus is at most (1 - mid - half x_rho)^beta for
    beta < 0 and (1 - mid + half x_rho)^beta for beta > 0."""

    beta: float

    @property
    def deflated(self):
        return not (self.beta >= 0 and float(self.beta).is_integer())

    def __call__(self, lam, s):
        d = np.maximum(1.0 - lam, 0.0)
        return (d if self.beta >= 0 else np.where(d > 0.0, d, np.inf)) ** self.beta

    def pole(self, s, mid, half):
        return (1.0 - mid) / half

    def sup(self, s, mid, half, x):
        return (1.0 - mid + math.copysign(half, self.beta) * x) ** self.beta

    def column(self, s, tol: float, interval):
        if self.deflated:
            return super().column(s, tol, interval)
        poly = binomial_coefficients(self.beta, int(self.beta) + 1)
        return np.polynomial.chebyshev.poly2cheb(poly), 0.0, (-1.0, 1.0), False


@dataclass(frozen=True)
class Resolvent(Symbol):
    """(I + s Delta)^{-power}, any real power, analytic off
    x = (1 + 1/s - mid)/half.  On E_rho its modulus is at most its value
    at x_rho, the point of E_rho nearest the singularity, for power > 0,
    and at most (1 + s + s (|mid| + half x_rho))^{-power}, with
    |x| <= x_rho there, for power < 0."""

    power: float

    def __call__(self, lam, s):
        return (1.0 + s * (1.0 - lam)) ** (-self.power)

    def pole(self, s, mid, half):
        return (1.0 + 1.0 / s - mid) / half

    def sup(self, s, mid, half, x):
        if self.power > 0:
            return self(mid + half * x, s)
        return (1.0 + s + s * (abs(mid) + half * x)) ** (-self.power)


@dataclass(frozen=True)
class Bz2(Symbol):
    """[I - (I + s Delta)^{-1}]^M - I = sum_{j>=1} C(M, j) (-R)^j:
    without the identity part, so it is as accurate as R.  Its pole is
    the resolvent's, and with |R| <= R(x_rho) on E_rho its modulus there
    is at most (1 + R(x_rho))^M - 1."""

    M: int

    def __call__(self, lam, s):
        r = Resolvent(1.0)(lam, s)
        return sum(math.comb(self.M, j) * (-r) ** j for j in range(1, self.M + 1))

    pole = Resolvent.pole

    def sup(self, s, mid, half, x):
        return (1.0 + Resolvent(1.0)(mid + half * x, s)) ** self.M - 1.0


def _deflated(g: WeightedGraph, interval):
    """[max(lo, -r), r] with r = max(lambda_star, MIN_RADIUS) from
    `spectrum`: the interval of a deflated walk, which holds the
    spectrum of P on mean-zero functions, inside (lo, hi) = interval."""
    r = max(spectrum(g).lambda_star, MIN_RADIUS)
    return max(interval[0], -r), r


def _check_scales(s):
    """ValueError unless the scale s, or each scale of a sequence, is
    finite and > 0, where the pole 1 + 1/s of (I + s Delta)^{-1} lies
    beyond the spectrum and the columns' ellipse bounds hold; s None is
    an operator without a scale."""
    if s is not None and not np.all(np.isfinite(s) & (np.asarray(s, dtype=float) > 0.0)):
        raise ValueError(f"resolvent scales must be finite and > 0, not {s!r}")


# Chebyshev columns kept by `_column`; each is at most a few thousand
# coefficients, so the cache stays within a few MB.
COLUMN_CACHE = 256


@functools.lru_cache(maxsize=COLUMN_CACHE)
def _column(op: Symbol, s, tol: float, interval, cap: int):
    """op.column(s, tol, interval), memoized on its arguments and on the
    length cap SERIES_MAX_N (cap), which the build reads, its
    coefficient array made read-only: the columns repeat from call to
    call (the scales of a sweep, the interval of a graph), and a cached
    array is shared by every caller."""
    coeffs, *rest = op.column(s, tol, interval)
    coeffs.flags.writeable = False
    return (coeffs, *rest)


def series(g: WeightedGraph, op: Symbol, s, tol: float) -> SeriesOperator:
    """op on the series path, whatever n: its truncation and certified
    tail bound on `spectral_interval(g)`, or, for a deflated op, on the
    deflated walk's interval inside it.  A scalar s (None for an op
    without a scale) gives one column; a sequence of scales a
    `series_table`, one column per scale."""
    _check_scales(s)
    interval = spectral_interval(g)
    if op.deflated:
        interval = _deflated(g, interval)
    if np.ndim(s) > 0:
        return series_table(g, [_column(op, t, tol, interval, SERIES_MAX_N) for t in s])
    return SeriesOperator(g, *_column(op, s, tol, interval, SERIES_MAX_N))


# -- the one oracle/series choice --------------------------------------------

def phi_apply(g: WeightedGraph, f, op: Symbol, s, tol: float):
    """op(P) at the scale s applied to f: the oracle applies op(lam, s)
    when affordable, the series path `series(g, op, s, tol)`.

    A scalar s (None for an op without a scale) takes a vector or an
    (n, k) block.  A sequence of scales takes a vector and gives an
    (n, S) block, one column per scale: one oracle apply of the table
    op(lam[:, None], s), or one series table.  The scales are checked
    before the path is chosen.
    """
    _check_scales(s)
    if not has_oracle(g):
        return series(g, op, s, tol).apply(f)
    if np.ndim(s) > 0:
        s = np.asarray(s, dtype=float)
        return spectral(g).apply(lambda lam: op(lam[:, None], s), f)
    return spectral(g).apply(lambda lam: op(lam, s), f)


def delta_power_apply(g: WeightedGraph, f, beta: float):
    """Delta^beta f for any real beta, with automatic path choice, the
    series at tol 1e-10.  A negative beta is defined on mean-zero
    functions only, so f must have m-mean zero (KernelComponent
    otherwise)."""
    if beta < 0:
        require_mean_zero(g, f)
    return phi_apply(g, f, DeltaPower(beta), None, 1e-10)


def resolvent_apply(g: WeightedGraph, f, s, power=1.0, tol=1e-12):
    """(I + s Delta)^{-power} f with automatic path choice; a sequence of
    scales gives an (n, S) block, one column per scale, each finite > 0."""
    return phi_apply(g, f, Resolvent(power), s, tol)


# Tolerance of `bz2_apply` and of the resolvent families' evaluations,
# hence the absolute accuracy of their ratios (f has unit norm).
GAFFNEY_TOL = 1e-12


def bz2_apply(g: WeightedGraph, f, s, M: int):
    """[I - (I + s Delta)^{-1}]^M f, M >= 1 (BadTuple otherwise), its
    series at tol GAFFNEY_TOL; a sequence of scales gives an (n, S)
    block, one column per scale.  The identity part is added exactly, so
    where f vanishes the result is as accurate as R f."""
    if M < 1:
        raise BadTuple(f"M = {M} < 1")
    f = np.asarray(f, dtype=float)
    return (f[:, None] if np.ndim(s) else f) + phi_apply(g, f, Bz2(M), s, GAFFNEY_TOL)


def bz1_block(table: np.ndarray, tuples) -> np.ndarray:
    """(I - P^{s_1})...(I - P^{s_M}) f for each tuple (s_1, ..., s_M),
    one column each, by inclusion-exclusion over the stored powers
    table[:, k] = P^k f (`operators.heat_sweep`), which must reach
    k = s_1 + ... + s_M."""
    M = len(tuples[0])
    T = np.array(tuples, dtype=int).reshape(len(tuples), M)
    out = np.zeros((table.shape[0], len(tuples)))
    for bits in range(1 << M):
        chosen = [(bits >> i) & 1 for i in range(M)]
        sign = -1.0 if sum(chosen) % 2 else 1.0
        out += sign * table[:, T @ np.array(chosen, dtype=int)]
    return out


# -- the whole-graph tail of a profile -------------------------------------------

# Absolute tolerance of the tail's Lusin column, for a potential of unit norm.
TAIL_TOL = 1e-12
# Levels per pass of the direct sum in `_power_tail`.
TAIL_CHUNK = 1024


def _binomial_head(p, r, K: int, eta: int):
    """sum_{i<eta} C(K + eta, i) p^i r^{2(K + eta - i)}."""
    return sum(float(math.comb(K + eta, i)) * p ** i * r ** (2 * (K + eta - i))
               for i in range(eta))


def _reproducing_error(lam, K: int, eta: int):
    """E(lam) = (1 - lam^2)^eta sum_{j>K} C(j + eta - 1, eta - 1) lam^{2j}
    = 1 - (1 - z)^eta sum_{j<=K} c_{j+1} z^j, z = lam^2: what a
    reproducing sum stopped at level K misses (`tentspace.eta_coefficients`
    gives the c_l).  With p = 1 - z = (1 - lam)(1 + lam) (exact where z is
    near 1) it is the chance of fewer than eta successes of probability
    p in K + eta trials, the finite positive sum
    sum_{i<eta} C(K + eta, i) p^i z^{K+eta-i}: nothing cancels, it lies
    in [0, 1] for |lam| <= 1, and each z^k is taken as |lam|^{2k},
    rounded once."""
    return _binomial_head((1.0 - lam) * (1.0 + lam), np.abs(lam), K, eta)


def reproducing_l_max(g: WeightedGraph, eta: int, tol: float) -> int:
    """Horizon L with || sum_{k<=L} c_{k+1} (I-P^2)^eta P^{2k} f - f ||
    <= tol ||f|| on the mean-zero subspace; eta >= 1.

    At an eigenvalue lam of P the error is E(lam) of `_reproducing_error`,
    which grows with |lam| and shrinks as the sum goes on, so L is the
    least K with E(lambda_star) <= tol, lambda_star from the graph's
    record (`spectrum`): K doubles from 1 until it meets tol, and the last
    step is bisected, about 2 log2 L sums of eta terms.  A periodic walk
    (lambda_star = 1) raises PeriodicWalk before the search starts."""
    if eta < 1:
        raise ValueError("eta must be >= 1")
    lam = spectrum(g).lambda_star

    def met(K):
        return _reproducing_error(lam, K, eta) <= tol

    if met(0):
        return 0
    lo, hi = 0, 1
    while not met(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if met(mid) else (mid, hi)
    return hi


def _negative_binomial_tail(lam, K: int, eta: int):
    """sum_{j>K} C(j + eta - 1, eta - 1) lam^{2j} for |lam| < 1:
    E(lam) / (1 - lam^2)^eta (`_reproducing_error`)."""
    return _reproducing_error(lam, K, eta) / ((1.0 - lam) * (1.0 + lam)) ** eta


def _power_tail(lam, K: int, a: float):
    """sum_{l>K} (l+1)^a lam^{2l} for |lam| < 1: the negative binomial
    tail of eta = a + 1 for a = 0 and 1; otherwise summed directly,
    TAIL_CHUNK levels a pass, until what is left past the last term t is
    at most 2^-53 of the sum.  Past t the terms shrink by at most
    q = lam^2 (1 + 1/(l + 1))^max(a, 0) a level, so that rest is at most
    t q / (1 - q)."""
    if a in (0.0, 1.0):
        return _negative_binomial_tail(lam, K, int(a) + 1)
    r = np.abs(np.asarray(lam, dtype=float))
    with np.errstate(divide="ignore"):
        log_z = 2.0 * np.log(r)
    total = np.zeros(r.shape)
    lo = K + 1
    while True:
        ls = np.arange(lo, lo + TAIL_CHUNK, dtype=float)
        terms = np.exp(a * np.log(ls + 1.0) + np.multiply.outer(log_z, ls))
        total += terms.sum(axis=-1)
        q = r * r * (1.0 + 1.0 / (ls[-1] + 1.0)) ** max(a, 0.0)
        if np.all((q < 1.0) & (terms[..., -1] * q <= 2.0 ** -53 * (1.0 - q) * total)):
            return total
        lo += TAIL_CHUNK


def _power_tail_bound(R, K: int, a: float):
    """An upper bound of `_power_tail` at R, from (l+1)^a <= k! C(l + k, k)
    with k = max(ceil(a), 0): equal to it for a = 0 and 1."""
    k = max(math.ceil(a), 0)
    return math.factorial(k) * _negative_binomial_tail(R, K, k + 1)


@dataclass(frozen=True)
class LusinTail(Symbol):
    """chi(lam) = (1 - lam)^{2 order} sum_{l>K} (l+1)^a lam^{2l} on
    |lam| < 1, and 0 elsewhere: lam = 1 carries the constants, which a
    mean-zero potential lacks, and there the front has a pole for
    order < 0.  Its walk is deflated: |lam| <= R = |mid| + half x_rho on
    E_rho, below 1 left of the nearer pole, at x = (1 - |mid|)/half.  On
    |lam| <= R, |1 - lam|^{2 order} is at most (1 + R)^{2 order} for
    order >= 0 and (1 - R)^{2 order} below, and the sum, whose
    coefficients in lam^2 are nonnegative, is at most its value at R,
    which `_power_tail_bound` bounds.  At a = 2 beta - 1 it gives the
    Lusin mass of a profile's tail (`quadratic.ProfileTail.mass`)."""

    K: int
    a: float
    order: float
    deflated = True

    def __call__(self, lam, s):
        inside = np.abs(lam) < 1.0
        x = np.where(inside, lam, 0.0)
        return np.where(inside, (1.0 - x) ** (2.0 * self.order) * _power_tail(x, self.K, self.a),
                        0.0)

    def pole(self, s, mid, half):
        return (1.0 - abs(mid)) / half

    def sup(self, s, mid, half, x):
        R = abs(mid) + half * x
        return ((1.0 + R if self.order >= 0 else 1.0 - R) ** (2.0 * self.order)
                * _power_tail_bound(R, self.K, self.a))


@dataclass(frozen=True)
class SynthesisTail(Symbol):
    """phi(lam) = ((1 + s(1 - lam))/s)^q (1 - lam)^power E(lam) on
    |lam| < 1, and 0 elsewhere, E of `_reproducing_error`; deflated, on
    the disc as `LusinTail`.  On |lam| <= R, |1 - lam|^power is at most
    (1 + R)^power for power >= 0 and (1 - R)^power below,
    |1 + s(1 - lam)| <= 1 + s(1 + R), and |E| is at most its terms'
    moduli, `_binomial_head` at p = 1 + R^2.  It gives the share of a
    profile's tail in a molecule and its pre-image
    (`quadratic.ProfileTail.share`)."""

    K: int
    eta: int
    power: float
    q: float
    deflated = True

    def __call__(self, lam, s):
        inside = np.abs(lam) < 1.0
        x = np.where(inside, lam, 0.0)
        return np.where(inside, ((1.0 + s * (1.0 - x)) / s) ** self.q * (1.0 - x) ** self.power
                        * _reproducing_error(x, self.K, self.eta), 0.0)

    pole = LusinTail.pole

    def sup(self, s, mid, half, x):
        R = abs(mid) + half * x
        front = (1.0 + R) ** self.power if self.power >= 0 else (1.0 - R) ** self.power
        return (((1.0 + s * (1.0 + R)) / s) ** self.q * front
                * _binomial_head(1.0 + R * R, R, self.K, self.eta))


# -- Davies-Gaffney decay fits ----------------------------------------------

def _family_heat(g, f, s, M):
    return heat_sweep(g, f, s)


def _family_delta_heat(g, f, s, M):
    out = heat_sweep(g, f, s)
    for _ in range(M):
        delta_steps(g, out, 1)
        out *= np.asarray(s, dtype=float)
    return out


def _family_resolvent(g, f, s, M):
    return resolvent_apply(g, f, s, float(M), GAFFNEY_TOL)


def _family_resolvent_diff(g, f, s, M):
    return bz2_apply(g, f, s, M)


def _family_grad_heat(g, f, s, M):
    return gradient(g, heat_sweep(g, f, s)) * [math.sqrt(t) for t in s]


def _family_grad_resolvent(g, f, s, M):
    out = delta_steps(g, resolvent_apply(g, f, s, M + 0.5, GAFFNEY_TOL), M)
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
        return json.dumps(vars(self), default=vars)


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
    block.  A vertex of E or F outside [0, n) raises ValueError.
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

