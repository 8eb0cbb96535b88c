"""Chebyshev columns: every series is a Chebyshev interpolant on an
interval [lo, hi] that holds the spectrum, mapped onto [-1, 1], with a
tail bound certified in the L^2(m) operator norm: the certified interval
`spectral_interval(g)` of P for (I + s Delta)^{-power} and the bz2
columns, [max(lo, -r), r] with r = max(lambda_star, 1/2) on mean-zero
functions for a fractional Delta^beta."""

import numpy as np
import pytest

from oracles import (chebyshev_terms, counting_markov, delta_power_exact, fourier_apply,
                     resolvent_exact, taylor_resolvent_degree)

from graphhardy import calculus, zoo
from graphhardy.calculus import (
    Bz2,
    DeltaPower,
    Resolvent,
    bz2_apply,
    chebyshev_series,
    phi_apply,
    resolvent_apply,
    series,
)
from graphhardy.cli import _parse_s_range
from graphhardy.errors import NonConvergent
from graphhardy.operators import chebyshev_blocks, lp_norm, random_mean_zero, spectral_interval
from graphhardy.zoo import binary_tree, lazy_cycle, lazy_path, lazy_torus_2d, random_weights

SCALES = (1, 3, 40, 512)
POWERS = (-1.5, -0.5, 0.5, 1.0, 1.5, 2.0, 2.5)
TOL = 1e-12
EPS = np.finfo(float).eps


@pytest.fixture(params=["cycle16", "torus8"])
def graph(request):
    return lazy_cycle(16) if request.param == "cycle16" else lazy_torus_2d(8)


def _unit(g, seed):
    f = random_mean_zero(g, np.random.default_rng(seed))
    return f / lp_norm(g, f, 2)


def test_resolvent_columns_within_their_tail(graph, monkeypatch):
    # a negative power also up to the rounding N eps max|phi| of a sum
    # whose symbol reaches (1 + s(1 - lo))^{-p} on the certified interval
    g = graph
    f = _unit(g, 10)
    exact = {(s, p): resolvent_exact(g, f, s, p) for s in SCALES for p in POWERS}
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    lo, hi = spectral_interval(g)
    for (s, p), want in exact.items():
        op = series(g, Resolvent(p), s, TOL)
        assert op.interval == (lo, hi) and not op.deflated
        assert op.tail_bound <= TOL
        size = (1.0 + s * (1.0 - lo)) ** -p if p < 0 else 0.0
        err = lp_norm(g, resolvent_apply(g, f, s, p, TOL) - want, 2)
        assert err <= op.tail_bound * lp_norm(g, f, 2) + op.truncation * EPS * size + 1e-12, (s, p)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_bz2_columns_within_their_tail(graph, M, monkeypatch):
    g = graph
    f = _unit(g, 11)
    want = bz2_apply(g, f, SCALES, M)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got = bz2_apply(g, f, SCALES, M)
    for j, s in enumerate(SCALES):
        tail = series(g, Bz2(M), s, TOL).tail_bound
        assert tail <= TOL
        err = lp_norm(g, got[:, j] - want[:, j], 2)
        assert err <= tail * lp_norm(g, f, 2) + 1e-12, s


def test_one_column_block_is_its_vector(graph):
    # a one-column block is walked by the kernel's one-column form, as a
    # vector is, and its chunks are summed by the same GEMM, so on the
    # undeflated walk a one-column block is its vector bit for bit
    f = _unit(graph, 14)
    for op in (series(graph, Resolvent(1.5), 40, TOL),
               series(graph, Bz2(2), 40, TOL)):
        np.testing.assert_array_equal(op.apply(f[:, None])[:, 0], op.apply(f))


# intervals holding the spectrum: all of [-1, 1], a lazy graph's and a
# binary tree's certified ones
INTERVALS = ((-1.0, 1.0), spectral_interval(lazy_cycle(16)), spectral_interval(binary_tree(3)))


@pytest.mark.parametrize("power", [-1.5, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("s", [1, 7.5, 512])
def test_interpolant_within_its_bound_on_the_interval(s, power):
    # the certificate is a bound on all of the interval, spectrum or not;
    # a negative power up to the rounding of values as large as max|phi|
    x = np.cos(np.linspace(0.0, np.pi, 4001))
    for lo, hi in INTERVALS:
        c, tail, interval, _ = Resolvent(power).column(s, 1e-10, (lo, hi))
        assert interval == (lo, hi)
        lam = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        phi = Resolvent(power)(lam, s)
        err = np.abs(np.polynomial.chebyshev.chebval(x, c) - phi).max()
        assert tail <= 1e-10
        rounding = len(c) * EPS * np.abs(phi).max() if power < 0 else 0.0
        assert err <= tail + rounding, (lo, hi)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_chebyshev_degree_never_exceeds_taylor(tol):
    for s in range(1, 601):
        for power in (1.0, 1.5):
            N = len(Resolvent(power).column(s, tol, (-1.0, 1.0))[0]) - 1
            assert N <= taylor_resolvent_degree(s, power, tol), (s, power)
        # [I - R]^M was M composed Neumann steps at the full tolerance
        N = len(Bz2(2).column(s, tol, (-1.0, 1.0))[0]) - 1
        assert N <= 2 * taylor_resolvent_degree(s, 1.0, tol), s


def test_column_length_cap(monkeypatch):
    g = lazy_cycle(16)
    f = random_mean_zero(g, np.random.default_rng(12))
    N = series(g, Resolvent(1.5), 40, TOL).truncation
    bz2 = series(g, Bz2(2), 40, TOL).truncation
    assert (N, bz2) == (113, 117)  # (160, 167) on [-1, 1]
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N)
    assert series(g, Resolvent(1.5), 40, TOL).truncation == N
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N - 1)
    with pytest.raises(NonConvergent):
        series(g, Resolvent(1.5), 40, TOL)
    with pytest.raises(NonConvergent):
        resolvent_apply(g, f, [2, 40], 1.5, TOL)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", bz2 - 1)
    with pytest.raises(NonConvergent):
        bz2_apply(g, f, (2, 40), 2)
    with pytest.raises(NonConvergent):
        chebyshev_series(np.exp, np.exp, 2.0, 0.0)


@pytest.mark.parametrize("power", [1.0, 1.5])
def test_gaffney_sweep_products(power, monkeypatch):
    # the CLI's 12 scales 40..512 at tol 1e-12: one walk to the largest
    # column degree (the Taylor columns made 14,161 products at power 1,
    # the columns on [-1, 1] 572 and 594); the degree depends on s, tol
    # and the interval only, and every lazy graph has [0, 1], so a small
    # one shows it
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    W = counting_markov(g)
    scales = _parse_s_range("40..512")
    assert len(scales) == 12
    resolvent_apply(g, random_mean_zero(g, np.random.default_rng(13)), scales, power, TOL)
    assert W.products == series(g, Resolvent(power), 512, TOL).truncation
    assert W.products == {1.0: 400, 1.5: 416}[power]


# every symbol with a scale and an interval its column may be built on:
# the resolvent families on intervals holding the spectrum of P, the
# deflated ones inside (-1, 1)
CERTIFIED = [
    (Resolvent(1.5), 40, (-1.0, 1.0)),
    (Resolvent(0.5), 1, INTERVALS[1]),
    (Resolvent(-1.5), 7.5, INTERVALS[2]),
    (Bz2(1), 1, INTERVALS[1]),
    (Bz2(3), 512, (-1.0, 1.0)),
    (DeltaPower(0.5), None, (0.0, 0.9)),
    (DeltaPower(-2.5), None, (-0.5, 0.99)),
    (DeltaPower(1.5), None, (-0.9, 0.9)),
    (calculus.LusinTail(3, 1.0, -0.5), None, (0.0, 0.9)),
    (calculus.LusinTail(1, -2.0, 1.0), None, (-0.5, 0.99)),
    (calculus.SynthesisTail(3, 4, -2.0, 2.5), 49.0, (0.0, 0.9)),
    (calculus.SynthesisTail(2, 1, 0.5, 0.0), 1.0, (-0.9, 0.9)),
]


@pytest.mark.parametrize("op,s,interval", CERTIFIED, ids=repr)
def test_each_symbol_bounds_itself_on_its_ellipses(op, s, interval):
    # the certificate of every column: on each Bernstein ellipse E_rho left
    # of the pole, sup(s, mid, half, x_rho) bounds |op(mid + half z, s)|,
    # at complex z on E_rho for the resolvent families and on the real
    # segment [-x_rho, x_rho] for Delta^beta and the tails, whose values
    # are read on the real line
    lo, hi = interval
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    pole = op.pole(s, mid, half)
    assert pole > 1.0
    top = pole + np.sqrt((pole - 1.0) * (pole + 1.0))
    theta = np.linspace(0.0, np.pi, 201)
    for rho in 1.0 + (top - 1.0) * np.array([0.01, 0.3, 0.7, 0.99]):
        x = 0.5 * (rho + 1.0 / rho)
        if isinstance(op, (Resolvent, Bz2)):
            z = 0.5 * (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho)
        else:
            z = np.linspace(-x, x, 201)
        vals = np.abs(op(mid + half * z, s))
        assert np.all(np.isfinite(vals))
        assert vals.max() <= op.sup(s, mid, half, x) * (1.0 + 1e-12), rho


@pytest.mark.parametrize("op,s", [
    (Resolvent(1.5), 40), (Resolvent(-0.5), 4), (Bz2(2), 9),
    (calculus.SynthesisTail(3, 4, -1.0, 1.0), 49.0), (DeltaPower(0.5), None),
    (DeltaPower(-1.5), None), (DeltaPower(2.0), None), (calculus.LusinTail(3, 1.0, -0.5), None),
], ids=repr)
def test_the_series_path_runs_the_inspected_series(op, s, monkeypatch):
    # on the series path phi_apply runs `series(g, op, s, tol)`, the
    # object whose truncation, tail bound and interval the tests read,
    # bit for bit; a symbol with a scale (s not None) also as a sweep
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    f = _unit(g, 17)
    sweeps = [s] + ([(1.0, s, 2.5)] if s is not None else [])
    for scales in sweeps:
        want = series(g, op, scales, 1e-10).apply(f)
        assert np.array_equal(calculus.phi_apply(g, f, op, scales, 1e-10), want), scales


DELTA_BETAS = (-2.5, -1.5, -0.5, 0.5, 1.5, 9.5)


@pytest.mark.parametrize("beta", DELTA_BETAS)
@pytest.mark.parametrize("lam", [0.5, 0.9, 0.99])
def test_delta_power_column_within_its_bound_on_the_interval(beta, lam, monkeypatch):
    # Delta^beta = (1 - lam x)^beta for x in [-1, 1], the spectrum of
    # (P - Pi)/lam on mean-zero functions: the certificate bounds the
    # interpolant's error on all of it, up to the rounding of values as
    # large as max|phi| (1e5 at lam = 0.99, beta = -2.5, where 1 - lam x
    # alone is rounded to 100 eps relative)
    # (1 - lam x)^beta is Delta^beta on [-lam, lam]; on the lazy lower
    # end, the interval [lo, lam] is mapped onto [-1, 1] first; the
    # graph's record is replaced by one of radius lam
    g = lazy_cycle(16)
    monkeypatch.setattr(calculus, "spectrum",
                        lambda g: calculus.Spectrum(spectral_interval(g)[0], lam, 0.0, "oracle"))
    x = np.linspace(-1.0, 1.0, 20001)
    size = max((1.0 - lam) ** beta, (1.0 + lam) ** beta)
    for lo in (-1.0, spectral_interval(g)[0]):
        c, tail, interval, deflated = DeltaPower(beta).column(
            None, 1e-10, calculus._deflated(g, (lo, 1.0)))
        assert interval == (max(lo, -lam), lam) and deflated
        mid, half = 0.5 * (interval[1] + interval[0]), 0.5 * (interval[1] - interval[0])
        err = np.abs(np.polynomial.chebyshev.chebval(x, c) - (1.0 - mid - half * x) ** beta).max()
        assert tail <= 1e-10
        assert err <= tail + len(c) * EPS * size


@pytest.mark.parametrize("name", ["cycle16", "torus8", "tree4", "jittered"])
def test_delta_power_column_on_graphs(name, monkeypatch):
    # the deflated walk gives Delta^beta within the tail plus a rounding
    # allowance of N eps max|phi|, with max|phi| the symbol's largest
    # value on [-lambda_star, lambda_star]; for beta > 0 it also sends a
    # constant part of the input to 0, as Delta^beta does
    g = {"cycle16": lambda: lazy_cycle(16), "torus8": lambda: lazy_torus_2d(8),
         "tree4": lambda: binary_tree(4),
         "jittered": lambda: random_weights(lazy_cycle(16), 3)}[name]()
    f = _unit(g, 15)
    exact = {beta: delta_power_exact(g, f, beta) for beta in DELTA_BETAS}
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    for beta, want in exact.items():
        op = series(g, DeltaPower(beta), None, 1e-10)
        r = op.interval[1]
        size = max((1.0 - r) ** beta, (1.0 + r) ** beta)
        allow = op.tail_bound + op.truncation * np.finfo(float).eps * size
        for shift in (0.0, 1.0) if beta > 0 else (0.0,):
            assert lp_norm(g, op.apply(f + shift) - want, 2) <= allow, (beta, shift)


@pytest.mark.parametrize("name", ["cycle64", "torus8", "torus16"])
def test_deflated_vector_is_its_one_column_block(name):
    # a deflated walk takes the means of a vector as those of its
    # one-column block, so Delta^{+-1/2} of both agree bit for bit
    g = {"cycle64": lambda: lazy_cycle(64), "torus8": lambda: lazy_torus_2d(8),
         "torus16": lambda: lazy_torus_2d(16)}[name]()
    f = _unit(g, 16)
    for beta in (0.5, -0.5):
        op = series(g, DeltaPower(beta), None, 1e-10)
        assert op.deflated
        assert np.array_equal(op.apply(f), op.apply(f[:, None])[:, 0]), beta
        terms = zip(_terms(g, f, 20, op.interval, True),
                    _terms(g, f[:, None], 20, op.interval, True))
        assert all(np.array_equal(u, v[:, 0]) for u, v in terms)


def _terms(g, f, N, interval=(-1.0, 1.0), deflate=False):
    return [t.copy() for _, block in chebyshev_blocks(g, f, N, interval, deflate) for t in block]


def test_chebyshev_terms(cycle16):
    # T_k(X) f from the chained recurrence, on vectors and blocks, for X
    # = P, for X mapping the certified interval onto [-1, 1], and on
    # [lo, lam] with the constants sent to 0 by the deflated walk
    g = cycle16
    lam = calculus.spectrum(g).lambda_star
    lo, hi = spectral_interval(g)
    F = np.random.default_rng(14).standard_normal((g.n, 2))
    walks = (((-1.0, 1.0), False), ((lo, hi), False), ((lo, lam), True))
    for interval, deflate in walks:
        assert _terms(g, F[:, 0], -1, interval, deflate) == []
        for f in (F[:, 0], F):
            terms = _terms(g, f, 9, interval, deflate)
            assert len(terms) == 10
            for k, t in enumerate(terms):
                def symbol(z, k=k):
                    x = (2.0 * z - interval[0] - interval[1]) / (interval[1] - interval[0])
                    x = np.polynomial.chebyshev.chebval(x, np.eye(10)[k])
                    return np.where(z == 1.0, 0.0, x) if deflate else x
                want = calculus.spectral(g).apply(symbol, f)
                np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)
            ref = list(chebyshev_terms(g, f, 9, interval, deflate))
            for t, r in zip(terms, ref):
                np.testing.assert_allclose(t, r, rtol=0, atol=1e-14)
    # exactly N sparse products
    g = lazy_cycle(16)
    W = counting_markov(g)
    for interval, deflate in walks:
        W.products = 0
        assert len(_terms(g, F, 9, interval, deflate)) == 10
        assert W.products == 9


@pytest.mark.parametrize("name", ["cycle16", "cycle9", "path9", "torus8", "k2l", "loose_cycle",
                                  "jittered", "jittered_torus", "tree3", "tree4"])
def test_spectral_interval_holds_the_spectrum(name):
    # Gershgorin under (LB): every oracle eigenvalue lies in [lo, hi]; a
    # lazy graph's interval is [0, 1] widened by a few ulps, with
    # lo + hi = 1 exactly, and a binary tree's lower end is 2/4 - 1
    g = {"cycle16": lambda: lazy_cycle(16), "cycle9": lambda: lazy_cycle(9),
         "path9": lambda: zoo.lazy_path(9), "torus8": lambda: lazy_torus_2d(8),
         "k2l": zoo.k2l, "loose_cycle": lambda: lazy_cycle(16, loop_weight=0.3),
         "jittered": lambda: random_weights(lazy_cycle(16), 3),
         "jittered_torus": lambda: random_weights(lazy_torus_2d(8), 5),
         "tree3": lambda: binary_tree(3), "tree4": lambda: binary_tree(4)}[name]()
    lo, hi = spectral_interval(g)
    eigs = calculus.spectral(g).eigenvalues
    assert lo <= eigs.min() and eigs.max() <= hi
    assert -1.0 - 1e-14 < lo < hi < 1.0 + 1e-14
    if name in ("cycle16", "cycle9", "path9", "torus8", "k2l"):
        assert lo + hi == 1.0 and -1e-14 < lo < 0.0
    if name.startswith("tree"):
        assert lo == pytest.approx(-0.5, abs=1e-14)


def test_columns_are_memoized_read_only_and_bit_identical():
    # a column is built once per argument tuple and shared, read-only; it
    # is the uncached build bit for bit, so every result is unchanged
    interval = spectral_interval(lazy_torus_2d(8))
    builds = (
        (Resolvent(1.5), 40, TOL, interval),
        (Bz2(2), 512, TOL, interval),
        (DeltaPower(-0.5), None, 1e-10, (0.0, 0.9)),
        (DeltaPower(2.0), None, 1e-10, interval),
    )
    for op, *args in builds:
        first = calculus._column(op, *args, calculus.SERIES_MAX_N)
        assert calculus._column(op, *args, calculus.SERIES_MAX_N) is first
        assert not first[0].flags.writeable
        with pytest.raises(ValueError):
            first[0][0] = 0.0
        fresh = op.column(*args)
        assert first[0].tobytes() == fresh[0].tobytes() and first[1:] == fresh[1:]


def test_memoized_columns_keep_the_length_cap(monkeypatch):
    # the cap is part of the memo's key: a column built under a larger
    # cap is not handed out under a smaller one
    args = (Resolvent(1.5), 40, TOL, (-1.0, 1.0))
    N = len(calculus._column(*args, calculus.SERIES_MAX_N)[0]) - 1
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N - 1)
    with pytest.raises(NonConvergent):
        calculus._column(*args, calculus.SERIES_MAX_N)


# graphs above the oracle cap whose P the FFT diagonalizes exactly
# (`oracles.fourier_apply`), each built once
FOURIER_GRAPHS = {"cycle_512": lambda: lazy_cycle(512), "torus_20": lambda: lazy_torus_2d(20),
                  "path_300": lambda: lazy_path(300)}
FOURIER_SYMBOLS = [(DeltaPower(0.5), None), (DeltaPower(-0.5), None), (DeltaPower(-1.0), None),
                   (Resolvent(1.0), 16.0), (Resolvent(1.5), 1e4), (Resolvent(2.5), 100.0),
                   (Resolvent(2.5), 1e4), (Bz2(1), 64.0), (Bz2(2), 1e4)]

# the deflated Delta^{-1} on the slowly mixing cycle and path lands 13
# and 22 times its tail bound away: its coefficients sum to about 3e4 and
# their rounding, which the bound leaves out, is what shows (the FOUND
# line on `DeltaPower` at beta = -1 in CHANGES.md)
MISSES_ITS_TAIL = {("cycle_512", DeltaPower(-1.0)), ("path_300", DeltaPower(-1.0))}
FOURIER_CASES = [
    pytest.param(name, op, s, id=f"{name}-{op}-{s}",
                 marks=[pytest.mark.xfail(strict=True, reason="rounding of large coefficients")]
                 if (name, op) in MISSES_ITS_TAIL else [])
    for name in FOURIER_GRAPHS for op, s in FOURIER_SYMBOLS
]


@pytest.fixture(scope="module")
def fourier_graphs():
    return {name: build() for name, build in FOURIER_GRAPHS.items()}


@pytest.mark.parametrize("name,op,s", FOURIER_CASES)
def test_series_within_its_tail_of_the_fourier_referee(fourier_graphs, name, op, s):
    # above the cap `phi_apply` takes the series path at the default
    # ORACLE_MAX_N; on the abelian zoo families its result lands within
    # its certified tail bound of the exact Fourier apply, plus a few
    # ulps of ||f||
    g = fourier_graphs[name]
    assert g.n > calculus.ORACLE_MAX_N
    f = random_mean_zero(g, np.random.default_rng(31))
    tol = 1e-10
    got = phi_apply(g, f, op, s, tol)
    want = fourier_apply(g, f, op, s)
    ser = series(g, op, s, tol)
    norm = lp_norm(g, f, 2)
    assert lp_norm(g, got - want, 2) <= (ser.tail_bound + 8 * EPS) * norm
