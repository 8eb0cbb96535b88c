"""Chebyshev columns: every series is a Chebyshev interpolant on
[-1, 1] with a tail bound certified in the L^2(m) operator norm, in
T_k(P) for (I + s Delta)^{-power} and the bz2 columns, and in
T_k((P - Pi)/lambda_star) on mean-zero functions for a fractional
Delta^beta."""

import numpy as np
import pytest

from oracles import counting_markov, delta_power_exact, resolvent_exact, taylor_resolvent_degree

from graphhardy import calculus
from graphhardy.calculus import (
    BZ2Kind,
    SeriesOperator,
    a_s,
    chebyshev_series,
    delta_power_series,
    resolvent_apply,
    resolvent_frac_series,
)
from graphhardy.cli import _parse_s_range
from graphhardy.errors import NonConvergent
from graphhardy.operators import chebyshev, lp_norm, random_mean_zero
from graphhardy.zoo import binary_tree, lazy_cycle, lazy_torus_2d, random_weights

SCALES = (1, 3, 40, 512)
POWERS = (0.5, 1.0, 1.5, 2.0, 2.5)
TOL = 1e-12


@pytest.fixture(params=["cycle16", "torus8"])
def graph(request):
    return lazy_cycle(16) if request.param == "cycle16" else lazy_torus_2d(8)


def _unit(g, seed):
    f = random_mean_zero(g, np.random.default_rng(seed))
    return f / lp_norm(g, f, 2)


def test_resolvent_columns_within_their_tail(graph, monkeypatch):
    g = graph
    f = _unit(g, 10)
    exact = {(s, p): resolvent_exact(g, f, s, p) for s in SCALES for p in POWERS}
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    for (s, p), want in exact.items():
        op = resolvent_frac_series(g, s, p, TOL)
        assert op.radius is None
        assert op.tail_bound <= TOL
        err = lp_norm(g, resolvent_apply(g, f, s, p, TOL) - want, 2)
        assert err <= op.tail_bound * lp_norm(g, f, 2) + 1e-12, (s, p)


@pytest.mark.parametrize("M", [1, 2, 3])
def test_bz2_columns_within_their_tail(graph, M, monkeypatch):
    g = graph
    f = _unit(g, 11)
    want = a_s(g, f, BZ2Kind(SCALES, M))
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got = a_s(g, f, BZ2Kind(SCALES, M))
    for j, s in enumerate(SCALES):
        _, tail = calculus._bz2_column(s, M, TOL)
        assert tail <= TOL
        err = lp_norm(g, got[:, j] - want[:, j], 2)
        assert err <= tail * lp_norm(g, f, 2) + 1e-12, s


def test_one_column_block_is_its_vector(graph):
    # a block's terms are stacked per GEMM by the same rule as a vector's,
    # so on the undeflated walk a one-column block is its vector bit for bit
    f = _unit(graph, 14)
    for op in (resolvent_frac_series(graph, 40, 1.5, TOL),
               SeriesOperator(graph, *calculus._bz2_column(40, 2, TOL))):
        np.testing.assert_array_equal(op.apply(f[:, None])[:, 0], op.apply(f))


@pytest.mark.parametrize("power", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("s", [1, 7.5, 512])
def test_interpolant_within_its_bound_on_the_interval(s, power):
    # the certificate is a bound on all of [-1, 1], spectrum or not
    c, tail = calculus._resolvent_column(s, power, 1e-10)
    x = np.cos(np.linspace(0.0, np.pi, 4001))
    err = np.abs(np.polynomial.chebyshev.chebval(x, c)
                 - calculus._resolvent_symbol(x, s, power)).max()
    assert err <= tail <= 1e-10


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_chebyshev_degree_never_exceeds_taylor(tol):
    for s in range(1, 601):
        for power in (1.0, 1.5):
            N = len(calculus._resolvent_column(s, power, tol)[0]) - 1
            assert N <= taylor_resolvent_degree(s, power, tol), (s, power)
        # [I - R]^M was M composed Neumann steps at the full tolerance
        N = len(calculus._bz2_column(s, 2, tol)[0]) - 1
        assert N <= 2 * taylor_resolvent_degree(s, 1.0, tol), s


def test_column_length_cap(monkeypatch):
    g = lazy_cycle(16)
    f = random_mean_zero(g, np.random.default_rng(12))
    N = resolvent_frac_series(g, 40, 1.5, TOL).truncation
    bz2 = len(calculus._bz2_column(40, 2, TOL)[0]) - 1
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N)
    assert resolvent_frac_series(g, 40, 1.5, TOL).truncation == N
    monkeypatch.setattr(calculus, "SERIES_MAX_N", N - 1)
    with pytest.raises(NonConvergent):
        resolvent_frac_series(g, 40, 1.5, TOL)
    with pytest.raises(NonConvergent):
        resolvent_apply(g, f, [2, 40], 1.5, TOL)
    monkeypatch.setattr(calculus, "SERIES_MAX_N", bz2 - 1)
    with pytest.raises(NonConvergent):
        a_s(g, f, BZ2Kind((2, 40), 2))
    with pytest.raises(NonConvergent):
        chebyshev_series(np.exp, np.exp, 2.0, 0.0)


@pytest.mark.parametrize("power", [1.0, 1.5])
def test_gaffney_sweep_products(power, monkeypatch):
    # the CLI's 12 scales 40..512 at tol 1e-12: one walk to the largest
    # column degree (the Taylor columns made 14,161 products at power 1);
    # the degree depends on s and tol only, so a small graph shows it
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    W = counting_markov(g)
    scales = _parse_s_range("40..512")
    assert len(scales) == 12
    resolvent_apply(g, random_mean_zero(g, np.random.default_rng(13)), scales, power, TOL)
    assert W.products == resolvent_frac_series(g, 512, power, TOL).truncation <= 650


DELTA_BETAS = (-2.5, -1.5, -0.5, 0.5, 1.5, 9.5)


@pytest.mark.parametrize("beta", DELTA_BETAS)
@pytest.mark.parametrize("lam", [0.5, 0.9, 0.99])
def test_delta_power_column_within_its_bound_on_the_interval(beta, lam):
    # Delta^beta = (1 - lam x)^beta for x in [-1, 1], the spectrum of
    # (P - Pi)/lam on mean-zero functions: the certificate bounds the
    # interpolant's error on all of it, up to the rounding of values as
    # large as max|phi| (1e5 at lam = 0.99, beta = -2.5, where 1 - lam x
    # alone is rounded to 100 eps relative)
    g = lazy_cycle(16)
    c, tail, radius = calculus._delta_power_column(g, beta, 1e-10, lam)
    assert radius == lam
    x = np.linspace(-1.0, 1.0, 20001)
    err = np.abs(np.polynomial.chebyshev.chebval(x, c) - (1.0 - lam * x) ** beta).max()
    size = max((1.0 - lam) ** beta, (1.0 + lam) ** beta)
    assert tail <= 1e-10
    assert err <= tail + len(c) * np.finfo(float).eps * size


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
    lam = calculus.spectral(g).lambda_star
    exact = {beta: delta_power_exact(g, f, beta) for beta in DELTA_BETAS}
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    for beta, want in exact.items():
        op = delta_power_series(g, beta, 1e-10, lam)
        r = op.radius
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
        op = delta_power_series(g, beta, 1e-10)
        assert op.radius is not None
        assert np.array_equal(op.apply(f), op.apply(f[:, None])[:, 0]), beta
        terms = zip(chebyshev(g, f, 20, op.radius), chebyshev(g, f[:, None], 20, op.radius))
        assert all(np.array_equal(u, v[:, 0]) for u, v in terms)


def test_chebyshev_terms(cycle16):
    # T_k(P) f from the three-term recurrence, on vectors and blocks, and
    # T_k((P - Pi)/lam) f with the constants sent to 0 by the deflated walk
    g = cycle16
    lam = calculus.spectral(g).lambda_star
    F = np.random.default_rng(14).standard_normal((g.n, 2))
    assert list(chebyshev(g, F[:, 0], -1)) == []
    assert list(chebyshev(g, F[:, 0], -1, lam)) == []
    for radius in (None, lam):
        for f in (F[:, 0], F):
            terms = list(chebyshev(g, f, 9, radius))
            assert len(terms) == 10
            for k, t in enumerate(terms):
                def symbol(z, k=k):
                    if radius is None:
                        return np.polynomial.chebyshev.chebval(z, np.eye(10)[k])
                    x = np.polynomial.chebyshev.chebval(z / radius, np.eye(10)[k])
                    return np.where(z == 1.0, 0.0, x)
                want = calculus.spectral(g).apply(symbol, f)
                np.testing.assert_allclose(t, want, rtol=0, atol=1e-12)
    # exactly N sparse products
    g = lazy_cycle(16)
    W = counting_markov(g)
    for radius in (None, lam):
        W.products = 0
        assert len(list(chebyshev(g, F, 9, radius))) == 10
        assert W.products == 9
