"""Scale sweeps: one block, one column per scale, equal to the per-scale
calls on both evaluation paths, from one walk of the power sequence."""

import numpy as np
import pytest

from oracles import bmo_norm_per_s, counting_markov, family_per_s

from graphhardy import calculus, graphs, hardy
from graphhardy.calculus import (
    FAMILIES,
    Bz2,
    Resolvent,
    bz2_apply,
    resolvent_apply,
    series,
)
from graphhardy.hardy import bmo_norm
from graphhardy.operators import heat_sweep, random_mean_zero, spectral_interval
from graphhardy.zoo import lazy_cycle, lazy_torus_2d

S_VALUES = [1, 2, 5, 9, 16]
GRADIENT_FAMILIES = ("grad_heat", "grad_resolvent")


def _ratios(g, U, E):
    return np.sqrt((U[E] ** 2 * g.m[E, None]).sum(axis=0))


def _assert_close(U, loop):
    # The loops' f - R f leaves an absolute error of a few eps ||f|| on
    # small entries, so the entrywise rtol gets an atol on that scale.
    np.testing.assert_allclose(U, loop, rtol=1e-12, atol=1e-12 * np.abs(loop).max())


@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_sweep_equals_loop(path, family, M, torus8):
    g = torus8
    f = random_mean_zero(g, np.random.default_rng(7))
    U = FAMILIES[family][0](g, f, S_VALUES, M)
    loop = np.column_stack([family_per_s(g, family, f, s, M) for s in S_VALUES])
    assert U.shape == (g.n, len(S_VALUES))
    if family in GRADIENT_FAMILIES:
        # gradient() cancels; compare what gaffney_fit reads from the block
        ind = np.zeros(g.n)
        ind[0] = 1.0
        E = [4 * 8 + 4, 4 * 8 + 5]
        U = FAMILIES[family][0](g, ind, S_VALUES, M)
        loop = np.column_stack([family_per_s(g, family, ind, s, M) for s in S_VALUES])
        np.testing.assert_allclose(_ratios(g, U, E), _ratios(g, loop, E),
                                   rtol=1e-12, atol=1e-14)
    else:
        _assert_close(U, loop)


@pytest.mark.parametrize("power", [1.0, 2.0, 1.5, 0.5])
def test_resolvent_sweep_equals_loop(path, power, cycle16):
    f = random_mean_zero(cycle16, np.random.default_rng(3))
    U = resolvent_apply(cycle16, f, S_VALUES, power)
    for j, s in enumerate(S_VALUES):
        _assert_close(U[:, j], resolvent_apply(cycle16, f, s, power))


@pytest.mark.parametrize("M", [1, 2, 3])
def test_bz2_sweep_equals_loop(path, M, cycle16):
    f = random_mean_zero(cycle16, np.random.default_rng(4))
    U = bz2_apply(cycle16, f, tuple(S_VALUES), M)
    for j, s in enumerate(S_VALUES):
        _assert_close(U[:, j], bz2_apply(cycle16, f, s, M))


@pytest.mark.parametrize("kind,M,s_max,policy", [
    ("bz1", 1, 16, "auto"),
    ("bz1", 2, 16, "auto"),
    ("bz2", 1, 16, "auto"),
    ("bz2", 2, 16, "auto"),
    ("bz1", 2, 12, "sampled"),
])
def test_bmo_norm_equals_per_s_reference(path, kind, M, s_max, policy, cycle32,
                                         monkeypatch):
    # a zero cap makes every bz1 enumeration the sampled one
    cap = 0 if policy == "sampled" else hardy.TUPLE_EXHAUSTIVE_CAP
    monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", cap)
    f = random_mean_zero(cycle32, np.random.default_rng(5))
    rep = bmo_norm(cycle32, f, kind, M, s_max, seed=2)
    value, argmax, policy = bmo_norm_per_s(cycle32, f, kind, M, s_max, seed=2, cap=cap)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.argmax == argmax
    assert rep.enumeration_policy == policy


def test_bmo_norm_block_cap(monkeypatch, cycle16):
    # 5,821 exhaustive candidates at radius 8 (s = 50..64; 4,225 at
    # s = 64 alone), in blocks of 256 of them
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 256 * cycle16.n)
    f = random_mean_zero(cycle16, np.random.default_rng(6))
    rep = bmo_norm(cycle16, f, "bz1", 2, 70)
    value, argmax, policy = bmo_norm_per_s(cycle16, f, "bz1", 2, 70)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.argmax == argmax
    assert rep.enumeration_policy == policy == "exhaustive s<=64+sampled 65<=s<=70 (lower bound)"


@pytest.mark.parametrize("kind", ["bz1", "bz2"])
@pytest.mark.parametrize("name, M, s_max, cap, block", [
    # the boxes [s, 2s]^2 of s = 5..9 overlap inside radius 3
    ("torus12", 2, 9, None, None),
    # s <= 5 enumerated and s >= 6 sampled: radius 3 (s = 5..9) has both
    ("cycle16", 2, 9, 30, None),
    # s_max not a square: the last radius, 5, holds s = 17..23 only
    ("cycle32", 1, 23, None, None),
    # radii up to 10 on a cycle of diameter 8: saturated balls from 9 on
    ("cycle16", 1, 90, None, None),
    # blocks of 2 columns, fewer than the candidates of every radius past 1
    ("cycle32", 2, 16, None, 2),
])
def test_bmo_norm_ball_by_ball_equals_per_s_reference(request, monkeypatch, kind, name, M,
                                                      s_max, cap, block):
    # the sup taken ball by ball, each candidate once, is the per-s
    # walk's; a slowly growing f puts the argmax in the last radius (in
    # radius 6 of 10 for bz1 on the saturated cycle)
    g = request.getfixturevalue(name)
    if cap is not None:
        monkeypatch.setattr(hardy, "TUPLE_EXHAUSTIVE_CAP", cap)
    if block is not None:
        monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", block * g.n)
    f = np.log1p(g.dist[0]) + 0.05 * random_mean_zero(g, np.random.default_rng(9))
    rep = bmo_norm(g, f, kind, M, s_max, seed=3)
    value, argmax, policy = bmo_norm_per_s(g, f, kind, M, s_max, seed=3,
                                           cap=hardy.TUPLE_EXHAUSTIVE_CAP)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.argmax == argmax
    assert rep.enumeration_policy == policy


@pytest.mark.parametrize("M", [1, 2])
def test_sweeps_walk_the_power_sequence_once(monkeypatch, M):
    # one walk to the longest column on the certified interval [0, 1] of
    # the lazy cycle: 68 and 73 products for the resolvent sweeps, 68 and
    # 74 for the bz2 sup (96, 104, 96 and 105 on [-1, 1])
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    W = counting_markov(g)
    f = random_mean_zero(g, np.random.default_rng(8))
    lengths = [series(g, Resolvent(M), s, 1e-12).truncation for s in S_VALUES]
    resolvent_apply(g, f, S_VALUES, float(M))
    assert W.products == max(lengths) < sum(lengths)
    assert W.products == {1: 68, 2: 73}[M]

    W.products = 0
    bmo_norm(g, f, "bz2", M, 16)
    assert W.products == max(series(g, Bz2(M), s, 1e-12).truncation for s in range(1, 17))
    assert W.products == {1: 68, 2: 74}[M]


def test_empty_scale_lists(path, cycle16):
    # no scales give an (n, 0) block on both paths, and no column is
    # multiplied by P
    g = cycle16
    f = random_mean_zero(g, np.random.default_rng(11))
    cols = g.matvec_cols
    for power in (1.0, 1.5):
        assert resolvent_apply(g, f, [], power).shape == (g.n, 0)
    for M in (1, 2):
        assert bz2_apply(g, f, (), M).shape == (g.n, 0)
    assert heat_sweep(g, f, []).shape == (g.n, 0)
    for family in sorted(FAMILIES):
        assert FAMILIES[family][0](g, f, [], 1).shape == (g.n, 0)
    assert g.matvec_cols == cols


def test_series_table_keeps_each_truncation():
    g = lazy_torus_2d(6)
    op = calculus.series_table(g, [(np.ones(3), 0.5), (np.ones(70), 0.25)])
    assert op.truncation == 69
    assert op.coeffs.shape == (70, 2)
    assert np.all(op.coeffs[3:, 0] == 0.0)
    np.testing.assert_array_equal(op.tail_bound, [0.5, 0.25])
    f = random_mean_zero(g, np.random.default_rng(9))
    U = op.apply(f)
    for j, n in enumerate((3, 70)):
        one = calculus.SeriesOperator(g, np.ones(n), 0.0).apply(f)
        _assert_close(U[:, j], one)
    with pytest.raises(ValueError):
        op.apply(np.ones((g.n, 2)))


def test_series_table_takes_its_columns_interval():
    # the interval a table walks on comes from its columns only, so
    # columns fitted on one interval cannot be walked on another
    g = lazy_torus_2d(6)
    interval = spectral_interval(g)
    columns = [Resolvent(1.0).column(s, 1e-12, interval) for s in (2, 9)]
    op = calculus.series_table(g, columns)
    assert op.interval == interval and not op.deflated
    assert calculus.series_table(g, []).interval == (-1.0, 1.0)
    with pytest.raises(ValueError):
        calculus.series_table(g, columns + [Resolvent(1.0).column(4, 1e-12, (-1.0, 1.0))])


@pytest.mark.parametrize("M", [1, 2])
def test_sweeps_keep_non_integer_scales(M, cycle16, monkeypatch):
    # each scale of a sweep is passed as given on the series path too, not
    # truncated to an integer
    g = cycle16
    f = random_mean_zero(g, np.random.default_rng(10))
    scales = [2.5, 4.0, 7.25]
    want_R = resolvent_apply(g, f, scales, float(M))
    want_A = bz2_apply(g, f, tuple(scales), M)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    got_R = resolvent_apply(g, f, scales, float(M))
    got_A = bz2_apply(g, f, tuple(scales), M)
    for j, s in enumerate(scales):
        _assert_close(got_R[:, j], resolvent_apply(g, f, s, float(M)))
        np.testing.assert_allclose(got_R[:, j], want_R[:, j], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_A[:, j], want_A[:, j], rtol=0, atol=1e-12)
