"""Scale sweeps: one block, one column per scale, equal to the per-scale
calls on both evaluation paths, from one walk of the power sequence."""

import numpy as np
import pytest

from oracles import bmo_norm_per_s, counting_markov, family_per_s

from graphhardy import calculus
from graphhardy.calculus import (
    FAMILIES,
    BZ2Kind,
    a_s,
    resolvent_apply,
    resolvent_step_series,
)
from graphhardy.hardy import bmo_norm
from graphhardy.operators import random_mean_zero
from graphhardy.zoo import lazy_cycle, lazy_torus_2d

S_VALUES = [1, 2, 5, 9, 16]
GRADIENT_FAMILIES = ("grad_heat", "grad_resolvent")


@pytest.fixture(params=["oracle", "series"])
def path(request, monkeypatch):
    if request.param == "series":
        monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    return request.param


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
    U = a_s(cycle16, f, BZ2Kind(tuple(S_VALUES), M))
    for j, s in enumerate(S_VALUES):
        _assert_close(U[:, j], a_s(cycle16, f, BZ2Kind(s, M)))


@pytest.mark.parametrize("kind,M,s_max,policy", [
    ("bz1", 1, 16, "auto"),
    ("bz1", 2, 16, "auto"),
    ("bz2", 1, 16, "auto"),
    ("bz2", 2, 16, "auto"),
    ("bz1", 2, 12, "sampled"),
])
def test_bmo_norm_equals_per_s_reference(path, kind, M, s_max, policy, cycle32):
    f = random_mean_zero(cycle32, np.random.default_rng(5))
    rep = bmo_norm(cycle32, f, kind, M, s_max, tuple_policy=policy, seed=2)
    value, argmax = bmo_norm_per_s(cycle32, f, kind, M, s_max, policy, seed=2)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.argmax == argmax


def test_bmo_norm_block_cap(cycle16):
    # 4225 exhaustive candidates at s = 64, several blocks of them
    f = random_mean_zero(cycle16, np.random.default_rng(6))
    rep = bmo_norm(cycle16, f, "bz1", 2, 70)
    value, argmax = bmo_norm_per_s(cycle16, f, "bz1", 2, 70)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.argmax == argmax


@pytest.mark.parametrize("M", [1, 2])
def test_sweeps_walk_the_power_sequence_once(monkeypatch, M):
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = lazy_cycle(16)
    W = counting_markov(g)
    f = random_mean_zero(g, np.random.default_rng(8))
    lengths = [M * resolvent_step_series(g, s, 1e-12 / M).truncation for s in S_VALUES]
    resolvent_apply(g, f, S_VALUES, float(M))
    assert W.products == max(lengths) < sum(lengths)

    W.products = 0
    bmo_norm(g, f, "bz2", M, 16)
    assert W.products == M * resolvent_step_series(g, 16, 1e-12).truncation


def test_series_table_keeps_each_truncation():
    g = lazy_torus_2d(6)
    op = calculus.series_table(g, "t", [(np.ones(3), 0.5), (np.ones(70), 0.25)])
    assert op.truncation == 69
    assert op.coeffs.shape == (70, 2)
    assert np.all(op.coeffs[3:, 0] == 0.0)
    np.testing.assert_array_equal(op.tail_bound, [0.5, 0.25])
    f = random_mean_zero(g, np.random.default_rng(9))
    U = op.apply(f)
    for j, n in enumerate((3, 70)):
        one = calculus.SeriesOperator(g, "one", np.ones(n), 0.0).apply(f)
        _assert_close(U[:, j], one)
    with pytest.raises(ValueError):
        op.apply(np.ones((g.n, 2)))
