"""Hypothesis properties of the calculus and the BMO sup on both
evaluation paths: the dense oracle, and the truncated series with
ORACLE_MAX_N at 0.  The path is patched inside each example, because
Hypothesis does not reset function-scoped fixtures between examples.
A graph whose spectrum certificate raises UncertifiedSpectrum is
skipped and counted, and most of every run must be checked."""

import numpy as np
import pytest
from oracles import graphs, laplacian

from graphhardy import calculus
from graphhardy.calculus import delta_power_apply, spectrum
from graphhardy.errors import UncertifiedSpectrum
from graphhardy.hardy import bmo_norm
from graphhardy.operators import (differential, divergence, lp_norm, lp_norm_forms,
                                  random_mean_zero)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EXAMPLES = 20
SEEDS = st.integers(0, 2 ** 32 - 1)
PATHS = ["oracle", "series"]


def _check(path, prop, *strategies):
    """prop(g, *drawn) on `path` for every example of `graphs()`; returns
    the number of graphs skipped for an uncertified spectrum."""
    uncertified = []

    @hypothesis.settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs(), st.tuples(*strategies))
    def run(g, drawn):
        with pytest.MonkeyPatch.context() as mp:
            if path == "series":
                mp.setattr(calculus, "ORACLE_MAX_N", 0)
            try:
                spectrum(g)
            except UncertifiedSpectrum:
                uncertified.append(g)
                hypothesis.assume(False)
            prop(g, *drawn)

    run()
    return len(uncertified)


@pytest.mark.parametrize("path", PATHS)
def test_divergence_of_differential_is_laplacian(path):
    def prop(g, seed):
        f = np.random.default_rng(seed).standard_normal(g.n)
        np.testing.assert_allclose(divergence(g, differential(g, f)), laplacian(g, f),
                                   rtol=1e-12, atol=1e-12 * np.abs(f).max())

    assert _check(path, prop, SEEDS) <= EXAMPLES // 4


@pytest.mark.parametrize("path", PATHS)
def test_riesz_transform_is_an_isometry(path):
    # ||d Delta^{-1/2} f||_2 = ||f||_2 on mean-zero f
    def prop(g, seed):
        f = random_mean_zero(g, np.random.default_rng(seed))
        norm = lp_norm(g, f, 2)
        out = lp_norm_forms(g, differential(g, delta_power_apply(g, f, -0.5)), 2)
        assert abs(out - norm) <= 1e-8 * norm

    assert _check(path, prop, SEEDS) <= EXAMPLES // 4


@pytest.mark.parametrize("kind", ["bz1", "bz2"])
@pytest.mark.parametrize("path", PATHS)
def test_bmo_norm_ignores_constants_and_scales_with_t(path, kind):
    def prop(g, seed, M, s_max, c, t):
        f = random_mean_zero(g, np.random.default_rng(seed))
        value = bmo_norm(g, f, kind, M, s_max).value
        shifted = bmo_norm(g, f + c, kind, M, s_max).value
        scaled = bmo_norm(g, t * f, kind, M, s_max).value
        assert abs(shifted - value) <= 1e-9 * (value + abs(c))
        assert abs(scaled - abs(t) * value) <= 1e-12 * abs(t) * value

    drawn = (SEEDS, st.integers(1, 2), st.integers(1, 4), st.floats(-10.0, 10.0),
             st.floats(-10.0, 10.0).filter(lambda t: abs(t) >= 1e-3))
    assert _check(path, prop, *drawn) <= EXAMPLES // 4
