import json
import math
import sys
import threading

import numpy as np
import pytest
from oracles import (counting_markov, delta_power_exact, gradient_matches_fiber_norms,
                     h2_project, inner_forms, isometry_defect, rev_edges,
                     riesz_entries_per_input)

import graphhardy
from graphhardy import riesz as riesz_module
from graphhardy.errors import KernelComponent
from graphhardy.operators import (
    EdgeFunction,
    differential,
    divergence,
    lp_norm,
    lp_norm_forms,
    mean_project,
    random_mean_zero,
    tx_norms,
)
from graphhardy.quadratic import default_l_max, lusin
from graphhardy.riesz import molecule_suite, riesz, riesz_h1_experiment
from graphhardy.zoo import lazy_cycle, random_weights


def test_riesz_k2l(k2l, f0):
    res = riesz(k2l, f0)
    # Delta f0 = f0, so the transform is just d f0
    np.testing.assert_allclose(res.output.data, differential(k2l, f0).data, atol=1e-12)
    assert res.norm_l2_output == pytest.approx(2.0, abs=1e-12)
    assert res.norm_l2_input == pytest.approx(2.0, abs=1e-12)
    assert res.norm_l1_gradient == pytest.approx(4.0, abs=1e-12)
    assert res.h1_quad_input == pytest.approx(4.0, abs=1e-11)
    ratio = res.norm_l1_gradient / res.h1_quad_input
    assert ratio == pytest.approx(1.0, abs=1e-11)


def test_riesz_zero(cycle16):
    res = riesz(cycle16, np.zeros(cycle16.n))
    assert res.norm_l2_output == 0.0


def test_riesz_requires_mean_zero(cycle16):
    with pytest.raises(KernelComponent):
        riesz(cycle16, np.ones(cycle16.n))


def test_riesz_isometry(cycle32):
    for seed in range(10):
        f = random_mean_zero(cycle32, np.random.default_rng(seed))
        assert isometry_defect(cycle32, f) <= 1e-9


def test_gradient_form_is_fiber_norm(cycle32, rng):
    f = random_mean_zero(cycle32, rng)
    res = riesz(cycle32, f)
    np.testing.assert_allclose(
        res.gradient_form, tx_norms(cycle32, res.output), atol=1e-12
    )
    assert gradient_matches_fiber_norms(cycle32, f) < 1e-12


def test_riesz_l2_gradient_chain(cycle16, rng):
    # || grad Delta^{-1/2} f ||_2 = ||f||_2 through the energy identity
    f = random_mean_zero(cycle16, rng)
    res = riesz(cycle16, f)
    assert lp_norm(cycle16, res.gradient_form, 2) == pytest.approx(
        res.norm_l2_input, rel=1e-10
    )


def test_h2_project_fixes_differentials(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    F = differential(cycle16, f)
    P = h2_project(cycle16, F)
    assert lp_norm_forms(cycle16, P - F, 2) <= 1e-10


def test_h2_project_k2l_single_edge(k2l):
    data = np.zeros(k2l.adjacency.nnz)
    rows, cols = k2l.edge_rows, k2l.edge_cols
    data[(rows == 0) & (cols == 1)] = 1.0
    data[(rows == 1) & (cols == 0)] = -1.0
    F = EdgeFunction(k2l, data)
    P = h2_project(k2l, F)
    # on this graph the edge indicator is itself exact: F = d(f0/2)
    np.testing.assert_allclose(P.data, F.data, atol=1e-12)


def test_h2_project_idempotent_and_orthogonal(cycle16, rng):
    data = rng.standard_normal(cycle16.adjacency.nnz)
    data = 0.5 * (data - data[rev_edges(cycle16)])
    F = EdgeFunction(cycle16, data)
    P1 = h2_project(cycle16, F)
    P2 = h2_project(cycle16, P1)
    assert lp_norm_forms(cycle16, P2 - P1, 2) <= 1e-10
    # residual is L^2(T)-orthogonal to every differential
    resid = EdgeFunction(cycle16, F.data - P1.data)
    for i in range(0, cycle16.n, 3):
        e = np.eye(cycle16.n)[i]
        assert abs(inner_forms(cycle16, resid, differential(cycle16, e))) < 1e-10


def test_h2_projection_basis_idempotent(cycle16):
    nnz = cycle16.adjacency.nnz
    rows, cols = cycle16.edge_rows, cycle16.edge_cols
    rev = rev_edges(cycle16)
    seen = set()
    for e in range(nnz):
        x, y = int(rows[e]), int(cols[e])
        if x >= y or (x, y) in seen:
            continue
        seen.add((x, y))
        data = np.zeros(nnz)
        data[e] = 1.0
        data[rev[e]] = -1.0
        F = EdgeFunction(cycle16, data)
        P1 = h2_project(cycle16, F)
        P2 = h2_project(cycle16, P1)
        assert lp_norm_forms(cycle16, P2 - P1, 2) <= 1e-10


def test_dstar_contraction(cycle32, rng):
    worst = {1: 0.0, 2: 0.0, np.inf: 0.0}
    for _ in range(10):
        data = rng.standard_normal(cycle32.adjacency.nnz)
        data = 0.5 * (data - data[rev_edges(cycle32)])
        F = EdgeFunction(cycle32, data)
        h = divergence(cycle32, F)
        for p in worst:
            denom = lp_norm_forms(cycle32, F, p)
            worst[p] = max(worst[p], lp_norm(cycle32, h, p) / denom)
    for p, c in worst.items():
        assert c <= 2.0  # Cauchy-Schwarz on fibers gives sqrt(2)


def test_riesz_experiment_chain_and_ratio(cycle32):
    suite = molecule_suite(cycle32, (1, 4, 16, 64), kind="bz1", M=1,
                           centers=range(0, 32, 4))
    rep = riesz_h1_experiment(cycle32, suite)
    assert rep.max_chain_gap <= 1e-10
    assert math.isfinite(rep.max_ratio)
    grads = [e.grad_l1 for e in rep.entries]
    assert max(grads) / min(grads) <= 10.0


def test_package_riesz_is_the_module():
    assert graphhardy.riesz is sys.modules["graphhardy.riesz"]
    assert graphhardy.riesz_transform is graphhardy.riesz.riesz


def test_adjoint_isometry_on_exact_forms(cycle32, rng):
    # || Delta^{-1/2} d* F ||_2 = ||F||_{L^2(T)} on the range of the projector
    data = rng.standard_normal(cycle32.adjacency.nnz)
    data = 0.5 * (data - data[rev_edges(cycle32)])
    F = h2_project(cycle32, EdgeFunction(cycle32, data))
    u = delta_power_exact(cycle32, divergence(cycle32, F), -0.5)
    assert abs(lp_norm(cycle32, u, 2) - lp_norm_forms(cycle32, F, 2)) <= 1e-9


def _assert_matches_per_input(g, suite, l_max=None):
    rep = riesz_h1_experiment(g, suite, l_max)
    loop = riesz_entries_per_input(g, suite, l_max)
    assert [e.label for e in rep.entries] == [e.label for e in loop]
    # a zero input has no ratio on either side
    assert [e.ratio is None for e in rep.entries] == [e.ratio is None for e in loop]
    for name in ("h1_quad_input", "grad_l1"):
        np.testing.assert_allclose([getattr(e, name) for e in rep.entries],
                                   [getattr(e, name) for e in loop], rtol=1e-12,
                                   err_msg=name)
    np.testing.assert_allclose([e.ratio for e in rep.entries if e.ratio is not None],
                               [e.ratio for e in loop if e.ratio is not None], rtol=1e-12,
                               err_msg="ratio")
    # the chain gap is a rounding-level L^2 distance of h from the input,
    # already relative to the input norm
    np.testing.assert_allclose([e.chain_gap for e in rep.entries],
                               [e.chain_gap for e in loop], rtol=0, atol=1e-12)
    ratios = [e.ratio for e in rep.entries if e.ratio is not None]
    assert rep.max_ratio == max(ratios, default=0.0)
    assert rep.min_ratio == min(ratios, default=0.0)
    assert rep.max_chain_gap == max((e.chain_gap for e in rep.entries), default=0.0)
    return rep


def test_experiment_matches_per_input_cycle32_bz1(cycle32):
    suite = molecule_suite(cycle32, (1, 4, 16, 64), kind="bz1", M=1,
                           centers=range(0, 32, 4))
    _assert_matches_per_input(cycle32, suite)


def test_molecule_suite_refuses_an_unknown_kind(cycle16):
    for kind in ("bz3", "BZ1", None):
        with pytest.raises(ValueError, match="'bz1' or 'bz2'"):
            molecule_suite(cycle16, (1,), kind=kind, centers=[0])


def test_experiment_matches_per_input_torus_bz2(torus8):
    suite = molecule_suite(torus8, (1, 4, 16), kind="bz2", M=2, centers=range(0, 64, 5))
    _assert_matches_per_input(torus8, suite)


def test_experiment_matches_per_input_masked_cones():
    # jittered weights leave every centre with its own ball-volume profile,
    # so the cone sums take the masked per-radius path
    g = random_weights(lazy_cycle(16), 2)
    suite = molecule_suite(g, (1, 4, 16), kind="bz1", M=1, centers=range(0, 16, 2))
    _assert_matches_per_input(g, suite)


BLOCK_CAPS = [
    ("RIESZ_BLOCK", 4, 3),
    # n (diameter + 1) = 144 table entries per input on lazy_cycle(16)
    ("RIESZ_TABLE_ENTRIES", 3 * 144, 4),
    ("RIESZ_TABLE_ENTRIES", 1, 11),
]


def _eleven_inputs(g):
    """10 molecules of lazy_cycle(16) with a zero input (no ratio)
    sixth."""
    suite = molecule_suite(g, (1, 4), centers=range(0, 16, 3))[:10]
    suite.insert(5, ("zero", np.zeros(g.n)))
    return suite


@pytest.mark.parametrize("cap,value,blocks", BLOCK_CAPS)
def test_experiment_runs_in_blocks(monkeypatch, cap, value, blocks):
    # 11 inputs, a zero input (no ratio) among them, one power walk per
    # block, which walks each input's column once
    monkeypatch.setattr(riesz_module, cap, value)
    g = lazy_cycle(16)
    suite = _eleven_inputs(g)
    rep = _assert_matches_per_input(g, suite)
    assert len(rep.entries) == 11 and rep.entries[5].ratio is None
    W, cols = counting_markov(g), g.matvec_cols
    riesz_h1_experiment(g, suite)
    assert W.products == blocks * default_l_max(g)
    assert g.matvec_cols - cols == len(suite) * default_l_max(g)


@pytest.mark.parametrize("l_max", [40, 200])
def test_experiment_explicit_horizon(cycle16, l_max):
    # below the default horizon, and far above it (radii past the diameter)
    suite = molecule_suite(cycle16, (1, 4, 16), centers=range(0, 16, 4))
    _assert_matches_per_input(cycle16, suite, l_max)


def test_a_zero_input_has_no_ratio():
    # a zero input has quadratic norm 0 and no ratio: a JSON null that
    # strict JSON parses and an empty CSV cell, skipped by max and min
    g = lazy_cycle(16)
    f = molecule_suite(g, (4,), centers=[3])[0][1]
    rep = riesz_h1_experiment(g, [("f", f), ("zero", np.zeros(g.n))])

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(rep.to_json(), parse_constant=refuse)
    ratio = rep.entries[0].ratio
    assert ratio > 0.0
    assert [e["ratio"] for e in payload["entries"]] == [ratio, None]
    assert payload["max_ratio"] == payload["min_ratio"] == ratio
    assert rep.to_csv().splitlines()[2] == "zero,0.0,0.0,,0.0"


def test_experiment_empty_suite(cycle16):
    rep = riesz_h1_experiment(cycle16, [])
    assert rep.entries == []
    assert rep.max_ratio == rep.min_ratio == rep.max_chain_gap == 0.0


def test_experiment_rejects_a_non_mean_zero_input(cycle16):
    suite = molecule_suite(cycle16, (1, 4), centers=range(0, 16, 4))
    suite.append(("one", np.ones(cycle16.n)))
    with pytest.raises(KernelComponent):
        riesz_h1_experiment(cycle16, suite)


def test_experiment_walks_the_power_sequence_once():
    # on the oracle path the whole 32-input suite costs one power walk of
    # the stacked inputs, of 32 columns, as one riesz call costs for its
    # one input
    g = lazy_cycle(32)
    suite = molecule_suite(g, (1, 4, 16, 64), centers=range(0, 32, 4))
    W, cols = counting_markov(g), g.matvec_cols
    riesz_h1_experiment(g, suite)
    assert len(suite) == 32
    assert W.products == default_l_max(g)
    assert g.matvec_cols - cols == 32 * default_l_max(g)
    W = counting_markov(g)
    riesz(g, suite[0][1])
    assert W.products == default_l_max(g)


def test_square_functions_start_no_threads():
    # the package runs on the calling thread: the experiment and a
    # five-column lusin leave the process's threads as they found them
    g = lazy_cycle(16)
    suite = _eleven_inputs(g)
    F = mean_project(g, np.random.default_rng(14).standard_normal((g.n, 5)))
    before = threading.enumerate()
    riesz_h1_experiment(g, suite)
    lusin(g, F, 1.0)
    assert threading.active_count() == len(before)
    assert threading.enumerate() == before


def test_chain_gap_reads_a_perturbed_chain(monkeypatch, cycle16):
    # h moved off the input by a mean-zero direction of relative L^2 size
    # 1e-6: every chain gap reads that size back, and a zero input reads 0
    size = 1e-6
    form_potential = riesz_module.form_potential

    def perturbed(g, F):
        h = form_potential(g, F)
        v = mean_project(g, np.cos(np.arange(g.n)))
        return h + np.outer(v / lp_norm(g, v, 2), size * lp_norm(g, h, 2))

    monkeypatch.setattr(riesz_module, "form_potential", perturbed)
    suite = molecule_suite(cycle16, (1, 4, 16), centers=range(0, 16, 4))
    suite.append(("zero", np.zeros(cycle16.n)))
    rep = riesz_h1_experiment(cycle16, suite)
    np.testing.assert_allclose([e.chain_gap for e in rep.entries[:-1]], size,
                               rtol=0, atol=1e-12)
    assert rep.entries[-1].chain_gap == 0.0
    assert rep.max_chain_gap == pytest.approx(size, abs=1e-12)
