import os

import numpy as np
import pytest
from oracles import antisymmetry_defect, kernels, save_edge_csv, save_vertex_csv, zero_form

from graphhardy import riesz as riesz_module
from graphhardy.operators import (
    EdgeFunction,
    apply_P,
    differential,
    divergence,
    gradient,
    inner,
    laplacian,
    level_blocks,
    load_vertex_csv,
    lp_norm,
    lp_norm_forms,
    mean_project,
    random_mean_zero,
    thread_cap,
    tx_norms,
)


def test_apply_P_k2l(k2l):
    np.testing.assert_allclose(apply_P(k2l, [1.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(apply_P(k2l, [1.0, -1.0]), [0.0, 0.0])


def test_apply_P_stochastic(cycle16, rng):
    ones = np.ones(cycle16.n)
    for k in (1, 5, 17):
        np.testing.assert_allclose(apply_P(cycle16, ones, k), ones)


def test_level_blocks_match_apply_P(cycle16, rng):
    for f in (rng.standard_normal(cycle16.n), rng.standard_normal((cycle16.n, 3))):
        seq = [row.copy() for _, rows in level_blocks(cycle16, f, 9) for row in rows]
        assert len(seq) == 10
        for l, u in enumerate(seq):
            assert u.shape == f.shape
            np.testing.assert_array_equal(u, apply_P(cycle16, f, l))


def test_edge_function_division(cycle8, rng):
    F = differential(cycle8, rng.standard_normal(cycle8.n))
    np.testing.assert_array_equal((F / 3.0).data, F.data / 3.0)


def test_contraction(cycle16, torus8, rng):
    for g in (cycle16, torus8):
        for _ in range(5):
            f = rng.standard_normal(g.n)
            for p in (1, 2, np.inf):
                assert lp_norm(g, apply_P(g, f), p) <= lp_norm(g, f, p) + 1e-12


def test_self_adjoint_on_basis(cycle16):
    g = cycle16
    for i in range(g.n):
        ei = np.eye(g.n)[i]
        Pei = apply_P(g, ei)
        for j in range(g.n):
            ej = np.eye(g.n)[j]
            assert inner(g, Pei, ej) == pytest.approx(inner(g, ei, apply_P(g, ej)), abs=1e-13)


def test_laplacian_l1_bound(cycle16, rng):
    for _ in range(20):
        f = rng.standard_normal(cycle16.n)
        assert lp_norm(cycle16, laplacian(cycle16, f), 1) <= 2 * lp_norm(cycle16, f, 1) + 1e-12


def test_kernel_k2l(k2l):
    p = kernels(k2l, 2)
    np.testing.assert_allclose(p[0], np.diag([0.5, 0.5]))
    np.testing.assert_allclose(p[1], np.full((2, 2), 0.25))
    np.testing.assert_allclose(p[2], np.full((2, 2), 0.25))


def test_kernel_laws(cycle16):
    p = kernels(cycle16, 9)
    for l in (0, 1, 4, 9):
        K = p[l]
        assert np.abs(K - K.T).max() < 1e-13
        assert K.min() >= -1e-16
        np.testing.assert_allclose(K @ cycle16.m, 1.0, atol=1e-13)
        # support within distance l
        assert np.all(K[cycle16.dist > l] == 0.0)


def test_kernel_semigroup(cycle16, k2l, torus8):
    for g in (k2l, cycle16, torus8):
        p = kernels(g, 8)
        comp = p[3] @ (g.m[:, None] * p[5])
        assert np.abs(comp - p[8]).max() < 1e-13


def test_first_order_ops_k2l(k2l):
    f = np.array([1.0, 0.0])
    np.testing.assert_allclose(laplacian(k2l, f), [0.5, -0.5])
    np.testing.assert_allclose(gradient(k2l, f), [0.5, 0.5])
    df = differential(k2l, f)
    np.testing.assert_array_equal(df.data, f[k2l.edge_rows] - f[k2l.edge_cols])
    np.testing.assert_allclose(divergence(k2l, df), laplacian(k2l, f))
    # energy identity
    e = lp_norm(k2l, gradient(k2l, f), 2) ** 2
    assert e == pytest.approx(inner(k2l, laplacian(k2l, f), f))
    assert e == pytest.approx(1.0)


def test_constants_in_kernel(cycle16):
    c = np.full(cycle16.n, 3.7)
    assert lp_norm(cycle16, laplacian(cycle16, c), np.inf) < 1e-14
    assert lp_norm(cycle16, gradient(cycle16, c), np.inf) < 1e-14
    assert lp_norm_forms(cycle16, differential(cycle16, c), np.inf) < 1e-14


def test_dstar_d_is_laplacian_on_basis(cycle16, torus8, k2l):
    for g in (k2l, cycle16, torus8):
        for i in range(g.n):
            ei = np.eye(g.n)[i]
            lhs = divergence(g, differential(g, ei))
            np.testing.assert_allclose(lhs, laplacian(g, ei), atol=1e-13)


def test_energy_identity_random(cycle16, rng):
    for _ in range(10):
        f = rng.standard_normal(cycle16.n)
        lhs = lp_norm(cycle16, gradient(cycle16, f), 2) ** 2
        rhs = inner(cycle16, laplacian(cycle16, f), f)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_tx_norm_is_gradient(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    F = differential(cycle16, f)
    np.testing.assert_allclose(tx_norms(cycle16, F), gradient(cycle16, f), atol=1e-13)


def test_antisymmetry_bookkeeping(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    F = differential(cycle16, f)
    assert antisymmetry_defect(F) < 1e-15
    # mean of d*F vanishes by antisymmetry
    assert abs(inner(cycle16, divergence(cycle16, F), np.ones(cycle16.n))) < 1e-12


def test_indicator_l1_norm_uses_measure(cycle16):
    for x in (0, 5):
        e = np.eye(cycle16.n)[x]
        assert lp_norm(cycle16, e, 1) == pytest.approx(cycle16.m[x])


def test_mean_project(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    ft = mean_project(cycle16, f)
    assert abs(inner(cycle16, ft, np.ones(cycle16.n))) < 1e-10
    g2 = random_mean_zero(cycle16, rng)
    assert abs(inner(cycle16, g2, np.ones(cycle16.n))) < 1e-10


def test_mean_project_block_is_columnwise(torus8, rng):
    block = rng.standard_normal((torus8.n, 3))
    out = mean_project(torus8, block)
    for j in range(3):
        np.testing.assert_allclose(out[:, j], mean_project(torus8, block[:, j]),
                                   atol=1e-14)


def test_first_order_ops_take_blocks(torus8, rng):
    # d, d*, the gradient and the L^p norms act column by column
    g = torus8
    block = rng.standard_normal((g.n, 3))
    F = differential(g, block)
    h = divergence(g, F)
    grad = gradient(g, block)
    assert F.data.shape == (g.adjacency.nnz, 3) and h.shape == grad.shape == (g.n, 3)
    for j in range(3):
        Fj = differential(g, block[:, j])
        np.testing.assert_array_equal(F.data[:, j], Fj.data)
        np.testing.assert_allclose(h[:, j], divergence(g, Fj), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(grad[:, j], gradient(g, block[:, j]), rtol=1e-14)
        for p in (1, 2, np.inf):
            assert lp_norm(g, block, p)[j] == pytest.approx(lp_norm(g, block[:, j], p),
                                                            rel=1e-14)
    with pytest.raises(ValueError):
        EdgeFunction(g, np.zeros((g.adjacency.nnz, 2, 2)))
    with pytest.raises(ValueError):
        EdgeFunction(g, np.zeros((g.adjacency.nnz + 1, 2)))


def test_csv_roundtrip(tmp_path, cycle8, rng):
    f = rng.standard_normal(cycle8.n)
    p = tmp_path / "f.csv"
    save_vertex_csv(cycle8, f, p)
    np.testing.assert_allclose(load_vertex_csv(cycle8, p), f)
    F = differential(cycle8, f)
    pe = tmp_path / "F.csv"
    save_edge_csv(cycle8, F, pe)
    assert pe.read_text().startswith("x,y,value")


def test_zero_form(cycle8):
    Z = zero_form(cycle8)
    assert lp_norm_forms(cycle8, Z, 2) == 0.0
    G = EdgeFunction(cycle8, Z.data + 1.0)
    assert antisymmetry_defect(G) == pytest.approx(2.0)


def test_kernel_matrix_validate(cycle16):
    # the support law tells p_5 from p_2: both are symmetric with unit
    # mass, but p_5 has entries at distance 3..5 > 2
    p = kernels(cycle16, 5)
    assert not p[5][cycle16.dist > 5].any()
    assert p[5][(cycle16.dist > 2) & (cycle16.dist <= 5)].all()
    assert not p[2][cycle16.dist > 2].any()


def test_thread_cap_counts_the_cores_this_process_may_use(monkeypatch):
    # the affinity mask, not the machine's core count, up to the cap of 4
    assert riesz_module.thread_cap is thread_cap
    if hasattr(os, "sched_getaffinity"):
        assert thread_cap() == min(4, len(os.sched_getaffinity(0)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert thread_cap() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_cap() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_cap() == 1
