import functools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    atomic_decompose_dense,
    entries_of,
    eta_coefficients_recurrence,
    form_profile,
    graphs,
    is_tent_atom,
    naive_tent_members,
    pi_synthesis,
    reproducing_l_max_mpmath,
    reproducing_l_max_spectrum,
    sum_abs_lambda,
    t22_norm,
    tent_atom,
    tent_depth_search,
    tent_mask,
    tent_pieces_dense,
    tent_residual,
    top_level,
    truncated_profile,
)

from graphhardy import calculus, graphs as graphs_module, hardy, tentspace, zoo
from graphhardy.calculus import reproducing_l_max
from graphhardy.errors import NonConvergent
from graphhardy.graphs import ball, level_set_depths
from graphhardy.hardy import pipeline_l_max, synthesis_eta
from graphhardy.graphs import cached_geometry
from graphhardy.operators import (
    _kernel_step,
    apply_P,
    differential,
    divergence,
    lp_norm,
    markov_matrix,
    random_mean_zero,
)
from graphhardy.quadratic import SpaceTimeFunction, tent_functional
from graphhardy.tentspace import SpaceTimeEntries, atomic_decompose, eta_coefficients

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@pytest.mark.parametrize("build", [
    zoo.k2l,
    lambda: zoo.binary_tree(4),
    lambda: zoo.random_weights(zoo.lazy_torus_2d(6), 5),
    lambda: zoo.lazy_cycle(16),
    lambda: zoo.lazy_path(300),
], ids=["k2l", "tree4", "jittered_torus6", "cycle16", "path300"])
def test_tent_depth_is_the_distance_to_the_complement(build):
    # the running minimum over the sorted values gives, as floats, the
    # depth one breadth-first search from each complement gives, for
    # nested level sets from the whole graph (empty complement, +inf) to
    # the empty set (full complement, 0), in row blocks or one block
    _assert_depths_match_searches(build(), np.random.default_rng(4))


def _assert_depths_match_searches(g, rng):
    values = rng.standard_normal(g.n)
    values[rng.random(g.n) < 0.3] = 0.0  # ties
    thresholds = [-np.inf, *np.quantile(values, (0.05, 0.3, 0.6, 0.95)), 0.0, values.max()]
    got = level_set_depths(g, values, thresholds)
    assert got.dtype == np.float64 and got.shape == (len(thresholds), g.n)
    for t, depth in zip(thresholds, got):
        assert np.array_equal(depth, tent_depth_search(g, values > t))
    assert np.all(got[0] == np.inf) and np.all(got[-1] == 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs_module, "ROW_BLOCK_ENTRIES", 3 * g.n)
        assert np.array_equal(level_set_depths(g, values, thresholds), got)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs(), st.integers(0, 2 ** 32 - 1))
def test_level_set_depths_match_searches_on_random_graphs(g, seed):
    _assert_depths_match_searches(g, np.random.default_rng(seed))


def test_decomposition_makes_no_search(monkeypatch):
    # the tent depths of every level set come from `dist`: a molecular
    # decomposition runs no breadth-first search, and `tentspace` holds
    # no name for one
    calls = []
    search = graphs_module.distance_to
    monkeypatch.setattr(graphs_module, "distance_to",
                        lambda *args: calls.append(args) or search(*args))
    g = zoo.lazy_cycle(32)
    dec = hardy.molecular_decompose(g, random_mean_zero(g, np.random.default_rng(2)),
                                    1, 1.0, 1.0)
    assert len(dec.coefficients) > 1
    assert calls == []
    assert graphs_module.set_distance(g, [0], [5]) == 5 and len(calls) == 1
    assert not hasattr(tentspace, "distance_to")


def test_tent_height_past_the_uint8_square():
    # on a path with O^c = {0} the depth at y is y, so the tent holds
    # y^2 levels there, far past what a squared uint8 could hold, though
    # the metric itself is uint8
    g = zoo.lazy_path(200)
    assert g.dist.dtype == np.uint8
    inside = np.arange(g.n) > 0
    depth = level_set_depths(g, inside, [0])[0]
    np.testing.assert_array_equal(depth, np.arange(g.n))
    l_max = 30_000
    want = np.minimum(np.arange(g.n, dtype=np.int64) ** 2, l_max + 1)
    np.testing.assert_array_equal(tentspace._tent_height(depth, l_max), want)
    assert want[16] == 256 and want[-1] == l_max + 1


def test_tent_k2l(k2l):
    mask = tent_mask(k2l, ball(k2l, 0, 1).mask, 4)
    pairs = {(y, k) for y, k in zip(*np.nonzero(mask))}
    assert pairs == {(0, 0)}


def test_tent_whole_graph(cycle16):
    mask = tent_mask(cycle16, np.ones(cycle16.n, dtype=bool), 6)
    assert mask.all()


def test_tent_matches_naive(cycle16):
    b = ball(cycle16, 0, 3)
    mask = tent_mask(cycle16, b.mask, 10)
    got = {(int(y), int(k)) for y, k in zip(*np.nonzero(mask))}
    assert got == naive_tent_members(cycle16, b.mask, 10)


def _random_profile(g, rng, l_max=24):
    f = random_mean_zero(g, rng)
    return truncated_profile(g, f, 1.0, l_max)


def test_atoms_validate_and_reconstruct(cycle32, rng):
    F = _random_profile(cycle32, rng)
    dec = atomic_decompose(cycle32, F)
    assert tent_residual(F, dec) <= 1e-12
    rec = np.zeros_like(F.values)
    for lam, atom in dec.coefficients:
        assert is_tent_atom(atom)
        rec += lam * atom.values.values
    gap = t22_norm(SpaceTimeFunction(cycle32, F.values - rec))
    assert gap <= 1e-12


def test_atom_coefficients_match_dense_norm(cycle32, torus8, rng):
    # lambda comes from the entries each atom owns; it must agree with
    # the dense T^2_2 norm of the piece, and the pieces must tile F
    for g in (cycle32, torus8):
        f = random_mean_zero(g, rng)
        d0 = cached_geometry(g).d0_estimate
        eta = synthesis_eta(1, 1.0, 1.0, d0)
        l_max = pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2))
        F = truncated_profile(g, f, 1.0, l_max)
        dec = atomic_decompose(g, F, tol=1e-8)
        assert tent_residual(F, dec) <= 1e-8
        covered = np.zeros(F.values.shape, dtype=int)
        for lam, atom in dec.coefficients:
            owned = atom.values.values != 0.0
            piece = np.where(owned, F.values, 0.0)
            dense = t22_norm(SpaceTimeFunction(g, piece)) * math.sqrt(atom.ball.volume)
            assert abs(lam - dense) <= 1e-12 * dense
            covered += owned
        assert covered.max() == 1
        assert np.array_equal(covered == 1, F.values != 0.0)


def _full_scan_synthesis(g, vals, eta, beta):
    # every level visited: Delta^(eta - beta) on all columns, Horner from
    # the horizon (each step the counted product added into a copy of its
    # U column, as the scan adds it), then (I + P)^eta on the output
    U = vals
    for _ in range(int(eta - beta)):
        U = U - apply_P(g, U)
    count = vals.shape[1]
    U = U * (eta_coefficients(eta, count)
             / np.arange(1, count + 1, dtype=float) ** beta)[None, :]
    acc = np.zeros(g.n)
    for l in range(count, 0, -1):
        acc = _kernel_step(g, markov_matrix(g), acc, U[:, l - 1].copy())
    for _ in range(eta):
        acc = acc + apply_P(g, acc)
    return acc


def test_horner_synthesis_stops_at_top_level(cycle16, rng):
    # zero levels above the top one contribute nothing, bit for bit
    vals = np.zeros((cycle16.n, 30))
    vals[:, :6] = rng.standard_normal((cycle16.n, 6))
    assert top_level(vals) == 6
    assert entries_of(SpaceTimeFunction(cycle16, vals)).top == 6
    out = pi_synthesis(cycle16, SpaceTimeFunction(cycle16, vals), 3, 1.0)
    assert np.array_equal(out, _full_scan_synthesis(cycle16, vals, 3, 1.0))
    zero = np.zeros((cycle16.n, 4))
    assert top_level(zero) == 0
    assert not pi_synthesis(cycle16, SpaceTimeFunction(cycle16, zero), 3, 1.0).any()


def test_decompose_zero(cycle16):
    F = SpaceTimeFunction(cycle16, np.zeros((cycle16.n, 4)))
    dec = atomic_decompose(cycle16, F)
    assert dec.coefficients == []
    assert tent_residual(F, dec) == 0.0


def test_decompose_single_atom_idempotent(cycle16):
    b = ball(cycle16, 3, 2)
    mask = tent_mask(cycle16, b.mask, 8)
    vals = np.zeros((cycle16.n, 9))
    vals[mask] = 1.0
    stf = SpaceTimeFunction(cycle16, vals)
    norm = t22_norm(stf)
    lam0 = norm * math.sqrt(b.volume)
    F = SpaceTimeFunction(cycle16, vals / lam0)
    assert is_tent_atom(tent_atom(b, F))
    dec = atomic_decompose(cycle16, F)
    assert tent_residual(F, dec) <= 1e-14
    assert sum_abs_lambda(dec) <= 4.0 * lp_norm(cycle16, tent_functional(cycle16, F), 1)


def test_sum_abs_lambda_band(cycle32):
    # Sigma |lambda| / ||A F||_1 stays in one band across seeds
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        F = _random_profile(cycle32, rng)
        dec = atomic_decompose(cycle32, F)
        ratios.append(sum_abs_lambda(dec) / lp_norm(cycle32, tent_functional(cycle32, F), 1))
    assert max(ratios) / min(ratios) <= 20.0


def test_lmax_doubling_stability(cycle16, rng):
    f = random_mean_zero(cycle16, rng)
    res = []
    for lmax in (64, 128):
        F = truncated_profile(cycle16, f, 1.0, lmax)
        res.append(tent_residual(F, atomic_decompose(cycle16, F)))
    assert res[1] <= res[0] + 1e-14


def test_eta_coefficients():
    np.testing.assert_allclose(eta_coefficients(1, 6), np.ones(6))
    np.testing.assert_allclose(eta_coefficients(2, 5), [1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        eta_coefficients(0, 3)


def test_eta_coefficients_closed_form_against_the_recurrence():
    # up to eta = 4 both the product form and the ratio recurrence are
    # exact integers at every level of the benchmark horizons (up to
    # 21,561 levels); from eta = 5 the recurrence rounds past 2^53 at
    # every step and drifts, while the product form rounds a few times
    count = 21_561
    for eta in (1, 2, 3, 4):
        assert np.array_equal(eta_coefficients(eta, count),
                              eta_coefficients_recurrence(eta, count))
    for eta in (5, 6, 8):
        exact = np.array([float(math.comb(l + eta - 1, eta - 1)) for l in range(count)])
        closed = np.abs(eta_coefficients(eta, count) - exact) / exact
        recurrence = np.abs(eta_coefficients_recurrence(eta, count) - exact) / exact
        assert closed.max() < recurrence.max()
        assert closed.max() <= 4 * np.finfo(float).eps


def test_pi_synthesis_single_level(cycle16, rng):
    f = rng.standard_normal(cycle16.n)
    vals = np.zeros((cycle16.n, 1))
    vals[:, 0] = f
    out = pi_synthesis(cycle16, SpaceTimeFunction(cycle16, vals), 1, 1.0)
    np.testing.assert_allclose(out, f + apply_P(cycle16, f), atol=1e-12)


def test_pi_synthesis_l2_bounded(cycle16, rng):
    worst = 0.0
    for _ in range(5):
        vals = rng.standard_normal((cycle16.n, 40))
        F = SpaceTimeFunction(cycle16, vals)
        out = pi_synthesis(cycle16, F, 3, 1.0)
        worst = max(worst, lp_norm(cycle16, out, 2) / t22_norm(F))
    assert math.isfinite(worst) and worst < 50.0


def test_pi_synthesis_reproduces(cycle16, rng):
    # pipeline identity: pi applied to the heat profile returns f
    f = random_mean_zero(cycle16, rng)
    d0 = cached_geometry(cycle16).d0_estimate
    eta = synthesis_eta(1, 1.0, 1.0, d0)
    l_max = pipeline_l_max(cycle16, eta, 1e-6, lp_norm(cycle16, f, 2))
    F = truncated_profile(cycle16, f, 1.0, l_max)
    out = pi_synthesis(cycle16, F, eta, 1.0)
    assert lp_norm(cycle16, out - f, 2) <= 1e-6


def test_reproducing_l_max_monotone(cycle16):
    n1 = reproducing_l_max(cycle16, 2, 1e-4)
    n2 = reproducing_l_max(cycle16, 2, 1e-8)
    assert n2 >= n1


@functools.lru_cache(maxsize=None)
def _zoo_graph(name):
    if name == "jittered_cycle_16":
        return zoo.random_weights(zoo.lazy_cycle(16), 2)
    return zoo.by_name(name)


@pytest.mark.parametrize("name", ["lazy_torus_24", "lazy_cycle_128",
                                  "binary_tree_4", "lazy_path_9"])
def test_reproducing_l_max_matches_spectrum(name, monkeypatch):
    # the closed form at lambda_star gives the horizon of the loop over
    # every mean-zero eigenvalue; the cap is raised so that the horizon
    # is read at the oracle's lambda_star, which the record raises by
    # n eps only (the horizon at tight tol moves when lambda_star moves
    # by 1e-12)
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 2048)
    g = _zoo_graph(name)
    for eta in (2, 3, 5):
        for tol in (1e-6, 1e-10):
            assert reproducing_l_max(g, eta, tol) == reproducing_l_max_spectrum(g, eta, tol)


@pytest.mark.parametrize("name", ["lazy_cycle_32", "lazy_cycle_64",
                                  "lazy_torus_16", "lazy_torus_32"])
def test_reproducing_l_max_is_the_exact_horizon(name):
    # the closed form's horizon is the one a 50-digit evaluation of the
    # error gives, also at tol 3e-14, where summing the reproducing
    # series level by level loses the last digits to cancellation
    pytest.importorskip("mpmath")
    g = _zoo_graph(name)
    for eta in range(2, 9):
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 3e-14):
            assert reproducing_l_max(g, eta, tol) == reproducing_l_max_mpmath(g, eta, tol)


def test_reproducing_l_max_where_summing_the_levels_cancels():
    # summing 1 - (1 - z)^3 sum_k c_k z^k level by level on
    # lazy_torus_32 meets 3e-14 at level 3,939; the error is first that
    # small at level 3,919
    pytest.importorskip("mpmath")
    g = _zoo_graph("lazy_torus_32")
    assert reproducing_l_max(g, 3, 3e-14) == reproducing_l_max_mpmath(g, 3, 3e-14) == 3919


def test_pipeline_l_max_has_no_cap():
    # binary_tree(11) (n = 4,095) mixes so slowly that its horizon lies
    # past 200,000 levels; the closed form finds it in a few dozen sums
    pytest.importorskip("mpmath")
    g = zoo.binary_tree(11)
    f = random_mean_zero(g, np.random.default_rng(3))
    eta = synthesis_eta(1, 1.0, 1.0, cached_geometry(g).d0_estimate)
    norm = lp_norm(g, f, 2)
    l_max = pipeline_l_max(g, eta, 1e-8, norm)
    assert l_max > 200_000
    assert l_max == reproducing_l_max_mpmath(g, eta, 1e-8 / (2.0 * norm))


def test_reproducing_l_max_needs_eta_at_least_one(cycle16):
    with pytest.raises(ValueError):
        reproducing_l_max(cycle16, 0, 1e-8)


def _assert_same_decomposition(got, want):
    # the pieces, their balls and A F are the same bit for bit; a piece's
    # norm adds the same terms in another order (run by run, then by
    # vertex), so lambda and what divides by it agree to rounding
    close = functools.partial(pytest.approx, rel=1e-14, abs=0.0)
    assert got.t1_norm == want.t1_norm
    assert sum_abs_lambda(got) == close(sum_abs_lambda(want))
    assert len(got.coefficients) == len(want.coefficients)
    for (lam, atom), (lam_ref, ref) in zip(got.coefficients, want.coefficients):
        assert lam == close(lam_ref)
        assert atom.ball.center == ref.ball.center
        assert atom.ball.radius == ref.ball.radius
        assert atom.ball.volume == ref.ball.volume
        assert np.array_equal(atom.ball.mask, ref.ball.mask)
        assert t22_norm(atom.values) == close(t22_norm(ref.values))
        values, ref_values = atom.values.values, ref.values.values
        assert np.array_equal(values != 0.0, ref_values != 0.0)
        np.testing.assert_allclose(values, ref_values, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", ["lazy_torus_6", "lazy_cycle_16", "lazy_path_12",
                                  "binary_tree_4", "jittered_cycle_16"])
@pytest.mark.parametrize("profile", ["heat_1", "heat_half", "form"])
def test_atomic_decompose_matches_dense_reference(name, profile):
    g = _zoo_graph(name)
    f = random_mean_zero(g, np.random.default_rng(4))
    eta = synthesis_eta(1, 1.0, 1.0, cached_geometry(g).d0_estimate)
    l_max = pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2))
    if profile == "form":
        F = form_profile(g, divergence(g, differential(g, f)), l_max)
    else:
        F = truncated_profile(g, f, 1.0 if profile == "heat_1" else 0.5, l_max)
    dec = atomic_decompose(g, F)
    assert dec.coefficients
    _assert_same_decomposition(dec, atomic_decompose_dense(g, F))


def test_atomic_decompose_uncovered_entries_match_dense_reference():
    # entries whose tent functional underflows lie in no tent, so the
    # atoms miss them and the residual comes from the coverage mask; the
    # one at (5, 1) keeps a nonzero T^2_2 norm (no division by a ball
    # volume there), so the residual is not 0
    g = zoo.lazy_path(12)
    vals = np.zeros((g.n, 6))
    vals[11, :4] = [1.0, -2.0, 0.5, 3.0]
    vals[0, :4] = 1e-200
    vals[1, 2] = -3e-170
    vals[5, 1] = 3e-162
    F = SpaceTimeFunction(g, vals)
    dec = atomic_decompose(g, F)
    owned = sum(np.count_nonzero(atom.values.rows()) for _, atom in dec.coefficients)
    assert owned < np.count_nonzero(vals)
    # each decomposition refuses a tol just below r, the T^2_2 norm of
    # what its atoms leave out, and accepts one just above it
    r = tent_residual(F, dec)
    assert r > 0.0
    for decompose in (atomic_decompose, atomic_decompose_dense):
        with pytest.raises(NonConvergent, match="tent decomposition residual"):
            decompose(g, F, tol=r * (1.0 - 1e-14))
        decompose(g, F, tol=r * (1.0 + 1e-14))
    _assert_same_decomposition(dec, atomic_decompose_dense(g, F))


def test_atomic_decompose_with_every_term_underflowing_is_all_residual():
    # a nonzero profile whose Lusin terms all underflow has A F = 0, so
    # no level set: no atom, and the residual is F's own T^2_2 norm,
    # which underflows to 0 too, so even tol = 0 passes
    g = zoo.lazy_path(12)
    vals = np.zeros((g.n, 6))
    vals[3, :3] = 1e-200
    F = SpaceTimeFunction(g, vals)
    assert t22_norm(F) == 0.0
    dec = atomic_decompose(g, F, tol=0.0)
    assert dec.coefficients == []
    assert dec.t1_norm == 0.0
    assert atomic_decompose_dense(g, F, tol=0.0).coefficients == []


def _zeros_in_pieces(F):
    """Counts of exact zeros of F in the decomposition's pieces: entries,
    runs (one vertex of one piece) holding only zeros, runs whose last
    level holds 0 above a nonzero entry, and pieces holding only zeros."""
    entries = zero_runs = zero_topped = zero_pieces = 0
    for _, _, ys, ls in tent_pieces_dense(F.graph, F):
        v = F.values[ys, ls]
        entries += int(np.count_nonzero(v == 0.0))
        zero_pieces += not v.any()
        for y in np.unique(ys):
            run = v[ys == y]
            zero_runs += not run.any()
            zero_topped += bool(run[-1] == 0.0 and run.any())
    return entries, zero_runs, zero_topped, zero_pieces


def test_atomic_decompose_runs_ending_in_zeros_match_dense_reference():
    # F lives on two vertices, at levels 4-10 and 21-23 of 0-29: pieces
    # of the low levels away from vertex 1 hold only zeros, and runs at
    # vertex 1 that reach past level 10 end in zeros, so their reach (and
    # one atom's radius) comes from the last nonzero level of the run
    g = zoo.lazy_path(12)
    vals = np.zeros((g.n, 30))
    vals[1, 4:11] = 4.0
    vals[9, 21:24] = 0.5
    F = SpaceTimeFunction(g, vals)
    _, zero_runs, zero_topped, zero_pieces = _zeros_in_pieces(F)
    assert zero_runs and zero_topped and zero_pieces
    dec = atomic_decompose(g, F)
    assert dec.coefficients
    _assert_same_decomposition(dec, atomic_decompose_dense(g, F))


def test_atomic_decompose_ball_sum_on_the_series_path_matches_dense_reference(monkeypatch):
    # on the series path Delta f is exactly 0 where a ball sum is flat,
    # so the low levels of the heat profile hold exact zeros inside the
    # runs of the pieces there
    monkeypatch.setattr(calculus, "ORACLE_MAX_N", 0)
    g = zoo.lazy_torus_2d(8)
    f = np.zeros(g.n)
    f[g.dist[9] < 2] += 1.0
    f[g.dist[44] < 3] -= 1.0
    f -= (g.m @ f) / g.m.sum()
    F = truncated_profile(g, f, 1.0, 80)
    assert _zeros_in_pieces(F)[0]
    dec = atomic_decompose(g, F)
    assert dec.coefficients
    _assert_same_decomposition(dec, atomic_decompose_dense(g, F))


def test_atomic_decompose_memory_is_independent_of_atom_count():
    # the atoms are runs into the one profile: at the pipeline horizon
    # the decomposition peaks below one and a half (n, l_max + 1) arrays
    # (the Lusin terms and small tables), and its atoms together hold a
    # small fraction of one
    g = zoo.lazy_cycle(64)
    f = random_mean_zero(g, np.random.default_rng(0))
    eta = synthesis_eta(1, 1.0, 1.0, cached_geometry(g).d0_estimate)
    F = truncated_profile(g, f, 1.0, pipeline_l_max(g, eta, 1e-8, lp_norm(g, f, 2)))
    atomic_decompose(g, F)  # fills the metric and volume caches
    tracemalloc.start()
    try:
        dec = atomic_decompose(g, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.coefficients) > 3
    assert peak < 1.5 * F.values.nbytes
    held = sum(a.values.verts.nbytes + a.values.lo.nbytes + a.values.hi.nbytes
               for _, a in dec.coefficients)
    assert all(a.values.profile is F.values for _, a in dec.coefficients)
    assert held < F.values.nbytes / 10


def test_tent_atom_entries_round_trip(cycle16):
    # a dense atom is kept as its runs, one row per vertex holding an
    # entry, and the dense view gives the array back
    b = ball(cycle16, 3, 2)
    vals = np.where(tent_mask(cycle16, b.mask, 8), 0.25, 0.0)
    vals[3, 1] = 0.0
    atom = tent_atom(b, SpaceTimeFunction(cycle16, vals))
    e = atom.values
    assert isinstance(e, SpaceTimeEntries)
    assert np.array_equal(e.verts, np.flatnonzero(vals.any(axis=1)))
    assert np.count_nonzero(e.rows()) == np.count_nonzero(vals)
    assert np.array_equal(e.values, vals)
    assert e.top == top_level(vals)
    assert t22_norm(e) == pytest.approx(t22_norm(SpaceTimeFunction(cycle16, vals)), rel=1e-14)
    # the atom conditions check the support entry by entry; both are
    # scaled to the size bound ||A||_{T^2_2}^2 = 1/V(B), so only the
    # support differs
    def normalized(v):
        F = SpaceTimeFunction(cycle16, v)
        return SpaceTimeFunction(cycle16, v / (t22_norm(F) * math.sqrt(b.volume)))
    assert is_tent_atom(tent_atom(b, normalized(vals)))
    outside = vals.copy()
    outside[0, 0] = 1.0
    assert not is_tent_atom(tent_atom(b, normalized(outside)))


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs(), st.integers(0, 2 ** 32 - 1))
def test_whitney_owner_is_first_ball_containing_the_vertex(g, seed):
    # the owners recorded while covering equal the reverse assignment
    # over the selected balls, which leaves each vertex to the first
    # ball that contains it
    inside = np.random.default_rng(seed).random(g.n) < 0.6
    inside[0], inside[-1] = True, False
    rho = level_set_depths(g, inside, [0])[0]
    centers, radii, owner = tentspace._whitney_balls(g, rho)
    first = np.full(g.n, -1)
    for i in reversed(range(len(centers))):
        first[g.dist[centers[i]] < radii[i]] = i
    assert np.array_equal(owner, first)
    assert np.all(owner[inside] >= 0)
