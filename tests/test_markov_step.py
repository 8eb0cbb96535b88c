"""The one product with P: `operators.markov_step` calls scipy's private
CSR kernels on the arrays of the Markov matrix, so it is pinned here bit
for bit against `markov_matrix(g) @ x` (a scipy upgrade that changes the
kernels fails these tests), and every walk built on it is pinned on its
product count."""

import tracemalloc

import numpy as np
import pytest
from oracles import counting_markov

from graphhardy import operators, zoo
from graphhardy.graphs import build_graph
from graphhardy.hardy import form_profile, heat_profile
from graphhardy.operators import (
    LEVEL_CHUNK,
    apply_P,
    chebyshev,
    heat_sweep,
    horner,
    level_blocks,
    markov_matrix,
    markov_step,
    powers,
    weighted_powers,
)
from graphhardy.quadratic import SpaceTimeFunction
from graphhardy.tentspace import SpaceTimeEntries, horner_synthesis

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BASES = {
    "cycle9": lambda: zoo.lazy_cycle(9),
    "path7": lambda: zoo.lazy_path(7),
    "torus4": lambda: zoo.lazy_torus_2d(4),
    "tree3": lambda: zoo.binary_tree(3),
}


@st.composite
def graphs(draw):
    """A jittered zoo graph, or a random tree with loops on a random
    subset of its vertices (at least one, so the walk is aperiodic)."""
    if draw(st.booleans()):
        base = BASES[draw(st.sampled_from(sorted(BASES)))]()
        return zoo.random_weights(base, draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(2, 24))
    weight = st.floats(0.1, 10.0)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight)) for v in range(1, n)]
    loops = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return build_graph(edges + [(x, x, draw(weight)) for x in loops])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs(), st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_step_is_bit_identical_to_scipy(g, seed, k):
    rng = np.random.default_rng(seed)
    W = markov_matrix(g)
    X = rng.standard_normal((g.n, 2 * k))
    cases = [
        X[:, 0].copy(),                 # vector
        X[:, :k].copy(),                # (n, k) block
        X[:, :1].copy(),                # one-column block
        X[:, 1],                        # non-contiguous vector
        X[:, ::2],                      # non-contiguous column slice
        np.asfortranarray(X[:, :k]),    # Fortran-ordered block
    ]
    for x in cases:
        assert _same_bits(markov_step(g, x), W @ x)
    # int64 indices dispatch to the other instance of the kernel
    W64 = W.copy()
    W64.indices = W.indices.astype(np.int64)
    W64.indptr = W.indptr.astype(np.int64)
    g._markov = W64
    for x in cases:
        assert _same_bits(markov_step(g, x), W @ x)
        assert _same_bits(markov_step(g, x), W64 @ x)


def test_step_counts_calls_and_columns():
    g, other = zoo.lazy_cycle(16), zoo.lazy_cycle(16)
    markov_step(g, np.ones(g.n))
    markov_step(g, np.ones((g.n, 5)))
    markov_step(g, np.ones((g.n, 1)))
    assert (g.matvec_calls, g.matvec_cols) == (3, 7)
    assert (other.matvec_calls, other.matvec_cols) == (0, 0)


def test_step_rejects_a_foreign_shape(cycle16):
    # the kernel indexes raw buffers, so a wrong operand must never reach it
    for bad in (np.ones(15), np.ones((17, 2)), np.ones((16, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError):
            markov_step(cycle16, bad)
        with pytest.raises(ValueError):
            next(level_blocks(cycle16, bad, 3))
        with pytest.raises(ValueError):
            weighted_powers(cycle16, bad, [1.0, 1.0])


def test_walks_count_one_product_per_step():
    g = zoo.lazy_cycle(16)
    W = counting_markov(g)
    f = np.random.default_rng(1).standard_normal((g.n, 3))
    apply_P(g, f, 4)
    assert W.products == 4
    W.products = 0
    assert len(list(powers(g, f, 9))) == 10 and W.products == 9
    W.products = 0
    assert len(list(chebyshev(g, f, 9))) == 10 and W.products == 9


@pytest.mark.parametrize("levels", [1, 2, LEVEL_CHUNK, LEVEL_CHUNK + 1, 2 * LEVEL_CHUNK + 3])
def test_weighted_powers_match_the_loop(levels):
    # column l is weights[l] P^l f bit for bit, across chunk boundaries,
    # with exactly levels - 1 products; f itself is left untouched
    g = zoo.random_weights(zoo.lazy_torus_2d(5), 4)
    f = np.random.default_rng(2).standard_normal(g.n)
    keep = f.copy()
    weights = [(l + 1.0) ** 0.5 for l in range(levels)]
    W = counting_markov(g)
    got = weighted_powers(g, f, weights)
    assert W.products == levels - 1
    want = np.empty((g.n, levels))
    u = f
    for l, w in enumerate(weights):
        want[:, l] = w * u
        u = markov_matrix(g) @ u
    assert _same_bits(got, want) and got.flags.c_contiguous
    assert np.array_equal(f, keep)


# (chunk, L): the chunk sizes of the level walk (LEVEL_CHUNK on a small
# graph, and smaller ones that a smaller ROW_BLOCK_ENTRIES forces, a
# single level per chunk included) at L in {0, 1, chunk - 1, chunk,
# chunk + 1}
WALKS = [(c, L) for c in (LEVEL_CHUNK, 5, 1) for L in sorted({0, 1, c - 1, c, c + 1})]


@pytest.mark.parametrize("chunk, L", WALKS)
@pytest.mark.parametrize("width", [None, 3])
def test_level_walk_consumers_are_bit_identical(monkeypatch, chunk, L, width):
    # The heat profile feeds the tent decomposition, whose molecule counts
    # are pinned to the rounding of P^l f: a walk that rounds one level
    # differently changes which entries are exactly zero and so how many
    # molecules come out.  So every consumer of the walk is pinned bit
    # for bit to repeated markov_step, and to exactly L counted products
    # of width columns.
    g = zoo.random_weights(zoo.lazy_torus_2d(4), 9)
    k = width or 1
    monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", chunk * g.n * k)
    shape = (g.n,) if width is None else (g.n, width)
    f = np.random.default_rng(10).standard_normal(shape)
    want = [f]
    for _ in range(L):
        want.append(markov_step(g, want[-1]))

    def counted(walk):
        calls, cols = g.matvec_calls, g.matvec_cols
        out = walk()
        assert (g.matvec_calls - calls, g.matvec_cols - cols) == (L, L * k)
        return out

    def overwritten():
        # a consumer may overwrite each chunk, as lusin squares it in place
        out = []
        for lo, rows in level_blocks(g, f, L):
            out.append((lo, rows.copy()))
            rows.fill(np.nan)
        return out

    seen = []
    for lo, rows in counted(overwritten):
        assert lo == len(seen) and 1 <= len(rows) <= chunk
        seen += list(rows)
    assert len(seen) == L + 1
    assert all(_same_bits(a, b) for a, b in zip(seen, want))
    assert all(_same_bits(a, b) for a, b in zip(counted(lambda: list(powers(g, f, L))), want))
    weights = np.linspace(0.5, 2.0, L + 1)
    got = counted(lambda: weighted_powers(g, f, weights))
    assert got.shape == (g.n, L + 1) + shape[1:]
    for l in range(L + 1):
        assert _same_bits(got[:, l], weights[l] * want[l])
    s = [L, L // 2, 0, L, min(1, L), L // 2]  # unsorted, with repeats
    got = counted(lambda: heat_sweep(g, f, s))
    assert got.shape == (g.n, len(s)) + shape[1:]
    for j, t in enumerate(s):
        assert _same_bits(got[:, j], want[t])


def test_level_walk_yields_nothing_below_level_zero():
    g = zoo.lazy_cycle(8)
    assert list(level_blocks(g, np.ones(g.n), -1)) == []
    assert list(powers(g, np.ones(g.n), -1)) == []
    assert weighted_powers(g, np.ones(g.n), []).shape == (g.n, 0)
    assert g.matvec_calls == 0


@pytest.mark.parametrize("K", [0, 1, 7, 40])
def test_horner_matches_the_loop(K):
    g = zoo.random_weights(zoo.lazy_cycle(12), 6)
    U = np.random.default_rng(3).standard_normal((g.n, K))
    W = counting_markov(g)
    got = horner(g, U)
    assert W.products == max(K - 1, 0)
    acc = np.zeros(g.n)
    for k in range(K - 1, -1, -1):
        acc = markov_matrix(g) @ acc + U[:, k]
    assert _same_bits(got, acc)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_profiles_make_l_max_products(beta):
    # on the oracle path Delta^beta costs no product, so the profile walk
    # makes exactly l_max
    g = zoo.lazy_cycle(16)
    f = np.random.default_rng(4).standard_normal(g.n)
    f -= f.mean()
    W = counting_markov(g)
    heat_profile(g, f, beta, 57)
    assert W.products == 57
    W.products = 0
    form_profile(g, f, 130)
    assert W.products == 130


def test_horner_synthesis_scan_makes_top_products():
    g = zoo.lazy_cycle(16)
    vals = np.zeros((g.n, 50))
    vals[:, :23] = np.random.default_rng(5).standard_normal((g.n, 23))
    entries = SpaceTimeEntries.of(SpaceTimeFunction(g, vals))
    assert entries.top == 23
    W = counting_markov(g)
    # eta = 3 factors of (I + P), exp = 2 of Delta, then top - 1 = 22
    horner_synthesis(g, [entries], 3, 1.0, 2)
    assert W.products == 3 + 2 + 22


def test_profile_walk_keeps_one_profile():
    # the walk writes into the profile it returns: no second
    # (n, l_max + 1) array, only LEVEL_CHUNK rows beside it
    g = zoo.lazy_torus_2d(16)
    f = np.random.default_rng(6).standard_normal(g.n)
    l_max = 2000
    weights = [(l + 1.0) ** 1.0 for l in range(l_max + 1)]
    tracemalloc.start()
    try:
        weighted_powers(g, f, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    profile = g.n * (l_max + 1) * 8
    assert peak < 1.25 * profile
