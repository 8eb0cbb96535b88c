"""The one product with P: `operators.markov_step` calls scipy's private
CSR kernels on the arrays of the Markov matrix, so it is pinned here bit
for bit against `markov_matrix(g) @ x` (a scipy upgrade that changes the
kernels fails these tests), and every walk built on it is pinned on its
product count."""

import tracemalloc

import numpy as np
import pytest
from oracles import (chebyshev_terms, counting_markov, entries_of, form_profile, graphs,
                     truncated_profile)

from graphhardy import operators, zoo
from graphhardy.graphs import build_graph
from graphhardy.calculus import delta_power_apply
from graphhardy.hardy import heat_profile
from graphhardy.operators import (
    LEVEL_CHUNK,
    apply_P,
    chebyshev_blocks,
    delta_steps,
    heat_sweep,
    horner,
    level_blocks,
    markov_matrix,
    markov_step,
    spectral_interval,
)
from graphhardy.quadratic import SpaceTimeFunction, default_l_max
from graphhardy.tentspace import horner_synthesis

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


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
            heat_sweep(cycle16, bad, [0, 1])


def test_walks_count_one_product_per_step():
    g = zoo.lazy_cycle(16)
    W = counting_markov(g)
    f = np.random.default_rng(1).standard_normal((g.n, 3))
    apply_P(g, f, 4)
    assert W.products == 4
    W.products = 0
    assert sum(len(b) for _, b in level_blocks(g, f, 9)) == 10 and W.products == 9
    W.products = 0
    assert sum(len(b) for _, b in chebyshev_blocks(g, f, 9)) == 10 and W.products == 9


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("shape", [(), (4,)])
def test_delta_steps_work_in_place(k, shape):
    # Delta^k X is k exact steps X -= P X on X itself, bit for bit the
    # loop x = x - P x, with exactly k products; k = 0 changes nothing
    g = zoo.random_weights(zoo.lazy_torus_2d(5), 4)
    X = np.random.default_rng(6).standard_normal((g.n,) + shape)
    want = X.copy()
    for _ in range(k):
        want = want - apply_P(g, want)
    W = counting_markov(g)
    assert delta_steps(g, X, k) is X
    assert W.products == k
    assert np.array_equal(X, want)


@pytest.mark.parametrize("levels", [1, 2, LEVEL_CHUNK, LEVEL_CHUNK + 1, 2 * LEVEL_CHUNK + 3])
def test_weighted_powers_match_the_loop(levels):
    # the heat profile's stored level l is the weighted power
    # (l + 1)^beta P^l u, u = Delta^beta f, bit for bit the loop, across
    # chunk boundaries, with exactly levels - 1 products (Delta^beta is
    # the oracle's, which makes none); f itself is left untouched
    g = zoo.random_weights(zoo.lazy_torus_2d(5), 4)
    f = np.random.default_rng(2).standard_normal(g.n)
    keep = f.copy()
    u = delta_power_apply(g, f, 0.5)
    W = counting_markov(g)
    got = truncated_profile(g, f, 0.5, levels - 1).values
    assert W.products == levels - 1
    want = np.empty((g.n, levels))
    for l in range(levels):
        want[:, l] = (l + 1.0) ** 0.5 * u
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
    got = counted(lambda: heat_sweep(g, f, range(L + 1)))
    assert got.shape == (g.n, L + 1) + shape[1:]
    for l in range(L + 1):
        assert _same_bits(got[:, l], want[l])
    s = [L, L // 2, 0, L, min(1, L), L // 2]  # unsorted, with repeats
    got = counted(lambda: heat_sweep(g, f, s))
    assert got.shape == (g.n, len(s)) + shape[1:]
    for j, t in enumerate(s):
        assert _same_bits(got[:, j], want[t])


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("s", [range(3, 12), range(7, 8), range(8, 20),
                               [11, 2, 7, 7, 0, 5], [9, 4]])
def test_heat_sweep_copies_both_kinds_of_times(monkeypatch, width, s):
    # consecutive times are copied a slice of each chunk at a time, others
    # through an index; chunks of 5 levels, so a run of times may start
    # past the first chunk or cross a chunk's end, and both kinds give
    # repeated markov_step bit for bit from one walk to the last time
    g = zoo.random_weights(zoo.lazy_torus_2d(4), 9)
    shape = (g.n,) if width is None else (g.n, width)
    monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", 5 * g.n * (width or 1))
    f = np.random.default_rng(13).standard_normal(shape)
    want = [f]
    for _ in range(max(s)):
        want.append(markov_step(g, want[-1]))
    calls = g.matvec_calls
    got = heat_sweep(g, f, s)
    assert g.matvec_calls - calls == max(s)
    assert got.shape == (g.n, len(s)) + shape[1:]
    for j, t in enumerate(s):
        assert _same_bits(got[:, j], want[t])


def _unsorted_rows(g):
    # W keeps the entry order of its product, so the chain's copies must
    # keep it too: a sorted row adds its terms in another order
    W = markov_matrix(g)
    return any(np.any(np.diff(W.indices[a:b]) < 0) for a, b in zip(W.indptr, W.indptr[1:]))


def _walk(g, f, L):
    """P^0 f ... P^L f, each level a copy, from `level_blocks`."""
    return [row.copy() for _, rows in level_blocks(g, f, L) for row in rows]


# (chain, L): a chain of 3 levels, which divides neither the chunk of 64
# levels nor one of 5, and a chain of a single level, with L at the
# chain's and the chunks' boundaries
CHAINS = [(c, L) for c in (3, 1) for L in (1, 2, 3, 4, 5, 6, 7, 63, 64, 65, 129)]


@pytest.mark.parametrize("chain, L", CHAINS)
@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("chunk", [LEVEL_CHUNK, 5])
def test_chained_walk_is_bit_identical(monkeypatch, chain, L, width, chunk):
    # one kernel call walks up to `chain` levels, its output one level
    # ahead of its input; every level is still one markov_step, and the
    # products are counted as one per level of width columns
    g = zoo.random_weights(zoo.lazy_torus_2d(4), 11)
    assert _unsorted_rows(g)
    k = width or 1
    monkeypatch.setattr(operators, "CHAIN_ENTRIES", chain * markov_matrix(g).nnz)
    monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", chunk * g.n * k)
    shape = (g.n,) if width is None else (g.n, width)
    f = np.random.default_rng(12).standard_normal(shape)
    want = [f]
    for _ in range(L):
        want.append(markov_step(g, want[-1]))
    calls, cols = g.matvec_calls, g.matvec_cols
    got = _walk(g, f, L)
    assert operators._chain(g, "walk")[0] == chain
    assert (g.matvec_calls - calls, g.matvec_cols - cols) == (L, L * k)
    assert len(got) == L + 1
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def _prefilled_scan(g, U):
    """sum_k P^k U[:, k] by the loop acc <- the counted step of acc added
    into a copy of U[:, k]: U[:, k] first, then the products in the
    kernel's row order, as the Horner scan adds them."""
    K = U.shape[1]
    acc = U[:, K - 1].copy() if K else np.zeros(g.n)
    for k in range(K - 2, -1, -1):
        acc = operators._kernel_step(g, markov_matrix(g), acc, U[:, k].copy())
    return acc


@pytest.mark.parametrize("chain", [1, 2, 3])
@pytest.mark.parametrize("K", [0, 1, 2, 3, 4, 7, LEVEL_CHUNK - 1, LEVEL_CHUNK + 1, LEVEL_CHUNK + 2,
                               2 * LEVEL_CHUNK + 5])
def test_chained_horner_is_bit_identical(monkeypatch, chain, K):
    # the scan walks the level chain of `chain` steps of W into rows
    # pre-filled with U's columns; across the chain's boundaries and the
    # chunk's (of 64 or 5 levels), it is the pre-filled loop bit for bit,
    # with max(K - 1, 0) products
    g = zoo.random_weights(zoo.lazy_cycle(12), 7)
    assert _unsorted_rows(g)
    monkeypatch.setattr(operators, "CHAIN_ENTRIES", chain * markov_matrix(g).nnz)
    U = np.random.default_rng(13).standard_normal((g.n, K))
    for chunk in (LEVEL_CHUNK, 5):
        monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", chunk * g.n)
        calls, cols = g.matvec_calls, g.matvec_cols
        got = horner(g, U)
        assert (g.matvec_calls - calls, g.matvec_cols - cols) == (max(K - 1, 0),) * 2
        if K > 1:
            assert operators._chain(g, "walk")[0] == chain
        assert _same_bits(got, _prefilled_scan(g, U)), chunk


def test_chains_stay_with_their_graph():
    # each graph walks on its own chain: walks on two graphs of different
    # sizes, interleaved level by level, match their own markov_step
    graphs = [zoo.random_weights(zoo.lazy_torus_2d(4), 1), zoo.random_weights(zoo.lazy_cycle(9), 2)]
    rng = np.random.default_rng(14)
    fs = [rng.standard_normal(g.n) for g in graphs]
    walks = [level_blocks(g, f, 150) for g, f in zip(graphs, fs)]
    seen = [[], []]
    for _ in range(3):
        for i, walk in enumerate(walks):
            seen[i] += [row.copy() for row in next(walk)[1]]
            U = rng.standard_normal((graphs[i].n, 70))
            assert _same_bits(horner(graphs[i], U), _prefilled_scan(graphs[i], U))
    for g, f, levels in zip(graphs, fs, seen):
        assert len(levels) == 151
        u = f
        for level in levels:
            assert _same_bits(level, u)
            u = markov_step(g, u)


def test_kernel_reads_what_it_has_just_written():
    # The chained walk passes scipy's kernel its output one level ahead of
    # its input, both views of one buffer, and relies on the kernel
    # writing each row before it reads the rows after it, in place.  A
    # scipy that copied an operand would leave level 2 at P 0 = 0.
    g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 0, 0.5), (2, 2, 1.5)])
    f = np.array([1.0, -2.0, 3.0])
    levels = _walk(g, f, 2)
    assert operators._chain(g, "walk")[0] >= 2
    want = markov_step(g, markov_step(g, f))
    assert _same_bits(levels[2], want), (
        "scipy's CSR kernel no longer updates an aliased operand in place; "
        "the chained level walk (operators._kernel) needs per-step calls")


def test_kernel_adds_into_its_output_row():
    # The Horner scan pre-fills each level with its U column and relies on
    # the kernel adding the product into that row (y[i] += ...).  On a
    # dyadic walk with integer U every sum is exact, so the scan must give
    # the exact sum_k P^k U[:, k] whatever its order.
    g = zoo.lazy_cycle(4)
    U = np.arange(12.0).reshape(4, 3) - 5.0
    W = markov_matrix(g).toarray()
    want = U[:, 0] + W @ (U[:, 1] + W @ U[:, 2])
    assert _same_bits(horner(g, U), want), (
        "scipy's CSR kernel no longer adds into its output row; the Horner "
        "scan (operators.horner) pre-fills the rows with U and would drop it")


def _terms(g, f, N, interval=(-1.0, 1.0)):
    """T_0(X) f ... T_N(X) f, each a copy, from `chebyshev_blocks`."""
    return [t.copy() for _, block in chebyshev_blocks(g, f, N, interval) for t in block]


CHEBYSHEV_GRAPHS = {"cycle64": lambda: zoo.lazy_cycle(64), "torus48": lambda: zoo.lazy_torus_2d(48)}


@pytest.mark.parametrize("name", sorted(CHEBYSHEV_GRAPHS))
@pytest.mark.parametrize("shape", [(), (1,), (3,)])
@pytest.mark.parametrize("chunk", [LEVEL_CHUNK, 5, 1])
def test_chained_chebyshev_is_bit_identical(monkeypatch, name, shape, chunk):
    # On [-1, 1] the chain's step [-I | 2W] doubles each product exactly
    # and halves the first, so every term is the reference recurrence's
    # bit for bit: across the chain's boundaries (64 copies of the step
    # on the cycle, one on the torus) and the chunk's (of 64, 5 or 1
    # levels), for a vector, a one-column block and a block, with exactly
    # N products of its width
    g = CHEBYSHEV_GRAPHS[name]()
    f = np.random.default_rng(15).standard_normal((g.n,) + shape)
    monkeypatch.setattr(operators, "ROW_BLOCK_ENTRIES", chunk * f.size)
    chain = operators._chain(g, (-1.0, 1.0))[0]
    assert chain == (LEVEL_CHUNK if name == "cycle64" else 1)
    k = shape[0] if shape else 1
    for N in sorted({0, 1, 2, chain - 1, chain, chain + 1, LEVEL_CHUNK - 1, LEVEL_CHUNK + 1}):
        calls, cols = g.matvec_calls, g.matvec_cols
        got = _terms(g, f, N)
        assert (g.matvec_calls - calls, g.matvec_cols - cols) == (N, N * k)
        want = list(chebyshev_terms(g, f, N))
        assert len(got) == N + 1
        assert all(_same_bits(a, b) for a, b in zip(got, want)), N


@pytest.mark.parametrize("name", sorted(CHEBYSHEV_GRAPHS))
def test_chebyshev_on_the_certified_interval(name):
    # on the lazy fixtures [lo, hi] is [0, 1] widened by a few ulps with
    # lo + hi = 1 exactly, so X = 2P - I scaled has no diagonal: the step
    # [-I | 2X] holds the non-lazy walk's entries and -I, and its terms
    # are the reference recurrence's within 1e-14 of ||f||
    g = CHEBYSHEV_GRAPHS[name]()
    lo, hi = spectral_interval(g)
    assert lo < 0.0 < hi - 1.0 and lo + hi == 1.0 and hi - 1.0 < 1e-14
    _, indptr, _, _ = operators._chain(g, (lo, hi))
    assert indptr[1] - indptr[0] == g.max_degree  # degree - 1 walk entries, and -I
    f = np.random.default_rng(16).standard_normal((g.n, 2))
    norm = np.sqrt(g.m @ f ** 2)
    for N in (0, 1, 2, LEVEL_CHUNK - 1, LEVEL_CHUNK + 1):
        calls = g.matvec_calls
        got = _terms(g, f, N, (lo, hi))
        assert g.matvec_calls - calls == N
        for a, b in zip(got, chebyshev_terms(g, f, N, (lo, hi)), strict=True):
            assert np.all(np.sqrt(g.m @ (a - b) ** 2) <= 1e-14 * norm), N


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_chains_keep_the_index_type(index):
    # scipy's kernel converts index arrays of another type than indptr's
    # on every call, so every chain keeps W's index type
    g = zoo.random_weights(zoo.lazy_cycle(9), 3)
    W = markov_matrix(g).copy()
    W.indices, W.indptr = W.indices.astype(index), W.indptr.astype(index)
    g._markov = W
    for kind in ("walk", spectral_interval(g)):
        _, indptr, indices, _ = operators._chain(g, kind)
        assert indptr.dtype == indices.dtype == index, kind


def test_level_walk_yields_nothing_below_level_zero():
    g = zoo.lazy_cycle(8)
    assert list(level_blocks(g, np.ones(g.n), -1)) == []
    assert heat_sweep(g, np.ones(g.n), []).shape == (g.n, 0)
    assert list(chebyshev_blocks(g, np.ones(g.n), -1)) == []
    assert g.matvec_calls == 0


@pytest.mark.parametrize("K", [0, 1, 7, 40])
def test_horner_matches_the_loop(K):
    # bit for bit the pre-filled loop, and within 1e-15 of the loop that
    # adds U[:, k] after the product
    g = zoo.random_weights(zoo.lazy_cycle(12), 6)
    U = np.random.default_rng(3).standard_normal((g.n, K))
    W = counting_markov(g)
    got = horner(g, U)
    assert W.products == max(K - 1, 0)
    assert _same_bits(got, _prefilled_scan(g, U))
    acc = np.zeros(g.n)
    for k in range(K - 1, -1, -1):
        acc = markov_matrix(g) @ acc + U[:, k]
    assert np.linalg.norm(got - acc) <= 1e-15 * np.linalg.norm(acc)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_profiles_make_l_max_products(beta):
    # on the oracle path Delta^beta costs no product, so the profile walk
    # makes exactly l_max: the stored levels of a profile with its tail
    # (diam^2 + 1 = 65 here; the tail applies no product until it is
    # read) and those of a truncated one
    g = zoo.lazy_cycle(16)
    f = np.random.default_rng(4).standard_normal(g.n)
    f -= f.mean()
    W = counting_markov(g)
    assert heat_profile(g, f, beta).l_max == default_l_max(g) == 65
    assert W.products == 65
    W.products = 0
    form_profile(g, f)
    assert W.products == 65
    W.products = 0
    truncated_profile(g, f, beta, 57)
    assert W.products == 57
    W.products = 0
    form_profile(g, f, 130)
    assert W.products == 130


def test_horner_synthesis_scan_makes_top_products():
    g = zoo.lazy_cycle(16)
    vals = np.zeros((g.n, 50))
    vals[:, :23] = np.random.default_rng(5).standard_normal((g.n, 23))
    entries = entries_of(SpaceTimeFunction(g, vals))
    assert entries.top == 23
    W = counting_markov(g)
    # eta = 3 factors of (I + P), exp = 2 of Delta, then top - 1 = 22
    horner_synthesis(g, [entries], 3, 1.0, 2)
    assert W.products == 3 + 2 + 22


def test_profile_walk_keeps_one_profile():
    # the walk writes into the profile it returns and the weights scale
    # it in place: no second (n, l_max + 1) array, only LEVEL_CHUNK rows
    # beside it (the spectral oracle of Delta^beta is built before)
    g = zoo.lazy_torus_2d(16)
    f = np.random.default_rng(6).standard_normal(g.n)
    l_max = 2000
    delta_power_apply(g, f, 1.0)
    tracemalloc.start()
    try:
        truncated_profile(g, f, 1.0, l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    profile = g.n * (l_max + 1) * 8
    assert peak < 1.25 * profile
