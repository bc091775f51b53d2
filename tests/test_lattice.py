import itertools
from collections import OrderedDict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bfs_distances,
    brute_glb,
    brute_lub,
    cover_matrix,
    covered_by_elimination,
    covers_by_containment,
    covers_by_elimination,
    gamma_by_elements,
    graph_distances_by_bool_products,
    leq_matrix,
    multiplicity_oracle,
    poset_elements,
    random_multiset,
    random_multispace,
    regularity_by_int64_products,
    span_rows,
)
from multispace import lattice, linalg
from multispace.channel import random_full_rank
from multispace.errors import FormatError, LimitExceeded, RankZero
from multispace.fields import field
from multispace.lattice import (
    MASK_VECTORS,
    GammaGraph,
    Multispace,
    VectorMultiset,
    _WordStack,
    count_covered,
    count_covering,
    count_multispaces,
    covered_neighbors,
    covering_neighbors,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    gamma_graph,
    gaussian_binomial,
    hasse_dot,
    hasse_edges,
    is_distance_regular,
    join,
    meet,
    mspan,
    multiset_leq,
    pairwise_distances,
    span,
)
from multispace.linalg import Subspace, _pad_stack, matmul_arrays, subspace_distance

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F16 = field(2, 4)
FIELDS = {2: F2, 3: F3, 4: F4}

E1, E2 = np.eye(3, dtype=np.int64)[:2]


# ---------------------------------------------------------------------------
# mspan and the multiplicity oracle
# ---------------------------------------------------------------------------

def test_mspan_two_zero_vectors():
    w = mspan(VectorMultiset(F2, 3, [[0, 0, 0], [0, 0, 0]]))
    assert w.dim == 0 and w.height == 2 and w.rank == 2
    assert w.multiplicity() == 4


def test_mspan_dependent_triple():
    w = mspan(VectorMultiset(F2, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    assert (w.dim, w.height, w.rank) == (2, 1, 3)


def test_mspan_empty_is_bottom():
    w = mspan(VectorMultiset(F2, 3, []))
    assert w == Multispace.bottom(F2, 3)
    assert w.size() == 1


def test_multiplicity_oracle_single_vector():
    mu = multiplicity_oracle(VectorMultiset(F2, 2, [[1, 0]]))
    assert mu == {(0, 0): 1, (1, 0): 1}


def test_multiplicity_oracle_repeated_vector():
    mu = multiplicity_oracle(VectorMultiset(F2, 2, [[1, 0], [1, 0]]))
    assert mu == {(0, 0): 2, (1, 0): 2}


def test_multiplicity_oracle_support_is_span():
    rng = np.random.default_rng(3)
    for ctx in (F2, F3):
        for _ in range(10):
            b = random_multiset(ctx, 3, int(rng.integers(0, 5)), rng)
            mu = multiplicity_oracle(b)
            support = set(mu)
            spanned = {tuple(r) for r in span(b).vector_array()}
            assert support == spanned
            assert sum(mu.values()) == ctx.q ** len(b)


def test_mspan_agrees_with_oracle():
    rng = np.random.default_rng(5)
    for ctx in (F2, F3, F4):
        for _ in range(25):
            m = int(rng.integers(0, 6))
            if ctx.q ** m > 1 << 12:
                continue
            b = random_multiset(ctx, int(rng.integers(1, 4)), m, rng)
            w = mspan(b)
            mu = multiplicity_oracle(b)
            mults = set(mu.values())
            assert mults == {ctx.q ** w.height}
            assert len(mu) == ctx.q ** w.dim


def test_multiplicity_oracle_limit():
    with pytest.raises(LimitExceeded):
        multiplicity_oracle(VectorMultiset(F2, 2, np.zeros((25, 2), dtype=int)))


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def test_meet_examples():
    a = Multispace(span_rows(F2, E1), 0)
    b = Multispace(Subspace.zero(F2, 3), 1)
    bottom = Multispace.bottom(F2, 3)
    assert meet(a, a) == a
    assert meet(a, b) == bottom  # {0, e1} cap {0, 0} = {0}
    assert meet(a, bottom) == bottom


def test_join_examples():
    bottom = Multispace.bottom(F2, 3)
    a = Multispace(span_rows(F2, E1), 0)
    b = Multispace(span_rows(F2, E2), 1)
    assert join(a, bottom) == a
    j = join(a, b)
    assert j == Multispace(span_rows(F2, E1, E2), 1) and j.rank == 3


def test_rank_valuation_random():
    rng = np.random.default_rng(9)
    for ctx in (F2, F3):
        for _ in range(40):
            a = random_multispace(ctx, 3, rng)
            b = random_multispace(ctx, 3, rng)
            assert meet(a, b).rank + join(a, b).rank == a.rank + b.rank


def test_distance_examples():
    a = Multispace(span_rows(F2, E1), 0)
    b = Multispace(Subspace.zero(F2, 3), 1)
    assert distance(a, a) == 0
    assert distance(a, b) == 2
    # height-0 pairs: plain subspace distance
    rng = np.random.default_rng(1)
    for _ in range(20):
        s1 = Multispace(span_rows(F2, rng.integers(0, 2, 3)), 0)
        s2 = Multispace(span_rows(F2, rng.integers(0, 2, 3)), 0)
        assert distance(s1, s2) == subspace_distance(s1.underlying, s2.underlying)


def test_distance_decomposition():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_multispace(F2, 4, rng)
        b = random_multispace(F2, 4, rng)
        expected = subspace_distance(a.underlying, b.underlying) + abs(a.height - b.height)
        assert distance(a, b) == expected
        assert distance(a, b) == join(a, b).rank - meet(a, b).rank


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 16]),
    n=st.integers(0, 6),
    kinds=st.lists(st.sampled_from(["random", "zero", "full"]), max_size=40),
    zero_dims=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_pairwise_distances_match_distance_loop(q, n, kinds, zero_dims, seed):
    # both kernels: q^n <= 64 takes distances from membership masks, larger spaces from elimination
    ctx = {2: F2, 3: F3, 4: F4, 16: F16}[q]
    rng = np.random.default_rng(seed)

    def word(kind):  # "zero" words are the bottom and height-only words
        height = int(rng.integers(0, 4))
        if kind == "zero":
            return Multispace(Subspace.zero(ctx, n), height)
        if kind == "full":
            return Multispace(Subspace.full(ctx, n), height)
        return random_multispace(ctx, n, rng)

    def words(kinds, zero):  # all of dim 0 stacks as (T, 0, n)
        return [word("zero" if zero else kind) for kind in kinds]

    half = len(kinds) // 2
    xs, ys = words(kinds[:half], zero_dims[0]), words(kinds[half : 2 * half], zero_dims[1])
    square = pairwise_distances(xs)
    assert square.dtype == np.int64 and square.shape == (len(xs), len(xs))
    assert square.tolist() == [[distance(a, b) for b in xs] for a in xs]
    if not xs:
        return
    xstack, ystack = _WordStack.of(xs), _WordStack.of(ys)
    assert (xstack.masks is not None) == (q ** n <= MASK_VECTORS)

    def check(d, pairs):
        assert d.dtype == np.int64 and d.tolist() == [distance(a, b) for a, b in pairs]

    check(xstack.paired(ystack), list(zip(xs, ys)))  # row t against row t, the channel's pairing
    for i, x in enumerate(xs):  # a row view shared by every row of a stack, and of a slice of it
        check(xstack[i].paired(ystack), [(x, y) for y in ys])
        check(xstack[i].paired(ystack[i:]), [(x, y) for y in ys[i:]])
        check(ystack[i].paired(_WordStack.of([x])), [(ys[i], x)])  # against a one-word stack


@pytest.mark.parametrize("ctx, n, m", [(F3, 4, 1), (F2, 4, 2)])
def test_pairwise_distances_over_several_row_blocks(ctx, n, m):
    # 41 words past the mask limit (blocks of rows against their tails), 51 masked words
    words = list(enumerate_multispaces(ctx, n, m))
    assert len(words) > 2 * lattice._PAIRWISE_ROWS
    assert pairwise_distances(words).tolist() == [[distance(a, b) for b in words] for a in words]


@pytest.mark.parametrize("ctx, n", [(F2, 4), (F3, 4)], ids=["masked", "past the mask limit"])
def test_pairwise_and_cross_make_one_paired_call_per_block(monkeypatch, ctx, n):
    # the work, not the outputs: pairwise crosses each block of 16 rows with its tail in one
    # call, and a cross within the entry limit is one call whatever its shape
    words = list(enumerate_multispaces(ctx, n, 2))[:40]
    calls = []
    paired = _WordStack.paired

    def spy(self, other):
        calls.append(np.broadcast_shapes(np.shape(self.dims), np.shape(other.dims)))
        return paired(self, other)

    monkeypatch.setattr(_WordStack, "paired", spy)
    stack = _WordStack.of(words)
    assert stack.pairwise().tolist() == [[distance(a, b) for b in words] for a in words]
    assert calls == [(16, 40), (16, 24), (8, 8)]
    calls.clear()
    stack.cross(stack[:7])
    assert calls == [(40, 7)]


def test_the_distance_kernel_takes_heights_below_2_62_and_refuses_them_from_it():
    # literal heights, not the limit constant: 2^62 - 1 is exact in int64, and 2^62 is the first refused
    zero = Subspace.zero(F2, 2)
    low = Multispace(zero, 0)
    assert pairwise_distances([low, Multispace(zero, 2 ** 62 - 1)]).tolist() == [
        [0, 4611686018427387903], [4611686018427387903, 0]]
    for height in (2 ** 62, 2 ** 63 - 1):
        with pytest.raises(LimitExceeded):
            pairwise_distances([low, Multispace(zero, height)])


#: (field, n, masked): two spaces on the mask path of _WordStack, three on the elimination path
METAMORPHIC_SPACES = [(F2, 4, True), (F3, 3, True), (F2, 7, False), (F3, 4, False), (F4, 4, False)]


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(METAMORPHIC_SPACES), count=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_an_invertible_map_keeps_every_rank_and_distance(space, count, seed):
    """d(gW, gX) = d(W, X) and rank gW = rank W for a random invertible g, on both
    representations of _WordStack and through lattice.distance."""
    ctx, n, masked = space
    rng = np.random.default_rng(seed)
    words = [random_multispace(ctx, n, rng) for _ in range(count)]
    g = random_full_rank(ctx, n, rng)
    moved = [Multispace(Subspace.from_array(ctx, n, matmul_arrays(ctx, w.underlying.basis, g)), w.height)
             for w in words]
    assert [(w.dim, w.rank) for w in moved] == [(w.dim, w.rank) for w in words]
    before, after = _WordStack.of(words), _WordStack.of(moved)
    assert (before.masks is not None) == (after.masks is not None) == masked
    d = before.pairwise()
    assert after.pairwise().tolist() == d.tolist()
    for i in range(count - 1):
        assert distance(moved[i], moved[i + 1]) == distance(words[i], words[i + 1]) == d[i, i + 1]


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 16]),
    n=st.integers(0, 6),
    sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    pads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    limit=st.sampled_from([1, 40, lattice.DEFAULT_STATE_LIMIT]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_cross_pairing_matches_distance_loop(q, n, sizes, pads, limit, seed):
    # T = 1, U = 1 and zero words on either side; each stack padded to its own depth,
    # and a small entry limit splits the rows, and columns too, into blocks
    ctx = {2: F2, 3: F3, 4: F4, 16: F16}[q]
    rng = np.random.default_rng(seed)

    def stack(size, pad):
        words = [random_multispace(ctx, n, rng) for _ in range(size)]
        dims = np.array([w.dim for w in words], dtype=np.int64)
        depth = min(n, max([0, *dims]) + pad)
        bases = _pad_stack([w.underlying.basis for w in words], (depth, n))
        return words, _WordStack(ctx, n, bases, dims, np.array([w.height for w in words], dtype=np.int64))

    (xs, xstack), (ys, ystack) = stack(sizes[0], pads[0]), stack(sizes[1], pads[1])
    assert (xstack.masks is not None) == (q ** n <= MASK_VECTORS)
    with mock.patch.object(lattice, "DEFAULT_STATE_LIMIT", limit):
        d = xstack.cross(ystack)
        blocks = list(xstack.cross_blocks(ystack))
    assert d.dtype == np.int64 and d.shape == (len(xs), len(ys))
    assert d.tolist() == [[distance(x, y) for y in ys] for x in xs]
    # the blocks tile the matrix once, each within the limit unless it holds a single pair
    per_pair = 1 if xstack.masks is not None else (xstack.bases.shape[1] + ystack.bases.shape[1]) * n
    tiles = np.zeros(d.shape, dtype=np.int64)
    for rows, cols, block in blocks:
        assert block.size == 1 or block.size * per_pair <= limit
        tiles[rows, cols] += 1
    assert (tiles == 1).all()


def _word_inside(ctx, n, w, rng):
    """A word whose subspace lies in w's: the span of random combinations of w's basis."""
    coeffs = rng.integers(0, ctx.q, size=(int(rng.integers(0, w.dim + 2)), w.dim))
    return Multispace(Subspace.from_array(ctx, n, matmul_arrays(ctx, coeffs, w.underlying.basis)),
                      int(rng.integers(0, 4)))


def _padded_stack(ctx, n, words, pad):
    """The stack of words padded with zero rows past their largest dim, up to n."""
    dims = np.array([w.dim for w in words], dtype=np.int64)
    bases = _pad_stack([w.underlying.basis for w in words], (min(n, dims.max() + pad), n))
    return _WordStack(ctx, n, bases, dims, np.array([w.height for w in words], dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 16]),
    n=st.integers(0, 7),
    size=st.integers(1, 6),
    outside=st.sampled_from([0.0, 0.3, 1.0]),
    pads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_paired_measures_words_inside_and_outside_their_partners(q, n, size, outside, pads, seed):
    # rows inside their partners, as the channel's received words are, and with chance
    # `outside` a row drawn freely, which may not be; zero words, zero padding on both
    # sides, n = 0, and q^n on both sides of MASK_VECTORS (popcounts and rank_batch);
    # one-word views broadcast like numpy arrays
    ctx = {2: F2, 3: F3, 4: F4, 16: F16}[q]
    rng = np.random.default_rng(seed)
    ws = [random_multispace(ctx, n, rng) for _ in range(size)]
    xs = [random_multispace(ctx, n, rng) if rng.random() < outside else _word_inside(ctx, n, w, rng) for w in ws]
    w, x = _padded_stack(ctx, n, ws, pads[0]), _padded_stack(ctx, n, xs, pads[1])
    rows = np.arange(size)
    for i, j in [(rows, rows), (0, rows), (rows, size - 1), (0, 0), (rows[:, None], rows), (rows, rows[::-1])]:
        d = w[i].paired(x[j])
        i, j = np.broadcast_arrays(i, j)
        assert np.shape(d) == i.shape
        assert np.ravel(d).tolist() == [distance(ws[a], xs[b]) for a, b in zip(i.ravel(), j.ravel())]


@pytest.mark.parametrize("ctx, n", [(F2, 6), (F3, 3), (F4, 3), (F16, 1), (F2, 0), (F2, 7), (F3, 4)])
def test_masks_are_built_with_the_stack_and_match_on_every_view_and_slice(ctx, n):
    rng = np.random.default_rng(n)
    words = [random_multispace(ctx, n, rng) for _ in range(9)]
    stack = _WordStack.of(words)
    eager = lattice._membership_masks(ctx, n, stack.bases)
    assert (eager is None) == (ctx.q ** n > MASK_VECTORS)
    for index in [3, slice(2, 7), slice(None, None, -2), np.array([4, 0, 4]), np.arange(9) % 3 == 0,
                  (slice(1, 5), None), ...]:
        view = stack[index]  # a view takes its stack's masks
        rows = _WordStack(ctx, n, stack.bases[index], stack.dims[index], stack.heights[index])
        for built in (view, rows, view[...]):
            if eager is None:
                assert built.masks is None
            else:
                assert built.masks.dtype == np.uint64 and np.array_equal(built.masks, eager[index])
    grown = _WordStack.empty(ctx, n, stack.bases.shape[1])
    grown.extend(_WordStack.of(words[:4]))
    grown.extend(_WordStack.of(words[4:]))
    assert grown.words() == words
    assert eager is None and grown.masks is None or np.array_equal(grown.masks, eager)


def test_equal_rows_share_one_word():
    w, v = Multispace(Subspace.full(F2, 2), 1), Multispace(Subspace.zero(F2, 2), 3)
    words = _WordStack.of([w, v, w, w, v]).words()
    assert words == [w, v, w, w, v]
    assert words[0] is words[2] is words[3] and words[1] is words[4] and words[0] is not words[1]


@settings(max_examples=60, deadline=None)
@given(v=st.integers(0, 14), density=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_graph_distances_match_per_source_bfs(v, density, seed):
    # random graphs are often disconnected, so unreachable pairs (-1) are covered too
    upper = np.triu(np.random.default_rng(seed).random((v, v)) < density, 1)
    g = GammaGraph(F2, 0, 0, tuple(range(v)), upper | upper.T)
    assert np.array_equal(g.graph_distances(), bfs_distances(g.adjacency))


def _structured_graphs():
    """Named graphs with known regularity: a cycle, a path, K_{3,3}, the
    Petersen graph, a triangle beside an edge, a triangular prism, and Γ graphs
    on both outcomes."""
    v = 7
    cycle = np.zeros((v, v), dtype=bool)
    cycle[np.arange(v), (np.arange(v) + 1) % v] = True
    path = cycle.copy()
    path[v - 1, 0] = False
    k33 = np.zeros((6, 6), dtype=bool)
    k33[:3, 3:] = True
    outer, inner = np.arange(5), np.arange(5, 10)
    petersen = np.zeros((10, 10), dtype=bool)
    petersen[outer, (outer + 1) % 5] = petersen[outer, inner] = True
    petersen[inner, 5 + (inner + 2) % 5] = True
    split = np.zeros((5, 5), dtype=bool)
    split[[0, 0, 1, 3], [1, 2, 2, 4]] = True
    prism = np.zeros((6, 6), dtype=bool)  # 3-regular, with a_1 = 1 on triangle edges and 0 across
    prism[[0, 0, 1, 3, 3, 4, 0, 1, 2], [1, 2, 2, 4, 5, 5, 3, 4, 5]] = True
    graphs = [GammaGraph(F2, 0, 0, tuple(range(len(a))), a | a.T) for a in (cycle, path, k33, petersen, split, prism)]
    return graphs + [gamma_graph(F2, 3, 2), gamma_graph(F2, 4, 1), gamma_graph(F3, 2, 2), gamma_graph(F2, 2, 0)]


@pytest.mark.parametrize("g", _structured_graphs(), ids=lambda g: f"{len(g.vertices)}-vertices")
def test_graph_kernels_match_the_bool_and_int64_products_on_named_graphs(g):
    assert np.array_equal(g.graph_distances(), graph_distances_by_bool_products(g.adjacency))
    new, old = is_distance_regular(g), regularity_by_int64_products(g)
    assert (new.regular, new.witness) == (old.regular, old.witness)


@settings(max_examples=80, deadline=None)
@given(v=st.integers(1, 24), density=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_graph_kernels_match_the_bool_and_int64_products(v, density, seed):
    # sparse random graphs are disconnected, dense ones connected and rarely regular
    upper = np.triu(np.random.default_rng(seed).random((v, v)) < density, 1)
    g = GammaGraph(F2, 0, 0, tuple(range(v)), upper | upper.T)
    assert np.array_equal(g.graph_distances(), graph_distances_by_bool_products(g.adjacency))
    new, old = is_distance_regular(g), regularity_by_int64_products(g)
    assert (new.regular, new.witness) == (old.regular, old.witness)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gamma_graph_matches_the_per_element_graph(q):
    ctx = FIELDS[q]
    for n, m in itertools.product(range(4), range(4)):
        g = gamma_graph(ctx, n, m)
        verts, adjacency = gamma_by_elements(ctx, n, m)
        assert g.vertices == verts
        assert g.adjacency.dtype == bool and np.array_equal(g.adjacency, adjacency)
    for n, m in [(2, -1), (-1, 2)]:  # no multispace has a negative rank or ambient dimension
        assert gamma_graph(ctx, n, m).vertices == gamma_by_elements(ctx, n, m)[0] == ()


# ---------------------------------------------------------------------------
# The subspace table behind every layer
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), n=st.integers(0, 4), ranks=st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_every_layer_is_the_enumerated_level_whichever_table_is_built_first(q, n, ranks):
    # ranks in any order: a shallow table first, then a deeper one replaces it, or the reverse
    ctx = FIELDS[q]
    with mock.patch.object(lattice, "_TABLES", OrderedDict()):
        for m in ranks:
            layer = _WordStack.layer(ctx, n, m)
            words = list(enumerate_multispaces(ctx, n, m))
            assert layer.words() == words
            assert layer.heights.tolist() == [w.height for w in words]
            assert layer.bases.shape[1] == min(n, m)
            assert (layer.masks is not None) == (q ** n <= MASK_VECTORS)
            if layer.masks is not None:
                assert layer.masks.tolist() == _WordStack.of(words).masks.tolist()
        assert lattice._TABLES[ctx, n][0].shape[1] == min(n, max(ranks))


@pytest.mark.parametrize("ctx, n", [(F2, 6), (F3, 3), (F4, 3), (F2, 7), (F3, 4), (F4, 4)])
def test_one_rule_picks_masks_for_tables_stacks_and_empty_stacks(ctx, n):
    masked = ctx.q ** n <= MASK_VECTORS
    layer = _WordStack.layer(ctx, n, 2)
    assert (lattice._membership_masks(ctx, n, layer.bases) is None) == (not masked)
    assert (layer.masks is None) == (not masked)
    for depth in range(4):  # an empty stack builds through __init__ like any other
        empty = _WordStack.empty(ctx, n, depth)
        assert empty.bases.shape == (0, depth, n)
        if masked:
            assert empty.masks.shape == (0,) and empty.masks.dtype == np.uint64
        else:
            assert empty.masks is None
        if depth >= 2:
            empty.extend(layer)
            assert empty.words() == layer.words()
            if masked:
                assert empty.masks.tolist() == layer.masks.tolist()


def test_cached_arrays_are_read_only():
    for ctx, n in [(F2, 4), (F3, 4)]:  # masked, and past the mask limit
        layer = _WordStack.layer(ctx, n, 3)
        cached = [*lattice._subspace_table(ctx, n, 3), layer.bases, layer.dims, layer.masks]
        for a in cached:
            if a is not None:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


@pytest.mark.parametrize("limit", [1, 100, 118, 700, 5000])
def test_the_kept_tables_stay_within_the_state_limit(limit):
    # F2^3 to depth 2 holds 15 x 2 x 3 = 90 basis entries and F3^4 to depth 2 holds
    # 171 x 2 x 4 = 1368: a small limit keeps some tables or none, evicting the least
    # recently used, and outputs do not change; F4^2's 28 and F2^3's 90 fill 118 exactly,
    # and tables that fill the limit are all kept
    cases = [(F2, 3, 2), (F3, 4, 2), (F2, 3, 1), (F4, 2, 2), (F2, 4, 3), (F2, 3, 2)]
    want = [(list(enumerate_multispaces(ctx, n, m)), gamma_by_elements(ctx, n, m)[1]) for ctx, n, m in cases]
    with mock.patch.object(lattice, "_TABLES", OrderedDict()), mock.patch.object(lattice, "DEFAULT_STATE_LIMIT", limit):
        for (ctx, n, m), (words, adjacency) in zip(cases, want):
            assert _WordStack.layer(ctx, n, m).words() == words
            assert np.array_equal(gamma_graph(ctx, n, m).adjacency, adjacency)
            assert sum(bases.size for bases, _, _ in lattice._TABLES.values()) <= limit
            if (ctx, n) in lattice._TABLES:
                assert list(lattice._TABLES)[-1] == (ctx, n)  # the one just read is the most recent
        kept = list(lattice._TABLES)
    assert kept == {1: [], 100: [(F2, 3)], 118: [(F4, 2), (F2, 3)], 700: [(F4, 2), (F2, 3)],
                    5000: [(F3, 4), (F4, 2), (F2, 4), (F2, 3)]}[limit]


@pytest.mark.parametrize("ctx, n, m", [(F2, 4, 3), (F3, 3, 2), (F2, 3, 2), (F4, 2, 2)])
def test_gamma_graph_distances_match_per_source_bfs(ctx, n, m):
    g = gamma_graph(ctx, n, m)
    assert np.array_equal(g.graph_distances(), bfs_distances(g.adjacency))


def test_multiset_leq_examples():
    bottom = Multispace.bottom(F2, 3)
    a = Multispace(span_rows(F2, E1), 1)
    b = Multispace(span_rows(F2, E1), 0)
    assert multiset_leq(bottom, a)
    assert not multiset_leq(a, b)  # multiplicity 2 > 1
    assert multiset_leq(b, a)


def test_multiset_leq_matches_pointwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        b1 = random_multiset(F2, 2, int(rng.integers(0, 4)), rng)
        b2 = random_multiset(F2, 2, int(rng.integers(0, 4)), rng)
        w1, w2 = mspan(b1), mspan(b2)
        mu1 = multiplicity_oracle(b1)
        mu2 = multiplicity_oracle(b2)
        keys = set(mu1) | set(mu2)
        pointwise = all(mu1.get(v, 0) <= mu2.get(v, 0) for v in keys)
        assert multiset_leq(w1, w2) == pointwise


def test_lattice_laws_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = random_multispace(F2, 3, rng)
        b = random_multispace(F2, 3, rng)
        c = random_multispace(F2, 3, rng)
        assert meet(a, b) == meet(b, a) and join(a, b) == join(b, a)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, a) == a and join(a, a) == a
        assert join(a, meet(a, b)) == a and meet(a, join(a, b)) == a


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 16]), n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_laws_at_random_parameters(q, n, seed):
    ctx = {2: F2, 3: F3, 4: F4, 16: F16}[q]
    rng = np.random.default_rng(seed)
    words = [random_multispace(ctx, n, rng) for _ in range(6)]
    d = pairwise_distances(words)
    for (i, a), (j, b) in itertools.combinations(enumerate(words), 2):
        lo, hi = meet(a, b), join(a, b)
        assert a.rank + b.rank == lo.rank + hi.rank  # modularity of the rank
        assert lo <= a <= hi and lo <= b <= hi
        assert d[i, j] == d[j, i] == hi.rank - lo.rank


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_cover_counts_at_random_parameters(q, n, seed):
    ctx = {2: F2, 3: F3, 4: F4}[q]
    w = random_multispace(ctx, n, np.random.default_rng(seed), max_height=2)
    up, down = covers_by_containment(w)
    assert len(up) == count_covering(w) and set(up) == set(covering_neighbors(w))
    if w.rank == 0:
        assert down == [] and covered_neighbors(w) == []
    else:
        assert len(down) == count_covered(w) and set(down) == set(covered_neighbors(w))


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from([(2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 3), (2, 4, 2), (2, 8, 2), (257, 1, 2)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_covers_in_closed_form_are_the_eliminated_spans_in_order(spec, seed):
    p, e, n = spec
    w = random_multispace(field(p, e), n, np.random.default_rng(seed))
    for closed, eliminated in [(covering_neighbors(w), covers_by_elimination(w)),
                               (covered_neighbors(w), covered_by_elimination(w))]:
        assert closed == eliminated
        assert [(c.underlying.basis.dtype, c.underlying.basis.tobytes()) for c in closed] == [
            (c.underlying.basis.dtype, c.underlying.basis.tobytes()) for c in eliminated]


def test_covers_make_no_elimination(monkeypatch):
    words = [random_multispace(field(p, e), n, np.random.default_rng(seed))
             for p, e, n in [(2, 1, 5), (3, 1, 4), (2, 2, 3), (257, 1, 2)] for seed in range(4)]
    want = [(covering_neighbors(w), covered_neighbors(w)) for w in words]

    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    for module, name in [
        (linalg, "rref_array"),
        (linalg.Subspace, "_span"),
        (lattice, "enumerate_subspaces"),
        (linalg, "enumerate_subspaces"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert [(covering_neighbors(w), covered_neighbors(w)) for w in words] == want


def test_meet_join_are_glb_lub_small():
    elems = poset_elements(F2, 2, 2)
    bigger = poset_elements(F2, 2, 4)  # joins can leave the rank-2 slice
    index = {w: i for i, w in enumerate(bigger)}
    leq = leq_matrix(bigger)
    for a, b in itertools.combinations(elems, 2):
        i, j = index[a], index[b]
        assert index[meet(a, b)] == brute_glb(leq, i, j)
        assert index[join(a, b)] == brute_lub(leq, i, j)


def test_modular_law_small():
    elems = poset_elements(F2, 2, 2)
    for x in elems:
        for y in elems:
            if not multiset_leq(x, y):
                continue
            for z in elems:
                assert join(x, meet(z, y)) == meet(join(x, z), y)


def test_height_zero_sublattice():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = Multispace(Subspace.from_array(F2, 3, rng.integers(0, 2, (2, 3))), 0)
        b = Multispace(Subspace.from_array(F2, 3, rng.integers(0, 2, (2, 3))), 0)
        m, j = meet(a, b), join(a, b)
        assert m.height == 0 and j.height == 0
        assert m.underlying == a.underlying.intersect(b.underlying)
        assert j.underlying == a.underlying + b.underlying


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def gaussian_product_formula(n, k, q):
    """Independent oracle: the explicit product/quotient, in exact rationals."""
    if k < 0 or k > n:
        return 0
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q ** (n - i) - 1, q ** (k - i) - 1)
    assert num.denominator == 1
    return int(num)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(3, 1, 2) == 7 == len(list(enumerate_multispaces(F2, 3, 1))) - 1
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(3, 5, 2) == 0 and gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_against_product_formula():
    for q in (2, 3, 4, 5, 7):
        for n in range(0, 8):
            for k in range(-1, n + 2):
                assert gaussian_binomial(n, k, q) == gaussian_product_formula(n, k, q)


def test_count_multispaces():
    assert [count_multispaces(3, m, 2) for m in range(6)] == [1, 8, 15, 16, 16, 16]
    assert count_multispaces(3, 0, 2) == 1
    # stabilization: constant for m >= n
    for q in (2, 3):
        for n in (1, 2, 3):
            vals = {count_multispaces(n, m, q) for m in range(n, n + 5)}
            assert len(vals) == 1


def test_count_covered_and_covering():
    full = Multispace(Subspace.full(F2, 3), 0)
    assert count_covered(full) == 7
    z1 = Multispace(Subspace.zero(F2, 3), 1)
    assert count_covered(z1) == 1
    assert count_covering(z1) == 8
    bottom = Multispace.bottom(F2, 3)
    assert count_covering(bottom) == 1 + sum(2 ** i for i in range(3))
    with pytest.raises(RankZero):
        count_covered(bottom)


def test_cover_neighbors_match_formulas_and_brute_force():
    elems = poset_elements(F3, 2, 3)
    leq = leq_matrix(elems)
    cov = cover_matrix(leq)
    index = {w: i for i, w in enumerate(elems)}
    for i, w in enumerate(elems):
        ups = covering_neighbors(w)
        assert len(ups) == count_covering(w)
        assert len(set(ups)) == len(ups)
        if w.rank > 0:
            downs = covered_neighbors(w)
            assert len(downs) == count_covered(w)
            assert {index[d] for d in downs} == set(np.nonzero(cov[:, i])[0])
        if w.rank < 3:
            assert {index[u] for u in ups} == set(np.nonzero(cov[i, :])[0])


def test_cover_counts_are_the_geometric_sums():
    # [k, 1]_q = 1 + q + ... + q^(k-1): the hyperplanes of a k-space, or the lines of a k-dim quotient
    for ctx in (F2, F3, F4, F16):
        for n in (1, 2, 5, 40):
            for k in sorted({0, 1, n // 2, n}):
                for height in (0, 3):
                    w = Multispace(Subspace(ctx, n, np.eye(n, dtype=np.int64)[:k].copy()), height)
                    assert count_covering(w) == 1 + sum(ctx.q ** i for i in range(n - k))
                    if w.rank:
                        assert count_covered(w) == sum(ctx.q ** i for i in range(k)) + (height > 0)


def test_covered_neighbors_checks_the_hyperplane_count():
    w = Multispace(Subspace.full(F2, 21), 0)  # 2^21 - 1 hyperplanes
    with pytest.raises(LimitExceeded, match="2097151 subspaces"):
        covered_neighbors(w)


# ---------------------------------------------------------------------------
# Enumeration, Hasse diagram, gamma graph
# ---------------------------------------------------------------------------

def test_enumerate_multispaces_counts():
    assert len(list(enumerate_multispaces(F2, 3, 2))) == 15
    assert len(list(enumerate_multispaces(F2, 3, 3))) == 16
    assert list(enumerate_multispaces(F3, 2, 0)) == [Multispace.bottom(F3, 2)]
    words = list(enumerate_multispaces(F4, 2, 2))
    assert len(words) == len(set(words)) == count_multispaces(2, 2, 4)


@pytest.mark.parametrize("ctx, n, m", [
    (F2, 0, 0), (F2, 0, 2), (F3, 2, 0), (F2, 3, 2), (F2, 3, 5), (F3, 3, 2),  # masked
    (F4, 3, 3), (F2, 6, 3), (F3, 4, 2), (F2, 7, 1), (F16, 2, 2),  # q^n = 64, then elimination
])
def test_layer_stack_matches_the_enumerated_words(ctx, n, m):
    words = list(enumerate_multispaces(ctx, n, m))
    got, want = _WordStack.layer(ctx, n, m), _WordStack.of(words)
    assert got.bases.dtype == np.int64 and got.bases.shape == want.bases.shape == (len(words), min(n, m), n)
    for name in ("bases", "dims", "heights", "masks"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.words() == words


def test_enumerate_multispaces_budget():
    words = enumerate_multispaces(F2, 25, 1)  # 2^25 multispaces
    with pytest.raises(LimitExceeded, match="33554432 multispaces"):
        next(words)
    with pytest.raises(LimitExceeded, match="33554432 multispaces"):
        _WordStack.layer(F2, 25, 1)
    assert list(enumerate_multispaces(F2, 3, -1)) == []
    assert list(enumerate_multispaces(F2, -1, 2)) == []


@pytest.mark.parametrize("n, m_max, total", [
    (0, 10 ** 7, 10 ** 7 + 1),  # one multispace per rank: no layer passes the budget, the total does
    (1, 10 ** 7, 2 * 10 ** 7 + 1),
    (2, lattice.DEFAULT_STATE_LIMIT, 5 * lattice.DEFAULT_STATE_LIMIT),
])
def test_walks_up_to_a_rank_check_the_total_before_the_first_item(n, m_max, total):
    for start in (lambda: next(enumerate_multispaces_up_to(F2, n, m_max)),
                  lambda: next(hasse_edges(F2, n, m_max)),
                  lambda: hasse_dot(F2, n, m_max)):
        with pytest.raises(LimitExceeded, match=f"{total} multispaces"):
            start()


@pytest.mark.parametrize("n, m_max", [(-1, 3), (3, -1), (-2, -2)])
def test_walks_up_to_a_rank_are_empty_for_a_negative_n_or_m(n, m_max):
    assert list(enumerate_multispaces_up_to(F2, n, m_max)) == []
    assert list(hasse_edges(F2, n, m_max)) == []
    assert hasse_dot(F2, n, m_max).nodes == 0


@pytest.mark.parametrize("q", [2, 3])
def test_cover_pair_count_matches_hasse_edges(q):
    ctx = field(q)
    for n in range(5):
        for m_max in range(5):
            assert lattice._cover_pairs(q, n, m_max) == len(list(hasse_edges(ctx, n, m_max)))


def test_hasse_walks_check_the_cover_pairs_before_the_first_item():
    # 702124 nodes are within the budget; their 2100224 cover pairs are not
    assert lattice.codespace_growth(F2, 11, 2) <= lattice.DEFAULT_STATE_LIMIT
    for start in (lambda: next(hasse_edges(F2, 11, 2)), lambda: hasse_dot(F2, 11, 2)):
        with pytest.raises(LimitExceeded, match="2100224 cover pairs"):
            start()


def test_hasse_edges_small():
    edges = list(hasse_edges(F2, 3, 1))
    assert len(edges) == 8
    for lower, upper in edges:
        assert upper.rank == lower.rank + 1
        assert distance(lower, upper) == 1
        assert multiset_leq(lower, upper)


def test_hasse_dot_tiny():
    hd = hasse_dot(F2, 1, 1)
    assert hd.nodes == 3 and hd.rank_sizes == [1, 2]
    assert hd.edges == 2
    assert hd.dot.count("->") == 2
    assert hd.dot.count("lightblue") == 2  # bottom and the line


def test_gamma_rank1_lines_form_clique():
    g = gamma_graph(F2, 3, 1)
    idx = [i for i, w in enumerate(g.vertices) if w.height == 0]
    assert len(idx) == 7
    for i in idx:
        for j in idx:
            if i != j:
                assert g.adjacency[i, j]


def test_gamma_233_not_distance_regular():
    rep = is_distance_regular(gamma_graph(F2, 3, 2))
    assert not rep
    assert rep.witness is not None
    assert rep.witness["reason"] in ("intersection number not constant", "disconnected")


def test_gamma_trivial_graph_is_regular():
    rep = is_distance_regular(gamma_graph(F2, 2, 0))
    assert rep.regular and rep.witness is None


def test_a_gamma_graph_numpy_cannot_shape_is_refused_before_its_table_is_allocated():
    with pytest.raises(FormatError, match="ambient dimension 4611686018427387904 is too large"):
        gamma_graph(F2, 2 ** 62, 0)


def test_gamma_graph_distance_is_half_metric():
    for (q, n, m) in [(2, 3, 2), (3, 2, 2)]:
        g = gamma_graph(field(q), n, m)
        gd = g.graph_distances()
        for i in range(len(g.vertices)):
            for j in range(len(g.vertices)):
                assert 2 * gd[i, j] == distance(g.vertices[i], g.vertices[j])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_multispace_json_round_trip():
    w = Multispace(span_rows(F2, E1, E2), 2)
    d = w.to_dict()
    assert d["height"] == 2
    assert Multispace.from_dict(d) == w
    with pytest.raises(FormatError):
        Multispace.from_dict({"q-spec": "2", "n": 3, "basis": []})


def test_vector_multiset_round_trip():
    b = VectorMultiset(F3, 2, [[1, 2], [0, 1], [1, 2]])
    assert VectorMultiset.from_dict(b.to_dict()) == b
    assert b.to_dict()["vectors"] == [[1, 2], [0, 1], [1, 2]]
    assert all(type(v) is int for row in b.to_dict()["vectors"] for v in row)
    assert len(b) == 3
    assert b.matrix[2].tolist() == [1, 2]


def test_generating_multiset_reproduces():
    rng = np.random.default_rng(23)
    for _ in range(20):
        w = random_multispace(F3, 3, rng)
        assert mspan(w.generating_multiset()) == w


def test_lattice_ops_over_extension_field():
    elems = poset_elements(F4, 2, 2)
    assert len(elems) == count_multispaces(2, 0, 4) + count_multispaces(2, 1, 4) + count_multispaces(2, 2, 4)
    bigger = poset_elements(F4, 2, 4)
    index = {w: i for i, w in enumerate(bigger)}
    leq = leq_matrix(bigger)
    for a, b in itertools.combinations(elems, 2):
        assert index[meet(a, b)] == brute_glb(leq, index[a], index[b])
        assert index[join(a, b)] == brute_lub(leq, index[a], index[b])
        assert meet(a, b).rank + join(a, b).rank == a.rank + b.rank
