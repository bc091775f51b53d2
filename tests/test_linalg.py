import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from helpers import is_rref_by_definition, rref_by_columns, span_rows, subspaces_by_entry
from hypothesis import example, given, settings, strategies as st

from multispace import linalg
from multispace.errors import (
    DimensionMismatch,
    FormatError,
    LimitExceeded,
    NotCanonical,
)
from multispace.fields import field
from multispace.lattice import VectorMultiset, gaussian_binomial, span
from multispace.linalg import (
    DEFAULT_STATE_LIMIT,
    Subspace,
    _check_budget,
    _subspace_blocks,
    enumerate_subspaces,
    is_rref,
    matmul_arrays,
    rank_batch,
    rref_array,
    rref_batch,
    subspace_distance,
    subspace_leq,
)

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)
F7 = field(7)
F9 = field(3, 2)
F16 = field(2, 4)
F27 = field(3, 3)
F64 = field(2, 6)
F256 = field(2, 8)
F512 = field(2, 9)
E1, E2, E3 = np.eye(3, dtype=np.int64)


def brute_span_vectors(ctx, rows):
    """All linear combinations, enumerated literally."""
    rows = [tuple(r) for r in rows]
    n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(range(ctx.q), repeat=len(rows)):
        acc = (0,) * n
        for c, r in zip(coeffs, rows):
            acc = tuple(ctx.add(a, ctx.mul(c, x)) for a, x in zip(acc, r))
        out.add(acc)
    return out


def random_subspace(ctx, n, rng, max_rows=None):
    rows = rng.integers(0, ctx.q, size=(rng.integers(0, (max_rows or n) + 1), n))
    return Subspace.from_array(ctx, n, rows)


def test_rref_identity():
    m = np.eye(4, dtype=np.int64)
    r, rank, _ = rref_array(F2, m)
    assert rank == 4 and np.array_equal(r, m)


def test_rref_duplicate_rows():
    r, rank, _ = rref_array(F2, [[1, 1, 0], [1, 1, 0]])
    assert rank == 1
    assert r[0].tolist() == [1, 1, 0]
    assert not r[1].any()


def test_rref_f3_dependent_rows():
    # (2,1) = 2*(1,2) mod 3, so the rank is 1 and the RREF row is (1,2)
    m = [[1, 2], [2, 1]]
    # independent oracle: count distinct linear combinations
    assert len(brute_span_vectors(F3, m)) == 3  # = 3^rank
    r, rank, _ = rref_array(F3, m)
    assert rank == 1
    assert r[0].tolist() == [1, 2]


def test_rref_preserves_row_space():
    rng = np.random.default_rng(2)
    for ctx in (F2, F3, F4):
        for _ in range(20):
            rows = rng.integers(0, ctx.q, size=(3, 4))
            r, rank, _ = rref_array(ctx, rows)
            assert brute_span_vectors(ctx, rows.tolist()) == brute_span_vectors(
                ctx, r[:rank].tolist()
            )


def test_span_examples():
    assert span(VectorMultiset(F2, 3, [])) == Subspace.zero(F2, 3)
    s = span_rows(F2, E1, [1, 1, 0])
    assert s.dim == 2 and s.basis.tolist() == [[1, 0, 0], [0, 1, 0]]
    assert span_rows(F2, [0, 0, 0], [0, 0, 0]).dim == 0
    for other in ([E1], E1, np.array([E1])):  # one input: a VectorMultiset
        with pytest.raises(TypeError):
            span(other)


def test_span_canonical_under_shuffle_and_rescale():
    rng = random.Random(7)
    nprng = np.random.default_rng(7)
    for ctx in (F2, F3, F5):
        for _ in range(25):
            n = rng.randint(1, 4)
            k = rng.randint(1, 4)
            rows = nprng.integers(0, ctx.q, size=(k, n)).tolist()
            base = Subspace.from_array(ctx, n, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            scaled = []
            for row in shuffled:
                c = rng.randint(1, ctx.q - 1)
                scaled.append([ctx.mul(c, x) for x in row])
            assert Subspace.from_array(ctx, n, scaled) == base


def test_subspace_sum_examples():
    a = span_rows(F2, E1)
    zero = Subspace.zero(F2, 3)
    assert a + zero == a
    assert a + a == a
    s = span_rows(F2, E1) + span_rows(F2, E2)
    assert s.basis.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_intersection_examples():
    a = span_rows(F2, E1, E2)
    assert a.intersect(a) == a
    assert span_rows(F2, E1).intersect(span_rows(F2, E2)).dim == 0
    got = span_rows(F2, E1, E2).intersect(span_rows(F2, E2, E3))
    assert got == span_rows(F2, E2)


@pytest.mark.parametrize("ctx,n", [(F2, 4), (F2, 6), (F2, 12), (F3, 3), (F4, 3), (F5, 3)])
def test_intersection_against_brute_force(ctx, n):
    rng = np.random.default_rng(hash((ctx.q, n)) % 2 ** 31)
    for _ in range(15):
        a = random_subspace(ctx, n, rng)
        b = random_subspace(ctx, n, rng)
        got = a.intersect(b)
        assert is_rref_by_definition(got.basis)  # built from the rows without a second elimination
        va = {tuple(v) for v in a.vector_array()}
        vb = {tuple(v) for v in b.vector_array()}
        want = va & vb
        assert {tuple(v) for v in got.vector_array()} == want


def test_dimension_modularity():
    rng = np.random.default_rng(11)
    for ctx in (F2, F3, F4):
        for _ in range(30):
            a = random_subspace(ctx, 4, rng)
            b = random_subspace(ctx, 4, rng)
            inter = a.intersect(b)
            total = a + b
            assert inter.dim + total.dim == a.dim + b.dim
            assert subspace_distance(a, b) == a.dim + b.dim - 2 * inter.dim


def test_contains_array_refuses_malformed_input():
    with pytest.raises(FormatError):
        Subspace.from_array(F4, 2, [[1, 0]]).contains_array([[0, 7]])  # 7 is no encoding of GF(4)
    # A cast would make the first three 1 and warn of overflow on the last.
    for not_int in ([[1.5, 0]], [[1.0, 0]], [["1", "0"]], [[9.3e18, 0]]):
        with pytest.raises(FormatError):
            Subspace.from_array(F2, 2, not_int)
    line = Subspace.from_array(F2, 2, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        line.contains_array([1, 0, 1, 0])  # four entries, not two vectors of GF(2)^2
    with pytest.raises(DimensionMismatch):
        line.contains_array([[1], [0]])  # a column, not the vector (1, 0)
    assert line.contains_array([1, 0]) and line.contains_array([[1, 0], [0, 0]])
    assert not line.contains_array([[0, 1]])


def test_contains_and_leq():
    zero = Subspace.zero(F2, 3)
    assert zero.contains_array([0, 0, 0])
    assert not span_rows(F2, E1).contains_array(E2)
    v = [1, 1, 0]
    line = span_rows(F3, v)
    for c in range(3):  # scalar closure in GF(3)
        assert line.contains_array([F3.mul(c, x) for x in v])
    assert not line.contains_array([1, 2, 0])
    assert subspace_leq(zero, span_rows(F2, E1))
    assert subspace_leq(span_rows(F2, E1), span_rows(F2, E1, E2))
    assert not subspace_leq(span_rows(F2, E1, E2), span_rows(F2, E1))
    assert not subspace_leq(span_rows(F2, E2), span_rows(F2, E1))


@settings(max_examples=320, deadline=None)
@given(
    ctx=st.sampled_from([F2, F3, F4, F5, F9, F16, F27, F64]),
    batch=st.integers(0, 40),
    rows=st.integers(0, 8),
    cols=st.integers(0, 8),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_rref_batch_matches_rref_array_on_every_entry(ctx, batch, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ctx.q, size=(batch, rows, cols))
    for t in range(0, batch, 2):  # every other entry is a product through a random rank
        k = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(0, ctx.q, size=(rows, k))
        a[t] = matmul_arrays(ctx, left, rng.integers(0, ctx.q, size=(k, cols)))
    given_a = a.copy()
    rrefs, ranks = rref_batch(ctx, a)
    assert np.array_equal(a, given_a)  # the input is not modified
    assert rrefs.shape == a.shape and rrefs.dtype == np.int64 and ranks.shape == (batch,)
    for t in range(batch):
        red, rank, _ = rref_array(ctx, a[t])
        assert rrefs[t].tobytes() == red.tobytes() and ranks[t] == rank


def _of_random_rank(ctx, rows, cols, rng):
    """A rows x cols matrix through a random inner dimension, so its rank is often short of full."""
    k = int(rng.integers(0, min(rows, cols) + 1))
    return matmul_arrays(ctx, rng.integers(0, ctx.q, size=(rows, k)), rng.integers(0, ctx.q, size=(k, cols)))


def _matrix_of_kind(ctx, rows, cols, kind, rng):
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "low rank":
        return _of_random_rank(ctx, rows, cols, rng)
    return rng.integers(0, ctx.q, size=(rows, cols))


def _same_ranks(ctx, a):
    """rank_batch and rref_batch of a stack against rref_array, matrix by matrix
    and rref_batch entry for entry; the stack is not written."""
    given_a = a.copy()
    ranks = rank_batch(ctx, a)
    rrefs, rref_ranks = rref_batch(ctx, a)
    assert np.array_equal(a, given_a)
    expected = [rref_array(ctx, m)[:2] for m in a]
    assert ranks.dtype == rref_ranks.dtype == np.int64 and rrefs.dtype == np.int64 and rrefs.shape == a.shape
    assert ranks.tolist() == rref_ranks.tolist() == [rank for _, rank in expected]
    for t, (red, _) in enumerate(expected):
        assert rrefs[t].tobytes() == red.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    # GF(2^8) is the largest field on lookup tables and GF(2^9) the first past them;
    # GF(2) rows of up to 63 entries are packed into one word, wider ones are not
    ctx=st.sampled_from([F2, F3, F5, F7, F4, F9, F16, F256, F512]),
    batch=st.integers(0, 6),
    rows=st.integers(0, 9),
    cols=st.one_of(st.integers(0, 9), st.sampled_from([63, 64, 65])),
    kind=st.sampled_from(["random", "low rank", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_rank_batch_matches_rref_array(ctx, batch, rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    stack = [_matrix_of_kind(ctx, rows, cols, kind, rng) for _ in range(batch)]
    _same_ranks(ctx, np.array(stack, dtype=np.int64).reshape(batch, rows, cols))


@settings(max_examples=120, deadline=None)
@given(
    # rows of 63 entries are the widest packed into one int64 word, 64 the first past them
    batch=st.integers(0, 6),
    rows=st.integers(0, 70),
    cols=st.sampled_from([1, 2, 7, 63, 64]),
    kind=st.sampled_from(["random", "low rank", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_packed_gf2_rref_batch_matches_rref_array(batch, rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    a = np.array([_matrix_of_kind(F2, rows, cols, kind, rng) for _ in range(batch)], dtype=np.int64)
    a = a.reshape(batch, rows, cols)
    given_a = a.copy()
    rrefs, ranks = rref_batch(F2, a)
    assert np.array_equal(a, given_a)
    assert rrefs.shape == a.shape and rrefs.dtype == np.int64 and ranks.dtype == np.int64
    for t in range(batch):
        red, rank, _ = rref_array(F2, a[t])
        assert rrefs[t].tobytes() == red.tobytes() and ranks[t] == rank
        assert is_rref(F2, rrefs[t, :rank]) and not rrefs[t, rank:].any()


def test_rank_batch_builds_no_tables_past_the_limit(monkeypatch):
    assert F256.q == linalg.RANK_TABLE_LIMIT < F512.q

    def refuse(ctx):
        raise AssertionError(f"tables built for {ctx}")

    monkeypatch.setattr(linalg, "_rank_tables", refuse)
    a = np.array([[[1, 2, 3], [2, 4, 6], [0, 0, 511]], [[1, 0, 0], [0, 1, 0], [0, 0, 511]]])
    assert rank_batch(F512, a).tolist() == [rref_array(F512, m)[1] for m in a] == [2, 3]
    rrefs, ranks = rref_batch(F512, a)
    assert ranks.tolist() == [2, 3] and all(np.array_equal(r, rref_array(F512, m)[0]) for r, m in zip(rrefs, a))
    assert F512._tables is None  # nor the q x q tables of small fields


def test_peak_memory_of_rref_batch_stays_within_a_few_outputs():
    """The pivot rows go to an array the size of the output, plus one spare row;
    one row kept per column would take about 250 outputs on this wide stack."""
    a = np.random.default_rng(0).integers(0, 3, size=(8, 2, 500))
    rref_batch(F3, a)  # one-time allocations
    tracemalloc.start()
    try:
        rrefs, _ = rref_batch(F3, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * a.nbytes == 10 * rrefs.nbytes


def test_the_pivot_pass_stops_once_every_matrix_of_a_wide_stack_holds_its_pivots():
    """The forward pass ends at the column of the last matrix's last pivot;
    a matrix short of full rank keeps it to the last column."""
    a = np.random.default_rng(0).integers(0, 3, size=(8, 2, 500))
    last = max(rref_array(F3, m)[2][-1] for m in a)
    assert rank_batch(F3, a).tolist() == [2] * 8 and last < 10
    assert [j for j, _, _ in linalg._pivot_rows(F3, a)] == list(range(last + 1))
    _same_ranks(F3, a)
    a[3, 1] = a[3, 0]
    assert len(list(linalg._pivot_rows(F3, a))) == 500
    _same_ranks(F3, a)
    rng = np.random.default_rng(1)
    _same_ranks(F3, np.array([_of_random_rank(F3, 4, 9, rng) for _ in range(300)]))


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(0, 3), rows=st.integers(0, 80), cols=st.integers(60, 260),
       kind=st.sampled_from(["random", "low rank", "zero"]), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_batch_over_gf2_has_no_width_limit(batch, rows, cols, kind, seed):
    """Rows past 63 columns do not fit one int64 word; they run on Python ints."""
    rng = np.random.default_rng(seed)
    stack = [_matrix_of_kind(F2, rows, cols, kind, rng) for _ in range(batch)]
    _same_ranks(F2, np.array(stack, dtype=np.int64).reshape(batch, rows, cols))


@pytest.mark.parametrize("ctx", [field(2, 16), field(3, 10)], ids=["GF(2^16)", "GF(3^10)"])
def test_rank_batch_in_the_largest_fields(ctx):
    rng = np.random.default_rng(ctx.q)
    for rows, cols in [(1, 1), (3, 3), (5, 4), (4, 7), (6, 6)]:
        for kind in ("random", "low rank", "zero"):
            _same_ranks(ctx, np.array([_matrix_of_kind(ctx, rows, cols, kind, rng) for _ in range(4)]))
    a = rng.integers(0, ctx.q, size=(4, 5))
    a[3] = ctx.sub_arr(a[0], ctx.mul_arr(a[1], np.full(5, 7)))  # row 3 = row 0 - 7 row 1
    assert rank_batch(ctx, a[None]).tolist() == [rref_array(ctx, a)[1]] == [3]


def _same_rref(ctx, a):
    """rref_array against the column-by-column numpy elimination, on a copy of a."""
    given_a = a.copy()
    red, rank, pivots = rref_array(ctx, a)
    ref, ref_rank, ref_pivots = rref_by_columns(ctx, a.copy())
    assert np.array_equal(a, given_a)  # the input is not modified
    assert red.dtype == np.int64 and red.shape == a.shape and red.tobytes() == ref.tobytes()
    assert (rank, pivots) == (ref_rank, ref_pivots)
    assert all(type(c) is int for c in pivots)


@settings(max_examples=400, deadline=None)
@given(
    # GF(2^8) is the largest field on lookup tables and GF(2^9) the first past them;
    # up to 24 x 24 reaches past ROW_CELL_LIMIT and past two rows per column
    ctx=st.sampled_from([F2, F3, F4, F5, F9, F16, F256, F512]),
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    kind=st.sampled_from(["random", "low rank", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(ctx=F3, rows=1, cols=24, kind="random", seed=0)
@example(ctx=F4, rows=24, cols=1, kind="random", seed=0)
@example(ctx=F256, rows=12, cols=16, kind="low rank", seed=1)  # at the cell limit
@example(ctx=F16, rows=13, cols=15, kind="random", seed=2)  # just past it
@example(ctx=F9, rows=20, cols=6, kind="random", seed=3)  # tall: zero rows below the rank
def test_rref_array_matches_the_numpy_elimination(ctx, rows, cols, kind, seed):
    _same_rref(ctx, _matrix_of_kind(ctx, rows, cols, kind, np.random.default_rng(seed)))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 90),
    cols=st.integers(1, 200),
    kind=st.sampled_from(["random", "low rank", "zero"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(rows=5, cols=56, kind="random", seed=0)  # the widest rows packed through an int64
@example(rows=5, cols=57, kind="random", seed=0)  # the narrowest packed as bytes
@example(rows=70, cols=65, kind="low rank", seed=1)
@example(rows=600, cols=12, kind="low rank", seed=2)  # tall, with many repeated rows
def test_rref_array_over_gf2_matches_the_numpy_elimination_at_any_width(rows, cols, kind, seed):
    _same_rref(F2, _matrix_of_kind(F2, rows, cols, kind, np.random.default_rng(seed)))


def test_rref_array_path_follows_the_field_and_the_cell_limit(monkeypatch):
    taken = []
    for name in ("_rref_bits", "_rref_lists", "rref_batch"):
        def spy(*args, _name=name, _fn=getattr(linalg, name)):
            taken.append(_name)
            return _fn(*args)

        monkeypatch.setattr(linalg, name, spy)
    limit = linalg.ROW_CELL_LIMIT
    cases = [
        (F2, (300, 300), "_rref_bits"),
        (F3, (6, 12), "_rref_lists"),
        (F256, (12, limit // 12), "_rref_lists"),
        (F256, (12, limit // 12 + 1), "rref_batch"),  # past the cell limit
        (F3, (13, 6), "rref_batch"),  # more than two rows per column
        (F512, (2, 2), "rref_batch"),  # past the table limit
    ]
    for ctx, shape, path in cases:
        taken.clear()
        rref_array(ctx, np.ones(shape, dtype=np.int64))
        assert taken == [path], (ctx, shape)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.integers(1, 4), st.randoms(use_true_random=False))
def test_contains_and_leq_match_member_sets(ctx, n, rand):
    rng = np.random.default_rng(rand.getrandbits(32))
    a, b = random_subspace(ctx, n, rng), random_subspace(ctx, n, rng)
    members = {tuple(v) for v in b.vector_array()}
    assert (a <= b) == members.issuperset(tuple(v) for v in a.vector_array())
    for v in rng.integers(0, ctx.q, size=(4, n)):
        assert b.contains_array(v) == (tuple(v) in members)
    # a stack of 0-4 members, one of them replaced by a random vector half the time,
    # lies in b exactly when every row does
    vecs = b.vector_array()
    stack = vecs[rng.integers(0, len(vecs), size=int(rng.integers(0, 5)))]
    if len(stack) and rng.random() < 0.5:
        stack[rng.integers(0, len(stack))] = rng.integers(0, ctx.q, size=n)
    assert b.contains_array(stack) == members.issuperset(map(tuple, stack))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.integers(0, 4), st.integers(1, 5), st.randoms(use_true_random=False))
def test_is_rref_matches_the_definition(ctx, rows, n, rand):
    rng = np.random.default_rng(rand.getrandbits(32))
    a = rng.integers(0, ctx.q, size=(rows, n))
    red = Subspace.from_array(ctx, n, a).basis
    for m in (a, red, red[::-1], np.vstack([red, np.zeros((1, n), dtype=np.int64)])):
        assert is_rref(ctx, m) == is_rref_by_definition(m)
    if red.size:
        bumped = red.copy()
        bumped[rng.integers(len(red)), rng.integers(n)] = rng.integers(ctx.q)
        assert is_rref(ctx, bumped) == is_rref_by_definition(bumped)


@pytest.mark.parametrize("ctx", [F2, F3, F5, F4, F9], ids=lambda ctx: f"q={ctx.q}")
def test_odometer_lists_every_combination_last_coefficient_fastest(ctx):
    rng = np.random.default_rng(ctx.q)
    for k in range(4):
        rows = rng.integers(0, ctx.q, size=(2, k, 3))
        got = linalg._odometer(ctx, rows)
        assert got.shape == (2, ctx.q ** k, 3)
        for t in range(2):
            want = [[0] * 3 for _ in itertools.product(range(ctx.q), repeat=k)]
            for v, coeffs in zip(want, itertools.product(range(ctx.q), repeat=k)):
                for c, row in zip(coeffs, rows[t].tolist()):
                    v[:] = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row)]
            assert got[t].tolist() == want


@pytest.mark.parametrize(
    "ctx,n,k,count",
    [
        (F2, 3, 1, 7),
        (F2, 3, 2, 7),
        (F2, 3, 0, 1),
        (F2, 3, 3, 1),
        (F3, 2, 1, 4),
        (F4, 2, 1, 5),
        (F2, 4, 2, 35),
        (F3, 3, 1, 13),
        (F4, 4, 2, 357),
    ],
)
def test_enumerate_subspaces_counts(ctx, n, k, count):
    subs = list(enumerate_subspaces(ctx, n, k))
    assert len(subs) == count == gaussian_binomial(n, k, ctx.q)
    assert len(set(subs)) == count
    for s in subs:
        assert s.dim == k and is_rref(ctx, s.basis)


def test_enumerate_subspaces_zero_k():
    only = list(enumerate_subspaces(F3, 2, 0))
    assert only == [Subspace.zero(F3, 2)]


def test_enumerate_subspaces_deterministic():
    a = [s.basis.tobytes() for s in enumerate_subspaces(F2, 4, 2)]
    b = [s.basis.tobytes() for s in enumerate_subspaces(F2, 4, 2)]
    assert a == b


@pytest.mark.parametrize("ctx", [F2, F3, F4])
def test_subspace_blocks_match_the_per_entry_enumerator(ctx):
    def entries(bases):
        return [(b.dtype, b.shape, b.tobytes()) for b in bases]

    for n in range(6):
        for k in range(n + 1):
            want = entries(subspaces_by_entry(ctx, n, k))
            blocks = list(_subspace_blocks(ctx, n, k))
            assert len(blocks) == math.comb(n, k)  # one block per pivot-column set
            for block in blocks:
                free = round(math.log(len(block), ctx.q))
                assert block.dtype == np.int64 and block.shape == (ctx.q ** free, k, n)
            assert entries(b for block in blocks for b in block) == want
            assert entries(s.basis for s in enumerate_subspaces(ctx, n, k)) == want
            assert len(want) == gaussian_binomial(n, k, ctx.q)


def test_enumerate_subspaces_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_subspaces(F2, 30, 1))


def test_budget_is_checked_before_the_first_item():
    _check_budget(DEFAULT_STATE_LIMIT, "items")
    with pytest.raises(LimitExceeded):
        _check_budget(DEFAULT_STATE_LIMIT + 1, "items")
    for lines in (enumerate_subspaces(F2, 21, 1), _subspace_blocks(F2, 21, 1)):  # 2^21 - 1 lines
        with pytest.raises(LimitExceeded, match="2097151 subspaces"):
            next(lines)
    with pytest.raises(LimitExceeded, match="2097152 vectors"):
        Subspace.full(F2, 21).vector_array()


def test_budget_message_names_huge_counts_by_a_power_of_two():
    with pytest.raises(LimitExceeded, match="^1048577 things exceed"):
        _check_budget(DEFAULT_STATE_LIMIT + 1, "things")
    with pytest.raises(LimitExceeded, match=r"^at least 2\^20000 things exceed"):
        _check_budget(2 ** 20000 + 1, "things")  # far past the digits Python prints


def test_a_huge_count_is_refused_on_its_lower_bound_before_it_is_formed():
    # [n, k]_q >= q^(k(n-k)): at 64 bits the bound names the count, below it the exact count does
    with pytest.raises(LimitExceeded, match="^18446744073709551615 subspaces exceed"):
        next(enumerate_subspaces(F2, 64, 1))
    with pytest.raises(LimitExceeded, match=r"^at least 2\^64 subspaces exceed"):
        next(enumerate_subspaces(F2, 65, 1))
    with pytest.raises(LimitExceeded, match=r"^at least 2\^55340232221128654845 subspaces exceed"):
        next(enumerate_subspaces(F9, 2 ** 64, 1))  # floor(log2 9) = 3 bits per power of 9
    with pytest.raises(FormatError, match="ambient dimension 4611686018427387904 is too large"):
        next(enumerate_subspaces(F2, 2 ** 62, 0))  # one item, but no array has that many columns


def test_budget_counts_items_not_the_ambient_space():
    # q^n = 2^21 is over the budget; the point and the whole space are one item each
    assert list(enumerate_subspaces(F2, 21, 0)) == [Subspace.zero(F2, 21)]
    assert list(enumerate_subspaces(F2, 21, 21)) == [Subspace.full(F2, 21)]
    line = Subspace.from_array(F2, 21, [[1] * 21])
    assert line.vector_array().tolist() == [[0] * 21, [1] * 21]


def _q_pascal(n_max, q):
    """[n, k]_q for n <= n_max by the q-Pascal recurrence [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + q ** k * prev[k] for k in range(1, n + 1)])
    return rows


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gaussian_binomial_matches_q_pascal(q):
    for n, row in enumerate(_q_pascal(12, q)):
        assert [gaussian_binomial(n, k, q) for k in range(n + 1)] == row


def test_gaussian_binomial_needs_no_recursion_depth():
    assert gaussian_binomial(5000, 1, 2) == 2 ** 5000 - 1
    assert gaussian_binomial(5000, 4999, 2) == 2 ** 5000 - 1
    assert gaussian_binomial(5000, 2, 2) == (2 ** 5000 - 1) * (2 ** 4999 - 1) // 3


def test_matrix_product():
    m = np.array([[1, 2], [0, 1]])
    assert np.array_equal(matmul_arrays(F3, m, np.eye(2, dtype=np.int64)), m)
    assert matmul_arrays(F3, m, m).tolist() == [[1, 1], [0, 1]]  # 1*2 + 2*1 = 4 = 1 mod 3


@pytest.mark.parametrize("ctx", [F3, F4, F16])
def test_matmul_of_stacks_is_the_product_of_each_entry(ctx):
    rng = np.random.default_rng(ctx.q)
    a = rng.integers(0, ctx.q, size=(5, 3, 4))
    b = rng.integers(0, ctx.q, size=(5, 4, 2))
    stacked = matmul_arrays(ctx, a, b)
    assert stacked.shape == (5, 3, 2)
    for t in range(5):
        assert np.array_equal(stacked[t], matmul_arrays(ctx, a[t], b[t]))
    assert np.array_equal(matmul_arrays(ctx, a, b[0]), np.stack([matmul_arrays(ctx, x, b[0]) for x in a]))


def test_subspace_json_round_trip():
    s = span_rows(F4, [2, 0, 0], E2)
    d = s.to_dict()
    assert d["q-spec"] == "2^2/7"
    assert Subspace.from_dict(d) == s


def test_subspace_json_writes_plain_ints():
    for s in (span_rows(F4, [2, 3, 1], [0, 1, 3]), Subspace.zero(F3, 2), Subspace.full(F16, 3)):
        basis = s.to_dict()["basis"]
        assert basis == [[int(v) for v in row] for row in s.basis]
        assert all(type(v) is int for row in basis for v in row)


def test_sum_of_two_zero_spaces_is_the_zero_space():
    # np.vstack of two (0, n) int64 bases is already (0, n) int64
    for ctx in (F2, F3, F4):
        for n in (0, 1, 4):
            zero = Subspace.zero(ctx, n)
            total = zero + zero
            assert total == zero and total.basis.shape == (0, n) and total.basis.dtype == np.int64
            assert zero + Subspace.full(ctx, n) == Subspace.full(ctx, n)


def test_subspace_json_strict_rejects_noncanonical():
    bad = {"q-spec": "3", "n": 2, "basis": [[2, 0], [0, 1]]}
    with pytest.raises(NotCanonical):
        Subspace.from_dict(bad)
    fixed = Subspace.from_basis(F3, 2, bad["basis"], strict=False)  # documents are always read strictly
    assert fixed == Subspace.full(F3, 2)
