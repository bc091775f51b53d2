import itertools
import random

import numpy as np
import pytest
from helpers import is_rref_by_definition
from hypothesis import given, settings, strategies as st

from multispace.errors import (
    ContextMismatch,
    DimensionMismatch,
    FormatError,
    LimitExceeded,
    NotCanonical,
)
from multispace.fields import field
from multispace.lattice import gaussian_binomial
from multispace.linalg import (
    DEFAULT_STATE_LIMIT,
    FqMatrix,
    FqVector,
    Subspace,
    _check_budget,
    enumerate_subspaces,
    is_rref,
    matmul_arrays,
    rref,
    rref_array,
    rref_batch,
    span,
    subspace_distance,
    subspace_leq,
)

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)
F16 = field(2, 4)


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
    m = FqMatrix.identity(F2, 4)
    r, rank = rref(m)
    assert rank == 4 and np.array_equal(r.array, m.array)


def test_rref_duplicate_rows():
    m = FqMatrix.from_rows(F2, [[1, 1, 0], [1, 1, 0]])
    r, rank = rref(m)
    assert rank == 1
    assert r.array[0].tolist() == [1, 1, 0]
    assert not r.array[1].any()


def test_rref_f3_dependent_rows():
    # (2,1) = 2*(1,2) mod 3, so the rank is 1 and the RREF row is (1,2)
    m = FqMatrix.from_rows(F3, [[1, 2], [2, 1]])
    # independent oracle: count distinct linear combinations
    assert len(brute_span_vectors(F3, [[1, 2], [2, 1]])) == 3  # = 3^rank
    r, rank = rref(m)
    assert rank == 1
    assert r.array[0].tolist() == [1, 2]


def test_rref_preserves_row_space():
    rng = np.random.default_rng(2)
    for ctx in (F2, F3, F4):
        for _ in range(20):
            rows = rng.integers(0, ctx.q, size=(3, 4))
            r, rank = rref(FqMatrix(ctx, rows))
            assert brute_span_vectors(ctx, rows.tolist()) == brute_span_vectors(
                ctx, r.array[:rank].tolist()
            )


def test_span_examples():
    assert span([], ctx=F2, n=3).dim == 0
    e1, e2 = FqVector.unit(F2, 3, 0), FqVector.unit(F2, 3, 1)
    s = span([e1, e1 + e2])
    assert s.dim == 2 and s.basis.tolist() == [[1, 0, 0], [0, 1, 0]]
    z = FqVector.zero(F2, 3)
    assert span([z, z]).dim == 0


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
    e1, e2 = FqVector.unit(F2, 3, 0), FqVector.unit(F2, 3, 1)
    a = span([e1])
    zero = Subspace.zero(F2, 3)
    assert a + zero == a
    assert a + a == a
    s = span([e1]) + span([e2])
    assert s.basis.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_intersection_examples():
    e1, e2, e3 = (FqVector.unit(F2, 3, i) for i in range(3))
    a = span([e1, e2])
    assert a.intersect(a) == a
    assert span([e1]).intersect(span([e2])).dim == 0
    got = span([e1, e2]).intersect(span([e2, e3]))
    assert got == span([e2])


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
    line = Subspace.from_array(F2, 2, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        line.contains_array([1, 0, 1, 0])  # four entries, not two vectors of GF(2)^2
    with pytest.raises(DimensionMismatch):
        line.contains_array([[1], [0]])  # a column, not the vector (1, 0)
    assert line.contains_array([1, 0]) and line.contains_array([[1, 0], [0, 0]])
    assert not line.contains_array([[0, 1]])


def test_contains_and_leq():
    zero = Subspace.zero(F2, 3)
    assert zero.contains(FqVector.zero(F2, 3))
    e1, e2 = FqVector.unit(F2, 3, 0), FqVector.unit(F2, 3, 1)
    assert not span([e1]).contains(e2)
    v = FqVector(F3, [1, 1, 0])
    assert span([v]).contains(v.scale(2))  # scalar closure in GF(3)
    assert subspace_leq(zero, span([e1]))
    assert subspace_leq(span([e1]), span([e1, e2]))
    assert not subspace_leq(span([e1, e2]), span([e1]))
    assert not subspace_leq(span([e2]), span([e1]))


@settings(max_examples=200, deadline=None)
@given(
    ctx=st.sampled_from([F2, F3, F4, F16]),
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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F2, F3, F4]), st.integers(1, 4), st.randoms(use_true_random=False))
def test_contains_and_leq_match_member_sets(ctx, n, rand):
    rng = np.random.default_rng(rand.getrandbits(32))
    a, b = random_subspace(ctx, n, rng), random_subspace(ctx, n, rng)
    members = {tuple(v) for v in b.vector_array()}
    assert (a <= b) == members.issuperset(tuple(v) for v in a.vector_array())
    for v in rng.integers(0, ctx.q, size=(4, n)):
        assert b.contains(FqVector(ctx, v)) == (tuple(v) in members)


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


def test_enumerate_subspaces_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_subspaces(F2, 30, 1))


def test_budget_is_checked_before_the_first_item():
    _check_budget(DEFAULT_STATE_LIMIT, "items")
    with pytest.raises(LimitExceeded):
        _check_budget(DEFAULT_STATE_LIMIT + 1, "items")
    lines = enumerate_subspaces(F2, 21, 1)  # 2^21 - 1 lines
    with pytest.raises(LimitExceeded, match="2097151 subspaces"):
        next(lines)
    with pytest.raises(LimitExceeded, match="2097152 vectors"):
        Subspace.full(F2, 21).vector_array()


def test_budget_message_names_huge_counts_by_a_power_of_two():
    with pytest.raises(LimitExceeded, match="^1048577 things exceed"):
        _check_budget(DEFAULT_STATE_LIMIT + 1, "things")
    with pytest.raises(LimitExceeded, match=r"^at least 2\^20000 things exceed"):
        _check_budget(2 ** 20000 + 1, "things")  # far past the digits Python prints


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
    m = FqMatrix.from_rows(F3, [[1, 2], [0, 1]])
    i = FqMatrix.identity(F3, 2)
    assert (m @ i) == m
    sq = m @ m
    assert sq.array.tolist() == [[1, 4 % 3 + 0], [0, 1]] or sq.array.tolist() == [[1, 1], [0, 1]]
    with pytest.raises(DimensionMismatch):
        m @ FqMatrix.identity(F3, 3)
    with pytest.raises(ContextMismatch):
        m @ FqMatrix.identity(F2, 2)


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
    e1, e2 = FqVector.unit(F4, 3, 0), FqVector.unit(F4, 3, 1)
    s = span([e1.scale(2), e2])
    d = s.to_dict()
    assert d["q-spec"] == "2^2/7"
    assert Subspace.from_dict(d) == s


def test_subspace_json_strict_rejects_noncanonical():
    bad = {"q-spec": "3", "n": 2, "basis": [[2, 0], [0, 1]]}
    with pytest.raises(NotCanonical):
        Subspace.from_dict(bad)
    fixed = Subspace.from_dict(bad, strict=False)
    assert fixed == Subspace.full(F3, 2)


def test_vector_operations_and_errors():
    v = FqVector(F3, [1, 2, 0])
    w = FqVector(F3, [2, 2, 1])
    assert (v + w).coords.tolist() == [0, 1, 1]
    assert (v - w).coords.tolist() == [2, 0, 2]
    assert v.scale(2).coords.tolist() == [2, 1, 0]
    assert v[1].value == 2
    with pytest.raises(DimensionMismatch):
        v + FqVector(F3, [1, 2])
    with pytest.raises(ContextMismatch):
        v + FqVector(F2, [1, 0, 1])
    with pytest.raises(ValueError):
        FqVector(F3, [5, 0, 0])
