import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bfs_distances,
    brute_glb,
    brute_lub,
    cover_matrix,
    covers_by_containment,
    leq_matrix,
    multiplicity_oracle,
    poset_elements,
    random_multiset,
    random_multispace,
)
from multispace.errors import FormatError, LimitExceeded, RankZero
from multispace.fields import field
from multispace.lattice import (
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
)
from multispace.linalg import FqVector, Subspace, span, subspace_distance

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F16 = field(2, 4)

E1 = FqVector.unit(F2, 3, 0)
E2 = FqVector.unit(F2, 3, 1)


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
    assert mu == {FqVector.zero(F2, 2): 1, FqVector.unit(F2, 2, 0): 1}


def test_multiplicity_oracle_repeated_vector():
    mu = multiplicity_oracle(VectorMultiset(F2, 2, [[1, 0], [1, 0]]))
    assert mu == {FqVector.zero(F2, 2): 2, FqVector.unit(F2, 2, 0): 2}


def test_multiplicity_oracle_support_is_span():
    rng = np.random.default_rng(3)
    for ctx in (F2, F3):
        for _ in range(10):
            b = random_multiset(ctx, 3, int(rng.integers(0, 5)), rng)
            mu = multiplicity_oracle(b)
            support = {tuple(v.coords) for v in mu}
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
    a = Multispace(span([E1]), 0)
    b = Multispace(Subspace.zero(F2, 3), 1)
    bottom = Multispace.bottom(F2, 3)
    assert meet(a, a) == a
    assert meet(a, b) == bottom  # {0, e1} cap {0, 0} = {0}
    assert meet(a, bottom) == bottom


def test_join_examples():
    bottom = Multispace.bottom(F2, 3)
    a = Multispace(span([E1]), 0)
    b = Multispace(span([E2]), 1)
    assert join(a, bottom) == a
    j = join(a, b)
    assert j == Multispace(span([E1, E2]), 1) and j.rank == 3


def test_rank_valuation_random():
    rng = np.random.default_rng(9)
    for ctx in (F2, F3):
        for _ in range(40):
            a = random_multispace(ctx, 3, rng)
            b = random_multispace(ctx, 3, rng)
            assert meet(a, b).rank + join(a, b).rank == a.rank + b.rank


def test_distance_examples():
    a = Multispace(span([E1]), 0)
    b = Multispace(Subspace.zero(F2, 3), 1)
    assert distance(a, a) == 0
    assert distance(a, b) == 2
    # height-0 pairs: plain subspace distance
    rng = np.random.default_rng(1)
    for _ in range(20):
        s1 = Multispace(span([FqVector(F2, rng.integers(0, 2, 3))]), 0)
        s2 = Multispace(span([FqVector(F2, rng.integers(0, 2, 3))]), 0)
        assert distance(s1, s2) == subspace_distance(s1.underlying, s2.underlying)


def test_distance_decomposition():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_multispace(F2, 4, rng)
        b = random_multispace(F2, 4, rng)
        expected = subspace_distance(a.underlying, b.underlying) + abs(a.height - b.height)
        assert distance(a, b) == expected
        assert distance(a, b) == join(a, b).rank - meet(a, b).rank


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 16]),
    n=st.integers(1, 6),
    size=st.integers(0, 20),
    zero_dims=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_pairwise_distances_match_distance_loop(q, n, size, zero_dims, seed):
    ctx = {2: F2, 3: F3, 4: F4, 16: F16}[q]
    rng = np.random.default_rng(seed)

    def words(size, zero):  # all of dim 0 stacks as (T, 0, n)
        if zero:
            return [Multispace(Subspace.zero(ctx, n), int(rng.integers(0, 4))) for _ in range(size)]
        return [random_multispace(ctx, n, rng) for _ in range(size)]

    xs, ys = words(size, zero_dims[0]), words(size, zero_dims[1])
    square = pairwise_distances(xs)
    assert square.dtype == np.int64 and square.shape == (len(xs), len(xs))
    assert square.tolist() == [[distance(a, b) for b in xs] for a in xs]
    if xs:  # row t of one stack against row t of the other, the channel's pairing
        d, joins = _WordStack.of(xs).paired(_WordStack.of(ys))
        assert d.dtype == np.int64 and d.tolist() == [distance(a, b) for a, b in zip(xs, ys)]
        assert joins.tolist() == [(a.underlying + b.underlying).dim for a, b in zip(xs, ys)]


def test_multiset_leq_examples():
    bottom = Multispace.bottom(F2, 3)
    a = Multispace(span([E1]), 1)
    b = Multispace(span([E1]), 0)
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


def test_enumerate_multispaces_budget():
    words = enumerate_multispaces(F2, 25, 1)  # 2^25 multispaces
    with pytest.raises(LimitExceeded, match="33554432 multispaces"):
        next(words)
    assert list(enumerate_multispaces(F2, 3, -1)) == []
    assert list(enumerate_multispaces(F2, -1, 2)) == []


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
    w = Multispace(span([E1, E2]), 2)
    d = w.to_dict()
    assert d["height"] == 2
    assert Multispace.from_dict(d) == w
    with pytest.raises(FormatError):
        Multispace.from_dict({"q-spec": "2", "n": 3, "basis": []})


def test_vector_multiset_round_trip():
    b = VectorMultiset(F3, 2, [[1, 2], [0, 1], [1, 2]])
    assert VectorMultiset.from_dict(b.to_dict()) == b
    assert len(b) == 3
    assert b.vectors[2] == FqVector(F3, [1, 2])


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
