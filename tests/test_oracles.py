"""The library against independent implementations.  The elimination kernels
against sympy's DomainMatrix over GF(p), and over GF(p)[x]/(f) as a
FiniteExtension built from the library's own modulus f, so every encoding names
the same element in both.  Γ's graph distances, its distance regularity and the
witness of an irregular Γ, and the clique search, against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, symbols
from sympy.polys.agca.extensions import FiniteExtension
from sympy.polys.matrices import DomainMatrix

from multispace import codes
from multispace.fields import field
from multispace.lattice import enumerate_multispaces_up_to, gamma_graph, is_distance_regular, pairwise_distances
from multispace.linalg import matmul_arrays, rank_batch, rref_array, rref_batch

FIELDS = [field(2), field(3), field(5), field(7), field(2, 2), field(3, 2)]


def _sympy_field(ctx):
    """sympy's field for ctx and its elements by encoding: a0 + a1 p + ... names a0 + a1 x + ..."""
    if ctx.e == 1:
        dom = GF(ctx.p)
        return dom, [dom(a) for a in range(ctx.q)]
    coeffs = [ctx.modulus // ctx.p ** i % ctx.p for i in range(ctx.e + 1)]
    dom = FiniteExtension(Poly(coeffs[::-1], symbols("x"), modulus=ctx.p))
    powers = [dom.one]
    for _ in range(ctx.e - 1):
        powers.append(powers[-1] * dom.generator)
    elems = []
    for a in range(ctx.q):
        elem = dom.zero
        for power in powers:
            elem, a = elem + power * (a % ctx.p), a // ctx.p
        elems.append(elem)
    return dom, elems


SYMPY = {ctx: _sympy_field(ctx) for ctx in FIELDS}


def _sympy_matrix(ctx, a: np.ndarray) -> DomainMatrix:
    dom, elems = SYMPY[ctx]
    return DomainMatrix([[elems[x] for x in row] for row in a.tolist()], a.shape, dom)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda ctx: ctx.spec)
def test_the_encodings_name_the_same_field_in_sympy(ctx):
    _, elems = SYMPY[ctx]
    assert len(set(map(str, elems))) == ctx.q
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert elems[ctx.add(a, b)] == elems[a] + elems[b]
            assert elems[ctx.mul(a, b)] == elems[a] * elems[b]


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(0, 16), rows=st.integers(0, 6), cols=st.integers(0, 6), inner=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("ctx", FIELDS, ids=lambda ctx: ctx.spec)
def test_ranks_and_rref_match_sympy(ctx, batch, rows, cols, inner, seed):
    # half the stack a product through `inner` columns, so ranks below min(rows, cols) are common
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ctx.q, (batch, rows, cols))
    low = matmul_arrays(ctx, rng.integers(0, ctx.q, (batch, rows, inner)), rng.integers(0, ctx.q, (batch, inner, cols)))
    a[batch // 2 :] = low[batch // 2 :]
    want = [_sympy_matrix(ctx, m).rank() for m in a]
    assert rank_batch(ctx, a).tolist() == want
    stacked, ranks = rref_batch(ctx, a)  # the channel's received bases are this times the sent ones
    assert ranks.tolist() == want
    for m, rank, batched in zip(a, want, stacked):
        red, got, pivots = rref_array(ctx, m)
        if rows and cols:
            form, their_pivots = _sympy_matrix(ctx, m).rref()
            assert (got, pivots) == (rank, list(their_pivots))
            assert red.tolist() == batched.tolist() == [[SYMPY[ctx][1].index(x) for x in row] for row in form.to_list()]
        else:
            assert got == rank == 0


#: Γ(F_q, n, m) as (q, e, n, m): two distance-regular graphs and three that are not.
GAMMAS = [(2, 1, 2, 1), (2, 1, 3, 2), (3, 1, 3, 2), (2, 1, 4, 3), (2, 2, 3, 1)]


@pytest.mark.parametrize("p, e, n, m", GAMMAS)
def test_gamma_distances_and_regularity_match_networkx(p, e, n, m):
    g = gamma_graph(field(p, e), n, m)
    graph = nx.from_numpy_array(g.adjacency)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    v = len(g.vertices)
    want = np.array([[lengths[i].get(j, -1) for j in range(v)] for i in range(v)])
    assert np.array_equal(g.graph_distances(), want)
    report = is_distance_regular(g)
    assert report.regular == nx.is_distance_regular(graph)
    if report.regular:
        return
    witness = report.witness
    assert witness["reason"] == "intersection number not constant"
    k = witness["distance"]
    delta = k + {"c": -1, "a": 0, "b": 1}[witness["parameter"]]
    index = {w: i for i, w in enumerate(g.vertices)}

    def count(a, b):  # |N(a) ∩ sphere_delta(b)|, from networkx's distances
        return sum(lengths[c].get(b, -1) == delta for c in graph[a])

    values = [count(a, b) for a in range(v) for b in range(v) if lengths[a].get(b, -1) == k]
    low, high = ([index[x] for x in witness[key]] for key in ("pair_low", "pair_high"))
    assert (witness["value_low"], witness["value_high"]) == (count(*low), count(*high)) == (min(values), max(values))
    assert witness["value_low"] < witness["value_high"]


def _clique_number(adjacency: np.ndarray) -> int:
    graph = nx.from_numpy_array(adjacency & ~np.eye(len(adjacency), dtype=bool))
    return nx.max_weight_clique(graph, weight=None)[1]


def _is_clique(adjacency: np.ndarray, members: list[int]) -> bool:
    return all(adjacency[a, b] for i, a in enumerate(members) for b in members[i + 1:])


#: The compatibility graphs of optimal code searches as (q, e, n, m_max, d_min), and their clique numbers.
SEARCHES = [((3, 1, 2, 2, 2), 7), ((2, 2, 2, 2, 2), 8), ((2, 1, 3, 2, 3), 3), ((2, 1, 3, 2, 2), 16),
            ((2, 1, 3, 3, 3), 5)]


@pytest.mark.parametrize("search, omega", SEARCHES)
def test_the_clique_search_finds_the_networkx_clique_number_of_a_code_search(search, omega):
    p, e, n, m_max, d_min = search
    adjacency = pairwise_distances(list(enumerate_multispaces_up_to(field(p, e), n, m_max))) >= d_min
    best = codes._max_clique(adjacency)
    assert len(best) == _clique_number(adjacency) == omega
    assert _is_clique(adjacency, best)


@settings(max_examples=100, deadline=None)
@given(v=st.integers(0, 24), density=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_the_clique_search_finds_the_networkx_clique_number(v, density, seed):
    # the diagonal is random too: the search ignores it
    upper = np.random.default_rng(seed).random((v, v)) < density
    adjacency = upper | upper.T
    best = codes._max_clique(adjacency)
    assert len(best) == _clique_number(adjacency)
    assert _is_clique(adjacency, best)
