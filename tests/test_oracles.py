"""The elimination kernels against an independent implementation: sympy's
DomainMatrix over GF(p), and over GF(p)[x]/(f) as a FiniteExtension built from
the library's own modulus f, so every encoding names the same element in both."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, symbols
from sympy.polys.agca.extensions import FiniteExtension
from sympy.polys.matrices import DomainMatrix

from multispace.fields import field
from multispace.linalg import matmul_arrays, rank_batch, rref_array

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
    for m, rank in zip(a, want):
        red, got, pivots = rref_array(ctx, m)
        if rows and cols:
            form, their_pivots = _sympy_matrix(ctx, m).rref()
            assert (got, pivots) == (rank, list(their_pivots))
            assert red.tolist() == [[SYMPY[ctx][1].index(x) for x in row] for row in form.to_list()]
        else:
            assert got == rank == 0
