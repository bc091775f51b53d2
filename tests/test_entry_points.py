"""Input is checked once, at the public entry points, and trusted inside.

One table runs the public constructors and checking methods of the value
types (Subspace, VectorMultiset, Multispace, VectorFieldIso, MultispaceCode),
the cached factories (field, extension, vector_field_iso), the counting
and layer functions and the channel's samplers against float, bool, string, negative, out-of-range and
wrongly shaped input, and expects the documented toolkit error.
LinearizedPoly's cases extend test_qpoly's
test_encodings_out_of_range_are_refused, and
apply_transform has its own table in test_channel; the cases those tables and
the malformed-input tests of test_linalg and test_qpoly hold are not
repeated.  The oracles check that each value the library builds on its
trusted path equals the same value built through the checking entry point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multispace.channel import random_full_rank, random_matrix, random_rank
from multispace.codes import MultispaceCode, ball, ball_size, greedy_code
from multispace.errors import (
    ConfigInvalid,
    ContextMismatch,
    DimensionMismatch,
    FormatError,
    LimitExceeded,
    MultispaceError,
    NotAMultispace,
    NotCanonical,
)
from multispace.fields import FieldCtx, extension, field
from multispace.lattice import (
    Multispace,
    VectorMultiset,
    codespace_growth,
    count_multispaces,
    covered_neighbors,
    covering_neighbors,
    enumerate_multispaces,
    gamma_graph,
    hasse_dot,
    hasse_edges,
    mspan,
)
from multispace.linalg import Subspace, enumerate_subspaces, gaussian_binomial
from multispace.qpoly import LinearizedPoly, VectorFieldIso, poly_from_multispace, vector_field_iso

F2, F3, F4, F16 = field(2), field(3), field(2, 2), field(2, 4)
LINE = Subspace.from_array(F2, 3, [[1, 0, 1]])
WORD = Multispace(LINE, 1)
ISO = vector_field_iso(F2, 2)
RNG = np.random.default_rng(0)

#: (id, call, documented error, text the message holds).  The cases before the
#: comment failed before the entry points checked them: the input was accepted,
#: refused by numpy or Python with no toolkit error, or refused with a wrong message.
CASES = [
    ("height-float", lambda: Multispace(LINE, 1.5), ConfigInvalid, "height 1.5 is not an integer"),
    ("height-string", lambda: Multispace(LINE, "2"), ConfigInvalid, "height '2' is not an integer"),
    ("height-bool", lambda: Multispace(LINE, True), ConfigInvalid, "height True is not an integer"),
    ("multiset-float-n", lambda: VectorMultiset(F2, 3.0, [[1, 0, 1]]), ConfigInvalid, "n 3.0 is not an integer"),
    ("mspan-float-n", lambda: mspan(VectorMultiset(F2, 3.0, [[1, 0, 1]])).to_dict(), ConfigInvalid, "n 3.0"),
    ("multiset-negative-n", lambda: VectorMultiset(F2, -1, []), ConfigInvalid, "ambient dimension -1 is negative"),
    ("from-array-float-n", lambda: Subspace.from_array(F2, 2.0, [[1, 0]]), ConfigInvalid, "n 2.0 is not an integer"),
    ("from-basis-float-n", lambda: Subspace.from_basis(F2, 2.0, [[1, 0]]), ConfigInvalid, "n 2.0 is not an integer"),
    ("code-negative-m-max", lambda: MultispaceCode(F2, 2, -1, ()), ConfigInvalid, "m_max = -1 must be nonnegative"),
    ("code-float-n", lambda: MultispaceCode(F2, 2.5, 1, ()), ConfigInvalid, "n 2.5 is not an integer"),
    ("code-negative-n", lambda: MultispaceCode(F2, -1, 1, ()), ConfigInvalid, "ambient dimension -1 is negative"),
    ("code-bool-m-max", lambda: MultispaceCode(F2, 2, True, ()), ConfigInvalid, "m_max True is not an integer"),
    ("zero-bool-n", lambda: Subspace.zero(F2, True), ConfigInvalid, "n True is not an integer"),
    ("full-float-n", lambda: Subspace.full(F2, 2.0), ConfigInvalid, "n 2.0 is not an integer"),
    ("full-negative-n", lambda: Subspace.full(F2, -1), ConfigInvalid, "ambient dimension -1 is negative"),
    ("iso-float-n", lambda: VectorFieldIso(F2, 2.0, F4), ConfigInvalid, "n 2.0 is not an integer"),
    ("iso-bool-n", lambda: VectorFieldIso(F2, True, F2), ConfigInvalid, "n True is not an integer"),
    ("multiset-string-n", lambda: VectorMultiset(F2, "3", [[1, 0, 1]]), ConfigInvalid, "n '3' is not an integer"),
    ("from-array-bool-n", lambda: Subspace.from_array(F2, True, [[1]]), ConfigInvalid, "n True is not an integer"),
    ("from-array-negative-n", lambda: Subspace.from_array(F2, -2, []), ConfigInvalid, "dimension -2 is negative"),
    ("height-negative", lambda: Multispace(LINE, -1), ConfigInvalid, "height -1 is negative"),
    ("iso-negative-n", lambda: VectorFieldIso(F2, -1, F4), ConfigInvalid, "dimension -1 is not positive"),
    ("code-float-m-max", lambda: MultispaceCode(F2, 3, 2.0, ()), ConfigInvalid, "m_max 2.0 is not an integer"),
    ("field-degree-0", lambda: FieldCtx(2, 0), ConfigInvalid, "extension degree must be >= 1"),
    ("binomial-q-1", lambda: gaussian_binomial(3, 1, 1), ConfigInvalid, "q must be at least 2"),
    ("enumerate-float-m", lambda: list(enumerate_multispaces(F2, 3, 2.0)), ConfigInvalid, "m 2.0 is not an integer"),
    ("enumerate-float-n", lambda: list(enumerate_multispaces(F2, 3.0, 2)), ConfigInvalid, "n 3.0 is not an integer"),
    ("zero-poly-degree", lambda: LinearizedPoly(2, F16, {}).q_degree, NotAMultispace, "no degree"),
    # the cached and counting entry points: a float equal to an int shared its cache entry or met range()
    ("field-float-degree", lambda: field(2, 2.0), ConfigInvalid, "e 2.0 is not an integer"),
    ("field-float-prime", lambda: field(3.0), ConfigInvalid, "p 3.0 is not an integer"),
    ("field-float-modulus", lambda: field(2, 2, 7.0), ConfigInvalid, "modulus 7.0 is not an integer"),
    ("extension-float-times", lambda: extension(F2, 2.0), ConfigInvalid, "times 2.0 is not an integer"),
    ("cached-iso-float-n", lambda: vector_field_iso(F2, 2.0), ConfigInvalid, "n 2.0 is not an integer"),
    ("count-float-m", lambda: count_multispaces(3, 2.5, 2), ConfigInvalid, "m 2.5 is not an integer"),
    ("count-bool-q", lambda: count_multispaces(3, 2, True), ConfigInvalid, "q True is not an integer"),
    ("gamma-float-n", lambda: gamma_graph(F2, 3.0, 1), ConfigInvalid, "n 3.0 is not an integer"),
    ("gamma-string-m", lambda: gamma_graph(F2, 3, "1"), ConfigInvalid, "m '1' is not an integer"),
    ("ball-string-m-max", lambda: ball(WORD, 1, "3"), ConfigInvalid, "m_max '3' is not an integer"),
    ("ball-float-m-max", lambda: ball(WORD, 1, 3.5), ConfigInvalid, "m_max 3.5 is not an integer"),
    ("ball-size-float-m-max", lambda: ball_size(WORD, 1, 2.5), ConfigInvalid, "m_max 2.5 is not an integer"),
    ("hasse-dot-float-m-max", lambda: hasse_dot(F2, 3, 2.0), ConfigInvalid, "m_max 2.0 is not an integer"),
    ("hasse-edges-float-n", lambda: list(hasse_edges(F2, 3.0, 2)), ConfigInvalid, "n 3.0 is not an integer"),
    ("growth-float-m", lambda: codespace_growth(F2, 3, 2.5), ConfigInvalid, "m 2.5 is not an integer"),
    ("subspaces-float-k", lambda: list(enumerate_subspaces(F2, 3, 1.0)), ConfigInvalid, "k 1.0 is not an integer"),
    ("binomial-float-n", lambda: gaussian_binomial(3.0, 1, 2), ConfigInvalid, "n 3.0 is not an integer"),
    # the samplers handed their sizes to numpy unchecked
    ("full-rank-negative-m", lambda: random_full_rank(F2, -1, RNG), ConfigInvalid, "m -1 is negative"),
    ("full-rank-float-m", lambda: random_full_rank(F2, 2.5, RNG), ConfigInvalid, "m 2.5 is not an integer"),
    ("matrix-negative-rows", lambda: random_matrix(F2, -1, 2, RNG), ConfigInvalid, "rows -1 is negative"),
    ("rank-float-r", lambda: random_rank(F2, 3, 3, 1.0, RNG), ConfigInvalid, "r 1.0 is not an integer"),
    ("full-rank-past-budget", lambda: random_full_rank(F2, 1025, RNG), LimitExceeded, "channel matrix entries"),
    ("rank-past-budget", lambda: random_rank(F2, 1 << 20, 2, 0, RNG), LimitExceeded, "channel matrix entries"),
    ("greedy-past-budget", lambda: greedy_code(F2, 1, 1 << 62, 1), LimitExceeded, "9223372036854775809 multispaces"),
    # refused with this error before as well
    ("multiset-float-entry", lambda: VectorMultiset(F2, 2, [[1.5, 0]]), FormatError, "dtype float64"),
    ("multiset-string-entry", lambda: VectorMultiset(F2, 2, [["1", 0]]), FormatError, "not integer encodings"),
    ("multiset-out-of-range", lambda: VectorMultiset(F2, 2, [[2, 0]]), FormatError, "out of range"),
    ("multiset-negative-entry", lambda: VectorMultiset(F2, 2, [[-1, 0]]), FormatError, "out of range"),
    ("multiset-shape", lambda: VectorMultiset(F2, 2, [[1, 0, 1]]), DimensionMismatch, "expected (*, 2)"),
    ("from-array-out-of-range", lambda: Subspace.from_array(F3, 2, [[3, 0]]), FormatError, "out of range"),
    ("from-array-shape", lambda: Subspace.from_array(F2, 2, [[[1, 0]]]), DimensionMismatch, "expected (*, 2)"),
    ("from-basis-not-canonical", lambda: Subspace.from_basis(F2, 2, [[0, 1], [1, 0]]), NotCanonical, "echelon"),
    ("contains-float", lambda: LINE.contains_array([1.0, 0, 1]), FormatError, "dtype float64"),
    ("iso-wrong-field", lambda: VectorFieldIso(F2, 3, F4), ContextMismatch, "is not GF(q^3)"),
    ("to-vector-string", lambda: ISO.to_vector_array(["1"]), FormatError, "not integer encodings"),
    ("code-rank-past-m-max", lambda: MultispaceCode(F2, 3, 1, (WORD,)), ConfigInvalid, "exceeds m_max 1"),
    ("code-wrong-n", lambda: MultispaceCode(F2, 4, 3, (WORD,)), ConfigInvalid, "ambient dimension differs"),
    ("code-wrong-field", lambda: MultispaceCode(F3, 3, 3, (WORD,)), ContextMismatch, "differ"),
    ("code-duplicate", lambda: MultispaceCode(F2, 3, 3, (WORD, Multispace(LINE, 1))), ConfigInvalid, "duplicate"),
]


@pytest.mark.parametrize("call, error, text", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_public_entry_points_refuse_malformed_input(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, MultispaceError)
    assert text in str(info.value)


@st.composite
def words(draw, ctx=None, n=None):
    """A multispace of a small GF(q)^n, built through the checking entry points."""
    ctx = ctx or draw(st.sampled_from([F2, F3, F4]))
    n = n or draw(st.integers(1, 4 if ctx.q == 2 else 3))
    rows = draw(st.lists(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n), max_size=n + 1))
    return Multispace(Subspace.from_array(ctx, n, np.array(rows, dtype=np.int64).reshape(-1, n)),
                      draw(st.integers(0, 3)))


@settings(max_examples=80, deadline=None)
@given(w=words())
def test_a_trusted_polynomial_equals_its_checked_build(w):
    L = poly_from_multispace(w)
    checked = LinearizedPoly(L.base_q, L.ctx, L.coeffs)
    assert L == checked and list(L.coeffs.items()) == list(checked.coeffs.items())
    assert all(type(i) is int and type(c) is int and c for i, c in L.coeffs.items())


@settings(max_examples=30, deadline=None)
@given(ctx=st.sampled_from([F2, F3]), n=st.integers(1, 3), m_max=st.integers(0, 3), d_min=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_trusted_greedy_code_equals_its_checked_builds(ctx, n, m_max, d_min, seed):
    code = greedy_code(ctx, n, m_max, d_min, seed=seed)
    for checked in (MultispaceCode(ctx, n, m_max, code.codewords), MultispaceCode.from_dict(code.to_dict())):
        assert checked == code
        assert checked.min_distance == code.min_distance


@settings(max_examples=80, deadline=None)
@given(w=words(), x=st.data())
def test_trusted_multisets_sums_and_covers_equal_their_checked_builds(w, x):
    ctx, n = w.ctx, w.n
    gen = w.generating_multiset()
    assert gen == VectorMultiset(ctx, n, gen.matrix.copy()) and not gen.matrix.flags.writeable
    assert mspan(gen) == w == Multispace(Subspace.from_array(ctx, n, gen.matrix), len(gen) - w.dim)
    other = x.draw(words(ctx, n))
    total = w.underlying + other.underlying
    assert total == Subspace.from_array(ctx, n, np.vstack([w.underlying.basis, other.underlying.basis]))
    assert (w.underlying <= total) and (other.underlying <= total)
    for u in covering_neighbors(w) + covered_neighbors(w):
        assert u.underlying == Subspace.from_basis(ctx, n, u.underlying.basis, strict=True)
        assert u == Multispace(u.underlying, u.height) and type(u.height) is int
    layer = list(enumerate_multispaces(ctx, n, np.int64(w.rank)))
    assert w in layer and all(u == Multispace(u.underlying, u.height) and type(u.height) is int for u in layer)
