import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    DensePoly,
    coordinate_map_oracle,
    dense_degree,
    dense_of,
    eval_by_coefficient,
    literal_product,
    poly_by_arrays,
    random_multispace,
    root_multiplicities_by_division,
    roots_by_evaluation,
    span_rows,
    whole_space_poly_by_recursion,
)
from multispace import fields, linalg, qpoly
from multispace.errors import (
    DimensionMismatch,
    FormatError,
    NotAMultispace,
    RootsNotInField,
)
from multispace.fields import FieldCtx, extension, field
from multispace.lattice import Multispace, enumerate_multispaces
from multispace.linalg import Subspace, _odometer
from multispace.qpoly import (
    LinearizedPoly,
    VectorFieldIso,
    poly_from_multispace,
    roots_multiset,
    vector_field_iso,
)

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)


def dense_product_oracle(w, iso):
    """Literal expansion of the root product, multiplying factor by factor."""
    big = iso.big
    poly = DensePoly.one(big)
    mult = w.ctx.q ** w.height
    for r in iso.to_field_array(w.underlying.vector_array()):
        for _ in range(mult):
            poly = poly.mul_linear(int(r))
    return poly


def scalar_eval_oracle(L, x):
    """L(x) one coefficient at a time, with the scalar field operations."""
    F, acc = L.ctx, 0
    for i, c in L.coeffs.items():
        acc = F.add(acc, F.mul(c, F.frobenius(x, i, L.base_q)))
    return acc


def test_bottom_gives_x():
    L = poly_from_multispace(Multispace.bottom(F2, 3))
    assert L.coeffs == {0: 1}
    assert L.text() == "1*x^1"


def test_height_one_zero_space_gives_x_squared():
    L = poly_from_multispace(Multispace(Subspace.zero(F2, 3), 1))
    assert L.coeffs == {1: 1}
    assert dense_degree(L) == 2


def test_line_in_f4():
    w = Multispace(span_rows(F2, [1, 0]), 0)
    L = poly_from_multispace(w)
    assert sorted(L.coeffs) == [0, 1]  # exponents {q^0, q^1} = {1, 2}
    phi_v = vector_field_iso(F2, 2).to_field_array(np.array([[1, 0]]))[0]
    assert L.coeffs[0] == int(phi_v)  # x^2 - phi(v) x, char 2


@pytest.mark.parametrize("ctx,n,max_rank", [(F2, 2, 6), (F2, 3, 5), (F3, 2, 4)])
def test_expansion_matches_literal_product(ctx, n, max_rank):
    iso = vector_field_iso(ctx, n)
    for m in range(0, max_rank + 1):
        for w in enumerate_multispaces(ctx, n, m):
            if ctx.q ** w.rank > 1 << 10:
                continue
            L = poly_from_multispace(w)
            assert dense_of(L) == dense_product_oracle(w, iso)
            assert dense_of(L) == literal_product(w)
            # pure q-power exponent set and monic leading term
            assert max(L.coeffs) == w.rank
            assert L.coeffs[w.rank] == 1
            assert dense_degree(L) == ctx.q ** w.rank


@pytest.mark.parametrize("ctx,n,max_rank", [(F2, 1, 8), (F2, 2, 7), (F2, 3, 5), (F3, 2, 4)])
def test_round_trip(ctx, n, max_rank):
    for m in range(0, max_rank + 1):
        for w in enumerate_multispaces(ctx, n, m):
            L = poly_from_multispace(w)
            assert roots_multiset(L) == w


def test_x_q_minus_x_recovers_the_base_line():
    for q, e in [(2, 1), (3, 1), (4, 2)]:
        ctx = field(2, 2) if q == 4 else field(q)
        n = 3 if q != 4 else 2
        big, _ = extension(ctx, n)
        L = LinearizedPoly(ctx.q, big, {1: 1, 0: big.neg(1)})
        w = roots_multiset(L)
        assert w.height == 0
        assert w.underlying == span_rows(ctx, np.eye(n, dtype=np.int64)[0])


def test_eval_is_linear_and_matches_dense():
    f16 = field(2, 4)
    L = LinearizedPoly(2, f16, {0: 3, 1: 7, 2: 1})
    assert L.eval(0) == 0 and type(L(5)) is int
    dense = dense_of(L)
    for x in range(16):
        assert L.eval(x) == dense.eval(x)
    assert L.eval_domain().tolist() == [L.eval(x) for x in range(16)]
    for a in range(16):
        for b in range(16):
            s = f16.add(a, b)
            assert L.eval(s) == f16.add(L.eval(a), L.eval(b))
    # GF(q)-homogeneity for the base field inside the tower
    f4_in_f16 = extension(field(2, 2), 2)[1]
    Lq = LinearizedPoly(4, f16, {0: 5, 1: 9})
    for c in range(4):
        cc = int(f4_in_f16.table[c])
        for x in range(16):
            assert Lq.eval(f16.mul(cc, x)) == f16.mul(cc, Lq.eval(x))


def test_encodings_out_of_range_are_refused():
    f16 = field(2, 4)
    L = LinearizedPoly(2, f16, {0: 3, 1: 7})
    for bad in (-1, 16, 2 ** 70, [0, 16], [[1, -1]]):
        with pytest.raises(FormatError):
            L.eval_array(bad)
    for bad in (-1, 16, 2 ** 70, 1.5):
        with pytest.raises(FormatError):
            L.eval(bad)
        with pytest.raises(FormatError):
            LinearizedPoly(2, f16, {0: bad})
    for coeffs in ({0: [1]}, {0: [1], 1: [2]}, {0: 1, 1: [2]}, {0: "1"}):
        with pytest.raises(FormatError):
            LinearizedPoly(2, f16, coeffs)
    # q-indices and the base are plain ints: no float, string or bool is read as one
    for coeffs, message in (({-1: 1}, "q-index -1 is negative"), ({-1: 1, 1: 1}, "q-index -1 is negative"),
                            ({1.5: 1}, "q-index 1.5 is not"), ({"1": 1}, "q-index '1' is not"),
                            ({True: 1}, "q-index True is not")):
        with pytest.raises(FormatError, match=re.escape(message)):
            LinearizedPoly(2, f16, coeffs)
    for base in (2.0, "2", True):
        with pytest.raises(FormatError, match=re.escape(f"base-q {base!r} is not an integer")):
            LinearizedPoly(base, f16, {0: 1})


def test_multiplicities_by_synthetic_division():
    w = Multispace(span_rows(F2, [1, 0]), 2)  # two roots, multiplicity 4
    dense = dense_of(poly_from_multispace(w))
    mults = root_multiplicities_by_division(dense)
    assert set(mults.values()) == {4}
    assert len(mults) == 2
    # and a plain non-uniform polynomial: x^2 (x - 1) over GF(3)
    cube = DensePoly(F3, [0, 0, 2, 1])  # x^3 + 2x^2 = x^2 (x + 2)
    assert root_multiplicities_by_division(cube) == {0: 2, 1: 1}


def test_synthetic_divide_consistency():
    rng = np.random.default_rng(4)
    f4 = field(2, 2)
    for _ in range(20):
        coeffs = rng.integers(0, 4, size=6)
        coeffs[-1] = 1 + rng.integers(0, 3)
        poly = DensePoly(f4, coeffs)
        r = int(rng.integers(0, 4))
        quot, rem = poly.synthetic_divide(r)
        back = quot.mul_linear(r)
        back_plus = DensePoly(f4, np.concatenate([[f4.add(int(back.coeffs[0]) if len(back.coeffs) else 0, rem)], back.coeffs[1:]]))
        assert back_plus == poly


def test_does_not_split_raises():
    # x^4 + x^2 + x = x (x^3 + x + 1); the cubic is irreducible over GF(2)
    L = LinearizedPoly(2, F2, {2: 1, 1: 1, 0: 1})
    with pytest.raises(RootsNotInField):
        roots_multiset(L)


def test_zero_poly_rejected():
    with pytest.raises(NotAMultispace):
        roots_multiset(LinearizedPoly(2, F2, {}))


def test_no_degree_limit():
    # degree 2^20: x^(2^20) over GF(4), a single q-coefficient
    w = Multispace(Subspace.zero(F2, 2), 20)
    L = poly_from_multispace(w)
    assert L.coeffs == {20: 1}
    assert roots_multiset(L) == w
    # degree 2^19 with a rank-16 underlying space over GF(2^16)
    rng = np.random.default_rng(19)
    u = Subspace.from_array(F2, 16, rng.integers(0, 2, size=(16, 16)))
    w = Multispace(u, 19 - u.dim)
    L = poly_from_multispace(w)
    assert min(L.coeffs) == w.height and max(L.coeffs) == 19 and L.coeffs[19] == 1
    assert roots_multiset(L) == w


def test_subfield_degree_metadata():
    big, _ = extension(F2, 3)
    sub = LinearizedPoly(2, big, {1: 1, 0: 1})
    assert sub.coefficient_subfield_degree() == 1
    gen = LinearizedPoly(2, big, {1: big.generator, 0: 1})
    assert gen.coefficient_subfield_degree() == 3


def test_poly_json_round_trip():
    big, _ = extension(F2, 3)
    L = LinearizedPoly(2, big, {0: 3, 2: 5})
    d = L.to_dict()
    assert d["base-q"] == 2 and d["coeffs"] == {"0": 3, "2": 5}
    assert LinearizedPoly.from_dict(d) == L
    with pytest.raises(FormatError):
        LinearizedPoly.from_dict({"coeffs": {}})


@pytest.mark.parametrize("coeffs", [{"1_0": 1}, {" 2": 1}, {"2 ": 1}, {"+1": 1}, {"-1": 1}, {"\u0663": 1},
                                    {"": 1}, {"1.0": 1}, {"1": 3, "01": 5}, {"00": 1}],
                         ids=["underscore", "leading-space", "trailing-space", "plus", "minus", "arabic-indic",
                              "empty", "decimal-point", "leading-zero", "double-zero"])
def test_poly_json_refuses_q_indices_that_are_not_canonical_decimals(coeffs):
    doc = {"base-q": 2, "field": "2^3", "coeffs": coeffs}
    with pytest.raises(FormatError, match="q-index"):
        LinearizedPoly.from_dict(doc)
    doc["coeffs"] = {"0": 1, "10": 1, str(10 ** 30): 1}
    assert sorted(LinearizedPoly.from_dict(doc).coeffs) == [0, 10, 10 ** 30]


def test_iso_round_trip_and_linearity():
    for ctx, n in [(F2, 3), (F3, 2), (field(2, 2), 2)]:
        iso = vector_field_iso(ctx, n)
        rows = np.array([[i % ctx.q for i in range(n)], [1] * n, [0] * n])
        enc = iso.to_field_array(rows)
        back = iso.to_vector_array(enc)
        assert np.array_equal(back, rows)
        # additivity of the coordinate map
        a = iso.to_field_array(rows[0:1])[0]
        b = iso.to_field_array(rows[1:2])[0]
        s = ctx.add_arr(rows[0], rows[1])
        assert iso.to_field_array(s[None, :])[0] == iso.big.add(int(a), int(b))


@pytest.mark.parametrize(
    "ctx,n,big",
    [(F2, 1, None), (F2, 3, None), (F2, 12, None), (F3, 6, None), (F4, 2, None), (F4, 6, None),
     (F2, 4, field(2, 4, 25))],
    ids=["F2^1", "F2^3", "F2^12", "F3^6", "F4^2", "F4^6", "F2^4-in-GF(2^4)/25"],
)
def test_coordinate_map_matches_scalar_oracle(ctx, n, big):
    """On every vector of GF(q)^n the map equals the per-coordinate sum of
    emb(c_i) * X^i, and its inverse recovers every vector from all of GF(q^n)."""
    iso = vector_field_iso(ctx, n, big)
    rows = _odometer(ctx, np.eye(n, dtype=np.int64))
    values = coordinate_map_oracle(iso, rows)
    assert sorted(values.tolist()) == list(range(iso.big.q))
    assert np.array_equal(iso.to_field_array(rows), values)
    assert np.array_equal(iso.to_vector_array(values), rows)


def test_coordinate_map_rejects_bad_input():
    iso = vector_field_iso(F2, 2)
    with pytest.raises(DimensionMismatch):
        iso.to_field_array([1, 0, 1, 0])  # two vectors' worth of entries, not one row
    with pytest.raises(FormatError):
        iso.to_field_array([[0, 7]])  # 7 is not in GF(2)
    with pytest.raises(FormatError):
        iso.to_vector_array([99])  # 99 is not in GF(4)


@pytest.mark.parametrize("ctx,n", [(F3, 10), (F4, 8)], ids=["GF(3^10)", "GF(4^8)"])
def test_round_trips_in_large_extensions(ctx, n):
    rng = np.random.default_rng(ctx.q * n)
    for _ in range(4):
        w = random_multispace(ctx, n, rng, max_height=2)
        assert roots_multiset(poly_from_multispace(w)) == w


def test_random_round_trips():
    rng = np.random.default_rng(77)
    for _ in range(20):
        w = random_multispace(F2, 3, rng, max_height=4)
        assert roots_multiset(poly_from_multispace(w)) == w


def test_roots_of_non_monic_polynomial():
    # scaling by a nonzero constant changes no roots and no multiplicities
    big, _ = extension(F2, 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = random_multispace(F2, 3, rng, max_height=2)
        L = poly_from_multispace(w)
        c = int(rng.integers(2, big.q))
        scaled = LinearizedPoly(2, big, {i: big.mul(c, v) for i, v in L.coeffs.items()})
        assert roots_multiset(scaled) == w


# ---------------------------------------------------------------------------
# Property tests against the literal product and a brute-force zero count
# ---------------------------------------------------------------------------

@st.composite
def multispaces(draw, ctx=None, n=None):
    ctx = ctx or draw(st.sampled_from([F2, F3, F4]))
    n = n or draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n), max_size=n
    ))
    return Multispace(Subspace.from_array(ctx, n, rows), draw(st.integers(0, 5)))


@settings(max_examples=150, deadline=None)
@given(multispaces())
def test_closed_form_matches_literal_product(w):
    L = poly_from_multispace(w)
    assert dense_of(L) == literal_product(w)
    assert roots_multiset(L) == w


@st.composite
def linearized_polys(draw):
    """Nonzero linearized polynomials over GF(q^n), q^n <= 256, with q-indices
    past n; half of them scaled multispace polynomials, so both outcomes of
    roots occur."""
    ctx = draw(st.sampled_from([F2, F3, F4]))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[ctx.q]))
    big, _ = extension(ctx, n)
    if draw(st.booleans()):
        w = draw(multispaces(ctx, n))
        c = draw(st.integers(1, big.q - 1))
        coeffs = {i: big.mul(c, v) for i, v in poly_from_multispace(w).coeffs.items()}
    else:
        coeffs = draw(st.dictionaries(
            st.integers(0, max(6, 3 * n)), st.integers(1, big.q - 1), min_size=1, max_size=5
        ))
    return LinearizedPoly(ctx.q, big, coeffs)


@settings(max_examples=200, deadline=None)
@given(linearized_polys())
def test_roots_match_brute_force_zero_count(L):
    big = L.ctx
    values = L.eval_domain()
    assert values.tolist() == [scalar_eval_oracle(L, x) for x in range(big.q)]
    zeros = np.nonzero(values == 0)[0].tolist()
    h = min(L.coeffs)
    if len(zeros) < L.base_q ** (L.q_degree - h):
        with pytest.raises(RootsNotInField):
            roots_multiset(L)
        return
    w = roots_multiset(L)
    assert w.height == h
    iso = vector_field_iso(w.ctx, w.n, big)
    assert sorted(iso.to_field_array(w.underlying.vector_array()).tolist()) == zeros
    lead = L.coeffs[L.q_degree]
    monic = poly_from_multispace(w, big)
    assert L.coeffs == {i: big.mul(lead, c) for i, c in monic.coeffs.items()}


@settings(max_examples=150, deadline=None)
@given(linearized_polys(), st.lists(st.integers(0, 3), max_size=2), st.integers(0, 2 ** 32 - 1))
def test_eval_array_matches_the_loop_over_coefficients(L, shape, seed):
    xs = np.random.default_rng(seed).integers(0, L.ctx.q, size=shape)
    out = L.eval_array(xs)
    assert out.shape == xs.shape and out.dtype == np.int64
    assert np.array_equal(out, eval_by_coefficient(L, xs))
    far = LinearizedPoly(L.base_q, L.ctx, {**L.coeffs, 2 ** 70: 1})  # a q-index past int64
    assert np.array_equal(far.eval_array(xs), eval_by_coefficient(far, xs))


def test_eval_array_bounds_the_cells_it_holds(monkeypatch):
    f16 = field(2, 4)
    L = LinearizedPoly(2, f16, {0: 3, 1: 7, 2: 1, 5: 9})
    xs = np.arange(16).reshape(4, 4)
    whole = L.eval_array(xs)
    monkeypatch.setattr(qpoly, "EVAL_CELLS", 9)  # two points per pass
    assert np.array_equal(L.eval_array(xs), whole)
    assert np.array_equal(whole, eval_by_coefficient(L, xs))


def test_the_coordinate_map_keeps_its_unit_vectors():
    for ctx, n in [(F2, 5), (F3, 3), (F4, 2), (F2, 1)]:
        iso = vector_field_iso(ctx, n)
        assert iso.units.tolist() == iso.to_field_array(np.eye(n, dtype=np.int64)).tolist()
        assert not iso.units.flags.writeable
        powers = [[iso.big.frobenius(u, i, ctx.q) for u in iso.units.tolist()] for i in range(n)]
        assert iso.unit_powers.tolist() == powers
        assert not iso.unit_powers.flags.writeable


@pytest.mark.parametrize("ctx, n_max", [(F2, 12), (F3, 6), (F4, 6), (F5, 4)], ids=["GF(2)", "GF(3)", "GF(4)", "GF(5)"])
def test_whole_space_polynomial_is_the_recursions(ctx, n_max):
    # x^(q^n) - x, raised to the q^h-th power, against the annihilator step over the unit basis
    for n in range(1, n_max + 1):
        for h in (0, 1, 7, 2 ** 70):
            w = Multispace(Subspace.full(ctx, n), h)
            L = poly_from_multispace(w)
            assert L == whole_space_poly_by_recursion(ctx, n, h)
            assert sorted(L.coeffs) == [h, h + n] and L.coeffs[h + n] == 1
            assert roots_multiset(L) == w


def _roots_or_refusal(find, L):
    try:
        return find(L)
    except RootsNotInField:
        return RootsNotInField


@settings(max_examples=200, deadline=None)
@given(linearized_polys())
def test_roots_from_unit_powers_match_evaluating_every_term(L):
    assert _roots_or_refusal(roots_multiset, L) == _roots_or_refusal(roots_by_evaluation, L)
    shifted = {i + 2 ** 70: c for i, c in L.coeffs.items()}  # q-indices past int64
    far = LinearizedPoly(L.base_q, L.ctx, shifted)
    assert _roots_or_refusal(roots_multiset, far) == _roots_or_refusal(roots_by_evaluation, far)


def test_round_trip_builds_one_embedding_and_one_coordinate_map(monkeypatch):
    built = {"Embedding": 0, "VectorFieldIso": 0}
    for cls in (fields.Embedding, qpoly.VectorFieldIso):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    fields._extension.cache_clear()  # a fresh GF(2)^12: nothing built yet
    fields._embedding.cache_clear()
    qpoly._vector_field_iso.cache_clear()
    w = Multispace(Subspace.from_array(F2, 12, np.eye(12, dtype=np.int64)[:3]), 1)
    assert roots_multiset(poly_from_multispace(w)) == w
    assert built == {"Embedding": 1, "VectorFieldIso": 1}


# ---------------------------------------------------------------------------
# The round trip on the row tables against the array path
# ---------------------------------------------------------------------------

#: (p, e) of q in {2, 3, 4, 5, 7, 8, 9, 16}, with the largest n that keeps q^n <= 2^12
_SMALL = {(2, 1): 12, (3, 1): 7, (2, 2): 6, (5, 1): 5, (7, 1): 4, (2, 3): 4, (3, 2): 3, (2, 4): 3}


@functools.lru_cache(maxsize=None)
def _moduli(p, e):
    """The default modulus of GF(p^e) and the next irreducible one, where there is one."""
    following = range(field(p, e).modulus + 1, 2 * p ** e) if e > 1 else ()  # monic of degree e
    return None, *itertools.islice((m for m in following if fields._is_irreducible(m, p)), 1)


@st.composite
def coordinate_maps(draw):
    """(GF(q), n, GF(q^n)), each field with its default modulus or another."""
    (p, e), n_max = draw(st.sampled_from(sorted(_SMALL.items())))
    n = draw(st.integers(1, n_max))
    return field(p, e, draw(st.sampled_from(_moduli(p, e)))), n, field(p, e * n, draw(st.sampled_from(_moduli(p, e * n))))


@settings(max_examples=200, deadline=None)
@given(coordinate_maps(), st.data())
def test_the_round_trip_on_rows_matches_the_array_oracles(pair, data):
    small, n, big = pair
    dim = data.draw(st.integers(0, n))
    pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=dim, max_size=dim)))
    free = st.integers(0, small.q - 1)
    basis = [[int(c == pc) if c <= pc or c in pivots else data.draw(free) for c in range(n)] for pc in pivots]
    height = data.draw(st.one_of(st.integers(0, 5), st.just(2 ** 63 + 5)))
    w = Multispace(Subspace.from_basis(small, n, basis), height)
    L = poly_from_multispace(w, big)
    assert L == poly_by_arrays(w, big)
    # the roots come back over GF(q) with its default modulus
    assert _roots_or_refusal(roots_multiset, L) == _roots_or_refusal(roots_by_evaluation, L)
    if small.modulus == field(small.p, small.e).modulus:
        assert roots_multiset(L) == w
    # one more term, or one changed: such a polynomial mostly does not split
    index, c = data.draw(st.integers(0, 2 * n + 6)), data.draw(st.integers(1, big.q - 1))
    M = LinearizedPoly(small.q, big, {**L.coeffs, index: c})
    assert _roots_or_refusal(roots_multiset, M) == _roots_or_refusal(roots_by_evaluation, M)


def test_a_one_dimensional_space_over_gf_2_16_needs_no_elimination():
    # n = 1: x^q = x, so L = L(1) x, whose kernel is GF(q) when L(1) = 0 and {0} otherwise
    ctx = field(2, 16)
    for w in (Multispace.bottom(ctx, 1), Multispace(Subspace.zero(ctx, 1), 3), Multispace(Subspace.full(ctx, 1), 2),
              Multispace(Subspace.full(ctx, 1), 2 ** 63 + 5)):
        L = poly_from_multispace(w)
        assert L == poly_by_arrays(w)
        assert roots_multiset(L) == w == roots_by_evaluation(L)
    a, b = 12345, 54321
    for coeffs, splits in (({0: a, 1: a}, True), ({0: a, 1: b}, False), ({2: a, 5: a}, False), ({3: a}, True),
                           ({0: a, 1: b, 2: a ^ b}, False)):
        L = LinearizedPoly(ctx.q, ctx, coeffs)
        roots = _roots_or_refusal(roots_multiset, L)
        assert roots == _roots_or_refusal(roots_by_evaluation, L)
        assert (roots is not RootsNotInField) == splits


def _prime_powers(limit):
    return [(p, e) for p in range(2, limit + 1) if fields._is_prime(p) for e in range(1, 7) if p ** e <= limit]


#: every coordinate map with q^n <= 2^12
_MAPS = [((p, e), n) for p, e in _prime_powers(64) for n in range(1, 13) if (p ** e) ** n <= 1 << 12]


def test_the_list_reads_match_the_array_gathers():
    for (p, e), n in _MAPS:
        iso = vector_field_iso(field(p, e), n)
        xs = list(range(iso.big.q))
        rows = iso.to_vector_array(xs).tolist()
        assert [iso._row(v) for v in iso._decode] == rows, (p, e, n)
        assert iso._field_list(rows) == iso.to_field_array(rows).tolist() == xs, (p, e, n)


@pytest.mark.parametrize("spec, n", [((2, 1), 1), ((3, 4), 1), ((2, 1), 16), ((2, 8), 2), ((3, 1), 10), ((3, 5), 2),
                                     ((5, 1), 6), ((7, 1), 3), ((2, 2), 4)],
                         ids=lambda x: "^".join(map(str, x)) if isinstance(x, tuple) else f"n{x}")
def test_encode_and_decode_match_the_scalar_oracle_on_every_element(spec, n):
    # rows in value order: c_0 the most significant base-q digit
    ctx = field(*spec)
    iso = vector_field_iso(ctx, n)
    values = coordinate_map_oracle(iso, list(itertools.product(range(ctx.q), repeat=n))).tolist()
    assert iso.encode.tolist() == iso._encode == values
    assert [iso._decode[x] for x in values] == iso.decode[values].tolist() == list(range(iso.big.q))
    assert not (iso.encode.flags.writeable or iso.decode.flags.writeable)


def test_the_round_trip_does_no_array_arithmetic(monkeypatch):
    words, polys = [], []
    for ctx, n in [(F2, 5), (F3, 4), (F4, 3)]:
        rng = np.random.default_rng(ctx.q)
        words += [random_multispace(ctx, n, rng) for _ in range(12)] + [Multispace(Subspace.full(ctx, n), 2)]
        big = vector_field_iso(ctx, n).big  # built before the patch: the map's set-up works on arrays
        polys.append(LinearizedPoly(ctx.q, big, {0: 1, 1: 1, 2: big.generator}))  # does not split
    assert all(_roots_or_refusal(roots_by_evaluation, L) is RootsNotInField for L in polys)

    def refuse(*args, **kwargs):
        raise AssertionError("the round trip called an array function")

    for owner, name in [(linalg, "rref_array"), (FieldCtx, "add_arr"), (FieldCtx, "mul_arr"), (FieldCtx, "sum_arr"),
                        (FieldCtx, "frobenius_arr"), (VectorFieldIso, "to_field_array"),
                        (VectorFieldIso, "to_vector_array")]:
        monkeypatch.setattr(owner, name, refuse)
    for w in words:
        assert roots_multiset(poly_from_multispace(w)) == w
    for L in polys:
        with pytest.raises(RootsNotInField):
            roots_multiset(L)
