import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    DensePoly,
    dense_degree,
    dense_of,
    literal_product,
    random_multispace,
    root_multiplicities_by_division,
)
from multispace import fields, qpoly
from multispace.errors import (
    ContextMismatch,
    FormatError,
    NotAMultispace,
    RootsNotInField,
)
from multispace.fields import extension, field
from multispace.lattice import Multispace, enumerate_multispaces
from multispace.linalg import FqVector, Subspace, span
from multispace.qpoly import (
    LinearizedPoly,
    poly_from_multispace,
    roots_multiset,
    vector_field_iso,
)

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def dense_product_oracle(w, iso):
    """Literal expansion of the root product, multiplying factor by factor."""
    big = iso.big
    poly = DensePoly.one(big)
    mult = w.ctx.q ** w.height
    for r in iso.to_field_array(w.underlying.vector_array()):
        for _ in range(mult):
            poly = poly.mul_linear(int(r))
    return poly


def test_bottom_gives_x():
    L = poly_from_multispace(Multispace.bottom(F2, 3))
    assert L.coeffs == {0: 1}
    assert L.text() == "1*x^1"


def test_height_one_zero_space_gives_x_squared():
    L = poly_from_multispace(Multispace(Subspace.zero(F2, 3), 1))
    assert L.coeffs == {1: 1}
    assert dense_degree(L) == 2


def test_line_in_f4():
    w = Multispace(span([FqVector.unit(F2, 2, 0)]), 0)
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
        assert w.underlying == span([FqVector.unit(ctx, n, 0)])


def test_eval_is_linear_and_matches_dense():
    f16 = field(2, 4)
    L = LinearizedPoly(2, f16, {0: 3, 1: 7, 2: 1})
    assert L.eval(0).value == 0
    dense = dense_of(L)
    for x in range(16):
        assert L.eval(x).value == dense.eval(x)
    assert L.eval_domain().tolist() == [L.eval(x).value for x in range(16)]
    for a in range(16):
        for b in range(16):
            s = f16.add(a, b)
            assert L.eval(s).value == f16.add(L.eval(a).value, L.eval(b).value)
    # GF(q)-homogeneity for the base field inside the tower
    f4_in_f16 = extension(field(2, 2), 2)[1]
    Lq = LinearizedPoly(4, f16, {0: 5, 1: 9})
    for c in range(4):
        cc = f4_in_f16.embed_int(c)
        for x in range(16):
            assert Lq.eval(f16.mul(cc, x)).value == f16.mul(cc, Lq.eval(x).value)


def test_multiplicities_by_synthetic_division():
    w = Multispace(span([FqVector.unit(F2, 2, 0)]), 2)  # two roots, multiplicity 4
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


def test_roots_multiset_big_field_mismatch():
    big, _ = extension(F2, 2)
    L = LinearizedPoly(2, big, {0: 1})
    with pytest.raises(ContextMismatch):
        roots_multiset(L, big=field(2, 3))


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
    """Nonzero linearized polynomials over GF(q^n), q^n <= 256; half of
    them scaled multispace polynomials, so both outcomes of roots occur."""
    ctx = draw(st.sampled_from([F2, F3, F4]))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[ctx.q]))
    big, _ = extension(ctx, n)
    if draw(st.booleans()):
        w = draw(multispaces(ctx, n))
        c = draw(st.integers(1, big.q - 1))
        coeffs = {i: big.mul(c, v) for i, v in poly_from_multispace(w).coeffs.items()}
    else:
        coeffs = draw(st.dictionaries(
            st.integers(0, 6), st.integers(1, big.q - 1), min_size=1, max_size=5
        ))
    return LinearizedPoly(ctx.q, big, coeffs)


@settings(max_examples=200, deadline=None)
@given(linearized_polys())
def test_roots_match_brute_force_zero_count(L):
    big = L.ctx
    values = L.eval_domain()
    assert values.tolist() == [L.eval(x).value for x in range(big.q)]
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


def test_round_trip_builds_one_embedding_and_one_coordinate_map(monkeypatch):
    built = {"Embedding": 0, "VectorFieldIso": 0}
    for cls in (fields.Embedding, qpoly.VectorFieldIso):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    fields.extension.cache_clear()  # a fresh GF(2)^12: nothing built yet
    fields._embedding.cache_clear()
    qpoly._vector_field_iso.cache_clear()
    w = Multispace(Subspace.from_array(F2, 12, np.eye(12, dtype=np.int64)[:3]), 1)
    assert roots_multiset(poly_from_multispace(w)) == w
    assert built == {"Embedding": 1, "VectorFieldIso": 1}
