import copy

import numpy as np
import pytest
from helpers import add_by_digits, annihilator_step_by_scalars, mul_by_logs, sub_by_digits
from hypothesis import given, settings, strategies as st

from multispace.errors import (
    ContextMismatch,
    DivisionByZero,
    FieldTooLarge,
    FormatError,
    LimitExceeded,
    MultispaceError,
    NotIrreducible,
    NotPrime,
    ShapeViolation,
)
from multispace.fields import (
    ARRAY_TABLE_LIMIT,
    RANK_TABLE_LIMIT,
    FieldCtx,
    _is_prime,
    extension,
    field,
    parse_field_spec,
)
from multispace.linalg import Subspace, _rank_tables


def poly_mulmod(a, b, mod, p):
    """Independent schoolbook oracle on little-endian base-p encodings."""

    def coeffs(v):
        cs = []
        while v:
            cs.append(v % p)
            v //= p
        return cs

    def enc(cs):
        out = 0
        for c in reversed(cs):
            out = out * p + c
        return out

    ca, cb = coeffs(a), coeffs(b)
    prod = [0] * (len(ca) + len(cb) or 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] = (prod[i + j] + x * y) % p
    cm = coeffs(mod)
    dm = len(cm) - 1
    while len(prod) > dm:
        lead = prod[-1]
        if lead:
            for j, y in enumerate(cm):
                prod[len(prod) - 1 - dm + j] = (prod[len(prod) - 1 - dm + j] - lead * y) % p
        prod.pop()
    return enc(prod)


def test_default_moduli():
    assert field(2).modulus == 2  # the polynomial x
    assert field(2, 2).modulus == 7  # x^2 + x + 1
    assert field(2, 3).modulus == 11  # x^3 + x + 1
    assert field(2, 4).modulus == 19  # x^4 + x + 1
    assert field(3, 2).modulus == 10  # x^2 + 1 (2 is not a square mod 3)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # all monic quadratics over GF(2): x^2, x^2+1, x^2+x, x^2+x+1 (encodings 4..7)
    reducible = set()
    for a in range(2):
        for b in range(2):
            # (x+a)(x+b) = x^2 + (a+b)x + ab
            reducible.add(4 + ((a + b) % 2) * 2 + (a * b) % 2)
    assert reducible == {4, 5, 6}
    assert field(2, 2).modulus == 7


@pytest.mark.parametrize("p, e", [(2, e) for e in range(2, 7)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_modulus_builds_exactly_when_irreducible(p, e):
    # products of two monic factors of degrees i and e - i; reduction modulo
    # x^(e+1) leaves a product of degree e as it is
    reducible = {
        poly_mulmod(a, b, p ** (e + 1), p)
        for i in range(1, e // 2 + 1)
        for a in range(p ** i, 2 * p ** i)
        for b in range(p ** (e - i), 2 * p ** (e - i))
    }
    irreducible = []
    for m in range(p ** e, 2 * p ** e):  # every monic polynomial of degree e
        if m in reducible:
            with pytest.raises(NotIrreducible):
                field(p, e, m)
        else:
            assert field(p, e, m).modulus == m
            irreducible.append(m)
    assert irreducible and field(p, e).modulus == irreducible[0]


def test_primality_matches_a_sieve():
    limit = 1 << 12
    composite = set()
    for d in range(2, limit):
        composite.update(range(d * d, limit, d))
    assert [n for n in range(-3, limit) if _is_prime(n)] == [n for n in range(2, limit) if n not in composite]


def test_construction_errors():
    with pytest.raises(NotPrime):
        field(4, 1)
    with pytest.raises(NotPrime):
        field(1)
    with pytest.raises(FieldTooLarge):
        field(2, 17)
    with pytest.raises(NotIrreducible):
        field(2, 2, modulus=5)  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(NotIrreducible):
        field(2, 2, modulus=19)  # wrong degree


def test_prime_field_arithmetic():
    f2 = field(2)
    assert f2.add(1, 1) == 0
    f5 = field(5)
    assert f5.inv(2) == 3 and (2 * 3) % 5 == 1
    assert f5.neg(2) == 3
    assert f5.sub(1, 3) == 3
    with pytest.raises(DivisionByZero):
        f5.inv(0)


def test_f4_multiplication_against_poly_oracle():
    f4 = field(2, 2)
    assert f4.mul(2, 2) == 3  # x * x = x + 1
    for a in range(4):
        for b in range(4):
            assert f4.mul(a, b) == poly_mulmod(a, b, f4.modulus, 2)


def test_f9_multiplication_against_poly_oracle():
    f9 = field(3, 2)
    for a in range(9):
        for b in range(9):
            assert f9.mul(a, b) == poly_mulmod(a, b, f9.modulus, 3)


ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 128, 256]


def _ctx_of_order(q):
    p, e = q, 1
    for base in (2, 3, 5, 7):
        ee = 0
        qq = q
        while qq % base == 0:
            qq //= base
            ee += 1
        if qq == 1 and ee >= 1:
            p, e = base, ee
            break
    return field(p, e)


@pytest.mark.parametrize("q", ORDERS)
def test_field_laws_exhaustive(q):
    ctx = _ctx_of_order(q)
    vals = np.arange(q, dtype=np.int64)
    a = np.repeat(vals, q)
    b = np.tile(vals, q)
    # commutativity
    assert np.array_equal(ctx.add_arr(a, b), ctx.add_arr(b, a))
    assert np.array_equal(ctx.mul_arr(a, b), ctx.mul_arr(b, a))
    # inverses
    nz = vals[1:]
    assert np.all(ctx.mul_arr(nz, ctx.inv_arr(nz)) == 1)
    # associativity and distributivity over all triples, chunked on the first axis
    for x in range(q):
        xa = np.full(q * q, x, dtype=np.int64)
        assert np.array_equal(
            ctx.mul_arr(ctx.mul_arr(xa, a), b), ctx.mul_arr(xa, ctx.mul_arr(a, b))
        )
        assert np.array_equal(
            ctx.add_arr(ctx.add_arr(xa, a), b), ctx.add_arr(xa, ctx.add_arr(a, b))
        )
        assert np.array_equal(
            ctx.mul_arr(xa, ctx.add_arr(a, b)),
            ctx.add_arr(ctx.mul_arr(xa, a), ctx.mul_arr(xa, b)),
        )


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 81, 3 ** 5])
def test_scalar_addition_matches_the_digit_sum(q):
    ctx = _ctx_of_order(q)
    vals = np.arange(q, dtype=np.int64)
    table = ctx.add_arr(vals[:, None], vals[None, :]).tolist()
    assert all(ctx.add(a, b) == table[a][b] for a in range(q) for b in range(q))
    assert all(ctx.add(a, ctx.neg(a)) == 0 for a in range(q))


@pytest.mark.parametrize("q", ORDERS)
def test_frobenius_is_additive(q):
    ctx = _ctx_of_order(q)
    vals = np.arange(q, dtype=np.int64)
    a = np.repeat(vals, q)
    b = np.tile(vals, q)
    lhs = ctx.frobenius_arr(ctx.add_arr(a, b), 1)  # characteristic power
    rhs = ctx.add_arr(ctx.frobenius_arr(a, 1), ctx.frobenius_arr(b, 1))
    assert np.array_equal(lhs, rhs)


def test_frobenius_base_q_is_identity():
    for p, e in [(2, 1), (2, 2), (2, 3), (3, 2), (5, 1)]:
        ctx = field(p, e)
        for a in range(ctx.q):
            assert ctx.frobenius(a, 1, base=ctx.q) == a


def test_frobenius_takes_every_index_negative_included():
    # over GF(2), q - 1 = 1 and pow(2, i, 1) == 0 for every i, so no guard is needed
    f2 = field(2)
    for i in range(-5, 6):
        assert pow(2, i, 1) == 0
        for a in (0, 1):
            assert f2.frobenius(a, i) == a == int(f2.frobenius_arr(np.array([a]), i)[0])
    for ctx in (field(2, 2), field(3, 2), field(2, 4)):
        for a in range(ctx.q):
            assert ctx.frobenius(ctx.frobenius(a, -1), 1) == a  # index -1 undoes index 1
            assert ctx.frobenius(a, -1) == int(ctx.frobenius_arr(np.array([a]), -1)[0])


def test_frobenius_examples_and_periodicity():
    f4 = field(2, 2)
    assert f4.frobenius(2, 1, base=2) == 3  # x^2 = x + 1 mod x^2+x+1
    assert f4.frobenius(0, 5, base=2) == 0
    f16 = field(2, 4)
    for a in range(16):
        assert f16.frobenius(a, 4, base=2) == a  # period divides the degree
        assert f16.frobenius(a, 2, base=4) == a
    f81 = field(3, 4)
    for a in range(0, 81, 7):
        assert f81.frobenius(a, 4, base=3) == a
    with pytest.raises(ContextMismatch):
        f16.frobenius(3, 1, base=8)  # 8 = 2^3 does not divide the tower


def test_scalar_ops_on_encodings():
    f5 = field(5)
    a, b = 2, 4
    assert f5.add(a, b) == 1
    assert f5.mul(a, b) == 3
    assert f5.neg(a) == 3
    assert f5.sub(a, b) == 3
    assert f5.div(a, b) == f5.mul(2, f5.inv(4)) == 3
    assert f5.pow(a, 4) == 1
    assert f5.inv(a) == 3  # the inverse of zero: test_prime_field_arithmetic


def test_field_spec_parsing():
    assert parse_field_spec("2") == field(2)
    assert parse_field_spec("2^2/7") == field(2, 2)
    assert parse_field_spec("3^2") == field(3, 2)
    for ctx in [field(2), field(2, 2), field(3, 2), field(5)]:
        assert parse_field_spec(ctx.spec) == ctx
    with pytest.raises(FormatError):
        parse_field_spec("banana")
    with pytest.raises(FormatError):
        parse_field_spec("2^x")


def test_prime_field_modulus_is_canonical():
    # x + 1 (encoded 3) is a monic degree-1 modulus of GF(2): the same field as x
    assert parse_field_spec("2/3") is field(2) and field(3, 1, 5) is field(3)
    assert FieldCtx(2, 1, 3) == field(2) and FieldCtx(2, 1, 3).modulus == 2
    s = Subspace.from_dict({"q-spec": "2/3", "n": 2, "basis": [[1, 1]]})
    assert s.ctx.spec == "2" and Subspace.from_dict(s.to_dict()) == s
    with pytest.raises(NotIrreducible):
        parse_field_spec("2/5")  # x^2 + 1 has degree 2


def test_context_equality_and_checks():
    assert field(2, 2) == FieldCtx(2, 2, 7)
    assert field(2, 2) != field(2, 3)
    with pytest.raises(ContextMismatch):
        field(2).check_same(field(3))


def test_embedding_into_extension():
    small = field(2, 2)
    big, emb = extension(small, 2)
    assert big == field(2, 4)
    assert int(emb.table[0]) == 0 and int(emb.table[1]) == 1
    # the chosen root really is a root of the small modulus (x^2 + x + 1)
    r = emb.root
    assert big.add(big.add(big.mul(r, r), r), 1) == 0
    # homomorphism on all pairs
    for a in range(4):
        for b in range(4):
            assert int(emb.table[small.mul(a, b)]) == big.mul(int(emb.table[a]), int(emb.table[b]))
            assert int(emb.table[small.add(a, b)]) == big.add(int(emb.table[a]), int(emb.table[b]))


def test_a_broken_embedding_is_a_toolkit_error():
    small = field(2, 2)
    big, emb = extension(small, 2)
    x = int(emb.table[2])
    z = next(v for v in range(2, big.q) if v not in emb.table.tolist())  # outside the image of GF(4)
    # not injective; 1 + alpha not sent to 1 + x; additive but alpha^2 = alpha + 1 not kept
    for table, message in (([0, 1, x, x], "injective"), ([0, 1, x, z], "additivity"),
                           ([0, 1, z, big.add(z, 1)], "multiplicativity")):
        broken = copy.copy(emb)
        broken.table = np.array(table)
        with pytest.raises(ShapeViolation, match=message) as info:
            broken._verify()
        assert isinstance(info.value, MultispaceError)


def test_embedding_odd_characteristic():
    small = field(3)
    big, emb = extension(small, 2)
    assert big == field(3, 2)
    for a in range(3):
        for b in range(3):
            assert int(emb.table[small.mul(a, b)]) == big.mul(int(emb.table[a]), int(emb.table[b]))


def test_generator_and_tables():
    for q in (4, 8, 9, 27):
        ctx = _ctx_of_order(q)
        seen = {1}
        x = 1
        for _ in range(q - 2):
            x = ctx.mul(x, ctx.generator)
            seen.add(x)
        assert len(seen) == q - 1  # the generator really generates


TABLE_FIELDS = [
    *[(2, e, None) for e in range(1, 13)],
    *[(3, e, None) for e in range(1, 8)],
    *[(5, e, None) for e in range(1, 6)],
    *[(7, e, None) for e in range(1, 5)],
    (11, 3, None), (13, 3, None), (17, 2, None), (31, 2, None), (61, 2, None),
    (97, 1, None), (257, 1, None), (4093, 1, None),
    (2, 4, 25),  # x^4 + x^3 + 1, a user modulus
    (2, 16, None), (3, 10, None), (65521, 1, None),  # sampled: q > 4096
]


@pytest.mark.parametrize(
    "p,e,modulus", TABLE_FIELDS, ids=[f"{p}^{e}/{m}" for p, e, m in TABLE_FIELDS]
)
def test_tables_against_schoolbook_oracle(p, e, modulus):
    """exp/log/inv and the generator, checked index by index against the
    schoolbook product mod the modulus, independent of how they were built:
    every index for q <= 4096, 1500 sampled indices above."""
    ctx = field(p, e, modulus)
    q, g, exp, log = ctx.q, ctx.generator, ctx._exp, ctx._log
    if q <= 4096:
        indices = range(q - 1)
    else:
        rng = np.random.default_rng(q)
        indices = sorted(set(rng.integers(0, q - 1, size=1500).tolist()) | {0, q - 2})
    assert len(exp) == q - 1 and exp[0] == 1 and sorted(exp) == list(range(1, q))
    for i in indices:
        nxt = exp[i + 1] if i + 1 < q - 1 else exp[0]
        assert nxt == poly_mulmod(exp[i], g, ctx.modulus, p)
        assert log[exp[i]] == i
    # every encoding below g is some g^k with gcd(k, q - 1) > 1, so g is
    # the smallest encoding of multiplicative order q - 1
    assert all(np.gcd(log[c], q - 1) != 1 for c in range(1, g))
    nonzero = np.arange(1, q, dtype=np.int64)
    assert np.all(ctx.mul_arr(nonzero, ctx.inv_arr(nonzero)) == 1)
    assert all(ctx.mul(a, ctx.inv(a)) == 1 for a in indices if a)


#: fields for the array folds and the subspace-polynomial step: GF(p), GF(2^k) and GF(3^k)
FOLD_FIELDS = [field(2), field(3), field(7), field(2, 2), field(2, 6), field(2, 12), field(3, 2), field(3, 6), field(5, 2)]


@settings(max_examples=150, deadline=None)
@given(ctx=st.sampled_from(FOLD_FIELDS), shape=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_sum_arr_is_a_fold_of_add_arr(ctx, shape, data, seed):
    a = np.random.default_rng(seed).integers(0, ctx.q, size=shape)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    folded = np.zeros(np.delete(a.shape, axis), dtype=np.int64)
    for part in np.moveaxis(a, axis, 0):
        folded = ctx.add_arr(folded, part)
    out = ctx.sum_arr(a, axis=axis)
    assert out.shape == folded.shape and np.array_equal(out, folded)


@settings(max_examples=150, deadline=None)
@given(ctx=st.sampled_from(FOLD_FIELDS), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_frobenius_arr_on_an_index_array_matches_each_scalar_index(ctx, data, seed):
    base = data.draw(st.sampled_from([ctx.p ** j for j in range(1, ctx.e + 1) if ctx.e % j == 0]))
    indices = data.draw(st.lists(st.one_of(st.integers(-9, 40), st.just(2 ** 70)), min_size=1, max_size=6))
    xs = np.random.default_rng(seed).integers(0, ctx.q, size=7)
    out = ctx.frobenius_arr(xs[None, :], np.array(indices, dtype=object)[:, None], base)
    assert out.shape == (len(indices), 7)
    for row, i in zip(out.tolist(), indices):
        assert row == [ctx.frobenius(x, i, base) for x in xs.tolist()] == ctx.frobenius_arr(xs, i, base).tolist()


@settings(max_examples=200, deadline=None)
@given(ctx=st.sampled_from(FOLD_FIELDS), data=st.data())
def test_annihilator_step_matches_the_scalar_recursion(ctx, data):
    base = data.draw(st.sampled_from([ctx.p ** j for j in range(1, ctx.e + 1) if ctx.e % j == 0]))
    coeffs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=8))
    v = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.annihilator_step(coeffs, v, base) == annihilator_step_by_scalars(ctx, coeffs, v, base)


def test_annihilator_steps_build_the_subspace_polynomial_of_a_basis():
    # over GF(2^6), base 2: the roots of the result are exactly the span of the points
    F = field(2, 6)
    points = [1, 2, 4]
    c = [1]
    for v in points:
        c = F.annihilator_step(c, v, 2)
    roots = [x for x in range(F.q) if F.sum_arr(F.mul_arr(c, F.frobenius_arr(x, np.arange(len(c)), 2))) == 0]
    assert c[-1] == 1 and roots == list(range(8))
    with pytest.raises(ContextMismatch):
        F.annihilator_step([1], 1, 16)  # 16 = 2^4 is no base of GF(2^6)


#: every field whose array arithmetic gathers from q x q tables, and two just past the limit
GATHER_FIELDS = sorted((field(p, e) for p in range(2, ARRAY_TABLE_LIMIT + 1) if _is_prime(p)
                       for e in range(1, 7) if 2 < p ** e <= ARRAY_TABLE_LIMIT), key=lambda F: F.q)
PAST_THE_LIMIT = [field(2, 7), field(3, 4)]
#: (array op, its oracle by the log/exp and digit rules)
ARRAY_OPS = [("add_arr", add_by_digits), ("sub_arr", sub_by_digits), ("mul_arr", mul_by_logs)]


@pytest.mark.parametrize("ctx", GATHER_FIELDS + PAST_THE_LIMIT, ids=lambda F: f"GF({F.q})")
def test_array_ops_match_the_log_exp_and_digit_rules(ctx):
    x = np.arange(ctx.q, dtype=np.int64)
    rng = np.random.default_rng(ctx.q)
    pairs = [
        (x[:, None], x[None, :]),  # every pair, broadcast
        (rng.integers(0, ctx.q, (3, 1, 4)), rng.integers(0, ctx.q, (5, 1))),
        (np.array(ctx.q - 1), np.array(2)),  # 0-d
        (int(rng.integers(ctx.q)), rng.integers(0, ctx.q, 6)),  # a plain int against an array
        (np.zeros((0, 3), dtype=np.int64), x[:3]),  # empty
        (rng.integers(0, ctx.q, (4, 2)).astype(np.uint8), rng.integers(0, ctx.q, 2).astype(np.int32)),
    ]
    for name, oracle in ARRAY_OPS:
        for a, b in pairs:
            out, want = getattr(ctx, name)(a, b), oracle(ctx, a, b)
            assert np.shape(out) == np.shape(want) and np.array_equal(out, want), (name, np.shape(a), np.shape(b))


def test_tables_are_built_on_first_use_and_only_up_to_the_limit():
    for ctx in (FieldCtx(3, 2), FieldCtx(2, 6)):  # fresh contexts, not the cached ones
        assert ctx._tables is None
        ctx.mul_arr(np.arange(ctx.q), 1)
        assert ctx._tables is not None and not any(t.flags.writeable for t in ctx._tables)
    for ctx in (FieldCtx(2, 7), FieldCtx(3, 4)):  # past the limit: every op, and op_tables, keep none
        x = np.arange(ctx.q)
        for name, _ in ARRAY_OPS:
            getattr(ctx, name)(x[:, None], x)
        tables = ctx.op_tables()
        assert ctx._tables is None
        for table, (_, oracle) in zip(tables, ARRAY_OPS):
            assert np.array_equal(table, oracle(ctx, x[:, None], x))


@pytest.mark.parametrize("ctx", [field(3), field(2, 2), field(3, 3), field(2, 7), field(2, 8)],
                         ids=lambda F: f"GF({F.q})")
def test_rank_tables_are_the_field_tables_as_lists(ctx):
    _, sub, mul = ctx.op_tables()
    assert _rank_tables(ctx) == (mul.tolist(), sub.tolist())


def test_op_tables_refuse_a_field_past_256_elements():
    with pytest.raises(LimitExceeded):
        field(2, 9).op_tables()  # 2^18 entries each


#: every field of odd characteristic with at most 81 elements, prime fields included
SMALL_ODD_FIELDS = [field(p, e) for p in range(3, 82, 2) if _is_prime(p) for e in range(1, 5) if p ** e <= 81]
#: larger odd fields: every pair for the array ops, sampled pairs for the scalar ones
MIDDLE_ODD_FIELDS = [field(251), field(3, 5), field(3, 6)]
#: the largest odd fields checked, on sampled pairs only
LARGE_ODD_FIELDS = [field(3, 10), field(5, 6)]


def odd_field_pairs(ctx, every: bool, samples: int = 20000) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of ctx, or that many random ones, then every (a, -a)."""
    x = np.arange(ctx.q, dtype=np.int64)
    if every:
        a, b = np.repeat(x, ctx.q), np.tile(x, ctx.q)
    else:
        a, b = np.random.default_rng(ctx.q).integers(0, ctx.q, (2, samples))
    return np.concatenate([a, x]), np.concatenate([b, sub_by_digits(ctx, 0, x)])


def check_scalar_ops_by_digits(ctx, a, b):
    al, bl = a.tolist(), b.tolist()
    assert [ctx.add(x, y) for x, y in zip(al, bl)] == add_by_digits(ctx, a, b).tolist()
    assert [ctx.sub(x, y) for x, y in zip(al, bl)] == sub_by_digits(ctx, a, b).tolist()
    assert [ctx.neg(x) for x in al] == sub_by_digits(ctx, 0, a).tolist()


def check_array_ops_by_digits(ctx, a, b):
    sums = add_by_digits(ctx, a, b)
    assert np.array_equal(ctx.add_arr(a, b), sums)
    assert np.array_equal(ctx.sub_arr(a, b), sub_by_digits(ctx, a, b))
    assert np.array_equal(ctx.neg_arr(a), sub_by_digits(ctx, 0, a))
    assert np.array_equal(ctx.sum_arr(np.stack([a, b, a])), add_by_digits(ctx, sums, a))
    assert np.array_equal(ctx.sum_arr(np.stack([a, b]), axis=-2), sums)
    if ctx.q <= RANK_TABLE_LIMIT:
        x = np.arange(ctx.q, dtype=np.int64)
        add, sub, _ = ctx.op_tables()
        assert np.array_equal(add, add_by_digits(ctx, x[:, None], x))
        assert np.array_equal(sub, sub_by_digits(ctx, x[:, None], x))


@pytest.mark.parametrize("ctx", SMALL_ODD_FIELDS, ids=lambda F: f"GF({F.p}^{F.e})")
def test_small_odd_fields_add_by_zech_logarithms_as_by_digits_on_every_pair(ctx):
    a, b = odd_field_pairs(ctx, every=True)
    check_scalar_ops_by_digits(ctx, a, b)
    check_array_ops_by_digits(ctx, a, b)


@pytest.mark.parametrize("ctx", MIDDLE_ODD_FIELDS, ids=lambda F: f"GF({F.p}^{F.e})")
def test_middle_odd_fields_add_as_by_digits_on_every_pair_of_arrays(ctx):
    check_array_ops_by_digits(ctx, *odd_field_pairs(ctx, every=True))
    check_scalar_ops_by_digits(ctx, *odd_field_pairs(ctx, every=False))


@pytest.mark.parametrize("ctx", LARGE_ODD_FIELDS, ids=lambda F: f"GF({F.p}^{F.e})")
def test_large_odd_fields_add_as_by_digits_on_sampled_pairs(ctx):
    a, b = odd_field_pairs(ctx, every=False)
    check_scalar_ops_by_digits(ctx, a, b)
    check_array_ops_by_digits(ctx, a, b)
