"""Linearized (q-)polynomials and their correspondence with multispaces.

A multispace W = (U, h) over GF(q)^n maps to the polynomial
prod_{v in W} (x - phi(v)) = P_U(x)^(q^h) over the extension field
GF(q^n), where phi is the fixed coordinate isomorphism GF(q)^n -> GF(q^n)
and P_U is the monic subspace polynomial of U.  P_U is linearized, so it
is built on its q-coefficients by the recursion
P_{U+<v>} = P_U^q - P_U(v)^(q-1) P_U over a basis of U: O(rank^2) field
operations, with no bound on the degree q^rank.  The whole space
U = GF(q)^n skips the recursion: P_U = x^(q^n) - x, written in O(n)
steps.  Conversely the roots of a nonzero linearized L form the kernel
of the GF(q)-linear map x -> L(x), read off from its values at the n unit
vectors (x^(q^n) = x on GF(q^n), so q-index i takes their q^(i mod n)-th
powers) by one n x 2n elimination in linalg's row kernel, on Python ints
and lists from the coordinate map's two tables; L splits over GF(q^n)
exactly when that kernel has dimension q_degree - h, where h is the lowest
q-index of L, and every root then has multiplicity q^h (Lidl &
Niederreiter, Finite Fields, Ch. 3 Sec. 4).
"""

import functools
import operator

import numpy as np

from .errors import (
    ContextMismatch,
    FormatError,
    NotAMultispace,
    RootsNotInField,
    ShapeViolation,
)
from .fields import FieldCtx, _embedding, _extension, _field, check_settings, parse_field_spec, reading
from .fields import strict_int
from .lattice import Multispace
from .linalg import Subspace, _as_array, _bit_echelon, _bit_reduced, _list_echelon, _list_reduced, _rows_array


# ---------------------------------------------------------------------------
# Coordinate isomorphism GF(q)^n <-> GF(q^n)
# ---------------------------------------------------------------------------

class VectorFieldIso:
    """The fixed vector-space isomorphism GF(q)^n -> GF(q^n).

    Coordinate vector (c_0, ..., c_{n-1}) maps to sum_i phi(c_i) * X^i,
    where X is the residue class of the big field's modulus variable and
    phi the deterministic subfield embedding.  A row is read as its base-q
    value, c_0 the most significant digit, and the map is two tables of q^n
    entries: encode[value] is the row's image, and decode, the inverse
    permutation, the value of each element's row.  The to_* methods check
    their input and gather from these read-only arrays; the round trip
    reads their lists.
    """

    def __init__(self, ctx: FieldCtx, n: int, big: FieldCtx):
        check_settings(("n", n, 1, f"ambient dimension {n} is not positive"))
        if big.p != ctx.p or big.e != ctx.e * n:
            raise ContextMismatch(f"{big} is not GF(q^{n}) for q = {ctx.q}")
        self.ctx, self.n, self.big, self.emb = ctx, n, big, _embedding(ctx, big)
        # phi(c e_i) = phi(c) X^i, X^i encoded p^i: step i appends coordinate i as each value's last digit
        encode = np.zeros(1, dtype=np.int64)
        for i in range(n):
            encode = big.add_arr(encode[:, None], big.mul_arr(self.emb.table, ctx.p ** i)).reshape(-1)
        decode = np.argsort(encode)  # the inverse permutation, if encode is one
        if not np.array_equal(encode[decode], np.arange(big.q)):
            raise ShapeViolation("coordinate map is not a bijection")  # cannot happen
        places = ctx.q ** np.arange(n - 1, -1, -1)  # the weight of each coordinate in a row's value
        self.units = encode[places]  # the big-field encodings of the n unit vectors
        #: row i: the units' q^i-th powers, i < n; x^(q^n) = x, so row i mod n serves q-index i
        self.unit_powers = big.frobenius_arr(self.units, np.arange(n)[:, None], ctx.q)
        self.encode, self.decode = encode, decode
        for table in (encode, decode, self.units, self.unit_powers):
            table.flags.writeable = False
        self._encode, self._decode, self._places = encode.tolist(), decode.tolist(), places.tolist()
        self._powers, self._eye = self.unit_powers.tolist(), np.eye(n, dtype=np.int64).tolist()

    def to_field_array(self, rows) -> np.ndarray:
        """Big-field encodings of an (m, n) array of coordinate vectors."""
        return self.encode[_rows_array(self.ctx, self.n, rows) @ self._places]

    def to_vector_array(self, xs) -> np.ndarray:
        """Coordinate vectors, shape (m, n), of big-field encodings, read flat."""
        return self.decode[_as_array(self.big, xs).reshape(-1), None] // self._places % self.ctx.q

    def _row(self, value: int) -> list[int]:
        """The coordinates of the row with that base-q value."""
        return [value // s % self.ctx.q for s in self._places]

    def _field_list(self, rows: list[list[int]]) -> list[int]:
        """Big-field encodings of coordinate rows, from encode."""
        return [self._encode[sum(map(operator.mul, row, self._places))] for row in rows]

    def _kernel(self, terms: list[list[int]]) -> np.ndarray:
        """The canonical basis of {c : sum_u c_u image_u = 0}, image_u the sum of terms[u], by XOR in
        characteristic 2 and else by the big field's add: the rows [coordinates of image_u | e_u], read
        from decode, take the row kernel's forward pass, and its rows that lead in the right half, zero
        on the left, span that space, back substituted."""
        ctx, n = self.ctx, self.n
        if n == 1:  # x^q = x on GF(q): L = L(1) x, whose kernel is GF(q) or {0}
            return np.ones((int(functools.reduce(self.big.add, terms[0]) == 0), 1), dtype=np.int64)
        add = operator.xor if self.big.p == 2 else self.big.add
        values = [self._decode[functools.reduce(add, t)] for t in terms]  # the value of each image's row
        if ctx.q == 2:  # a value is its GF(2) row as one int, column 0 highest
            lead = _bit_echelon([c << n | 1 << (n - 1 - u) for u, c in enumerate(values)], 2 * n)
            basis = [x for _, x in _bit_reduced({h: x for h, x in lead.items() if h <= n})]
            return np.array(basis, dtype=np.int64).reshape(-1, 1) // self._places % 2
        kept = _list_echelon(ctx, [self._row(v) + unit for v, unit in zip(values, self._eye)])
        basis = [[0] * c + row for c, row in _list_reduced(ctx, [(c - n, tail) for c, tail in kept if c >= n])]
        return np.array(basis, dtype=np.int64).reshape(-1, n)


def vector_field_iso(ctx: FieldCtx, n: int, big: FieldCtx | None = None) -> VectorFieldIso:
    """The coordinate map GF(q)^n -> big, by default the GF(q^n) of extension(ctx, n); one per field pair."""
    check_settings(("n", n, 1, f"ambient dimension {n} is not positive"))
    return _vector_field_iso(ctx, n, _extension(ctx, n)[0] if big is None else big)


@functools.lru_cache(maxsize=None)
def _vector_field_iso(ctx: FieldCtx, n: int, big: FieldCtx) -> VectorFieldIso:
    return VectorFieldIso(ctx, n, big)


# ---------------------------------------------------------------------------
# Linearized polynomials
# ---------------------------------------------------------------------------

#: The most (term, point) cells eval_array holds at once, so a polynomial of
#: many terms evaluated on a whole big field takes memory in proportion to
#: the points only.
EVAL_CELLS = 1 << 16


class LinearizedPoly:
    """sum_i a_i x^(q^i) with coefficients in a fixed big field GF(q^N).

    __init__ checks the base, q-indices and coefficients; _of trusts the
    nonzero int coefficients, by int q-index, of a library-built polynomial.
    """

    __slots__ = ("base_q", "ctx", "coeffs")

    def __init__(self, base_q: int, ctx: FieldCtx, coeffs: dict[int, int]):
        ctx._check_power_base(strict_int(base_q, "base-q"))
        for i in coeffs:
            if strict_int(i, "q-index") < 0:
                raise FormatError(f"q-index {i} is negative")
        values = _as_array(ctx, list(coeffs.values()))
        if values.ndim != 1:
            raise FormatError("each coefficient must be one encoding")
        self.base_q = base_q
        self.ctx = ctx
        self.coeffs = {int(i): c for i, c in zip(coeffs, values.tolist()) if c}

    @classmethod
    def _of(cls, base_q: int, ctx: FieldCtx, coeffs: dict[int, int]) -> "LinearizedPoly":
        L = cls.__new__(cls)
        L.base_q, L.ctx, L.coeffs = base_q, ctx, coeffs
        return L

    def is_zero(self):
        return not self.coeffs

    @property
    def q_degree(self) -> int:
        """Largest i with a nonzero coefficient (the multispace rank)."""
        if not self.coeffs:
            raise NotAMultispace("zero polynomial has no degree")
        return max(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.base_q == other.base_q
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base_q, self.ctx, tuple(sorted(self.coeffs.items()))))

    def eval(self, x: int) -> int:
        """Value at one big-field encoding."""
        return int(self.eval_array(x))

    __call__ = eval

    def eval_array(self, xs) -> np.ndarray:
        """Values at an array of big-field encodings: every term at once, as a
        (terms, points) array summed along its first axis, for at most
        EVAL_CELLS cells of points at a time."""
        return self._eval(_as_array(self.ctx, xs))

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        flat = xs.reshape(-1)
        out = np.zeros_like(flat)
        if self.coeffs:
            indices = np.asarray(list(self.coeffs))[:, None]
            coeffs = np.asarray(list(self.coeffs.values()))[:, None]
            step = max(1, EVAL_CELLS // len(coeffs))
            for s in range(0, len(flat), step):
                powers = ctx.frobenius_arr(flat[None, s : s + step], indices, self.base_q)
                out[s : s + step] = ctx.sum_arr(ctx.mul_arr(coeffs, powers))
        return out.reshape(xs.shape)

    def eval_domain(self) -> np.ndarray:
        """Values on every element of the big field, as an encoding array."""
        return self._eval(np.arange(self.ctx.q, dtype=np.int64))

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in sorted(self.coeffs.items(), reverse=True):
            # past q-index 64 the exponent stays symbolic: the height is
            # unbounded and q^height can have more digits than str() allows
            exponent = self.base_q ** i if i <= 64 else f"({self.base_q}^{i})"
            terms.append(f"{c}*x^{exponent}")
        return " + ".join(terms)

    def coefficient_subfield_degree(self) -> int:
        """Smallest l dividing N with all coefficients in GF(base_q^l)."""
        n_over_base = self.ctx.e // self.ctx._check_power_base(self.base_q)
        for ell in range(1, n_over_base + 1):
            if n_over_base % ell:
                continue
            if all(
                self.ctx.frobenius(c, ell, self.base_q) == c
                for c in self.coeffs.values()
            ):
                return ell
        return n_over_base

    def to_dict(self) -> dict:
        return {
            "base-q": self.base_q,
            "field": self.ctx.spec,
            "coeffs": {str(i): int(c) for i, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearizedPoly":
        with reading("linearized polynomial"):
            spec, base_q = d["field"], d["base-q"]
            coeffs = {_q_index(k): c for k, c in d["coeffs"].items()}
        return cls(base_q, parse_field_spec(spec), coeffs)


def _q_index(key) -> int:
    """A coefficient key as its q-index: only a canonical ASCII decimal is one,
    so no two keys name the same index and no sign, space or underscore is read."""
    if not (isinstance(key, str) and key.isascii() and key.isdecimal() and str(int(key)) == key):
        raise FormatError(f"q-index {key!r} is not a nonnegative decimal integer")
    return int(key)


# ---------------------------------------------------------------------------
# The correspondence
# ---------------------------------------------------------------------------

def poly_from_multispace(w: Multispace, big: FieldCtx | None = None) -> LinearizedPoly:
    """The monic linearized polynomial prod_{v in W} (x - phi(v)).

    Starting from P = x, each basis vector v of the underlying space
    applies P <- P^q - P(v)^(q-1) P on the q-coefficients; the height
    then raises P to the q^height-th power, which shifts every q-index by
    the height and applies Frobenius to the coefficients.

    The whole space U = GF(q)^n takes x^(q^n) - x at once.  phi is a
    bijection, so phi(U) = GF(q^n); every a in GF(q^n) has a^(q^n) = a, so
    x^(q^n) - x is a monic polynomial of degree q^n with the q^n distinct
    roots GF(q^n).  The recursion gives the monic polynomial of degree q^n
    whose roots are phi(U), each once; the two are equal.
    """
    q = w.ctx.q
    iso = _vector_field_iso(w.ctx, w.n, _extension(w.ctx, w.n)[0] if big is None else big)
    F = iso.big
    if w.dim == w.n:
        c = [F.neg(1)] + [0] * (w.n - 1) + [1]  # x^(q^n) - x
    else:
        c = [1]  # q-coefficients of P = x
        for v in iso._field_list(w.underlying.basis.tolist()):
            c = F.annihilator_step(c, v, q)
    h = w.height
    k = pow(q, h, F.q - 1)  # the height's Frobenius a -> a^(q^h), exact at any height: a^(q^N) = a
    return LinearizedPoly._of(q, F, {i: F.pow(a, k) for i, a in enumerate(c, start=h) if a})


def roots_multiset(L: LinearizedPoly) -> Multispace:
    """Recover the multispace whose members are the roots of L.

    The roots of a nonzero linearized L over GF(q^n) are the kernel K of
    the GF(q)-linear map x -> L(x), the left null space of its matrix on
    the images of the unit vectors (VectorFieldIso._kernel).  With h the
    lowest q-index of L, L = M^(q^h) for a separable M of q-degree
    q_degree - h, so L splits over GF(q^n) iff dim K = q_degree - h, and
    then its root multiset is the multispace (K, h).  RootsNotInField is
    raised when L does not split; NotAMultispace only for the zero
    polynomial, since the root multiset of a split nonzero linearized
    polynomial is always a multispace.
    """
    F = L.ctx
    if L.is_zero():
        raise NotAMultispace("zero polynomial has no root multiset")
    e = F._check_power_base(L.base_q)
    n = F.e // e
    small = _field(F.p, e, None)
    iso = _vector_field_iso(small, n, F)
    basis = iso._kernel(F.linearized_terms(L.coeffs, iso._powers))
    h = min(L.coeffs)
    if len(basis) != L.q_degree - h:
        raise RootsNotInField(f"polynomial does not split over {F}")
    return Multispace._of(Subspace(small, n, basis), h)
