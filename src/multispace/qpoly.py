"""Linearized (q-)polynomials and their correspondence with multispaces.

A multispace W = (U, h) over GF(q)^n maps to the polynomial
prod_{v in W} (x - phi(v)) = P_U(x)^(q^h) over the extension field
GF(q^n), where phi is the fixed coordinate isomorphism GF(q)^n -> GF(q^n)
and P_U is the monic subspace polynomial of U.  P_U is linearized, so it
is built on its q-coefficients by the recursion
P_{U+<v>} = P_U^q - P_U(v)^(q-1) P_U over a basis of U: O(rank^2) field
operations, with no bound on the degree q^rank.  Conversely the roots of
a nonzero linearized L form the kernel of the GF(q)-linear map
x -> L(x), read off from n evaluations and one n x 2n elimination; L
splits over GF(q^n) exactly when that kernel has dimension
q_degree - h, where h is the lowest q-index of L, and every root then
has multiplicity q^h (Lidl & Niederreiter, Finite Fields, Ch. 3 Sec. 4).
"""

import functools

import numpy as np

from .errors import (
    ContextMismatch,
    FormatError,
    NotAMultispace,
    RootsNotInField,
    ShapeViolation,
)
from .fields import FieldCtx, FieldElement, _embedding, extension, field, parse_field_spec
from .lattice import Multispace
from .linalg import Subspace, rref_array


# ---------------------------------------------------------------------------
# Coordinate isomorphism GF(q)^n <-> GF(q^n)
# ---------------------------------------------------------------------------

class VectorFieldIso:
    """The fixed vector-space isomorphism GF(q)^n -> GF(q^n).

    Coordinate vector (c_0, ..., c_{n-1}) maps to sum_i phi(c_i) * g^i,
    where g is the residue class of the big field's modulus variable and
    phi the deterministic subfield embedding.
    """

    def __init__(self, ctx: FieldCtx, n: int, big: FieldCtx):
        if big.p != ctx.p or big.e != ctx.e * n:
            raise ContextMismatch(f"{big} is not GF(q^{n}) for q = {ctx.q}")
        self.ctx = ctx
        self.n = n
        self.big = big
        self.emb = _embedding(ctx, big)
        gamma = big.p if big.e > 1 else 0  # residue class of x; unused when big == GF(p)
        if big.e == 1:
            # n == 1 and e == 1: the identity
            self._gamma_pows = np.array([1], dtype=np.int64)
        else:
            pows = [1]
            for _ in range(n - 1):
                pows.append(big.mul(pows[-1], gamma))
            self._gamma_pows = np.asarray(pows, dtype=np.int64)
        self._build_inverse()

    def _build_inverse(self):
        p, e, n = self.ctx.p, self.ctx.e, self.n
        en = e * n
        fp = field(p)
        # columns: base-p digits of phi(alpha^d) * gamma^i
        cols = np.zeros((en, en), dtype=np.int64)
        for i in range(n):
            for d in range(e):
                # basis element alpha^d of GF(q) has encoding p^d
                val = self.big.mul(self.emb.embed_int(p ** d), int(self._gamma_pows[i]))
                digs = []
                v = val
                for _ in range(en):
                    digs.append(v % p)
                    v //= p
                cols[:, i * e + d] = digs
        aug = np.hstack([cols, np.eye(en, dtype=np.int64)])
        red, rank, _ = rref_array(fp, aug)
        if rank != en:
            raise ShapeViolation("coordinate map is singular")  # cannot happen
        self._inv_digits = red[:, en:]

    # -- forward -------------------------------------------------------------

    def to_field_array(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.n)
        acc = np.zeros(rows.shape[0], dtype=np.int64)
        for i in range(self.n):
            term = self.big.mul_arr(
                self.emb.table[rows[:, i]],
                np.full(rows.shape[0], int(self._gamma_pows[i]), dtype=np.int64),
            )
            acc = self.big.add_arr(acc, term)
        return acc

    # -- backward ------------------------------------------------------------

    def to_vector_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64).reshape(-1)
        p, e, n = self.ctx.p, self.ctx.e, self.n
        en = e * n
        digs = np.empty((len(xs), en), dtype=np.int64)
        v = xs.copy()
        for d in range(en):
            digs[:, d] = v % p
            v //= p
        coeff_digs = (digs @ self._inv_digits.T) % p
        pvec = (p ** np.arange(e)).astype(np.int64)
        return (coeff_digs.reshape(-1, n, e) * pvec).sum(axis=2)


def vector_field_iso(ctx: FieldCtx, n: int, big: FieldCtx | None = None) -> VectorFieldIso:
    """The coordinate map GF(q)^n -> big, by default the GF(q^n) of extension(ctx, n); one per field pair."""
    return _vector_field_iso(ctx, n, extension(ctx, n)[0] if big is None else big)


@functools.lru_cache(maxsize=None)
def _vector_field_iso(ctx: FieldCtx, n: int, big: FieldCtx) -> VectorFieldIso:
    return VectorFieldIso(ctx, n, big)


# ---------------------------------------------------------------------------
# Linearized polynomials
# ---------------------------------------------------------------------------

class LinearizedPoly:
    """sum_i a_i x^(q^i) with coefficients in a fixed big field GF(q^N)."""

    __slots__ = ("base_q", "ctx", "coeffs")

    def __init__(self, base_q: int, ctx: FieldCtx, coeffs: dict[int, int | FieldElement]):
        ctx._check_power_base(base_q)
        clean: dict[int, int] = {}
        for i, c in coeffs.items():
            v = c.value if isinstance(c, FieldElement) else int(c)
            ctx.check_value(v)
            if v:
                clean[int(i)] = v
        self.base_q = base_q
        self.ctx = ctx
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    @property
    def q_degree(self) -> int:
        """Largest i with a nonzero coefficient (the multispace rank)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
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

    def eval(self, x: FieldElement | int) -> FieldElement:
        xv = x.value if isinstance(x, FieldElement) else int(x)
        ctx = self.ctx
        acc = 0
        for i, c in self.coeffs.items():
            acc = ctx.add(acc, ctx.mul(c, ctx.frobenius(xv, i, self.base_q)))
        return FieldElement(acc, ctx)

    __call__ = eval

    def eval_array(self, xs) -> np.ndarray:
        """Values at an array of big-field encodings."""
        ctx = self.ctx
        xs = np.asarray(xs, dtype=np.int64)
        acc = np.zeros_like(xs)
        for i, c in self.coeffs.items():
            acc = ctx.add_arr(acc, ctx.mul_arr(c, ctx.frobenius_arr(xs, i, self.base_q)))
        return acc

    def eval_domain(self) -> np.ndarray:
        """Values on every element of the big field, as an encoding array."""
        return self.eval_array(np.arange(self.ctx.q, dtype=np.int64))

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
        n_over_base = self.ctx.e // _base_e(self.ctx, self.base_q)
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
        try:
            spec, base_q = d["field"], int(d["base-q"])
            coeffs = {int(i): int(c) for i, c in d["coeffs"].items()}
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad linearized polynomial object: {exc}") from exc
        ctx = parse_field_spec(spec)
        if any(i < 0 or not 0 <= c < ctx.q for i, c in coeffs.items()):
            raise FormatError(
                f"bad linearized polynomial object: q-indices must be nonnegative "
                f"and coefficients encodings below {ctx.q}"
            )
        return cls(base_q, ctx, coeffs)


def _base_e(ctx: FieldCtx, base_q: int) -> int:
    e = 0
    b = base_q
    while b > 1:
        b //= ctx.p
        e += 1
    return e


# ---------------------------------------------------------------------------
# The correspondence
# ---------------------------------------------------------------------------

def poly_from_multispace(w: Multispace, big: FieldCtx | None = None) -> LinearizedPoly:
    """The monic linearized polynomial prod_{v in W} (x - phi(v)).

    Starting from P = x, each basis vector v of the underlying space
    applies P <- P^q - P(v)^(q-1) P on the q-coefficients; the height
    then raises P to the q^height-th power, which shifts every q-index by
    the height and applies Frobenius to the coefficients.
    """
    ctx = w.ctx
    q = ctx.q
    iso = vector_field_iso(ctx, w.n, big)
    F = iso.big
    c = [1]  # q-coefficients of P = x
    for v in iso.to_field_array(w.underlying.basis).tolist():
        pv = 0
        for i, ci in enumerate(c):
            pv = F.add(pv, F.mul(ci, F.frobenius(v, i, q)))
        a = F.pow(pv, q - 1)
        new = [0] + [F.pow(ci, q) for ci in c]
        for i, ci in enumerate(c):
            new[i] = F.sub(new[i], F.mul(a, ci))
        c = new
    h = w.height
    return LinearizedPoly(q, F, {i + h: F.frobenius(ci, h, q) for i, ci in enumerate(c)})


def roots_multiset(L: LinearizedPoly, big: FieldCtx | None = None) -> Multispace:
    """Recover the multispace whose members are the roots of L.

    The roots of a nonzero linearized L over GF(q^n) are the kernel K of
    the GF(q)-linear map x -> L(x), found as the left null space of its
    matrix on the images of the unit vectors.  With h the lowest q-index
    of L, L = M^(q^h) for a separable M of q-degree q_degree - h, so L
    splits over GF(q^n) iff dim K = q_degree - h, and then its root
    multiset is the multispace (K, h).  RootsNotInField is raised when L
    does not split; NotAMultispace only for the zero polynomial, since
    the root multiset of a split nonzero linearized polynomial is always
    a multispace.
    """
    F = L.ctx
    if big is not None:
        F.check_same(big)
    if L.is_zero():
        raise NotAMultispace("zero polynomial has no root multiset")
    e = _base_e(F, L.base_q)
    n = F.e // e
    small = field(F.p, e)
    iso = vector_field_iso(small, n, F)
    eye = np.eye(n, dtype=np.int64)
    images = iso.to_vector_array(L.eval_array(iso.to_field_array(eye)))
    red, _, pivots = rref_array(small, np.hstack([images, eye]))
    # rows pivoting in the right half have a zero left half; their right
    # halves are already a reduced echelon basis of the left null space
    image_rank = sum(1 for c in pivots if c < n)
    kernel = Subspace(small, n, red[image_rank:, n:].copy())
    h = min(L.coeffs)
    if kernel.dim != L.q_degree - h:
        raise RootsNotInField(f"polynomial does not split over {F}")
    return Multispace(kernel, h)
