"""Vectors, matrices and canonical subspaces over GF(q).

Matrices are numpy arrays of integer encodings tied to a FieldCtx.
A Subspace is always stored through its reduced-row-echelon basis with
zero rows dropped, so equality and hashing are structural.
"""

import functools
from collections.abc import Sequence
from itertools import combinations, product

import numpy as np

from .errors import DimensionMismatch, FormatError, LimitExceeded, NotCanonical
from .fields import FieldCtx, FieldElement, parse_field_spec

#: The one enumeration budget: no enumerator yields more items than this.
DEFAULT_STATE_LIMIT = 1 << 20


def _check_budget(count: int, what: str) -> None:
    """Refuse, before the first item, an enumeration that would yield count items.

    A count past 64 bits is named by its power of two: a count can have more
    digits than Python prints for an int.
    """
    if count > DEFAULT_STATE_LIMIT:
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        raise LimitExceeded(f"{shown} {what} exceed the enumeration limit {DEFAULT_STATE_LIMIT}")


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n (exact integer).

    Walks the row [n, i+1] = [n, i] (q^(n-i) - 1) / (q^(i+1) - 1); each
    division is exact, and nothing recurses on n.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def _odometer(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """All q^len(rows) combinations sum c_i rows[i], the last coefficient fastest."""
    n = rows.shape[1]
    out = np.zeros((1, n), dtype=np.int64)
    for row in rows:
        scaled = np.stack([ctx.mul_arr(np.full(n, c, dtype=np.int64), row) for c in range(ctx.q)])
        out = ctx.add_arr(out[:, None, :], scaled[None, :, :]).reshape(-1, n)
    return out


def _as_array(ctx: FieldCtx, rows) -> np.ndarray:
    try:
        a = np.asarray(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"entries are not integer encodings: {exc}") from exc
    if a.size and (a.min() < 0 or a.max() >= ctx.q):
        raise FormatError(f"encodings out of range for {ctx}")
    return a


def _rows_array(ctx: FieldCtx, n: int, rows) -> np.ndarray:
    """Coerce to an (m, n) array of encodings; [] becomes 0 x n."""
    a = _as_array(ctx, rows)
    if a.size == 0 and a.ndim <= 1:
        try:
            return np.zeros((0, n), dtype=np.int64)
        except ValueError as exc:  # numpy refuses the dimension
            raise FormatError(f"ambient dimension {n} is too large") from exc
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch(f"rows have shape {a.shape}, expected (*, {n})")
    return a


def _pad_stack(arrays, shape) -> np.ndarray:
    """The 2-D arrays, zero-padded at the bottom and right, as one (len(arrays),) + shape stack."""
    out = np.zeros((len(arrays), *shape), dtype=np.int64)
    for t, a in enumerate(arrays):
        out[t, : a.shape[0], : a.shape[1]] = a
    return out


class FqVector:
    """A vector in GF(q)^n, stored as an array of element encodings."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords):
        self.ctx = ctx
        self.coords = _as_array(ctx, coords).reshape(-1)
        self.coords.flags.writeable = False

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, np.zeros(n, dtype=np.int64))

    @classmethod
    def unit(cls, ctx, n, i):
        c = np.zeros(n, dtype=np.int64)
        c[i] = 1
        return cls(ctx, c)

    @property
    def n(self):
        return self.coords.shape[0]

    def __len__(self):
        return self.n

    def __getitem__(self, i) -> FieldElement:
        return FieldElement(int(self.coords[i]), self.ctx)

    def __add__(self, other: "FqVector"):
        self.ctx.check_same(other.ctx)
        if self.n != other.n:
            raise DimensionMismatch("vector lengths differ")
        return FqVector(self.ctx, self.ctx.add_arr(self.coords, other.coords))

    def __sub__(self, other: "FqVector"):
        self.ctx.check_same(other.ctx)
        if self.n != other.n:
            raise DimensionMismatch("vector lengths differ")
        return FqVector(self.ctx, self.ctx.sub_arr(self.coords, other.coords))

    def scale(self, c) -> "FqVector":
        cv = c.value if isinstance(c, FieldElement) else int(c)
        return FqVector(self.ctx, self.ctx.mul_arr(np.full(self.n, cv, dtype=np.int64), self.coords))

    def is_zero(self):
        return not self.coords.any()

    def __eq__(self, other):
        return (
            isinstance(other, FqVector)
            and self.ctx == other.ctx
            and np.array_equal(self.coords, other.coords)
        )

    def __hash__(self):
        return hash((self.ctx, self.coords.tobytes()))

    def __repr__(self):
        return f"FqVector({list(map(int, self.coords))} over GF({self.ctx.p}^{self.ctx.e}))"


class FqMatrix:
    """A rows x cols matrix over GF(q)."""

    __slots__ = ("ctx", "array")

    def __init__(self, ctx: FieldCtx, entries):
        self.ctx = ctx
        a = _as_array(ctx, entries)
        if a.ndim != 2:
            raise DimensionMismatch("matrix entries must be two-dimensional")
        self.array = a
        self.array.flags.writeable = False

    @classmethod
    def zeros(cls, ctx, rows, cols):
        return cls(ctx, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, ctx, rows: Sequence[Sequence[int]]):
        return cls(ctx, [list(map(int, r)) for r in rows])

    @property
    def rows(self):
        return self.array.shape[0]

    @property
    def cols(self):
        return self.array.shape[1]

    @property
    def shape(self):
        return self.array.shape

    @property
    def T(self):
        return FqMatrix(self.ctx, self.array.T.copy())

    def __matmul__(self, other: "FqMatrix"):
        self.ctx.check_same(other.ctx)
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return FqMatrix(self.ctx, matmul_arrays(self.ctx, self.array, other.array))

    def rank(self) -> int:
        return rref_array(self.ctx, self.array)[1]

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.ctx == other.ctx
            and self.shape == other.shape
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.ctx, self.shape, self.array.tobytes()))

    def __repr__(self):
        return f"FqMatrix({self.array.tolist()} over GF({self.ctx.p}^{self.ctx.e}))"


def matmul_arrays(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product of encoding arrays; shapes (..., r, k) @ (..., k, c).

    Leading batch axes broadcast as in np.matmul.
    """
    if ctx.e == 1:
        return (a.astype(np.int64) @ b.astype(np.int64)) % ctx.p
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(batch + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for k in range(a.shape[-1]):
        out = ctx.add_arr(out, ctx.mul_arr(a[..., :, k : k + 1], b[..., k : k + 1, :]))
    return out


def rref_array(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form; returns (rref, rank, pivot columns)."""
    a = np.array(a, dtype=np.int64)
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = ctx.mul_arr(a[r], np.full(cols, ctx.inv(int(a[r, c])), dtype=np.int64))
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if len(other):
            factors = a[other, c : c + 1]
            a[other] = ctx.sub_arr(a[other], ctx.mul_arr(factors, a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, r, pivots


def rref_batch(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a (T, m, n) stack at once.

    Returns (rrefs, ranks); entry t equals rref_array(ctx, a[t])[:2].  Each
    column's pivot is the first unused nonzero row of each entry, so no rows
    are swapped; a pivot row is zero left of its pivot, so sorting the rows
    by their first nonzero column (zero rows last) gives the echelon order.
    """
    a = np.array(a, dtype=np.int64)
    batch, rows, cols = a.shape
    if a.size == 0:
        return a, np.zeros(batch, dtype=np.int64)
    free = np.ones((batch, rows), dtype=bool)  # rows that hold no pivot yet
    entries = np.arange(batch)
    for c in range(cols):
        # factors: the multiple of the pivot row that each row loses (a mask over GF(2))
        factors = a[:, :, c] != 0 if ctx.q == 2 else a[:, :, c].copy()
        cand = free & (factors != 0)
        r = cand.argmax(axis=1)  # row 0 where an entry has no pivot in this column
        has = cand[entries, r]
        right = a[:, :, c:]  # a pivot row is zero left of its pivot column
        piv = right[entries, r] * has[:, None]  # zero rows void the update where has is False
        if ctx.q != 2:
            piv = ctx.mul_arr(piv, ctx.inv_arr(np.where(has, piv[:, 0], 1))[:, None])
            right[entries[has], r[has]] = piv[has]
        factors[entries, r] = 0
        if ctx.q == 2:
            right ^= factors[:, :, None] & piv[:, None, :]
        else:
            right[...] = ctx.sub_arr(right, ctx.mul_arr(factors[:, :, None], piv[:, None, :]))
        free[entries[has], r[has]] = False
    nonzero = a != 0
    lead = np.where(nonzero.any(axis=2), nonzero.argmax(axis=2), cols)
    order = np.argsort(lead, axis=1, kind="stable")
    return a[entries[:, None], order], rows - free.sum(axis=1)


def rref(m: FqMatrix) -> tuple[FqMatrix, int]:
    """RREF of a matrix (same shape, zero rows kept) and its rank."""
    a, rank, _ = rref_array(m.ctx, m.array)
    return FqMatrix(m.ctx, a), rank


def is_rref(ctx: FieldCtx, a: np.ndarray) -> bool:
    """True iff a is in reduced row echelon form with no zero rows (RREF is
    unique, so exactly when elimination keeps a and finds full row rank)."""
    red, rank, _ = rref_array(ctx, a)
    return rank == a.shape[0] and np.array_equal(red, a)


class Subspace:
    """A subspace of GF(q)^n in canonical (RREF basis) form.

    The zero space is an explicit 0 x n matrix.  Two subspaces are equal
    iff their canonical bases are identical.
    """

    __slots__ = ("ctx", "n", "basis", "dim")

    def __init__(self, ctx: FieldCtx, n: int, basis: np.ndarray):
        # internal constructor: trusts that basis is canonical
        self.ctx = ctx
        self.n = n
        self.basis = basis
        self.basis.flags.writeable = False
        self.dim = basis.shape[0]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, n, np.zeros((0, n), dtype=np.int64))

    @classmethod
    def full(cls, ctx, n):
        return cls(ctx, n, np.eye(n, dtype=np.int64))

    @classmethod
    def from_array(cls, ctx, n, rows) -> "Subspace":
        """Span of arbitrary row vectors, brought to canonical form by elimination."""
        a = _rows_array(ctx, n, rows)
        red, rank, _ = rref_array(ctx, a)
        return cls(ctx, n, red[:rank].copy())

    @classmethod
    def from_basis(cls, ctx, n, rows, strict: bool = True) -> "Subspace":
        """Build from rows that must already be canonical when strict."""
        a = _rows_array(ctx, n, rows)
        if strict:
            if not is_rref(ctx, a):
                raise NotCanonical("basis rows are not in reduced row echelon form")
            return cls(ctx, n, a.copy())
        return cls.from_array(ctx, n, a)

    # -- basic protocol ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.ctx, self.n, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of GF({self.ctx.p}^{self.ctx.e})^{self.n})"

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(int(np.nonzero(r)[0][0]) for r in self.basis)

    def sort_key(self):
        return (self.dim, self.pivots, self.basis.tobytes())

    def _check_compatible(self, other: "Subspace"):
        self.ctx.check_same(other.ctx)
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")

    # -- membership and order -----------------------------------------------------

    def contains_array(self, v: np.ndarray) -> bool:
        """True iff v, one vector or a stack of row vectors, lies in the subspace."""
        stacked = np.vstack([self.basis, _rows_array(self.ctx, self.n, v)])
        return rref_array(self.ctx, stacked)[1] == self.dim

    def contains(self, v: FqVector) -> bool:
        self.ctx.check_same(v.ctx)
        if v.n != self.n:
            raise DimensionMismatch("vector length differs from ambient dimension")
        return self.contains_array(v.coords)

    def __le__(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.dim <= other.dim and other.contains_array(self.basis)

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self <= other

    # -- lattice operations ----------------------------------------------------

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = np.vstack([self.basis, other.basis]) if self.dim + other.dim else np.zeros((0, self.n), dtype=np.int64)
        return Subspace.from_array(self.ctx, self.n, stacked)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [[A A],[B 0]]; rows with zero left half give the intersection."""
        self._check_compatible(other)
        n = self.n
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ctx, n)
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        red, rank, pivots = rref_array(self.ctx, np.vstack([top, bot]))
        # rows with a zero left half come last, right halves already reduced
        first = sum(p < n for p in pivots)
        return Subspace(self.ctx, n, red[first:rank, n:].copy())

    # -- enumeration of members --------------------------------------------------

    def vector_array(self) -> np.ndarray:
        """All q^dim member vectors as an array of encodings, coefficient-odometer order."""
        _check_budget(self.ctx.q ** self.dim, "vectors")
        return _odometer(self.ctx, self.basis)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "q-spec": self.ctx.spec,
            "n": self.n,
            "basis": [[int(v) for v in row] for row in self.basis],
        }

    @classmethod
    def from_dict(cls, d: dict, strict: bool = True) -> "Subspace":
        try:
            spec, n, rows = d["q-spec"], int(d["n"]), d["basis"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad subspace object: {exc}") from exc
        if n < 1:
            raise FormatError(f"bad subspace object: ambient dimension {n} is not positive")
        return cls.from_basis(parse_field_spec(spec), n, rows, strict=strict)


# ---------------------------------------------------------------------------
# Module-level operation names
# ---------------------------------------------------------------------------

def span(vectors, ctx: FieldCtx | None = None, n: int | None = None) -> Subspace:
    """Canonical span of a vector multiset / list of FqVector / FqMatrix rows.

    ctx and n are required only when the input carries no vectors.
    """
    if hasattr(vectors, "matrix") and hasattr(vectors, "ctx"):  # VectorMultiset
        return Subspace.from_array(vectors.ctx, vectors.n, vectors.matrix)
    if isinstance(vectors, FqMatrix):
        return Subspace.from_array(vectors.ctx, vectors.cols, vectors.array)
    vecs = list(vectors)
    if not vecs:
        if ctx is None or n is None:
            raise ValueError("empty span needs explicit ctx and n")
        return Subspace.zero(ctx, n)
    c0 = vecs[0].ctx
    n0 = vecs[0].n
    for v in vecs[1:]:
        c0.check_same(v.ctx)
        if v.n != n0:
            raise DimensionMismatch("mixed vector lengths in span")
    return Subspace.from_array(c0, n0, np.stack([v.coords for v in vecs]))


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    return a <= b


def subspace_distance(a: Subspace, b: Subspace) -> int:
    """dim a + dim b - 2 dim(a ^ b), via the modular dimension identity."""
    a._check_compatible(b)
    dim_sum = (a + b).dim
    return 2 * dim_sum - a.dim - b.dim


def enumerate_subspaces(ctx: FieldCtx, n: int, k: int):
    """Yield every k-dimensional subspace of GF(q)^n exactly once.

    Order: pivot-column sets lexicographically, then free entries in
    odometer order (row-major, last position fastest).
    """
    if not 0 <= k <= n:
        return
    _check_budget(gaussian_binomial(n, k, ctx.q), "subspaces")
    if k == 0:
        yield Subspace.zero(ctx, n)
        return
    q = ctx.q
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivset
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, pc in enumerate(pivots):
            base[i, pc] = 1
        for assignment in product(range(q), repeat=len(free)):
            m = base.copy()
            for (i, c), val in zip(free, assignment):
                m[i, c] = val
            yield Subspace(ctx, n, m)
