"""Matrices and canonical subspaces over GF(q).

Matrices are int64 numpy arrays of integer encodings, passed along with
their FieldCtx, and a vector is one row of such an array.
A Subspace is always stored through its reduced-row-echelon basis with
zero rows dropped, so equality and hashing are structural.
"""

import functools
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, FormatError, LimitExceeded, NotCanonical
from .fields import RANK_TABLE_LIMIT, FieldCtx, ambient_dim, check_settings, parse_field_spec, reading

#: The one enumeration budget: no enumerator yields more items than this.
DEFAULT_STATE_LIMIT = 1 << 20


def _shown(count: int) -> int | str:
    """count, or past 64 bits its power of two: a count can have more digits than Python prints for an int."""
    return count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"


def _check_budget(count: int, what: str) -> None:
    """Refuse, before the first item, an enumeration that would yield count items."""
    if count > DEFAULT_STATE_LIMIT:
        raise LimitExceeded(f"{_shown(count)} {what} exceed the enumeration limit {DEFAULT_STATE_LIMIT}")


def _check_lower_bound(n: int, k: int, q: int, what: str) -> None:
    """Refuse a count of at least [n, k]_q >= 2^(k(n-k) floor(log2 q)) items, 0 <= k <= n, before it is formed."""
    bits = k * (n - k) * (q.bit_length() - 1)
    if bits >= 64:  # past 64 bits _shown names a count by a power of two anyway
        raise LimitExceeded(f"at least 2^{bits} {what} exceed the enumeration limit {DEFAULT_STATE_LIMIT}")


@functools.lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not hit the entry of 3
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n (exact integer).

    Walks the row [n, i+1] = [n, i] (q^(n-i) - 1) / (q^(i+1) - 1); each
    division is exact, and nothing recurses on n.
    """
    check_settings(("n", n, None, ""), ("k", k, None, ""), ("q", q, 2, "q must be at least 2"))
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def _odometer(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """All q^k combinations sum c_i rows[..., i, :] of each (k, n) matrix of a
    (..., k, n) stack, as a (..., q^k, n) stack; the last coefficient fastest."""
    *lead, k, n = rows.shape
    if ctx.e == 1:  # every coefficient vector at once, as the loop below orders them
        return (np.arange(ctx.q ** k)[:, None] // ctx.q ** np.arange(k - 1, -1, -1) % ctx.q) @ rows % ctx.p
    coeffs = np.arange(ctx.q, dtype=np.int64)[:, None]
    out = np.zeros((*lead, 1, n), dtype=np.int64)
    for i in range(k):
        scaled = ctx.mul_arr(coeffs, rows[..., i : i + 1, :])  # (..., q, n): c * row i for every c
        out = ctx.add_arr(out[..., :, None, :], scaled[..., None, :, :])
        out = out.reshape(*lead, ctx.q ** (i + 1), n)  # not -1: a stack may hold no matrices
    return out


def _as_array(ctx: FieldCtx, rows) -> np.ndarray:
    try:
        raw = np.asarray(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"entries are not integer encodings: {exc}") from exc
    # Refuse before the cast: it would truncate 1.5, parse "1", or overflow 9e18.
    if raw.size and raw.dtype.kind not in "biuO":
        raise FormatError(f"entries of dtype {raw.dtype} are not integer encodings")
    try:
        a = raw.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"entries are not integer encodings: {exc}") from exc
    if a.size and (a.min() < 0 or a.max() >= ctx.q):
        raise FormatError(f"encodings out of range for {ctx}")
    return a


def _empty(shape: tuple, n: int) -> np.ndarray:
    """Zeros of a shape that starts at 0 and ends at the ambient dimension n; an n
    that numpy cannot shape is refused with FormatError."""
    try:
        return np.zeros(shape, dtype=np.int64)
    except ValueError as exc:  # numpy refuses the dimension
        raise FormatError(f"ambient dimension {n} is too large") from exc


def _rows_array(ctx: FieldCtx, n: int, rows) -> np.ndarray:
    """Coerce to an (m, n) array of encodings, n an int >= 0; [] becomes 0 x n."""
    check_settings(("n", n, 0, f"ambient dimension {n} is negative"))
    a = _as_array(ctx, rows)
    if a.size == 0 and a.ndim <= 1:
        return _empty((0, n), n)
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


#: Largest matrix, in cells, that rref_array reduces on list rows through the
#: tables when 2 < q <= RANK_TABLE_LIMIT, for at most two rows per column; past
#: that it takes rref_batch as a one-entry stack.  Python rows cost table
#: lookups per row and cell at each pivot, numpy a fixed set of calls per
#: pivot, so rows win on small matrices.  Measured with Python 3.11.7 and numpy
#: 2.4.6 on a shared 2-vCPU host, the batch against rows, median of 7 over the
#: same random matrices: 6x12 GF(3) 155 / 30 us, 12x16 GF(2^8) 547 / 216 us,
#: 20x20 GF(3) 827 / 486 us, 24x24 GF(16) 573 / 626 us, 32x32 GF(3) 1.03 /
#: 1.18 ms and 64x64 GF(16) 2.1 / 8.5 ms; tall, 24x8 GF(2^8) 291 / 143 us and
#: 96x2 GF(16) 45 / 65 us.  Rows would win up to about 400 cells and ten rows
#: per column, but no benchmark case has a matrix past 192 cells, so nothing
#: measured end to end would show a higher limit pay; it stays until one does.
#: GF(2) rows are Python ints, which win at every measured size, so they have
#: no limit.
ROW_CELL_LIMIT = 192


def rref_array(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form; returns (rref, rank, pivot columns).

    A small matrix is eliminated faster in plain Python than through numpy
    calls, so the rows go through the row kernel's forward pass, then back
    substitution: over GF(2) at every size, and over other fields of at most
    RANK_TABLE_LIMIT elements up to ROW_CELL_LIMIT cells and two rows per
    column.  Larger fields and matrices take rref_batch as a one-entry stack,
    each pivot the first nonzero of a row of the RREF.  The RREF of a matrix
    is unique, so every path returns the same array.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return a.copy(), 0, []
    if ctx.q == 2:
        return _rref_bits(a)
    rows, cols = a.shape
    if ctx.q <= RANK_TABLE_LIMIT and a.size <= ROW_CELL_LIMIT and rows <= 2 * cols:
        return _rref_lists(ctx, a)
    (red,), (rank,) = rref_batch(ctx, a[None])
    return red, int(rank), (red[:rank] != 0).argmax(axis=1).tolist()


def _bit_rows(a: np.ndarray) -> tuple[list[int], int]:
    """Each row of a GF(2) matrix as one Python int of `bits` bits, column 0 the
    highest and the row padded to whole bytes: the dot product with powers of
    two while that fits in an int64, where a tall matrix also drops its zero
    rows, else the packed bytes read big-endian."""
    cols = a.shape[1]
    bits = -(-cols // 8) * 8
    if bits < 64:
        v = a @ _powers_of_two(cols)
        return (v[v != 0] if len(v) > cols else v).tolist(), bits
    raw = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(raw[i : i + bits // 8], "big") for i in range(0, len(raw), bits // 8)], bits


def _bit_array(ints: list[int], shape: tuple[int, int], bits: int) -> np.ndarray:
    """The inverse of _bit_rows, with zero rows below the given ones."""
    out = np.zeros(shape, dtype=np.int64)
    if ints:
        raw = np.frombuffer(b"".join(x.to_bytes(bits // 8, "big") for x in ints), dtype=np.uint8)
        out[: len(ints)] = np.unpackbits(raw.reshape(len(ints), -1), axis=1, count=shape[1])
    return out


@functools.lru_cache(maxsize=None)
def _powers_of_two(cols: int) -> np.ndarray:
    """The weights of the columns in a row padded to whole bytes."""
    bits = -(-cols // 8) * 8
    return 1 << np.arange(bits - 1, bits - 1 - cols, -1, dtype=np.int64)


def _bit_echelon(rows: list[int], cols: int) -> dict[int, int]:
    """Forward elimination of GF(2) int rows: the kept rows by their leading bit's
    bit_length.  A row is reduced by XOR against the kept row with its leading
    bit until it is zero or leads at a new bit, and the pass ends once every
    column holds a pivot.  A tall matrix is read without its repeated rows."""
    lead: dict[int, int] = {}
    for x in dict.fromkeys(rows) if len(rows) > cols else rows:
        while x:
            h = x.bit_length()
            y = lead.get(h)
            if y is None:
                lead[h] = x
                if len(lead) == cols:
                    return lead
                break
            x ^= y
    return lead


def _list_echelon(ctx: FieldCtx, rows: list[list[int]]) -> list[tuple[int, list[int]]]:
    """Forward elimination of list rows through the field tables: (pivot column,
    the pivot row from that column on) per pivot, in order.  Each row left with
    a nonzero in the pivot's column is reduced in place as v - f w to its right."""
    mul, sub = _rank_tables(ctx)
    kept = []
    cols = len(rows[0])
    for c in range(cols):
        for k, row in enumerate(rows):
            if row[c]:
                break
        else:
            continue
        piv = rows.pop(k)
        kept.append((c, piv[c:]))
        if not rows or c + 1 == cols:  # no rows, or no columns, left to reduce
            break
        ip, tail = ctx.inv(piv[c]), piv[c + 1 :]
        for row in rows:
            if row[c]:
                f = mul[mul[row[c]][ip]]  # row[c] / piv[c] times each entry
                row[c + 1 :] = [sub[v][f[w]] for v, w in zip(row[c + 1 :], tail)]
    return kept


def _bit_reduced(lead: dict[int, int]) -> list[tuple[int, int]]:
    """Back substitution of _bit_echelon's rows from the last pivot up, each cleared at every
    pivot right of its own: (bit_length, row) per pivot, the leftmost first."""
    done: list[tuple[int, int]] = []
    for h in sorted(lead):  # the rightmost pivot first
        x = lead[h]
        for g, y in done:
            if x >> (g - 1) & 1:
                x ^= y
        done.append((h, x))
    return done[::-1]


def _rref_bits(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """rref_array over GF(2) on int rows: the echelon rows, then back substitution."""
    ints, bits = _bit_rows(a)
    done = _bit_reduced(_bit_echelon(ints, a.shape[1]))
    return _bit_array([x for _, x in done], a.shape, bits), len(done), [bits - h for h, _ in done]


def _list_reduced(ctx: FieldCtx, kept: list[tuple[int, list[int]]]) -> list[tuple[int, list[int]]]:
    """Back substitution of _list_echelon's rows through the field tables, each scaled to a
    leading 1, from the last pivot up: (pivot column, the row from that column on, zero to
    its left) per pivot, the leftmost first."""
    mul, sub = _rank_tables(ctx)
    done: list[tuple[int, list[int]]] = []
    for c, tail in reversed(kept):
        scale = mul[ctx.inv(tail[0])]
        row = [scale[v] for v in tail]
        for d, below in done:
            if row[d - c]:
                f = mul[row[d - c]]
                row[d - c :] = [sub[v][f[w]] for v, w in zip(row[d - c :], below)]
        done.append((c, row))
    return done[::-1]


def _rref_lists(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """rref_array on list rows: the echelon rows, then back substitution."""
    done = _list_reduced(ctx, _list_echelon(ctx, a.tolist()))
    red = np.zeros(a.shape, dtype=np.int64)
    for i, (c, row) in enumerate(done):
        red[i, c:] = row
    return red, len(done), [c for c, _ in done]


def rank_batch(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Rank of every matrix of a (T, r, c) stack, by a forward pass; a is not written.

    GF(2) rows of at most 63 entries are one int64 each (M4RI), column 0 the
    highest bit, so a row holds the column in turn iff it is at least its bit;
    wider ones take rref_array's Python ints.  Other fields run on _pivot_rows.
    """
    batch, rows, cols = a.shape
    if not a.size:
        return np.zeros(batch, dtype=np.int64)
    if ctx.q == 2 and cols > 63:  # wider rows are Python ints, one matrix at a time
        return np.array([len(_bit_echelon(_bit_rows(m)[0], cols)) for m in a], dtype=np.int64)
    if ctx.q == 2:
        pivots, bits = _packed_pivots(a)
        return (pivots >= bits[:, None]).sum(axis=0)
    return sum((has for _, _, has in _pivot_rows(ctx, a)), np.zeros(batch, dtype=np.int64))


def _pivot_rows(ctx: FieldCtx, a: np.ndarray):
    """The forward pass of rank_batch and rref_batch over a (T, r, c) stack of a
    field other than GF(2), as one (r, c, T) array.  A column's pivot is the row
    with the largest entry there; each row times the pivot, less the pivot row
    times the row's entry, clears the column and the pivot row.  Yields (j, piv,
    has) per column j: piv is the (c - j, T) pivot row from column j on, zero
    where has marks no pivot; the pass reads both after the yield.  Once every
    matrix of a wide stack (r < c) holds r pivots, every row is cleared and no
    column right of j holds a pivot, so the pass stops there."""
    x, entries = a.transpose(1, 2, 0).copy(), np.arange(len(a))
    rows, cols = a.shape[1:]
    held = np.zeros(len(a), dtype=np.int64)  # pivots so far, counted on wide stacks only
    for j in range(cols):
        col = x[:, j]
        piv = x[col.argmax(axis=0), j:, entries].T
        has = piv[0] != 0
        piv *= has  # argmax takes row 0 of an all-zero column, which need not be zero further right
        yield j, piv, has
        if rows < cols:
            held += has
            if j + 1 >= rows and (held == rows).all():
                return
        if j + 1 < cols:
            lead, right = np.where(has, piv[0], 1), x[:, j + 1 :]
            right[...] = ctx.sub_arr(ctx.mul_arr(lead, right), ctx.mul_arr(col[:, None], piv[None, 1:]))


def _packed_pivots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward pass of rank_batch and rref_batch over a GF(2) (T, r, c <= 63)
    stack: (pivots, bits), bits[j] the weight of column j and pivots[j] each
    matrix's largest row left at column j, its pivot row there iff it is at least
    bits[j].  Every row is below 2 bits[j] then, and XOR with the pivot clears
    the column, the pivot row too."""
    bits = 1 << np.arange(a.shape[2] - 1, -1, -1)
    x = (a @ bits).T.copy()  # (rows, T)
    pivots = np.empty((len(bits), len(a)), dtype=np.int64)
    for j, bit in enumerate(bits.tolist()):
        pivots[j] = piv = x.max(axis=0)
        x ^= (x >= bit) * piv
    return pivots, bits


@functools.lru_cache(maxsize=None)
def _rank_tables(ctx: FieldCtx) -> tuple[list, list]:
    """The q x q nested lists mul[a][b] = a b and sub[a][b] = a - b, read from the field's tables."""
    _, sub, mul = ctx.op_tables()
    return mul.tolist(), sub.tolist()


def rref_batch(ctx: FieldCtx, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a (T, m, n) stack at once.

    Returns (rrefs, ranks); entry t equals rref_array(ctx, a[t])[:2], and a is
    not written.  Each row form takes rank_batch's forward pass, then back
    substitution clears each pivot row at every pivot right of its own, from
    the last pivot up.  GF(2) rows of at most 63 entries are packed, and their
    pivot rows sorted in descending order are in echelon order, zero rows last;
    wider ones are Python ints, one matrix at a time.  Over other fields, the
    i-th pivot row of matrix t from _pivot_rows goes to row i, in echelon order
    as it arrives, and is scaled to a leading 1 before back substitution.
    """
    a = np.asarray(a, dtype=np.int64)
    batch, rows, cols = a.shape
    if a.size == 0:
        return a.copy(), np.zeros(batch, dtype=np.int64)
    if ctx.q == 2 and cols <= 63:
        pivots, bits = _packed_pivots(a)
        pivots *= pivots >= bits[:, None]  # zero where a column has no pivot
        for j in range(cols - 1, 0, -1):
            pivots[:j] ^= (pivots[:j] >> (cols - 1 - j) & 1) * pivots[j]
        kept = np.sort(pivots, axis=0)[::-1][: min(rows, cols)].T  # (T, the most pivots a matrix can hold)
        out = np.zeros_like(a)
        out[:, : kept.shape[1]] = kept[:, :, None] >> np.arange(cols - 1, -1, -1) & 1
        return out, (pivots != 0).sum(axis=0)
    if ctx.q == 2:
        rrefs, ranks, _ = zip(*map(_rref_bits, a))
        return np.array(rrefs), np.array(ranks, dtype=np.int64)
    entries, rank = np.arange(batch), np.zeros(batch, dtype=np.int64)
    red = np.zeros((batch, rows + 1, cols), dtype=np.int64)  # a spare row: no pivot writes zeros at row rank
    for c, piv, has in _pivot_rows(ctx, a):
        red[entries, rank, c:] = piv.T
        rank += has
    top = red[:, : rank.max()]
    where = (top != 0).argmax(axis=2)  # each row's pivot column; 0 past the rank
    lead = top[entries[:, None], np.arange(top.shape[1]), where]
    top[...] = ctx.mul_arr(top, ctx.inv_arr(np.where(lead != 0, lead, 1))[:, :, None])
    for i in range(top.shape[1] - 1, 0, -1):
        factors = top[entries, :i, where[:, i]]  # (T, i): the rows above at row i's pivot
        top[:, :i] = ctx.sub_arr(top[:, :i], ctx.mul_arr(factors[:, :, None], top[:, i, None]))
    return red[:, :rows], rank


def is_rref(ctx: FieldCtx, a: np.ndarray) -> bool:
    """True iff a is in reduced row echelon form with no zero rows (RREF is
    unique, so exactly when elimination keeps a and finds full row rank)."""
    red, rank, _ = rref_array(ctx, a)
    return rank == a.shape[0] and np.array_equal(red, a)


class Subspace:
    """A subspace of GF(q)^n in canonical (RREF basis) form.

    The zero space is an explicit 0 x n matrix.  Two subspaces are equal
    iff their canonical bases are identical.  The classmethods check their
    input; __init__ and _span trust arrays the library built.
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
        return cls(ctx, n, _rows_array(ctx, n, []))

    @classmethod
    def full(cls, ctx, n):
        return cls(ctx, n, np.eye(cls.zero(ctx, n).n, dtype=np.int64))  # zero checks n

    @classmethod
    def from_array(cls, ctx, n, rows) -> "Subspace":
        """Span of arbitrary row vectors, brought to canonical form by elimination."""
        return cls._span(ctx, n, _rows_array(ctx, n, rows))

    @classmethod
    def _span(cls, ctx, n, a: np.ndarray) -> "Subspace":
        """from_array of an (m, n) encoding array the library built: nothing is checked."""
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
        return cls._span(ctx, n, a)

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
        if self.dim == 0:
            return ()  # an n = 0 basis has no column to argmax over
        return tuple((self.basis != 0).argmax(axis=1).tolist())

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

    def __le__(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.dim <= other.dim and rref_array(self.ctx, np.vstack([other.basis, self.basis]))[1] == other.dim

    def __lt__(self, other: "Subspace") -> bool:
        return self.dim < other.dim and self <= other

    # -- lattice operations ----------------------------------------------------

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace._span(self.ctx, self.n, np.vstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [[A A],[B 0]]; rows with zero left half give the intersection."""
        self._check_compatible(other)
        n = self.n
        if self.dim == 0 or other.dim == 0:
            return self if self.dim == 0 else other
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
            "basis": self.basis.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Subspace":
        with reading("subspace"):
            spec, n, rows = d["q-spec"], ambient_dim(d["n"]), d["basis"]
        return cls.from_basis(parse_field_spec(spec), n, rows)


# ---------------------------------------------------------------------------
# Module-level operation names
# ---------------------------------------------------------------------------

def subspace_leq(a: Subspace, b: Subspace) -> bool:
    return a <= b


def subspace_distance(a: Subspace, b: Subspace) -> int:
    """dim a + dim b - 2 dim(a ^ b), via the modular dimension identity."""
    a._check_compatible(b)
    dim_sum = (a + b).dim
    return 2 * dim_sum - a.dim - b.dim


def _subspace_blocks(ctx: FieldCtx, n: int, k: int):
    """Yield the canonical bases of every k-dimensional subspace of GF(q)^n,
    one (q^f, k, n) block per pivot-column set (Schubert cell) with f free entries.

    Order: pivot-column sets lexicographically, then free entries in
    odometer order (row-major, last position fastest).
    """
    if not 0 <= k <= n:
        return
    _check_lower_bound(n, k, ctx.q, "subspaces")
    _check_budget(gaussian_binomial(n, k, ctx.q), "subspaces")
    if k == 0:  # one cell; combinations would hold all n columns, and zero refuses a huge n
        yield Subspace.zero(ctx, n).basis[None]
        return
    q = ctx.q
    for pivots in combinations(range(n), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivots]
        f = len(free)
        block = np.zeros((q ** f, k, n), dtype=np.int64)
        block[:, range(k), pivots] = 1
        if f:
            rows, cols = zip(*free)
            block[:, rows, cols] = np.arange(q ** f)[:, None] // q ** np.arange(f - 1, -1, -1) % q
        yield block


def enumerate_subspaces(ctx: FieldCtx, n: int, k: int):
    """Yield every k-dimensional subspace of GF(q)^n exactly once, in the order of _subspace_blocks."""
    check_settings(("n", n, None, ""), ("k", k, None, ""))
    for block in _subspace_blocks(ctx, n, k):
        for basis in block:
            yield Subspace(ctx, n, basis)
