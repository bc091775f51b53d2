"""Multisets of vectors closed under linear combinations ("multispaces").

A multispace over GF(q)^n is a multiset in which the support is a
subspace and every member has the same multiplicity q^t.  It is stored
losslessly as (underlying subspace, height t); rank = dim + height and
the multiset has q^rank members counted with multiplicity.

This module provides the span and multispan of a vector multiset, the
graded modular lattice of all multispaces with meet/join/rank/distance,
counting and cover formulas, deterministic enumeration, Hasse-diagram
export, and the distance-2 graph with a distance-regularity checker.
"""

import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, LimitExceeded, RankZero
from .fields import FieldCtx, ambient_dim, check_settings, parse_field_spec, reading
from .linalg import (
    DEFAULT_STATE_LIMIT,
    Subspace,
    _check_budget,
    _check_lower_bound,
    _empty,
    _odometer,
    _pad_stack,
    _rows_array,
    _subspace_blocks,
    enumerate_subspaces,
    gaussian_binomial,
    matmul_arrays,
    rank_batch,
    subspace_distance,
)

#: Counts are plain Python ints, i.e. exact arbitrary-precision integers.
BigCount = int


class VectorMultiset:
    """An ordered multiset of vectors in GF(q)^n (rows of a matrix).

    Order is irrelevant to the multispan but kept so channel transforms
    can act on positions.  __init__ checks the rows; _of trusts an array
    the library built.
    """

    __slots__ = ("ctx", "n", "matrix")

    def __init__(self, ctx: FieldCtx, n: int, rows):
        self.ctx = ctx
        self.n = n
        self.matrix = _rows_array(ctx, n, rows)
        self.matrix.flags.writeable = False

    @classmethod
    def _of(cls, ctx: FieldCtx, n: int, matrix: np.ndarray) -> "VectorMultiset":
        b = cls.__new__(cls)
        b.ctx, b.n, b.matrix = ctx, n, matrix
        matrix.flags.writeable = False
        return b

    def __len__(self):
        return self.matrix.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, VectorMultiset)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.matrix.shape == other.matrix.shape
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.ctx, self.n, self.matrix.tobytes()))

    def __repr__(self):
        return f"VectorMultiset({self.matrix.tolist()} over GF({self.ctx.p}^{self.ctx.e})^{self.n})"

    def to_dict(self) -> dict:
        return {
            "q-spec": self.ctx.spec,
            "n": self.n,
            "vectors": self.matrix.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VectorMultiset":
        with reading("vector multiset"):
            spec, n, rows = d["q-spec"], ambient_dim(d["n"]), d["vectors"]
        return cls(parse_field_spec(spec), n, rows)


class Multispace:
    """A multispace, canonically (underlying subspace, height).  __init__
    checks the height; _of trusts the int height of a library-built word."""

    __slots__ = ("underlying", "height")

    def __init__(self, underlying: Subspace, height: int):
        check_settings(("height", height, 0, f"height {height} is negative"))
        self.underlying = underlying
        self.height = int(height)

    @classmethod
    def _of(cls, underlying: Subspace, height: int) -> "Multispace":
        w = cls.__new__(cls)
        w.underlying, w.height = underlying, height
        return w

    @classmethod
    def bottom(cls, ctx, n):
        return cls(Subspace.zero(ctx, n), 0)

    @property
    def ctx(self):
        return self.underlying.ctx

    @property
    def n(self):
        return self.underlying.n

    @property
    def dim(self):
        return self.underlying.dim

    @property
    def rank(self):
        return self.underlying.dim + self.height

    def multiplicity(self) -> BigCount:
        """Common multiplicity q^height of every member vector."""
        return self.ctx.q ** self.height

    def size(self) -> BigCount:
        """Multiset cardinality q^rank."""
        return self.ctx.q ** self.rank

    def __eq__(self, other):
        return (
            isinstance(other, Multispace)
            and self.height == other.height
            and self.underlying == other.underlying
        )

    def __hash__(self):
        return hash((self.underlying, self.height))

    def __le__(self, other: "Multispace") -> bool:
        return multiset_leq(self, other)

    def __lt__(self, other: "Multispace") -> bool:
        return self != other and multiset_leq(self, other)

    def __repr__(self):
        return f"Multispace(dim {self.dim}, ht {self.height} in GF({self.ctx.p}^{self.ctx.e})^{self.n})"

    def sort_key(self):
        return (self.rank, self.dim, self.underlying.sort_key())

    def label_hash(self) -> str:
        h = hashlib.sha1()
        h.update(f"{self.n}:{self.height}:".encode())
        h.update(self.underlying.basis.tobytes())
        return h.hexdigest()[:6]

    def meet(self, other):
        return meet(self, other)

    def join(self, other):
        return join(self, other)

    def distance(self, other):
        return distance(self, other)

    def generating_multiset(self) -> VectorMultiset:
        """Canonical generator: a basis of the underlying space plus height copies of 0."""
        rows = np.vstack(
            [self.underlying.basis, np.zeros((self.height, self.n), dtype=np.int64)]
        )
        return VectorMultiset._of(self.ctx, self.n, rows)

    def to_dict(self) -> dict:
        d = self.underlying.to_dict()
        d["height"] = self.height
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Multispace":
        underlying = Subspace.from_dict(d)
        with reading("multispace"):  # a height refused by __init__ is a FormatError here
            return cls(underlying, d["height"])


# ---------------------------------------------------------------------------
# Multispan
# ---------------------------------------------------------------------------

def span(b: VectorMultiset) -> Subspace:
    """Canonical span of the rows of a vector multiset."""
    if not isinstance(b, VectorMultiset):
        raise TypeError("span takes a VectorMultiset")
    return Subspace._span(b.ctx, b.n, b.matrix)


def mspan(b: VectorMultiset) -> Multispace:
    """Multispan: underlying space is the span, height is |b| - dim."""
    underlying = span(b)
    return Multispace._of(underlying, len(b) - underlying.dim)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def multiset_leq(a: Multispace, b: Multispace) -> bool:
    """Multiset containment: support contained and multiplicity <= multiplicity."""
    return a.underlying <= b.underlying and a.height <= b.height


def meet(a: Multispace, b: Multispace) -> Multispace:
    """Greatest lower bound = multiset intersection."""
    return Multispace._of(a.underlying.intersect(b.underlying), min(a.height, b.height))


def join(a: Multispace, b: Multispace) -> Multispace:
    """Least upper bound: sum of underlyings, max of heights."""
    return Multispace._of(a.underlying + b.underlying, max(a.height, b.height))


#: An ambient space of at most this many vectors keeps each subspace as one
#: uint64 membership mask: one machine word per subspace.
MASK_VECTORS = 64
#: A stack of words keeps heights below this as int64, so that every distance it forms fits in
#: int64.  A rank layer's stack keeps its heights m - dim as int64 for any m below 2^63 and is not
#: held to this limit: its callers pair it only with words of rank at most their m_max.
HEIGHT_LIMIT = 1 << 62


@functools.lru_cache(maxsize=None)
def _log_table(q: int) -> np.ndarray:
    """log_q of every possible member count of a masked subspace: table[q^k] = k."""
    table = np.zeros(MASK_VECTORS + 1, dtype=np.int64)
    k = 0
    while q ** k <= MASK_VECTORS:
        table[q ** k] = k
        k += 1
    table.flags.writeable = False  # one cached table serves every caller
    return table


def _membership_masks(ctx: FieldCtx, n: int, bases: np.ndarray) -> np.ndarray | None:
    """The uint64 membership mask of each (depth, n) basis of a stack: bit
    sum v_i q^i is set iff v is a member; zero rows of a padded basis add no bit.
    None when q^n > MASK_VECTORS: the one place that picks the representation.
    As q >= 2, every n >= MASK_VECTORS.bit_length() is past it, and q^n is not formed."""
    if n >= MASK_VECTORS.bit_length() or ctx.q ** n > MASK_VECTORS:
        return None
    places = ctx.q ** np.arange(n, dtype=np.int64)
    bits = np.left_shift(np.uint64(1), (_odometer(ctx, bases) @ places).astype(np.uint64))
    return np.bitwise_or.reduce(bits, axis=-1)


#: The subspace tables kept, by (field, n), least recently used first.
_TABLES: OrderedDict = OrderedDict()


def _subspace_table(ctx: FieldCtx, n: int, depth: int) -> tuple:
    """(bases, dims, masks): every subspace of GF(q)^n of dim <= depth, or of a
    deeper table, by ascending dim and then in the order of _subspace_blocks.

    bases is (count, table depth, n), each canonical basis zero-padded; masks
    holds their membership masks when q^n <= MASK_VECTORS, else it is None.
    The arrays are read-only, since every caller shares them.  One table is
    kept per (field, n), at the deepest depth asked for so far, and a rank-m
    layer reads its first rows; the dims <= k come first, so a shallower
    request is a prefix.  The kept tables hold at most DEFAULT_STATE_LIMIT
    basis entries together: the least recently used goes first, and a table
    past the limit is built for its caller and not kept.
    """
    key = (ctx, n)
    table = _TABLES.get(key)
    if table is not None and table[0].shape[1] >= depth:
        _TABLES.move_to_end(key)
        return table
    blocks = [block for k in range(depth + 1) for block in _subspace_blocks(ctx, n, k)]  # refused before any array
    dims = np.repeat([block.shape[1] for block in blocks], [len(block) for block in blocks])  # blocks: (count, k, n)
    bases = np.zeros((len(dims), depth, n), dtype=np.int64)
    row = 0
    for block in blocks:
        bases[row : row + len(block), : block.shape[1]] = block
        row += len(block)
    table = (bases, dims, _membership_masks(ctx, n, bases))
    for a in table:
        if a is not None:
            a.flags.writeable = False
    if bases.size <= DEFAULT_STATE_LIMIT:
        _TABLES.pop(key, None)
        _TABLES[key] = table
        while sum(kept[0].size for kept in _TABLES.values()) > DEFAULT_STATE_LIMIT:
            _TABLES.popitem(last=False)
    return table


class _WordStack:
    """Multispaces of one GF(q)^n as a zero-padded (T, depth, n) stack of
    bases, depth at least every dim, with (T,) arrays of their dims and
    heights; or one word, as its basis, dim and height, shared by every row.

    paired measures a batch of distances d = 2 dim(W + X) - dim W - dim X +
    |ht W - ht X|.  When q^n <= MASK_VECTORS each word's subspace is also a
    uint64 membership mask, bit sum v_i q^i set iff v is a member, read from
    the subspace table or built with the stack; then |W ^ X| = popcount(w & x)
    is a power of q and dim(W + X) = dim W + dim X - log_q |W ^ X| needs no
    elimination.  Larger spaces take rank [W; X] = dim(W + X) from one rank_batch.
    """

    __slots__ = ("ctx", "n", "bases", "dims", "heights", "masks")

    def __init__(self, ctx: FieldCtx, n: int, bases: np.ndarray, dims, heights, masks=None):
        """masks, when given, are those of bases; otherwise they are built here."""
        self.ctx = ctx
        self.n = n
        self.bases = bases
        self.dims = dims
        self.heights = heights
        self.masks = _membership_masks(ctx, n, bases) if masks is None else masks

    @classmethod
    def of(cls, words) -> "_WordStack":
        """The stack of a nonempty sequence of words of one GF(q)^n, padded to its largest dim;
        heights of HEIGHT_LIMIT or more keep them all as exact Python ints."""
        dims = np.array([w.dim for w in words])
        bases = _pad_stack([w.underlying.basis for w in words], (dims.max(), words[0].n))
        heights = [w.height for w in words]
        heights = np.array(heights, dtype=np.int64 if max(heights) < HEIGHT_LIMIT else object)
        return cls(words[0].ctx, words[0].n, bases, dims, heights)

    @classmethod
    def empty(cls, ctx: FieldCtx, n: int, depth: int) -> "_WordStack":
        """A stack of no words, to be extended with words of dim at most depth; an n
        that numpy cannot shape is refused with FormatError (linalg._empty)."""
        none = np.zeros(0, dtype=np.int64)
        return cls(ctx, n, _empty((0, depth, n), n), none, none)

    @classmethod
    def layer(cls, ctx: FieldCtx, n: int, m: int) -> "_WordStack":
        """Every multispace of rank m >= 0, in the order of enumerate_multispaces: the
        first rows of the subspace table of GF(q)^n, cut to depth min(n, m), with
        heights m - dim.  The bases, dims and masks are read-only views of the table."""
        _check_lower_bound(n, min(m, n // 2), ctx.q, "multispaces")
        count = count_multispaces(n, m, ctx.q)
        _check_budget(count, "multispaces")
        depth = min(n, m)
        bases, dims, masks = _subspace_table(ctx, n, depth)
        return cls(ctx, n, bases[:count, :depth], dims[:count], m - dims[:count],
                   None if masks is None else masks[:count])

    def __getitem__(self, index) -> "_WordStack":
        """The words at index, with the masks of this stack: an int gives one word shared by every row."""
        return _WordStack(self.ctx, self.n, self.bases[index], self.dims[index], self.heights[index],
                          None if self.masks is None else self.masks[index])

    def words(self) -> list[Multispace]:
        """Every row as a Multispace; equal rows, keyed by their bytes, share one."""
        keys = [row.tobytes() for row in np.concatenate([self.bases.reshape(len(self.dims), -1),
                                                         self.heights[:, None]], axis=1)]
        words: dict[bytes, Multispace] = {}
        for key, basis, dim, height in zip(keys, self.bases, self.dims.tolist(), self.heights.tolist()):
            if key not in words:
                words[key] = Multispace._of(Subspace(self.ctx, self.n, basis[:dim].copy()), height)
        return [words[key] for key in keys]

    def extend(self, rows: "_WordStack"):
        """Add the rows of a stack of the same GF(q)^n, no deeper than this one, at the end."""
        if self.masks is not None:
            self.masks = np.concatenate([self.masks, rows.masks])
        bases = np.zeros((len(rows.dims), *self.bases.shape[1:]), dtype=np.int64)
        bases[:, : rows.bases.shape[1]] = rows.bases
        self.bases = np.concatenate([self.bases, bases])
        self.dims = np.concatenate([self.dims, rows.dims])
        self.heights = np.concatenate([self.heights, rows.heights])

    def paired(self, other: "_WordStack") -> np.ndarray:
        """distance(W, X) for row t of this stack, W, and row t of other, X.

        The rows broadcast as numpy arrays do: a one-word view (an int index)
        pairs with every row of a stack, and a (T, 1) view with a (U,) stack
        gives (T, U) arrays.  A stack of words with a height of HEIGHT_LIMIT or
        more is refused.
        """
        if self.heights.dtype == object or other.heights.dtype == object:
            raise LimitExceeded("heights of 2^62 or more exceed the distance kernel's int64 limit")
        if self.masks is not None:
            meets = _log_table(self.ctx.q)[np.bitwise_count(self.masks & other.masks)]
            sums = self.dims + other.dims - meets
        else:
            lead = np.broadcast_shapes(np.shape(self.dims), np.shape(other.dims))
            depth = self.bases.shape[-2]
            pairs = np.empty((*lead, depth + other.bases.shape[-2], self.n), dtype=np.int64)
            pairs[..., :depth, :] = self.bases  # broadcast over the other side, uncopied until here
            pairs[..., depth:, :] = other.bases
            sums = rank_batch(self.ctx, pairs.reshape(math.prod(lead), *pairs.shape[-2:])).reshape(lead)
        return 2 * sums - self.dims - other.dims + np.abs(self.heights - other.heights)

    def cross_blocks(self, other: "_WordStack"):
        """Yield (rows, columns, distances): the (T, U) distance matrix of every
        row W of this stack against every row X of other, one slice of rows
        and columns at a time.

        Each block is one paired call within DEFAULT_STATE_LIMIT masks, or
        matrix entries on the elimination path: one broadcast popcount or one
        rank_batch.  Columns split only when one row passes the limit, and a
        block holds one pair when a single pair does.
        """
        per_pair = 1 if self.masks is not None else (self.bases.shape[-2] + other.bases.shape[-2]) * self.n
        cols = max(1, min(len(other.dims), DEFAULT_STATE_LIMIT // max(1, per_pair)))
        rows = max(1, DEFAULT_STATE_LIMIT // (cols * max(1, per_pair)))
        for r in range(0, len(self.dims), rows):
            for c in range(0, len(other.dims), cols):
                row, col = slice(r, r + rows), slice(c, c + cols)
                yield row, col, self[row, None].paired(other[col])

    def cross(self, other: "_WordStack") -> np.ndarray:
        """The (T, U) matrix of distance(W, X) for every row W of this stack and X of other."""
        out = np.empty((len(self.dims), len(other.dims)), dtype=np.int64)
        for rows, cols, d in self.cross_blocks(other):
            out[rows, cols] = d
        return out

    def tail_blocks(self):
        """Yield (rows, d): the distances of a slice of _PAIRWISE_ROWS rows against
        every row from the slice's first on, d[i, i] a row against itself.  Each
        block is crossed with its own tail, so each unordered pair is measured
        about once, and no (T, T) array is formed.
        """
        for start in range(0, len(self.dims), _PAIRWISE_ROWS):
            rows = slice(start, start + _PAIRWISE_ROWS)
            yield rows, self[rows].cross(self[start:])

    def pairwise(self) -> np.ndarray:
        """The symmetric (T, T) matrix of distances between the rows, filled from tail_blocks."""
        t = len(self.dims)
        d = np.zeros((t, t), dtype=np.int64)
        for rows, block in self.tail_blocks():
            d[rows, rows.start :] = block
        d = np.triu(d, 1)
        return d + d.T


#: Rows per cross pairing of _WordStack.tail_blocks.  Each block also pairs its
#: own lower triangle, about 8 wasted pairs per row at 16 rows, and saves the
#: fixed cost of 15 paired calls in 16.
_PAIRWISE_ROWS = 16


def pairwise_distances(xs) -> np.ndarray:
    """Symmetric integer matrix of lattice distances d[i, j] = distance(xs[i], xs[j])."""
    xs = list(xs)
    for x in xs:
        xs[0].underlying._check_compatible(x.underlying)
    if not xs:
        return np.zeros((0, 0), dtype=np.int64)
    return _WordStack.of(xs).pairwise()


def distance(a: Multispace, b: Multispace) -> int:
    """Lattice metric rank(join) - rank(meet), which splits as d_S(U, V) + |t - s|."""
    return subspace_distance(a.underlying, b.underlying) + abs(a.height - b.height)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def count_multispaces(n: int, m: int, q: int) -> BigCount:
    """Number of rank-m multispaces over GF(q)^n: sum of Gaussian binomials."""
    check_settings(("n", n, 0, "n and m must be nonnegative"), ("m", m, 0, "n and m must be nonnegative"),
                   ("q", q, 2, "q must be at least 2"))
    return sum(gaussian_binomial(n, k, q) for k in range(0, min(m, n) + 1))


def codespace_growth(ctx: FieldCtx, n: int, m: int) -> BigCount:
    """Size of the rank-<=m code space, in closed form: each k-dimensional
    subspace with k <= m carries the m - k + 1 heights 0..m-k.  It is 0 for a
    negative m."""
    check_settings(("n", n, None, ""), ("m", m, None, ""))
    if m < 0:
        return 0
    if n < 0:
        raise ConfigInvalid("n and m must be nonnegative")
    return sum(gaussian_binomial(n, k, ctx.q) * (m - k + 1) for k in range(min(n, m) + 1))


def count_covered(w: Multispace) -> BigCount:
    """How many multispaces w covers in the lattice."""
    if w.rank == 0:
        raise RankZero("the bottom element covers nothing")
    return gaussian_binomial(w.dim, 1, w.ctx.q) + (w.height > 0)  # its hyperplanes, and the height drop


def count_covering(w: Multispace) -> BigCount:
    """How many multispaces cover w in the lattice."""
    return 1 + gaussian_binomial(w.n - w.dim, 1, w.ctx.q)  # the height bump and the lines of the quotient


# ---------------------------------------------------------------------------
# Enumeration and cover structure
# ---------------------------------------------------------------------------

def enumerate_multispaces(ctx: FieldCtx, n: int, m: int):
    """Every multispace of rank exactly m, ascending dim then subspace order."""
    check_settings(("n", n, None, ""), ("m", m, None, ""))
    n, m = int(n), int(m)  # so each height m - k is a Python int
    if min(m, n) < 0:
        return  # no multispace has a negative rank or ambient dimension
    _check_lower_bound(n, min(m, n // 2), ctx.q, "multispaces")
    _check_budget(count_multispaces(n, m, ctx.q), "multispaces")
    for k in range(0, min(m, n) + 1):
        for s in enumerate_subspaces(ctx, n, k):
            yield Multispace._of(s, m - k)


def _check_total(ctx: FieldCtx, n: int, m_max: int) -> None:
    """Refuse, before the first item, a walk over every multispace of rank <= m_max."""
    check_settings(("n", n, None, ""), ("m_max", m_max, None, ""))
    if min(n, m_max) >= 0:
        _check_lower_bound(n, min(m_max, n // 2), ctx.q, "multispaces")
        _check_budget(codespace_growth(ctx, n, m_max), "multispaces")


def enumerate_multispaces_up_to(ctx: FieldCtx, n: int, m_max: int):
    """Every multispace of rank 0..m_max, ascending rank."""
    _check_total(ctx, n, m_max)
    for m in range(m_max + 1):
        yield from enumerate_multispaces(ctx, n, m)


def covering_neighbors(w: Multispace) -> list[Multispace]:
    """All multispaces covering w, deterministic order (superspaces, then height bump).

    A superspace is U + <v>, v a line of the quotient by U placed in U's nonpivot columns,
    and its RREF is written down: v is zero on U's pivot columns and leads with 1 at a column
    c, so each row r of U becomes r - r[c] v, which keeps r's leading 1 and its zeros on U's
    pivot columns, and v takes its place among them in pivot order.
    """
    ctx, n, u = w.ctx, w.n, w.underlying
    nonpivot = [c for c in range(n) if c not in u.pivots]
    out = []
    for block in _subspace_blocks(ctx, len(nonpivot), 1):  # the lines that lead at one column c
        v = np.zeros((len(block), 1, n), dtype=np.int64)
        v[:, 0, nonpivot] = block[:, 0]
        c = nonpivot[int((block[0, 0] != 0).argmax())]
        rows = ctx.sub_arr(u.basis, ctx.mul_arr(u.basis[:, c, None], v))
        k = sum(p < c for p in u.pivots)
        out += [Multispace._of(Subspace(ctx, n, b), w.height) for b in np.concatenate((rows[:, :k], v, rows[:, k:]), 1)]
    out.append(Multispace._of(u, w.height + 1))
    return out


def covered_neighbors(w: Multispace) -> list[Multispace]:
    """All multispaces covered by w: each hyperplane of U = w.underlying as H·B, then the height drop.

    H runs over the hyperplanes of GF(q)^dim U in RREF, a block at a time, and B is U's RREF basis. B's pivot
    columns p hold the identity, so row i of H·B is zero left of p[c_i] and 1 at p[c_i], c_i row i's pivot in H,
    and at every p[c_l] row i reads H[i, c_l] = δ_il: H·B is in RREF, and no cover is eliminated."""
    if w.rank == 0:
        return []
    ctx, u = w.ctx, w.underlying
    out = [Multispace._of(Subspace(ctx, w.n, b), w.height)
           for block in _subspace_blocks(ctx, u.dim, u.dim - 1) for b in matmul_arrays(ctx, block, u.basis)]
    if w.height > 0:
        out.append(Multispace._of(u, w.height - 1))
    return out


def _cover_pairs(q: int, n: int, m_max: int) -> BigCount:
    """Cover pairs up to rank m_max: each (U, t) below it, with dim U = k and m_max - k
    heights, is covered by (U, t + 1) and the [n-k, 1]_q spaces U + <v>."""
    return sum(gaussian_binomial(n, k, q) * (m_max - k) * (1 + gaussian_binomial(n - k, 1, q))
               for k in range(min(n, m_max - 1) + 1))


def hasse_edges(ctx: FieldCtx, n: int, m_max: int):
    """All cover pairs (lower, upper) with rank(upper) <= m_max."""
    _check_total(ctx, n, m_max)
    _check_budget(_cover_pairs(ctx.q, n, m_max), "cover pairs")
    for m in range(m_max):
        for w in enumerate_multispaces(ctx, n, m):
            for up in covering_neighbors(w):
                yield (w, up)


@dataclass
class HasseDiagram:
    dot: str
    nodes: int
    edges: int
    rank_sizes: list[int]


def hasse_dot(ctx: FieldCtx, n: int, m_max: int) -> HasseDiagram:
    """DOT digraph of the lattice up to rank m_max, rank-layered.

    Node labels are "rank:dim:hash"; height-0 nodes (plain subspaces) are
    drawn filled light blue.
    """
    _check_total(ctx, n, m_max)
    _check_budget(_cover_pairs(ctx.q, n, m_max), "cover pairs")
    ranks: list[list[Multispace]] = []
    ids: dict[Multispace, str] = {}
    for m in range(m_max + 1):
        layer = list(enumerate_multispaces(ctx, n, m))
        ranks.append(layer)
        for i, w in enumerate(layer):
            ids[w] = f"r{m}_{i}"
    lines = [
        "digraph multispaces {",
        "  rankdir=BT;",
        '  node [shape=ellipse, fontsize=10];',
    ]
    for m, layer in enumerate(ranks):
        lines.append(f"  subgraph cluster_rank{m} {{")
        lines.append(f'    label="rank {m}"; rank=same; style=invis;')
        for w in layer:
            style = ', style=filled, fillcolor=lightblue' if w.height == 0 else ""
            lines.append(
                f'    {ids[w]} [label="{w.rank}:{w.dim}:{w.label_hash()}"{style}];'
            )
        lines.append("  }")
    head = len(lines)
    # the cover pairs of hasse_edges, in its order, from the layers listed above
    lines += [f"  {ids[w]} -> {ids[up]};" for layer in ranks[:-1] for w in layer for up in covering_neighbors(w)]
    edges = len(lines) - head
    lines.append("}")
    return HasseDiagram(
        dot="\n".join(lines) + "\n",
        nodes=sum(len(layer) for layer in ranks),
        edges=edges,
        rank_sizes=[len(layer) for layer in ranks],
    )


# ---------------------------------------------------------------------------
# The distance-2 graph on a rank level
# ---------------------------------------------------------------------------

@dataclass
class GammaGraph:
    """Graph on all rank-m multispaces, edges between pairs at metric distance 2."""

    ctx: FieldCtx
    n: int
    m: int
    vertices: tuple
    adjacency: np.ndarray  # boolean, symmetric

    def degree(self, i: int) -> int:
        return int(self.adjacency[i].sum())

    def graph_distances(self) -> np.ndarray:
        """All-pairs BFS distances; -1 marks unreachable pairs.

        Every source runs at once: row s of the frontier is source s's, and one
        matrix product per level takes every frontier one step.  The product is
        float64, which BLAS computes (numpy's bool and int64 products do not),
        and exact: each entry counts at most V vertices.
        """
        adjacency = self.adjacency.astype(np.float64)
        seen = np.eye(len(self.vertices), dtype=bool)
        dist = np.where(seen, 0, -1)
        frontier = seen.astype(np.float64)
        d = 0
        while frontier.any():
            reached = (frontier @ adjacency > 0) & ~seen
            d += 1
            dist[reached] = d
            seen |= reached
            frontier = reached.astype(np.float64)
        return dist


def gamma_graph(ctx: FieldCtx, n: int, m: int) -> GammaGraph:
    """Γ on the rank-m layer, its adjacency from the layer's stack; empty for a negative n or m."""
    check_settings(("n", n, None, ""), ("m", m, None, ""))
    if min(n, m) < 0:
        return GammaGraph(ctx, n, m, (), np.zeros((0, 0), dtype=bool))
    layer = _WordStack.layer(ctx, n, m)
    return GammaGraph(ctx, n, m, tuple(layer.words()), layer.pairwise() == 2)


@dataclass
class RegularityReport:
    regular: bool
    witness: dict | None

    def __bool__(self):
        return self.regular


def is_distance_regular(g: GammaGraph) -> RegularityReport:
    """Check constancy of the intersection numbers over all vertex pairs.

    Returns the first violation found: two pairs at the same graph
    distance with different |N(u) & sphere_k(v)| counts, or a witness of
    disconnection.
    """
    v = len(g.vertices)
    if v == 0:
        return RegularityReport(True, None)
    dist = g.graph_distances()
    bad = np.argwhere(dist < 0)
    if len(bad):
        i, j = map(int, bad[0])
        return RegularityReport(
            False,
            {"reason": "disconnected", "pair": (g.vertices[i], g.vertices[j])},
        )
    adjacency = g.adjacency.astype(np.float64)  # exact, as in graph_distances
    spheres = {}  # delta -> counts[u, v] = |N(u) ∩ sphere_delta(v)|, which serves c, a and b
    diam = int(dist.max())
    for k in range(diam + 1):
        mask = dist == k
        if not mask.any():
            continue
        for name, delta in (("c", k - 1), ("a", k), ("b", k + 1)):
            if delta not in spheres:
                spheres[delta] = adjacency @ (dist == delta).astype(np.float64)
            vals = spheres[delta][mask]
            if vals.min() != vals.max():
                pairs = np.argwhere(mask)
                lo = pairs[int(np.argmin(vals))]
                hi = pairs[int(np.argmax(vals))]
                return RegularityReport(
                    False,
                    {
                        "reason": "intersection number not constant",
                        "distance": k,
                        "parameter": name,
                        "pair_low": (g.vertices[lo[0]], g.vertices[lo[1]]),
                        "value_low": int(vals.min()),
                        "pair_high": (g.vertices[hi[0]], g.vertices[hi[1]]),
                        "value_high": int(vals.max()),
                    },
                )
    return RegularityReport(True, None)
