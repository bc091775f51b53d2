"""Multisets of vectors closed under linear combinations ("multispaces").

A multispace over GF(q)^n is a multiset in which the support is a
subspace and every member has the same multiplicity q^t.  It is stored
losslessly as (underlying subspace, height t); rank = dim + height and
the multiset has q^rank members counted with multiplicity.

This module provides the multispan operator, the graded modular lattice
of all multispaces with meet/join/rank/distance, counting and cover
formulas, deterministic enumeration, Hasse-diagram export, and the
distance-2 graph with a distance-regularity checker.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, FormatError, RankZero
from .fields import FieldCtx, parse_field_spec
from .linalg import (
    FqVector,
    Subspace,
    _check_budget,
    _pad_stack,
    _rows_array,
    enumerate_subspaces,
    gaussian_binomial,
    matmul_arrays,
    rref_batch,
    span,
    subspace_distance,
)

#: Counts are plain Python ints, i.e. exact arbitrary-precision integers.
BigCount = int


class VectorMultiset:
    """An ordered multiset of vectors in GF(q)^n (rows of a matrix).

    Order is irrelevant to the multispan but kept so channel transforms
    can act on positions.
    """

    __slots__ = ("ctx", "n", "matrix")

    def __init__(self, ctx: FieldCtx, n: int, rows):
        self.ctx = ctx
        self.n = n
        self.matrix = _rows_array(ctx, n, rows)
        self.matrix.flags.writeable = False

    @property
    def vectors(self):
        return tuple(FqVector(self.ctx, row) for row in self.matrix)

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
            "vectors": [[int(v) for v in row] for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VectorMultiset":
        try:
            spec, n, rows = d["q-spec"], int(d["n"]), d["vectors"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad vector multiset object: {exc}") from exc
        if n < 1:
            raise FormatError(f"bad vector multiset object: ambient dimension {n} is not positive")
        return cls(parse_field_spec(spec), n, rows)


class Multispace:
    """A multispace, canonically (underlying subspace, height)."""

    __slots__ = ("underlying", "height")

    def __init__(self, underlying: Subspace, height: int):
        if height < 0:
            raise ValueError("height must be nonnegative")
        self.underlying = underlying
        self.height = int(height)

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

    def _check_compatible(self, other: "Multispace"):
        self.ctx.check_same(other.ctx)
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")

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
        return VectorMultiset(self.ctx, self.n, rows)

    def to_dict(self) -> dict:
        d = self.underlying.to_dict()
        d["height"] = self.height
        return d

    @classmethod
    def from_dict(cls, d: dict, strict: bool = True) -> "Multispace":
        try:
            height = int(d["height"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad multispace object: {exc}") from exc
        if height < 0:
            raise FormatError(f"bad multispace object: height {height} is negative")
        return cls(Subspace.from_dict(d, strict=strict), height)


# ---------------------------------------------------------------------------
# Multispan
# ---------------------------------------------------------------------------

def mspan(b: VectorMultiset) -> Multispace:
    """Multispan: underlying space is the span, height is |b| - dim."""
    underlying = span(b)
    return Multispace(underlying, len(b) - underlying.dim)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def multiset_leq(a: Multispace, b: Multispace) -> bool:
    """Multiset containment: support contained and multiplicity <= multiplicity."""
    a._check_compatible(b)
    return a.height <= b.height and a.underlying <= b.underlying


def meet(a: Multispace, b: Multispace) -> Multispace:
    """Greatest lower bound = multiset intersection."""
    a._check_compatible(b)
    return Multispace(a.underlying.intersect(b.underlying), min(a.height, b.height))


def join(a: Multispace, b: Multispace) -> Multispace:
    """Least upper bound: sum of underlyings, max of heights."""
    a._check_compatible(b)
    return Multispace(a.underlying + b.underlying, max(a.height, b.height))


class _WordStack:
    """Multispaces of one GF(q)^n as a zero-padded (T, depth, n) stack of
    bases, depth at least every dim, with (T,) arrays of their dims and
    heights; or one word, as its basis, dim and height, shared by every row.

    The one place that measures distance on a batch: rank [W; X] = dim(W + X)
    in one batched elimination, and d = 2 dim(W + X) - dim W - dim X + |ht W - ht X|.
    """

    __slots__ = ("ctx", "n", "bases", "dims", "heights")

    def __init__(self, ctx: FieldCtx, n: int, bases: np.ndarray, dims, heights):
        self.ctx = ctx
        self.n = n
        self.bases = bases
        self.dims = dims
        self.heights = heights

    @classmethod
    def of(cls, words) -> "_WordStack":
        """The stack of a nonempty sequence of words of one GF(q)^n, padded to its largest dim."""
        dims = np.array([w.dim for w in words])
        bases = _pad_stack([w.underlying.basis for w in words], (dims.max(), words[0].n))
        return cls(words[0].ctx, words[0].n, bases, dims, np.array([w.height for w in words]))

    def _check(self, w: Multispace):
        self.ctx.check_same(w.ctx)
        if w.n != self.n:
            raise DimensionMismatch("ambient dimensions differ")

    def append(self, w: Multispace):
        self._check(w)
        self.bases = np.concatenate([self.bases, _pad_stack([w.underlying.basis], self.bases.shape[1:])])
        self.dims = np.append(self.dims, w.dim)
        self.heights = np.append(self.heights, w.height)

    def paired(self, other: "_WordStack") -> tuple[np.ndarray, np.ndarray]:
        """(distance(W, X), dim(W + X)) for row t of this stack, W, and row t of other, X."""
        depth = self.bases.shape[-2]
        pairs = np.empty((len(other.bases), depth + other.bases.shape[1], self.n), dtype=np.int64)
        pairs[:, :depth] = self.bases  # a shared word broadcasts to every row, uncopied until here
        pairs[:, depth:] = other.bases
        joins = rref_batch(self.ctx, pairs)[1]
        return 2 * joins - self.dims - other.dims + np.abs(self.heights - other.heights), joins

    def distances_to(self, w: Multispace, start: int = 0) -> np.ndarray:
        """distance(w, x) for every stacked x from index start on."""
        self._check(w)
        rest = _WordStack(self.ctx, self.n, self.bases[start:], self.dims[start:], self.heights[start:])
        return _WordStack(self.ctx, self.n, w.underlying.basis, w.dim, w.height).paired(rest)[0]


def pairwise_distances(xs) -> np.ndarray:
    """Symmetric integer matrix of lattice distances d[i, j] = distance(xs[i], xs[j]).

    Each unordered pair is evaluated once and the diagonal is 0; each row is
    one batched elimination.
    """
    xs = list(xs)
    for x in xs:
        xs[0]._check_compatible(x)
    d = np.zeros((len(xs), len(xs)), dtype=np.int64)
    if xs:
        stack = _WordStack.of(xs)
        for i in range(len(xs) - 1):
            d[i, i + 1 :] = stack.distances_to(xs[i], i + 1)
    return d + d.T


def distance(a: Multispace, b: Multispace) -> int:
    """Lattice metric rank(join) - rank(meet), which splits as d_S(U, V) + |t - s|."""
    return subspace_distance(a.underlying, b.underlying) + abs(a.height - b.height)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def count_multispaces(n: int, m: int, q: int) -> BigCount:
    """Number of rank-m multispaces over GF(q)^n: sum of Gaussian binomials."""
    if n < 0 or m < 0:
        raise ConfigInvalid("n and m must be nonnegative")
    return sum(gaussian_binomial(n, k, q) for k in range(0, min(m, n) + 1))


def count_covered(w: Multispace) -> BigCount:
    """How many multispaces w covers in the lattice."""
    if w.rank == 0:
        raise RankZero("the bottom element covers nothing")
    q = w.ctx.q
    base = sum(q ** i for i in range(w.dim))
    return base if w.height == 0 else 1 + base


def count_covering(w: Multispace) -> BigCount:
    """How many multispaces cover w in the lattice."""
    q = w.ctx.q
    return 1 + sum(q ** i for i in range(w.n - w.dim))


# ---------------------------------------------------------------------------
# Enumeration and cover structure
# ---------------------------------------------------------------------------

def enumerate_multispaces(ctx: FieldCtx, n: int, m: int):
    """Every multispace of rank exactly m, ascending dim then subspace order."""
    if min(m, n) < 0:
        return  # no multispace has a negative rank or ambient dimension
    _check_budget(count_multispaces(n, m, ctx.q), "multispaces")
    for k in range(0, min(m, n) + 1):
        for s in enumerate_subspaces(ctx, n, k):
            yield Multispace(s, m - k)


def enumerate_multispaces_up_to(ctx: FieldCtx, n: int, m_max: int):
    """Every multispace of rank 0..m_max, ascending rank."""
    for m in range(m_max + 1):
        yield from enumerate_multispaces(ctx, n, m)


def covering_neighbors(w: Multispace) -> list[Multispace]:
    """All multispaces covering w, deterministic order (superspaces, then height bump)."""
    out = []
    u = w.underlying
    nonpivot = [c for c in range(w.n) if c not in u.pivots]
    for line in enumerate_subspaces(w.ctx, len(nonpivot), 1):
        v = np.zeros((1, w.n), dtype=np.int64)
        v[0, nonpivot] = line.basis[0]  # a line of the quotient by u; u + <v> covers u
        sup = Subspace.from_array(w.ctx, w.n, np.vstack([u.basis, v]))
        out.append(Multispace(sup, w.height))
    out.append(Multispace(u, w.height + 1))
    return out


def covered_neighbors(w: Multispace) -> list[Multispace]:
    """All multispaces covered by w (hyperplanes of the underlying, then height drop)."""
    if w.rank == 0:
        return []
    out = []
    u = w.underlying
    if u.dim > 0:
        # hyperplanes of u = images of hyperplanes of the coordinate space GF(q)^dim
        for combo in enumerate_subspaces(w.ctx, u.dim, u.dim - 1):
            rows = matmul_arrays(w.ctx, combo.basis, u.basis)
            out.append(Multispace(Subspace.from_array(w.ctx, w.n, rows), w.height))
    if w.height > 0:
        out.append(Multispace(u, w.height - 1))
    return out


def hasse_edges(ctx: FieldCtx, n: int, m_max: int):
    """All cover pairs (lower, upper) with rank(upper) <= m_max."""
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
    n_edges = 0
    for lower, upper in hasse_edges(ctx, n, m_max):
        lines.append(f"  {ids[lower]} -> {ids[upper]};")
        n_edges += 1
    lines.append("}")
    return HasseDiagram(
        dot="\n".join(lines) + "\n",
        nodes=sum(len(layer) for layer in ranks),
        edges=n_edges,
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
        """All-pairs BFS distances; -1 marks unreachable pairs."""
        v = len(self.vertices)
        dist = np.full((v, v), -1, dtype=np.int64)
        for s in range(v):
            dist[s, s] = 0
            frontier = np.zeros(v, dtype=bool)
            frontier[s] = True
            seen = frontier.copy()
            d = 0
            while frontier.any():
                nxt = (self.adjacency[frontier].any(axis=0)) & ~seen
                d += 1
                dist[s, nxt] = d
                seen |= nxt
                frontier = nxt
        return dist


def gamma_graph(ctx: FieldCtx, n: int, m: int) -> GammaGraph:
    verts = tuple(enumerate_multispaces(ctx, n, m))
    return GammaGraph(ctx, n, m, verts, pairwise_distances(verts) == 2)


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
    adj_int = g.adjacency.astype(np.int64)
    diam = int(dist.max())
    for k in range(diam + 1):
        mask = dist == k
        if not mask.any():
            continue
        for name, delta in (("c", k - 1), ("a", k), ("b", k + 1)):
            sphere = (dist == delta).astype(np.int64)
            counts = adj_int @ sphere  # counts[u, v] = |N(u) ∩ sphere_delta(v)|
            vals = counts[mask]
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
