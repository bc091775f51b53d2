"""Multispace codes: sets of multispaces of rank <= m_max with a
prescribed minimum lattice distance, plus search, bounds and decoding.
"""

import math

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyCode,
    FormatError,
    LimitExceeded,
    TooFewCodewords,
)
from .fields import FieldCtx, parse_field_spec
from .lattice import (
    BigCount,
    Multispace,
    _WordStack,
    count_multispaces,
    covered_neighbors,
    covering_neighbors,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    pairwise_distances,
)
from .linalg import _check_budget, gaussian_binomial

#: Largest ground set the branch-and-bound clique search takes on.
CLIQUE_LIMIT = 64


class MultispaceCode:
    """An ordered set of distinct multispaces of rank <= m_max."""

    __slots__ = ("ctx", "n", "m_max", "codewords", "_min_dist", "_stack")

    def __init__(self, ctx: FieldCtx, n: int, m_max: int, codewords: tuple):
        seen = set()
        for w in codewords:
            w.ctx.check_same(ctx)
            if w.n != n:
                raise ConfigInvalid("codeword ambient dimension differs")
            if w.rank > m_max:
                raise ConfigInvalid(f"codeword rank {w.rank} exceeds m_max {m_max}")
            if w in seen:
                raise ConfigInvalid("duplicate codeword")
            seen.add(w)
        self.ctx = ctx
        self.n = n
        self.m_max = m_max
        self.codewords = tuple(codewords)
        self._min_dist = None
        self._stack = None

    def __len__(self):
        return len(self.codewords)

    def __iter__(self):
        return iter(self.codewords)

    def __eq__(self, other):
        return (
            isinstance(other, MultispaceCode)
            and (self.ctx, self.n, self.m_max) == (other.ctx, other.n, other.m_max)
            and self.codewords == other.codewords
        )

    def __repr__(self):
        return f"MultispaceCode(|C|={len(self.codewords)}, n={self.n}, m_max={self.m_max})"

    @property
    def min_distance(self):
        """Cached pairwise minimum distance; +inf for codes of size <= 1."""
        if self._min_dist is None:
            if len(self.codewords) <= 1:
                self._min_dist = math.inf
            else:
                d = pairwise_distances(self.codewords)
                self._min_dist = int(d[np.triu_indices(len(d), 1)].min())
        return self._min_dist

    def _distances_to(self, w: Multispace) -> np.ndarray:
        """distance(c, w) for every codeword c, against the cached codeword stack."""
        if self._stack is None:
            self._stack = _WordStack.of(self.codewords)
        return self._stack.distances_to(w)

    def to_dict(self) -> dict:
        return {
            "q-spec": self.ctx.spec,
            "n": self.n,
            "m_max": self.m_max,
            "d_min": None if self.min_distance == math.inf else int(self.min_distance),
            "codewords": [w.to_dict() for w in self.codewords],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MultispaceCode":
        try:
            spec, n, m_max, words = d["q-spec"], int(d["n"]), int(d["m_max"]), list(d["codewords"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad code object: {exc}") from exc
        return cls(parse_field_spec(spec), n, m_max, tuple(Multispace.from_dict(w) for w in words))


def min_distance(code: MultispaceCode) -> int:
    """Exact pairwise minimum distance; needs at least two codewords."""
    if len(code) < 2:
        raise TooFewCodewords("minimum distance needs two codewords")
    return int(code.min_distance)


def greedy_code(ctx: FieldCtx, n: int, m_max: int, d_min: int, seed: int = 0) -> MultispaceCode:
    """Greedy code construction, visiting high ranks first.

    Elements are taken rank m_max down to 0, with a seeded shuffle inside
    each rank level; an element is kept iff it is at distance >= d_min
    from everything kept so far, so the result always meets the d_min
    contract.  The descending-rank order makes the code size strictly
    increasing in m_max for d_min = 2 (a whole new top layer is mutually
    compatible and cannot conflict with anything two or more ranks
    below), which a shuffle across ranks does not guarantee.
    """
    if d_min < 1:
        raise ConfigInvalid("d_min must be >= 1")
    if n < 0:
        raise ConfigInvalid(f"ambient dimension {n} is negative")
    rng = np.random.default_rng(seed)
    kept: list[Multispace] = []
    none = np.zeros(0, dtype=np.int64)  # the kept words, for one batched test per candidate:
    stack = _WordStack(ctx, n, none.reshape(0, min(n, max(m_max, 0)), n), none, none)
    for m in range(m_max, -1, -1):
        layer = list(enumerate_multispaces(ctx, n, m))
        for idx in rng.permutation(len(layer)):
            w = layer[idx]
            if (stack.distances_to(w) >= d_min).all():
                kept.append(w)
                stack.append(w)
    kept.sort(key=lambda w: w.sort_key())
    return MultispaceCode(ctx, n, m_max, tuple(kept))


def exhaustive_optimal_code(ctx: FieldCtx, n: int, m_max: int, d_min: int) -> MultispaceCode:
    """Maximum-cardinality code by branch-and-bound max clique.

    The compatibility graph joins pairs at distance >= d_min; a code is
    exactly a clique.  Certified optimal; ground set capped at CLIQUE_LIMIT,
    which is checked on the counting formula before anything is enumerated.
    """
    if d_min < 1:
        raise ConfigInvalid("d_min must be >= 1")
    v = codespace_growth(ctx, n, m_max)
    if v > CLIQUE_LIMIT:
        raise LimitExceeded(f"ground set of {v} exceeds clique-search limit {CLIQUE_LIMIT}")
    elems = list(enumerate_multispaces_up_to(ctx, n, m_max))
    dmat = pairwise_distances(elems)
    compat = [0] * v
    for i in range(v):
        mask = 0
        for j in range(v):
            if i != j and dmat[i, j] >= d_min:
                mask |= 1 << j
        compat[i] = mask
    best: list[int] = []

    def expand(current: list[int], candidates: int):
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = current[:]
            return
        if len(current) + candidates.bit_count() <= len(best):
            return  # bound: cannot beat the incumbent
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            i = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            expand(current + [i], candidates & compat[i])

    expand([], (1 << v) - 1)
    words = tuple(elems[i] for i in sorted(best))
    return MultispaceCode(ctx, n, m_max, words)


def ball(center: Multispace, radius: int, m_max: int) -> list[Multispace]:
    """All multispaces of rank <= m_max within lattice distance <= radius.

    Breadth-first search in the Hasse diagram truncated at rank m_max;
    cover steps have distance 1 and meets realize geodesics inside the
    truncation, so BFS depth equals the metric.
    """
    if center.rank > m_max or radius < 0:
        raise ConfigInvalid(f"need center rank <= m_max and radius {radius} >= 0")
    _check_budget(center.ctx.q ** center.n, "ambient vectors")
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            neighbors = covered_neighbors(w)
            if w.rank < m_max:
                neighbors += covering_neighbors(w)
            for u in neighbors:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            break
    return sorted(seen, key=lambda w: w.sort_key())


def ball_size(center: Multispace, radius: int, m_max: int) -> BigCount:
    """len(ball(center, radius, m_max)), in closed form; nothing is enumerated."""
    if center.rank > m_max or radius < 0:
        raise ConfigInvalid(f"need center rank <= m_max and radius {radius} >= 0")
    return _class_ball_size(center.ctx.q, center.n, center.dim, center.height, radius, m_max)


def _class_ball_size(q: int, n: int, k: int, t: int, radius: int, m_max: int) -> BigCount:
    """Ball size around any center (U, t) with dim U = k.

    q^((k-i)(j-i)) [k, i]_q [n-k, j-i]_q of the j-dimensional U' meet U in
    dimension i, at d_S = k + j - 2i; each takes every height t' >= 0 with
    j + t' <= m_max and |t - t'| <= radius - d_S.
    """
    total = 0
    for j in range(max(0, k - radius), min(n, m_max, k + radius) + 1):
        for i in range(max(0, (k + j - radius + 1) // 2), min(k, j) + 1):
            slack = radius - (k + j - 2 * i)
            heights = min(m_max - j, t + slack) - max(0, t - slack) + 1
            if heights > 0:
                spaces = gaussian_binomial(k, i, q) * gaussian_binomial(n - k, j - i, q)
                total += heights * q ** ((k - i) * (j - i)) * spaces
    return total


def sphere_packing_bound(ctx: FieldCtx, n: int, m_max: int, d_min: int) -> BigCount:
    """Total space size over the smallest radius-floor((d_min-1)/2) ball.

    Ball sizes vary with the center, so the minimum over all centers keeps
    the bound sound; GL_n(q) keeps distance and rank and is transitive on the
    centers of one (dim, height), so nothing is enumerated.
    """
    if d_min < 1:
        raise ConfigInvalid("d_min must be >= 1")
    if m_max < 0:
        raise ConfigInvalid(f"m_max = {m_max} must be nonnegative")
    radius = (d_min - 1) // 2
    total = codespace_growth(ctx, n, m_max)
    if radius == 0:
        return total
    classes = ((k, t) for k in range(min(n, m_max) + 1) for t in range(m_max - k + 1))
    return total // min(_class_ball_size(ctx.q, n, k, t, radius, m_max) for k, t in classes)


def decode(code: MultispaceCode, received: Multispace) -> tuple[Multispace, int]:
    """Minimum-distance decoding; ties break by codeword order."""
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    received.ctx.check_same(code.ctx)
    if received.n != code.n:
        raise ConfigInvalid("received word has a different ambient dimension")
    d = code._distances_to(received)
    best = int(np.argmin(d))  # the first minimum: ties break by codeword order
    return code.codewords[best], int(d[best])


def codespace_growth(ctx: FieldCtx, n: int, m: int) -> BigCount:
    """Size of the rank-<=m code space: sum of the per-rank counts."""
    return sum(count_multispaces(n, j, ctx.q) for j in range(m + 1))
