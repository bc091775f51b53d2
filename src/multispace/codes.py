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
from .fields import FieldCtx, ambient_dim, check_settings, parse_field_spec, reading, strict_int
from .lattice import (
    BigCount,
    Multispace,
    _WordStack,
    _check_total,
    codespace_growth,
    covered_neighbors,
    covering_neighbors,
)
from .linalg import _check_budget, _shown, gaussian_binomial

#: Largest ground set the branch-and-bound clique search takes on.
CLIQUE_LIMIT = 64


class MultispaceCode:
    """An ordered set of distinct multispaces of rank <= m_max.

    __init__ checks n, m_max and every codeword; _of trusts a code the
    library built, whose codewords are distinct words of ctx and n.
    """

    __slots__ = ("ctx", "n", "m_max", "codewords", "_min_dist", "_stack")

    def __init__(self, ctx: FieldCtx, n: int, m_max: int, codewords: tuple):
        check_settings(("n", n, 0, f"ambient dimension {n} is negative"),
                       ("m_max", m_max, 0, f"m_max = {m_max} must be nonnegative"))
        codewords = tuple(codewords)
        for w in codewords:
            w.ctx.check_same(ctx)
            if w.n != n:
                raise ConfigInvalid("codeword ambient dimension differs")
            if w.rank > m_max:
                raise ConfigInvalid(f"codeword rank {w.rank} exceeds m_max {m_max}")
        if len(set(codewords)) < len(codewords):
            raise ConfigInvalid("duplicate codeword")
        self._fill(ctx, n, m_max, codewords)

    @classmethod
    def _of(cls, ctx: FieldCtx, n: int, m_max: int, codewords: tuple,
            stack: _WordStack | None = None, min_dist=None) -> "MultispaceCode":
        """A code the library built; a search hands over what it already measured:
        the stack of the codewords, in their order, and their minimum distance."""
        code = cls.__new__(cls)
        code._fill(ctx, n, m_max, codewords, stack, min_dist)
        return code

    def _fill(self, ctx, n, m_max, codewords, stack=None, min_dist=None):
        self.ctx, self.n, self.m_max, self.codewords = ctx, n, m_max, codewords
        self._stack, self._min_dist = stack, min_dist

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
            blocks = () if len(self.codewords) <= 1 else (d for _, d in self._words().tail_blocks())
            self._min_dist = _closest(blocks)
        return self._min_dist

    def _words(self) -> _WordStack:
        """The codewords as one stack, built once."""
        if self._stack is None:
            self._stack = _WordStack.of(self.codewords)
        return self._stack

    def _nearest(self, received: _WordStack) -> tuple[np.ndarray, np.ndarray]:
        """Index and distance of the first nearest codeword to each row of received,
        from one (T, |C|) cross pairing against the cached codeword stack."""
        d = received.cross(self._words())
        best = d.argmin(axis=1)  # the first minimum: ties break by codeword order
        return best, d[np.arange(len(d)), best]

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
        with reading("code"):
            spec, words = d["q-spec"], list(d["codewords"])
            n, m_max = ambient_dim(d["n"]), strict_int(d["m_max"], "m_max")
            if m_max < 0:
                raise FormatError(f"m_max {m_max} is negative")
        return cls(parse_field_spec(spec), n, m_max, tuple(Multispace.from_dict(w) for w in words))


def _closest(blocks):
    """The smallest entry off the diagonal of blocks of a square distance matrix,
    each its rows from some i on against its columns from i on (as
    _WordStack.tail_blocks yields them), which it overwrites; +inf when there
    is none."""
    top = least = np.iinfo(np.int64).max
    for d in blocks:
        np.fill_diagonal(d, top)
        least = min(least, int(d.min(initial=top)))
    return math.inf if least == top else least


def min_distance(code: MultispaceCode) -> int:
    """Exact pairwise minimum distance; needs at least two codewords."""
    if len(code) < 2:
        raise TooFewCodewords("minimum distance needs two codewords")
    return int(code.min_distance)


def _check_search(n, m_max, d_min, seed=0) -> None:
    """The one check of code-search settings, made before any layer is built."""
    check_settings(("n", n, 0, f"ambient dimension {n} is negative"),
                   ("m_max", m_max, 0, f"m_max = {m_max} must be nonnegative"),
                   ("d_min", d_min, 1, "d_min must be >= 1"), ("seed", seed, 0, f"seed {seed} is negative"))


def greedy_code(ctx: FieldCtx, n: int, m_max: int, d_min: int, seed: int = 0) -> MultispaceCode:
    """Greedy code construction, visiting high ranks first.

    Elements are taken rank m_max down to 0, with a seeded shuffle inside
    each rank level; an element is kept iff it is at distance >= d_min
    from everything kept so far, so the result always meets the d_min
    contract.  The descending-rank order makes the code size strictly
    increasing in m_max for d_min = 2 (a whole new top layer is mutually
    compatible and cannot conflict with anything two or more ranks
    below), which a shuffle across ranks does not guarantee.  A search over
    more than DEFAULT_STATE_LIMIT multispaces in total is refused first.
    """
    _check_search(n, m_max, d_min, seed)
    _check_total(ctx, n, m_max)
    rng = np.random.default_rng(seed)
    kept = _WordStack.empty(ctx, n, min(n, m_max))
    for m in range(m_max, -1, -1):
        words = _WordStack.layer(ctx, n, m)
        alive = np.ones(len(words.dims), dtype=bool)
        for _, cols, d in kept.cross_blocks(words):  # strike the words too near any word kept so far
            alive[cols] &= (d >= d_min).all(axis=0)
        keep = []
        for idx in rng.permutation(len(words.dims)).tolist():
            if alive[idx]:
                keep.append(idx)
                # strike its layer by exclusion; distinct words of one rank lie at an even
                # distance >= 2, so only d_min > 2 strikes; elimination pairs only live words
                if d_min > 2:
                    live = slice(None) if words.masks is not None else np.flatnonzero(alive)
                    alive[live] &= words[idx].paired(words[live]) >= d_min
        kept.extend(words[keep])
    words = kept.words()
    order = sorted(range(len(words)), key=lambda i: words[i].sort_key())
    return MultispaceCode._of(ctx, n, m_max, tuple(words[i] for i in order), kept[order])


def exhaustive_optimal_code(ctx: FieldCtx, n: int, m_max: int, d_min: int) -> MultispaceCode:
    """Maximum-cardinality code by branch-and-bound max clique.

    The compatibility graph links pairs at distance >= d_min; a code is
    exactly a clique.  Certified optimal; ground set capped at CLIQUE_LIMIT,
    which is checked on the counting formula before anything is enumerated.
    The ground set is the rank layers 0..m_max stacked in order, and only the
    chosen rows become Multispace.
    """
    _check_search(n, m_max, d_min)
    k = min(m_max, n // 2)  # the rank-k layer alone holds [n, k]_q >= q^(k(n-k)) >= 2^bits words
    bits = k * (n - k) * (ctx.q.bit_length() - 1)
    v = None if bits >= 64 else codespace_growth(ctx, n, m_max)  # past 64 bits the bound is shown
    if v is None or v > CLIQUE_LIMIT:
        shown = f"at least 2^{bits}" if v is None else _shown(v)
        raise LimitExceeded(f"ground set of {shown} exceeds clique-search limit {CLIQUE_LIMIT}")
    ground = _WordStack.empty(ctx, n, min(n, m_max))
    for m in range(m_max + 1):
        ground.extend(_WordStack.layer(ctx, n, m))
    d = ground.pairwise()
    best = _max_clique(d >= d_min)
    chosen = ground[best]
    return MultispaceCode._of(ctx, n, m_max, tuple(chosen.words()), chosen, _closest([d[np.ix_(best, best)]]))


def _max_clique(adjacency: np.ndarray) -> list[int]:
    """The ascending indices of the lexicographically first maximum clique of a
    boolean graph; the diagonal is ignored.

    Plain branch and bound, which walks cliques in ascending lexicographic
    order and keeps one only when it beats the incumbent, returns this clique
    too.  Here two passes over int bitsets are bounded by _colour_classes: a
    clique among some candidates holds at most one vertex of each colour.
    The first finds the clique number omega by Tomita and Seki's MCQ, highest
    colour first, from the walk's first clique.  The second walks as plain
    branch and bound does and returns the first clique of size omega,
    dropping a branch once its candidates cannot complete one.
    """
    v = len(adjacency)
    far = adjacency & ~np.eye(v, dtype=bool)
    compat = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(far, axis=1, bitorder="little")]
    dive, candidates = [], (1 << v) - 1  # the walk's first clique: always the lowest candidate
    while candidates:
        i = (candidates & -candidates).bit_length() - 1
        dive.append(i)
        candidates &= compat[i] & (candidates - 1)
    omega = len(dive)

    def grow(size: int, candidates: int):
        nonlocal omega
        classes = _colour_classes(candidates, compat)
        for colour in range(len(classes), 0, -1):
            for i in classes[colour - 1]:
                if size + colour <= omega:
                    return  # the vertices left hold at most `colour` colours
                inner = candidates & compat[i]
                if inner:
                    grow(size + 1, inner)
                elif size + 1 > omega:
                    omega = size + 1
                candidates &= ~(1 << i)

    def first(current: list[int], candidates: int) -> list[int] | None:
        if len(current) == omega:
            return current
        tops = sorted((members[-1] for members in _colour_classes(candidates, compat)), reverse=True)
        while candidates:
            i = (candidates & -candidates).bit_length() - 1
            while tops[-1] < i:
                tops.pop()  # a colour with no candidate left
            if len(current) + len(tops) < omega:
                return None
            candidates &= candidates - 1
            found = first(current + [i], candidates & compat[i])
            if found is not None:
                return found
        return None

    grow(0, (1 << v) - 1)
    return dive if omega == len(dive) else first([], (1 << v) - 1)


def _colour_classes(candidates: int, compat: list[int]) -> list[list[int]]:
    """A greedy colouring of the candidate vertices: independent sets, each
    filled from the lowest free index up, so it ends at its largest member.
    The colours with a member >= i colour the candidates >= i."""
    classes = []
    while candidates:
        members, free, taken = [], candidates, 0
        while free:
            low = free & -free
            i = low.bit_length() - 1
            members.append(i)
            taken |= low
            free &= ~compat[i] ^ low  # i and its neighbours leave this colour
        candidates &= ~taken
        classes.append(members)
    return classes


def _check_ball(center: Multispace, radius: int, m_max: int) -> None:
    check_settings(("m_max", m_max, None, ""), ("radius", radius, 0, f"radius {radius} is negative"))
    if center.rank > m_max:
        raise ConfigInvalid(f"center rank {center.rank} exceeds m_max {m_max}")


def ball(center: Multispace, radius: int, m_max: int) -> list[Multispace]:
    """All multispaces of rank <= m_max within lattice distance <= radius.

    Breadth-first search in the Hasse diagram truncated at rank m_max;
    cover steps have distance 1 and meets realize geodesics inside the
    truncation, so BFS depth equals the metric.
    """
    _check_ball(center, radius, m_max)
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
    _check_ball(center, radius, m_max)
    return _ball_size_at(_ball_terms(center.ctx.q, center.n, center.dim, radius, m_max), center.height, m_max)


def _ball_terms(q: int, n: int, k: int, radius: int, m_max: int) -> list[tuple[int, int, BigCount]]:
    """(j, s, w) per class of subspaces U' at d_S <= radius from a dim-k U: the
    w = q^((k-i)(j-i)) [k, i]_q [n-k, j-i]_q subspaces of dim j that meet U in
    dimension i, at d_S = k + j - 2i, with slack s = radius - d_S."""
    return [(j, radius - (k + j - 2 * i), q ** ((k - i) * (j - i)) * gaussian_binomial(k, i, q)
             * gaussian_binomial(n - k, j - i, q))
            for j in range(max(0, k - radius), min(n, m_max, k + radius) + 1)
            for i in range(max(0, (k + j - radius + 1) // 2), min(k, j) + 1)]


def _ball_size_at(terms: list, t: int, m_max: int) -> BigCount:
    """Ball size around a center at height t: each class of _ball_terms takes
    every height t' >= 0 with j + t' <= m_max and |t - t'| <= s."""
    return sum(w * max(0, min(m_max - j, t + s) - max(0, t - s) + 1) for j, s, w in terms)


def sphere_packing_bound(ctx: FieldCtx, n: int, m_max: int, d_min: int) -> BigCount:
    """Total space size over the smallest radius-floor((d_min-1)/2) ball.

    Ball sizes vary with the center, so the minimum over all centers keeps
    the bound sound; GL_n(q) keeps distance and rank and is transitive on the
    centers of one (dim, height), so nothing is enumerated.

    No distance exceeds min(2 m_max, n + m_max), as d_S(U, U') is at most
    n and at most dim U + dim U', and |t - t'| at most m_max and at most
    t + t'.  From that radius r on every ball is the whole space: the bound is 1.

    Below it, per dim k, _smallest_ball finds the smallest ball over the
    heights t of [0, top], top = m_max - k, without visiting each of them.
    """
    _check_search(n, m_max, d_min)
    radius = (d_min - 1) // 2
    total = codespace_growth(ctx, n, m_max)
    if radius == 0:
        return total
    if radius >= min(2 * m_max, n + m_max):
        return 1
    return total // min(_smallest_ball(_ball_terms(ctx.q, n, k, radius, m_max), m_max - k, m_max)
                        for k in range(min(n, m_max) + 1))


def _smallest_ball(terms: list, top: int, m_max: int) -> BigCount:
    """The least of _ball_size_at over the integers t of [0, top].  With R(x) = max(0, x), the class
    (j, s, w) counts t + s + 1 - R(t - s) - R(t - (m_max - j - s)) + R(t - (m_max - j + s + 1)) heights
    at t >= 0, as s, m_max - j >= 0: the ball size is linear between integer breakpoints, its slope
    starting at the sum of w and moving by -w, -w and +w at those of each class.  So its minimum lies
    at 0, at top or at a breakpoint between them, and one sweep up the breakpoints reads them all."""
    changes = {top: 0}
    for j, s, w in terms:
        for b, change in ((0, w), (s, -w), (m_max - j - s, -w), (m_max - j + s + 1, w)):
            b = min(max(b, 0), top)  # one at or left of 0 sets the slope from 0 on; none past top is read
            changes[b] = changes.get(b, 0) + change
    sizes, t, slope = [_ball_size_at(terms, 0, m_max)], 0, 0
    for b in sorted(changes):
        sizes.append(sizes[-1] + slope * (b - t))
        t, slope = b, slope + changes[b]
    return min(sizes)


def decode(code: MultispaceCode, received: Multispace) -> tuple[Multispace, int]:
    """Minimum-distance decoding; ties break by codeword order."""
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    received.ctx.check_same(code.ctx)
    if received.n != code.n:
        raise ConfigInvalid("received word has a different ambient dimension")
    best, d = code._nearest(_WordStack.of([received]))
    return code.codewords[best[0]], int(d[0])
