"""Shared brute-force oracles: multiplicities, subspaces entry by entry, the
lattice poset, covers by containment, RREF by definition and by a column-by-column
numpy elimination, the packing bound
over every BFS ball and over two ranges of heights per dim, the greedy code
by single distances and by one elimination per candidate, the maximum clique
by plain branch and bound, the optimal code and the gamma graph over words
enumerated one by one, graph distances and distance regularity by bool and
int64 matrix products, the channel's trial-by-trial loop and numpy's own
spawned trial generators, the literal root product, the subspace-polynomial
step, the whole-space polynomial by that step, the polynomial through the
coordinate map's arrays, root finding by evaluating every term, polynomial
evaluation one term at a time, and field arithmetic through the log/exp
tables and through base-p digits built here. Also span_rows, the span of a
few row vectors."""

from itertools import chain, combinations, product

import numpy as np

from multispace.channel import (
    ChannelRun,
    ChannelSummary,
    TrialRecord,
    apply_transform,
    random_matrix,
)
from multispace.codes import _ball_size_at, _ball_terms, ball, decode
from multispace.errors import ConfigInvalid, LimitExceeded, RootsNotInField, SamplingFailed, ShapeViolation
from multispace.fields import field
from multispace.lattice import (
    Multispace,
    RegularityReport,
    VectorMultiset,
    codespace_growth,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    mspan,
    multiset_leq,
    pairwise_distances,
    span,
)
from multispace.linalg import (
    DEFAULT_STATE_LIMIT,
    Subspace,
    _odometer,
    enumerate_subspaces,
    matmul_arrays,
    rref_array,
)
from multispace.qpoly import LinearizedPoly, vector_field_iso


def span_rows(ctx, *rows):
    """The span of the given row vectors, through span's one input."""
    return span(VectorMultiset(ctx, len(rows[0]), rows))


def multiplicity_oracle(b: VectorMultiset, state_limit: int | None = DEFAULT_STATE_LIMIT) -> dict:
    """Exact multiplicity function of the multispan, by literal brute force.

    Materializes the sum of every one of the q^|b| coefficient tuples and
    counts them.  Independent of mspan(); used as its test oracle.  Keys are
    vectors as tuples of encodings.
    """
    ctx, n, m = b.ctx, b.n, len(b)
    total = ctx.q ** m
    if state_limit is not None and total > state_limit:
        raise LimitExceeded(f"q^m = {total} exceeds limit {state_limit}")
    sums = _odometer(ctx, b.matrix)
    if n == 0:
        return {(): int(total)}
    if ctx.q ** n < 2 ** 62:
        qpow = (ctx.q ** np.arange(n)).astype(np.int64)
        keys = sums @ qpow
        _, idx, counts = np.unique(keys, return_index=True, return_counts=True)
        return {tuple(sums[i].tolist()): int(c) for i, c in zip(idx, counts)}
    uniq, counts = np.unique(sums, axis=0, return_counts=True)
    return {tuple(row.tolist()): int(c) for row, c in zip(uniq, counts)}


def subspaces_by_entry(ctx, n, k):
    """Every k-dimensional subspace of GF(q)^n as a canonical basis, built entry by
    entry: pivot-column sets lexicographically, then free entries in odometer order
    (row-major, last position fastest)."""
    for pivots in combinations(range(n), k):
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivots]
        base = np.zeros((k, n), dtype=np.int64)
        for i, pc in enumerate(pivots):
            base[i, pc] = 1
        for assignment in product(range(ctx.q), repeat=len(free)):
            m = base.copy()
            for (i, c), val in zip(free, assignment):
                m[i, c] = val
            yield m


def poset_elements(ctx, n, m_max):
    return list(enumerate_multispaces_up_to(ctx, n, m_max))


def leq_matrix(elems):
    v = len(elems)
    leq = np.zeros((v, v), dtype=bool)
    for i in range(v):
        for j in range(v):
            leq[i, j] = multiset_leq(elems[i], elems[j])
    return leq


def cover_matrix(leq):
    """cover[i, j] iff j covers i: i < j with nothing strictly between."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    between = lt @ lt  # i < k < j for some k
    return lt & ~between


def brute_glb(leq, i, j):
    """Index of the greatest lower bound, or None if it does not exist."""
    lowers = np.nonzero(leq[:, i] & leq[:, j])[0]
    for l in lowers:
        if all(leq[c, l] for c in lowers):
            return int(l)
    return None


def brute_lub(leq, i, j):
    uppers = np.nonzero(leq[i, :] & leq[j, :])[0]
    for u in uppers:
        if all(leq[u, c] for c in uppers):
            return int(u)
    return None


def covers_by_containment(w):
    """(covering, covered) multispaces of w, filtered from the adjacent rank levels
    by multiset containment; the lattice is graded, so these are the covers."""
    up = [u for u in enumerate_multispaces(w.ctx, w.n, w.rank + 1) if multiset_leq(w, u)]
    down = [u for u in enumerate_multispaces(w.ctx, w.n, w.rank - 1) if multiset_leq(u, w)]
    return up, down


def covers_by_elimination(w):
    """covering_neighbors by one elimination per cover: U + <v> as the RREF of U's basis
    with v below it, v a line of the quotient placed in U's nonpivot columns."""
    u = w.underlying
    nonpivot = [c for c in range(w.n) if c not in u.pivots]
    out = []
    for line in enumerate_subspaces(w.ctx, len(nonpivot), 1):
        v = np.zeros((1, w.n), dtype=np.int64)
        v[0, nonpivot] = line.basis[0]
        red, rank, _ = rref_array(w.ctx, np.vstack([u.basis, v]))
        out.append(Multispace(Subspace(w.ctx, w.n, red[:rank].copy()), w.height))
    return out + [Multispace(u, w.height + 1)]


def bfs_distances(adj):
    v = len(adj)
    dist = np.full((v, v), -1, dtype=np.int64)
    for s in range(v):
        dist[s, s] = 0
        frontier = np.zeros(v, dtype=bool)
        frontier[s] = True
        seen = frontier.copy()
        d = 0
        while frontier.any():
            nxt = adj[frontier].any(axis=0) & ~seen
            d += 1
            dist[s, nxt] = d
            seen |= nxt
            frontier = nxt
    return dist


def is_rref_by_definition(a) -> bool:
    """Reduced row echelon form with no zero rows, checked row by row."""
    prev = -1
    for i in range(a.shape[0]):
        nz = np.nonzero(a[i])[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        if piv <= prev or a[i, piv] != 1:
            return False
        if np.count_nonzero(a[:, piv]) != 1:
            return False
        prev = piv
    return True


def rref_by_columns(ctx, a):
    """(rref, rank, pivot columns) of a, eliminated column by column in numpy: each
    column's first nonzero at or below the next pivot row is swapped up, scaled to 1
    and cleared from every other row; a is overwritten."""
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
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
            a[other] = ctx.sub_arr(a[other], ctx.mul_arr(a[other, c : c + 1], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, r, pivots


def packing_bound_oracle(ctx, n, m_max, d_min):
    """Sphere-packing bound by literal expansion: the code space over the
    smallest breadth-first ball around any of its elements."""
    radius = (d_min - 1) // 2
    elems = list(enumerate_multispaces_up_to(ctx, n, m_max))
    return len(elems) // min(len(ball(w, radius, m_max)) for w in elems)


def packing_bound_by_height_ranges(ctx, n, m_max, d_min):
    """Sphere-packing bound over the heights t <= r and t >= m_max - k - r of
    each dim k, r the radius: the two ranges codes.sphere_packing_bound walked
    before it read only the breakpoints of its ball sizes.  Between them every
    ball is as large as at t = r: each term of _ball_terms has slack
    s = r - d_S in [0, r] and j <= k + r - s, so t - s >= 0 and
    t + s <= m_max - j, and it counts the 2s + 1 heights t - s .. t + s."""
    radius = (d_min - 1) // 2
    total = codespace_growth(ctx, n, m_max)
    if radius == 0:
        return total
    classes = ((k, t) for k in range(min(n, m_max) + 1) for top in [m_max - k]
               for t in chain(range(min(radius, top) + 1), range(max(radius + 1, top - radius), top + 1)))
    return total // min(_ball_size_at(_ball_terms(ctx.q, n, k, radius, m_max), t, m_max) for k, t in classes)


def greedy_by_distance_loop(ctx, n, m_max, d_min, seed):
    """greedy_code's codewords, testing each candidate by one distance call per kept word."""
    rng = np.random.default_rng(seed)
    kept = []
    for m in range(m_max, -1, -1):
        layer = list(enumerate_multispaces(ctx, n, m))
        for idx in rng.permutation(len(layer)):
            if all(distance(layer[idx], k) >= d_min for k in kept):
                kept.append(layer[idx])
    return tuple(sorted(kept, key=lambda w: w.sort_key()))


def serial_greedy_code(ctx, n, m_max, d_min, seed):
    """greedy_code's codewords by the per-candidate elimination loop: the rank of
    the stacked bases [w; k] of the candidate w and every kept k, each from
    rref_array, so the oracle shares no batched kernel with greedy_code."""
    rng = np.random.default_rng(seed)
    kept = []
    for m in range(m_max, -1, -1):
        layer = list(enumerate_multispaces(ctx, n, m))
        for idx in rng.permutation(len(layer)):
            w = layer[idx]
            joins = [rref_array(ctx, np.vstack([w.underlying.basis, k.underlying.basis]))[1] for k in kept]
            if all(2 * j - w.dim - k.dim + abs(w.height - k.height) >= d_min for j, k in zip(joins, kept)):
                kept.append(w)
    return tuple(sorted(kept, key=lambda w: w.sort_key()))


def max_clique_by_bound(adjacency: np.ndarray) -> list[int]:
    """The ascending indices of the first maximum clique that plain branch and
    bound finds in a boolean graph, bounded by the candidate count alone; the
    diagonal is ignored.  It keeps the first clique that strictly beats its
    incumbent, so it returns the lexicographically first maximum clique."""
    v = len(adjacency)
    far = adjacency & ~np.eye(v, dtype=bool)
    compat = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(far, axis=1, bitorder="little")]
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
    return sorted(best)


def optimal_code_by_elements(ctx, n, m_max, d_min):
    """exhaustive_optimal_code's codewords from every multispace of rank <= m_max,
    enumerated one by one, and their pairwise distances, through plain branch and bound."""
    elems = list(enumerate_multispaces_up_to(ctx, n, m_max))
    return tuple(elems[i] for i in max_clique_by_bound(pairwise_distances(elems) >= d_min))


def graph_distances_by_bool_products(adjacency: np.ndarray) -> np.ndarray:
    """GammaGraph.graph_distances by boolean matrix products, which numpy runs
    without BLAS: every source at once, one product per level."""
    frontier = np.eye(len(adjacency), dtype=bool)
    dist = np.where(frontier, 0, -1)
    seen = frontier.copy()
    d = 0
    while frontier.any():
        frontier = (frontier @ adjacency) & ~seen
        d += 1
        dist[frontier] = d
        seen |= frontier
    return dist


def regularity_by_int64_products(g) -> RegularityReport:
    """is_distance_regular with int64 products, one for each intersection
    number at each distance, over the boolean products' distances."""
    if not g.vertices:
        return RegularityReport(True, None)
    dist = graph_distances_by_bool_products(g.adjacency)
    bad = np.argwhere(dist < 0)
    if len(bad):
        i, j = map(int, bad[0])
        return RegularityReport(False, {"reason": "disconnected", "pair": (g.vertices[i], g.vertices[j])})
    adj_int = g.adjacency.astype(np.int64)
    for k in range(int(dist.max()) + 1):
        mask = dist == k
        if not mask.any():
            continue
        for name, delta in (("c", k - 1), ("a", k), ("b", k + 1)):
            vals = (adj_int @ (dist == delta).astype(np.int64))[mask]
            if vals.min() != vals.max():
                pairs = np.argwhere(mask)
                lo, hi = pairs[int(np.argmin(vals))], pairs[int(np.argmax(vals))]
                return RegularityReport(False, {
                    "reason": "intersection number not constant",
                    "distance": k,
                    "parameter": name,
                    "pair_low": (g.vertices[lo[0]], g.vertices[lo[1]]),
                    "value_low": int(vals.min()),
                    "pair_high": (g.vertices[hi[0]], g.vertices[hi[1]]),
                    "value_high": int(vals.max()),
                })
    return RegularityReport(True, None)


def gamma_by_elements(ctx, n, m):
    """The vertices and adjacency of gamma_graph from the rank-m multispaces,
    enumerated one by one, and their pairwise distances."""
    verts = tuple(enumerate_multispaces(ctx, n, m))
    return verts, pairwise_distances(verts) == 2


# ---------------------------------------------------------------------------
# The channel one trial and one elimination at a time
# ---------------------------------------------------------------------------

def full_rank_draw(ctx, rows, cols, rng, max_tries=1000) -> np.ndarray:
    """Uniform rows x cols matrix of rank min(rows, cols), by rejection."""
    for _ in range(max_tries):
        cand = random_matrix(ctx, rows, cols, rng)
        if rref_array(ctx, cand)[1] == min(rows, cols):
            return cand
    raise SamplingFailed(f"rejection sampling failed to find a full-rank {rows}x{cols} matrix")


def rank_draw(ctx, rows, cols, r, rng, max_tries=1000) -> np.ndarray:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols)."""
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    if r == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    a = full_rank_draw(ctx, rows, r, rng, max_tries)
    out = matmul_arrays(ctx, a, full_rank_draw(ctx, r, cols, rng, max_tries))
    if rref_array(ctx, out)[1] != r:
        raise ShapeViolation(f"product of full-rank factors lost rank {r}")
    return out


def effective_transform(ctx, m, cfg, rng, max_tries=1000) -> np.ndarray:
    """The channel matrix of one trial, drawn stage by stage."""
    s = cfg.s
    if cfg.mode == "full-rank":
        return full_rank_draw(ctx, m, m, rng, max_tries)
    if cfg.mode == "rank-deficient":
        return rank_draw(ctx, m, m, m - s, rng, max_tries)
    mix = full_rank_draw(ctx, m, m, rng, max_tries)
    keep = np.sort(rng.permutation(m)[: m - s])
    stage1 = mix[:, keep]
    if cfg.mode == "deletion":
        return stage1
    return matmul_arrays(ctx, stage1, rank_draw(ctx, m - s, m - s, m - 2 * s, rng, max_tries))  # compound


#: mode -> (rank the channel takes away, largest distance) in units of s, written
#: out here apart from the channel's stage table
LOSS_AND_BOUND = {"full-rank": (0, 0), "deletion": (1, 1), "rank-deficient": (1, 2), "compound": (2, 3)}


def _serial_trial_ok(cfg, sent, received, d) -> bool:
    if cfg.mode == "full-rank":
        return received == sent
    if cfg.mode == "deletion":
        return d == cfg.s
    if cfg.mode == "rank-deficient":
        return d <= 2 * cfg.s and received.rank == sent.rank and received.underlying <= sent.underlying
    # compound: deletion at exactly s, then the rank-deficient 2s, keep the received word
    # within s..3s of the sent one, inside it, and of rank m - s
    return cfg.s <= d <= 3 * cfg.s and received.rank == sent.rank - cfg.s and received.underlying <= sent.underlying


def serial_trial_loop(cfg, pick, code=None, max_tries=1000) -> ChannelRun:
    """The channel trial loop one trial at a time, with matmul_arrays, apply_transform,
    mspan, distance and decode per trial; the oracle of channel._trial_blocks,
    run_trials and end_to_end.  pick(rng) -> (sent multispace, generating (m, n) array)
    makes the first draw of each trial, as the index pick of _trial_blocks does."""
    lost, bound = (cfg.s * k for k in LOSS_AND_BOUND[cfg.mode])
    records = []
    violations = block_errors = max_d = 0
    hist = {}
    for idx, ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        rng = np.random.default_rng(ss)
        sent, rows = pick(rng)
        ctx = sent.ctx
        gen = VectorMultiset(ctx, sent.n, rows)
        m = len(gen)
        cfg.check_rank(m)
        if cfg.random_generator:
            gen = apply_transform(gen, full_rank_draw(ctx, m, m, rng, max_tries))
        t_eff = effective_transform(ctx, m, cfg, rng, max_tries)
        received = mspan(apply_transform(gen, t_eff))
        d = distance(sent, received)
        ok = _serial_trial_ok(cfg, sent, received, d)
        records.append(TrialRecord(idx, sent, received, m - lost, d, bound, ok))
        violations += not ok
        hist[d] = hist.get(d, 0) + 1
        max_d = max(max_d, d)
        if code is not None and decode(code, received)[0] != sent:
            block_errors += 1
            if bound < code.min_distance / 2:
                violations += 1
    errors = None if code is None else block_errors
    return ChannelRun(records, ChannelSummary(cfg.trials, violations, max_d, hist, errors))


def random_multiset(ctx, n, m, rng) -> VectorMultiset:
    return VectorMultiset(ctx, n, rng.integers(0, ctx.q, size=(m, n)))


def random_multispace(ctx, n, rng, max_height=3) -> Multispace:
    rows = rng.integers(0, ctx.q, size=(rng.integers(0, n + 1), n))
    return Multispace(Subspace.from_array(ctx, n, rows), int(rng.integers(0, max_height + 1)))


# ---------------------------------------------------------------------------
# Dense polynomials: the literal root-product oracle for multispace polynomials
# ---------------------------------------------------------------------------

class DensePoly:
    """Dense polynomial over a field context; index = exponent."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        a = np.asarray(coeffs, dtype=np.int64)
        nz = np.nonzero(a)[0]
        self.ctx = ctx
        self.coeffs = a[: int(nz[-1]) + 1].copy() if len(nz) else np.zeros(0, dtype=np.int64)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __eq__(self, other):
        return (
            isinstance(other, DensePoly)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def mul_linear(self, r: int) -> "DensePoly":
        """Multiply by the linear factor (x - r)."""
        c = self.coeffs
        out = np.zeros(len(c) + 1, dtype=np.int64)
        out[1:] = c
        out[:-1] = self.ctx.sub_arr(
            out[:-1], self.ctx.mul_arr(np.full(len(c), r, dtype=np.int64), c)
        )
        return DensePoly(self.ctx, out)

    def char_power(self) -> "DensePoly":
        """The p-th power: coefficients to the p, exponents stretched by p."""
        if self.is_zero():
            return self
        p = self.ctx.p
        out = np.zeros((len(self.coeffs) - 1) * p + 1, dtype=np.int64)
        out[::p] = self.ctx.pow_arr(self.coeffs, p)
        return DensePoly(self.ctx, out)

    def eval(self, x: int) -> int:
        acc = 0
        for c in self.coeffs[::-1]:
            acc = self.ctx.add(self.ctx.mul(acc, x), int(c))
        return acc

    def synthetic_divide(self, r: int) -> tuple["DensePoly", int]:
        """Divide by (x - r); returns (quotient, remainder scalar)."""
        ctx = self.ctx
        a = self.coeffs
        d = len(a) - 1
        if d < 0:
            return DensePoly(ctx, []), 0
        b = [0] * d
        carry = 0
        for i in range(d - 1, -1, -1):
            carry = ctx.add(int(a[i + 1]), ctx.mul(r, carry))
            b[i] = carry
        rem = ctx.add(int(a[0]), ctx.mul(r, b[0])) if d > 0 else int(a[0])
        return DensePoly(ctx, b), rem


def root_multiplicities_by_division(poly: DensePoly, roots=None) -> dict[int, int]:
    """Multiplicity of every root, by literal repeated synthetic division."""
    ctx = poly.ctx
    if roots is None:
        roots = [x for x in range(ctx.q) if poly.eval(x) == 0]
    out: dict[int, int] = {}
    g = poly
    for r in roots:
        mult = 0
        while g.degree >= 1:
            quot, rem = g.synthetic_divide(r)
            if rem != 0:
                break
            g = quot
            mult += 1
        if mult:
            out[int(r)] = mult
    return out


def dense_degree(L) -> int:
    """Degree of a nonzero linearized polynomial as a plain polynomial: base_q ** q_degree."""
    return L.base_q ** L.q_degree


def dense_of(L) -> DensePoly:
    """A linearized polynomial written out densely: a_i at exponent q^i."""
    out = np.zeros(dense_degree(L) + 1 if L.coeffs else 0, dtype=np.int64)
    for i, c in L.coeffs.items():
        out[L.base_q ** i] = c
    return DensePoly(L.ctx, out)


def coordinate_map_oracle(iso, rows) -> np.ndarray:
    """sum_i emb(c_i) * X^i for each coordinate row (c_0, ..., c_{n-1}), by
    scalar big-field arithmetic and no table of the library: X is the class
    of the modulus variable, encoded p, and emb(c) = sum_d c_d beta^d for the
    base-p digits c_d of c, beta the embedding's root of the small modulus."""
    big, small = iso.big, iso.ctx
    beta_pows = [big.pow(iso.emb.root, d) for d in range(small.e)]
    emb = []
    for c in range(small.q):
        acc = 0
        for b in beta_pows:
            acc = big.add(acc, big.mul(c % small.p, b))
            c //= small.p
        emb.append(acc)
    x_pows = [1]
    for _ in range(iso.n - 1):
        x_pows.append(big.mul(x_pows[-1], big.p))
    out = []
    for row in np.asarray(rows).tolist():
        acc = 0
        for c, x_i in zip(row, x_pows):
            acc = big.add(acc, big.mul(emb[c], x_i))
        out.append(acc)
    return np.asarray(out, dtype=np.int64)


def literal_product(w, big=None) -> DensePoly:
    """prod_{v in W} (x - phi(v)), expanded factor by factor over the subspace.

    The multiset repetition enters as the q^height-th power, taken as
    e * height characteristic powers.
    """
    iso = vector_field_iso(w.ctx, w.n, big)
    poly = DensePoly.one(iso.big)
    for r in iso.to_field_array(_odometer(w.ctx, w.underlying.basis)):
        poly = poly.mul_linear(int(r))
    for _ in range(w.ctx.e * w.height):
        poly = poly.char_power()
    return poly


def annihilator_step_by_scalars(F, coeffs, v, q) -> list[int]:
    """P^q - P(v)^(q-1) P on the q-coefficients of P, one scalar field call per
    operation: the loop that FieldCtx.annihilator_step replaced."""
    pv = 0
    for i, c in enumerate(coeffs):
        pv = F.add(pv, F.mul(c, F.frobenius(v, i, q)))
    a = F.pow(pv, q - 1)
    new = [0] + [F.pow(c, q) for c in coeffs]
    for i, c in enumerate(coeffs):
        new[i] = F.sub(new[i], F.mul(a, c))
    return new


def whole_space_poly_by_recursion(ctx, n, height) -> LinearizedPoly:
    """The polynomial of (GF(q)^n, height): FieldCtx.annihilator_step over the
    unit basis, then the height step, the recursion that x^(q^n) - x replaced."""
    iso = vector_field_iso(ctx, n)
    F, c = iso.big, [1]
    for v in iso.units.tolist():
        c = F.annihilator_step(c, v, ctx.q)
    if height:
        c = F.frobenius_arr(c, height, ctx.q).tolist()
    return LinearizedPoly(ctx.q, F, dict(enumerate(c, start=height)))


def poly_by_arrays(w, big=None) -> LinearizedPoly:
    """poly_from_multispace through the coordinate map's arrays: the basis rows
    by to_field_array and the height by frobenius_arr, the numpy path that the
    round trip's list reads replaced."""
    q = w.ctx.q
    iso = vector_field_iso(w.ctx, w.n, big)
    F = iso.big
    if w.dim == w.n:
        c = [F.neg(1)] + [0] * (w.n - 1) + [1]  # x^(q^n) - x
    else:
        c = [1]
        for v in iso.to_field_array(w.underlying.basis).tolist():
            c = F.annihilator_step(c, v, q)
    if w.height:
        c = F.frobenius_arr(c, w.height, q).tolist()
    return LinearizedPoly._of(q, F, {i: a for i, a in enumerate(c, start=w.height) if a})


def roots_by_evaluation(L) -> Multispace:
    """roots_multiset with every term evaluated on the units, L._eval(iso.units),
    the path the coordinate map's table of unit powers replaced."""
    F = L.ctx
    e = F._check_power_base(L.base_q)
    n = F.e // e
    small = field(F.p, e)
    iso = vector_field_iso(small, n, F)
    images = iso.to_vector_array(L._eval(iso.units))
    red, _, pivots = rref_array(small, np.hstack([images, np.eye(n, dtype=np.int64)]))
    image_rank = sum(1 for c in pivots if c < n)
    kernel = Subspace(small, n, red[image_rank:, n:].copy())
    h = min(L.coeffs)
    if kernel.dim != L.q_degree - h:
        raise RootsNotInField(f"polynomial does not split over {F}")
    return Multispace._of(kernel, h)


def eval_by_coefficient(L, xs) -> np.ndarray:
    """L at an array of encodings, one coefficient at a time through the
    array operations: the loop that LinearizedPoly.eval_array replaced."""
    F = L.ctx
    acc = np.zeros_like(np.asarray(xs, dtype=np.int64))
    for i, c in L.coeffs.items():
        acc = F.add_arr(acc, F.mul_arr(c, F.frobenius_arr(xs, i, L.base_q)))
    return acc


def spawned_generators(seed, start, count) -> list:
    """numpy's own generators of trials start .. start + count - 1: the
    spawned children of SeedSequence(seed), as the channel built them before
    channel._trial_generators."""
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(start + count)[start:]]


def keyed_generators(seed, start, count) -> list:
    """The same generators by their spawn keys, which spawn gives child i as
    (i,): usable at indices far past what spawn can count up to."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(start, start + count)]


def _base_p_digits(F, x) -> tuple[np.ndarray, np.ndarray]:
    """The e base-p digits of each encoding in x, on a new last axis, and the
    place values p^i that turn digits back into encodings: built from F.p and
    F.e alone, sharing no table with the library."""
    places = F.p ** np.arange(F.e, dtype=np.int64)
    return np.asarray(x, dtype=np.int64)[..., None] // places % F.p, places


def add_by_digits(F, a, b) -> np.ndarray:
    """a + b digit by digit mod p, in every field: the coefficient-vector sum
    that FieldCtx's XOR and Zech rules stand for."""
    (da, places), (db, _) = _base_p_digits(F, a), _base_p_digits(F, b)
    return (da + db) % F.p @ places


def sub_by_digits(F, a, b) -> np.ndarray:
    """a - b digit by digit mod p, in every field."""
    (da, places), (db, _) = _base_p_digits(F, a), _base_p_digits(F, b)
    return (da - db) % F.p @ places


def mul_by_logs(F, a, b) -> np.ndarray:
    """a b mod p, or through the log/exp tables with zero kept apart: what
    FieldCtx.mul_arr computed before its q x q tables."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if F.e == 1:
        return a * b % F.p
    out = F._exp_np[(F._log_np[a] + F._log_np[b]) % (F.q - 1)]
    return np.where((a == 0) | (b == 0), 0, out)
