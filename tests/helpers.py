"""Shared brute-force oracles: multiplicities, the lattice poset, covers by
containment, RREF by definition, the packing bound over every BFS ball, the
greedy code by single distances, the channel's trial-by-trial loop and the
literal root product."""

import numpy as np

from multispace.channel import (
    ChannelRun,
    ChannelSummary,
    TrialRecord,
    _bound_for,
    _need,
    apply_transform,
    random_matrix,
)
from multispace.codes import ball, decode
from multispace.errors import ConfigInvalid, LimitExceeded, SamplingFailed, ShapeViolation
from multispace.lattice import (
    Multispace,
    VectorMultiset,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    mspan,
    multiset_leq,
)
from multispace.linalg import DEFAULT_STATE_LIMIT, FqMatrix, FqVector, Subspace, _odometer, rref_array
from multispace.qpoly import vector_field_iso


def multiplicity_oracle(b: VectorMultiset, state_limit: int | None = DEFAULT_STATE_LIMIT) -> dict:
    """Exact multiplicity function of the multispan, by literal brute force.

    Materializes the sum of every one of the q^|b| coefficient tuples and
    counts them.  Independent of mspan(); used as its test oracle.
    """
    ctx, n, m = b.ctx, b.n, len(b)
    total = ctx.q ** m
    if state_limit is not None and total > state_limit:
        raise LimitExceeded(f"q^m = {total} exceeds limit {state_limit}")
    sums = _odometer(ctx, b.matrix)
    if n == 0:
        return {FqVector(ctx, []): int(total)}
    if ctx.q ** n < 2 ** 62:
        qpow = (ctx.q ** np.arange(n)).astype(np.int64)
        keys = sums @ qpow
        _, idx, counts = np.unique(keys, return_index=True, return_counts=True)
        return {FqVector(ctx, sums[i]): int(c) for i, c in zip(idx, counts)}
    uniq, counts = np.unique(sums, axis=0, return_counts=True)
    return {FqVector(ctx, row): int(c) for row, c in zip(uniq, counts)}


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


def packing_bound_oracle(ctx, n, m_max, d_min):
    """Sphere-packing bound by literal expansion: the code space over the
    smallest breadth-first ball around any of its elements."""
    radius = (d_min - 1) // 2
    elems = list(enumerate_multispaces_up_to(ctx, n, m_max))
    return len(elems) // min(len(ball(w, radius, m_max)) for w in elems)


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


# ---------------------------------------------------------------------------
# The channel one trial and one elimination at a time
# ---------------------------------------------------------------------------

def full_rank_draw(ctx, rows, cols, rng, max_tries=1000) -> FqMatrix:
    """Uniform rows x cols matrix of rank min(rows, cols), by rejection."""
    for _ in range(max_tries):
        cand = random_matrix(ctx, rows, cols, rng)
        if rref_array(ctx, cand.array)[1] == min(rows, cols):
            return cand
    raise SamplingFailed(f"rejection sampling failed to find a full-rank {rows}x{cols} matrix")


def rank_draw(ctx, rows, cols, r, rng, max_tries=1000) -> FqMatrix:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols)."""
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    if r == 0:
        return FqMatrix.zeros(ctx, rows, cols)
    out = full_rank_draw(ctx, rows, r, rng, max_tries) @ full_rank_draw(ctx, r, cols, rng, max_tries)
    if rref_array(ctx, out.array)[1] != r:
        raise ShapeViolation(f"product of full-rank factors lost rank {r}")
    return out


def effective_transform(ctx, m, cfg, rng, max_tries=1000) -> FqMatrix:
    """The channel matrix of one trial, drawn stage by stage."""
    s = cfg.s
    if cfg.mode == "full-rank":
        return full_rank_draw(ctx, m, m, rng, max_tries)
    if cfg.mode == "rank-deficient":
        return rank_draw(ctx, m, m, m - s, rng, max_tries)
    mix = full_rank_draw(ctx, m, m, rng, max_tries)
    keep = np.sort(rng.permutation(m)[: m - s])
    stage1 = FqMatrix(ctx, mix.array[:, keep])
    if cfg.mode == "deletion":
        return stage1
    return stage1 @ rank_draw(ctx, m - s, m - s, m - 2 * s, rng, max_tries)  # compound


def _serial_trial_ok(cfg, sent, received, d) -> bool:
    if cfg.mode == "full-rank":
        return received == sent
    if cfg.mode == "deletion":
        return d == cfg.s
    if cfg.mode == "rank-deficient":
        return d <= 2 * cfg.s and received.rank == sent.rank and received.underlying <= sent.underlying
    return True


def serial_trial_loop(cfg, pick, code=None, max_tries=1000) -> ChannelRun:
    """The channel trial loop one trial at a time, with FqMatrix, apply_transform,
    mspan, distance and decode per trial; the oracle of channel._trial_loop,
    taking the same pick(rng) -> (sent multispace, generating (m, n) array)."""
    bound = _bound_for(cfg)
    lost = _need(cfg)
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
            if bound is not None and bound < code.min_distance / 2:
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
