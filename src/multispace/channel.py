"""Random-linear-network-coding channel acting on generating multisets.

The transmitter sends a generating multiset of a multispace; the channel
multiplies the tuple of sent vectors by a random matrix T over GF(q).
Modes:

  full-rank       square T of full rank: the multispace is preserved
  deletion        full-rank mix, then s of the mixed vectors are dropped:
                  the received multispace sits at distance exactly s below
  rank-deficient  square T of rank m - s: distance at most 2s, with the
                  underlying space contained in the sent one and the rank
                  preserved
  compound        deletion, then rank deficiency s on the m - s survivors:
                  distance between s and 3s, with the underlying space
                  contained in the sent one and the rank m - s

Every trial draws its own PRNG substream, so results are independent of
scheduling and reproducible from (config, seed) alone: trial i draws from
default_rng(SeedSequence(seed).spawn(i + 1)[i]), and _trial_generators
builds a block's generators with exactly those PCG64 states in one
vectorised pass of SeedSequence's hash.  Trials run in blocks as arrays:
each stage of a block draws for all its trials, rejection sampling runs
each trial's loop to acceptance on the rank-only kernel rank_array, and
multispans and distances are batched eliminations, while every substream
sees the calls of a one-trial loop.  A block comes out as columns (sent
indices, received words as one stack, distances, bound checks); one
summary reads them for both entry points, and only run_trials turns them
into TrialRecords.
"""

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    ConfigInvalid,
    DimensionMismatch,
    SamplingFailed,
    ShapeMismatch,
    ShapeViolation,
)
from .fields import FieldCtx, check_settings
from .lattice import Multispace, VectorMultiset, _WordStack, mspan
from .linalg import (
    DEFAULT_STATE_LIMIT,
    _as_array,
    _check_budget,
    _pad_stack,
    matmul_arrays,
    rank_array,
    rref_batch,
)

#: mode -> (rank the channel takes away, least distance, largest distance), in units of s
_MODE_TABLE = {
    "full-rank": (0, 0, 0),
    "deletion": (1, 1, 1),
    "rank-deficient": (1, 0, 2),
    "compound": (2, 1, 3),
}
MODES = tuple(_MODE_TABLE)

#: at most this many trials are drawn and eliminated together; arrays grow with blocks, not trials
_BLOCK = 256
#: candidates a rejection sampler draws for one matrix before it gives up
_MAX_TRIES = 1000


@dataclass(frozen=True)
class ChannelConfig:
    mode: str
    trials: int
    s: int = 0
    seed: int = 0
    random_generator: bool = False

    def validate(self):
        if self.mode not in MODES:
            raise ConfigInvalid(f"unknown mode {self.mode!r}; pick one of {MODES}")
        check_settings(("trials", self.trials, 0, "trials must be nonnegative"),
                       ("s", self.s, 0, "error weight s must be nonnegative"),
                       ("seed", self.seed, 0, f"seed {self.seed} is negative"))
        if not isinstance(self.random_generator, (bool, np.bool_)):
            raise ConfigInvalid(f"random_generator {self.random_generator!r} is not a bool")
        if self.mode == "full-rank" and self.s:
            raise ConfigInvalid("full-rank mode takes no error weight")

    def check_rank(self, m: int):
        need = _need(self)
        if m < need:
            raise ConfigInvalid(f"mode {self.mode} with s={self.s} needs rank >= {need}, got {m}")


def _need(cfg: ChannelConfig) -> int:
    """Rank the channel takes away: rank(T_eff) = m - _need(cfg)."""
    return _MODE_TABLE[cfg.mode][0] * cfg.s


def _bound_for(cfg: ChannelConfig) -> int:
    return _MODE_TABLE[cfg.mode][2] * cfg.s


@dataclass
class TrialRecord:
    index: int
    sent: Multispace
    received: Multispace
    t_rank: int
    distance: int
    bound: int
    bound_satisfied: bool


@dataclass
class ChannelSummary:
    trials: int
    violations: int
    max_distance: int
    histogram: dict[int, int]
    block_errors: int | None = None  # counted by end_to_end only

    @property
    def block_error_rate(self) -> float | None:
        if self.block_errors is None:
            return None
        return self.block_errors / self.trials if self.trials else 0.0

    def to_dict(self) -> dict:
        doc = {
            "trials": self.trials,
            "violations": self.violations,
            "max_distance": self.max_distance,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }
        if self.block_errors is not None:
            doc["block_errors"] = self.block_errors
            doc["block_error_rate"] = self.block_error_rate
        return doc


@dataclass
class ChannelRun:
    records: list[TrialRecord]
    summary: ChannelSummary


# ---------------------------------------------------------------------------
# Transforms and random matrices
# ---------------------------------------------------------------------------

def apply_transform(b: VectorMultiset, T) -> VectorMultiset:
    """b'_j = sum_i T[i][j] b_i for a matrix T of encodings over b's field;
    output has one vector per column of T."""
    T = _as_array(b.ctx, T)
    if T.ndim != 2:
        raise DimensionMismatch(f"T has shape {T.shape}; it must be two-dimensional")
    if len(T) != len(b):
        raise ShapeMismatch(f"T has {len(T)} rows but the multiset has {len(b)} vectors")
    out = matmul_arrays(b.ctx, T.T, b.matrix)
    return VectorMultiset._of(b.ctx, b.n, out)


def random_matrix(ctx: FieldCtx, rows: int, cols: int, rng) -> np.ndarray:
    return rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64)


def _full_rank_batch(ctx: FieldCtx, rngs, rows, cols) -> np.ndarray:
    """One uniform rows[i] x cols[i] matrix of rank min(rows[i], cols[i]) per rngs[i].

    The trials run in order, each a one-trial rejection loop: draw a
    candidate from the trial's own generator until rank_array accepts it.
    The matrices come zero-padded into one (len(rngs), max rows, max cols)
    stack; zero rows and columns change no rank.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.zeros((len(rngs), rows.max(), cols.max()), dtype=np.int64)
    for i, (rng, r, c) in enumerate(zip(rngs, rows.tolist(), cols.tolist())):
        for _ in range(_MAX_TRIES):
            cand = random_matrix(ctx, r, c, rng)
            if rank_array(ctx, cand) == min(r, c):
                out[i, :r, :c] = cand
                break
        else:
            raise SamplingFailed(f"rejection sampling failed to find a full-rank {r}x{c} matrix")
    return out


def _rank_batch(ctx: FieldCtx, rngs, rows, cols, r) -> np.ndarray:
    """One rows[i] x cols[i] matrix of exact rank r[i] per rngs[i], zero-padded into one stack.

    Each is a full-rank A (rows x r) times a full-rank B (r x cols), A drawn
    before B; a trial with r = 0 draws nothing and gets the zero matrix.
    """
    rows, cols, r = np.asarray(rows), np.asarray(cols), np.asarray(r)
    out = np.zeros((len(rngs), rows.max(), cols.max()), dtype=np.int64)
    live = np.flatnonzero(r > 0)
    if len(live):
        drawers = [rngs[i] for i in live]
        a = _full_rank_batch(ctx, drawers, rows[live], r[live])
        b = _full_rank_batch(ctx, drawers, r[live], cols[live])
        prod = matmul_arrays(ctx, a, b)
        lost = np.flatnonzero(rref_batch(ctx, prod)[1] != r[live])  # full-rank factors give rank r
        if len(lost):
            raise ShapeViolation(f"product of full-rank factors lost rank {r[live[lost[0]]]}")
        out[live, : prod.shape[1], : prod.shape[2]] = prod
    return out


def random_full_rank(ctx: FieldCtx, m: int, rng) -> np.ndarray:
    """Uniform invertible m x m matrix by rejection (success rate > 0.288)."""
    return _full_rank_batch(ctx, [rng], [m], [m])[0]


def random_rank(ctx: FieldCtx, rows: int, cols: int, r: int, rng) -> np.ndarray:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols)."""
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    return _rank_batch(ctx, [rng], [rows], [cols], [r])[0]


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

#: numpy's SeedSequence hashes (NEP 19, after O'Neill's seed_seq_fe): (first
#: constant, multiplier) of the entropy hash A and the state hash B, and the mix
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = (1 << 32) - 1


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from a nonnegative int; 0 is [0]."""
    out = [value & _WORD]
    while value > _WORD:
        value >>= 32
        out.append(value & _WORD)
    return out


@functools.lru_cache(maxsize=None)
def _hash_consts(first: int, mult: int, k: int, n: int) -> np.ndarray:
    """A hash's constants first * mult^j mod 2^32 for j = k .. k + n, as uint32."""
    return np.array([first * pow(mult, j, 1 << 32) & _WORD for j in range(k, k + n + 1)], dtype=np.uint32)


def _hashmix(x, hash_: tuple[int, int], k: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix of x, broadcast against the hash's n constants from the k-th on."""
    c = _hash_consts(*hash_, k, n)
    v = (x ^ c[:-1]) * c[1:]
    return v ^ (v >> 16)


class _StateWords:
    """Hands PCG64 the four state words computed for it.  It is registered as an
    ISeedSequence on first use, so that importing the package does not import
    numpy.random (about 16 ms)."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _trial_generators(seed: int, start: int, count: int) -> list:
    """Exactly [default_rng(ss) for ss in SeedSequence(seed).spawn(start + count)[start:]],
    the generators of trials start .. start + count - 1, in one vectorised pass.

    Child i is SeedSequence(seed, spawn_key=(i,)): the root's entropy pool,
    SeedSequence(seed).pool, with the words of i mixed in after (the child's
    zero padding hashes as the root's own run-out).  Only those words differ,
    so they are mixed into (children, 4) uint32 arrays; an index of 2^32 or
    more has more words, so the children are split where their count
    changes.  The PCG64 state words are hashed from the pools the same way,
    and each child gets its own C-contiguous row: PCG64 reads them from memory.
    """
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    pool = np.random.SeedSequence(seed).pool
    hashed = 4 * max(4, len(_words(int(seed))))  # the A constants the root's entropy used up
    out = []
    lo, stop = start, start + count
    while lo < stop:
        hi = min(stop, (lo | _WORD) + 1)  # the children whose key words past the first are lo's
        low = np.arange(lo & _WORD, (lo & _WORD) + hi - lo, dtype=np.uint32)[:, None]
        mixed = pool  # broadcast against the first key word's (children, 4) hashes
        for j, key in enumerate([low] + _words(lo)[1:]):  # each word hashed once per pool word
            r = np.uint32(_MIX_L) * mixed - np.uint32(_MIX_R) * _hashmix(key, _HASH_A, hashed + 4 * j, 4)
            mixed = r ^ (r >> 16)
        state = _hashmix(np.concatenate((mixed, mixed), axis=1), _HASH_B, 0, 8)  # generate_state(4, uint64)
        rows = state.astype("<u4", copy=False).view("<u8").astype(np.uint64)
        out += [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in rows]
        lo = hi
    return out


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _channel_block(cfg: ChannelConfig, rngs, sent: _WordStack, gens: np.ndarray):
    """The stack of received words, the distances and the bound checks of one block of trials.

    Trial t sends row t of the stack sent, whose generating multiset is
    gens[t, :m] for its rank m, and draws from rngs[t].  The stages draw in
    the order of a single trial (random generator; mix, deletion permutation
    and rank-deficient factors of the mode), each stage for the whole block
    at once, so every generator sees the same calls in the same order as a
    one-trial loop.  All arrays are zero-padded to the block's largest m;
    zero rows change no rank.

    A trial is ok when least*s <= d <= most*s, by _MODE_TABLE, and the
    received space lies in the sent one, dim(S + R) = dim S, which every
    mode keeps: received vectors combine sent ones.  The received rank is
    the received multiset's length by construction.  Compound's window:
    let W be the sent word (rank m), I the word after deletion and R the
    received one.  Deletion gives I <= W, rank I = m - s and d(I, W) = s;
    the second stage is the rank-deficient channel on I's m - s vectors
    with deficiency s, so d(R, I) <= 2s and rank R = m - s.  The triangle
    inequality gives d(R, W) <= 3s, and d = rank(W v R) - rank(W ^ R) is at
    least |rank W - rank R| = s.
    """
    ctx, n, s = sent.ctx, sent.n, cfg.s
    ms = sent.dims + sent.heights
    if cfg.random_generator:
        mix = _full_rank_batch(ctx, rngs, ms, ms)
        gens = matmul_arrays(ctx, np.swapaxes(mix, 1, 2), gens)
    if cfg.mode == "rank-deficient":
        t_eff = _rank_batch(ctx, rngs, ms, ms, ms - s)
    else:
        t_eff = _full_rank_batch(ctx, rngs, ms, ms)
    widths = ms  # columns of T_eff: the length of each received multiset
    if cfg.mode in ("deletion", "compound"):  # keep m - s of the mixed columns
        widths = ms - s
        kept = [a[:m, np.sort(rng.permutation(m)[: m - s])] for a, rng, m in zip(t_eff, rngs, ms.tolist())]
        t_eff = _pad_stack(kept, (ms.max(), widths.max()))
    if cfg.mode == "compound":  # then a rank-deficient square stage on the survivors
        t_eff = matmul_arrays(ctx, t_eff, _rank_batch(ctx, rngs, widths, widths, ms - 2 * s))
    # received word: rank of the received multiset, height = its length - rank
    bases, ranks = rref_batch(ctx, matmul_arrays(ctx, np.swapaxes(t_eff, 1, 2), gens))
    heights = widths - ranks
    stack = _WordStack(ctx, n, bases[:, : ranks.max()], ranks, heights)
    d, joins = sent.paired(stack)
    _, least, most = _MODE_TABLE[cfg.mode]
    return stack, d, (least * s <= d) & (d <= most * s) & (joins == sent.dims)


def _block_size(m_max: int, n: int) -> int:
    """Trials per block: _BLOCK, or fewer so that a block's stacked arrays,
    padded to the largest m x max(m, n) of its trials, stay within
    DEFAULT_STATE_LIMIT entries."""
    return max(1, min(_BLOCK, DEFAULT_STATE_LIMIT // max(1, m_max * max(m_max, n))))


def _trial_blocks(cfg: ChannelConfig, stack: _WordStack, gens: np.ndarray, pick):
    """Yield (sent indices, received stack, distances, bound checks) of each
    block of trials, in order, as arrays with one row per trial.

    Word i is row i of stack, and its generating multiset of m = rank rows
    is gens[i, :m], as MultispaceCode._source gives them.  pick(rng) returns
    the index of the word a trial sends; it is the first draw of every
    trial, so end-to-end runs draw the codeword index before the channel
    matrices.  Trials run in blocks of _block_size(largest m, n): every word
    of a block is picked and rank-checked before any channel draw, its rows
    and generators are taken by index, and the block's draws, multispans and
    distances are batched eliminations, so memory grows with the block, not
    the trials.  No Multispace is built.
    """
    block = _block_size(gens.shape[1], stack.n)
    for start in range(0, cfg.trials, block):
        rngs = _trial_generators(cfg.seed, start, min(block, cfg.trials - start))
        picked = np.array([pick(rng) for rng in rngs])
        sent = stack[picked]
        ms = sent.dims + sent.heights
        for m in ms.tolist():
            cfg.check_rank(m)
        yield picked, *_channel_block(cfg, rngs, sent, gens[picked, : ms.max()])


def _summarize(cfg: ChannelConfig, blocks, code=None) -> ChannelSummary:
    """Violations and the distance histogram of the blocks _trial_blocks yields,
    as Python ints.

    With a code, each block's received words are decoded against it at once,
    and a trial is a block error when the decoded index differs from the
    sent one (the codewords are distinct); a violation is then also recorded
    when decoding fails although the channel bound guarantees unique
    decoding (bound < min_distance / 2).
    """
    bound = _bound_for(cfg)
    violations = block_errors = max_d = 0
    hist: dict[int, int] = {}
    for sent, received, d, ok in blocks:
        violations += len(ok) - int(ok.sum())
        values, counts = np.unique(d, return_counts=True)
        for value, count in zip(values.tolist(), counts.tolist()):
            hist[value] = hist.get(value, 0) + count
        max_d = max(max_d, int(d.max()))
        if code is not None:
            wrong = int((code._nearest(received)[0] != sent).sum())
            block_errors += wrong
            if wrong and bound < code.min_distance / 2:
                violations += wrong  # unique decoding was guaranteed
    errors = None if code is None else block_errors
    return ChannelSummary(cfg.trials, violations, max_d, hist, errors)


def run_trials(target, cfg: ChannelConfig) -> ChannelRun:
    """Push generating multisets of one multispace through the channel.

    target is either the Multispace (its canonical basis-plus-zeros
    generator is used) or an explicit generating VectorMultiset.
    """
    cfg.validate()
    # the m x m channel matrices of a huge m are refused before the first trial
    if isinstance(target, VectorMultiset):
        _check_budget(len(target) ** 2, "channel matrix entries")
        gen0 = target.matrix
        sent = mspan(target)
    elif isinstance(target, Multispace):
        _check_budget(target.rank ** 2, "channel matrix entries")
        sent = target
        gen0 = target.generating_multiset().matrix
    else:
        raise TypeError("target must be a Multispace or VectorMultiset")
    cfg.check_rank(len(gen0))
    blocks = list(_trial_blocks(cfg, _WordStack.of([sent]), gen0[None], lambda rng: 0))
    # rank(T_eff) = m - _need(cfg) in closed form: every stage has full rank
    # except the rank-deficient one, whose rank _rank_batch checks
    t_rank, bound = len(gen0) - _need(cfg), _bound_for(cfg)
    trials = (t for _, stack, d, ok in blocks for t in zip(stack.words(), d.tolist(), ok.tolist()))
    records = [TrialRecord(i, sent, word, t_rank, dist, bound, good) for i, (word, dist, good) in enumerate(trials)]
    return ChannelRun(records, _summarize(cfg, blocks))


def end_to_end(code, cfg: ChannelConfig) -> ChannelSummary:
    """Sample codewords, run the channel, decode, and count block errors.

    The trials stay columns: no TrialRecord and no received Multispace is
    built.  A codeword too small for the mode's error weight raises
    ConfigInvalid in the first block of trials that samples it.
    """
    cfg.validate()
    if len(code) == 0:
        raise ConfigInvalid("end-to-end run needs a nonempty code")
    _check_budget(code._max_rank ** 2, "channel matrix entries")
    blocks = _trial_blocks(cfg, *code._source(), lambda rng: int(rng.integers(len(code))))
    return _summarize(cfg, blocks, code)


# ---------------------------------------------------------------------------
# Serialization of trial logs
# ---------------------------------------------------------------------------

def write_trial_csv(records: list[TrialRecord], fileobj):
    """One CSV row per trial; multispaces embedded as JSON strings."""
    writer = csv.writer(fileobj)
    writer.writerow(["index", "sent", "received", "t_rank", "distance", "bound", "bound_satisfied"])
    for r in records:
        sent, received = json.dumps(r.sent.to_dict()), json.dumps(r.received.to_dict())
        writer.writerow([r.index, sent, received, r.t_rank, r.distance, r.bound, int(r.bound_satisfied)])


def raise_on_violation(summary) -> None:
    """Turn a nonzero violation count into a BoundViolation error."""
    if summary.violations:
        raise BoundViolation(f"{summary.violations} trials violated a proven bound")
