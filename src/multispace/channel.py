"""Random-linear-network-coding channel acting on generating multisets.

The transmitter sends a generating multiset of a multispace through the stages
of a mode, after Koetter and Kschischang's operator channel: each maps w
vectors gens to T^T gens for a random T over GF(q).  full, a square T of full
rank, keeps the word; delete keeps w - s of the vectors, exactly s below it;
deficient, a square T of rank w - s, moves it at most 2s; a random generator's
mix M is one more full stage, and mixed, M then a full stage's T, is the pair.
A mode's loss and window are the sums over its stages (_STAGES, _channel_block).

Every trial draws its own PRNG substream, so results are independent of
scheduling and reproducible from (config, seed) alone: trial i draws from
default_rng(SeedSequence(seed).spawn(i + 1)[i]), and _trial_generators
builds a block's generators with exactly those PCG64 states in one
vectorised pass of SeedSequence's hash.  Trials run in blocks as arrays:
_Draws reads each trial's raw PCG64 words ahead and maps them as numpy
would, each stage makes its draws for all the block's trials, rejection
sampling ranks each round of candidates with one rank_batch call (one
sampler, _full_rank, for a stage's one matrix or its two of transposed
shapes, at any trial count and field), multispans are one batched
elimination and distances one paired call, while every trial takes the
draws of a one-trial loop.  A block comes out as columns (sent indices,
received words as one stack, distances, bound checks); one summary reads
them for both entry points, and only run_trials builds TrialRecords.
"""

import collections
import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    matmul_arrays,
    rank_batch,
    rref_array,
    rref_batch,
)

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
        check_settings(("trials", self.trials, 0, "trials must be nonnegative"),
                       ("s", self.s, 0, "error weight s must be nonnegative"),
                       ("seed", self.seed, 0, f"seed {self.seed} is negative"))
        if not isinstance(self.random_generator, (bool, np.bool_)):
            raise ConfigInvalid(f"random_generator {self.random_generator!r} is not a bool")
        if not any(_channel(self)[1:]) and self.s:  # _channel refuses an unknown mode; idle stages take no weight
            raise ConfigInvalid(f"{self.mode} mode takes no error weight")

    def check_rank(self, m: int):
        need = _channel(self)[1]
        if m < need:
            raise ConfigInvalid(f"mode {self.mode} with s={self.s} needs rank >= {need}, got {m}")


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


class _Draws:
    """The draws of trial generators, read ahead from their raw PCG64 words.

    FIELD_SIZE_LIMIT keeps every bound a trial draws below 2^32, so each draw
    is numpy's next_uint32: the low, then the high half of a raw word.
    integers(0, q) maps a half u to (u q) >> 32 and passes over u while
    (u q) mod 2^32 < (2^32 - q) mod q (Lemire); permutation(m) swaps i, from
    m - 1 down to 1, with the first u & mask <= i, mask the least 2^b - 1 >= i.
    Row t of buf holds as many of trial t's halves as every other row, from
    the first that some row has not taken on, and cursor pos[t] moves past
    those taken.
    """

    def __init__(self, gens, words: int = 0):
        self.raw = [g.bit_generator.random_raw for g in gens]
        self.buf = np.array([raw(words) for raw in self.raw], dtype="<u8").reshape(len(gens), words).view("<u4")
        self.pos = np.zeros(len(gens), dtype=np.int64)

    def halves(self, trials, width: int) -> np.ndarray:
        """The next width halves of each of trials, (len(trials), width); when one
        of them runs short, the columns every row has taken are dropped and every
        trial reads on a round more than asked."""
        short = int((self.pos[trials] + width).max(initial=0)) - self.buf.shape[1]
        if short > 0:
            lo, words = int(self.pos.min()), max(64, (short + width + 1) // 2)
            new = np.array([raw(words) for raw in self.raw], dtype="<u8").view("<u4")
            self.buf = np.concatenate((self.buf[:, lo:], new), axis=1)
            self.pos -= lo
        return _runs(self.buf, width)[trials, self.pos[trials]]

    def values(self, trials, q: int, count: int):
        """The next count draws of integers(0, q) of each of trials, (len(trials),
        count), and ends: the first v take ends[:, v] halves, or v if ends is None."""
        threshold, width = ((1 << 32) - q) % q, count
        if threshold == 0:  # q a power of two passes over no half
            return self.halves(trials, count) >> (33 - q.bit_length()), None
        while True:
            u = self.halves(trials, width).astype(np.uint64) * np.uint64(q)
            if (u[:, :count] & np.uint64(_WORD)).min(initial=threshold) >= threshold:
                return (u[:, :count] >> np.uint64(32)).astype(np.int64), None
            kept = (u & np.uint64(_WORD)) >= threshold
            if (kept.sum(axis=1) >= count).all():
                at = np.argsort(~kept, axis=1, kind="stable")[:, :count]
                ends = np.concatenate((np.zeros((len(trials), 1), dtype=np.int64), at + 1), axis=1)
                return (np.take_along_axis(u, at, axis=1) >> np.uint64(32)).astype(np.int64), ends
            width *= 2

    def skip(self, trials, counts, ends=None):
        """Move each of trials' cursors past its first counts draws of values."""
        self.pos[trials] += counts if ends is None else ends[np.arange(len(trials)), counts]

    def below(self, count: int) -> np.ndarray:
        """integers(count) of every trial, 1 <= count <= 2^32; count 1 draws nothing."""
        trials = np.arange(len(self.raw))
        if count == 1:
            return np.zeros(len(trials), dtype=np.int64)
        vals, ends = self.values(trials, count, 1)
        self.skip(trials, 1, ends)
        return vals[:, 0]

    def permutations(self, ms: list[int]) -> list[list[int]]:
        """permutation(m) of every trial, each for its m."""
        out, used = [], []
        for t, (m, row) in enumerate(zip(ms, self.halves(np.arange(len(ms)), 2 * max(ms) + 16).tolist())):
            perm, k = list(range(m)), 0
            for i in range(m - 1, 0, -1):
                mask = (1 << i.bit_length()) - 1
                while k == len(row) or row[k] & mask > i:
                    if k == len(row):  # a long run of passed-over halves: read on
                        row = self.halves(np.array([t]), 2 * k)[0].tolist()
                    else:
                        k += 1
                j = row[k] & mask
                perm[i], perm[j], k = perm[j], perm[i], k + 1
            out.append(perm)
            used.append(k)
        self.pos += used
        return out


def _runs(a: np.ndarray, width: int) -> np.ndarray:
    """A (rows, cols - width + 1, width) view of the runs of width entries of each row of a C-contiguous a."""
    return np.ndarray((len(a), a.shape[1] - width + 1, width), a.dtype, a, 0, (a.strides[0], *a.strides[1:] * 2))


def _full_rank(ctx: FieldCtx, draws: _Draws, rows, cols, count: int = 1) -> list[np.ndarray]:
    """count uniform full-rank matrices per trial t, rows[t] x cols[t] and then cols[t] x rows[t],
    as count zero-padded stacks.

    Trial t takes exactly the draws and the matrices of _draw_full_rank called
    count times on its generator.  Both shapes hold rows[t] cols[t] cells, so
    chunk i of a trial's draws is candidate i of either matrix (the second
    ranked transposed, a square chunk once): a trial keeps its first full-rank
    chunk and, for count 2, the next one after it.  Each round draws k chunks
    per unfinished trial (_round_size) and ranks them with one rank_batch call.
    A trial's cursor moves past the last chunk it kept, or all k, and one that
    holds its first matrix looks for its second in the next round.  No trial
    takes over _MAX_TRIES candidates for one matrix, and a round holds at most
    DEFAULT_STATE_LIMIT cells.
    """
    top = (rows.max(), cols.max())
    out = [np.zeros((len(rows), *top), dtype=np.int64), np.zeros((len(rows), *top[::-1]), dtype=np.int64)][:count]
    live = np.flatnonzero(rows * cols)  # an empty matrix takes no draw
    got = np.zeros(len(live), dtype=bool)  # holds its first of two matrices
    tried = np.zeros(len(live), dtype=np.int64)  # candidates drawn for the matrix it seeks
    while len(live):
        r, c = rows[live], cols[live]
        shape, cells = (int(r.max()), int(c.max())), r * c
        box = shape[0] * shape[1]  # the cells of a zero-padded candidate
        reads = 1 if count == 1 or (r == c).all() else 2  # a square chunk is one matrix in either stage
        one = cells.min() == box  # every trial has the block's shape
        k = _round_size(ctx.q, frozenset([shape] if one else zip(r.tolist(), c.tolist())), count, len(live))
        k = min(k, _MAX_TRIES - int(tried.max()), max(1, DEFAULT_STATE_LIMIT // (reads * len(live) * box)))
        if k <= 0:
            t = int(tried.argmax())
            m, n = (c[t], r[t]) if got[t] else (r[t], c[t])
            raise SamplingFailed(f"rejection sampling failed to find a full-rank {m}x{n} matrix")
        vals, ends = draws.values(live, ctx.q, k * cells.max())
        if one:
            cand, late = vals.reshape(len(live), k, *shape), vals.reshape(len(live), k, *shape[::-1])
        else:
            cand = _chunks(vals, r, c, k)
            late = cand if reads == 1 else _chunks(vals, c, r, k)
        both = cand if reads == 1 else np.concatenate((cand, late.swapaxes(2, 3)), axis=1)
        ranks = rank_batch(ctx, both.reshape(-1, *shape)).reshape(len(live), reads, k)
        ok = ranks == np.minimum(r, c)[:, None, None]
        at = np.arange(len(live))
        i = j = ok[:, 0].argmax(axis=1)
        new = done = ok[at, 0, i]
        if count == 2:  # the second matrix from the chunk after the first, or from any once the first is held
            new &= ~got
            later = ok[:, -1] & (np.arange(k) > np.where(got, -1, i)[:, None])
            j = later.argmax(axis=1)
            done = (new | got) & later[at, j]
            out[1][live[done], : shape[1], : shape[0]] = late[done, j[done]]
        out[0][live[new], : shape[0], : shape[1]] = cand[new, i[new]]
        draws.skip(live, np.where(done, j + 1, k) * cells, ends)
        if done.all():
            break
        live, got, tried = live[~done], (got | new)[~done], np.where(new, k - 1 - i, tried + k)[~done]
    return out


@functools.lru_cache(maxsize=4096)
def _round_size(q: int, shapes: frozenset, need: int, trials: int) -> int:
    """The fewest chunks per trial that hold fewer than need full-rank ones with chance at
    most 1 / (8 trials), at the least acceptance rate of an a x b shape, prod (1 - q^(i - b))
    over i < a <= b; cached, as blocks repeat their shapes."""
    hit = min(math.prod(1 - float(q) ** (i - max(a, b)) for i in range(min(a, b))) for a, b in shapes)
    if hit > 1 - 1e-9:
        return need
    k = math.ceil(math.log(8 * trials) / -math.log(1 - hit))  # none passes
    while need > 1 and (1 - hit) ** k + k * hit * (1 - hit) ** (k - 1) > 1 / (8 * trials):  # or just one
        k += 1
    return k


def _chunks(vals: np.ndarray, rows, cols, k: int) -> np.ndarray:
    """Chunks 0 .. k - 1 of each trial t's draws vals[t], chunk i the rows[t] cols[t]
    draws from i rows[t] cols[t] on, read as a rows[t] x cols[t] matrix and zero-padded
    to the largest: (trials, k, rows.max(), cols.max()), for any shapes.  Row a of chunk
    i starts at (i rows[t] + a) cols[t], less than (rows.max() - 1) cols.max() past the
    trial's last chunk, so every run of cols.max() ends within a box of zeros put after
    the draws."""
    shape, cells = (int(rows.max()), int(cols.max())), rows * cols
    vals = np.concatenate((vals, np.zeros((len(vals), math.prod(shape)), dtype=vals.dtype)), axis=1)
    at = np.arange(k)[:, None] * cells[:, None, None] + np.arange(shape[0]) * cols[:, None, None]
    i, j = np.arange(shape[0])[:, None], np.arange(shape[1])
    inside = (i < rows[:, None, None, None]) & (j < cols[:, None, None, None])
    return np.where(inside, _runs(vals, shape[1])[np.arange(len(vals))[:, None, None], at], 0)


def _check_shape(rows, cols) -> None:
    """Refuse, before any draw, a rows x cols matrix that is no shape or past the budget."""
    check_settings(("rows", rows, 0, f"rows {rows} is negative"), ("cols", cols, 0, f"cols {cols} is negative"))
    _check_budget(rows * cols, "channel matrix entries")


def random_matrix(ctx: FieldCtx, rows: int, cols: int, rng) -> np.ndarray:
    _check_shape(rows, cols)
    return rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64)


def _draw_full_rank(ctx: FieldCtx, rows: int, cols: int, rng) -> np.ndarray:
    """The first random_matrix candidate of rank min(rows, cols), of at most _MAX_TRIES."""
    for _ in range(_MAX_TRIES):
        cand = random_matrix(ctx, rows, cols, rng)
        if rref_array(ctx, cand)[1] == min(rows, cols):
            return cand
    raise SamplingFailed(f"rejection sampling failed to find a full-rank {rows}x{cols} matrix")


def random_full_rank(ctx: FieldCtx, m: int, rng) -> np.ndarray:
    """Uniform invertible m x m matrix by rejection (success rate > 0.288)."""
    check_settings(("m", m, 0, f"m {m} is negative"))  # random_matrix checks the budget before a draw
    return _draw_full_rank(ctx, m, m, rng)


def random_rank(ctx: FieldCtx, rows: int, cols: int, r: int, rng) -> np.ndarray:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols);
    for r = 0 both are empty, draw nothing, and give the zero matrix."""
    _check_shape(rows, cols)
    check_settings(("r", r, None, ""))
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    prod = matmul_arrays(ctx, _draw_full_rank(ctx, rows, r, rng), _draw_full_rank(ctx, r, cols, rng))
    if rref_array(ctx, prod)[1] != r:  # full-rank factors give rank r
        raise ShapeViolation(f"product of full-rank factors lost rank {r}")
    return prod


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
# Stages and trials
# ---------------------------------------------------------------------------

def _transform(ctx: FieldCtx, gens: np.ndarray, *ts: np.ndarray) -> np.ndarray:
    """T^T gens for each trial's stage matrix T in turn: a mix M, then T, gives (M T)^T gens."""
    for t in ts:
        gens = matmul_arrays(ctx, np.swapaxes(t, 1, 2), gens)
    return gens


def _delete(ctx: FieldCtx, gens: np.ndarray, w: np.ndarray, s: int, perms: list[list[int]]) -> np.ndarray:
    """The rows sorted(perm[:w - s]) of gens, padded with row 0, zeroed, to the block's largest w - s."""
    top = int(w.max()) - s
    kept = np.array([sorted(p[: m - s]) + [0] * (top - m + s) for p, m in zip(perms, w.tolist())], dtype=np.int64)
    return gens[np.arange(len(w))[:, None], kept] * (np.arange(top)[:, None] < (w - s)[:, None, None])


def _deficient(ctx: FieldCtx, gens: np.ndarray, w: np.ndarray, s: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T^T gens for T = A B, of rank w - s from its full-rank factors."""
    t = matmul_arrays(ctx, a, b)
    lost = np.flatnonzero(rank_batch(ctx, t) != w - s)  # full-rank factors give rank w - s
    if len(lost):
        raise ShapeViolation(f"product of full-rank factors lost rank {(w - s)[lost[0]]}")
    return _transform(ctx, gens, t)


#: A stage on each trial's w vectors: draw(ctx, draws, w, s), its matrices for the block in a
#: trial's order (two of transposed shapes from one _full_rank call); run(ctx, gens, w, s,
#: *drawn), the vectors it passes on; (rank loss, least, largest distance) in units of s, least
#: the drop in length.
_Stage = collections.namedtuple("_Stage", "draw run window")
_FULL = _Stage(lambda ctx, draws, w, s: _full_rank(ctx, draws, w, w),
               lambda ctx, gens, w, s, t: _transform(ctx, gens, t), (0, 0, 0))
_MIXED = _Stage(lambda ctx, draws, w, s: _full_rank(ctx, draws, w, w, 2),
                lambda ctx, gens, w, s, mix, t: _transform(ctx, gens, mix, t), (0, 0, 0))
_DELETE = _Stage(lambda ctx, draws, w, s: [draws.permutations(w.tolist())], _delete, (1, 1, 1))
_DEFICIENT = _Stage(lambda ctx, draws, w, s: _full_rank(ctx, draws, w, w - s, 2), _deficient, (1, 0, 2))
#: mode -> its stages, in the order a trial draws them
_STAGES = {"full-rank": (_FULL,), "deletion": (_FULL, _DELETE), "rank-deficient": (_DEFICIENT,),
           "compound": (_FULL, _DELETE, _DEFICIENT)}
MODES = tuple(_STAGES)


def _channel(cfg: ChannelConfig) -> tuple:
    """(stages, rank loss, least, largest distance) of cfg: _plan's stages and window sums times s."""
    if cfg.mode not in _STAGES:
        raise ConfigInvalid(f"unknown mode {cfg.mode!r}; pick one of {MODES}")
    stages, *window = _plan(cfg.mode, bool(cfg.random_generator))
    return stages, *(cfg.s * w for w in window)


@functools.lru_cache(maxsize=None)
def _plan(mode: str, random_generator: bool) -> tuple:
    """A mode's stages in the order a trial draws them, a random generator's mix first (merged into a
    leading full stage, with whose matrix it shares a rank pass), and the sums of their windows in units
    of s (proof at _channel_block), built once; rank losses add, as a deficient stage comes last."""
    stages = _STAGES[mode]
    if random_generator:
        stages = (_MIXED, *stages[1:]) if stages[0] is _FULL else (_FULL, *stages)
    return stages, *map(sum, zip(*(stage.window for stage in stages)))


def _channel_block(cfg: ChannelConfig, draws: _Draws, sent: _WordStack, gens: np.ndarray):
    """The stack of received words, the distances and the bound checks of one block of trials.

    Trial t sends row t of the stack sent, whose generating multiset is
    gens[t, :m] for its rank m, and takes trial t of draws: first the
    stages' draws, in a single trial's order and each for the whole block,
    then the stages in order.  Arrays are zero-padded; zero rows change no
    rank.  A trial is ok when least <= d <= most, by _channel, and the
    received space lies in the sent one, as every stage's vectors combine
    the ones it got: just then paired's dim(W + X) is dim W.

    Windows add.  With W_i the word after stage i of k, d(W_(i-1), W_i) <=
    most_i s (module docstring), so d(W_0, W_k) <= sum most_i s by the
    triangle inequality; and d = rank(W_0 v W_k) - rank(W_0 ^ W_k) >=
    |rank W_0 - rank W_k|, the drop in the multiset's length, sum least_i s.
    """
    ctx, s, ms = sent.ctx, cfg.s, sent.dims + sent.heights
    stages, _, least, most = _channel(cfg)
    ws = [ms - drop * s for drop in itertools.accumulate((stage.window[1] for stage in stages), initial=0)]
    drawn = [stage.draw(ctx, draws, w, s) for stage, w in zip(stages, ws)]  # w: the length before each stage
    for stage, w, mats in zip(stages, ws, drawn):
        gens = stage.run(ctx, gens, w, s, *mats)
    bases, ranks = rref_batch(ctx, gens)  # the received word's rank; its height is its length - rank
    stack = _WordStack(ctx, sent.n, bases[:, : ranks.max()], ranks, ws[-1] - ranks)
    d, joins = sent.paired(stack)
    return stack, d, (least <= d) & (d <= most) & (joins == sent.dims)


def _block_size(m_max: int, n: int) -> int:
    """Trials per block: _BLOCK, or fewer so that a block's stacked arrays,
    padded to the largest m x max(m, n) of its trials, stay within
    DEFAULT_STATE_LIMIT entries."""
    return max(1, min(_BLOCK, DEFAULT_STATE_LIMIT // max(1, m_max * max(m_max, n))))


def _trial_blocks(cfg: ChannelConfig, stack: _WordStack, gens: np.ndarray | None = None):
    """Yield (sent indices, received stack, distances, bound checks) of each
    block of trials, in order, as arrays with one row per trial.

    Word i is row i of stack.  Its generating multiset of m = rank rows is
    gens[i, :m] when the caller has explicit generators, and otherwise the
    canonical one, its basis and then zero rows, which each block pads from
    its sent rows.  Each trial's first draw is integers(len(stack)), the
    index of the word it sends; a stack of one word takes no draw.  Trials
    run in blocks of _block_size(largest m, n): every word of a block is
    picked and rank-checked before any channel draw, its rows and
    generators are taken by index, and the block's draws, multispans and
    distances are batched, so memory grows with the block, not the trials.
    No Multispace is built.  The m x m channel matrices of the largest m
    are refused past the entry budget before the first trial.
    """
    top = int((stack.dims + stack.heights).max())
    _check_budget(top ** 2, "channel matrix entries")
    block, need = _block_size(top, stack.n), _channel(cfg)[1]
    for start in range(0, cfg.trials, block):
        count = min(block, cfg.trials - start)
        words = min(8 + 16 * top ** 2, DEFAULT_STATE_LIMIT // (8 * count))  # the pick and about two stages
        draws = _Draws(_trial_generators(cfg.seed, start, count), words)
        picked = draws.below(len(stack.dims))
        sent = stack[picked]
        ms = sent.dims + sent.heights
        for m in ms[ms < need][:1].tolist():  # the first short rank, if any
            cfg.check_rank(m)
        if gens is None:  # each basis, then zero rows; basis rows past the block's largest rank are padding
            rows = np.zeros((len(ms), ms.max(), stack.n), dtype=np.int64)
            depth = min(ms.max(), sent.bases.shape[1])
            rows[:, :depth] = sent.bases[:, :depth]
        else:
            rows = gens[picked, : ms.max()]
        yield picked, *_channel_block(cfg, draws, sent, rows)


def _summarize(cfg: ChannelConfig, blocks, code=None) -> ChannelSummary:
    """Violations and the distance histogram of the blocks _trial_blocks yields,
    as Python ints.

    With a code, each block's received words are decoded against it at once,
    and a trial is a block error when the decoded index differs from the
    sent one (the codewords are distinct); a violation is then also recorded
    when decoding fails although the channel bound guarantees unique
    decoding (bound < min_distance / 2).
    """
    bound = _channel(cfg)[3]
    violations = block_errors = max_d = 0
    hist: dict[int, int] = {}
    for sent, received, d, ok in blocks:
        violations += len(ok) - int(ok.sum())
        counts = np.bincount(d)
        for value in np.flatnonzero(counts).tolist():
            hist[value] = hist.get(value, 0) + int(counts[value])
        max_d = max(max_d, len(counts) - 1)
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
    if isinstance(target, VectorMultiset):
        sent, gens = mspan(target), target.matrix[None]
    elif isinstance(target, Multispace):
        sent, gens = target, None
    else:
        raise TypeError("target must be a Multispace or VectorMultiset")
    cfg.check_rank(sent.rank)
    blocks = list(_trial_blocks(cfg, _WordStack.of([sent]), gens))
    _, loss, _, bound = _channel(cfg)  # rank(T_eff) = m - loss in closed form
    t_rank = sent.rank - loss
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
    blocks = _trial_blocks(cfg, code._words())
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
