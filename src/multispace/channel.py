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
  compound        deletion followed by rank deficiency; distances are
                  reported without assertion (no proven compound bound)

Every trial draws its own PRNG substream (PCG64 seeded through
SeedSequence(seed).spawn), so results are independent of scheduling and
reproducible from (config, seed) alone.  Trials run in blocks as arrays:
each stage of a block draws for all its trials at once, rejection sampling
redraws in rounds, and ranks, multispans and distances are batched
eliminations, while every substream sees the calls of a one-trial loop.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .codes import decode
from .errors import BoundViolation, ConfigInvalid, SamplingFailed, ShapeMismatch, ShapeViolation
from .fields import FieldCtx
from .lattice import Multispace, VectorMultiset, _WordStack, mspan
from .linalg import DEFAULT_STATE_LIMIT, FqMatrix, Subspace, _check_budget, _pad_stack, matmul_arrays, rref_batch

#: mode -> (rank the sent multispace needs, proven distance bound), in units of s;
#: a bound of None means the mode is observational only
_MODE_TABLE = {
    "full-rank": (0, 0),
    "deletion": (1, 1),
    "rank-deficient": (1, 2),
    "compound": (2, None),
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
        if self.trials < 0:
            raise ConfigInvalid("trials must be nonnegative")
        if self.s < 0:
            raise ConfigInvalid("error weight s must be nonnegative")
        if self.mode == "full-rank" and self.s:
            raise ConfigInvalid("full-rank mode takes no error weight")

    def check_rank(self, m: int):
        need = _need(self)
        if m < need:
            raise ConfigInvalid(f"mode {self.mode} with s={self.s} needs rank >= {need}, got {m}")


def _need(cfg: ChannelConfig) -> int:
    """Rank the channel takes away: rank(T_eff) = m - _need(cfg)."""
    return _MODE_TABLE[cfg.mode][0] * cfg.s


def _bound_for(cfg: ChannelConfig) -> int | None:
    factor = _MODE_TABLE[cfg.mode][1]
    return None if factor is None else factor * cfg.s


@dataclass
class TrialRecord:
    index: int
    sent: Multispace
    received: Multispace
    t_rank: int
    distance: int
    bound: int | None
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

def apply_transform(b: VectorMultiset, T: FqMatrix) -> VectorMultiset:
    """b'_j = sum_i T[i][j] b_i; output has one vector per column of T."""
    b.ctx.check_same(T.ctx)
    if T.rows != len(b):
        raise ShapeMismatch(f"T has {T.rows} rows but the multiset has {len(b)} vectors")
    out = matmul_arrays(b.ctx, T.array.T, b.matrix)
    return VectorMultiset(b.ctx, b.n, out)


def random_matrix(ctx: FieldCtx, rows: int, cols: int, rng) -> FqMatrix:
    return FqMatrix(ctx, rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64))


def _full_rank_batch(ctx: FieldCtx, rngs, rows, cols, max_tries: int) -> np.ndarray:
    """One uniform rows[i] x cols[i] matrix of rank min(rows[i], cols[i]) per rngs[i].

    Batched rejection: in each round every pending trial draws its next
    candidate from its own generator, one rref_batch ranks all candidates,
    and only the rejected trials draw again, so each generator sees the calls
    of a one-trial rejection loop.  The matrices come zero-padded into one
    (len(rngs), max rows, max cols) stack; zero rows and columns change no rank.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.zeros((len(rngs), rows.max(), cols.max()), dtype=np.int64)
    full = np.minimum(rows, cols)
    pending = np.arange(len(rngs))
    for _ in range(max_tries):
        if not len(pending):
            break
        draws = [rngs[i].integers(0, ctx.q, size=(rows[i], cols[i]), dtype=np.int64) for i in pending]
        cand = _pad_stack(draws, out.shape[1:])
        ok = rref_batch(ctx, cand)[1] == full[pending]
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    if len(pending):
        i = pending[0]
        raise SamplingFailed(f"rejection sampling failed to find a full-rank {rows[i]}x{cols[i]} matrix")
    return out


def _rank_batch(ctx: FieldCtx, rngs, rows, cols, r, max_tries: int) -> np.ndarray:
    """One rows[i] x cols[i] matrix of exact rank r[i] per rngs[i], zero-padded into one stack.

    Each is a full-rank A (rows x r) times a full-rank B (r x cols), A drawn
    before B; a trial with r = 0 draws nothing and gets the zero matrix.
    """
    rows, cols, r = np.asarray(rows), np.asarray(cols), np.asarray(r)
    out = np.zeros((len(rngs), rows.max(), cols.max()), dtype=np.int64)
    live = np.flatnonzero(r > 0)
    if len(live):
        drawers = [rngs[i] for i in live]
        a = _full_rank_batch(ctx, drawers, rows[live], r[live], max_tries)
        b = _full_rank_batch(ctx, drawers, r[live], cols[live], max_tries)
        prod = matmul_arrays(ctx, a, b)
        lost = np.flatnonzero(rref_batch(ctx, prod)[1] != r[live])  # full-rank factors give rank r
        if len(lost):
            raise ShapeViolation(f"product of full-rank factors lost rank {r[live[lost[0]]]}")
        out[live, : prod.shape[1], : prod.shape[2]] = prod
    return out


def random_full_rank(ctx: FieldCtx, m: int, rng, max_tries: int = _MAX_TRIES) -> FqMatrix:
    """Uniform invertible m x m matrix by rejection (success rate > 0.288)."""
    return FqMatrix(ctx, _full_rank_batch(ctx, [rng], [m], [m], max_tries)[0])


def random_rank(ctx: FieldCtx, rows: int, cols: int, r: int, rng, max_tries: int = _MAX_TRIES) -> FqMatrix:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols)."""
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    return FqMatrix(ctx, _rank_batch(ctx, [rng], [rows], [cols], [r], max_tries)[0])


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _channel_block(cfg: ChannelConfig, rngs, picked):
    """Received words, distances and bound checks of one block of trials.

    picked[t] = (sent multispace, generating (m, n) array) of trial t, drawn
    from rngs[t].  The stages draw in the order of a single trial (random
    generator; mix, deletion permutation and rank-deficient factors of the
    mode), each stage for the whole block at once, so every generator sees
    the same calls in the same order as a one-trial loop.  All arrays are
    zero-padded to the block's largest m; zero rows change no rank.
    """
    sent = _WordStack.of([w for w, _ in picked])
    ctx, n, s = sent.ctx, sent.n, cfg.s
    ms = np.array([len(gen) for _, gen in picked])
    gens = _pad_stack([gen for _, gen in picked], (ms.max(), n))
    if cfg.random_generator:
        mix = _full_rank_batch(ctx, rngs, ms, ms, _MAX_TRIES)
        gens = matmul_arrays(ctx, np.swapaxes(mix, 1, 2), gens)
    if cfg.mode == "rank-deficient":
        t_eff = _rank_batch(ctx, rngs, ms, ms, ms - s, _MAX_TRIES)
    else:
        t_eff = _full_rank_batch(ctx, rngs, ms, ms, _MAX_TRIES)
    widths = ms  # columns of T_eff: the length of each received multiset
    if cfg.mode in ("deletion", "compound"):  # keep m - s of the mixed columns
        widths = ms - s
        kept = [a[:m, np.sort(rng.permutation(m)[: m - s])] for a, rng, m in zip(t_eff, rngs, ms.tolist())]
        t_eff = _pad_stack(kept, (ms.max(), widths.max()))
    if cfg.mode == "compound":  # then a rank-deficient square stage on the survivors
        t_eff = matmul_arrays(ctx, t_eff, _rank_batch(ctx, rngs, widths, widths, ms - 2 * s, _MAX_TRIES))
    # received word: rank of the received multiset, height = its length - rank
    bases, ranks = rref_batch(ctx, matmul_arrays(ctx, np.swapaxes(t_eff, 1, 2), gens))
    heights = widths - ranks
    d, joins = sent.paired(_WordStack(ctx, n, bases[:, : ranks.max()], ranks, heights))
    if cfg.mode == "full-rank":
        ok = d == 0  # the metric vanishes exactly on equal multispaces
    elif cfg.mode == "deletion":
        ok = d == s  # distance is exactly s, not merely bounded
    elif cfg.mode == "rank-deficient":
        # rank preserved, and dim(S + R) = dim S puts the received space inside the sent one
        ok = (d <= 2 * s) & (widths == sent.dims + sent.heights) & (joins == sent.dims)
    else:
        ok = np.ones(len(picked), dtype=bool)  # compound: observational only
    received = [
        Multispace(Subspace(ctx, n, bases[t, :r].copy()), h)
        for t, (r, h) in enumerate(zip(ranks.tolist(), heights.tolist()))
    ]
    return received, d.tolist(), ok.tolist()


def _block_size(m_max: int, n: int) -> int:
    """Trials per block: _BLOCK, or fewer so that a block's stacked arrays,
    padded to the largest m x max(m, n) of its trials, stay within
    DEFAULT_STATE_LIMIT entries."""
    return max(1, min(_BLOCK, DEFAULT_STATE_LIMIT // max(1, m_max * max(m_max, n))))


def _trial_loop(cfg: ChannelConfig, pick, m_max: int, n: int):
    """Yield the TrialRecord of every trial in order; the loop behind run_trials and end_to_end.

    pick(rng) returns the sent multispace and its generating multiset as an
    (m, n) array with m <= m_max; it is the first draw of every trial, so
    end-to-end runs draw the codeword index before the channel matrices.
    Trials run in blocks of _block_size(m_max, n): every word of a block is
    picked and rank-checked before any channel draw, and the block's draws,
    multispans and distances are batched eliminations, so memory grows with
    the block, not the trials.
    """
    bound = _bound_for(cfg)
    # rank(T_eff) = m - lost in closed form: every stage has full rank except
    # the rank-deficient one, whose rank _rank_batch checks
    lost = _need(cfg)
    block = _block_size(m_max, n)
    root = np.random.SeedSequence(cfg.seed)
    for start in range(0, cfg.trials, block):
        rngs = [np.random.default_rng(ss) for ss in root.spawn(min(block, cfg.trials - start))]
        picked = [pick(rng) for rng in rngs]
        for _, gen in picked:
            cfg.check_rank(len(gen))
        received, dists, oks = _channel_block(cfg, rngs, picked)
        for k, ((sent, gen), word, d, ok) in enumerate(zip(picked, received, dists, oks)):
            yield TrialRecord(start + k, sent, word, len(gen) - lost, d, bound, ok)


def _summarize(cfg: ChannelConfig, records, code=None) -> ChannelSummary:
    """Violations and the distance histogram of a stream of trial records.

    With a code, every received word is decoded against it and block errors
    are counted; a violation is then also recorded when decoding fails
    although the channel bound guarantees unique decoding (bound <
    min_distance / 2).
    """
    bound = _bound_for(cfg)
    violations = 0
    block_errors = 0
    hist: dict[int, int] = {}
    max_d = 0
    for rec in records:
        violations += not rec.bound_satisfied
        hist[rec.distance] = hist.get(rec.distance, 0) + 1
        max_d = max(max_d, rec.distance)
        if code is not None and decode(code, rec.received)[0] != rec.sent:
            block_errors += 1
            if bound is not None and bound < code.min_distance / 2:
                violations += 1  # unique decoding was guaranteed
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
    records = list(_trial_loop(cfg, lambda rng: (sent, gen0), len(gen0), sent.n))
    return ChannelRun(records, _summarize(cfg, records))


def end_to_end(code, cfg: ChannelConfig) -> ChannelSummary:
    """Sample codewords, run the channel, decode, and count block errors.

    A codeword too small for the mode's error weight raises ConfigInvalid
    in the first block of trials that samples it.
    """
    cfg.validate()
    if len(code) == 0:
        raise ConfigInvalid("end-to-end run needs a nonempty code")
    m_max = max(w.rank for w in code)
    _check_budget(m_max ** 2, "channel matrix entries")

    def pick(rng):
        w = code.codewords[int(rng.integers(len(code)))]
        return w, w.generating_multiset().matrix

    return _summarize(cfg, _trial_loop(cfg, pick, m_max, code.n), code)  # records are not kept


# ---------------------------------------------------------------------------
# Serialization of trial logs
# ---------------------------------------------------------------------------

def write_trial_csv(records: list[TrialRecord], fileobj):
    """One CSV row per trial; multispaces embedded as JSON strings."""
    writer = csv.writer(fileobj)
    writer.writerow(
        ["index", "sent", "received", "t_rank", "distance", "bound", "bound_satisfied"]
    )
    for r in records:
        writer.writerow(
            [
                r.index,
                json.dumps(r.sent.to_dict()),
                json.dumps(r.received.to_dict()),
                r.t_rank,
                r.distance,
                "" if r.bound is None else r.bound,
                int(r.bound_satisfied),
            ]
        )


def raise_on_violation(summary) -> None:
    """Turn a nonzero violation count into a BoundViolation error."""
    if summary.violations:
        raise BoundViolation(f"{summary.violations} trials violated a proven bound")
