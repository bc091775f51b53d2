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
reproducible from (config, seed) alone.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .codes import decode
from .errors import BoundViolation, ConfigInvalid, SamplingFailed, ShapeMismatch, ShapeViolation
from .fields import FieldCtx
from .lattice import Multispace, VectorMultiset, distance, mspan
from .linalg import FqMatrix, matmul_arrays, rref_array

#: mode -> (rank the sent multispace needs, proven distance bound), in units of s;
#: a bound of None means the mode is observational only
_MODE_TABLE = {
    "full-rank": (0, 0),
    "deletion": (1, 1),
    "rank-deficient": (1, 2),
    "compound": (2, None),
}
MODES = tuple(_MODE_TABLE)


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


def _full_rank_draw(ctx: FieldCtx, rows: int, cols: int, rng, max_tries: int) -> FqMatrix:
    """Uniform rows x cols matrix of rank min(rows, cols), by rejection."""
    for _ in range(max_tries):
        cand = random_matrix(ctx, rows, cols, rng)
        if rref_array(ctx, cand.array)[1] == min(rows, cols):
            return cand
    raise SamplingFailed(f"rejection sampling failed to find a full-rank {rows}x{cols} matrix")


def random_full_rank(ctx: FieldCtx, m: int, rng, max_tries: int = 1000) -> FqMatrix:
    """Uniform invertible m x m matrix by rejection (success rate > 0.288)."""
    return _full_rank_draw(ctx, m, m, rng, max_tries)


def random_rank(ctx: FieldCtx, rows: int, cols: int, r: int, rng, max_tries: int = 1000) -> FqMatrix:
    """Random rows x cols matrix of exact rank r, as a full-rank A (rows x r) times B (r x cols)."""
    if r > min(rows, cols) or r < 0:
        raise ConfigInvalid(f"rank {r} impossible for a {rows}x{cols} matrix")
    if r == 0:
        return FqMatrix.zeros(ctx, rows, cols)
    a = _full_rank_draw(ctx, rows, r, rng, max_tries)
    b = _full_rank_draw(ctx, r, cols, rng, max_tries)
    out = a @ b
    if rref_array(ctx, out.array)[1] != r:  # full-rank factors give rank r
        raise ShapeViolation(f"product of full-rank factors lost rank {r}")
    return out


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _effective_transform(ctx: FieldCtx, m: int, cfg: ChannelConfig, rng) -> FqMatrix:
    """Draw the channel matrix for one trial."""
    s = cfg.s
    if cfg.mode == "full-rank":
        return random_full_rank(ctx, m, rng)
    if cfg.mode == "deletion":
        mix = random_full_rank(ctx, m, rng)
        keep = np.sort(rng.permutation(m)[: m - s])
        return FqMatrix(ctx, mix.array[:, keep])
    if cfg.mode == "rank-deficient":
        return random_rank(ctx, m, m, m - s, rng)
    # compound: delete s, then a rank-deficient square stage on the survivors
    mix = random_full_rank(ctx, m, rng)
    keep = np.sort(rng.permutation(m)[: m - s])
    stage1 = FqMatrix(ctx, mix.array[:, keep])
    stage2 = random_rank(ctx, m - s, m - s, m - 2 * s, rng)
    return stage1 @ stage2


def _trial_ok(cfg: ChannelConfig, sent: Multispace, received: Multispace, d: int) -> bool:
    if cfg.mode == "full-rank":
        return received == sent
    if cfg.mode == "deletion":
        return d == cfg.s  # distance is exactly s, not merely bounded
    if cfg.mode == "rank-deficient":
        return (
            d <= 2 * cfg.s
            and received.rank == sent.rank
            and received.underlying <= sent.underlying
        )
    return True  # compound: observational only


def _trial_loop(cfg: ChannelConfig, pick, code=None) -> ChannelRun:
    """The trial loop behind run_trials and end_to_end.

    pick(rng) returns the sent multispace and its generating multiset; it
    is the first draw of every trial, so end-to-end runs draw the codeword
    index before the channel matrices.  With a code, every received word
    is decoded against it and block errors are counted; a violation is
    then also recorded when decoding fails although the channel bound
    guarantees unique decoding (bound < min_distance / 2).
    """
    bound = _bound_for(cfg)
    # rank(T_eff) = m - lost in closed form: every stage of _effective_transform
    # has full rank except the rank-deficient one, whose rank random_rank checks
    lost = _need(cfg)
    records = []
    violations = 0
    block_errors = 0
    hist: dict[int, int] = {}
    max_d = 0
    for idx, ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        rng = np.random.default_rng(ss)
        sent, gen = pick(rng)
        ctx = sent.ctx
        m = len(gen)
        cfg.check_rank(m)
        if cfg.random_generator:
            gen = apply_transform(gen, random_full_rank(ctx, m, rng))
        t_eff = _effective_transform(ctx, m, cfg, rng)
        received = mspan(apply_transform(gen, t_eff))
        d = distance(sent, received)
        ok = _trial_ok(cfg, sent, received, d)
        records.append(TrialRecord(idx, sent, received, m - lost, d, bound, ok))
        violations += not ok
        hist[d] = hist.get(d, 0) + 1
        max_d = max(max_d, d)
        if code is not None and decode(code, received)[0] != sent:
            block_errors += 1
            if bound is not None and bound < code.min_distance / 2:
                violations += 1  # unique decoding was guaranteed
    errors = None if code is None else block_errors
    return ChannelRun(records, ChannelSummary(cfg.trials, violations, max_d, hist, errors))


def run_trials(target, cfg: ChannelConfig) -> ChannelRun:
    """Push generating multisets of one multispace through the channel.

    target is either the Multispace (its canonical basis-plus-zeros
    generator is used) or an explicit generating VectorMultiset.
    """
    cfg.validate()
    if isinstance(target, VectorMultiset):
        gen0 = target
        sent = mspan(gen0)
    elif isinstance(target, Multispace):
        sent = target
        gen0 = target.generating_multiset()
    else:
        raise TypeError("target must be a Multispace or VectorMultiset")
    cfg.check_rank(len(gen0))
    return _trial_loop(cfg, lambda rng: (sent, gen0))


def end_to_end(code, cfg: ChannelConfig) -> ChannelSummary:
    """Sample codewords, run the channel, decode, and count block errors.

    A codeword too small for the mode's error weight raises ConfigInvalid
    in the first trial that samples it.
    """
    cfg.validate()
    if len(code) == 0:
        raise ConfigInvalid("end-to-end run needs a nonempty code")

    def pick(rng):
        w = code.codewords[int(rng.integers(len(code)))]
        return w, w.generating_multiset()

    return _trial_loop(cfg, pick, code).summary


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
