import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    effective_transform,
    full_rank_draw,
    random_multiset,
    random_multispace,
    serial_trial_loop,
)
from multispace import channel
from multispace.channel import (
    MODES,
    ChannelConfig,
    _trial_loop,
    apply_transform,
    end_to_end,
    ChannelRun,
    raise_on_violation,
    random_full_rank,
    random_matrix,
    random_rank,
    run_trials,
    write_trial_csv,
    ChannelSummary,
)
from multispace.codes import MultispaceCode
from multispace.errors import (
    BoundViolation,
    ConfigInvalid,
    LimitExceeded,
    MultispaceError,
    SamplingFailed,
    ShapeMismatch,
)
from multispace.fields import field
from multispace.lattice import (
    Multispace,
    VectorMultiset,
    distance,
    enumerate_multispaces,
    mspan,
)
from multispace.linalg import DEFAULT_STATE_LIMIT, FqMatrix, FqVector, Subspace, rref_array, subspace_leq

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)
FIELDS = {2: F2, 3: F3, 4: F4, 5: F5}
#: rank the channel takes away per unit of s, by mode
NEED_PER_S = {"full-rank": 0, "deletion": 1, "rank-deficient": 1, "compound": 2}


def test_apply_transform_identity_and_zero():
    b = VectorMultiset(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert apply_transform(b, FqMatrix.identity(F2, 2)) == b
    zeroed = apply_transform(b, FqMatrix.zeros(F2, 2, 3))
    assert mspan(zeroed) == Multispace(Subspace.zero(F2, 3), 3)
    with pytest.raises(ShapeMismatch):
        apply_transform(b, FqMatrix.identity(F2, 3))


def test_apply_transform_columns_combine():
    b = VectorMultiset(F3, 2, [[1, 0], [0, 1]])
    t = FqMatrix.from_rows(F3, [[1, 2], [1, 0]])
    out = apply_transform(b, t)
    # b'_0 = 1*b_0 + 1*b_1, b'_1 = 2*b_0 + 0*b_1
    assert out.matrix.tolist() == [[1, 1], [2, 0]]


def test_full_rank_preserves_mspan():
    rng = np.random.default_rng(0)
    for ctx in (F2, F3, F4):
        for _ in range(30):
            w = random_multispace(ctx, 3, rng)
            b = w.generating_multiset()
            t = random_full_rank(ctx, len(b), rng)
            assert mspan(apply_transform(b, t)) == w


def test_random_matrix_ranks():
    rng = np.random.default_rng(1)
    for ctx in (F2, F3):
        assert random_full_rank(ctx, 0, rng).shape == (0, 0)
        for m in (1, 3, 5):
            t = random_full_rank(ctx, m, rng)
            assert rref_array(ctx, t.array)[1] == m
        for (rows, cols, r) in [(4, 4, 2), (3, 5, 0), (5, 3, 3), (4, 2, 1)]:
            t = random_rank(ctx, rows, cols, r, rng)
            assert t.shape == (rows, cols)
            assert rref_array(ctx, t.array)[1] == r
    with pytest.raises(ConfigInvalid):
        random_rank(F2, 2, 2, 3, rng)
    # an exhausted try budget is a toolkit error, not a bare RuntimeError
    with pytest.raises(SamplingFailed):
        random_full_rank(F2, 3, rng, max_tries=0)
    with pytest.raises(SamplingFailed):
        random_rank(F2, 3, 3, 2, rng, max_tries=0)


def test_deletion_distance_is_exactly_s():
    rng = np.random.default_rng(2)
    for s in (1, 2):
        for _ in range(10):
            w = random_multispace(F2, 4, rng)
            if w.rank < s:
                continue
            run = run_trials(w, ChannelConfig("deletion", trials=50, s=s, seed=int(rng.integers(1 << 30))))
            assert run.summary.violations == 0
            assert set(run.summary.histogram) == {s}


def test_direct_low_rank_transform_also_gives_exact_distance():
    # T sampled directly as an m x (m-s) matrix of full column rank,
    # without the mix-then-delete factorization
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = random_multispace(F3, 3, rng)
        m = w.rank
        s = int(rng.integers(0, m + 1))
        b = w.generating_multiset()
        t = random_rank(F3, m, m - s, m - s, rng)
        received = mspan(apply_transform(b, t))
        assert distance(w, received) == s


def test_rank_deficient_bound_containment_and_rank():
    rng = np.random.default_rng(4)
    for s in (1, 2):
        for _ in range(8):
            w = random_multispace(F2, 4, rng)
            if w.rank < s:
                continue
            run = run_trials(w, ChannelConfig("rank-deficient", trials=40, s=s, seed=int(rng.integers(1 << 30))))
            assert run.summary.violations == 0
            assert run.summary.max_distance <= 2 * s
            for rec in run.records:
                assert rec.received.rank == w.rank
                assert subspace_leq(rec.received.underlying, w.underlying)


def test_compound_mode_reports_without_assertion():
    w = Multispace(Subspace.full(F2, 3), 1)  # rank 4, enough for two error stages
    run = run_trials(w, ChannelConfig("compound", trials=30, s=1, seed=9))
    assert run.summary.violations == 0
    assert sum(run.summary.histogram.values()) == 30


def test_run_trials_with_explicit_generator():
    b = VectorMultiset(F2, 3, [[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    run = run_trials(b, ChannelConfig("full-rank", trials=20, seed=0))
    assert run.summary.violations == 0
    assert run.records[0].sent == mspan(b)


def test_random_generator_option():
    rng = np.random.default_rng(6)
    w = random_multispace(F3, 3, rng)
    cfg = ChannelConfig("full-rank", trials=30, seed=11, random_generator=True)
    assert run_trials(w, cfg).summary.violations == 0


def test_determinism():
    w = Multispace(Subspace.full(F2, 3), 2)
    cfg = ChannelConfig("rank-deficient", trials=40, s=2, seed=123)
    r1 = run_trials(w, cfg)
    r2 = run_trials(w, cfg)
    assert [r.received for r in r1.records] == [r.received for r in r2.records]
    assert [r.t_rank for r in r1.records] == [r.t_rank for r in r2.records]
    assert r1.summary == r2.summary


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ChannelConfig("nonsense", trials=1).validate()
    with pytest.raises(ConfigInvalid):
        ChannelConfig("deletion", trials=1, s=-1).validate()
    with pytest.raises(ConfigInvalid):
        ChannelConfig("full-rank", trials=1, s=1).validate()
    w = Multispace.bottom(F2, 3)
    with pytest.raises(ConfigInvalid):
        run_trials(w, ChannelConfig("deletion", trials=1, s=1, seed=0))


def test_end_to_end_full_rank_never_errs():
    code = MultispaceCode(F2, 3, 1, tuple(enumerate_multispaces(F2, 3, 1)))
    summary = end_to_end(code, ChannelConfig("full-rank", trials=100, seed=0))
    assert summary.block_errors == 0 and summary.violations == 0
    assert summary.block_error_rate == 0.0


def test_end_to_end_deletion_within_unique_radius():
    a = Multispace(Subspace.full(F2, 3), 0)
    b = Multispace(Subspace.zero(F2, 3), 3)
    code = MultispaceCode(F2, 3, 3, (a, b))  # min distance 6
    for s in (1, 2):
        summary = end_to_end(code, ChannelConfig("deletion", trials=100, s=s, seed=s))
        assert summary.block_errors == 0 and summary.violations == 0
        assert set(summary.histogram) == {s}


def test_end_to_end_outside_guarantee_reports_rate():
    # min distance 2; rank-deficient s=1 gives distances up to 2
    code = MultispaceCode(F2, 3, 1, tuple(enumerate_multispaces(F2, 3, 1)))
    summary = end_to_end(code, ChannelConfig("rank-deficient", trials=100, s=1, seed=3))
    assert summary.violations == 0  # bound 2 >= min_dist/2, so errors are allowed
    assert 0.0 <= summary.block_error_rate <= 1.0


def test_summary_serialization_and_violation_raise():
    ok = ChannelSummary(trials=5, violations=0, max_distance=1, histogram={1: 5})
    raise_on_violation(ok)
    assert ok.to_dict()["histogram"] == {"1": 5}
    with pytest.raises(BoundViolation):
        raise_on_violation(ChannelSummary(trials=5, violations=2, max_distance=9, histogram={}))


def test_trial_csv(tmp_path):
    w = Multispace(Subspace.full(F2, 2), 1)
    run = run_trials(w, ChannelConfig("deletion", trials=5, s=1, seed=0))
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as fh:
        write_trial_csv(run.records, fh)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("index,sent,received")


@settings(max_examples=120, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    mode=st.sampled_from(MODES),
    data=st.data(),
)
def test_closed_form_t_rank_matches_elimination(q, mode, data):
    """The logged t_rank is rank(T_eff) of the matrix each trial really drew."""
    ctx = {2: F2, 3: F3, 4: F4}[q]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="input seed"))
    w = random_multispace(ctx, data.draw(st.integers(1, 4), label="n"), rng)
    need_per_s = {"full-rank": 0, "deletion": 1, "rank-deficient": 1, "compound": 2}[mode]
    s_max = 0 if need_per_s == 0 else w.rank // need_per_s
    cfg = ChannelConfig(
        mode,
        trials=data.draw(st.integers(1, 4), label="trials"),
        s=data.draw(st.integers(0, s_max), label="s"),
        seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
        random_generator=data.draw(st.booleans(), label="random_generator"),
    )
    run = run_trials(w, cfg)
    gen0 = w.generating_multiset()
    m = len(gen0)
    for record, ss in zip(run.records, np.random.SeedSequence(cfg.seed).spawn(cfg.trials)):
        trial_rng = np.random.default_rng(ss)  # replay the trial's draws in order
        gen = gen0
        if cfg.random_generator:
            gen = apply_transform(gen0, full_rank_draw(ctx, m, m, trial_rng))
        t_eff = effective_transform(ctx, m, cfg, trial_rng)
        assert mspan(apply_transform(gen, t_eff)) == record.received
        assert record.t_rank == rref_array(ctx, t_eff.array)[1]


def test_summary_keys_of_both_entry_points():
    w = Multispace(Subspace.full(F2, 2), 1)
    doc = run_trials(w, ChannelConfig("deletion", trials=3, s=1, seed=0)).summary.to_dict()
    assert list(doc) == ["trials", "violations", "max_distance", "histogram"]
    code = MultispaceCode(F2, 3, 1, tuple(enumerate_multispaces(F2, 3, 1)))
    summary = end_to_end(code, ChannelConfig("full-rank", trials=3, seed=0))
    assert list(summary.to_dict()) == [
        "trials", "violations", "max_distance", "histogram", "block_errors", "block_error_rate",
    ]
    assert isinstance(summary, ChannelSummary) and summary.block_errors == 0


# -- the batched loop against the serial oracle --------------------------------

def _record_fields(records):
    return [(r.index, r.sent, r.received, r.t_rank, r.distance, r.bound, r.bound_satisfied) for r in records]


def _outcome(fn):
    """The run fn returns, or the type of the toolkit error it raises."""
    try:
        return fn()
    except MultispaceError as exc:
        return type(exc)


def _assert_same_records(records, serial):
    """records (a list, or an error type) against the serial run (or its error type)."""
    if isinstance(serial, type):
        assert records is serial
    else:
        assert _record_fields(records) == _record_fields(serial.records)


def _code_pick(code):
    """end_to_end's pick: the codeword index is each trial's first draw."""
    def pick(rng):
        w = code.codewords[int(rng.integers(len(code)))]
        return w, w.generating_multiset().matrix
    return pick


def _check_both_entry_points(target, code, cfg):
    """run_trials on target and end_to_end on code against the serial loop."""
    if isinstance(target, VectorMultiset):
        sent, gen = mspan(target), target.matrix
    else:
        sent, gen = target, target.generating_multiset().matrix
    serial = _outcome(lambda: serial_trial_loop(cfg, lambda rng: (sent, gen)))
    run = _outcome(lambda: run_trials(target, cfg))
    _assert_same_records(run if isinstance(run, type) else run.records, serial)
    if not isinstance(serial, type):
        assert run.summary == serial.summary
    serial = _outcome(lambda: serial_trial_loop(cfg, _code_pick(code), code))
    m_max = max(w.rank for w in code)
    _assert_same_records(_outcome(lambda: list(_trial_loop(cfg, _code_pick(code), m_max, code.n))), serial)
    summary = _outcome(lambda: end_to_end(code, cfg))
    assert summary == (serial if isinstance(serial, type) else serial.summary)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5]),
    mode=st.sampled_from(MODES),
    random_generator=st.booleans(),
    trials=st.integers(0, 40),
    data=st.data(),
)
def test_batched_trials_match_the_serial_loop(q, mode, random_generator, trials, data):
    """Received word, t_rank, distance, bound check and summary agree record for
    record, through run_trials (canonical or explicit generator) and end_to_end
    against codes whose codewords differ in rank."""
    ctx = FIELDS[q]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="input seed"))
    n = data.draw(st.integers(1, 4), label="n")
    words = list(dict.fromkeys(random_multispace(ctx, n, rng) for _ in range(data.draw(st.integers(1, 4)))))
    if data.draw(st.booleans(), label="explicit generator"):
        target = random_multiset(ctx, n, int(rng.integers(0, 6)), rng)
        rank = len(target)
    else:
        target = words[0]
        rank = target.rank
    s_max = 0 if NEED_PER_S[mode] == 0 else rank // NEED_PER_S[mode]
    cfg = ChannelConfig(
        mode, trials, data.draw(st.integers(0, s_max), label="s"),
        data.draw(st.integers(0, 2 ** 32 - 1), label="seed"), random_generator,
    )
    code = MultispaceCode(ctx, n, max(w.rank for w in words), tuple(words))
    _check_both_entry_points(target, code, cfg)


@pytest.mark.parametrize("mode,s", [("deletion", 1), ("compound", 1)])
def test_runs_longer_than_one_block_match_the_serial_loop(mode, s):
    rng = np.random.default_rng(8)
    words = (Multispace(Subspace.full(F3, 2), 1), Multispace(Subspace.from_array(F3, 2, [[1, 2]]), 1),
             Multispace(Subspace.zero(F3, 2), 2), Multispace(Subspace.full(F3, 2), 2))
    code = MultispaceCode(F3, 2, 4, words)
    cfg = ChannelConfig(mode, channel._BLOCK + 44, s, seed=int(rng.integers(1 << 30)), random_generator=True)
    _check_both_entry_points(words[0], code, cfg)


@pytest.mark.parametrize("mode,s", [("full-rank", 0), ("deletion", 1), ("rank-deficient", 1),
                                    ("compound", 1), ("rank-deficient", 4)])
def test_both_loops_raise_alike_on_an_exhausted_try_budget(monkeypatch, mode, s):
    w = Multispace(Subspace.full(F2, 3), 1)  # rank 4
    gen = w.generating_multiset().matrix
    cfg = ChannelConfig(mode, trials=5, s=s, seed=4)
    serial = _outcome(lambda: serial_trial_loop(cfg, lambda rng: (w, gen), max_tries=0))
    if (mode, s) == ("rank-deficient", 4):
        assert isinstance(serial, ChannelRun)  # T = 0 draws nothing, so no budget runs out
    else:
        assert serial is SamplingFailed
    monkeypatch.setattr(channel, "_MAX_TRIES", 0)
    _assert_same_records(_outcome(lambda: list(_trial_loop(cfg, lambda rng: (w, gen), w.rank, w.n))), serial)


@pytest.mark.parametrize("mode", ["deletion", "rank-deficient", "compound"])
def test_both_loops_refuse_a_codeword_of_too_small_a_rank(mode):
    words = (Multispace(Subspace.full(F2, 2), 2), Multispace.bottom(F2, 2))
    code = MultispaceCode(F2, 2, 4, words)
    cfg = ChannelConfig(mode, trials=20, s=1, seed=0)
    serial = _outcome(lambda: serial_trial_loop(cfg, _code_pick(code), code))
    assert serial is ConfigInvalid
    assert _outcome(lambda: list(_trial_loop(cfg, _code_pick(code), 4, 2))) is ConfigInvalid
    assert _outcome(lambda: end_to_end(code, cfg)) is ConfigInvalid


@pytest.mark.parametrize("mode,s", [("full-rank", 0), ("deletion", 1), ("rank-deficient", 1), ("compound", 1)])
def test_huge_height_is_refused_before_any_trial(mode, s):
    huge = Multispace(Subspace.zero(F2, 2), 2 ** 70)
    cfg = ChannelConfig(mode, trials=3, s=s, seed=0)
    with pytest.raises(LimitExceeded):
        run_trials(huge, cfg)
    code = MultispaceCode(F2, 2, 2 ** 70, (huge, Multispace(Subspace.full(F2, 2), 0)))
    with pytest.raises(LimitExceeded):
        end_to_end(code, cfg)
    with pytest.raises(LimitExceeded):
        end_to_end(code, ChannelConfig(mode, trials=0, s=s, seed=0))


def test_blocks_shrink_to_the_state_limit_as_the_rank_grows():
    assert channel._block_size(64, 64) == channel._BLOCK  # small words keep whole blocks
    for m in (1, 65, 128, 300, 1024):
        for n in (1, m, 4 * m):
            block = channel._block_size(m, n)
            assert block == 1 or block * m * max(m, n) <= DEFAULT_STATE_LIMIT


def test_peak_memory_of_a_high_rank_word_stays_within_a_few_blocks(monkeypatch):
    """With a limit that one rank-200 trial fills, six trials run one at a time,
    and the traced peak stays below eight stacks of the limit; padding all six
    into one block would take about twelve."""
    limit = 1 << 16
    monkeypatch.setattr(channel, "DEFAULT_STATE_LIMIT", limit)
    w = Multispace(Subspace.zero(F2, 2), 200)
    cfg = ChannelConfig("compound", trials=6, s=3, seed=0)
    run_trials(w, ChannelConfig("compound", trials=1, s=3, seed=1))  # one-time allocations
    tracemalloc.start()
    try:
        run = run_trials(w, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.summary.trials == 6
    assert peak <= 8 * limit * np.dtype(np.int64).itemsize


@pytest.mark.parametrize("mode,s", [("full-rank", 0), ("deletion", 1)])
def test_a_channel_that_loses_rank_is_flagged(monkeypatch, mode, s):
    def singular(ctx, rngs, rows, cols, max_tries):
        return np.zeros((len(rngs), max(rows), max(cols)), dtype=np.int64)

    monkeypatch.setattr(channel, "_full_rank_batch", singular)
    w = Multispace(Subspace.full(F3, 2), 1)
    assert run_trials(w, ChannelConfig(mode, trials=5, s=s, seed=0)).summary.violations == 5
