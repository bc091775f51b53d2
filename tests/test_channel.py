import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    LOSS_AND_BOUND,
    effective_transform,
    full_rank_draw,
    keyed_generators,
    random_multiset,
    random_multispace,
    rank_draw,
    serial_trial_loop,
    spawned_generators,
)
from multispace import channel, lattice
from multispace.channel import (
    MODES,
    ChannelConfig,
    TrialRecord,
    apply_transform,
    end_to_end,
    ChannelRun,
    random_full_rank,
    random_rank,
    run_trials,
    write_trial_csv,
    ChannelSummary,
)
from multispace.codes import MultispaceCode, greedy_code
from multispace.errors import (
    ConfigInvalid,
    DimensionMismatch,
    FormatError,
    LimitExceeded,
    MultispaceError,
    SamplingFailed,
    ShapeMismatch,
)
from multispace.fields import FIELD_SIZE_LIMIT, _is_prime, field
from multispace.lattice import (
    Multispace,
    VectorMultiset,
    _WordStack,
    distance,
    enumerate_multispaces,
    mspan,
)
from multispace.linalg import DEFAULT_STATE_LIMIT, Subspace, rref_array, subspace_leq

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)
F5 = field(5)
FIELDS = {2: F2, 3: F3, 4: F4, 5: F5}
#: rank the channel takes away per unit of s, by mode
NEED_PER_S = {"full-rank": 0, "deletion": 1, "rank-deficient": 1, "compound": 2}


def test_apply_transform_identity_and_zero():
    b = VectorMultiset(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert apply_transform(b, np.eye(2, dtype=np.int64)) == b
    zeroed = apply_transform(b, np.zeros((2, 3), dtype=np.int64))
    assert mspan(zeroed) == Multispace(Subspace.zero(F2, 3), 3)
    with pytest.raises(ShapeMismatch):
        apply_transform(b, np.eye(3, dtype=np.int64))


@pytest.mark.parametrize("T, error", [
    pytest.param([["a", 0], [0, 1]], FormatError, id="string"),
    pytest.param([[None, 0], [0, 1]], FormatError, id="none"),
    pytest.param([[1.5, 0], [0, 1]], FormatError, id="float"),
    pytest.param([[2, 0], [0, 1]], FormatError, id="past-q"),
    pytest.param([[-1, 0], [0, 1]], FormatError, id="negative"),
    pytest.param([1, 0], DimensionMismatch, id="1-d"),
    pytest.param(np.zeros((2, 2, 2), dtype=np.int64), DimensionMismatch, id="3-d"),
    pytest.param([], DimensionMismatch, id="empty"),
    pytest.param([[1, 0, 1]], ShapeMismatch, id="one-row-for-two-vectors"),
])
def test_apply_transform_refuses_malformed_matrices(T, error):
    b = VectorMultiset(F2, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(error) as info:
        apply_transform(b, T)
    assert isinstance(info.value, MultispaceError)


def test_apply_transform_columns_combine():
    b = VectorMultiset(F3, 2, [[1, 0], [0, 1]])
    out = apply_transform(b, [[1, 2], [1, 0]])
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


def test_random_matrix_ranks(monkeypatch):
    rng = np.random.default_rng(1)
    for ctx in (F2, F3):
        assert random_full_rank(ctx, 0, rng).shape == (0, 0)
        for m in (1, 3, 5):
            t = random_full_rank(ctx, m, rng)
            assert rref_array(ctx, t)[1] == m
        for (rows, cols, r) in [(4, 4, 2), (3, 5, 0), (5, 3, 3), (4, 2, 1)]:
            t = random_rank(ctx, rows, cols, r, rng)
            assert t.shape == (rows, cols)
            assert rref_array(ctx, t)[1] == r
    with pytest.raises(ConfigInvalid):
        random_rank(F2, 2, 2, 3, rng)
    # an exhausted try budget is a toolkit error, not a bare RuntimeError
    monkeypatch.setattr(channel, "_MAX_TRIES", 0)
    with pytest.raises(SamplingFailed):
        random_full_rank(F2, 3, rng)
    with pytest.raises(SamplingFailed):
        random_rank(F2, 3, 3, 2, rng)


def _next_value(draw, seed):
    """The matrix draw(rng) returns, and the generator's next value after it."""
    rng = np.random.default_rng(seed)
    out = draw(rng)
    return out.tolist(), int(rng.integers(2 ** 62))


@pytest.mark.parametrize("ctx", [F2, F3, F4], ids=["GF(2)", "GF(3)", "GF(4)"])
def test_samplers_leave_each_generator_where_the_serial_draws_do(ctx):
    for seed in range(8):
        assert _next_value(lambda rng: random_full_rank(ctx, 5, rng), seed) == _next_value(
            lambda rng: full_rank_draw(ctx, 5, 5, rng), seed)
        assert _next_value(lambda rng: random_rank(ctx, 6, 4, 3, rng), seed) == _next_value(
            lambda rng: rank_draw(ctx, 6, 4, 3, rng), seed)


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered half"])
def test_samplers_leave_the_callers_generator_in_the_serial_draws_state(buffered):
    # a scalar draw first leaves the high half of its word buffered in the generator
    samplers = [(random_full_rank, (m,), full_rank_draw, (m, m)) for m in (0, 1, 5)]
    samplers += [(random_rank, shape, rank_draw, shape) for shape in ((6, 4, 3), (3, 5, 2), (4, 4, 0))]
    for ctx in (F2, F3, F4):
        for seed in range(6):
            for ours, our_args, serial, serial_args in samplers:
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                if buffered:
                    assert a.integers(7) == b.integers(7)
                assert ours(ctx, *our_args, a).tolist() == serial(ctx, *serial_args, b).tolist()
                assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered half"])
def test_samplers_take_the_serial_draws_of_any_generator(bit_generator, buffered):
    samplers = [(random_full_rank, (m,), full_rank_draw, (m, m)) for m in (0, 1, 5)]
    samplers += [(random_rank, shape, rank_draw, shape) for shape in ((6, 4, 3), (3, 5, 2), (4, 4, 0))]
    for ctx in (F2, F3, F4):
        for seed in range(3):
            for ours, our_args, serial, serial_args in samplers:
                a, b = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
                if buffered:
                    assert a.integers(7) == b.integers(7)
                assert ours(ctx, *our_args, a).tolist() == serial(ctx, *serial_args, b).tolist()
                assert _plain(a.bit_generator.state) == _plain(b.bit_generator.state)


def _plain(state):
    """A bit generator's state with its arrays as lists, so that states compare with ==."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


#: sampler calls that their size checks refuse; test_entry_points checks the messages
BAD_SIZES = {
    "negative-m": lambda rng: random_full_rank(F2, -1, rng),
    "float-m": lambda rng: random_full_rank(F2, 2.5, rng),
    "m-past-budget": lambda rng: random_full_rank(F2, 1025, rng),
    "float-r": lambda rng: random_rank(F2, 3, 3, 1.0, rng),
    "r-past-shape": lambda rng: random_rank(F2, 3, 3, 4, rng),
    "past-budget": lambda rng: random_rank(F2, 1 << 20, 2, 0, rng),
}


@pytest.mark.parametrize("call", list(BAD_SIZES.values()), ids=list(BAD_SIZES))
def test_samplers_refuse_bad_sizes_before_any_draw(call):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(MultispaceError):
        call(rng)
    assert rng.bit_generator.state == state


def _field_sizes(limit):
    """Every field size q = p^e the toolkit builds, up to limit."""
    return sorted(p ** e for p in range(2, limit + 1) if _is_prime(p)
                  for e in range(1, limit.bit_length()) if p ** e <= limit)


def _assert_same_next_draw(draws, rngs):
    """The next draw of each trial's cursor is its generator's next draw; a bound of 2^31 + 1
    passes over about half of all halves, so the cursor must sit on the right one."""
    assert draws.below(2 ** 31 + 1).tolist() == [int(rng.integers(2 ** 31 + 1)) for rng in rngs]


def test_draws_are_numpys_bounded_integers_for_every_field_size():
    sizes = _field_sizes(FIELD_SIZE_LIMIT)
    assert len(sizes) == 6635 and sizes[-1] == FIELD_SIZE_LIMIT
    one = np.array([0])
    for q in sizes:
        draws, rng = channel._Draws([np.random.default_rng(q)]), np.random.default_rng(q)
        vals, ends = draws.values(one, q, 12)
        draws.skip(one, 12, ends)
        assert vals.tolist() == [rng.integers(0, q, (3, 4)).ravel().tolist()]
        _assert_same_next_draw(draws, [rng])


def test_draws_pass_over_the_halves_numpy_passes_over():
    # q = 64489 passes over a half u when u q mod 2^32 < 64385, about once in 66700 draws;
    # these seeds meet one in their first 2^16 draws
    q, count, one = 64489, 1 << 16, np.array([0])
    assert ((1 << 32) - q) % q == 64385
    for seed in (1, 2):
        draws, rng = channel._Draws([np.random.default_rng(seed)]), np.random.default_rng(seed)
        vals, ends = draws.values(one, q, count)
        assert ends is not None and ends[0, -1] == count + 1  # one half passed over
        draws.skip(one, count, ends)
        assert vals[0].tolist() == rng.integers(0, q, count).tolist()
        _assert_same_next_draw(draws, [rng])


@pytest.mark.parametrize("seed", range(4))
def test_scalar_draws_are_numpys_past_the_halves_passed_over(seed):
    # integers(2^31 + 1) passes over about half of all halves: Lemire's rule, draw after draw
    draws, rng = channel._Draws([np.random.default_rng(seed)]), np.random.default_rng(seed)
    for _ in range(200):
        _assert_same_next_draw(draws, [rng])
    assert draws.below(1).tolist() == [0] == [rng.integers(1)]  # a bound of 1 draws nothing
    _assert_same_next_draw(draws, [rng])


def test_a_read_on_drops_the_halves_every_trial_has_taken():
    # 100 reads of 1000 halves: one trial's buffer keeps what is unread plus one read-on
    one, rng = np.array([0]), np.random.default_rng(3)
    draws = channel._Draws([np.random.default_rng(3)], 8)
    for _ in range(100):
        vals, ends = draws.values(one, 2, 1000)
        draws.skip(one, 1000, ends)
        assert vals[0].tolist() == rng.integers(0, 2, 1000).tolist()
        assert draws.buf.shape[1] <= 4 * 1000
    # a trial that lags keeps its halves while another reads far ahead
    draws = channel._Draws([np.random.default_rng(3), np.random.default_rng(4)], 8)
    draws.skip(np.array([1]), 50)
    for _ in range(20):
        draws.skip(one, 1000, draws.values(one, 2, 1000)[1])
    assert draws.halves(np.array([1]), 4)[0].tolist() == np.random.default_rng(4).bit_generator.random_raw(27).astype(
        "<u8").view("<u4")[50:].tolist()


@pytest.mark.parametrize("mode, s", [("full-rank", 0), ("deletion", 1), ("rank-deficient", 1), ("compound", 1)])
def test_a_short_block_reads_ahead_for_the_trials_it_holds(monkeypatch, mode, s):
    # 32 trials at rank 8 plan 8 + 16 * 8^2 words each; a read-ahead sized for a full
    # 256-trial block (512 words) makes every trial read on once
    reads = []
    trial_generators = channel._trial_generators

    def counted(seed, start, count):  # generators whose raw reads are logged
        def reader(raw):
            return SimpleNamespace(random_raw=lambda k: reads.append(k) or raw(k))

        return [SimpleNamespace(bit_generator=reader(g.bit_generator.random_raw))
                for g in trial_generators(seed, start, count)]

    w = Multispace(Subspace.zero(F2, 4), 8)
    for seed in range(5):
        cfg = ChannelConfig(mode, 32, s, seed, True)
        expected = run_trials(w, cfg).records
        monkeypatch.setattr(channel, "_trial_generators", counted)
        reads.clear()
        assert run_trials(w, cfg).records == expected
        monkeypatch.undo()
        assert reads == [8 + 16 * 8 ** 2] * 32


def test_permutations_are_numpys():
    for seed in range(20):  # trial m draws permutation(m), m = 0 .. 9, each from its own stream
        draws = channel._Draws([np.random.default_rng([seed, m]) for m in range(10)])
        rngs = [np.random.default_rng([seed, m]) for m in range(10)]
        assert draws.permutations(list(range(10))) == [rng.permutation(m).tolist() for m, rng in enumerate(rngs)]
        _assert_same_next_draw(draws, rngs)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6), data=st.data())
def test_draws_follow_each_generator_through_a_mix_of_draws(seeds, data):
    """Bounded integers for some trials at a time, scalar draws and permutations, one
    after another: every trial's cursor stays on its own generator's stream while the
    buffer reads ahead."""
    draws = channel._Draws([np.random.default_rng(seed) for seed in seeds], data.draw(st.integers(0, 40)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["values", "below", "permutations"]))
        if kind == "values":
            trials = np.array(sorted(data.draw(st.sets(st.integers(0, len(seeds) - 1), min_size=1))))
            q, count = data.draw(st.sampled_from([2, 3, 4, 7, 256, 65521])), data.draw(st.integers(0, 300))
            vals, ends = draws.values(trials, q, count)
            draws.skip(trials, count, ends)
            assert vals.tolist() == [rngs[t].integers(0, q, count).tolist() for t in trials]
        elif kind == "below":
            count = data.draw(st.sampled_from([1, 2, 5, 2 ** 31 + 1, 2 ** 32]))
            assert draws.below(count).tolist() == [int(rng.integers(count)) for rng in rngs]
        else:
            ms = data.draw(st.lists(st.integers(0, 12), min_size=len(seeds), max_size=len(seeds)))
            assert draws.permutations(ms) == [rng.permutation(m).tolist() for m, rng in zip(ms, rngs)]
    _assert_same_next_draw(draws, rngs)


@pytest.mark.parametrize("mode,s,random_generator", [("full-rank", 0, True), ("deletion", 1, False),
                                                     ("rank-deficient", 2, True), ("compound", 1, False)])
def test_a_channel_block_leaves_each_generator_where_the_serial_trial_does(mode, s, random_generator):
    cfg = ChannelConfig(mode, trials=6, s=s, seed=0, random_generator=random_generator)
    for ctx in (F2, F3, F4):
        words = [Multispace(Subspace.full(ctx, 3), h) for h in range(2, 8)]  # ranks 5 to 10
        stack = MultispaceCode(ctx, 3, 10, tuple(words))._words()
        gens = np.zeros((len(words), 10, 3), dtype=np.int64)  # each basis, then zero rows
        gens[:, :3] = stack.bases
        draws = channel._Draws([np.random.default_rng(k) for k in range(len(words))])
        channel._channel_block(cfg, draws, stack, gens)
        rngs = [np.random.default_rng(k) for k in range(len(words))]
        for w, rng in zip(words, rngs):
            if random_generator:
                full_rank_draw(ctx, w.rank, w.rank, rng)
            effective_transform(ctx, w.rank, cfg, rng)
        _assert_same_next_draw(draws, rngs)


def _assert_same_generators(ours, theirs):
    """Equal states, then equal matrix and permutation draws, generator by generator."""
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.bit_generator.state == b.bit_generator.state
        for q, shape in ((3, (4, 5)), (256, (2, 3))):
            assert a.integers(0, q, shape).tolist() == b.integers(0, q, shape).tolist()
        assert a.permutation(9).tolist() == b.permutation(9).tolist()


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 130 + 17, np.int32(7), np.uint64(2 ** 64 - 1)])
def test_trial_generators_equal_numpys_spawned_generators(seed):
    # seeds of one to five entropy words, and numpy integers; every (start, count) pair of a block
    for start in (0, 255, 256, 1000):
        for count in (0, 1, 8, 256):
            _assert_same_generators(channel._trial_generators(seed, start, count),
                                    spawned_generators(seed, start, count))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 140), start=st.integers(0, 600), count=st.integers(0, 40))
def test_trial_generators_equal_numpys_spawned_generators_on_drawn_seeds(seed, start, count):
    _assert_same_generators(channel._trial_generators(seed, start, count), spawned_generators(seed, start, count))


@pytest.mark.parametrize("start", [2 ** 32 - 3, 2 ** 64 - 2, 2 ** 96 - 1])
def test_trial_generators_take_numpys_key_words_past_2_to_the_32(start):
    # an index of 2^32 or more spawns with two or more key words; these runs cross each step
    assert np.random.SeedSequence(7).spawn(3)[2].spawn_key == (2,)  # the key spawn gives child 2
    for seed in (0, 2 ** 64 + 5):
        _assert_same_generators(channel._trial_generators(seed, start, 6), keyed_generators(seed, start, 6))


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


def _assert_compound_window(run, sent, s):
    """Every compound record lies within s..3s of the sent word, inside it, at rank m - s."""
    assert run.summary.violations == 0
    for rec in run.records:
        assert s <= rec.distance <= 3 * s == rec.bound and rec.bound_satisfied
        assert rec.received.rank == sent.rank - s
        assert subspace_leq(rec.received.underlying, sent.underlying)


def test_compound_distance_lies_between_s_and_3s_with_containment_and_rank():
    rng = np.random.default_rng(5)
    for s in (1, 2):
        for _ in range(8):
            w = random_multispace(F2, 4, rng)
            if w.rank < 2 * s:
                continue
            run = run_trials(w, ChannelConfig("compound", trials=40, s=s, seed=int(rng.integers(1 << 30))))
            _assert_compound_window(run, w, s)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), explicit=st.booleans(), random_generator=st.booleans(), data=st.data())
def test_compound_window_over_canonical_and_explicit_generators(q, explicit, random_generator, data):
    ctx = FIELDS[q]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="input seed"))
    n = data.draw(st.integers(1, 4), label="n")
    if explicit:
        target = random_multiset(ctx, n, data.draw(st.integers(2, 7), label="m"), rng)
        sent = mspan(target)
    else:
        target = sent = random_multispace(ctx, n, rng, max_height=4)
    s = data.draw(st.integers(0, sent.rank // 2), label="s")
    cfg = ChannelConfig("compound", trials=data.draw(st.integers(1, 12), label="trials"), s=s,
                        seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"), random_generator=random_generator)
    _assert_compound_window(run_trials(target, cfg), sent, s)


def test_compound_reaches_3s():
    w = Multispace(Subspace.full(F2, 3), 1)  # rank 4, enough for two error stages
    run = run_trials(w, ChannelConfig("compound", trials=30, s=1, seed=9))
    _assert_compound_window(run, w, 1)
    assert 3 in run.summary.histogram


def test_end_to_end_counts_a_compound_decode_failure_inside_the_unique_radius(monkeypatch):
    # min distance 8 > 2 * 3s at s = 1: every trial decodes, and a wrong decision is a violation
    code = MultispaceCode(F2, 4, 4, (Multispace(Subspace.full(F2, 4), 0), Multispace(Subspace.zero(F2, 4), 4)))
    cfg = ChannelConfig("compound", trials=50, s=1, seed=3)
    summary = end_to_end(code, cfg)
    assert summary.block_errors == summary.violations == 0
    monkeypatch.setattr(MultispaceCode, "_nearest", lambda self, received: (np.full(len(received.dims), -1), None))
    summary = end_to_end(code, cfg)
    assert summary.block_errors == summary.violations == 50


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
    for check in (lambda cfg: cfg.validate(), lambda cfg: cfg.check_rank(3)):  # an unknown mode, named by both
        with pytest.raises(ConfigInvalid, match=r"^unknown mode 'nonsense'; pick one of \("):
            check(ChannelConfig("nonsense", trials=1))
    with pytest.raises(ConfigInvalid):
        ChannelConfig("deletion", trials=1, s=-1).validate()
    with pytest.raises(ConfigInvalid):
        ChannelConfig("full-rank", trials=1, s=1).validate()
    w = Multispace.bottom(F2, 3)
    with pytest.raises(ConfigInvalid):
        run_trials(w, ChannelConfig("deletion", trials=1, s=1, seed=0))


@pytest.mark.parametrize(
    "settings",
    [{"trials": 2.5}, {"trials": True}, {"trials": "3"}, {"s": 1.5}, {"s": True},
     {"seed": -1}, {"seed": 1.0}, {"seed": None}, {"random_generator": "no"}],
    ids=["float-trials", "bool-trials", "str-trials", "float-s", "bool-s", "negative-seed", "float-seed", "no-seed",
         "str-random-generator"],
)
def test_config_refuses_malformed_settings_before_any_trial(settings):
    cfg = ChannelConfig("deletion", **{"trials": 3, "s": 1, "seed": 0, **settings})
    with pytest.raises(ConfigInvalid):
        cfg.validate()
    w = Multispace(Subspace.full(F2, 2), 1)
    with pytest.raises(ConfigInvalid):
        run_trials(w, cfg)
    with pytest.raises(ConfigInvalid):
        end_to_end(MultispaceCode(F2, 2, 3, (w,)), cfg)
    ChannelConfig("deletion", trials=np.int64(3), s=np.int64(1), seed=np.int64(5)).validate()


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


def test_summary_serialization():
    ok = ChannelSummary(trials=5, violations=0, max_distance=1, histogram={1: 5})
    assert ok.to_dict()["histogram"] == {"1": 5}


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
        assert record.t_rank == rref_array(ctx, t_eff)[1]


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


def _block_records(cfg, code):
    """TrialRecords built from the columns _trial_blocks yields for code, as run_trials builds
    them for its one word; the sent word of each trial is read back from its index."""
    stack = code._words()
    lost, bound = (cfg.s * k for k in LOSS_AND_BOUND[cfg.mode])
    t_ranks = (stack.dims + stack.heights - lost).tolist()
    records = []
    for sent, received, d, ok in channel._trial_blocks(cfg, stack):
        for i, word, dist, good in zip(sent.tolist(), received.words(), d.tolist(), ok.tolist()):
            records.append(TrialRecord(len(records), code.codewords[i], word, t_ranks[i], dist, bound, good))
    return records


def _code_pick(code):
    """The serial loop's pick of a codeword, with its generating multiset: the
    codeword index is each trial's first draw, as in end_to_end."""
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
    _assert_same_records(_outcome(lambda: _block_records(cfg, code)), serial)
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


@pytest.mark.parametrize("ctx, n, m_max, d_min, low, mode", [
    (F2, 4, 4, 2, 1, "rank-deficient"),  # masked
    (F2, 7, 2, 3, 1, "rank-deficient"),  # q^n = 128: elimination
    (F2, 3, 3, 2, 2, "deletion"),  # every received word lies as near to two codewords or more
])
def test_block_decoding_over_several_blocks_matches_the_serial_loop(ctx, n, m_max, d_min, low, mode):
    greedy = greedy_code(ctx, n, m_max, d_min, seed=0)
    code = MultispaceCode(ctx, n, m_max, tuple(w for w in greedy if w.rank >= low))
    cfg = ChannelConfig(mode, 600, 1, seed=7)
    assert end_to_end(code, cfg) == serial_trial_loop(cfg, _code_pick(code), code).summary
    blocks = list(channel._trial_blocks(cfg, code._words()))
    assert len(blocks) == 3
    if low == 2:  # the tie break against a distance loop: the first nearest codeword
        for _, received, _, _ in blocks:
            d = np.array([[distance(r, c) for c in code] for r in received.words()])
            assert ((d == d.min(axis=1, keepdims=True)).sum(axis=1) >= 2).all()
            assert code._nearest(received)[0].tolist() == d.argmin(axis=1).tolist()


def test_block_errors_by_index_equal_block_errors_by_codeword_when_every_decode_is_a_tie():
    # the rank-3 words of the greedy (F2,3,3,2) code under deletion s = 1: every received
    # word lies as near to several codewords (see the test above), and 126 of 400 lost ties
    # decode to another codeword
    greedy = greedy_code(F2, 3, 3, 2, seed=0)
    code = MultispaceCode(F2, 3, 3, tuple(w for w in greedy if w.rank > 1))
    cfg = ChannelConfig("deletion", 400, 1, seed=7)
    serial = iter(serial_trial_loop(cfg, _code_pick(code), code).records)
    by_index = by_word = 0
    for sent, received, _, _ in channel._trial_blocks(cfg, code._words()):
        records = [next(serial) for _ in sent]
        assert [code.codewords[i] for i in sent.tolist()] == [r.sent for r in records]
        decoded = code._nearest(received)[0].tolist()
        by_index += sum(i != j for i, j in zip(decoded, sent.tolist()))
        by_word += sum(code.codewords[i] != r.sent for i, r in zip(decoded, records))
    assert end_to_end(code, cfg).block_errors == by_index == by_word == 126


@pytest.mark.parametrize("mode,s,random_generator", [("full-rank", 0, True), ("deletion", 1, False),
                                                     ("rank-deficient", 1, True), ("compound", 1, False)])
def test_end_to_end_builds_no_record_and_no_multispace(monkeypatch, mode, s, random_generator):
    """end_to_end reads the trials as columns: with TrialRecord, _WordStack.words and
    Multispace construction all refused, its summary still equals the serial loop's."""
    greedy = greedy_code(F2, 4, 4, 2, seed=0)
    code = MultispaceCode(F2, 4, 4, tuple(w for w in greedy if w.rank >= 2))
    cfg = ChannelConfig(mode, channel._BLOCK + 44, s, seed=5, random_generator=random_generator)
    serial = serial_trial_loop(cfg, _code_pick(code), code).summary
    code.min_distance  # cached before Multispace is refused

    def refuse(*args, **kwargs):
        raise AssertionError("end_to_end built a record or a multispace")

    monkeypatch.setattr(channel, "TrialRecord", refuse)
    monkeypatch.setattr(_WordStack, "words", refuse)
    monkeypatch.setattr(Multispace, "__init__", refuse)
    assert end_to_end(code, cfg) == serial


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
    code = MultispaceCode(F2, 3, w.rank, (w,))  # its one generating multiset is gen
    _assert_same_records(_outcome(lambda: _block_records(cfg, code)), serial)


@pytest.mark.parametrize("mode", ["deletion", "rank-deficient", "compound"])
def test_both_loops_refuse_a_codeword_of_too_small_a_rank(mode):
    words = (Multispace(Subspace.full(F2, 2), 2), Multispace.bottom(F2, 2))
    code = MultispaceCode(F2, 2, 4, words)
    cfg = ChannelConfig(mode, trials=20, s=1, seed=0)
    serial = _outcome(lambda: serial_trial_loop(cfg, _code_pick(code), code))
    assert serial is ConfigInvalid
    assert _outcome(lambda: _block_records(cfg, code)) is ConfigInvalid
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


def test_an_oversized_channel_matrix_is_refused_before_any_generator(monkeypatch):
    # 1025^2 entries pass the 2^20 budget, from a multiset's length or a word's rank
    def unreached(*args):
        raise AssertionError("a trial generator was built")

    monkeypatch.setattr(channel, "_trial_generators", unreached)
    cfg = ChannelConfig("deletion", trials=3, s=1, seed=0)
    for target in (VectorMultiset(F2, 2, [[1, 0]] * 1025), Multispace(Subspace.full(F2, 2), 1023)):
        with pytest.raises(LimitExceeded, match="channel matrix entries"):
            run_trials(target, cfg)


def test_end_to_end_reads_the_cached_stack_not_the_codewords_ranks(monkeypatch):
    code = MultispaceCode(F2, 3, 2, tuple(enumerate_multispaces(F2, 3, 2)))
    code._words()

    def unread(self):
        raise AssertionError("a codeword's rank was read")

    monkeypatch.setattr(Multispace, "rank", property(unread))
    assert end_to_end(code, ChannelConfig("deletion", trials=40, s=1, seed=5)).trials == 40


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
    def singular(ctx, draws, rows, cols, count=1):
        return [np.zeros((len(rows), max(rows), max(cols)), dtype=np.int64)] * count

    monkeypatch.setattr(channel, "_full_rank", singular)
    w = Multispace(Subspace.full(F3, 2), 1)
    assert run_trials(w, ChannelConfig(mode, trials=5, s=s, seed=0)).summary.violations == 5


def _serial_full_rank(ctx, rows, cols, count, seeds, max_tries=1000):
    """Each trial's count matrices by full_rank_draw on its own generator, rows x cols and
    then cols x rows, an empty one taking no draw; and the generators after them."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    mats = []
    for r, c, rng in zip(rows.tolist(), cols.tolist(), rngs):
        for k in range(count):
            mats.append(full_rank_draw(ctx, r, c, rng, max_tries) if r * c else np.zeros((r, c), dtype=np.int64))
            r, c = c, r
    return mats, rngs


def _assert_as_serial(ctx, rows, cols, count, seeds):
    """_full_rank against the serial draws of each trial: every matrix, zero outside
    its own shape, and the draw each generator makes next."""
    draws = channel._Draws([np.random.default_rng(seed) for seed in seeds])
    got = channel._full_rank(ctx, draws, rows, cols, count)
    want, rngs = _serial_full_rank(ctx, rows, cols, count, seeds)
    assert len(got) == count
    for t, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        for k in range(count):
            padded = np.zeros(got[k].shape[1:], dtype=np.int64)
            padded[:r, :c] = want[count * t + k]
            assert np.array_equal(got[k][t], padded), (t, k)
            r, c = c, r
    _assert_same_next_draw(draws, rngs)


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), count=st.sampled_from([1, 2]),
       shapes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=3 * channel._ROW_TRIALS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(q=2, count=1, shapes=[(7, 2)] + [(2, 4)] * 9, seed=0)  # the tallest is not the widest: a 7 x 4 box
@example(q=3, count=2, shapes=[(7, 2)] + [(2, 4)] * 9, seed=1)
@example(q=4, count=2, shapes=[(1, 6), (6, 1), (0, 5), (3, 0), (2, 2)] * 2, seed=2)  # zero cells, a box past all
@example(q=5, count=1, shapes=[(5, 3), (0, 0), (3, 5), (4, 4)] * 3, seed=3)
def test_full_rank_takes_the_serial_draws_at_any_shapes(q, count, shapes, seed):
    rows, cols = (np.array(side, dtype=np.int64) for side in zip(*shapes))
    _assert_as_serial(FIELDS[q], rows, cols, count, [[seed, t] for t in range(len(shapes))])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_two_matrices_take_the_draws_of_two_single_calls(q):
    """count 2 against _full_rank(rows, cols), then (cols, rows), on generators of the same seeds."""
    shapes = [(np.full(trials, m), np.full(trials, r)) for m in (1, 2, 3, 5, 8) for r in range(1, m + 1)
              for trials in (1, 6, 32)]  # the mix and channel matrix (m x m); the factors A (m x r) and B (r x m)
    shapes.append((np.array([4, 2, 4, 0, 3]), np.array([4, 2, 1, 3, 5])))  # mixed, and a trial that draws nothing
    for n, (rows, cols) in enumerate(shapes):
        seeds = [[q, n, t] for t in range(len(rows))]
        both, single = (channel._Draws([np.random.default_rng(seed) for seed in seeds]) for _ in range(2))
        first, second = channel._full_rank(FIELDS[q], both, rows, cols, 2)
        assert np.array_equal(first, channel._full_rank(FIELDS[q], single, rows, cols)[0])
        assert np.array_equal(second, channel._full_rank(FIELDS[q], single, cols, rows)[0])
        trials = np.arange(len(rows))
        assert np.array_equal(both.halves(trials, 64), single.halves(trials, 64))


@pytest.mark.parametrize("mode,s,random_generator,counts", [
    ("full-rank", 0, False, [1]),
    ("full-rank", 0, True, [2]),  # mixed: the mix, then the channel matrix
    ("deletion", 1, True, [2]),
    ("rank-deficient", 1, False, [2]),  # deficient: A, then B
    ("rank-deficient", 1, True, [1, 2]),  # the mix is a full stage of its own
    ("rank-deficient", 0, True, [1, 2]),  # three m x m matrices, the stages' draws alone pair them
    ("compound", 1, False, [1, 2]),
    ("compound", 1, True, [2, 2]),
])
def test_each_stage_ranks_all_its_matrices_once_per_round(monkeypatch, mode, s, random_generator, counts):
    """Each stage is one _full_rank call, and each of its rounds one rank_batch call,
    whether it draws one matrix or two."""
    calls, inside, sampler = [], [], channel._full_rank

    def spy(ctx, draws, rows, cols, count=1):
        calls.append([count, 0, 0])  # count, rounds, rank_batch calls
        inside.append(True)
        try:
            return sampler(ctx, draws, rows, cols, count)
        finally:
            inside.pop()

    def counted(at, fn):
        def wrapped(*args):
            if inside:  # a deficient stage's own rank check is no round
                calls[-1][at] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(channel, "_full_rank", spy)
    monkeypatch.setattr(channel._Draws, "values", counted(1, channel._Draws.values))
    monkeypatch.setattr(channel, "rank_batch", counted(2, channel.rank_batch))
    # more trials than a row-kernel round takes: every round is one rank_batch call
    run_trials(Multispace(Subspace.full(F3, 2), 2), ChannelConfig(mode, 2 * channel._ROW_TRIALS, s, 1, random_generator))
    assert [count for count, _, _ in calls] == counts
    assert all(rounds == ranks >= 1 for _, rounds, ranks in calls)


def test_a_trial_finds_its_second_matrix_in_a_later_round(monkeypatch):
    """With two 3 x 3 chunks per trial and round, each of full rank with chance 0.76 over
    GF(5), a trial that finds its first matrix in the first round but not its second
    looks for the second in a later round, from the chunk after the round."""
    trials, m, rounds = 32, 3, []
    seeds = [[11, t] for t in range(trials)]
    tries = []  # the candidates each trial's serial loop draws for its first and second matrix
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tries.append([next(n for n in itertools.count(1) if rref_array(F5, rng.integers(0, 5, (m, m)))[1] == m)
                      for _ in range(2)])
    assert any(first <= 2 < first + second for first, second in tries)
    values = channel._Draws.values

    def spy(self, live, q, count):
        rounds.append(len(live))
        return values(self, live, q, count)

    monkeypatch.setattr(channel._Draws, "values", spy)
    monkeypatch.setattr(channel, "DEFAULT_STATE_LIMIT", 2 * trials * m * m)
    _assert_as_serial(F5, np.full(trials, m), np.full(trials, m), 2, seeds)
    assert rounds[:2] == [trials, sum(first + second > 2 for first, second in tries)]


@pytest.mark.parametrize("tries", [2, 3, 4])
def test_a_try_budget_counts_per_matrix_when_trials_reach_their_second_in_different_rounds(monkeypatch, tries):
    """A state limit of one 4 x 4 chunk per trial of the block, each of full rank with chance
    0.56 over GF(3): trials find their first matrix in different rounds, and the budget
    counts each matrix's candidates from where that trial began it, so the sampler raises
    just when the serial loop does."""
    trials, m = 4, 4
    rows = np.full(trials, m)
    monkeypatch.setattr(channel, "DEFAULT_STATE_LIMIT", trials * m * m)
    monkeypatch.setattr(channel, "_MAX_TRIES", tries)
    outcomes = set()
    for seed in range(16):
        seeds = [[seed, t] for t in range(trials)]
        serial = _outcome(lambda: _serial_full_rank(F3, rows, rows, 2, seeds, tries)[0])
        ours = _outcome(lambda: channel._full_rank(F3, channel._Draws([np.random.default_rng(s) for s in seeds]),
                                                   rows, rows, 2))
        if serial is SamplingFailed:
            assert ours is SamplingFailed
        else:
            assert [a.tolist() for a in ours] == [np.array(serial[k::2]).tolist() for k in range(2)]
        outcomes.add(serial is SamplingFailed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("tries", [0, 1, 2, 3])
@pytest.mark.parametrize("mode,s,random_generator", [("full-rank", 0, True), ("deletion", 1, True),
                                                       ("rank-deficient", 1, False), ("compound", 1, False)])
def test_a_small_try_budget_raises_on_fused_stages_as_on_single_ones(monkeypatch, tries, mode, s, random_generator):
    w = Multispace(Subspace.full(F2, 6), 2)  # rank 8: an 8 x 8 candidate has full rank with chance 0.29
    gen = w.generating_multiset().matrix
    cfg = ChannelConfig(mode, trials=32, s=s, seed=9, random_generator=random_generator)
    serial = _outcome(lambda: serial_trial_loop(cfg, lambda rng: (w, gen), max_tries=tries))
    assert serial is SamplingFailed
    monkeypatch.setattr(channel, "_MAX_TRIES", tries)
    assert _outcome(lambda: run_trials(w, cfg)) is SamplingFailed


@pytest.mark.parametrize("random_generator", [False, True])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_each_mode_takes_its_rank_loss_and_distance_window(s, random_generator):
    # (rank loss, least distance, largest distance), written out rather than read from the stage table
    want = {"full-rank": (0, 0, 0), "deletion": (s, s, s), "rank-deficient": (s, 0, 2 * s),
            "compound": (2 * s, s, 3 * s)}
    assert {mode: channel._channel(ChannelConfig(mode, 1, s, 0, random_generator))[1:] for mode in MODES} == want


def test_a_distance_below_the_window_is_flagged(monkeypatch):
    # a deleted word's length puts it at least s from the sent one, so only a faulty
    # distance falls below the window; one that reads d - 1 is caught by the least end
    paired = _WordStack.paired

    def short(self, other):
        d, joins = paired(self, other)
        return d - 1, joins

    monkeypatch.setattr(_WordStack, "paired", short)
    run = run_trials(Multispace(Subspace.full(F3, 2), 2), ChannelConfig("deletion", trials=5, s=1, seed=0))
    assert run.summary.violations == 5 and run.summary.histogram == {0: 5}


@pytest.mark.parametrize("ctx", [F2, F3], ids=["masked", "past the mask limit"])
def test_a_received_space_outside_the_sent_one_is_flagged_inside_the_window(monkeypatch, ctx):
    """Rank-deficient s = 1 on (U, 1), dim U = 2: where the received space is U,
    one received basis row is swapped for a vector outside U.  Then d = 2 lies
    inside [0, 2s], so only the containment check can flag the trial."""
    sent = Multispace(Subspace.from_array(ctx, 4, [[1, 1, 0, 0], [0, 0, 1, 0]]), 1)
    eliminate, tampered = channel.rref_batch, []

    def tamper(ctx, a):
        bases, ranks = eliminate(ctx, a)
        whole = np.flatnonzero(ranks == 2)  # received space U, basis [1 1 0 0; 0 0 1 0]
        bases[whole, 0] = [0, 1, 0, 0]  # zero at both pivots, so outside U
        tampered.extend(whole.tolist())
        return bases, ranks

    monkeypatch.setattr(channel, "rref_batch", tamper)
    run = run_trials(sent, ChannelConfig("rank-deficient", trials=20, s=1, seed=3))
    assert 0 < len(tampered) < 20 and run.summary.violations == len(tampered)
    assert [i for i, record in enumerate(run.records) if not record.bound_satisfied] == tampered
    assert all(run.records[i].distance == 2 for i in tampered)  # inside the window


@pytest.mark.parametrize("ctx, n", [(F2, 4), (F3, 4)], ids=["masked", "past the mask limit"])
def test_a_received_row_outside_the_sent_space_is_measured(monkeypatch, ctx, n):
    sent = Multispace(Subspace.from_array(ctx, n, [[1, 1, 0, 0], [0, 0, 1, 0]]), 1)
    outside = np.array([0, 1, 0, 0])  # zero at both pivots, so no member of the sent space
    eliminate = channel.rref_batch

    def tampered(ctx, a):
        bases, ranks = eliminate(ctx, a)
        bases[0, 0] = outside  # trial 0's first received basis row
        return bases, ranks

    pairings = []
    paired = _WordStack.paired

    def spy(self, other):
        pairings.append(paired(self, other))
        return pairings[-1]

    monkeypatch.setattr(channel, "rref_batch", tampered)
    monkeypatch.setattr(_WordStack, "paired", spy)
    run = run_trials(sent, ChannelConfig("full-rank", trials=5, seed=2))
    [(d, joins)] = pairings
    assert d.tolist() == [distance(sent, record.received) for record in run.records]
    assert joins[0] == sent.dim + 1 and (joins[1:] == sent.dim).all()
    assert run.summary.violations == 1 and not run.records[0].bound_satisfied
    assert run.records[0].distance == d[0] > 0


def test_each_stack_is_masked_once_and_decoding_reuses_the_received_masks(monkeypatch):
    built = []
    masks = lattice._membership_masks

    def spy(ctx, n, bases):
        built.append(bases.shape[:-2])
        return masks(ctx, n, bases)

    monkeypatch.setattr(lattice, "_membership_masks", spy)
    w = Multispace(Subspace.full(F2, 4), 1)
    run = run_trials(w, ChannelConfig("full-rank", trials=40, seed=3))
    assert built == [(1,), (40,)]  # the one sent word's stack, then the received stack; views take slices
    assert all(r.received is run.records[0].received for r in run.records)  # one word per distinct row
    code = MultispaceCode(F2, 4, 5, (w, Multispace(Subspace.zero(F2, 4), 5)))
    built.clear()
    end_to_end(code, ChannelConfig("full-rank", trials=8, seed=3))
    assert built == [(2,), (8,)]  # the codewords, then the received words, checked and decoded


def test_a_short_rank_is_named_in_trial_order():
    code = MultispaceCode(F2, 2, 2, (Multispace.bottom(F2, 2), Multispace(Subspace.full(F2, 2), 0)))
    named = set()
    for seed in range(8):  # compound with s = 2 needs rank 4; every trial picks rank 0 or 2
        first = int(np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).integers(2))
        with pytest.raises(ConfigInvalid, match=f"needs rank >= 4, got {code.codewords[first].rank}$"):
            end_to_end(code, ChannelConfig("compound", trials=6, s=2, seed=seed))
        named.add(first)
    assert named == {0, 1}


def test_histograms_count_blocks_in_the_order_values_first_appear():
    cfg = ChannelConfig("rank-deficient", trials=7, s=2)
    blocks = [(None, None, np.array([4, 2, 2]), np.ones(3, dtype=bool)),
              (None, None, np.array([0, 4, 3, 0]), np.array([True, False, True, True]))]
    summary = channel._summarize(cfg, blocks)
    assert list(summary.histogram.items()) == [(2, 2), (4, 2), (0, 2), (3, 1)]
    assert (summary.violations, summary.max_distance) == (1, 4)
