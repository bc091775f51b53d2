import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    greedy_by_distance_loop,
    max_clique_by_bound,
    optimal_code_by_elements,
    packing_bound_by_height_ranges,
    packing_bound_oracle,
    random_multispace,
    serial_greedy_code,
)
from hypothesis import given, settings, strategies as st

import multispace
from multispace import cli, codes, lattice, linalg
from multispace.channel import MODES, ChannelConfig, end_to_end
from multispace.codes import (
    CLIQUE_LIMIT,
    MultispaceCode,
    ball,
    ball_size,
    codespace_growth,
    decode,
    exhaustive_optimal_code,
    greedy_code,
    min_distance,
    sphere_packing_bound,
)
from multispace.errors import ConfigInvalid, EmptyCode, LimitExceeded, TooFewCodewords
from multispace.fields import field, parse_field_spec
from multispace.lattice import (
    Multispace,
    _WordStack,
    count_covering,
    count_multispaces,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
    pairwise_distances,
)
from multispace.linalg import Subspace

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def all_rank_one_code():
    return MultispaceCode(F2, 3, 1, tuple(enumerate_multispaces(F2, 3, 1)))


def test_min_distance_of_full_rank_one_level():
    code = all_rank_one_code()
    assert len(code) == 8
    assert min_distance(code) == 2


def test_min_distance_and_decoding_share_one_codeword_stack(monkeypatch):
    words = tuple(enumerate_multispaces_up_to(F3, 2, 2))
    code = MultispaceCode(F3, 2, 2, words)
    stacks = []
    of = _WordStack.of.__func__
    monkeypatch.setattr(_WordStack, "of", classmethod(lambda cls, xs: stacks.append(len(xs)) or of(cls, xs)))
    assert code.min_distance == min(distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :])
    code._nearest(code._words())
    end_to_end(code, ChannelConfig("full-rank", trials=3))
    assert stacks == [len(words)]


def test_equal_rank_distances_are_even():
    words = list(enumerate_multispaces(F2, 3, 2))
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            assert distance(a, b) % 2 == 0 and distance(a, b) >= 2


def test_min_distance_needs_two_codewords():
    single = MultispaceCode(F2, 3, 1, (Multispace.bottom(F2, 3),))
    assert single.min_distance == math.inf
    with pytest.raises(TooFewCodewords):
        min_distance(single)


def _full_matrix_minimum(code) -> int:
    d = pairwise_distances(code.codewords)
    return int(d[~np.eye(len(d), dtype=bool)].min())


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3]), n=st.integers(1, 4), size=st.integers(2, 3 * lattice._PAIRWISE_ROWS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_min_distance_equals_the_full_matrix_minimum(q, n, size, seed):
    # the closest pair anywhere in or across the row blocks, masked (q^n <= 64) and eliminated (3^4)
    rng = np.random.default_rng(seed)
    words = tuple(dict.fromkeys(random_multispace(field(q), n, rng) for _ in range(size)))
    if len(words) < 2:
        return
    code = MultispaceCode(field(q), n, n + 3, words)
    assert code.min_distance == _full_matrix_minimum(code)
    assert code.min_distance == min(distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :])


def test_min_distance_forms_no_square_matrix():
    # 2613 words: a (T, T) int64 matrix alone is 52 MiB, and pairwise held about three
    code = greedy_code(F2, 4, 40, 1)
    assert len(code) == 2613
    tracemalloc.start()
    try:
        least = code.min_distance
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    assert least == _full_matrix_minimum(code) == 1


@pytest.mark.parametrize("height", [2 ** 62 - 1, 2 ** 62, 2 ** 63, 2 ** 63 + 5, 2 ** 64 + 5, 2 ** 70])
def test_kernel_distances_are_exact_below_the_height_limit_and_refused_from_it(height):
    # int64 heights below 2^62 keep every distance within int64; taller ones stay exact and are refused
    low, tall = Multispace.bottom(F2, 2), Multispace(Subspace.full(F2, 2), height)
    near = Multispace(Subspace.full(F2, 2), height - 1)
    code = MultispaceCode(F2, 2, height + 2, (low, tall))
    if height < lattice.HEIGHT_LIMIT:
        assert pairwise_distances([low, tall]).tolist() == [[0, distance(low, tall)], [distance(low, tall), 0]]
        assert min_distance(code) == distance(low, tall)
        assert decode(code, near) == (tall, distance(tall, near))
        return
    for call in (lambda: pairwise_distances([low, tall]), lambda: min_distance(code), lambda: decode(code, near)):
        with pytest.raises(LimitExceeded, match=r"2\^62"):
            call()


def test_code_validation():
    w = Multispace.bottom(F2, 3)
    with pytest.raises(ConfigInvalid):
        MultispaceCode(F2, 3, 1, (w, w))
    high = Multispace(Subspace.zero(F2, 3), 5)
    with pytest.raises(ConfigInvalid):
        MultispaceCode(F2, 3, 1, (high,))


def test_greedy_whole_space_at_distance_one():
    code = greedy_code(F2, 3, 3, 1, seed=0)
    assert len(code) == codespace_growth(F2, 3, 3) == 40


def test_greedy_diameter_excluded():
    # within rank <= 3 over GF(2)^3 the diameter is 6, so d_min = 7 forces size 1
    elems = list(enumerate_multispaces_up_to(F2, 3, 3))
    diameter = max(distance(a, b) for i, a in enumerate(elems) for b in elems[i + 1 :])
    assert diameter == 6
    code = greedy_code(F2, 3, 3, 7, seed=0)
    assert len(code) == 1


def test_greedy_meets_contract():
    for d_min in (2, 3, 4):
        for seed in (0, 1, 2):
            code = greedy_code(F2, 3, 3, d_min, seed=seed)
            if len(code) >= 2:
                assert min_distance(code) >= d_min


@settings(max_examples=40, deadline=None)
@given(ctx=st.sampled_from([F2, F3, F4]), n=st.integers(0, 3), m_max=st.integers(0, 3),
       d_min=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_greedy_matches_the_distance_loop(ctx, n, m_max, d_min, seed):
    code = greedy_code(ctx, n, m_max, d_min, seed=seed)
    assert code.codewords == greedy_by_distance_loop(ctx, n, m_max, d_min, seed)


@pytest.mark.parametrize("ctx, n, m_max, d_min", [
    (F2, 0, 2, 1),  # n = 0: one vector, the zero vector
    (F3, 0, 3, 2),
    (F2, 5, 3, 3),  # masks
    (F3, 3, 3, 2),
    (F2, 6, 2, 3),  # q^n = 64 exactly, the largest masked spaces
    (F4, 3, 3, 2),
    (field(2, 6), 1, 3, 2),
    (F3, 4, 2, 2),  # q^n > 64: elimination
    (F2, 7, 1, 2),
    (F2, 4, 4, 2),  # masked, d_min 2: no strikes inside a layer
    (F3, 4, 3, 3),  # elimination, d_min 3: each kept word strikes the live words of its layer
    (F2, 7, 2, 3),
])
def test_greedy_matches_the_serial_elimination_loop(ctx, n, m_max, d_min):
    for seed in (0, 1, 2):
        code = greedy_code(ctx, n, m_max, d_min, seed=seed)
        assert code.codewords == serial_greedy_code(ctx, n, m_max, d_min, seed)


@pytest.mark.parametrize("ctx, n, m_max, d_min", [
    (F2, 6, 2, 3),  # q^n = 64, masked
    (F4, 3, 3, 2),
    (F3, 4, 2, 2),  # q^n > 64: elimination
    (F2, 7, 2, 3),
])
def test_greedy_reads_layers_from_a_deeper_table_than_it_needs(ctx, n, m_max, d_min):
    # every layer is a prefix of one table: built deeper first, or to depth m_max
    # by greedy itself, the codes agree with the serial loop
    deep = min(n, m_max + 1)
    for deep_first in (True, False):
        with mock.patch.object(lattice, "_TABLES", OrderedDict()):
            if deep_first:
                _WordStack.layer(ctx, n, deep)
            code = greedy_code(ctx, n, m_max, d_min, seed=3)
            assert lattice._TABLES[ctx, n][0].shape[1] == (deep if deep_first else min(n, m_max))
        assert code.codewords == serial_greedy_code(ctx, n, m_max, d_min, 3)


#: every (q, n <= 3, m_max <= 3) whose ground set the clique search takes on
_OPTIMAL_GRID = [
    (q, n, m_max) for q in (2, 3, 4) for n in range(4) for m_max in range(4)
    if codespace_growth(field(2, 2) if q == 4 else field(q), n, m_max) <= CLIQUE_LIMIT
]


@pytest.mark.parametrize("q, n, m_max", _OPTIMAL_GRID)
def test_optimal_code_matches_the_per_element_search(q, n, m_max):
    ctx = field(2, 2) if q == 4 else field(q)
    for d_min in range(1, 5):
        assert exhaustive_optimal_code(ctx, n, m_max, d_min).codewords == optimal_code_by_elements(
            ctx, n, m_max, d_min)


@settings(max_examples=150, deadline=None)
@given(v=st.integers(0, 40), density=st.floats(0, 1), seed=st.integers(0, 2 ** 32 - 1))
def test_the_clique_search_returns_the_plain_branch_and_bound_clique(v, density, seed):
    # the diagonal is random too: both searches ignore it
    upper = np.random.default_rng(seed).random((v, v)) < density
    adjacency = upper | upper.T
    assert codes._max_clique(adjacency) == max_clique_by_bound(adjacency)


def test_the_clique_search_drops_a_branch_that_can_only_tie_the_incumbent(monkeypatch):
    # the same cliques either way, so only the work tells: a bound that keeps ties colours 513 times
    colour, calls = codes._colour_classes, []
    monkeypatch.setattr(codes, "_colour_classes", lambda *args: calls.append(1) or colour(*args))
    assert len(exhaustive_optimal_code(F2, 3, 3, 3)) == 5 and len(calls) == 13


#: (search, ctx, n, m_max, d_min) with q^n on both sides of MASK_VECTORS for each q
_HANDOFF = [("greedy", *case) for case in (
    (F2, 4, 3, 3), (F2, 7, 2, 3), (F3, 3, 2, 2), (F3, 4, 2, 3), (F4, 3, 2, 2), (F4, 4, 2, 3))] + [
    ("optimal", *case) for case in (
    (F2, 3, 3, 3), (F2, 7, 0, 1), (F3, 3, 2, 2), (F3, 4, 1, 2), (F4, 3, 1, 2), (F4, 4, 0, 1))]


@pytest.mark.parametrize("search, ctx, n, m_max, d_min", _HANDOFF)
def test_a_searched_code_hands_over_the_stack_and_distance_of_its_codewords(search, ctx, n, m_max, d_min):
    if search == "greedy":
        code = greedy_code(ctx, n, m_max, d_min, seed=2)
    else:
        code = exhaustive_optimal_code(ctx, n, m_max, d_min)
        assert code._min_dist is not None  # read off the clique's block of the search's distances
    assert code._stack is not None
    built = MultispaceCode(ctx, n, m_max, code.codewords)
    handed, rebuilt = code._words(), built._words()
    assert (ctx.q ** n <= lattice.MASK_VECTORS) == (handed.masks is not None)
    for name in ("dims", "heights", "masks"):
        a, b = getattr(handed, name), getattr(rebuilt, name)
        assert (a is None and b is None) or (a.shape == b.shape and np.array_equal(a, b)), name
    # a handed-over stack may be padded deeper than the rebuilt one: each basis is the same
    for a, b, dim in zip(handed.bases, rebuilt.bases, handed.dims.tolist()):
        assert a[:dim].tolist() == b[:dim].tolist()
    assert code.min_distance == built.min_distance


def _summary_or_error(code, cfg):
    try:
        return end_to_end(code, cfg)
    except ConfigInvalid as exc:  # a codeword too small for the mode, met in the first block
        return str(exc)


@pytest.mark.parametrize("search, ctx, n, m_max, d_min", _HANDOFF + [("optimal", F2, 1, 1, 3), ("optimal", F2, 2, 2, 5)])
def test_a_searched_code_sends_and_decodes_as_its_rebuilt_code(search, ctx, n, m_max, d_min):
    # the last two optima are the rank-0 word alone, handed over in a stack of depth 1 and 2
    if search == "greedy":
        code = greedy_code(ctx, n, m_max, d_min, seed=2)
    else:
        code = exhaustive_optimal_code(ctx, n, m_max, d_min)
    built = MultispaceCode(ctx, n, m_max, code.codewords)
    for mode in MODES:
        for s in {0, 0 if mode == "full-rank" else 1}:
            cfg = ChannelConfig(mode, 120, s, seed=4, random_generator=s == 0)
            assert _summary_or_error(code, cfg) == _summary_or_error(built, cfg), (mode, s)
    rng = np.random.default_rng(5)
    for w in list(code.codewords) + [random_multispace(ctx, n, rng) for _ in range(20)]:
        assert decode(code, w) == decode(built, w)


@pytest.mark.parametrize("ctx, n, m_max, d_min", [(F2, 5, 3, 3), (F3, 4, 3, 3)])
def test_greedy_strikes_layers_over_several_cross_blocks(ctx, n, m_max, d_min):
    # a small entry limit splits each kept x layer pairing into blocks of rows and of columns
    with mock.patch.object(lattice, "DEFAULT_STATE_LIMIT", 40):
        code = greedy_code(ctx, n, m_max, d_min, seed=1)
    assert code.codewords == serial_greedy_code(ctx, n, m_max, d_min, 1)


@pytest.mark.parametrize("ctx, n", [(F2, 4), (F3, 4)], ids=["masked", "past the mask limit"])
def test_greedy_strikes_a_masked_layer_whole_and_eliminates_only_live_words(monkeypatch, ctx, n):
    # the work, not the code: on masks a kept word strikes its whole layer, a popcount with no
    # gather, while an elimination pairs it only with the words still alive
    sizes = []
    paired = _WordStack.paired

    def spy(self, other):
        if np.ndim(self.dims) == 0:  # one kept word against its layer
            sizes.append(len(other.dims))
        return paired(self, other)

    monkeypatch.setattr(_WordStack, "paired", spy)
    code = greedy_code(ctx, n, 2, 3, seed=1)
    assert code.codewords == serial_greedy_code(ctx, n, 2, 3, 1)
    layers = {count_multispaces(n, m, ctx.q) for m in range(3)}
    assert len(sizes) > 2 and (set(sizes) <= layers) == (ctx.q ** n <= 64)


def test_greedy_needs_a_nonnegative_dimension():
    with pytest.raises(ConfigInvalid, match="negative"):
        greedy_code(F2, -1, 2, 2)


def test_greedy_refuses_a_negative_seed_before_any_work():
    with pytest.raises(ConfigInvalid, match="seed -1 is negative"):
        greedy_code(F2, 3, 2, 2, seed=-1)


def test_greedy_deterministic():
    a = greedy_code(F3, 2, 3, 2, seed=5)
    b = greedy_code(F3, 2, 3, 2, seed=5)
    assert a.codewords == b.codewords


def test_greedy_growth_in_m_max():
    sizes = [len(greedy_code(F2, 2, m, 2, seed=0)) for m in range(2, 7)]
    assert all(x < y for x, y in zip(sizes, sizes[1:]))


def test_optimal_whole_space_at_distance_one():
    code = exhaustive_optimal_code(F2, 2, 2, 1)
    assert len(code) == 10


def test_optimal_small_instance():
    # 10-element ground set; the even-rank levels {bottom} + M(2,2) form a
    # distance->=2 clique of size 6, and the cover structure allows no more
    code = exhaustive_optimal_code(F2, 2, 2, 2)
    assert len(code) == 6
    assert min_distance(code) >= 2


def test_optimal_at_least_greedy():
    for (ctx, n, m_max, d_min) in [(F2, 2, 2, 2), (F2, 2, 3, 2), (F3, 2, 2, 2), (F2, 3, 1, 2)]:
        opt = exhaustive_optimal_code(ctx, n, m_max, d_min)
        for seed in (0, 1):
            assert len(opt) >= len(greedy_code(ctx, n, m_max, d_min, seed=seed))


def test_optimal_size_limit():
    with pytest.raises(LimitExceeded):
        exhaustive_optimal_code(F2, 3, 5, 2)  # 72 elements


def _refuse_layers(monkeypatch):
    """Make every way of enumerating a layer fail the test."""
    def refuse(*args):
        raise AssertionError("enumerated before the checks")

    monkeypatch.setattr(lattice, "_subspace_table", refuse)
    monkeypatch.setattr(lattice, "enumerate_multispaces", refuse)
    monkeypatch.setattr(lattice, "_subspace_blocks", refuse)
    monkeypatch.setattr(linalg, "_subspace_blocks", refuse)
    monkeypatch.setattr(lattice._WordStack, "layer", refuse)


def test_optimal_size_limit_is_checked_before_enumeration(monkeypatch):
    _refuse_layers(monkeypatch)
    with pytest.raises(LimitExceeded, match="65539"):
        exhaustive_optimal_code(field(2, 16), 2, 1, 1)


@pytest.mark.parametrize("m_max", [-1, 0, 2])
def test_optimal_needs_a_nonnegative_dimension(m_max):
    # codespace_growth is 0 for a negative m_max, so the clique limit alone let n = -1 through
    with pytest.raises(ConfigInvalid, match="ambient dimension -1 is negative"):
        exhaustive_optimal_code(F2, -1, m_max, 1)


#: (setting, bad value, message) for the code-search settings; the good ones are n 3, m_max 2, d_min 2, seed 0
BAD_SETTINGS = [
    ("n", 3.0, "n 3.0 is not an integer"),
    ("n", True, "n True is not an integer"),
    ("n", -1, "ambient dimension -1 is negative"),
    ("m_max", 2.0, "m_max 2.0 is not an integer"),
    ("m_max", False, "m_max False is not an integer"),
    ("m_max", -1, "m_max = -1 must be nonnegative"),
    ("d_min", 2.0, "d_min 2.0 is not an integer"),
    ("d_min", 2.5, "d_min 2.5 is not an integer"),
    ("d_min", True, "d_min True is not an integer"),
    ("d_min", 0, "d_min must be >= 1"),
    ("seed", 1.5, "seed 1.5 is not an integer"),
    ("seed", True, "seed True is not an integer"),
    ("seed", -1, "seed -1 is negative"),
]


#: the code-search entry points, each called with (n, m_max, d_min, seed); only greedy_code takes a seed
SEARCHES = {
    "greedy": lambda n, m_max, d_min, seed: greedy_code(F2, n, m_max, d_min, seed=seed),
    "optimal": lambda n, m_max, d_min, seed: exhaustive_optimal_code(F2, n, m_max, d_min),
    "bound": lambda n, m_max, d_min, seed: sphere_packing_bound(F2, n, m_max, d_min),
}


@pytest.mark.parametrize("entry, name, value, message", [
    (entry, *bad) for entry in SEARCHES for bad in BAD_SETTINGS if entry == "greedy" or bad[0] != "seed"
])
def test_every_search_entry_refuses_bad_settings_before_any_layer(monkeypatch, entry, name, value, message):
    _refuse_layers(monkeypatch)
    with pytest.raises(ConfigInvalid) as exc:
        SEARCHES[entry](**{"n": 3, "m_max": 2, "d_min": 2, "seed": 0, name: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("argv, message", [
    (["2", "-1", "2", "2"], "ambient dimension -1 is negative"),
    (["2", "3", "-1", "2"], "m_max = -1 must be nonnegative"),
    (["2", "3", "2", "0"], "d_min must be >= 1"),
    (["2", "3", "2", "2", "--seed", "-1"], "seed -1 is negative"),
])
@pytest.mark.parametrize("optimal", [False, True])
def test_cli_search_refuses_bad_settings_before_any_layer(monkeypatch, capsys, argv, message, optimal):
    _refuse_layers(monkeypatch)
    assert cli.main(["search", *argv] + ["--optimal"] * optimal) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_a_negative_rank_cap_is_refused_not_an_empty_code():
    for search in (lambda: greedy_code(F2, 3, -1, 2), lambda: exhaustive_optimal_code(F2, 3, -1, 2)):
        with pytest.raises(ConfigInvalid, match="m_max = -1 must be nonnegative"):
            search()


def test_ball_examples():
    bottom = Multispace.bottom(F2, 3)
    assert ball_size(bottom, 0, 3) == 1
    assert ball_size(bottom, 1, 3) == 1 + count_covering(bottom)
    assert ball_size(bottom, 6, 3) == 40  # radius >= diameter
    sizes = [ball_size(bottom, r, 3) for r in range(7)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_ball_size_monotone_around_top():
    center = Multispace(Subspace.full(F2, 3), 0)
    sizes = [ball_size(center, r, 3) for r in range(5)]
    assert sizes[0] == 1
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[1] == 8  # the 7 planes of GF(2)^3; nothing covers it below rank 4


def test_ball_matches_distance_enumeration():
    elems = list(enumerate_multispaces_up_to(F2, 3, 3))
    center = elems[17]
    for radius in (0, 1, 2, 3):
        want = sorted(
            (w for w in elems if distance(center, w) <= radius),
            key=lambda w: w.sort_key(),
        )
        assert ball(center, radius, 3) == want


def test_negative_radius_is_an_error():
    for center in (Multispace.bottom(F2, 2), Multispace.bottom(F2, 21)):  # before the q^n budget
        for fn in (ball, ball_size):
            with pytest.raises(ConfigInvalid, match="radius -1"):
                fn(center, -1, 2)
            for radius in (1.5, True):  # a float or bool radius is refused, not a bare TypeError
                with pytest.raises(ConfigInvalid, match=f"radius {radius} is not an integer"):
                    fn(center, radius, 2)


def test_a_center_above_the_rank_cap_is_named():
    center = Multispace(Subspace.from_array(F2, 3, [[1, 0, 0]]), 1)  # rank 2
    for fn in (ball, ball_size):
        with pytest.raises(ConfigInvalid, match="center rank 2 exceeds m_max 1"):
            fn(center, 1, 1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closed_form_ball_size_matches_bfs_and_distance_filter(data):
    spec, n = data.draw(st.sampled_from([("2", 1), ("2", 2), ("2", 3), ("2", 4), ("3", 2), ("3", 3), ("2^2", 2), ("2^2", 3)]))
    ctx = parse_field_spec(spec)
    m_max = data.draw(st.integers(0, 3))
    elems = list(enumerate_multispaces_up_to(ctx, n, m_max))
    center = data.draw(st.sampled_from(elems))
    radius = data.draw(st.integers(0, n + m_max))
    members = {w for w in elems if distance(center, w) <= radius}
    assert set(ball(center, radius, m_max)) == members
    assert ball_size(center, radius, m_max) == len(members)


@pytest.mark.parametrize(
    "ctx,n,m_max,d_min",
    [
        *[(F2, 2, 2, d) for d in range(1, 7)],
        (F2, 3, 2, 3),
        (F2, 3, 3, 3),
        (F2, 3, 3, 5),
        (F2, 3, 4, 7),
        (F2, 4, 2, 5),
        (F2, 4, 3, 3),
        (F3, 2, 3, 3),
        (F3, 2, 4, 7),
        (F3, 3, 2, 3),
        (field(2, 2), 2, 3, 3),
        (field(2, 2), 2, 2, 5),
    ],
)
def test_packing_bound_matches_the_bfs_oracle(ctx, n, m_max, d_min):
    assert sphere_packing_bound(ctx, n, m_max, d_min) == packing_bound_oracle(ctx, n, m_max, d_min)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_packing_bound_skips_the_heights_where_ball_sizes_are_constant(q):
    ctx = F4 if q == 4 else field(q)
    for n in range(7):
        for m_max in range(16):
            total = codespace_growth(ctx, n, m_max)
            for radius in range(7):  # d_min 1..14
                every_class = [
                    codes._ball_size_at(codes._ball_terms(q, n, k, radius, m_max), t, m_max)
                    for k in range(min(n, m_max) + 1)
                    for t in range(m_max - k + 1)
                ]
                for d_min in (2 * radius + 1, 2 * radius + 2):
                    assert sphere_packing_bound(ctx, n, m_max, d_min) == total // min(every_class)


def test_the_sweep_finds_each_dims_smallest_ball_over_every_height():
    for q in (2, 3, 4):
        for n in range(6):
            for m_max in range(14):
                for radius in range(1, 7):
                    for k in range(min(n, m_max) + 1):
                        terms = codes._ball_terms(q, n, k, radius, m_max)
                        every = [codes._ball_size_at(terms, t, m_max) for t in range(m_max - k + 1)]
                        assert codes._smallest_ball(terms, m_max - k, m_max) == min(every), (q, n, m_max, radius, k)


def test_packing_bound_and_ball_size_enumerate_nothing(monkeypatch):
    want = packing_bound_oracle(F3, 2, 3, 5)
    bfs = len(ball(Multispace.bottom(F3, 2), 2, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    for module, name in [
        (codes, "ball"),
        (lattice, "_subspace_table"),
        (codes, "covered_neighbors"),
        (codes, "covering_neighbors"),
        (lattice, "enumerate_multispaces"),
        (lattice, "enumerate_subspaces"),
        (linalg, "enumerate_subspaces"),
        (lattice, "_subspace_blocks"),
        (linalg, "_subspace_blocks"),
        (lattice._WordStack, "layer"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert sphere_packing_bound(F3, 2, 3, 5) == want
    assert sphere_packing_bound(F2, 20, 1, 3) == 524288
    assert ball_size(Multispace.bottom(F3, 2), 2, 3) == bfs


def test_bound_of_a_million_element_code_space():
    # 2^20 + 1 multispaces; a ball around each of them did not finish in 20 s
    src = Path(multispace.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "multispace.cli", "--format", "json", "bound", "2", "20", "1", "3"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"packing_bound": 524288, "space_size": 2 ** 20 + 1}


def test_packing_bound_needs_a_nonnegative_rank_cap():
    with pytest.raises(ConfigInvalid, match="m_max"):
        sphere_packing_bound(F2, 3, -1, 3)


def test_packing_bound():
    assert sphere_packing_bound(F2, 2, 2, 1) == 10  # radius-0 balls
    bounds = [sphere_packing_bound(F2, 2, 2, d) for d in range(1, 6)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    for (n, m_max, d_min) in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 1, 2)]:
        opt = exhaustive_optimal_code(F2, n, m_max, d_min)
        assert len(opt) <= sphere_packing_bound(F2, n, m_max, d_min)


def test_decode_identity_and_ties():
    code = all_rank_one_code()
    for w in code:
        got, d = decode(code, w)
        assert got == w and d == 0
    # adversarial midpoint: bottom is at distance 1 from every rank-1 codeword
    two = MultispaceCode(F2, 3, 1, code.codewords[:2])
    got, d = decode(two, Multispace.bottom(F2, 3))
    assert got == two.codewords[0] and d == 1


def test_decode_tie_returns_the_earlier_codeword():
    lines = tuple(enumerate_multispaces(F2, 3, 1))[1:4]  # three height-0 lines
    far = Multispace(Subspace.full(F2, 3), 3)
    bottom = Multispace.bottom(F2, 3)  # at distance 1 from every line
    for order in (lines, lines[::-1], (far, *lines)):
        code = MultispaceCode(F2, 3, 6, order)
        got, d = decode(code, bottom)
        assert d == 1 and got == next(w for w in order if w != far)


@settings(max_examples=60, deadline=None)
@given(ctx=st.sampled_from([F2, F3, F4]), n=st.integers(1, 3), size=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decode_with_the_cached_stack_is_the_first_argmin(ctx, n, size, seed):
    rng = np.random.default_rng(seed)
    words = tuple(dict.fromkeys(random_multispace(ctx, n, rng) for _ in range(size)))
    code = MultispaceCode(ctx, n, max(w.rank for w in words), words)
    for _ in range(6):  # the first decode builds the codeword stack, the rest reuse it
        received = random_multispace(ctx, n, rng, max_height=4)
        d = [distance(c, received) for c in code]
        best = d.index(min(d))  # ties go to the earliest codeword
        assert decode(code, received) == (code.codewords[best], d[best])


def test_decode_unique_radius():
    a = Multispace(Subspace.full(F2, 3), 0)
    b = Multispace(Subspace.zero(F2, 3), 3)
    code = MultispaceCode(F2, 3, 3, (a, b))
    assert min_distance(code) == 6
    radius = (6 - 1) // 2
    for c in code:
        for w in ball(c, radius, 3):
            got, _ = decode(code, w)
            assert got == c


def test_decode_errors():
    with pytest.raises(EmptyCode):
        decode(MultispaceCode(F2, 3, 1, ()), Multispace.bottom(F2, 3))


def test_decode_accepts_any_rank():
    code = all_rank_one_code()  # m_max = 1
    tall = Multispace(Subspace.zero(F2, 3), 7)
    got, d = decode(code, tall)
    assert d == 6  # nearest is ({0}, 1)
    assert got == Multispace(Subspace.zero(F2, 3), 1)


def test_codespace_growth():
    assert codespace_growth(F2, 3, 3) == 40
    assert codespace_growth(F2, 3, 0) == 1
    m = 30
    total = codespace_growth(F2, 3, m)
    limit = m * codespace_growth(F2, 3, 3) // 40 * 16  # m * |P_2(3)|
    assert abs(total / (m * 16) - 1) <= 0.1


def _per_rank_growth(ctx, n, m):
    """The code space size as the per-rank sum, or the toolkit error it raises."""
    try:
        return sum(lattice.count_multispaces(n, j, ctx.q) for j in range(m + 1))
    except ConfigInvalid as exc:
        return type(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_closed_form_codespace_growth_equals_the_per_rank_sum(q):
    ctx = field(2, 2) if q == 4 else field(q)
    for n in range(-2, 7):
        for m in range(-2, 12):
            try:
                got = codespace_growth(ctx, n, m)
            except ConfigInvalid as exc:
                got = type(exc)
            assert got == _per_rank_growth(ctx, n, m), (n, m)


def test_code_json_round_trip():
    code = greedy_code(F2, 3, 2, 2, seed=0)
    d = code.to_dict()
    assert d["d_min"] == int(code.min_distance)
    back = MultispaceCode.from_dict(d)
    assert back == code


def test_packing_bound_reads_the_same_minimum_at_the_breakpoints_as_over_two_height_ranges():
    # every d_min up to two past the largest distance, where the bound is 1 with no ball summed
    for ctx in (F2, F3, field(5)):
        for n in range(5):
            for m_max in range(12):
                for d_min in range(1, 2 * m_max + n + 3):
                    want = packing_bound_by_height_ranges(ctx, n, m_max, d_min)
                    assert sphere_packing_bound(ctx, n, m_max, d_min) == want, (ctx.q, n, m_max, d_min)
