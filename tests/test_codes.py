import math

import numpy as np
import pytest

from multispace import codes, lattice
from multispace.codes import (
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
from multispace.fields import field
from multispace.lattice import (
    Multispace,
    count_covering,
    distance,
    enumerate_multispaces,
    enumerate_multispaces_up_to,
)
from multispace.linalg import FqVector, Subspace, span

F2 = field(2)
F3 = field(3)


def all_rank_one_code():
    return MultispaceCode(F2, 3, 1, tuple(enumerate_multispaces(F2, 3, 1)))


def test_min_distance_of_full_rank_one_level():
    code = all_rank_one_code()
    assert len(code) == 8
    assert min_distance(code) == 2


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


def test_optimal_size_limit_is_checked_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(codes, "enumerate_multispaces_up_to", refuse)
    monkeypatch.setattr(lattice, "enumerate_multispaces", refuse)
    with pytest.raises(LimitExceeded, match="65539"):
        exhaustive_optimal_code(field(2, 16), 2, 1, 1)


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


def test_code_json_round_trip():
    code = greedy_code(F2, 3, 2, 2, seed=0)
    d = code.to_dict()
    assert d["d_min"] == int(code.min_distance)
    back = MultispaceCode.from_dict(d)
    assert back == code
