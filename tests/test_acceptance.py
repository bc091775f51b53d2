"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is checked at its stated tolerance and budget.
"""

import itertools
import time
from collections import Counter

import numpy as np

from helpers import (
    bfs_distances,
    brute_glb,
    brute_lub,
    cover_matrix,
    leq_matrix,
    literal_product,
    multiplicity_oracle,
    poset_elements,
    random_multiset,
    random_multispace,
)
from multispace.channel import ChannelConfig, run_trials
from multispace.codes import (
    ball,
    decode,
    exhaustive_optimal_code,
    greedy_code,
    min_distance,
    sphere_packing_bound,
)
from multispace.fields import field
from multispace.lattice import (
    Multispace,
    count_covered,
    count_covering,
    count_multispaces,
    distance,
    enumerate_multispaces,
    hasse_dot,
    hasse_edges,
    join,
    meet,
    mspan,
)
from multispace.linalg import Subspace, subspace_distance, subspace_leq
from multispace.qpoly import poly_from_multispace, roots_multiset

F2, F3, F4, F5 = field(2), field(3), field(4 // 2, 2), field(5)


def test_criterion_01_counting_suite():
    t0 = time.monotonic()
    for q in (2, 3, 4):
        ctx = field(2, 2) if q == 4 else field(q)
        for n in range(1, 5):
            if q ** n > 4096:
                continue
            for m in range(0, 7):
                enumerated = list(enumerate_multispaces(ctx, n, m))
                assert len(enumerated) == count_multispaces(n, m, q)
                assert len(set(enumerated)) == len(enumerated)
    assert [count_multispaces(3, m, 2) for m in range(5)] == [1, 8, 15, 16, 16]
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 1 (counting suite, {elapsed:.2f}s): PASS")


def test_criterion_02_multiplicity_oracle():
    rng = np.random.default_rng(20240809)
    max_m = {2: 16, 3: 10, 4: 8, 5: 6}
    ctxs = {2: F2, 3: F3, 4: F4, 5: F5}
    violations = 0
    for _ in range(500):
        q = int(rng.choice([2, 3, 4, 5]))
        ctx = ctxs[q]
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, max_m[q] + 1))
        b = random_multiset(ctx, n, m, rng)
        w = mspan(b)
        mu = multiplicity_oracle(b, state_limit=1 << 16)
        support = set(mu)
        spanned = {tuple(r) for r in w.underlying.vector_array()}
        uniform = set(mu.values()) == {q ** (m - w.dim)}
        if support != spanned or not uniform or sum(mu.values()) != q ** m:
            violations += 1
        if w.height != m - w.dim:
            violations += 1
    assert violations == 0
    print("\ncriterion 2 (multiplicity oracle, 500 random multisets): PASS")


def test_criterion_03_lattice_suite():
    t0 = time.monotonic()
    univ = poset_elements(F2, 3, 6)  # joins of rank-3 pairs can reach rank 6
    elems = univ[: 40]
    assert [w.rank for w in elems] == sorted(w.rank for w in elems) and len(elems) == 40
    leq = leq_matrix(univ)
    index = {w: i for i, w in enumerate(univ)}

    # meet/join against brute-force GLB/LUB, all 780 pairs
    for i, j in itertools.combinations(range(40), 2):
        assert index[meet(univ[i], univ[j])] == brute_glb(leq, i, j)
        assert index[join(univ[i], univ[j])] == brute_lub(leq, i, j)

    # modular law on all applicable triples
    for x in range(40):
        for y in range(40):
            if not leq[x, y]:
                continue
            for z in range(40):
                lhs = join(univ[x], meet(univ[z], univ[y]))
                rhs = meet(join(univ[x], univ[z]), univ[y])
                assert lhs == rhs

    # rank valuation, all pairs
    for i, j in itertools.combinations(range(40), 2):
        a, b = univ[i], univ[j]
        assert meet(a, b).rank + join(a, b).rank == a.rank + b.rank

    # metric distance equals Hasse BFS length
    cov = cover_matrix(leq[:40, :40])
    adj = cov | cov.T
    bfs = bfs_distances(adj)
    dmat = np.zeros((40, 40), dtype=np.int64)
    for i in range(40):
        for j in range(40):
            dmat[i, j] = distance(univ[i], univ[j])
    assert np.array_equal(bfs, dmat)

    # metric axioms
    assert np.array_equal(dmat, dmat.T)
    assert all(dmat[i, i] == 0 for i in range(40))
    assert all((dmat[i, j] > 0) for i in range(40) for j in range(40) if i != j)
    for k in range(40):
        assert np.all(dmat <= dmat[:, k][:, None] + dmat[k, :][None, :])

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 3 (lattice suite on 40 elements, {elapsed:.2f}s): PASS")


def test_criterion_04_cover_numbers():
    for ctx, n in [(F2, 3), (F3, 2)]:
        univ = poset_elements(ctx, n, 4)  # one rank above the checked slice
        leq = leq_matrix(univ)
        cov = cover_matrix(leq)
        for i, w in enumerate(univ):
            if w.rank > 3:
                continue
            if w.rank >= 1:
                assert int(cov[:, i].sum()) == count_covered(w)
            assert int(cov[i, :].sum()) == count_covering(w)
    print("\ncriterion 4 (cover numbers vs brute force): PASS")


def test_criterion_05_distance_bounds():
    for ctx, n in [(F2, 3), (F3, 2)]:
        elems = poset_elements(ctx, n, 3)
        for a in elems:
            for b in elems:
                d = distance(a, b)
                du = subspace_distance(a.underlying, b.underlying)
                assert d >= du
                assert (d == du) == (a.height == b.height)
                if a.rank == b.rank:
                    assert d == du + abs(a.dim - b.dim)
                    assert du <= d <= 2 * du
                    assert (d == du) == (a.dim == b.dim)
                    nested = subspace_leq(a.underlying, b.underlying) or subspace_leq(
                        b.underlying, a.underlying
                    )
                    assert (d == 2 * du) == nested
    print("\ncriterion 5 (distance vs underlying-space distance): PASS")


def test_criterion_06_linearized_round_trip():
    t0 = time.monotonic()
    total = 0
    for n in (1, 2, 3):
        for m in range(0, 13):  # q^rank = 2^m <= 2^12
            for w in enumerate_multispaces(F2, n, m):
                L = poly_from_multispace(w)
                oracle = literal_product(w)
                exps = set(np.nonzero(oracle.coeffs)[0].tolist())
                assert exps == {2 ** i for i in L.coeffs}
                assert exps <= {2 ** i for i in range(m + 1)}
                assert all(int(oracle.coeffs[2 ** i]) == c for i, c in L.coeffs.items())
                assert roots_multiset(L) == w
                total += 1
    assert total == 269
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 6 (round trip over {total} multispaces, {elapsed:.2f}s): PASS")


def _random_w_with_rank(ctx, n, rng, min_rank):
    while True:
        w = random_multispace(ctx, n, rng, max_height=3)
        if w.rank >= max(min_rank, 1):
            return w


def test_criterion_07_channel_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)

    # full-rank invariance: 10^4 trials over random (q, n, m)
    done = viol = 0
    for k in range(20):
        ctx = (F2, F3, F4, F5)[k % 4]
        w = _random_w_with_rank(ctx, 2 + k % 3, rng, 0)
        run = run_trials(w, ChannelConfig("full-rank", trials=500, seed=1000 + k))
        assert run.summary.violations == 0
        done += run.summary.trials
        viol += run.summary.violations
    assert done == 10_000 and viol == 0

    # deletion: distance exactly s, 10^4 trials per s
    for s in (1, 2, 3):
        done = viol = 0
        for k in range(4):
            ctx = (F2, F3)[k % 2]
            w = _random_w_with_rank(ctx, 3, rng, s)
            run = run_trials(w, ChannelConfig("deletion", trials=2500, s=s, seed=2000 + 10 * s + k))
            assert run.summary.violations == 0
            assert set(run.summary.histogram) == {s}
            done += run.summary.trials
            viol += run.summary.violations
        assert done == 10_000 and viol == 0

    # rank deficiency: distance <= 2s plus containment and rank preservation
    for s in (1, 2, 3):
        done = viol = 0
        for k in range(4):
            ctx = (F2, F3)[k % 2]
            w = _random_w_with_rank(ctx, 3, rng, s)
            run = run_trials(w, ChannelConfig("rank-deficient", trials=2500, s=s, seed=3000 + 10 * s + k))
            assert run.summary.violations == 0
            assert run.summary.max_distance <= 2 * s
            for rec in run.records:
                assert rec.received.rank == w.rank
                assert subspace_leq(rec.received.underlying, w.underlying)
            done += run.summary.trials
            viol += run.summary.violations
        assert done == 10_000 and viol == 0

    elapsed = time.monotonic() - t0
    print(f"\ncriterion 7 (channel suite, 7x10^4 trials, {elapsed:.1f}s): PASS")


def test_criterion_08_coding_suite():
    # greedy codes meet their d_min contract
    for (ctx, n, m_max) in [(F2, 2, 3), (F2, 3, 3), (F3, 2, 3)]:
        for d_min in (2, 3, 4):
            for seed in (0, 1):
                code = greedy_code(ctx, n, m_max, d_min, seed=seed)
                if len(code) >= 2:
                    assert min_distance(code) >= d_min

    # decode corrects every pattern within the unique-decoding radius
    wide = ((Multispace(Subspace.full(F2, 3), 0), Multispace(Subspace.zero(F2, 3), 3)))
    from multispace.codes import MultispaceCode

    code6 = MultispaceCode(F2, 3, 3, wide)
    assert min_distance(code6) == 6
    for c in code6:
        for w in ball(c, (6 - 1) // 2, 3):
            assert decode(code6, w)[0] == c
    code3 = greedy_code(F2, 3, 3, 3, seed=0)
    radius = (min_distance(code3) - 1) // 2
    for c in code3:
        for w in ball(c, radius, 3):
            assert decode(code3, w)[0] == c

    # optimal >= greedy and <= packing bound wherever the clique search runs
    instances = (
        [(F2, 2, m, d) for m in (2, 3, 4) for d in (1, 2, 3, 4)]
        + [(F2, 3, 1, d) for d in (1, 2, 3)]
        + [(F2, 3, 2, d) for d in (2, 3, 4)]
        + [(F3, 2, 2, d) for d in (1, 2, 3)]
    )
    for ctx, n, m_max, d_min in instances:
        opt = exhaustive_optimal_code(ctx, n, m_max, d_min)
        bound = sphere_packing_bound(ctx, n, m_max, d_min)
        assert len(opt) <= bound
        for seed in (0, 1):
            assert len(greedy_code(ctx, n, m_max, d_min, seed=seed)) <= len(opt)
    print("\ncriterion 8 (coding suite): PASS")


def test_criterion_09_unbounded_growth():
    sizes = [len(greedy_code(F2, 2, m_max, 2, seed=0)) for m_max in range(2, 9)]
    assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes
    print(f"\ncriterion 9 (growth in m_max, sizes {sizes}): PASS")


def test_criterion_10_hasse_figure():
    hd = hasse_dot(F2, 3, 3)
    assert hd.nodes == 40
    assert hd.rank_sizes == [1, 8, 15, 16]
    assert hd.dot.count('label="') > 0
    node_lines = [l for l in hd.dot.splitlines() if 'label="' in l and "->" not in l and "rank " not in l]
    assert len(node_lines) == 40
    assert sum("lightblue" in l for l in node_lines) == 16  # the height-0 sublattice
    assert hd.dot.count("->") == hd.edges

    down = Counter()
    up = Counter()
    for lower, upper in hasse_edges(F2, 3, 3):
        assert upper.rank == lower.rank + 1  # rank-layered edges only
        down[upper] += 1
        up[lower] += 1
    for m in range(4):
        for w in enumerate_multispaces(F2, 3, m):
            if w.rank >= 1:
                assert down[w] == count_covered(w)
            if w.rank < 3:
                assert up[w] == count_covering(w)
    print("\ncriterion 10 (40-node rank-layered diagram with matching degrees): PASS")
