"""The mutation table: hand-made faults of src that named tests must catch.

Each mutant is one exact edit of one file under src/multispace: a source text
that occurs there exactly once, and its replacement.  For each mutant the
runner copies src to a temporary directory, applies the edit there, and runs
the mutant's test files (or node ids) against the copy with ``pytest -x``.
The mutant is killed when pytest reports a failure or an import error, or
runs past ten minutes, and survives when every test passes.  A node id
that does not collect under the mutant (pytest exits 4, as when the mutant
breaks the import of the id's module) kills it when the id collects on the
unmutated src, and stops the run as a stale entry otherwise.  A speed mutant
changes no output, only the work done, so only a test that counts that work
can kill it.

Run from any directory; pytest does not collect this file:

    python tests/mutate.py                # every mutant, a few minutes
    python tests/mutate.py NAME [NAME..]  # the named mutants

It prints killed or survived and the seconds each took, and exits 1 when a
mutant survives.  Tests that start the library in a subprocess with
PYTHONPATH set to the repository's own src (some of tests/test_cli.py) run
the unmutated code, so no mutant here relies on them.  A mutant that lifts a
refusal must meet a test that stops it at once, not one that runs without end
and grows its memory: the test named by drop-count-rows-budget fails at the
first row counted.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "multispace"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/multispace
    old: str  # occurs exactly once in file
    new: str
    tests: tuple  # test files or node ids, relative to the repository root, that should kill it
    why: str
    speed: bool = False  # the same outputs with more work: only a counting test kills it


CHANNEL, CODES, CLI, QPOLY, FIELDS = (f"tests/test_{name}.py"
                                      for name in ("channel", "codes", "cli", "qpoly", "fields"))
ACCEPTANCE = "tests/test_acceptance.py"
ZECH = f"{FIELDS}::test_small_odd_fields_add_by_zech_logarithms_as_by_digits_on_every_pair"
SHAPES = f"{CHANNEL}::test_full_rank_takes_the_serial_draws_at_any_shapes"
TWO_CALLS = f"{CHANNEL}::test_two_matrices_take_the_draws_of_two_single_calls"
LIST_READS = f"{QPOLY}::test_the_list_reads_match_the_array_gathers"
ORACLE_MAP = f"{QPOLY}::test_encode_and_decode_match_the_scalar_oracle_on_every_element"
MUTANTS = (
    Mutant("deficient-window-top", "channel.py", "_deficient, (1, 0, 2))", "_deficient, (1, 0, 3))", (CHANNEL,),
           "a rank w - s matrix moves the word at most 2s; a looser window hides violations"),
    Mutant("delete-window-least", "channel.py", "_delete, (1, 1, 1))", "_delete, (1, 0, 1))", (CHANNEL,),
           "least is also the drop in the multiset's length, so the received heights follow it"),
    Mutant("delete-window-top", "channel.py", "_delete, (1, 1, 1))", "_delete, (1, 1, 2))", (CHANNEL,),
           "deleting s vectors moves the word exactly s"),
    Mutant("drop-containment-check", "channel.py", "(d <= most) & (joins == sent.dims)", "(d <= most)", (CHANNEL,),
           "criterion 7: the received space lies inside the sent one, also inside the window"),
    Mutant("drop-least-check", "channel.py", "(least <= d) & (d <= most)", "(d <= most)", (CHANNEL,),
           "a distance below the window is a fault of the distance kernel"),
    Mutant("sampler-accepts-any-candidate", "channel.py",
           "ok = ranks == np.minimum(r, c)[:, None, None]", "ok = ranks >= 0", (CHANNEL,),
           "a singular channel matrix loses rank the mode does not allow"),
    Mutant("second-matrix-reuses-the-first-chunk", "channel.py", "(np.arange(k) > np.where(got, -1, i)[:, None])",
           "(np.arange(k) >= np.where(got, -1, i)[:, None])", (SHAPES, TWO_CALLS),
           "the serial loop draws the second matrix after the first: a chunk serves one of them"),
    Mutant("finished-cursor-past-every-chunk", "channel.py", "np.where(done, j + 1, k) * cells", "k * cells",
           (SHAPES, TWO_CALLS), "a finished trial's next draw follows the last chunk it kept, not the whole round"),
    Mutant("chunks-unpadded", "channel.py",
           "    vals = np.concatenate((vals, np.zeros((len(vals), math.prod(shape)), dtype=vals.dtype)), axis=1)\n", "",
           (SHAPES,), "a row of a padded box may run past the last draw, when the tallest trial is not the widest"),
    Mutant("drop-channel-budget", "channel.py", '    _check_budget(top ** 2, "channel matrix entries")\n', "",
           (CHANNEL,), "the m x m channel matrices are refused past the entry budget before any trial"),
    Mutant("drop-rank-check", "channel.py", "            cfg.check_rank(m)\n", "            pass\n", (CHANNEL,),
           "a word too small for the mode's error weight is refused, not sent"),
    Mutant("no-mixed-stage", "channel.py", "(_MIXED, *stages[1:]) if stages[0] is _FULL else (_FULL, *stages)",
           "(_FULL, *stages)", (f"{CHANNEL}::test_each_stage_ranks_all_its_matrices_once_per_round",),
           "the mix and a leading full-rank matrix share one rank pass", speed=True),
    Mutant("channel-matrix-before-mix", "channel.py", "_transform(ctx, gens, mix, t)", "_transform(ctx, gens, t, mix)",
           (CHANNEL,), "a trial applies the mix, then the channel matrix, as the serial loop draws them"),
    Mutant("height-limit-2-63", "lattice.py", "HEIGHT_LIMIT = 1 << 62", "HEIGHT_LIMIT = 1 << 63",
           ("tests/test_lattice.py",), "heights from 2^62 overflow the int64 distance kernel"),
    Mutant("paired-plus-meets", "lattice.py", "joins = self.dims + other.dims - meets",
           "joins = self.dims + other.dims + meets", ("tests/test_lattice.py",),
           "dim(U + V) = dim U + dim V - dim(U meet V) on the masked path"),
    Mutant("views-drop-masks", "lattice.py", "None if self.masks is None else self.masks[index])", "None)",
           (CHANNEL,), "views share their stack's masks instead of rebuilding them", speed=True),
    Mutant("clique-bound-ties", "codes.py", "if size + colour <= omega:", "if size + colour < omega:", (CODES,),
           "a branch that can at best tie the incumbent clique is pruned", speed=True),
    Mutant("packing-radius", "codes.py", "radius = (d_min - 1) // 2", "radius = d_min // 2", (CODES,),
           "the packing radius of distance d_min is floor((d_min - 1) / 2)"),
    Mutant("rref-pivots-from-zero-rows", "linalg.py", "(red[:rank] != 0).argmax(axis=1)", "(red != 0).argmax(axis=1)",
           ("tests/test_linalg.py::test_rref_array_matches_the_numpy_elimination",),
           "past the row kernel, the pivots are read from the rank's rows only: a zero row has none"),
    Mutant("pivot-rows-stop-early", "linalg.py", "(held == rows).all()", "(held >= rows - 1).all()",
           ("tests/test_linalg.py",), "the forward pass stops only once every matrix has its pivots"),
    Mutant("unit-power-row-shifted", "fields.py", "powers[i % n]", "powers[i % max(1, n - 1)]", (QPOLY,),
           "x^(q^n) = x on GF(q^n), so q-index i reads unit-power row i mod n"),
    Mutant("unit-power-row-clamped", "fields.py", "powers[i % n]", "powers[min(i, n - 1)]", (QPOLY,),
           "q-indices past n wrap around, not stop at the last row"),
    Mutant("coordinate-places-by-p", "qpoly.py", "places = ctx.q ** np", "places = ctx.p ** np", (LIST_READS,),
           "a coordinate of GF(p^e) is one base-q digit of its row's value, e bits wide over GF(2^e)"),
    Mutant("encode-monomials-reversed", "qpoly.py", "big.mul_arr(self.emb.table, ctx.p ** i)",
           "big.mul_arr(self.emb.table, ctx.p ** (n - 1 - i))", (ORACLE_MAP,),
           "coordinate i multiplies X^i: the reversed map is a bijection too, so only the oracle tells them apart"),
    Mutant("decode-read-off-by-one", "qpoly.py", "self._decode[functools.reduce(add, t)]",
           "self._decode[functools.reduce(add, t) - 1]", (f"{QPOLY}::test_round_trip",),
           "the kernel reads decode at the sum of a unit's terms itself"),
    Mutant("row-digits-reversed", "qpoly.py", "[value // s % self.ctx.q for s in self._places]",
           "[value // s % self.ctx.q for s in self._places[::-1]]", (LIST_READS,),
           "c_0 is the most significant base-q digit of a row's value"),
    Mutant("height-exponent-one-short", "qpoly.py", "pow(q, h, F.q - 1)", "pow(q, h - 1, F.q - 1)",
           (f"{QPOLY}::test_round_trip",), "height h raises every coefficient to the q^h-th power"),
    Mutant("kernel-right-half-strict", "qpoly.py", "if h <= n}", "if h < n}", (f"{QPOLY}::test_round_trip",),
           "a row that leads at column n, bit_length n, lies in the kernel too"),
    Mutant("whole-space-plus-x", "qpoly.py", "c = [F.neg(1)] + [0] * (w.n - 1) + [1]",
           "c = [1] + [0] * (w.n - 1) + [1]", (QPOLY,),
           "the whole space is x^(q^n) - x; + x differs past characteristic 2"),
    Mutant("cover-adds-the-line", "lattice.py", "rows = ctx.sub_arr(u.basis", "rows = ctx.add_arr(u.basis",
           ("tests/test_lattice.py::test_covers_in_closed_form_are_the_eliminated_spans_in_order",),
           "a row r of U clears column c as r - r[c] v; + differs past characteristic 2"),
    Mutant("sweep-zero-point-one-late", "codes.py", "(m_max - j + s + 1, w)", "(m_max - j + s + 2, w)",
           (f"{CODES}::test_the_sweep_finds_each_dims_smallest_ball_over_every_height",),
           "a class's count falls to 0 at t = m_max - j + s + 1, where its slope of -1 ends"),
    Mutant("drop-count-rows-budget", "cli.py", '    _check_budget(args.m + 1, "count rows")', "",
           (f"{CLI}::test_count_refuses_more_rows_than_the_enumeration_limit_before_the_first_count",),
           "count writes one row per rank 0..m, so a huge m is refused before the first row"),
    Mutant("lower-bound-from-65-bits", "linalg.py", "if bits >= 64:", "if bits >= 65:",
           (f"{CLI}::test_a_huge_ambient_dimension_is_refused_before_any_count_is_formed",),
           "a count of 2^64 or more is named by its lower bound, before it is formed"),
    Mutant("ball-height-cap-one-up", "codes.py", "w * max(0, min(m_max - j, t + s)",
           "w * max(0, min(m_max - j + 1, t + s)",
           (f"{CODES}::test_closed_form_ball_size_matches_bfs_and_distance_filter",),
           "a word of dim j takes heights up to m_max - j, so its rank stays within m_max"),
    Mutant("regular-b-at-distance-k", "lattice.py", '("b", k + 1)', '("b", k)',
           ("tests/test_lattice.py::test_graph_kernels_match_the_bool_and_int64_products_on_named_graphs",),
           "the intersection number b_k counts the neighbours at distance k + 1"),
    Mutant("nearest-takes-the-last-minimum", "codes.py", "best = d.argmin(axis=1)",
           "best = d.shape[1] - 1 - d[:, ::-1].argmin(axis=1)",
           (f"{CHANNEL}::test_block_decoding_over_several_blocks_matches_the_serial_loop",),
           "decoding ties break by codeword order: the first nearest codeword wins"),
    Mutant("subfield-degree-from-2", "qpoly.py", "for ell in range(1, n_over_base + 1):",
           "for ell in range(2, n_over_base + 1):", (f"{QPOLY}::test_subfield_degree_metadata",),
           "coefficients in the base field itself have subfield degree 1"),
    Mutant("height-drop-from-2", "lattice.py", "(w.height > 0)", "(w.height > 1)",
           (f"{ACCEPTANCE}::test_criterion_04_cover_numbers",),
           "every word of height 1 or more covers its height drop"),
    Mutant("greedy-strikes-from-4", "codes.py", "if d_min > 2:", "if d_min > 3:",
           (f"{ACCEPTANCE}::test_criterion_08_coding_suite",),
           "distinct words of one rank can lie at distance 2 < d_min = 3, so a kept word strikes its layer"),
    Mutant("closest-keeps-the-diagonal", "codes.py", "        np.fill_diagonal(d, top)\n", "",
           (f"{CODES}::test_min_distance_equals_the_full_matrix_minimum",
            f"{ACCEPTANCE}::test_criterion_08_coding_suite"),
           "a codeword's distance 0 to itself, on the diagonal of each row block, is no minimum distance"),
    Mutant("zech-negation-offset", "fields.py", "(q - 1) // 2", "(q - 1) // 2 + 1", (ZECH,),
           "-1 = g^((q - 1)/2), so negation adds (q - 1)/2 to the log"),
    Mutant("zech-constant-digit-carries", "fields.py", "(exp + 1) % p", "exp + 1", (FIELDS,),
           "1 + g^k adds 1 mod p to the constant digit, with no carry into the next; in GF(p) the carry"
           " reads past the log table, and the fields built as the test file is collected fail"),
    Mutant("zech-difference-swapped", "fields.py", "(log[b] - log[a])", "(log[a] - log[b])", (ZECH,),
           "a + b = a (1 + b/a) reads the Zech logarithm at log b - log a"),
    Mutant("zech-array-difference-swapped", "fields.py", "(self._log_np[b] - la)", "(la - self._log_np[b])", (ZECH,),
           "the array rule reads the Zech logarithm at log b - log a too"),
    Mutant("zech-array-zero-case", "fields.py", "np.where(a == 0, b,", "np.where(a == 0, a,", (ZECH,),
           "0 + b = b: zero has no logarithm, so the array rule keeps it apart"),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Edit the copy src/multispace of one mutant's file."""
    path = src / "multispace" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant, timeout: float = 600) -> tuple[bool, float]:
    """(killed, seconds) of one mutant's tests on a mutated copy of src."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start
        if code == 4 and not collects(mutant.tests):  # a node id not found, stale unless the mutant broke it
            raise SystemExit(f"{mutant.name}: {' '.join(mutant.tests)} do not collect on the unmutated src")
        if code not in (0, 1, 2, 4):  # 0 all passed, 1 a test failed, 2 a collection (import) error, 4 above
            raise SystemExit(f"{mutant.name}: pytest exited {code} on {' '.join(mutant.tests)}")
        return code != 0, time.perf_counter() - start


def collects(tests) -> bool:
    """Whether pytest collects every one of tests on the unmutated src."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    survivors = []
    for m in chosen:
        killed, seconds = run(m)
        print(f"{'killed  ' if killed else 'SURVIVED'} {seconds:7.1f} s  {m.name}{' (speed)' * m.speed}", flush=True)
        if not killed:
            survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
