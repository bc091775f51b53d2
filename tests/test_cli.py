import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import multispace.cli as cli
import multispace.linalg as linalg
from multispace.channel import ChannelRun, ChannelSummary
from multispace.codes import MultispaceCode, greedy_code
from multispace.errors import ConfigInvalid, FormatError
from multispace.fields import field
from multispace.lattice import Multispace, VectorMultiset
from multispace.linalg import Subspace
from multispace.qpoly import LinearizedPoly


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_within(capsys, seconds, *argv):
    """run, stopped by a wall-clock alarm in this process after seconds: a refusal
    that has been lifted then fails the test at once, not after running on and
    growing its memory inside pytest."""
    def overrun(signum, frame):
        pytest.fail(f"multispace {' '.join(argv)} still ran after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


W_LINE = json.dumps({"q-spec": "2", "n": 3, "basis": [[1, 0, 0]], "height": 0})
W_Z1 = json.dumps({"q-spec": "2", "n": 3, "basis": [], "height": 1})
W_CODE = json.dumps({"q-spec": "2", "n": 3, "m_max": 1, "codewords": [json.loads(W_LINE)]})


def test_count(capsys):
    code, out, _ = run(capsys, "--format", "json", "count", "2", "3", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == [1, 8, 15, 16]
    assert doc["rows"][-1]["cumulative"] == 40


def test_count_table(capsys):
    code, out, _ = run(capsys, "--format", "table", "count", "2", "3", "0")
    assert code == 0
    assert "rank" in out and out.strip().splitlines()[-1].split()[1] == "1"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "count", "2", "3", "2")
    assert code == 0
    assert out.splitlines() == ["rank,count,cumulative", "0,1,1", "1,8,9", "2,15,24"]


def test_count_extension_field(capsys):
    code, out, _ = run(capsys, "--format", "json", "count", "2^2", "2", "2")
    assert code == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [1, 6, 7]


def test_distance_across_spellings_of_a_prime_field(capsys):
    # "2/3" names GF(2) with the modulus x + 1: the same field as "2"
    w_x1 = json.dumps({**json.loads(W_LINE), "q-spec": "2/3"})
    code, out, _ = run(capsys, "--format", "json", "distance", w_x1, W_Z1)
    assert code == 0 and json.loads(out)["distance"] == 2
    code, _, err = run(capsys, "distance", json.dumps({**json.loads(W_LINE), "q-spec": "2/5"}), W_Z1)
    assert code == 1 and "not monic of degree 1" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "--format", "json", "enumerate", "2", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["multispaces"]) == 15
    # every emitted object is accepted back
    for d in doc["multispaces"]:
        Multispace.from_dict(d)


def test_hasse(capsys, tmp_path):
    out_path = tmp_path / "h.dot"
    code, out, err = run(capsys, "hasse", "2", "3", "3", "--output", str(out_path))
    assert code == 0
    assert "nodes: 40" in err and "1/8/15/16" in err
    dot = out_path.read_text()
    assert dot.startswith("digraph")
    assert dot.count("->") == 94


def test_distance(capsys):
    code, out, _ = run(capsys, "--format", "json", "distance", W_LINE, W_LINE)
    assert code == 0
    assert json.loads(out) == {"distance": 0, "underlying_distance": 0, "height_distance": 0}
    code, out, _ = run(capsys, "--format", "json", "distance", W_LINE, W_Z1)
    doc = json.loads(out)
    assert doc["distance"] == 2
    assert doc["distance"] == doc["underlying_distance"] + doc["height_distance"]


def test_meet_join(capsys):
    code, out, _ = run(capsys, "--format", "json", "meet", W_LINE, W_Z1)
    assert json.loads(out)["height"] == 0 and json.loads(out)["basis"] == []
    code, out, _ = run(capsys, "--format", "json", "join", W_LINE, W_Z1)
    doc = json.loads(out)
    assert doc["height"] == 1 and doc["basis"] == [[1, 0, 0]]


def test_mspan(capsys):
    vecs = json.dumps({"q-spec": "2", "n": 3, "vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]})
    code, out, _ = run(capsys, "--format", "json", "mspan", vecs)
    doc = json.loads(out)
    assert doc["height"] == 1 and len(doc["basis"]) == 2


def test_poly_roots_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "poly", W_LINE)
    assert code == 0
    poly_doc = out
    p = tmp_path / "poly.json"
    p.write_text(poly_doc)
    code, out, _ = run(capsys, "--format", "json", "roots", str(p))
    assert code == 0
    assert json.loads(out) == json.loads(W_LINE)


def test_search_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "search", "2", "3", "2", "2", "--seed", "9", "--output", str(f1))
    run(capsys, "search", "2", "3", "2", "2", "--seed", "9", "--output", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["d_min"] >= 2
    assert doc["seed"] == 9


def test_search_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "csv", "search", "2", "2", "2", "2", "--optimal")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "q,n,m_max,d_min,greedy_size,optimal_size,packing_bound,seed"
    assert row.split(",")[5] == "6"  # certified optimum
    # --output gets the code file; the results row still goes to stdout
    path = tmp_path / "c.json"
    code, out2, _ = run(capsys, "--format", "csv", "search", "2", "2", "2", "2", "--optimal", "--output", str(path))
    assert code == 0 and out2 == out
    assert len(json.loads(path.read_text())["codewords"]) == 6
    code, _, err = run(capsys, "search", "2", "2", "2", "2", "--csv")
    assert code == 1 and "unrecognized arguments: --csv" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "2", "2", "1"],
        ["hasse", "2", "2", "1"],
        ["distance", W_LINE, W_Z1],
        ["meet", W_LINE, W_Z1],
        ["join", W_LINE, W_Z1],
        ["mspan", json.dumps({"q-spec": "2", "n": 2, "vectors": [[1, 0]]})],
        ["poly", W_LINE],
        ["roots", json.dumps({"base-q": 2, "field": "2^3", "coeffs": {"0": 1}})],
        ["ball", W_LINE, "1", "2"],
        ["bound", "2", "2", "2", "3"],
        ["simulate", W_CODE, "--mode", "full-rank", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_only_for_count_and_search(capsys, argv):
    code, out, err = run(capsys, "--format", "csv", *argv)
    assert code == 1 and out == "" and "no csv form" in err and "Traceback" not in err


def test_search_whole_space(capsys):
    code, out, _ = run(capsys, "--format", "json", "search", "2", "3", "3", "1")
    assert json.loads(out)["d_min"] == 1 or len(json.loads(out)["codewords"]) == 40


def test_ball(capsys):
    bottom = json.dumps({"q-spec": "2", "n": 3, "basis": [], "height": 0})
    code, out, _ = run(capsys, "--format", "json", "ball", bottom, "1", "3")
    assert json.loads(out)["size"] == 9


def test_bound(capsys):
    code, out, _ = run(capsys, "--format", "json", "bound", "2", "2", "2", "3")
    doc = json.loads(out)
    assert doc["space_size"] == 10 and doc["packing_bound"] == 5


def test_simulate_ok_and_log(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    run(capsys, "search", "2", "3", "2", "2", "--seed", "0", "--output", str(code_path))
    log = tmp_path / "trials.csv"
    code, out, _ = run(
        capsys, "--format", "json", "simulate", str(code_path),
        "--mode", "deletion", "--s", "1", "--trials", "25", "--codeword", "1",
        "--trial-log", str(log),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0 and doc["histogram"] == {"1": 25}
    assert len(log.read_text().strip().splitlines()) == 26


def test_simulate_end_to_end(capsys, tmp_path):
    code_path = tmp_path / "code.json"
    run(capsys, "search", "2", "3", "1", "2", "--output", str(code_path))
    code, out, _ = run(
        capsys, "--format", "json", "simulate", str(code_path),
        "--mode", "full-rank", "--trials", "30", "--end-to-end",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["block_errors"] == 0 and doc["violations"] == 0


def test_simulate_violation_exit_code(capsys, monkeypatch, tmp_path):
    code_path = tmp_path / "code.json"
    run(capsys, "search", "2", "3", "1", "2", "--output", str(code_path))

    def fake_run_trials(target, cfg):
        return ChannelRun([], ChannelSummary(cfg.trials, 3, 9, {9: cfg.trials}))

    monkeypatch.setattr(cli, "run_trials", fake_run_trials)
    code, out, _ = run(
        capsys, "--format", "json", "simulate", str(code_path),
        "--mode", "deletion", "--s", "1", "--trials", "5",
    )
    assert code == 3


def test_usage_errors(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and "invalid choice" in err
    code, _, err = run(capsys, "count", "2", "3")
    assert code == 1
    code, _, err = run(capsys, "count", "banana", "3", "3")
    assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "count", "2", "3", "3", "--output"],
        ["--format", "csv", "count", "2", "3", "3", "--output"],
        ["hasse", "2", "2", "1", "--output"],
        ["search", "2", "2", "1", "2", "--output"],
        ["simulate", W_CODE, "--mode", "full-rank", "--trials", "2", "--trial-log"],
    ],
    ids=["count", "count-csv", "hasse", "search", "simulate"],
)
def test_unwritable_output_path_is_an_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 1 and err.startswith("error: cannot write") and "Traceback" not in err
    assert not target.exists()


def test_format_choices(capsys):
    assert "--format {table,json,csv}" in cli.build_parser().format_usage()
    code, _, err = run(capsys, "--format", "dot", "hasse", "2", "2", "1")
    assert code == 1 and "invalid choice" in err


def test_main_reuses_one_parser_with_fresh_defaults(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "--format", "json", "search", "2", "2", "1", "2", "--optimal", "--seed", "5")
    assert code == 0 and (json.loads(out)["method"], json.loads(out)["seed"]) == ("optimal", 5)
    code, out, _ = run(capsys, "--format", "json", "search", "2", "2", "1", "2")
    assert code == 0 and (json.loads(out)["method"], json.loads(out)["seed"]) == ("greedy", 0)
    code, out, _ = run(capsys, "--format", "table", "count", "2", "3", "1")
    assert code == 0 and out.startswith("rank")
    code, out, _ = run(capsys, "count", "2", "3", "1")  # piped, so JSON by default
    assert code == 0 and json.loads(out)["n"] == 3
    code, out, _ = run(capsys, "--format", "json", "search", "2", "2", "1", "2", "--output", str(tmp_path / "c.json"))
    assert code == 0 and json.loads(out)["written"]
    code, out, _ = run(capsys, "--format", "json", "search", "2", "2", "1", "2")
    assert code == 0 and "codewords" in json.loads(out)


@pytest.mark.parametrize("mode,s", [("full-rank", "0"), ("deletion", "1"), ("rank-deficient", "1"), ("compound", "1")])
def test_simulate_of_a_huge_height_exits_2(capsys, mode, s):
    huge = {"q-spec": "2", "n": 2, "basis": [], "height": 2 ** 70}
    words = [huge, {"q-spec": "2", "n": 2, "basis": [[1, 0]], "height": 0},
             {"q-spec": "2", "n": 2, "basis": [[0, 1]], "height": 0}]
    doc = json.dumps({"q-spec": "2", "n": 2, "m_max": 2 ** 70, "codewords": words})
    for extra in (["--end-to-end"], []):
        code, out, err = run(capsys, "simulate", doc, "--mode", mode, "--s", s, "--trials", "5", *extra)
        assert code == 2 and out == "" and "channel matrix entries" in err and "Traceback" not in err


def test_limit_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "2", "25", "1")
    assert code == 2 and "limit" in err.lower()


@pytest.mark.parametrize("argv, total", [
    (["hasse", "2", "1", "10000000"], "20000001 multispaces"),
    (["search", "2", "2", "100000000", "3", "--optimal"], "ground set of 500000000"),
    # greedy: one layer past int64 heights, and 2^62 + 1 layers built one by one
    (["search", "2", "1", "4611686018427387904", "1"], "9223372036854775809 multispaces"),
    (["search", "2", "1", "18446744073709551616", "1"], "at least 2^65 multispaces"),
    # a ground set past the 4300 digits Python prints for an int is named by its power of two
    (["search", "2^16", "63", "30", "3", "--optimal"], "ground set of at least 2^15840 exceeds"),
])
def test_a_huge_rank_cap_is_refused_on_the_closed_form_total(capsys, argv, total):
    # no rank layer passes a limit; the total does, and it is counted without a loop over ranks
    start = time.perf_counter()
    code, out, err = run_within(capsys, 5, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and total in err and "Traceback" not in err


@pytest.mark.parametrize("argv, code, message", [
    # the Gaussian-binomial lower bound q^(k(n-k)) refuses before any exact count is formed
    (["enumerate", "2^3", "18446744073709551616", "3"], 2, "at least 2^166020696663385964517 multispaces"),
    (["hasse", "2", "9223372036854775807", "1"], 2, "at least 2^9223372036854775806 multispaces"),
    (["search", "5", "9223372036854775808", "3", "1"], 2, "at least 2^55340232221128654830 multispaces"),
    (["search", "5", "9223372036854775808", "3", "1", "--optimal"], 2,
     "ground set of at least 2^55340232221128654830 exceeds"),
    # k(n - k) floor(log2 q) = 8 * 8 * 1: the bound refuses from exactly 64 bits
    (["enumerate", "2", "16", "8"], 2, "at least 2^64 multispaces exceed the enumeration limit 1048576"),
    # the space size has more digits than Python prints, by the same bound, before it is formed
    (["bound", "7", "9223372036854775808", "63", "2"], 1, "decimal digits"),
    # rank 0 passes every budget; the zero space refuses an n numpy cannot shape
    (["enumerate", "7", "4611686018427387904", "0"], 1, "ambient dimension 4611686018427387904 is too large"),
    (["enumerate", "2^16", "9223372036854775808", "0"], 1, "ambient dimension 9223372036854775808 is too large"),
    # so does the empty stack a search at rank cap 0 starts from, before it is made
    (["search", "2", "18446744073709551616", "0", "1"], 1, "ambient dimension 18446744073709551616 is too large"),
    (["search", "3^10", "9223372036854775807", "0", "2", "--optimal"], 1,
     "ambient dimension 9223372036854775807 is too large"),
])
def test_a_huge_ambient_dimension_is_refused_before_any_count_is_formed(capsys, argv, code, message):
    start = time.perf_counter()
    got, out, err = run_within(capsys, 5, *argv)
    assert time.perf_counter() - start < 1
    assert got == code and out == "" and message in err and "Traceback" not in err


def test_count_refuses_more_rows_than_the_enumeration_limit_before_the_first_count(capsys, monkeypatch):
    # one row per rank 0..m; were a row counted, the run would stop here rather than write rows without end
    def no_count(*args):
        raise RuntimeError("a row was counted")

    monkeypatch.setattr(cli, "count_multispaces", no_count)
    start = time.perf_counter()
    code, out, err = run_within(capsys, 5, "count", "3", "3", "9223372036854775808")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "9223372036854775809 count rows exceed" in err and "Traceback" not in err
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "DEFAULT_STATE_LIMIT", 4)
    assert run(capsys, "--format", "json", "count", "2", "2", "3")[0] == 0  # ranks 0..3: four rows
    code, out, err = run(capsys, "--format", "json", "count", "2", "2", "4")
    assert code == 2 and out == "" and "5 count rows exceed the enumeration limit 4" in err


def test_hasse_is_refused_on_its_cover_pairs(capsys):
    # 702124 nodes are within the budget; their 2100224 cover pairs are not
    start = time.perf_counter()
    code, out, err = run_within(capsys, 5, "hasse", "2", "11", "2")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "2100224 cover pairs" in err and "Traceback" not in err


def test_packing_bound_of_a_huge_rank_cap(capsys):
    # the smallest ball is found without a loop over the 10^5 heights
    start = time.perf_counter()
    code, out, _ = run(capsys, "--format", "json", "bound", "2", "2", "100000", "3")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out) == {"packing_bound": 250000, "space_size": 500000}


def test_packing_bound_over_a_huge_rank_cap_and_radius_sweeps_its_breakpoints(capsys):
    # n = 64 with radius 2^30 - 1: thousands of breakpoints per dim, each read by one step of the sweep
    code, out, _ = run_within(capsys, 3, "--format", "json", "bound", "2", "64", "9223372036854775807", "2147483648")
    assert code == 0 and json.loads(out)["packing_bound"] == 8589935104


def test_hasse_over_gf_257_writes_its_66307_lines_in_closed_form(capsys):
    # the covers of the bottom are the 66307 lines of GF(257)^3, each in RREF without an elimination
    code, out, err = run_within(capsys, 3, "hasse", "257", "3", "1")
    assert code == 0 and out.count("->") == 66308
    digest = "a031db7f2996839c689bf81b396f83128c85a6c5a2d8af03f08a0e8e4241d03c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumeration_within_budget_ignores_ambient_size(capsys):
    # q^n = 2^21 is over the budget, but rank 0 holds a single multispace
    code, out, _ = run(capsys, "--format", "json", "enumerate", "2", "21", "0")
    assert code == 0
    assert json.loads(out)["multispaces"] == [{"q-spec": "2", "n": 21, "basis": [], "height": 0}]


def test_simulate_codeword_out_of_range(capsys):
    for index in ("1", "99", "-1"):
        code, out, err = run(
            capsys, "--format", "json", "simulate", W_CODE, "--mode", "full-rank", "--trials", "2",
            "--codeword", index,
        )
        assert code == 1 and out == "" and f"--codeword {index} is not an index" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"q-spec": "2", "n": -1, "m_max": -5, "codewords": []}, "ambient dimension -1 is not positive"),
    ({"q-spec": "2", "n": 0, "m_max": 1, "codewords": []}, "ambient dimension 0 is not positive"),
    ({"q-spec": "2", "n": 3, "m_max": -5, "codewords": []}, "m_max -5 is negative"),
    ({"q-spec": "2", "n": 3, "m_max": True, "codewords": []}, "m_max True is not an integer"),
])
@pytest.mark.parametrize("end_to_end", [False, True])
def test_a_code_document_needs_a_positive_n_and_a_nonnegative_rank_cap(capsys, doc, message, end_to_end):
    with pytest.raises(FormatError) as exc:
        MultispaceCode.from_dict(doc)
    assert str(exc.value) == f"bad code object: {message}"
    argv = ["simulate", json.dumps(doc), "--mode", "full-rank", "--trials", "2"] + ["--end-to-end"] * end_to_end
    assert run(capsys, *argv) == (1, "", f"error: bad code object: {message}\n")


def test_count_of_a_huge_ambient_dimension(capsys):
    code, out, _ = run(capsys, "--format", "json", "count", "2", "5000", "2")
    assert code == 0
    assert json.loads(out)["rows"][1]["count"] == 2 ** 5000


@pytest.mark.parametrize("n,m", [(300, 150), (2000, 2000), (239, 239)])
def test_count_past_the_int_print_limit_is_an_error(capsys, n, m):
    # 300/150 and 2000/2000 are refused on the lower bound q^(k(n-k)) before counting;
    # 239/239 only once the counts are known (4302 digits)
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "count", "2", str(n), str(m))
    assert time.perf_counter() - start < 10
    assert code == 1 and out == "" and "decimal digits" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,exit_code", [
    (["--format", "json", "bound", "2", "300", "150", "1"], 1),
    (["--format", "table", "bound", "2", "300", "150", "1"], 1),
    (["--format", "json", "search", "2", "300", "150", "1"], 2),
    (["--format", "json", "enumerate", "2", "300", "150"], 2),
    (["--format", "json", "bound", "2", "300", "150", "1", "--output", "{out}"], 1),
])
def test_values_past_the_int_print_limit_exit_cleanly(capsys, tmp_path, argv, exit_code):
    # bound is refused on the lower bound q^(k(n-k)) of its space size before any
    # file is opened, as count is; search and enumerate are
    # refused by the enumeration budget, whose message must not print the count itself
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *(a.format(out=out_file) for a in argv))
    assert code == exit_code and out == "" and "Traceback" not in err
    assert ("decimal digits" in err) if exit_code == 1 else ("at least 2^" in err)
    assert not out_file.exists()


_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 200) | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_JSON_KEYS, inner),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(doc=_JSON_DOCS)
@example(doc={"a": [], "b": {}, "c": [[1, -2], [2 ** 70]], "é\n\"\u2028": [0.5, -0.0, float("nan"), float("inf")],
              3: True, 1.5: None, None: (), False: [{}]})
def test_the_json_writer_writes_the_bytes_of_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{(1, 2): 0}, [1, {2}], {"a": [object()]}, 2 + 1j])
def test_the_json_writer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        cli._json(doc)


@pytest.mark.parametrize("doc", [10 ** 5000, [1, 10 ** 5000], [[1], 10 ** 5000], {"n": 10 ** 5000}, {10 ** 5000: 0}],
                         ids=["int", "all-int list", "mixed list", "value", "key"])
def test_the_json_writer_turns_an_int_past_the_print_limit_into_an_input_error(doc):
    # each place an int can stand takes its own path through the writer
    message = str(cli._digit_limit_error(sys.get_int_max_str_digits()))
    with pytest.raises(ConfigInvalid, match=re.escape(message)):
        cli._text(lambda: cli._json(doc))


def test_a_json_document_past_the_int_print_limit_exits_1_with_the_digit_limit_message(capsys):
    code, out, err = run(capsys, "--format", "json", "bound", "2", "300", "150", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {cli._digit_limit_error(sys.get_int_max_str_digits())}\n"


def test_count_just_inside_the_int_print_limit(capsys):
    code, out, _ = run(capsys, "--format", "json", "count", "2", "238", "238")
    assert code == 0 and len(str(json.loads(out)["rows"][-1]["cumulative"])) == 4266


def test_negative_radius_and_rank_cap_are_errors(capsys):
    bottom = json.dumps({"q-spec": "2", "n": 2, "basis": [], "height": 0})
    for argv, message in ((["ball", bottom, "-1", "2"], "radius -1"), (["bound", "2", "3", "-1", "3"], "m_max")):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 1 and out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [("enumerate", "2", "-1", "2"), ("enumerate", "2", "3", "-1"),
                                  ("hasse", "2", "-1", "2"), ("hasse", "2", "3", "-1")])
def test_enumerate_and_hasse_refuse_a_negative_n_or_rank(capsys, tmp_path, argv):
    out_path = tmp_path / "h.dot"
    extra = ("--output", str(out_path)) if argv[0] == "hasse" else ()
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1 and out == "" and "must be nonnegative" in err and "Traceback" not in err
    assert not out_path.exists()


def test_search_refuses_n_0_before_writing_a_code_file(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code, out, err = run(capsys, "search", "2", "0", "2", "1", "--output", str(out_path))
    assert code == 1 and out == "" and "ambient dimension 0 is not positive" in err
    assert not out_path.exists()
    code, out, err = run(capsys, "search", "2", "-1", "2", "1")
    assert code == 1 and "ambient dimension -1 is negative" in err  # the code-search message comes first


def test_python_dash_m_runs_the_command_line(capsys):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    argv = ["--format", "json", "count", "2", "3", "3"]
    proc = subprocess.run([sys.executable, "-m", "multispace", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0 and proc.stdout == out
    assert [r["count"] for r in json.loads(proc.stdout)["rows"]] == [1, 8, 15, 16]
    proc = subprocess.run([sys.executable, "-m", "multispace", "enumerate", "2", "-1", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == "" and "must be nonnegative" in proc.stderr



def test_importing_the_package_leaves_numpy_random_unloaded():
    # a command that draws nothing pays no numpy.random import; the channel loads it on its first trials
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, multispace; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["False"]

#: rank 2: a line of GF(2)^3 at height 1
W_RANK2 = json.dumps({"q-spec": "2", "n": 3, "basis": [[1, 0, 0]], "height": 1})


def test_ball_names_a_center_above_the_rank_cap(capsys):
    code, out, err = run(capsys, "--format", "json", "ball", W_RANK2, "1", "1")
    assert code == 1 and out == "" and "Traceback" not in err
    assert "center rank 2 exceeds m_max 1" in err and "radius" not in err


def test_ball_names_a_negative_radius(capsys):
    code, out, err = run(capsys, "--format", "json", "ball", W_RANK2, "-2", "3")
    assert code == 1 and out == "" and "Traceback" not in err
    assert "radius -2 is negative" in err and "center" not in err


def test_emitted_json_reaccepted_bit_exact(capsys):
    code, out, _ = run(capsys, "--format", "json", "join", W_LINE, W_Z1)
    w = Multispace.from_dict(json.loads(out))
    assert json.dumps(w.to_dict(), indent=2) + "\n" == out


def test_bad_input_is_an_error_not_a_traceback(capsys):
    # out-of-range encodings, a negative height, a coefficient >= q, code files
    # whose dimension is not an integer or whose rank cap is infinite, and
    # float encodings, which a cast to int would truncate
    bad = [
        ("mspan", json.dumps({"q-spec": "2", "n": 2, "vectors": [[0, 5]]})),
        ("poly", json.dumps({"q-spec": "2", "n": 3, "basis": [], "height": -1})),
        ("roots", json.dumps({"base-q": 2, "field": "2^2/7", "coeffs": {"0": 4}})),
        ("simulate", json.dumps({"q-spec": "2", "n": "2^2", "m_max": 2, "codewords": []}), "--mode", "full-rank"),
        ("simulate", '{"q-spec": "2", "n": 2, "m_max": 1e400, "codewords": []}', "--mode", "full-rank"),
        ("roots", json.dumps({"base-q": 2, "field": "2^2/7", "coeffs": {"1": 1.5}})),
        ("mspan", json.dumps({"q-spec": "2", "n": 2, "vectors": [[0, 1.0]]})),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and "Traceback" not in err
    with pytest.raises(FormatError):
        VectorMultiset.from_dict(json.loads(bad[0][1]))
    with pytest.raises(FormatError):
        Multispace.from_dict(json.loads(bad[1][1]))
    with pytest.raises(FormatError):
        LinearizedPoly.from_dict(json.loads(bad[2][1]))
    code, out, err = run(capsys, "count", "2", "3", "-1")
    assert code == 1 and out == "" and "must be nonnegative" in err
    with pytest.raises(ConfigInvalid):
        cli.cmd_count(cli.build_parser().parse_args(["count", "2", "3", "-1"]))


def test_roots_refuses_q_indices_that_are_not_canonical_decimals(capsys):
    for key in ("1_0", " 2", "+1", "\u0663", "01"):
        doc = json.dumps({"base-q": 2, "field": "2^3", "coeffs": {"0": 1, key: 1}})
        code, out, err = run(capsys, "roots", doc)
        assert code == 1 and out == "" and err.startswith("error:") and "q-index" in err


_SPELLINGS = ["1_0", " 2", "+1", "\u0663", "01"]
_SPELLING_IDS = ["underscore", "leading-space", "plus", "arabic-indic", "leading-zero"]


@pytest.mark.parametrize("spelling", _SPELLINGS, ids=_SPELLING_IDS)
@pytest.mark.parametrize("argv", [
    ["count", "2", "?", "1"], ["enumerate", "2", "3", "?"], ["hasse", "2", "2", "?"],
    ["search", "2", "3", "2", "?"], ["search", "2", "3", "2", "2", "--seed", "?"], ["bound", "2", "?", "2", "2"],
    ["ball", W_LINE, "?", "2"], ["simulate", W_CODE, "--mode", "full-rank", "--trials", "?"],
    ["simulate", W_CODE, "--mode", "deletion", "--s", "?"], ["simulate", W_CODE, "--mode", "full-rank", "--seed", "?"],
    ["simulate", W_CODE, "--mode", "full-rank", "--codeword", "?"],
], ids=["count-n", "enumerate-m", "hasse-m_max", "search-d_min", "search-seed", "bound-n", "ball-radius",
        "trials", "s", "simulate-seed", "codeword"])
def test_integer_arguments_take_the_json_q_index_spelling(capsys, argv, spelling):
    # one rule for argv and JSON keys: canonical ASCII decimal, here with an optional leading -
    code, out, err = run(capsys, *[spelling if arg == "?" else arg for arg in argv])
    assert code == 1 and out == "" and f"{spelling!r} is not a canonical decimal integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3), ("18446744073709551616", 2 ** 64)])
def test_canonical_decimals_and_their_negatives_are_read(text, value):
    assert cli._integer(text) == value


@pytest.mark.parametrize("text", [*_SPELLINGS, "-0", "-01", "--1", "1 ", "0x10", "1e3", "", "-"])
def test_other_spellings_are_refused(text):
    # int itself refuses "--1", "0x10", "1e3", "" and "-"; argparse makes either error a usage error
    with pytest.raises((ValueError, argparse.ArgumentTypeError)):
        cli._integer(text)


_INTEGER_FIELDS = [
    (Subspace.from_dict, json.loads(W_LINE), "n"),
    (VectorMultiset.from_dict, {"q-spec": "2", "n": 3, "vectors": [[1, 0, 0]]}, "n"),
    (Multispace.from_dict, json.loads(W_LINE), "height"),
    (MultispaceCode.from_dict, json.loads(W_CODE), "n"),
    (MultispaceCode.from_dict, json.loads(W_CODE), "m_max"),
    (LinearizedPoly.from_dict, {"base-q": 2, "field": "2^2/7", "coeffs": {"0": 1}}, "base-q"),
]


@pytest.mark.parametrize("reader,doc,key", _INTEGER_FIELDS,
                         ids=["subspace-n", "multiset-n", "height", "code-n", "m_max", "base-q"])
@pytest.mark.parametrize("value", [3.9, 1.0, 2.0, True, "3"])
def test_integer_fields_refuse_floats_bools_and_strings(reader, doc, key, value):
    reader(doc)
    with pytest.raises(FormatError, match=re.escape(f"{key} {value!r} is not an integer")):
        reader({**doc, key: value})


def test_settings_that_are_not_nonnegative_integers_exit_1(capsys):
    for argv in [
        ("poly", json.dumps({"q-spec": "2", "n": 3.9, "basis": [], "height": 1.7})),
        ("simulate", W_CODE, "--mode", "full-rank", "--seed", "-1"),
        ("simulate", W_CODE, "--mode", "full-rank", "--seed", "-1", "--end-to-end"),
        ("search", "2", "3", "2", "2", "--seed", "-1"),
        ("search", "2", "2", "1", "2", "--optimal", "--seed", "-1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_poly_of_huge_height(capsys):
    w = json.dumps({"q-spec": "2", "n": 2, "basis": [[1, 0]], "height": 10 ** 40})
    code, out, _ = run(capsys, "--format", "table", "poly", w)
    assert code == 0 and out.startswith(f"1*x^(2^{10 ** 40 + 1}) + ")
    code, out, _ = run(capsys, "--format", "json", "poly", w)
    assert code == 0 and sorted(json.loads(out)["coeffs"]) == [str(10 ** 40), str(10 ** 40 + 1)]


# -- fuzz: every input either runs or is refused with a documented exit code --

_SPECS = st.sampled_from(["2", "3", "2^2", "2^2/7", "5", "4", "1", "0", "-3", "2^0", "2^-1",
                          "2^2/-7", "2^2/5", "2^40", "1000000007", "7^99999999", "x", ""])
_JUNK = st.one_of(_SPECS, st.none(), st.booleans(), st.floats(), st.integers(-3, 6),
                  st.integers(-(10 ** 30), 10 ** 30), st.lists(st.integers(-1, 5), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_SMALL = st.integers(-3, 6)
_BASE = st.sampled_from([("2", 2), ("3", 3), ("2^2", 4)])


@st.composite
def _vectors(draw, q, n, count):
    return draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=count))


@st.composite
def _mspan_doc(draw):
    spec, q = draw(_BASE)
    n = draw(st.integers(1, 4))
    return {"q-spec": spec, "n": n, "vectors": draw(_vectors(q, n, 6))}


@st.composite
def _multispace_doc(draw):
    spec, q = draw(_BASE)
    n = draw(st.integers(1, 4))
    ctx = field(2, 2) if q == 4 else field(q)
    doc = Subspace.from_array(ctx, n, draw(_vectors(q, n, n))).to_dict()
    doc["height"] = draw(st.one_of(_SMALL, st.integers(-(10 ** 30), 10 ** 30)))
    return doc


@st.composite
def _roots_doc(draw):
    spec, q = draw(st.sampled_from([("2", 2), ("2^3", 2), ("2^4", 4), ("3^2", 3), ("2^2/7", 2)]))
    index = st.one_of(st.integers(0, 6), st.integers(10 ** 20, 10 ** 21), st.just(-1))
    return {"base-q": q, "field": spec, "coeffs": draw(st.dictionaries(
        index.map(str), st.integers(0, 20), min_size=1, max_size=4))}


#: code files for simulate: small greedy codes over GF(2)^2 and GF(3)^2
_CODE_DOCS = [greedy_code(field(q), 2, 2, 2).to_dict() for q in (2, 3)]
#: small or unparsable ambient dimensions, ranks, radii and distances
_TINY = st.sampled_from(["1", "2", "3", "0", "1", "2", "3", "-1", "x", ""])


@st.composite
def _spoiled(draw, docs):
    """A JSON argument: a drawn document with some keys dropped or spoiled, or broken text."""
    doc = dict(draw(docs))
    for key in list(doc):
        action = draw(st.sampled_from(["keep"] * 8 + ["drop", "junk"]))
        if action == "drop":
            del doc[key]
        elif action == "junk":
            doc[key] = draw(_JUNK)
    text = json.dumps(doc)
    return draw(st.sampled_from([text] * 6 + [text[:-1], f"[{text}]", "."]))


@st.composite
def _argv(draw):
    fmt = draw(st.sampled_from([[], ["--format", "json"], ["--format", "table"], ["--format", "csv"]]))
    cmd = draw(st.sampled_from(["count", "enumerate", "hasse", "distance", "meet", "join", "mspan",
                                "poly", "roots", "search", "ball", "bound", "simulate"]))
    spec = draw(_BASE)[0] if draw(st.integers(0, 3)) else draw(_SPECS)
    if cmd == "count":
        n, m = (draw(st.one_of(_SMALL.map(str), st.sampled_from(["x", "1.5", ""]))) for _ in range(2))
        return [*fmt, "count", spec, n, m]
    if cmd in ("enumerate", "hasse"):
        return [*fmt, cmd, spec, draw(_TINY), draw(_TINY)]
    if cmd in ("search", "bound"):
        argv = [*fmt, cmd, spec, draw(_TINY), draw(_TINY), draw(_TINY)]
        if cmd == "search":
            argv += draw(st.sampled_from([[], ["--optimal"], ["--seed", "3"], ["--seed", "x"]]))
        return argv
    if cmd in ("distance", "meet", "join"):
        return [*fmt, cmd, draw(_spoiled(_multispace_doc())), draw(_spoiled(_multispace_doc()))]
    if cmd == "ball":
        return [*fmt, cmd, draw(_spoiled(_multispace_doc())), draw(_TINY), draw(_TINY)]
    if cmd == "simulate":
        mode = draw(st.sampled_from(["full-rank", "deletion", "rank-deficient", "compound", "x"]))
        argv = [*fmt, cmd, draw(_spoiled(st.sampled_from(_CODE_DOCS))), "--mode", mode]
        for option in ("--s", "--trials", "--codeword"):
            argv += [option, draw(_TINY)]
        return argv + draw(st.sampled_from([[], ["--end-to-end"], ["--random-generator"]]))
    doc = {"mspan": _mspan_doc, "poly": _multispace_doc, "roots": _roots_doc}[cmd]()
    return [*fmt, cmd, draw(_spoiled(doc))]


@settings(max_examples=600, deadline=None)
@given(_argv())
@example(["search", "2", "-1", "-1", "1", "--optimal"])  # a negative n passed the clique limit
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_a_search_at_rank_cap_zero_keeps_the_zero_word_without_forming_q_to_the_n(capsys):
    # 256^(2^31) would decide the words' representation; n alone places it past the masks
    start = time.perf_counter()
    code, out, err = run_within(capsys, 1, "--format", "json", "search", "2^8", "2147483648", "0",
                                "18446744073709551616")
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert json.loads(out)["codewords"] == [{"q-spec": "2^8/283", "n": 2147483648, "basis": [], "height": 0}]


def test_bound_of_a_radius_past_every_distance_is_one_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_within(capsys, 1, "--format", "json", "bound", "3", "2", "2147483648", str(10 ** 30))
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and json.loads(out) == {"packing_bound": 1, "space_size": 12884901888}
