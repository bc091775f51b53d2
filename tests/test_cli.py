import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

import multispace.cli as cli
from multispace.channel import ChannelRun, ChannelSummary
from multispace.codes import greedy_code
from multispace.errors import ConfigInvalid, FormatError
from multispace.fields import field
from multispace.lattice import Multispace, VectorMultiset
from multispace.linalg import Subspace
from multispace.qpoly import LinearizedPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
])
def test_values_past_the_int_print_limit_exit_cleanly(capsys, argv, exit_code):
    # bound's packing bound and space size are computed, then refused on output;
    # search and enumerate are refused by the enumeration budget, whose message
    # must not print the count itself
    code, out, err = run(capsys, *argv)
    assert code == exit_code and out == "" and "Traceback" not in err
    assert ("decimal digits" in err) if exit_code == 1 else ("at least 2^" in err)


def test_count_just_inside_the_int_print_limit(capsys):
    code, out, _ = run(capsys, "--format", "json", "count", "2", "238", "238")
    assert code == 0 and len(str(json.loads(out)["rows"][-1]["cumulative"])) == 4266


def test_negative_radius_and_rank_cap_are_errors(capsys):
    bottom = json.dumps({"q-spec": "2", "n": 2, "basis": [], "height": 0})
    for argv, message in ((["ball", bottom, "-1", "2"], "radius -1"), (["bound", "2", "3", "-1", "3"], "m_max")):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 1 and out == "" and message in err and "Traceback" not in err


def test_emitted_json_reaccepted_bit_exact(capsys):
    code, out, _ = run(capsys, "--format", "json", "join", W_LINE, W_Z1)
    w = Multispace.from_dict(json.loads(out))
    assert json.dumps(w.to_dict(), indent=2) + "\n" == out


def test_bad_input_is_an_error_not_a_traceback(capsys):
    # out-of-range encodings, a negative height, a coefficient >= q, code files
    # whose dimension is not an integer or whose rank cap is infinite
    bad = [
        ("mspan", json.dumps({"q-spec": "2", "n": 2, "vectors": [[0, 5]]})),
        ("poly", json.dumps({"q-spec": "2", "n": 3, "basis": [], "height": -1})),
        ("roots", json.dumps({"base-q": 2, "field": "2^2/7", "coeffs": {"0": 4}})),
        ("simulate", json.dumps({"q-spec": "2", "n": "2^2", "m_max": 2, "codewords": []}), "--mode", "full-rank"),
        ("simulate", '{"q-spec": "2", "n": 2, "m_max": 1e400, "codewords": []}', "--mode", "full-rank"),
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
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
