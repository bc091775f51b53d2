"""Golden CLI outputs, pinned byte for byte.

The files under ``tests/golden/qpoly/`` were written by the literal-product
implementation of the polynomial correspondence; the monic subspace
polynomial is unique, so every later implementation must print the same
bytes.  ``NN.w.json`` is the input multispace, ``NN.poly.json`` the exact
stdout of ``multispace --format json poly NN.w.json`` and ``NN.roots.json``
the exact stdout of ``multispace --format json roots NN.poly.json``.

The files under ``tests/golden/simulate/`` pin the seeded code search and
the channel simulator: ``<code>.json`` is the exact stdout of a seeded
``search`` (and is read back as the code of the simulations),
``<case>.json`` the exact stdout of ``simulate`` and, for single-codeword
runs, ``<case>.csv`` the exact ``--trial-log`` file.  Every RNG draw of the
trial loop shows in them, so a refactor that reorders draws fails here.

The files under ``tests/golden/metric/`` pin the lattice and metric
subcommands: ``hasse-*.dot`` the exact DOT of ``hasse``, ``ball-*.json``
and ``bound-*.json`` ball sizes and sphere-packing bounds as written by
the breadth-first ball around every center, and ``count-*`` per-rank
counts in each output format.  The file name gives the arguments.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import multispace.cli as cli
from multispace.fields import parse_field_spec
from multispace.lattice import Multispace
from multispace.linalg import Subspace

GOLDEN = Path(__file__).parent / "golden" / "qpoly"
SIMULATE = Path(__file__).parent / "golden" / "simulate"
METRIC = Path(__file__).parent / "golden" / "metric"

#: (q-spec, n, dim, height): q in {2, 3, 4}, heights 0-4, ranks up to 12
CASES = [
    ("2", 1, 0, 0),
    ("2", 3, 1, 0),
    ("2", 3, 2, 1),
    ("2", 4, 4, 0),
    ("2", 5, 3, 4),
    ("2", 6, 2, 3),
    ("2", 8, 8, 4),
    ("2", 10, 7, 2),
    ("2", 12, 12, 0),
    ("2", 12, 9, 3),
    ("3", 2, 1, 2),
    ("3", 2, 0, 3),
    ("3", 3, 3, 0),
    ("3", 4, 2, 4),
    ("3", 5, 4, 1),
    ("3", 6, 6, 4),
    ("3", 8, 5, 0),
    ("2^2", 2, 1, 1),
    ("2^2", 3, 3, 2),
    ("2^2", 4, 2, 4),
    ("2^2", 6, 5, 3),
    ("2^2", 8, 4, 0),
]


def _path(idx: int, kind: str) -> Path:
    return GOLDEN / f"{idx:02d}.{kind}.json"


def _cli_stdout(capsys, *argv) -> str:
    assert cli.main(["--format", "json", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("idx", range(len(CASES)))
def test_poly_and_roots_outputs_are_byte_identical(capsys, idx):
    poly_out = _cli_stdout(capsys, "poly", str(_path(idx, "w")))
    assert poly_out == _path(idx, "poly").read_text()
    roots_out = _cli_stdout(capsys, "roots", str(_path(idx, "poly")))
    assert roots_out == _path(idx, "roots").read_text()
    assert json.loads(roots_out) == json.loads(_path(idx, "w").read_text())


#: code name -> search arguments; greedy codes whose codewords all have rank >= 1
SEARCHES = {
    "code-f2": ["search", "2", "3", "3", "2", "--seed", "5"],
    "code-f4": ["search", "2^2", "2", "3", "2", "--seed", "3"],
}

#: case name -> (code name, simulate options); cases without --end-to-end write a trial log
SIMULATIONS = {
    "log-full-rank": ("code-f2", ["--mode", "full-rank", "--trials", "30", "--seed", "11", "--codeword", "23"]),
    "log-deletion-rg": (
        "code-f2",
        ["--mode", "deletion", "--s", "1", "--random-generator", "--trials", "30", "--seed", "12", "--codeword", "16"],
    ),
    "log-rank-deficient": (
        "code-f4",
        ["--mode", "rank-deficient", "--s", "1", "--trials", "30", "--seed", "13", "--codeword", "12"],
    ),
    "log-compound": ("code-f2", ["--mode", "compound", "--s", "1", "--trials", "30", "--seed", "14", "--codeword", "23"]),
    "e2e-full-rank": (
        "code-f2",
        ["--end-to-end", "--mode", "full-rank", "--random-generator", "--trials", "40", "--seed", "21"],
    ),
    "e2e-deletion": ("code-f2", ["--end-to-end", "--mode", "deletion", "--s", "1", "--trials", "40", "--seed", "22"]),
    "e2e-rank-deficient": (
        "code-f4",
        ["--end-to-end", "--mode", "rank-deficient", "--s", "1", "--trials", "40", "--seed", "23"],
    ),
}


def _simulate_argv(case: str, log: Path) -> list[str]:
    code, options = SIMULATIONS[case]
    argv = ["simulate", str(SIMULATE / f"{code}.json"), *options]
    return argv if "--end-to-end" in options else [*argv, "--trial-log", str(log)]


@pytest.mark.parametrize("code", sorted(SEARCHES))
def test_search_output_is_byte_identical(capsys, code):
    assert _cli_stdout(capsys, *SEARCHES[code]) == (SIMULATE / f"{code}.json").read_text()


@pytest.mark.parametrize("case", sorted(SIMULATIONS))
def test_simulate_outputs_are_byte_identical(capsys, tmp_path, case):
    log = tmp_path / "trials.csv"
    assert _cli_stdout(capsys, *_simulate_argv(case, log)) == (SIMULATE / f"{case}.json").read_text()
    if "--end-to-end" not in SIMULATIONS[case][1]:
        assert log.read_bytes() == (SIMULATE / f"{case}.csv").read_bytes()


def _center(spec: str, n: int, basis: list, height: int) -> str:
    return json.dumps({"q-spec": spec, "n": n, "basis": basis, "height": height})


#: file name -> exact argv of a lattice or metric subcommand
METRIC_RUNS = {
    "hasse-2-3-3.dot": ["hasse", "2", "3", "3"],
    "hasse-3-2-2.dot": ["hasse", "3", "2", "2"],
    "hasse-4-2-2.dot": ["hasse", "2^2", "2", "2"],
    "ball-00.json": ["--format", "json", "ball", _center("2", 3, [], 0), "2", "3"],
    "ball-01.json": ["--format", "json", "ball", _center("2", 3, [[1, 0, 0]], 0), "1", "2"],
    "ball-02.json": ["--format", "json", "ball", _center("2", 3, [[1, 0, 1], [0, 1, 1]], 1), "3", "4"],
    "ball-03.json": ["--format", "json", "ball", _center("2", 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0), "4", "3"],
    "ball-04.json": ["--format", "json", "ball", _center("2", 4, [[1, 0, 1, 1]], 2), "2", "4"],
    "ball-05.json": ["--format", "json", "ball", _center("3", 2, [[1, 2]], 1), "3", "3"],
    "ball-06.json": ["--format", "json", "ball", _center("2^2", 2, [], 2), "2", "3"],
    "ball-07.json": ["--format", "json", "ball", _center("2^2", 3, [[1, 2, 3]], 0), "1", "2"],
    "ball-08.json": ["--format", "json", "ball", _center("3", 3, [[1, 0, 2], [0, 1, 1]], 0), "2", "2"],
    "ball-09.table": ["--format", "table", "ball", _center("2", 4, [[0, 1, 0, 0], [0, 0, 1, 1]], 0), "3", "3"],
    "bound-2-2-2-3.json": ["--format", "json", "bound", "2", "2", "2", "3"],
    "bound-2-3-3-3.json": ["--format", "json", "bound", "2", "3", "3", "3"],
    "bound-2-3-3-5.json": ["--format", "json", "bound", "2", "3", "3", "5"],
    "bound-2-3-2-1.json": ["--format", "json", "bound", "2", "3", "2", "1"],
    "bound-3-2-2-3.json": ["--format", "json", "bound", "3", "2", "2", "3"],
    "bound-4-2-3-3.json": ["--format", "json", "bound", "2^2", "2", "3", "3"],
    "bound-2-4-3-3.json": ["--format", "json", "bound", "2", "4", "3", "3"],
    "bound-2-4-4-5.json": ["--format", "json", "bound", "2", "4", "4", "5"],
    "bound-3-3-2-3.json": ["--format", "json", "bound", "3", "3", "2", "3"],
    "bound-2-5-3-3.json": ["--format", "json", "bound", "2", "5", "3", "3"],
    "bound-4-3-2-3.table": ["--format", "table", "bound", "2^2", "3", "2", "3"],
    "count-2-3-3.json": ["--format", "json", "count", "2", "3", "3"],
    "count-3-5-7.json": ["--format", "json", "count", "3", "5", "7"],
    "count-4-4-4.json": ["--format", "json", "count", "2^2", "4", "4"],
    "count-2-12-6.json": ["--format", "json", "count", "2", "12", "6"],
    "count-3-4-5.csv": ["--format", "csv", "count", "3", "4", "5"],
    "count-2-6-4.table": ["--format", "table", "count", "2", "6", "4"],
}


@pytest.mark.parametrize("name", sorted(METRIC_RUNS))
def test_lattice_and_metric_outputs_are_byte_identical(capsys, name):
    assert cli.main(METRIC_RUNS[name]) == 0
    assert capsys.readouterr().out == (METRIC / name).read_text()


def _random_multispace(ctx, n, dim, height, rng) -> Multispace:
    while True:
        u = Subspace.from_array(ctx, n, rng.integers(0, ctx.q, size=(dim, n)))
        if u.dim == dim:
            return Multispace(u, height)


def _write_golden():
    import contextlib
    import io

    GOLDEN.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20240812)
    for idx, (spec, n, dim, height) in enumerate(CASES):
        w = _random_multispace(parse_field_spec(spec), n, dim, height, rng)
        _path(idx, "w").write_text(json.dumps(w.to_dict(), indent=2) + "\n")
        for cmd, src, dst in (("poly", "w", "poly"), ("roots", "poly", "roots")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["--format", "json", cmd, str(_path(idx, src))]) == 0
            _path(idx, dst).write_text(buf.getvalue())


def _write_simulate_golden():
    import contextlib
    import io

    SIMULATE.mkdir(parents=True, exist_ok=True)
    runs = [(f"{code}.json", argv) for code, argv in SEARCHES.items()]
    runs += [(f"{case}.json", _simulate_argv(case, SIMULATE / f"{case}.csv")) for case in SIMULATIONS]
    for name, argv in runs:  # searches first: the simulations read their codes
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["--format", "json", *argv]) == 0
        (SIMULATE / name).write_text(buf.getvalue())


def _write_metric_golden():
    import contextlib
    import io

    METRIC.mkdir(parents=True, exist_ok=True)
    for name, argv in METRIC_RUNS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        (METRIC / name).write_text(buf.getvalue())


if __name__ == "__main__":
    _write_golden()
    _write_simulate_golden()
    _write_metric_golden()
