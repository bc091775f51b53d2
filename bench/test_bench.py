"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Runs every workload for one block after its reference block, untraced through
the command line and the two workloads of BENCHMARK.json traced in process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
BENCHMARK = [w["name"] for w in CONFIG["workloads"]]


def run_cli(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("names", [BENCHMARK, ["channel", "decode", "search", "qpoly"]])
def test_one_command_reports_every_metric_with_its_unit(names):
    proc = run_cli(ROOT, "--workload", ",".join(names), "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == sum(len(WORKLOADS[n].cases) for n in names)
    for name in names:
        for metric in CONFIG["end_to_end"]:
            assert result["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
    report = "\n".join(lines[:-1])
    for name in names:
        section = report.split(f"workload {name} ", 1)[1].split("\nworkload ", 1)[0]
        assert f"reference digest: {SPEC['digests'][name]} (ok)" in section
        for metric, unit in worker.END_TO_END_UNITS.items():
            assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                       for line in section.splitlines()), (name, metric)


def test_digest_mismatch_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(worker, "recorded_digest", lambda name: "0" * 64)
    assert worker.main(["--workload", "qpoly", "--seed", "3", "--seconds", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "MISMATCH" in "\n".join(out)
    assert json.loads(out[-1])["correct"] is False


def test_the_same_seed_attempts_and_fails_the_same_ops():
    # seed 10 sends the rank-0 codeword of the (F2,4,4,2) code through deletion or
    # rank-deficient channels, so some ops raise (ROADMAP item 5) and repeat
    wl = WORKLOADS["decode"]
    runs = [worker.run_untraced(wl, seed=10, seconds=3) for _ in range(2)]
    outcomes = [[(op.raised, op.problems) for op in run.ops] for run in runs]
    assert len(outcomes[0]) == worker.planned_blocks(wl, 3) * len(wl.cases)
    assert any(raised for raised, _ in outcomes[0])
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", BENCHMARK)
def test_traced_run(name):
    first = worker.run_traced(WORKLOADS[name], seed=3, seconds=0)
    second = worker.run_traced(WORKLOADS[name], seed=4, seconds=0)
    for run in (first, second):
        assert run.digest == SPEC["digests"][name]
        assert not run.problems
        assert run.spans["ops"] == 2 * len(WORKLOADS[name].cases)  # reference block + one traced block
        assert run.spans["negative_self"] == 0
        assert run.spans["ops_over_wall"] == 0
        assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == {k: u for k, (_, u) in run.metrics.items()}
    for metric in SPEC["exact_counts"]:
        assert first.metrics[metric] == second.metrics[metric], metric


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli(tmp_path, "--workload", BENCHMARK[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
