"""Layered benchmark of the multispace toolkit.

    python3 bench/run.py --workload channel_qpoly --seed 1 --seconds 60 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all`` (the two
workloads of ``BENCHMARK.json``).  Each workload runs in its own child
process (``bench/worker.py``) with BLAS and OpenMP pinned to one thread,
from one caller with no extra threads, as a closed loop: the next op starts
only after the previous one returned.  The library is imported from this
checkout's ``src``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with several workloads
its metric names carry a ``<workload>.`` prefix.  The exit code is nonzero
when an output check or the reference digest fails.

Workloads (each block is a fixed list of op templates; see workloads.py):

  channel_qpoly  the channel block, then the qpoly block, plus five cheap ops
  decode_search  the decode block, then the search block

  channel  ``channel.run_trials`` with 32 trials, q in {2, 3, 4}, n <= 6, rank <= 8
  decode   ``channel.end_to_end`` with 8 trials against greedy codes of 24-119 words
  search   in-process ``cli.main search`` (greedy/optimal code, verified distance,
           packing bound), plus gamma graphs with ``is_distance_regular``
  qpoly    ``roots_multiset(poly_from_multispace(w))`` over GF(q^n), q^rank <= 4096

End-to-end metrics (``--trace 0``), measured with tracing off:

  ops_per_s     successful ops per second of op time (benchmark checks excluded)
  op_p50_ms     median op time
  op_p90_ms     90th percentile op time (nearest rank; failed ops rank slowest)
  setup_s       median of 5 to 25 set-ups (as many as take about 2 s), each a
                fresh import of ``multispace`` plus the field tables, extension
                fields, ``vector_field_iso`` entries and decoding codes the
                workload needs; the first precedes the reference block, the
                others are spread over the timed phase
  peak_rss_mib  the worker's ``ru_maxrss`` at the end of the run
  error_rate    failed ops / attempted ops (printed; the JSON carries it as
                ``failed`` and ``attempted``)

Every op's output is checked.  Before timing, a reference block (the same
templates with inputs from seed 0) runs as a warm-up; a SHA-256 digest of its
outputs must equal the one recorded in ``bench/spec.json``, so seeded outputs
stay byte-identical.  Timing then repeats whole blocks with inputs from
``--seed``.  Their number is fixed, sized to fill 75% of ``--seconds`` on
the machine that ``block_s`` in workloads.py was measured on, so every run
of a seed attempts and fails the same ops; only a machine far slower than
that one stops the timed phase early, at ``--seconds``.

``--trace 1`` wraps the library's public functions from outside (see
tracing.py) and reports per-layer counts and self times for set-up and the
reference block, ``trace.overhead_ratio`` (traced / untraced ops per second
over alternating blocks), and untraced per-call times of the ROADMAP baseline
cases that the workload contains.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = ("channel_qpoly", "decode_search")
WORKLOADS = (*BENCHMARK, "channel", "decode", "search", "qpoly")
#: a worker runs for --seconds plus set-up, the reference block and one last block
WORKER_TIMEOUT_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(name, args):
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(cmd, env=env, cwd=BENCH_DIR.parent, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: workload {name} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench: workload {name} exited with {proc.returncode} and no result", file=sys.stderr)
        return None, lines
    return result, lines[:-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="a name, a comma-separated list, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(BENCHMARK) if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; pick from {list(WORKLOADS)}")

    results = {}
    for name in names:
        result, report = run_worker(name, args)
        if report:
            print("\n".join(report))
        if result is None:
            return 2
        results[name] = result
    if len(results) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
