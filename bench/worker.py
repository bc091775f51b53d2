"""Run one benchmark workload in this process and report it.

Invoked by ``bench/run.py``, which pins BLAS/OpenMP threads in the
environment; see that file for the command line and the metric definitions.
The last line of standard output is the JSON result.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, layer_metrics, replay_baselines
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MODULES = ("fields", "linalg", "lattice", "qpoly", "codes", "channel", "cli")

#: set-ups per untraced run, setup_s being their median: at least SETUP_REPEATS[0],
#: more when one is cheap, until they take about SETUP_TOTAL_S, at most SETUP_REPEATS[1]
SETUP_REPEATS = (5, 25)
SETUP_TOTAL_S = 2.0
#: first entry of the input seed for the reference block and for timed blocks
REF_PHASE, TIMED_PHASE = 0, 1
#: share of --seconds that the timed blocks fill when a block takes the workload's block_s
FILL = 0.75
#: one traced block plus one untraced block cost about this many untraced blocks
TRACED_PAIR_COST = 2.4

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the library source is missing)."""


@dataclass
class Run:
    ref_ops: list
    digest: str
    ops: list
    metrics: dict  # name -> (value, unit)
    notes: list
    problems: list = field(default_factory=list)
    spans: dict | None = None


@dataclass
class Op:
    ns: int
    raised: str | None
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return self.raised is not None or bool(self.problems)


def import_library():
    """Import ``multispace`` afresh from this checkout's ``src``.

    Dropping the package from ``sys.modules`` first makes every set-up
    repetition pay for the import and start from empty library caches.
    """
    if not (SRC / "multispace" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "multispace" or m.startswith("multispace.")]:
        del sys.modules[name]
    pkg = importlib.import_module("multispace")
    if Path(pkg.__file__).resolve().parent != SRC / "multispace":
        raise BenchError(f"imported multispace from {pkg.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"multispace.{m}") for m in MODULES}
    return SimpleNamespace(pkg=pkg, modules=[pkg, *mods.values()], **mods)


def run_block(wl, lib, env, phase, seed, block, tracer=None, op_base=0, on_output=None):
    """Run one block of ops; returns their timings and check results."""
    ops = []
    for pos, case in enumerate(wl.cases):
        inp = wl.make_input(lib, env, case, np.random.default_rng([phase, seed, block, pos]))
        if tracer is not None:
            tracer.begin_op(op_base + pos)
        out, raised = None, None
        t0 = perf_counter_ns()
        try:
            out = wl.run(lib, env, inp)
        except Exception as exc:  # an op that raises is counted as failed, never skipped
            raised = type(exc).__name__
        ns = perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op()
        problems = [] if raised else wl.check(lib, env, inp, out)
        ops.append(Op(ns, raised, problems))
        if on_output is not None:
            on_output({"raised": raised} if raised else wl.record(inp, out))
    return ops


def reference_block(wl, lib, env, tracer=None):
    """The fixed block (seed 0): warms caches, and its outputs must match the digest."""
    digest = sha256()

    def feed(record):
        digest.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())

    ops = run_block(wl, lib, env, REF_PHASE, 0, 0, tracer, on_output=feed)
    return ops, digest.hexdigest()


def percentile_ms(ops, p):
    """Nearest-rank percentile of op time; failed ops rank as the slowest."""
    ranked = sorted(ops, key=lambda op: (op.failed, op.ns))
    idx = max(0, -(-len(ranked) * p // 100) - 1)
    return ranked[int(idx)].ns / 1e6


def ops_per_s(ops):
    return sum(not op.failed for op in ops) / (sum(op.ns for op in ops) / 1e9)


def context():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": threads,
    }


def timed_setup(wl):
    """One set-up: a fresh import of the library plus the workload's set-up."""
    t0 = perf_counter()
    lib = import_library()
    env = wl.setup(lib)
    return perf_counter() - t0, lib, env


def repeat_setup(wl):
    """Time another set-up, then put the library in use back in place.

    The discarded copy of the library is collected at once, so peak_rss_mib
    does not depend on how many set-ups a run makes.
    """
    in_use = {k: v for k, v in sys.modules.items() if k == "multispace" or k.startswith("multispace.")}
    elapsed = timed_setup(wl)[0]
    sys.modules.update(in_use)
    gc.collect()
    return elapsed


def planned_blocks(wl, seconds, cost=1.0):
    """The fixed number of timed blocks (or traced pairs, of the given cost) in a run.

    The work does not depend on the machine's speed, so every run of a seed
    attempts the same ops and fails the same ones.
    """
    return max(1, round(FILL * seconds / (wl.block_s * cost)))


def run_untraced(wl, seed, seconds):
    first, lib, env = timed_setup(wl)
    setups = [first]
    repeats = min(SETUP_REPEATS[1], max(SETUP_REPEATS[0], math.ceil(SETUP_TOTAL_S / first)))
    ref_ops, digest = reference_block(wl, lib, env)
    ops = []
    planned = planned_blocks(wl, seconds)
    # the other set-ups are spread over the timed phase, so their median does
    # not hinge on the machine's load in the first second of the run
    start, in_setup = perf_counter(), 0.0
    for block in range(planned):
        ops += run_block(wl, lib, env, TIMED_PHASE, seed, block)
        while len(setups) < repeats and block + 1 >= planned * len(setups) / repeats:
            t0 = perf_counter()
            setups.append(repeat_setup(wl))
            in_setup += perf_counter() - t0
        if perf_counter() - start - in_setup >= seconds:
            break  # only on a machine far slower than block_s: stop at --seconds
    block += 1
    while len(setups) < repeats:
        setups.append(repeat_setup(wl))
    failed = sum(op.failed for op in ops)
    metrics = {
        "ops_per_s": ops_per_s(ops),
        "op_p50_ms": percentile_ms(ops, 50),
        "op_p90_ms": percentile_ms(ops, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / len(ops),
    }
    notes = [
        f"timed blocks: {block} of {planned} planned, {len(wl.cases)} ops each; op time samples: {len(ops)}, "
        f"{len(ops) - int(-(-len(ops) * 90 // 100))} above p90",
        f"setup_s: median of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return verify(wl, Run(ref_ops, digest, ops, metrics, notes))


def run_traced(wl, seed, seconds):
    tracer = Tracer()
    lib = import_library()
    tracer.install(lib)
    tracer.on = True
    env = wl.setup(lib)
    tracer.on = False
    tracer.set_phase("ref")
    ref_ops, digest = reference_block(wl, lib, env, tracer)
    tracer.uninstall()
    tracer.set_phase("timed")
    # alternate traced and untraced blocks on the same inputs for the overhead ratio
    traced, untraced = [], []
    planned = planned_blocks(wl, seconds, TRACED_PAIR_COST)
    deadline = perf_counter() + seconds
    for pair in range(planned):
        for traced_first in ((True, False) if pair % 2 == 0 else (False, True)):
            if traced_first:
                tracer.install(lib)
                traced += run_block(wl, lib, env, TIMED_PHASE, seed, pair, tracer, op_base=len(wl.cases) * (pair + 1))
                tracer.uninstall()
            else:
                untraced += run_block(wl, lib, env, TIMED_PHASE, seed, pair)
        if perf_counter() >= deadline:
            break
    pair += 1
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(untraced), "ratio")
    metrics["trace.ref_wall_s"] = (sum(op.ns for op in ref_ops) / 1e9, "s")
    metrics.update(replay_baselines(lib, tracer.captures))
    spans = tracer.span_report()
    notes = [
        f"overhead blocks: {pair} traced + {pair} untraced; spans kept: {spans['spans']}; "
        f"ops checked: {spans['ops']}, negative self times: {spans['negative_self']}, "
        f"ops whose self times exceed their wall time: {spans['ops_over_wall']}",
        "layer metrics cover the reference block (fields.field.* and "
        "qpoly.vector_field_iso.self_s cover set-up)",
    ]
    run = Run(ref_ops, digest, traced + untraced, metrics, notes, spans=spans)
    if spans["negative_self"] or spans["ops_over_wall"]:
        run.problems.append(f"span self times inconsistent: {spans}")
    return verify(wl, run)


def recorded_digest(name):
    return json.loads((BENCH_DIR / "spec.json").read_text())["digests"].get(name)


def verify(wl, run):
    """Add a problem for a digest mismatch and for every failed output check."""
    expected = recorded_digest(wl.name)
    if run.digest != expected:
        run.problems.append(f"reference digest {run.digest} differs from the recorded {expected}")
    for label, block in (("reference", run.ref_ops), ("timed", run.ops)):
        bad = [op.problems for op in block if op.problems]
        if bad:
            run.problems.append(f"{len(bad)} {label} ops failed their output check, first: {bad[0]}")
    return run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    wl = WORKLOADS[args.workload]
    try:
        run = (run_traced if args.trace else run_untraced)(wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    ops = run.ops
    failed = sum(op.failed for op in ops)
    raised = Counter(op.raised for op in ops if op.raised)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("context: " + json.dumps(context()))
    ok = run.digest == recorded_digest(wl.name)
    print(f"reference digest: {run.digest} ({'ok' if ok else 'MISMATCH'})")
    for note in run.notes:
        print(note)
    print(f"ops: {len(ops)} attempted, {failed} failed, error_rate {failed / len(ops):.6g} ratio"
          + (f"; raised: {dict(raised)}" if raised else ""))
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    shown = {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items() if k != "error_rate"}
    result = {"correct": not run.problems, "attempted": len(ops), "failed": failed, "metrics": shown}
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
