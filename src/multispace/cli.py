"""Command-line frontend.

Subcommands: count, enumerate, hasse, distance, meet, join, mspan,
poly, roots, search, ball, bound, simulate.

Exit codes: 0 success, 1 usage or input error, 2 an enumeration of more
than 2^20 items, a clique search over more than 64 elements or a simulated
word whose m x m channel matrices pass 2^20 entries, 3 a proven channel
bound was violated (implementation bug).
Output defaults to a human table on a TTY and JSON when piped;
--format (table, json or csv) overrides.  Only count and search have a
csv form; --format csv is an error elsewhere.  hasse always writes DOT.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .channel import ChannelConfig, end_to_end, run_trials, write_trial_csv
from .codes import (
    MultispaceCode,
    ball_size,
    codespace_growth,
    exhaustive_optimal_code,
    greedy_code,
    sphere_packing_bound,
)
from .errors import BoundViolation, ConfigInvalid, FormatError, LimitExceeded, MultispaceError
from .fields import parse_field_spec
from .lattice import (
    Multispace,
    VectorMultiset,
    count_multispaces,
    distance,
    enumerate_multispaces,
    hasse_dot,
    join,
    meet,
    mspan,
)
from .qpoly import LinearizedPoly, poly_from_multispace, roots_multiset


#: The subcommands that write CSV under --format csv.
_CSV_COMMANDS = ("count", "search")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _read_json_arg(arg: str) -> dict:
    """Accept a path to a JSON file or an inline JSON literal."""
    try:
        if not arg.lstrip().startswith("{") and os.path.exists(arg):
            with open(arg) as fh:
                return json.loads(fh.read())
        return json.loads(arg)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise FormatError(f"not valid JSON (or a readable file): {arg!r}") from exc


def _pick_format(args):
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


@contextlib.contextmanager
def _output_file(path, newline=None):
    """Yield path opened for writing, or stdout when path is None.

    A path that cannot be opened or written is an input error (exit 1),
    not a traceback.
    """
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise FormatError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _digit_limit_error(limit) -> ConfigInvalid:
    return ConfigInvalid(f"values pass Python's limit of {limit} decimal digits for printing an int")


def _has_int_of(obj, bound: int) -> bool:
    """True iff an int in the JSON-like obj has absolute value at least bound."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return any(_has_int_of(v, bound) for v in obj)
    return isinstance(obj, int) and abs(obj) >= bound


def _emit(args, doc: dict, table):
    """Write doc as JSON, or the lines table() returns under any other format.

    Every output goes through here, so an int too long for Python to print
    (sys.get_int_max_str_digits(), 0 = no limit) is an input error found
    before anything is formatted, not a traceback.
    """
    limit = sys.get_int_max_str_digits()
    if limit and _has_int_of(doc, 10 ** limit):
        raise _digit_limit_error(limit)
    fmt = _pick_format(args)
    with _output_file(args.output) as fh:
        if fmt == "json":
            fh.write(json.dumps(doc, indent=2) + "\n")
        else:
            fh.write("\n".join(table()) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    if args.n < 0 or args.m < 0:
        raise ConfigInvalid(f"n = {args.n} and m = {args.m} must be nonnegative")
    ctx = parse_field_spec(args.q_spec)
    limit = sys.get_int_max_str_digits() or math.inf  # 0 means no limit
    k = min(args.m, args.n // 2)  # refuse before counting if [n, k]_q >= q^(k(n-k)) is too long
    if k * (args.n - k) * math.log10(ctx.q) > limit + 1:
        raise _digit_limit_error(limit)
    rows = []
    cumulative = 0
    for j in range(args.m + 1):
        c = count_multispaces(args.n, j, ctx.q)
        cumulative += c
        rows.append({"rank": j, "count": c, "cumulative": cumulative})
    doc = {"q-spec": ctx.spec, "n": args.n, "rows": rows}

    def table():
        if _pick_format(args) == "csv":
            return ["rank,count,cumulative"] + [f"{r['rank']},{r['count']},{r['cumulative']}" for r in rows]
        head = f"{'rank':>4}  {'count':>12}  {'cumulative':>12}"
        return [head] + [f"{r['rank']:>4}  {r['count']:>12}  {r['cumulative']:>12}" for r in rows]

    _emit(args, doc, table)
    return 0


def cmd_enumerate(args) -> int:
    ctx = parse_field_spec(args.q_spec)
    words = list(enumerate_multispaces(ctx, args.n, args.m))
    doc = {"q-spec": ctx.spec, "n": args.n, "m": args.m, "multispaces": [w.to_dict() for w in words]}
    _emit(args, doc, lambda: [f"rank {args.m}: {len(words)} multispaces"] + [
        f"  dim {w.dim} ht {w.height} basis {w.underlying.basis.tolist()}" for w in words])
    return 0


def cmd_hasse(args) -> int:
    ctx = parse_field_spec(args.q_spec)
    hd = hasse_dot(ctx, args.n, args.m_max)
    with _output_file(args.output) as fh:
        fh.write(hd.dot)
    print(
        f"nodes: {hd.nodes} edges: {hd.edges} per-rank: {'/'.join(map(str, hd.rank_sizes))}",
        file=sys.stderr,
    )
    return 0


def _load_multispace(arg: str) -> Multispace:
    return Multispace.from_dict(_read_json_arg(arg))


def cmd_distance(args) -> int:
    w1 = _load_multispace(args.w1)
    w2 = _load_multispace(args.w2)
    d = distance(w1, w2)
    dh = abs(w1.height - w2.height)
    ds = d - dh  # the metric splits as d_S + |dh|
    doc = {"distance": d, "underlying_distance": ds, "height_distance": dh}
    _emit(args, doc, lambda: [f"distance: {d}", f"  underlying: {ds}", f"  height: {dh}"])
    return 0


def cmd_meet(args) -> int:
    w = meet(_load_multispace(args.w1), _load_multispace(args.w2))
    _emit(args, w.to_dict(), lambda: [f"dim {w.dim} ht {w.height} basis {w.underlying.basis.tolist()}"])
    return 0


def cmd_join(args) -> int:
    w = join(_load_multispace(args.w1), _load_multispace(args.w2))
    _emit(args, w.to_dict(), lambda: [f"dim {w.dim} ht {w.height} basis {w.underlying.basis.tolist()}"])
    return 0


def cmd_mspan(args) -> int:
    b = VectorMultiset.from_dict(_read_json_arg(args.vectors))
    w = mspan(b)
    _emit(args, w.to_dict(), lambda: [f"dim {w.dim} ht {w.height} rank {w.rank} basis {w.underlying.basis.tolist()}"])
    return 0


def cmd_poly(args) -> int:
    w = _load_multispace(args.w)
    L = poly_from_multispace(w)
    doc = L.to_dict()
    _emit(args, doc, lambda: [L.text(), f"subfield degree: {L.coefficient_subfield_degree()}"])
    return 0


def cmd_roots(args) -> int:
    L = LinearizedPoly.from_dict(_read_json_arg(args.poly))
    w = roots_multiset(L)
    _emit(args, w.to_dict(), lambda: [f"dim {w.dim} ht {w.height} rank {w.rank} basis {w.underlying.basis.tolist()}"])
    return 0


def cmd_search(args) -> int:
    ctx = parse_field_spec(args.q_spec)
    if args.optimal:
        code = exhaustive_optimal_code(ctx, args.n, args.m_max, args.d_min)
    else:
        code = greedy_code(ctx, args.n, args.m_max, args.d_min, seed=args.seed)
    bound = sphere_packing_bound(ctx, args.n, args.m_max, args.d_min)
    verified = None if code.min_distance == math.inf else int(code.min_distance)
    doc = code.to_dict()
    doc["packing_bound"] = bound
    doc["seed"] = args.seed
    doc["method"] = "optimal" if args.optimal else "greedy"

    def table():
        if _pick_format(args) == "csv":
            greedy_col, opt_col = ("", len(code)) if args.optimal else (len(code), "")
            return [
                "q,n,m_max,d_min,greedy_size,optimal_size,packing_bound,seed",
                f"{ctx.q},{args.n},{args.m_max},{args.d_min},{greedy_col},{opt_col},{bound},{args.seed}",
            ]
        return [
            f"size: {len(code)}",
            f"verified min distance: {'inf' if verified is None else verified}",
            f"packing bound: {bound}",
        ]

    if args.output:
        # --output names the code file; the stats summary goes to stdout
        with _output_file(args.output) as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        args.output = None
        doc = {"written": True, "size": len(code), "min_distance": verified, "packing_bound": bound}
    _emit(args, doc, table)
    return 0


def cmd_ball(args) -> int:
    w = _load_multispace(args.center)
    size = ball_size(w, args.radius, args.m_max)
    _emit(args, {"center_rank": w.rank, "radius": args.radius, "size": size}, lambda: [f"ball size: {size}"])
    return 0


def cmd_bound(args) -> int:
    ctx = parse_field_spec(args.q_spec)
    b = sphere_packing_bound(ctx, args.n, args.m_max, args.d_min)
    space = codespace_growth(ctx, args.n, args.m_max)
    doc = {"packing_bound": b, "space_size": space}
    _emit(args, doc, lambda: [f"packing bound: {b}", f"space size: {space}"])
    return 0


def cmd_simulate(args) -> int:
    code = MultispaceCode.from_dict(_read_json_arg(args.code))
    cfg = ChannelConfig(
        mode=args.mode, trials=args.trials, s=args.s, seed=args.seed,
        random_generator=args.random_generator,
    )
    if args.end_to_end:
        summary = end_to_end(code, cfg)
        doc = summary.to_dict()
    else:
        if not 0 <= args.codeword < len(code):
            raise ConfigInvalid(f"--codeword {args.codeword} is not an index of the {len(code)} codewords")
        run = run_trials(code.codewords[args.codeword], cfg)
        if args.trial_log:
            with _output_file(args.trial_log, newline="") as fh:
                write_trial_csv(run.records, fh)
        summary = run.summary
        doc = summary.to_dict()
    hist = ", ".join(f"{k}:{v}" for k, v in sorted(summary.histogram.items()))
    lines = [f"trials: {summary.trials}", f"violations: {summary.violations}",
             f"max distance: {summary.max_distance}", f"histogram: {hist}"]
    if summary.block_errors is not None:
        lines.append(f"block error rate: {summary.block_error_rate}")
    _emit(args, doc, lambda: lines)
    return 3 if summary.violations else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = _Parser(prog="multispace", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--format", choices=["table", "json", "csv"], default=None)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    output = argparse.ArgumentParser(add_help=False)  # every subcommand takes --output
    output.add_argument("--output")

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, parents=[output], **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = add("count", cmd_count, help="per-rank multispace counts and cumulative code-space size")
    sp.add_argument("q_spec")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)

    sp = add("enumerate", cmd_enumerate, help="list all multispaces of one rank")
    sp.add_argument("q_spec")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)

    sp = add("hasse", cmd_hasse, help="DOT Hasse diagram up to a rank cap")
    sp.add_argument("q_spec")
    sp.add_argument("n", type=int)
    sp.add_argument("m_max", type=int)

    sp = add("distance", cmd_distance, help="lattice distance with its decomposition")
    sp.add_argument("w1")
    sp.add_argument("w2")

    sp = add("meet", cmd_meet, help="greatest lower bound of two multispaces")
    sp.add_argument("w1")
    sp.add_argument("w2")

    sp = add("join", cmd_join, help="least upper bound of two multispaces")
    sp.add_argument("w1")
    sp.add_argument("w2")

    sp = add("mspan", cmd_mspan, help="multispan of a vector multiset")
    sp.add_argument("vectors")

    sp = add("poly", cmd_poly, help="linearized polynomial of a multispace")
    sp.add_argument("w")

    sp = add("roots", cmd_roots, help="multispace of the roots of a linearized polynomial")
    sp.add_argument("poly")

    sp = add("search", cmd_search, help="greedy or certified-optimal code construction")
    sp.add_argument("q_spec")
    sp.add_argument("n", type=int)
    sp.add_argument("m_max", type=int)
    sp.add_argument("d_min", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--optimal", action="store_true")

    sp = add("ball", cmd_ball, help="metric ball size around a multispace")
    sp.add_argument("center")
    sp.add_argument("radius", type=int)
    sp.add_argument("m_max", type=int)

    sp = add("bound", cmd_bound, help="sphere-packing upper bound on code size")
    sp.add_argument("q_spec")
    sp.add_argument("n", type=int)
    sp.add_argument("m_max", type=int)
    sp.add_argument("d_min", type=int)

    sp = add("simulate", cmd_simulate, help="channel simulation against a code file")
    sp.add_argument("code")
    sp.add_argument("--mode", choices=["full-rank", "deletion", "rank-deficient", "compound"], required=True)
    sp.add_argument("--s", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--codeword", type=int, default=0, help="codeword index for single-word runs")
    sp.add_argument("--end-to-end", action="store_true", help="sample codewords and decode")
    sp.add_argument("--random-generator", action="store_true", help="send a random generating multiset")
    sp.add_argument("--trial-log", help="write per-trial CSV here")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise ConfigInvalid(f"{args.command} has no csv form; only {' and '.join(_CSV_COMMANDS)} do")
        return args.func(args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 3
    except MultispaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
