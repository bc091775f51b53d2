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
from json.encoder import encode_basestring_ascii

from .channel import MODES, ChannelConfig, end_to_end, run_trials, write_trial_csv
from .codes import (
    MultispaceCode,
    _check_search,
    ball_size,
    codespace_growth,
    exhaustive_optimal_code,
    greedy_code,
    sphere_packing_bound,
)
from .errors import ConfigInvalid, FormatError, LimitExceeded, MultispaceError
from .fields import check_settings, parse_field_spec
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
from .linalg import _check_budget
from .qpoly import LinearizedPoly, poly_from_multispace, roots_multiset


#: The subcommands that write CSV under --format csv.
_CSV_COMMANDS = ("count", "search")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _integer(text: str) -> int:
    """An integer argument, spelled as a JSON q-index: canonical ASCII decimal, with an optional -."""
    if str(int(text)) != text:  # int refuses what is not a number at all
        raise argparse.ArgumentTypeError(f"{text!r} is not a canonical decimal integer")
    return int(text)


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


def _text(render) -> str:
    """render(), with an int too long for Python to print (past
    sys.get_int_max_str_digits()) turned into an input error, not a traceback.

    Every output is formatted through here before its file is opened, so an
    error writes nothing.
    """
    try:
        return render()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise _digit_limit_error(sys.get_int_max_str_digits()) from exc


def _json(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2), byte for byte, in one pass.

    json.dumps with an indent runs the pure-Python encoder.  Here dicts and
    lists (tuples too) recurse, an int is str, an all-int list is one join and
    a str, as a value or a key, is the C string encoder's.  json itself writes
    everything else, so floats, bool, None and keys that are not str come out,
    and values it refuses fail, as in json.dumps; a key alone is written as
    json writes {key: 0}.  indent is the newline and indent that precede doc.
    """
    kind = type(doc)
    if kind is int:
        return str(doc)
    if kind is str:
        return encode_basestring_ascii(doc)
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [(encode_basestring_ascii(key) if type(key) is str else json.dumps({key: 0})[1:-4])
                 + ": " + _json(value, inner) for key, value in doc.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = map(str, doc) if all(type(x) is int for x in doc) else [_json(x, inner) for x in doc]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(doc)


def _emit(args, doc: dict, table):
    """Write doc as JSON, or the lines table() returns under any other format."""
    fmt = _pick_format(args)
    text = _text(lambda: _json(doc) if fmt == "json" else "\n".join(table()))
    with _output_file(args.output) as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _check_n_and_rank(n, m) -> None:
    """The ambient dimension and the rank (or rank cap) of a lattice command, before any work."""
    message = f"n = {n} and m = {m} must be nonnegative"
    check_settings(("n", n, 0, message), ("m", m, 0, message))


def _check_digits(ctx, n: int, m: int) -> None:
    """Refuse counts of GF(q)^n to rank m if [n, k]_q >= q^(k(n-k)), k = min(m, n // 2), is too long to print."""
    limit = sys.get_int_max_str_digits() or math.inf  # 0 means no limit
    k = min(m, n // 2)
    if k * (n - k) > (limit + 1) / math.log10(ctx.q):  # an int against a float, exact at any size
        raise _digit_limit_error(limit)


def cmd_count(args) -> int:
    _check_n_and_rank(args.n, args.m)
    ctx = parse_field_spec(args.q_spec)
    _check_digits(ctx, args.n, args.m)
    _check_budget(args.m + 1, "count rows")  # one row per rank 0..m
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
    _check_n_and_rank(args.n, args.m)
    ctx = parse_field_spec(args.q_spec)
    words = list(enumerate_multispaces(ctx, args.n, args.m))
    doc = {"q-spec": ctx.spec, "n": args.n, "m": args.m, "multispaces": [w.to_dict() for w in words]}
    _emit(args, doc, lambda: [f"rank {args.m}: {len(words)} multispaces"] + [
        f"  dim {w.dim} ht {w.height} basis {w.underlying.basis.tolist()}" for w in words])
    return 0


def cmd_hasse(args) -> int:
    _check_n_and_rank(args.n, args.m_max)
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
    _check_search(args.n, args.m_max, args.d_min, args.seed)  # the optimal search records the seed too
    # a code file of n = 0 could not be read back: documents need n >= 1
    check_settings(("n", args.n, 1, f"ambient dimension {args.n} is not positive"))
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
        text = _text(lambda: _json(doc))
        with _output_file(args.output) as fh:
            fh.write(text + "\n")
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
    _check_search(args.n, args.m_max, args.d_min)
    _check_digits(ctx, args.n, args.m_max)
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

    def add(name, fn, summary, *positional):
        sp = sub.add_parser(name, parents=[output], help=summary)
        sp.set_defaults(func=fn)
        for arg in positional:  # the dimensions, ranks and radii are ints
            sp.add_argument(arg, type=_integer if arg in ("n", "m", "m_max", "d_min", "radius") else str)
        return sp

    add("count", cmd_count, "per-rank multispace counts and cumulative code-space size", "q_spec", "n", "m")
    add("enumerate", cmd_enumerate, "list all multispaces of one rank", "q_spec", "n", "m")
    add("hasse", cmd_hasse, "DOT Hasse diagram up to a rank cap", "q_spec", "n", "m_max")
    add("distance", cmd_distance, "lattice distance with its decomposition", "w1", "w2")
    add("meet", cmd_meet, "greatest lower bound of two multispaces", "w1", "w2")
    add("join", cmd_join, "least upper bound of two multispaces", "w1", "w2")
    add("mspan", cmd_mspan, "multispan of a vector multiset", "vectors")
    add("poly", cmd_poly, "linearized polynomial of a multispace", "w")
    add("roots", cmd_roots, "multispace of the roots of a linearized polynomial", "poly")
    sp = add("search", cmd_search, "greedy or certified-optimal code construction", "q_spec", "n", "m_max", "d_min")
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--optimal", action="store_true")
    add("ball", cmd_ball, "metric ball size around a multispace", "center", "radius", "m_max")
    add("bound", cmd_bound, "sphere-packing upper bound on code size", "q_spec", "n", "m_max", "d_min")

    sp = add("simulate", cmd_simulate, "channel simulation against a code file", "code")
    sp.add_argument("--mode", choices=MODES, required=True)
    sp.add_argument("--s", type=_integer, default=0)
    sp.add_argument("--trials", type=_integer, default=1000)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--codeword", type=_integer, default=0, help="codeword index for single-word runs")
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
    except MultispaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
