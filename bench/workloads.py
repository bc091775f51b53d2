"""The benchmark workloads.

``BENCHMARK.json`` names two workloads.  ``channel_qpoly`` is the channel
block followed by the qpoly block; ``decode_search`` is the decode block
followed by the search block.  ``run.py`` also runs the four single-layer
workloads on their own, for a closer look at one layer.

Each workload is a fixed list of op templates (``cases``), run in order as
one block.  A run repeats whole blocks, so every run has the same mix; the
seed only changes the concrete inputs inside each template (which subspace,
which channel seed, which greedy shuffle), never the parameters that set an
op's cost.  Inputs are drawn by the benchmark itself from
``numpy.random.default_rng([phase, seed, block, position])``; the library
receives only the generated inputs.

A workload provides:

``block_s``
    wall seconds of one block, inputs and checks included, on a shared
    2-vCPU Xeon with Python 3.11 and numpy 2.4; a run's timed phase is a
    fixed number of blocks sized from it.
``setup(lib)``
    the work a user pays once per process (field tables, codes), timed as
    ``setup_s``; returns an environment dict.
``make_input(lib, env, case, rng)``
    the op's input, built outside the op timer.
``run(lib, env, inp)``
    the op itself, timed.
``check(lib, env, inp, out)``
    a list of problems with the output (empty when it is correct).
``record(inp, out)``
    the JSON-able output that goes into the reference digest.

Each single-layer block has 15 ops with distinct costs.  Nearest-rank p90
then falls in the middle of the second most expensive template's share
(position 13.5 of 15) and p50 in the middle of the eighth, so a percentile
never sits on the step between two templates; ``BENCHMARK`` below says how
the two-block workloads keep to that.
"""

import contextlib
import hashlib
import io
import itertools
import json

import numpy as np


def random_rref(rng, q, n, k):
    """A random canonical (RREF) basis of a k-dimensional subspace of GF(q)^n."""
    pivots = sorted(int(c) for c in rng.choice(n, size=k, replace=False))
    basis = np.zeros((k, n), dtype=np.int64)
    for i, pc in enumerate(pivots):
        basis[i, pc] = 1
        for c in range(pc + 1, n):
            if c not in pivots:
                basis[i, c] = rng.integers(q)
    return basis


def random_multispace(lib, ctx, n, dim, height, rng):
    basis = np.eye(n, dtype=np.int64) if dim == n else random_rref(rng, ctx.q, n, dim)
    sub = lib.linalg.Subspace.from_basis(ctx, n, basis, strict=True)
    return lib.lattice.Multispace(sub, height)


def channel_seed(rng):
    return int(rng.integers(2**31))


def histogram_problems(mode, s, hist, trials):
    """The distance bound each channel mode guarantees, checked on a histogram."""
    problems = []
    if sum(hist.values()) != trials:
        problems.append(f"histogram counts {sum(hist.values())} trials, expected {trials}")
    if mode == "full-rank" and set(hist) - {0}:
        problems.append(f"full-rank distances {sorted(hist)} are not all 0")
    if mode == "deletion" and set(hist) - {s}:
        problems.append(f"deletion distances {sorted(hist)} are not all {s}")
    if mode == "rank-deficient" and max(hist) > 2 * s:
        problems.append(f"rank-deficient distance {max(hist)} exceeds 2s = {2 * s}")
    return problems


class Channel:
    """One op: ``channel.run_trials(w, ChannelConfig(mode, trials=K, s, seed))``."""

    name = "channel"
    block_s = 0.37
    TRIALS = 32
    #: (q-spec, n, dim, height, mode, s, random_generator); rank = dim + height <= 8
    cases = [
        ("2", 6, 5, 1, "full-rank", 0, False),
        ("2", 6, 6, 0, "deletion", 1, True),
        ("2", 6, 4, 2, "rank-deficient", 2, False),
        ("2", 5, 3, 1, "deletion", 2, False),
        ("2", 4, 4, 4, "full-rank", 0, True),
        ("2", 3, 2, 1, "rank-deficient", 1, True),
        ("3", 4, 3, 1, "full-rank", 0, False),
        ("3", 5, 4, 0, "deletion", 1, False),
        ("3", 6, 3, 2, "rank-deficient", 1, True),
        ("3", 3, 2, 0, "deletion", 2, True),
        ("2^2", 4, 3, 0, "full-rank", 0, True),
        ("2^2", 5, 2, 2, "deletion", 1, False),
        ("2^2", 3, 3, 1, "rank-deficient", 2, False),
        ("2^2", 6, 4, 2, "full-rank", 0, False),
        ("2^2", 2, 1, 2, "rank-deficient", 1, True),
    ]

    def setup(self, lib):
        return {"ctx": {c[0]: lib.fields.parse_field_spec(c[0]) for c in self.cases}}

    def make_input(self, lib, env, case, rng):
        spec, n, dim, height, mode, s, rg = case
        w = random_multispace(lib, env["ctx"][spec], n, dim, height, rng)
        cfg = lib.channel.ChannelConfig(mode, self.TRIALS, s, channel_seed(rng), rg)
        return w, cfg

    def run(self, lib, env, inp):
        return lib.channel.run_trials(*inp)

    def check(self, lib, env, inp, out):
        _, cfg = inp
        summary = out.summary
        problems = histogram_problems(cfg.mode, cfg.s, summary.histogram, cfg.trials)
        if summary.violations:
            problems.append(f"{summary.violations} trials violated the channel bound")
        if summary.trials != cfg.trials or len(out.records) != cfg.trials:
            problems.append("trial count differs from the configuration")
        return problems

    def record(self, inp, out):
        trials = [[r.received.to_dict(), r.t_rank, r.distance] for r in out.records]
        return {"summary": out.summary.to_dict(), "trials": trials}


class Decode:
    """One op: ``channel.end_to_end(code, cfg)`` against a greedy code built in setup."""

    name = "decode"
    block_s = 0.48
    TRIALS = 8
    #: code name -> greedy_code(q-spec, n, m_max, d_min, seed=0) arguments
    CODES = {"F2-3-3-2": ("2", 3, 3, 2), "F3-3-3-2": ("3", 3, 3, 2), "F2-4-4-2": ("2", 4, 4, 2)}
    VARIANTS = [
        ("full-rank", 0, False),
        ("full-rank", 0, True),
        ("deletion", 1, False),
        ("deletion", 1, True),
        ("rank-deficient", 1, False),
    ]
    cases = [(code, *variant) for code, variant in itertools.product(CODES, VARIANTS)]

    def setup(self, lib):
        codes = {}
        for key, (spec, n, m_max, d_min) in self.CODES.items():
            ctx = lib.fields.parse_field_spec(spec)
            code = lib.codes.greedy_code(ctx, n, m_max, d_min, seed=0)
            code.min_distance  # cached on the code; end_to_end reads it on block errors
            codes[key] = code
        return {"codes": codes}

    def make_input(self, lib, env, case, rng):
        code, mode, s, rg = case
        return code, lib.channel.ChannelConfig(mode, self.TRIALS, s, channel_seed(rng), rg)

    def run(self, lib, env, inp):
        code, cfg = inp
        return lib.channel.end_to_end(env["codes"][code], cfg)

    def check(self, lib, env, inp, out):
        code, cfg = inp
        problems = histogram_problems(cfg.mode, cfg.s, out.histogram, cfg.trials)
        if out.violations:
            problems.append(f"{out.violations} violations (channel bound or unique decoding)")
        if out.trials != cfg.trials or not 0 <= out.block_errors <= cfg.trials:
            problems.append("trial or block-error count out of range")
        bound = {"full-rank": 0, "deletion": cfg.s, "rank-deficient": 2 * cfg.s}[cfg.mode]
        if bound < env["codes"][code].min_distance / 2 and out.block_errors:
            problems.append(f"{out.block_errors} block errors inside the unique-decoding radius")
        return problems

    def record(self, inp, out):
        return out.to_dict()


class Search:
    """One op: in-process ``cli.main([... "search", ...])``, or a gamma graph plus
    ``is_distance_regular``."""

    name = "search"
    block_s = 1.13
    #: ("search", q-spec, n, m_max, d_min, optimal) or ("gamma", q-spec, n, m)
    cases = [
        ("search", "2^2", 2, 2, 3, False),
        ("gamma", "2", 3, 2),
        ("search", "3", 2, 2, 2, True),
        ("search", "2^2", 2, 2, 2, True),
        ("search", "3", 3, 2, 3, False),
        ("search", "2", 3, 3, 3, False),
        ("search", "2", 3, 2, 3, True),
        ("search", "2", 3, 2, 2, True),
        ("gamma", "3", 3, 2),
        ("search", "2", 3, 3, 3, True),
        ("search", "2", 3, 3, 2, False),
        ("search", "3", 3, 2, 2, False),
        ("search", "2", 4, 3, 3, False),
        ("gamma", "2", 4, 3),
        ("search", "2", 5, 3, 3, False),
    ]

    def setup(self, lib):
        return {"ctx": {c[1]: lib.fields.parse_field_spec(c[1]) for c in self.cases}}

    def make_input(self, lib, env, case, rng):
        if case[0] == "gamma":
            return case
        _, spec, n, m_max, d_min, optimal = case
        argv = ["--format", "json", "search", spec, str(n), str(m_max), str(d_min)]
        argv += ["--seed", str(channel_seed(rng))] + (["--optimal"] if optimal else [])
        return case, argv

    def run(self, lib, env, inp):
        if inp[0] == "gamma":
            _, spec, n, m = inp
            g = lib.lattice.gamma_graph(env["ctx"][spec], n, m)
            return g, lib.lattice.is_distance_regular(g)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(inp[1])
        return rc, buf.getvalue()

    def check(self, lib, env, inp, out):
        if inp[0] == "gamma":
            _, spec, n, m = inp
            g, _ = out
            adj = g.adjacency
            problems = []
            if not np.array_equal(adj, adj.T) or adj.diagonal().any():
                problems.append("gamma adjacency is not symmetric and loop-free")
            if len(g.vertices) != lib.lattice.count_multispaces(n, m, env["ctx"][spec].q):
                problems.append("gamma graph vertex count differs from the counting formula")
            return problems
        (_, spec, n, m_max, d_min, optimal), argv = inp
        rc, text = out
        if rc != 0:
            return [f"search exited with {rc}"]
        doc = json.loads(text)
        size = len(doc["codewords"])
        problems = []
        if size > doc["packing_bound"]:
            problems.append(f"|C| = {size} exceeds the packing bound {doc['packing_bound']}")
        if (doc["d_min"] is None and size > 1) or (doc["d_min"] is not None and doc["d_min"] < d_min):
            problems.append(f"verified minimum distance {doc['d_min']} is below {d_min}")
        if optimal:
            seed = int(argv[argv.index("--seed") + 1])
            greedy = lib.codes.greedy_code(env["ctx"][spec], n, m_max, d_min, seed=seed)
            if size < len(greedy):
                problems.append(f"optimal code ({size}) is smaller than the greedy one ({len(greedy)})")
        return problems

    def record(self, inp, out):
        if inp[0] == "gamma":
            g, report = out
            return {
                "vertices": len(g.vertices),
                "adjacency": hashlib.sha256(np.packbits(g.adjacency).tobytes()).hexdigest(),
                "regular": bool(report),
                "witness": None if report.witness is None else report.witness["reason"],
            }
        rc, text = out
        return {"rc": rc, "stdout": hashlib.sha256(text.encode()).hexdigest()}


class QPoly:
    """One op: the round trip ``roots_multiset(poly_from_multispace(w))``."""

    name = "qpoly"
    block_s = 1.17
    #: (q-spec, n, dim, height); dim == n means the whole space GF(q)^n
    cases = [
        ("2", 3, 1, 0),
        ("3", 3, 1, 1),
        ("2^2", 3, 1, 4),
        ("2", 4, 2, 1),
        ("2", 6, 3, 4),
        ("3", 4, 2, 2),
        ("2^2", 3, 2, 1),
        ("2", 8, 4, 2),
        ("2", 8, 8, 0),
        ("2^2", 4, 4, 0),
        ("3", 5, 5, 0),
        ("2", 10, 10, 0),
        ("3", 6, 6, 0),
        ("2", 12, 12, 0),
        ("2^2", 6, 6, 0),
    ]

    def setup(self, lib):
        ctx = {}
        for spec, n, _, _ in self.cases:
            ctx[spec] = lib.fields.parse_field_spec(spec)
            lib.fields.extension(ctx[spec], n)
            lib.qpoly.vector_field_iso(ctx[spec], n)
        return {"ctx": ctx}

    def make_input(self, lib, env, case, rng):
        spec, n, dim, height = case
        return random_multispace(lib, env["ctx"][spec], n, dim, height, rng)

    def run(self, lib, env, w):
        poly = lib.qpoly.poly_from_multispace(w)
        return poly, lib.qpoly.roots_multiset(poly)

    def check(self, lib, env, w, out):
        poly, roots = out
        problems = []
        if roots != w:
            problems.append("round trip did not return the multispace")
        q_indices = sorted(poly.coeffs)
        if poly.base_q != w.ctx.q or poly.ctx.q != w.ctx.q ** w.n:
            problems.append("polynomial lives over the wrong field")
        elif q_indices[0] != w.height or q_indices[-1] != w.rank or poly.coeffs[w.rank] != 1:
            problems.append(f"q-exponents {q_indices} are not a monic range from {w.height} to {w.rank}")
        return problems

    def record(self, w, out):
        poly, roots = out
        return {"poly": poly.to_dict(), "roots": roots.to_dict()}


class Composite:
    """A workload whose block is the blocks of its member workloads, one after another.

    Inputs, checks and digest records are the members' own; a record is keyed
    by the member's name.
    """

    def __init__(self, name, block_s, members, extra=()):
        self.name = name
        self.block_s = block_s
        self.members = {m.name: m for m in members}
        self.cases = [(m.name, case) for m in members for case in m.cases] + list(extra)

    def setup(self, lib):
        return {name: m.setup(lib) for name, m in self.members.items()}

    def make_input(self, lib, env, case, rng):
        name, inner = case
        return name, self.members[name].make_input(lib, env[name], inner, rng)

    def run(self, lib, env, inp):
        name, inner = inp
        return self.members[name].run(lib, env[name], inner)

    def check(self, lib, env, inp, out):
        name, inner = inp
        return self.members[name].check(lib, env[name], inner, out)

    def record(self, inp, out):
        name, inner = inp
        return {name: self.members[name].record(inner, out)}


SINGLE = (Channel(), Decode(), Search(), QPoly())
#: The workloads named in BENCHMARK.json; together they hold every single-layer
#: block.  channel_qpoly calls lattice.distance once per trial and never runs
#: codes; decode_search never runs qpoly: so the pairwise-distance kernel and
#: closed-form q-polynomials each have a workload that uses them and one that
#: does not.  channel_qpoly gets five extra cheap ops: with 35 ops of distinct
#: cost, p50 falls in the middle of the 18th op's share and p90 in the middle
#: of the 32nd, never on a step between costs.  In decode_search (30 ops) the
#: ops on both sides of each percentile position cost nearly the same.
BENCHMARK = (
    Composite("channel_qpoly", 1.6, (SINGLE[0], SINGLE[3]), extra=[
        ("qpoly", ("3", 4, 3, 1)),
        ("qpoly", ("2", 7, 5, 2)),
        ("qpoly", ("2^2", 4, 2, 2)),
        ("channel", ("3", 2, 1, 1, "full-rank", 0, False)),
        ("channel", ("2^2", 3, 2, 0, "deletion", 1, True)),
    ]),
    Composite("decode_search", 1.6, (SINGLE[1], SINGLE[2])),
)
WORKLOADS = {wl.name: wl for wl in (*BENCHMARK, *SINGLE)}
