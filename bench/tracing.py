"""Outside-in tracing of the multispace library for the benchmark.

The tracer replaces public functions and methods of ``fields``, ``linalg``,
``lattice``, ``codes``, ``channel``, ``qpoly`` and ``cli`` with timing
wrappers.  A module-level function is replaced in every module that binds
it (``rref_array`` is bound in ``linalg``, ``channel`` and ``qpoly``), so
calls through any import path are seen; methods are replaced on their class.
The library itself is not modified and nothing is wrapped until
``install`` is called.

Each wrapped call has a self time: its duration minus the time of the
wrapped calls made inside it.  Calls of ordinary functions become spans
(name, start, end, parent span, op id) kept in memory in flat arrays until
the run ends.  High-frequency leaves (the ``FieldCtx`` array and scalar
operations, ``random_matrix``) and generator resumptions are not kept as
spans: their counts and self times are aggregated per op instead.

Statistics are kept per phase (``setup``, ``ref``, ``timed``), so layer
metrics can be read for a fixed amount of work.
"""

from array import array
from time import perf_counter_ns

import numpy as np

SPAN, LEAF, GENERATOR = "span", "leaf", "generator"

#: per-bucket cap on the arguments kept for the untraced baseline replays
CAPTURE_LIMIT = {"rref_6x6_gf2": 256, "distance_f2_n3": 512}


class Stat:
    __slots__ = ("calls", "self_ns", "incl_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0


class Tracer:
    """Call-stack timer with span storage, per-phase statistics and counters."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.stack = [[0, -1]]  # frames: [child time in ns, span id]
        self.phases = {}
        self.set_phase("setup")
        # spans, one entry per column
        self.sp_name = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_self = array("q")
        self.sp_parent = array("q")
        self.sp_op = array("q")
        self._name_ids = {}
        self.leaf_self = {}  # op id -> self time of aggregated calls
        self.captures = {}
        self._installed = []

    # -- phases and ops ----------------------------------------------------------

    def set_phase(self, name):
        self.phase = name
        self.stats, self.counters = self.phases.setdefault(name, ({}, {}))

    def begin_op(self, op_id):
        self.op = op_id
        self.on = True
        self._open_span("op", -1)

    def end_op(self):
        frame = self.stack.pop()
        t1 = perf_counter_ns()
        sid = frame[1]
        self.sp_end[sid] = t1
        self.sp_self[sid] = (t1 - self.sp_start[sid]) - frame[0]
        self.on = False
        self.op = -1

    def _open_span(self, name, parent):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        sid = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_start.append(perf_counter_ns())
        self.sp_end.append(0)
        self.sp_self.append(0)
        self.sp_parent.append(parent)
        self.sp_op.append(self.op)
        self.stack.append([0, sid])
        return sid

    # -- counting ------------------------------------------------------------------

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def capture(self, bucket, owner, attr, args, kwargs):
        if self.phase != "ref":
            return
        kept = self.captures.setdefault(bucket, (owner, attr, []))[2]
        if len(kept) < CAPTURE_LIMIT.get(bucket, 4):
            kept.append((args, kwargs))

    def _account(self, key, dur, self_ns):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        st.calls += 1
        st.self_ns += self_ns
        st.incl_ns += dur

    # -- wrapped calls ------------------------------------------------------------

    def call(self, key, kind, fn, args, kwargs):
        stack = self.stack
        if kind is SPAN:
            sid = self._open_span(key, stack[-1][1])
            frame = stack[-1]
        else:
            frame = [0, -1]
            stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            stack[-1][0] += dur
            self_ns = dur - frame[0]
            self._account(key, dur, self_ns)
            if kind is SPAN:
                self.sp_start[sid] = t0
                self.sp_end[sid] = t1
                self.sp_self[sid] = self_ns
            else:
                self.leaf_self[self.op] = self.leaf_self.get(self.op, 0) + self_ns

    def resume(self, key, gen):
        """Drive a generator; each resumption is timed as an aggregated call."""
        while True:
            try:
                item = self.call(key, LEAF, next, (gen,), {})
            except StopIteration:
                return
            self.add(key + ".yielded", 1)
            yield item

    # -- installation ---------------------------------------------------------------

    def install(self, lib):
        """Wrap every instrumented name of the freshly imported library ``lib``."""
        self.lib = lib
        for key, owner_path, attr, kind, hook in INSTRUMENTS:
            owner = _resolve(lib, owner_path)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrapper(key, kind, original.fget, hook))
                self._replace(owner, attr, original, wrapped)
                continue
            wrapped = self._wrapper(key, kind, original, hook)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapped)
                continue
            for module in lib.modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, original, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def _wrapper(self, key, kind, fn, hook):
        tracer = self
        if kind is GENERATOR:
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return tracer.resume(key, gen) if tracer.on else gen
        else:
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return fn(*args, **kwargs)
                result = tracer.call(key, kind, fn, args, kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
        return wrapper

    # -- results ----------------------------------------------------------------------

    def span_report(self):
        """Self-time sanity over every recorded span and op.

        Returns the number of spans with negative self time and the number
        of ops whose summed self times exceed the op's wall time.
        """
        n = len(self.sp_name)
        if n == 0:
            return {"spans": 0, "negative_self": 0, "ops": 0, "ops_over_wall": 0}
        self_ns = np.frombuffer(self.sp_self, dtype=np.int64)
        ops = np.frombuffer(self.sp_op, dtype=np.int64)
        roots = np.nonzero(np.frombuffer(self.sp_name, dtype=np.int64) == self._name_ids["op"])[0]
        root_ops = ops[roots]
        walls = np.frombuffer(self.sp_end, dtype=np.int64)[roots] - np.frombuffer(self.sp_start, dtype=np.int64)[roots]
        in_op = ops >= 0
        summed = np.bincount(ops[in_op], weights=self_ns[in_op].astype(np.float64), minlength=int(root_ops.max()) + 1)
        leaf = np.array([self.leaf_self.get(int(o), 0) for o in root_ops], dtype=np.float64)
        over = summed[root_ops] + leaf > walls
        return {
            "spans": n,
            "negative_self": int((self_ns < 0).sum()),
            "ops": len(roots),
            "ops_over_wall": int(over.sum()),
        }


def _resolve(lib, path):
    obj = lib
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rref(tr, args, kwargs, result):
    ctx, a = args[0], args[1]
    rows, cols = a.shape
    tr.add("linalg.rref_array.entries", rows * cols)
    if ctx.q == 2 and (rows, cols) == (6, 6):
        tr.capture("rref_6x6_gf2", "linalg", "rref_array", (ctx, np.array(a)), {})


def _vector_array(tr, args, kwargs, result):
    tr.add("linalg.Subspace.vector_array.rows", len(result))


def _arr_elements(tr, args, kwargs, result):
    tr.add("fields.arr_ops.elements", int(np.size(result)))


def _distance(tr, args, kwargs, result):
    a = args[0]
    if a.ctx.q == 2 and a.n == 3:
        tr.capture("distance_f2_n3", "lattice", "distance", args, kwargs)


def _greedy(tr, args, kwargs, result):
    ctx, n, m_max = args[0], args[1], args[2]
    count = tr.lib.lattice.count_multispaces
    tr.add("codes.greedy_code.kept", len(result))
    tr.add("codes.greedy_code.candidates", sum(count(n, m, ctx.q) for m in range(m_max + 1)))
    if (ctx.q, n, m_max, _arg(args, kwargs, 3, "d_min")) == (2, 5, 3, 3):
        tr.capture("greedy_code_f2_5_3_3", "codes", "greedy_code", args, kwargs)


def _gamma(tr, args, kwargs, result):
    if (args[0].q, args[1], args[2]) == (2, 4, 3):
        tr.capture("gamma_graph_f2_4_3", "lattice", "gamma_graph", args, kwargs)


def _ball(tr, args, kwargs, result):
    tr.add("codes.ball.members", len(result))


def _decode(tr, args, kwargs, result):
    tr.add("codes.decode.distances", len(args[0]))


def _trials(tr, args, kwargs, result):
    tr.add("channel.trials", args[1].trials)


def _accept_full_rank(tr, args, kwargs, result):
    tr.add("channel.accepted", 1)


def _accept_rank(tr, args, kwargs, result):
    if _arg(args, kwargs, 3, "r") > 0:
        tr.add("channel.accepted", 2)


def _poly(tr, args, kwargs, result):
    w = args[0]
    tr.add("qpoly.poly_from_multispace.degree_sum", w.ctx.q ** w.rank)
    if (w.ctx.q, w.n, w.dim) == (2, 12, 12):
        tr.capture("poly_build_rank12_gf2_12", "qpoly", "poly_from_multispace", args, kwargs)


def _roots(tr, args, kwargs, result):
    L = args[0]
    if (L.base_q, L.ctx.q, L.q_degree) == (2, 4096, 12):
        tr.capture("roots_rank12_gf2_12", "qpoly", "roots_multiset", args, kwargs)


def _points(tr, args, kwargs, result):
    tr.add("qpoly.eval_domain.points", args[0].ctx.q)


_ARR_OPS = ("add_arr", "neg_arr", "sub_arr", "mul_arr", "inv_arr", "pow_arr", "frobenius_arr")
_SCALAR_OPS = ("add", "neg", "sub", "mul", "inv", "div", "pow", "frobenius")

#: (metric key, owner inside the library namespace, attribute, kind, hook)
INSTRUMENTS = [
    ("fields.field", "fields", "field", SPAN, None),
    *[("fields.arr_ops", "fields.FieldCtx", op, LEAF, _arr_elements) for op in _ARR_OPS],
    *[("fields.scalar_ops", "fields.FieldCtx", op, LEAF, None) for op in _SCALAR_OPS],
    ("linalg.rref_array", "linalg", "rref_array", SPAN, _rref),
    ("linalg.matmul_arrays", "linalg", "matmul_arrays", SPAN, None),
    ("linalg.Subspace.add", "linalg.Subspace", "__add__", SPAN, None),
    ("linalg.Subspace.intersect", "linalg.Subspace", "intersect", SPAN, None),
    ("linalg.Subspace.vector_array", "linalg.Subspace", "vector_array", SPAN, _vector_array),
    ("linalg.enumerate_subspaces", "linalg", "enumerate_subspaces", GENERATOR, None),
    ("lattice.distance", "lattice", "distance", SPAN, _distance),
    ("lattice.mspan", "lattice", "mspan", SPAN, None),
    ("lattice.enumerate_multispaces", "lattice", "enumerate_multispaces", GENERATOR, None),
    ("lattice.covers", "lattice", "covering_neighbors", SPAN, None),
    ("lattice.covers", "lattice", "covered_neighbors", SPAN, None),
    ("lattice.gamma_graph", "lattice", "gamma_graph", SPAN, _gamma),
    ("codes.greedy_code", "codes", "greedy_code", SPAN, _greedy),
    ("codes.exhaustive_optimal_code", "codes", "exhaustive_optimal_code", SPAN, None),
    ("codes.sphere_packing_bound", "codes", "sphere_packing_bound", SPAN, None),
    ("codes.ball", "codes", "ball", SPAN, _ball),
    ("codes.min_distance", "codes.MultispaceCode", "min_distance", SPAN, None),
    ("codes.decode", "codes", "decode", SPAN, _decode),
    ("channel.trial_loop", "channel", "run_trials", SPAN, _trials),
    ("channel.trial_loop", "channel", "end_to_end", SPAN, _trials),
    ("channel.sampling", "channel", "random_full_rank", SPAN, _accept_full_rank),
    ("channel.sampling", "channel", "random_rank", SPAN, _accept_rank),
    ("channel.random_matrix", "channel", "random_matrix", LEAF, None),
    ("channel.apply_transform", "channel", "apply_transform", SPAN, None),
    ("qpoly.poly_from_multispace", "qpoly", "poly_from_multispace", SPAN, _poly),
    ("qpoly.roots_multiset", "qpoly", "roots_multiset", SPAN, _roots),
    ("qpoly.eval_domain", "qpoly.LinearizedPoly", "eval_domain", SPAN, _points),
    ("qpoly.vector_field_iso", "qpoly", "vector_field_iso", SPAN, None),
    ("cli.main", "cli", "main", SPAN, None),
]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _calls(key):
    return lambda st, ct: st[key].calls if key in st else 0


def _self_s(key):
    return lambda st, ct: st[key].self_ns / 1e9 if key in st else 0.0


def _count(key):
    return lambda st, ct: ct.get(key, 0)


def _ratio(num, den):
    return lambda st, ct: num(st, ct) / den(st, ct) if den(st, ct) else 0.0


def _us_per_call(key):
    return lambda st, ct: st[key].incl_ns / st[key].calls / 1e3 if key in st and st[key].calls else 0.0


def _layer(key, *stats):
    """Metric rows for one instrumented key; stats among calls, self_s."""
    out = []
    if "calls" in stats:
        out.append((key + ".calls", "count", "ref", _calls(key)))
    if "self_s" in stats:
        out.append((key + ".self_s", "s", "ref", _self_s(key)))
    return out


#: (metric name, unit, phase it is read from, function of (stats, counters))
LAYER_METRICS = [
    *_layer("linalg.rref_array", "calls", "self_s"),
    ("linalg.rref_array.entries", "count", "ref", _count("linalg.rref_array.entries")),
    ("linalg.rref_array.us_per_call", "us", "ref", _us_per_call("linalg.rref_array")),
    *_layer("linalg.matmul_arrays", "calls", "self_s"),
    *_layer("linalg.Subspace.add", "calls"),
    *_layer("linalg.Subspace.intersect", "calls"),
    ("linalg.enumerate_subspaces.yielded", "count", "ref", _count("linalg.enumerate_subspaces.yielded")),
    *_layer("linalg.enumerate_subspaces", "self_s"),
    ("linalg.Subspace.vector_array.rows", "count", "ref", _count("linalg.Subspace.vector_array.rows")),
    *_layer("linalg.Subspace.vector_array", "self_s"),
    ("fields.field.calls", "count", "setup", _calls("fields.field")),
    ("fields.field.self_s", "s", "setup", _self_s("fields.field")),
    *_layer("fields.arr_ops", "calls", "self_s"),
    ("fields.arr_ops.elements", "count", "ref", _count("fields.arr_ops.elements")),
    *_layer("fields.scalar_ops", "calls", "self_s"),
    *_layer("lattice.distance", "calls", "self_s"),
    *_layer("lattice.mspan", "calls", "self_s"),
    ("lattice.enumerate_multispaces.yielded", "count", "ref", _count("lattice.enumerate_multispaces.yielded")),
    *_layer("lattice.enumerate_multispaces", "self_s"),
    *_layer("lattice.covers", "calls", "self_s"),
    *_layer("lattice.gamma_graph", "self_s"),
    *_layer("codes.greedy_code", "calls", "self_s"),
    ("codes.greedy_code.kept_ratio", "ratio", "ref",
     _ratio(_count("codes.greedy_code.kept"), _count("codes.greedy_code.candidates"))),
    *_layer("codes.exhaustive_optimal_code", "self_s"),
    *_layer("codes.sphere_packing_bound", "self_s"),
    ("codes.ball.members", "count", "ref", _count("codes.ball.members")),
    *_layer("codes.min_distance", "self_s"),
    *_layer("codes.decode", "calls", "self_s"),
    ("codes.decode.distance_per_call", "count", "ref",
     _ratio(_count("codes.decode.distances"), _calls("codes.decode"))),
    ("channel.trials", "count", "ref", _count("channel.trials")),
    *_layer("channel.random_matrix", "calls"),
    ("channel.draw_accept_ratio", "ratio", "ref",
     _ratio(_count("channel.accepted"), _calls("channel.random_matrix"))),
    *_layer("channel.sampling", "self_s"),
    *_layer("channel.apply_transform", "self_s"),
    *_layer("channel.trial_loop", "self_s"),
    *_layer("qpoly.poly_from_multispace", "calls", "self_s"),
    ("qpoly.poly_from_multispace.degree_sum", "count", "ref", _count("qpoly.poly_from_multispace.degree_sum")),
    *_layer("qpoly.roots_multiset", "calls", "self_s"),
    ("qpoly.eval_domain.points", "count", "ref", _count("qpoly.eval_domain.points")),
    *_layer("qpoly.eval_domain", "self_s"),
    ("qpoly.vector_field_iso.self_s", "s", "setup", _self_s("qpoly.vector_field_iso")),
    *_layer("cli.main", "calls", "self_s"),
]

#: ROADMAP baseline cases: bucket -> (metric name, unit, scale from seconds)
BASELINES = {
    "rref_6x6_gf2": ("baseline.rref_6x6_gf2.us_per_call", "us", 1e6),
    "distance_f2_n3": ("baseline.distance_f2_n3.us_per_call", "us", 1e6),
    "greedy_code_f2_5_3_3": ("baseline.greedy_code_f2_5_3_3.s_per_call", "s", 1.0),
    "gamma_graph_f2_4_3": ("baseline.gamma_graph_f2_4_3.s_per_call", "s", 1.0),
    "poly_build_rank12_gf2_12": ("baseline.poly_build_rank12_gf2_12.s_per_call", "s", 1.0),
    "roots_rank12_gf2_12": ("baseline.roots_rank12_gf2_12.s_per_call", "s", 1.0),
}

#: replays per captured call: small cases are captured hundreds of times, large ones once
REPLAYS = {"rref_6x6_gf2": 1, "distance_f2_n3": 1}


def layer_metrics(tracer):
    out = {}
    for name, unit, phase, fn in LAYER_METRICS:
        stats, counters = tracer.phases.get(phase, ({}, {}))
        out[name] = (fn(stats, counters), unit)
    return out


def replay_baselines(lib, captures):
    """Median untraced time per call of the captured ROADMAP baseline calls."""
    out = {}
    for bucket, (name, unit, scale) in BASELINES.items():
        if bucket not in captures:
            out[name] = (0.0, unit)
            continue
        owner, attr, calls = captures[bucket]
        fn = getattr(_resolve(lib, owner), attr)
        times = []
        for args, kwargs in calls:
            for _ in range(REPLAYS.get(bucket, 3)):
                t0 = perf_counter_ns()
                fn(*args, **kwargs)
                times.append(perf_counter_ns() - t0)
        out[name] = (float(np.median(times)) / 1e9 * scale, unit)
    return out
