"""AST scans of the repository's Python files.

Every imported name is used; package ``__init__.py`` files are exempt,
since their imports are the public re-exports.  The library under ``src``
holds no ``assert`` statement: ``python -O`` strips them, so its runtime
checks raise explicitly, and none raises ``AssertionError``, which is no
``MultispaceError`` and would end the CLI in a traceback, nor a bare
``ValueError``, which names no toolkit error.  Only ``fields.py`` reads FieldCtx's private
arithmetic tables, so one module decides how to compute in GF(q).  Only the
reader rule ``fields.reading`` catches ``KeyError``, so every JSON document
is read by one rule.  Only ``channel._trial_generators`` names
``SeedSequence`` or calls a ``spawn`` method, so every trial generator is
seeded on one path.  Only the public entry points named in
``CHECKING_ENTRIES`` call the input checks ``_as_array`` and ``_rows_array``,
a checking constructor or a checking method, so input is checked once at the
boundary and every value the library built takes a trusted path.  In
``channel.py`` only ``_Draws.__init__`` and ``random_matrix`` name the
generator methods ``integers``, ``permutation`` and ``random_raw``, so no
trial generator is read beside the stream that reads it ahead, and no
sampler moves a generator but by its own draws.  In ``channel.py`` only
``_trial_blocks`` and ``_check_shape`` call ``_check_budget``, so a run's
channel matrices are refused once, before the first block.  Only the JSON
writer ``cli._json`` may call ``dumps`` with an indent, so every indented
document is written by one writer.  In ``channel.py``, ``_channel_block``
reads neither ``.mode`` nor ``.random_generator``, and a mode's name is a
string only in the stage table ``_STAGES``, so a mode is its stages and no
branch on a mode's name comes back.  Every function, method and class of
``src`` whose name has one leading underscore is read somewhere in ``src``
outside its own definition, so a retired path leaves no private helper behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for top in ("src", "tests", "bench", "demos")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = (
        "import os\nimport numpy as np\nfrom a.b import c, d as e\n"
        "from x import Y, Z\nfrom __future__ import annotations\n"
        "def f(v: Y) -> None:\n    return np.zeros(c)\n"
    )
    assert unused_imports(source) == ["Z (line 4)", "e (line 3)", "os (line 1)"]


def test_no_unused_imports():
    assert len(FILES) > 20
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}


def assert_lines(source: str) -> list[int]:
    """The lines of a module's assert statements."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_scan_finds_asserts():
    source = "def f(x):\n    assert x, 'no'\n    if x:\n        raise ValueError\n    assert_x = 1\n    assert (x)\n"
    assert assert_lines(source) == [2, 6]


def test_no_asserts_in_the_library():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): assert_lines(path.read_text()) for path in library}
    assert {path: lines for path, lines in found.items() if lines} == {}


def named_raises(source: str, name: str) -> list[int]:
    """The lines of a module's raise statements of the exception called name, called or bare."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and isinstance(exc := node.exc.func if isinstance(node.exc, ast.Call) else node.exc, ast.Name)
        and exc.id == name
    )


def test_scan_finds_assertion_raises():
    source = (
        "def f(x):\n    if x:\n        raise AssertionError('no')\n    if not x:\n        raise AssertionError\n"
        "    raise ValueError('AssertionError')\n    raise\n"
    )
    assert named_raises(source, "AssertionError") == [3, 5]


def test_no_assertion_raises_in_the_library():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): named_raises(path.read_text(), "AssertionError") for path in library}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_scan_finds_value_error_raises():
    source = (
        "def f(x):\n    if x:\n        raise ValueError('no')\n    if not x:\n        raise ValueError\n"
        "    raise FormatError('ValueError')\n    raise ConfigInvalid(ValueError)\n    raise\n"
    )
    assert named_raises(source, "ValueError") == [3, 5]


def test_no_value_error_raises_in_the_library():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): named_raises(path.read_text(), "ValueError") for path in library}
    assert {path: lines for path, lines in found.items() if lines} == {}


#: FieldCtx's private arithmetic tables, with the q x q op tables, their gather and the
#: rules they are built by; other modules go through its methods.
FIELD_TABLES = {
    "_exp", "_log", "_inv", "_exp_np", "_log_np", "_inv_np", "_zech", "_zech_np", "_log_neg_one",
    "_tables", "_gather", "_flat_tables", "_add_rule", "_neg_rule", "_sub_rule", "_mul_rule",
}


def field_table_reads(source: str) -> list[str]:
    """The FieldCtx table attributes a module reads, with their lines."""
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES
    )


def test_scan_finds_field_table_reads():
    source = (
        "def f(ctx):\n    exp, log = ctx._exp, ctx._log\n    return ctx.inv(1), ctx._inv_np[2], ctx._expo\n"
        "def g(ctx, a):\n    return ctx._tables[2][a], ctx._mul_rule(a, a), ctx.op_tables()\n"
    )
    assert field_table_reads(source) == [
        "_exp (line 2)", "_inv_np (line 3)", "_log (line 2)", "_mul_rule (line 5)", "_tables (line 5)"]


def test_only_fields_reads_the_field_tables():
    library = sorted(path for path in (ROOT / "src").rglob("*.py") if path.name != "fields.py")
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): field_table_reads(path.read_text()) for path in library}
    assert {path: reads for path, reads in found.items() if reads} == {}



def key_error_handlers(source: str) -> list[str]:
    """The except handlers of a module that name KeyError, as "function (line N)", in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(getattr(t, "id", getattr(t, "attr", None)) == "KeyError" for t in types):
                    found.append(f"{where} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_key_error_handlers():
    source = (
        "try:\n    x = {}[1]\nexcept KeyError:\n    pass\n"
        "def f(d):\n    try:\n        return d['a']\n    except (TypeError, KeyError) as exc:\n"
        "        raise ValueError('KeyError') from exc\n    except ValueError:\n        pass\n"
        "    def g():\n        try:\n            pass\n        except builtins.KeyError:\n            pass\n"
        "        except:\n            pass\n    return g\n"
    )
    assert key_error_handlers(source) == ["<module> (line 3)", "f (line 8)", "g (line 15)"]


def test_only_the_reader_rule_catches_key_errors():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): key_error_handlers(path.read_text()) for path in library}
    where = {path: [h.split(" (")[0] for h in handlers] for path, handlers in found.items() if handlers}
    assert where == {"src/multispace/fields.py": ["reading"]}


def seeding_sites(source: str) -> list[str]:
    """Where a module names SeedSequence (a name, an attribute or an import) or
    calls a method spawn, as "function (line N)", in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            named = (
                (isinstance(child, ast.Name) and child.id == "SeedSequence")
                or (isinstance(child, ast.Attribute) and child.attr == "SeedSequence")
                or (isinstance(child, ast.alias) and child.name.split(".")[-1] == "SeedSequence")
                or (isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "spawn")
            )
            if named:
                found.append(f"{where} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_seeding_sites():
    source = (
        "import numpy as np\nfrom numpy.random import SeedSequence as S\n"
        "def f(seed):\n    return np.random.SeedSequence(seed).spawn(3)\n"
        "def g(ss):\n    return [ss.spawn(1), 'SeedSequence', spawn(2), ss.spawn_key]\n"
        "root = S(0)\n"
    )
    assert seeding_sites(source) == ["<module> (line 2)", "f (line 4)", "f (line 4)", "g (line 6)"]


def test_only_the_seeding_helper_seeds_generators():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): seeding_sites(path.read_text()) for path in library}
    where = {path: sorted({s.split(" (")[0] for s in sites}) for path, sites in found.items() if sites}
    assert where == {"src/multispace/channel.py": ["_trial_generators"]}


#: The input checks, and the checking entry points and constructors that run
#: them: a call of any of these names is a check of raw input.
CHECKS = {
    "_as_array", "_rows_array", "from_array", "from_basis", "contains_array", "to_field_array",
    "to_vector_array", "eval_array", "VectorMultiset", "Multispace", "LinearizedPoly", "MultispaceCode",
}

#: The public entry points that make such calls, by module; every other
#: construction in the library passes values it built through a trusted path.
CHECKING_ENTRIES = {
    "src/multispace/channel.py": ["apply_transform"],
    "src/multispace/lattice.py": ["VectorMultiset.__init__"],
    "src/multispace/linalg.py": ["Subspace.contains_array", "Subspace.from_array", "Subspace.from_basis",
                                 "Subspace.from_dict", "Subspace.zero", "_rows_array"],
    "src/multispace/qpoly.py": ["LinearizedPoly.__init__", "LinearizedPoly.eval", "LinearizedPoly.eval_array",
                                "VectorFieldIso.to_field_array", "VectorFieldIso.to_vector_array"],
}


def checking_calls(source: str, names=CHECKS) -> list[str]:
    """Where a module calls one of names, as "Class.method (line N)" or
    "function (line N)" ("<module>" outside any function), in source order."""
    found = []

    def visit(node, where, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) in names:
                found.append(f"{where} (line {child.lineno})")
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                visit(child, where, cls)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_checking_calls():
    source = (
        "x = _as_array(ctx, [1])\n"
        "class A:\n    def f(self, rows):\n        return linalg._rows_array(self.ctx, 2, rows)\n"
        "    def g(self):\n        def inner():\n            return Multispace(u, 1), Multispace._of(u, 1)\n"
        "        return inner\n"
        "def h(rows):\n    return _as_array_like(rows), '_as_array', _rows_array, cls(rows)\n"
        "def k(iso, rows):\n    return [iso.to_field_array(r) for r in rows]\n"
    )
    assert checking_calls(source) == ["<module> (line 1)", "A.f (line 4)", "inner (line 7)", "k (line 12)"]


def test_only_the_public_entry_points_check_raw_input():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): checking_calls(path.read_text()) for path in library}
    where = {path: sorted({c.split(" (")[0] for c in calls}) for path, calls in found.items() if calls}
    assert where == CHECKING_ENTRIES


def test_scan_finds_budget_checks():
    source = (
        "def f(n):\n    _check_budget(n ** 2, 'entries')\n"
        "class A:\n    def g(self, n):\n        return linalg._check_budget(n, 'x'), _check_budgets(n)\n"
        "_check_budget(1, 'module')\nchecker = _check_budget\n"
    )
    assert checking_calls(source, {"_check_budget"}) == ["f (line 2)", "A.g (line 5)", "<module> (line 6)"]


def test_only_the_trial_blocks_and_the_shape_check_budget_channel_matrices():
    # one refusal per run, from the stack's largest rank before the first block, and one per sampler call
    found = checking_calls((ROOT / "src" / "multispace" / "channel.py").read_text(), {"_check_budget"})
    assert sorted({site.split(" (")[0] for site in found}) == ["_check_shape", "_trial_blocks"]


#: The Generator and BitGenerator methods that draw from a trial's stream.
STREAM_READS = {"integers", "permutation", "random_raw"}


def stream_reads(source: str) -> list[str]:
    """Where a module names a method of STREAM_READS (called or not), as
    "Class.method (line N)" or "function (line N)", in source order."""
    found = []

    def visit(node, where, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in STREAM_READS:
                found.append(f"{where} (line {child.lineno})")
            if isinstance(child, ast.ClassDef):
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                visit(child, where, cls)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_stream_reads():
    source = (
        "def pick(rng):\n    return rng.integers(3), 'rng.permutation(3)'\n"
        "class Reader:\n    def __init__(self, gens):\n        self.raw = [g.bit_generator.random_raw for g in gens]\n"
        "    def perm(self, rng):\n        return sorted(rng.permutation(4)), integers(2)\n"
        "first = rng.integers\n"
    )
    assert stream_reads(source) == ["pick (line 2)", "Reader.__init__ (line 5)", "Reader.perm (line 7)",
                                    "<module> (line 8)"]


def test_only_the_draw_stream_reads_trial_generators():
    # a generator read beside a stream that already read ahead from it would
    # silently shift every later draw of its trial
    found = stream_reads((ROOT / "src" / "multispace" / "channel.py").read_text())
    assert sorted({site.split(" (")[0] for site in found}) == ["_Draws.__init__", "random_matrix"]


def indented_json_dumps(source: str) -> list[str]:
    """Where a module calls dumps (json.dumps or an imported dumps) with an
    indent keyword, as "function (line N)" ("<module>" outside any function)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", getattr(child.func, "attr", None)) == "dumps"
                and any(keyword.arg == "indent" for keyword in child.keywords)
            ):
                found.append(f"{where} (line {child.lineno})")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_indented_json_dumps():
    source = (
        "import json\nfrom json import dumps\ntext = json.dumps({}, indent=2)\n"
        "def f(doc):\n    return json.dumps(doc), dumps(doc, indent=None), json.loads('indent')\n"
        "def g(doc, **kw):\n    return json.dumps(doc, **kw), encoder.dumps(doc, sort_keys=True, indent=4)\n"
    )
    assert indented_json_dumps(source) == ["<module> (line 3)", "f (line 5)", "g (line 7)"]


def test_only_the_json_writer_indents_json():
    # cli._json writes the bytes of json.dumps(doc, indent=2) for _emit and
    # search --output alike; an indented dumps elsewhere is a second path to them
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    found = {str(path.relative_to(ROOT)): indented_json_dumps(path.read_text()) for path in library}
    where = {path: sorted({s.split(" (")[0] for s in sites}) for path, sites in found.items() if sites}
    assert where in ({}, {"src/multispace/cli.py": ["_json"]})


#: The channel's mode names, written out apart from channel.MODES.
MODE_NAMES = {"full-rank", "deletion", "rank-deficient", "compound"}


def mode_branches(source: str) -> list[str]:
    """Where _channel_block reads an attribute mode or random_generator, and where a
    mode name is a string outside the assignment to _STAGES, as ".attr (line N)" or
    "'name' (line N)", in source order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_channel_block":
            found += [(child.lineno, child.col_offset, f".{child.attr}") for child in ast.walk(node)
                      if isinstance(child, ast.Attribute) and child.attr in ("mode", "random_generator")]
        if not (isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_STAGES"]):
            found += [(child.lineno, child.col_offset, repr(child.value)) for child in ast.walk(node)
                      if isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value in MODE_NAMES]
    return [f"{what} (line {line})" for line, _, what in sorted(found)]


def test_scan_finds_mode_branches():
    source = (
        "_STAGES = {'deletion': (1,), 'compound': (2,)}\n"
        "def _channel_block(cfg, draws):\n    if cfg.mode == 'deletion' or cfg.random_generator:\n"
        "        return draws.mode\n    return cfg.s, 'deletions', f'{cfg.s} compound'\n"
        "def validate(self):\n    return self.mode != 'full-rank'\n"
        "_OTHER = {'rank-deficient': 1}\n"
    )
    assert mode_branches(source) == [
        ".mode (line 3)", "'deletion' (line 3)", ".random_generator (line 3)", ".mode (line 4)",
        "'full-rank' (line 7)", "'rank-deficient' (line 8)",
    ]


def test_only_the_stage_table_names_the_channel_modes():
    # a mode is the tuple of its stages: _channel_block runs them in one loop, with no branch on the mode
    from multispace.channel import MODES

    assert set(MODES) == MODE_NAMES
    assert mode_branches((ROOT / "src" / "multispace" / "channel.py").read_text()) == []


def unread_privates(sources: dict[str, str]) -> list[str]:
    """The functions, methods and classes named _x (one leading underscore) that no
    name or attribute of any source reads outside their own definition, as
    "path: name (line N)"."""
    defs, reads = [], []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((path, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                reads.append((path, node.lineno, getattr(node, "id", None) or getattr(node, "attr", None)))
    return [f"{path}: {node.name} (line {node.lineno})" for path, node in defs
            if not any(name == node.name and (where != path or not node.lineno <= line <= node.end_lineno)
                       for where, line, name in reads)]


def test_scan_finds_unread_privates():
    sources = {
        "a.py": "def _used():\n    return 1\ndef _self(n):\n    return _self(n - 1)\n"
                "class _Kept:\n    def _read(self):\n        return 2\n    def _unread(self):\n        return '_unread'\n"
                "def __dunder__():\n    pass\nfrom b import _imported\n",
        "b.py": "from a import _used\nx = _used(), _Kept()._read()\ndef _imported():\n    pass\n",
    }
    assert unread_privates(sources) == ["a.py: _self (line 3)", "a.py: _unread (line 8)", "b.py: _imported (line 3)"]


def test_every_private_helper_of_the_library_is_read():
    library = sorted((ROOT / "src").rglob("*.py"))
    assert len(library) > 5
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in library}
    assert unread_privates(sources) == []
