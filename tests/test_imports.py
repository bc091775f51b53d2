"""AST scans of the repository's Python files.

Every imported name is used; package ``__init__.py`` files are exempt,
since their imports are the public re-exports.  The library under ``src``
holds no ``assert`` statement: ``python -O`` strips them, so its runtime
checks raise explicitly.
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
