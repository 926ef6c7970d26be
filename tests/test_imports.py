"""No unused imports in src/ or tests/: an AST scan standing in for a linter.

A module-level or local import counts as used when its bound name is read
anywhere in the module, named in ``__all__`` (a re-export), or imported from
``__future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for folder in ("src", "tests")
    for p in (ROOT / folder).rglob("*.py")
)


def unused_imports(source):
    """(line, name) of every import whose bound name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        if is_all and isinstance(node.value, (ast.List, ast.Tuple)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from pathlib import Path, PurePath\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    import json\n"
        "    return np.zeros(Path('.').parts)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "os"), (5, "PurePath"), (9, "json")]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []
