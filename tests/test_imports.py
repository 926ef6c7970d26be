"""AST scans standing in for a linter: no unused imports, no dead public API.

A module-level or local import counts as used when its bound name is read
anywhere in the module, named in ``__all__`` (a re-export), or imported from
``__future__``.

Every public function, class and method defined in src/ must be referenced
from src/ or perfbench/: by a name, an attribute or a string that is exactly
its name. Its own definition, imports and ``__all__`` do not count, and
neither do the tests: an API kept alive only by its own unit test is dead.
The same holds for every private (``_name``) module-level function and class
in src/, so a helper cannot outlive its last caller.

Every string in src/ shaped like a config key, ``<namespace>.<key>``, must be
a key of ``config.KEYS``, so a key cannot be read beside the table.
"""

import ast
import re
from pathlib import Path

import pytest

from mmfuse.config import KEYS

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p.relative_to(ROOT).as_posix()
    for folder in ("src", "tests")
    for p in (ROOT / folder).rglob("*.py")
)

# Public names nothing in src/ or perfbench/ references, each with its reason.
KEEP = {
    "ModelSpec.reference": "criterion 4 checks the paper's reference-scale shapes from it",
}


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


def public_definitions(source):
    """Qualified names of the module's public functions and classes, and their public methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return names


def private_definitions(source):
    """Names of the module's private module-level functions and classes; dunders are not private."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]


def references(source):
    """Every name read, attribute taken and identifier-like string in the module, but ``__all__``."""
    tree = ast.parse(source)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {id(e) for e in ast.walk(node.value)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def unreferenced(definitions, sources):
    used = set().union(*(references(s) for s in sources))
    return [name for name in definitions if name.rsplit(".", 1)[-1] not in used]


def test_dead_api_scan_finds_what_it_should():
    module = (
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def _private(): pass\n"
        "class Used:\n"
        "    def method(self): pass\n"
        "    def by_string(self): pass\n"
        "    def dead(self): pass\n"
        "    def __len__(self): return 0\n"
        "def called(): pass\n"
        "class _Helper:\n"
        "    def _inner(self): pass\n"
        "def __getattr__(name): return _Helper\n"
    )
    user = "Used().method()\ngetattr(Used, 'by_string')\ncalled()\n"
    defined = public_definitions(module)
    assert defined == [
        "exported", "Used", "Used.method", "Used.by_string", "Used.dead", "called",
    ]
    assert unreferenced(defined, [module, user]) == ["exported", "Used.dead"]
    private = private_definitions(module)
    assert private == ["_private", "_Helper"]
    assert unreferenced(private, [module, user]) == ["_private"]


def test_every_public_definition_is_referenced():
    sources = [
        p.read_text() for folder in ("src", "perfbench") for p in (ROOT / folder).rglob("*.py")
    ]
    defined = [
        name for p in (ROOT / "src").rglob("*.py") for name in public_definitions(p.read_text())
    ]
    assert sorted(unreferenced(defined, sources)) == sorted(KEEP)


def test_every_private_definition_is_referenced():
    sources = [
        p.read_text() for folder in ("src", "perfbench") for p in (ROOT / folder).rglob("*.py")
    ]
    defined = [
        name for p in (ROOT / "src").rglob("*.py") for name in private_definitions(p.read_text())
    ]
    assert unreferenced(defined, sources) == []


KEY_SHAPE = re.compile(r"(?:model|train|synth|dataset|eval|gradcheck)\.\w+")
FILE_SUFFIXES = (".csv", ".json", ".jsonl", ".npy", ".txt", ".mfuse")


def key_literals(source):
    """(line, text) of every string constant shaped like a config key; file names are not."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and KEY_SHAPE.fullmatch(node.value)
        and not node.value.endswith(FILE_SUFFIXES)
    ]


def test_key_scan_finds_what_it_should():
    source = (
        "a = cfg['train.epochs']\n"
        "b = 'model.x' + f'{key}=train.lr'\n"
        "c = out / 'gradcheck.csv'\n"
        "d = 'dataset.min_duration is {0}'\n"
    )
    assert key_literals(source) == [(1, "train.epochs"), (2, "model.x")]


@pytest.mark.parametrize("path", [f for f in FILES if f.startswith("src/")])
def test_every_key_literal_is_in_the_table(path):
    assert [(line, text) for line, text in key_literals((ROOT / path).read_text())
            if text not in KEYS] == []
