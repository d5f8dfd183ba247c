"""Every module-level import of the package is read in its module, and
every private function, class and method it defines is read somewhere in
the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "wpml").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that a module-level import binds and the module never
    reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from itertools import chain, repeat\nimport os.path\n\nrepeat(os)\n"
    assert unused_imports(source) == ["chain"]
    assert SOURCES


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private (`_name`, not dunder) module-level functions and
    classes, and methods of module-level classes, that the sources define
    and never read as a name or an attribute, in definition order."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and _private(node.name):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    method.name
                    for method in node.body
                    if isinstance(method, DEFINITIONS) and _private(method.name)
                ]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_no_unread_private_definitions():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert unread_private_definitions(sources) == []


def test_the_check_sees_an_unread_private_definition():
    used = "def _helper():\n    pass\n\nclass _Box:\n    def _peek(self):\n        pass\n"
    unused = (
        "from used import _helper\n\n"
        "def _orphan():\n    _helper()\n\n"
        "class Shelf:\n"
        "    def __init__(self):\n        self._spare = _Box()._peek\n"
        "    def _spare(self):\n        pass\n"
    )
    assert unread_private_definitions([used, unused]) == ["_orphan", "_spare"]
