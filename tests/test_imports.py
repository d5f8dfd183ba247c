"""Every module-level import of the package is read in its module, and a
function-local import of a package module stands only where a
module-level one would close an import cycle; every private function,
class, method and module-level assigned name it defines is read somewhere
in the package, and every public module-level function, class and
assigned name, and every public method of a module-level class, it
defines is read somewhere in the package, its tests or its benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "wpml").glob("*.py"))
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


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


def _package_module(node) -> str | None:
    """The package module that a `from .module import ...` node reads."""
    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
        return node.module.split(".")[0]
    return None


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = {start}, [start]
    while todo:
        for module in graph.get(todo.pop(), ()):
            if module not in seen:
                seen.add(module)
                todo.append(module)
    return seen


def acyclic_local_imports(sources: dict[str, str]) -> list[str]:
    """A "module -> imported" entry for each function-local import of a
    package module whose module-level form would close no import cycle:
    the imported module does not reach the importing one through
    module-level imports.  In module order, then source order."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    graph = {
        name: {module for node in tree.body if (module := _package_module(node))}
        for name, tree in trees.items()
    }
    out = []
    for name, tree in trees.items():
        local = {
            (node.lineno, module)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if (module := _package_module(node))
        }
        out += [
            f"{name} -> {module}"
            for _, module in sorted(local)
            if name not in _reachable(graph, module)
        ]
    return out


def test_function_local_imports_close_a_cycle():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert acyclic_local_imports(sources) == []


def test_the_check_sees_a_local_import_that_closes_no_cycle():
    sources = {
        "a": "from .b import x\n",
        "b": "from .c import y\n\ndef f():\n    from .a import z\n",
        "c": "def g():\n    from .a import w\n\n    def h():\n        from .d import v\n",
        "d": "import os\n\ndef k():\n    from .b import u\n    import json\n",
    }
    # a -> b -> c, so c's import of a and b's of a close cycles; d's do not
    assert acyclic_local_imports(sources) == ["c -> d", "d -> b"]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level_names(tree) -> list[str]:
    """The names that the module's top-level statements define: its
    functions and classes, and the names its assignments bind."""
    out = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            ]
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The private (`_name`, not dunder) module-level functions, classes
    and assigned names, and methods of module-level classes, that the
    sources define and never read as a name or an attribute, in
    definition order."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        defined += [name for name in _module_level_names(tree) if _private(name)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [
                    method.name
                    for method in node.body
                    if isinstance(method, DEFINITIONS) and _private(method.name)
                ]
    read = _read(trees)
    return [name for name in defined if name not in read]


def _read(trees) -> set[str]:
    """The names that the trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


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


def unread_public_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """The public module-level functions, classes and assigned names, and
    public methods of module-level classes, that the sources define and
    that neither they nor the readers read as a name or an attribute (an
    import alone is not a read), in definition order."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        defined += [n for n in _module_level_names(tree) if not n.startswith("_")]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [
                    method.name
                    for method in node.body
                    if isinstance(method, DEFINITIONS) and not method.name.startswith("_")
                ]
    read = _read(trees + [ast.parse(reader) for reader in readers])
    return [name for name in defined if name not in read]


def test_no_unread_public_definitions():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unread_public_definitions(sources, readers) == []


def test_the_check_sees_an_unread_public_definition():
    package = (
        "def helper():\n    pass\n\n"
        "def orphan():\n    return helper\n\n"
        "class Box:\n    def peek(self):\n        pass\n"
    )
    reader = "from package import Box, orphan\n\nBox().peek()\n"
    assert unread_public_definitions([package], [reader]) == ["orphan"]
    assert unread_public_definitions([package], ["Box()\n"]) == ["orphan", "peek"]
    assert unread_public_definitions([package], []) == ["orphan", "Box", "peek"]
    assert READERS


def test_the_checks_see_an_unread_assignment():
    # tuple and annotated targets bind names; a function's locals and a
    # subscript store do not
    package = (
        "LIMIT = 3\n"
        "_FLOOR: int = 2\n"
        "_LOW, HIGH = 0, 9\n"
        "_TABLE = {}\n"
        "_TABLE[LIMIT] = 1\n\n"
        "def clamp(x):\n    low = _FLOOR\n    return max(x, low)\n"
    )
    assert unread_private_definitions([package]) == ["_LOW"]
    assert unread_public_definitions([package], ["clamp(1)\n"]) == ["HIGH"]
    assert unread_public_definitions([package], []) == ["HIGH", "clamp"]
