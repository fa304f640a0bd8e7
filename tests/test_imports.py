"""Source checks: no package module imports a name it never uses, and no
private module-level name goes unread by the package."""

import ast
from pathlib import Path

import pytest

import riskalloc

PACKAGE = Path(riskalloc.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports names to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names that source's import statements bind and no other line reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_a_dead_name():
    source = "import math\nfrom numpy import array, ndarray as nd\nx = array(math.pi)\n"
    assert unused_imports(source) == ["nd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree) -> list:
    """The private names (one leading underscore) that a module's top level
    binds by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_privates(sources: dict) -> list:
    """module:name for each private module-level name of sources (module
    name -> source) that no module reads, as a bare name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}:{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name not in read]


def test_unread_privates_finds_a_dead_definition():
    sources = {
        "a": "_K = 2\n_X, _Y = 1, 2\ndef _f():\n    return _K\nclass _C:\n    pass\n__all__ = []\n",
        "b": "from . import a\nprint(a._f(), _Y)\n",
    }
    assert unread_privates(sources) == ["a:_X", "a:_C"]


def test_package_reads_every_private_module_level_name():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_privates(sources) == []
