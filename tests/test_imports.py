"""Source checks: no package module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import riskalloc

PACKAGE = Path(riskalloc.__file__).resolve().parent
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
