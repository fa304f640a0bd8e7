"""Source checks: no package module imports a name it never uses, no
private module-level name goes unread by the package, only the model spec
and run config readers use the JSON field readers, and the README lists
the model spec's kinds as the kind tables hold them."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import riskalloc
from riskalloc.models import COPULA_KINDS, MARGINAL_KINDS

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


JSON_READERS = ("json_count", "json_field", "json_numbers")


def json_reader_uses(source: str) -> list:
    """The JSON readers that source imports or reads as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return sorted(used & set(JSON_READERS))


def test_json_reader_uses_finds_an_import_and_an_attribute():
    source = "from .models import json_field, load_model\nfrom . import models\nmodels.json_count(1)\n"
    assert json_reader_uses(source) == ["json_count", "json_field"]


def test_only_the_model_spec_and_run_config_readers_use_the_json_readers():
    # models.py defines them and reads the model spec; harness.py reads the
    # run config.  Every other module holds its math and records only.
    users = {p.name: json_reader_uses(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: used for name, used in users.items() if used} == {"harness.py": list(JSON_READERS)}


def readme_kinds(text: str) -> tuple:
    """(marginal kinds, copula kinds) of the README sentence "Marginal kinds:
    ... Copula kinds: ...", each as kind -> its parameter names.  A kind is
    `name`; kinds joined by " / " share the parameter list that follows."""
    found = re.search(r"Marginal kinds: (.*?)Copula kinds: (.*?)\n\n", text, re.S)
    assert found, "the README has no 'Marginal kinds: ... Copula kinds: ...' paragraph"
    tables = []
    for part in found.groups():
        kinds = {}
        for names, params in re.findall(r"((?:`\w+`(?:\s*/\s*)?)+)\s*(?:\(([^)]*)\))?", part):
            for kind in re.findall(r"`(\w+)`", names):
                kinds[kind] = tuple(p.strip() for p in params.split(",")) if params else ()
        tables.append(kinds)
    return tuple(tables)


def test_readme_kinds_reads_the_sentence():
    text = "Marginal kinds: `a` (x, y), `b`\n(z). Copula kinds: `c`,\n`d` / `e` (t).\n\nNext."
    assert readme_kinds(text) == ({"a": ("x", "y"), "b": ("z",)}, {"c": (), "d": ("t",), "e": ("t",)})


def test_readme_lists_the_kind_tables():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    marginals, copulas = readme_kinds(readme.read_text(encoding="utf-8"))
    assert marginals == {k: tuple(inspect.signature(c).parameters) for k, c in MARGINAL_KINDS.items()}
    assert copulas == {k: names for k, (_, names) in COPULA_KINDS.items()}
