"""Gates on src/tilesim's module-level imports: each one is referenced,
and each absolute one names a standard-library module, since the runtime
has no dependencies; on pyproject.toml, which declares none and whose
scripts each import and are callable; on
object.__setattr__, which no module uses to hang state on an object; and
on its definitions, each of which src, tests or perfbench references."""

import ast
import importlib
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tilesim"


def unused_imports(source):
    """Names bound by module-level imports that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_gate_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path"
              "\nfrom re import compile as c, escape\nc(os.sep)\n")
    assert unused_imports(source) == ["escape"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source):
    """Top-level modules of absolute module-level imports that are not in
    the standard library."""
    tree = ast.parse(source)
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_gate_finds_a_non_stdlib_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom yaml import safe_load\n"
              "from .graphs import skey\nfrom collections import deque\n")
    assert non_stdlib_imports(source) == ["numpy", "yaml"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text()) == []


def test_project_is_tilesim_with_no_dependencies():
    # Read as text rather than with tomllib, which Python 3.10 lacks.
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert 'name = "tilesim"' in project.splitlines()
    assert "dependencies = []" in project.splitlines()


def script_targets(text):
    """The "module:function" targets of pyproject.toml's [project.scripts]
    table, read as text like the test above."""
    if "\n[project.scripts]\n" not in text:
        return []
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return [line.split("=", 1)[1].strip().strip('"')
            for line in table.splitlines() if "=" in line]


def broken_scripts(targets):
    """The targets whose module does not import or whose function is
    missing or not callable; an installed command would die on each."""
    broken = []
    for target in targets:
        module, _, name = target.partition(":")
        try:
            ok = callable(getattr(importlib.import_module(module), name, None))
        except ImportError:
            ok = False
        if not ok:
            broken.append(target)
    return broken


def test_gate_finds_a_broken_script():
    text = ('[project]\nname = "x"\n\n[project.scripts]\n'
            'ok = "json:dumps"\ngone = "tilesim.nothing:main"\n'
            'value = "sys:version"\n\n[tool.other]\nx = "y:z"\n')
    targets = script_targets(text)
    assert targets == ["json:dumps", "tilesim.nothing:main", "sys:version"]
    assert broken_scripts(targets) == ["tilesim.nothing:main", "sys:version"]
    assert script_targets('[project]\nname = "x"\n') == []


def test_project_scripts_import_and_are_callable():
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    assert broken_scripts(script_targets(text)) == []


def setattr_calls(source):
    """Line numbers of object.__setattr__ calls."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"]


def test_gate_finds_an_object_setattr_call():
    source = ("class P:\n    def __hash__(self):\n"
              "        object.__setattr__(self, '_h', 1)\n"
              "        setattr(self, 'x', 2)\n"
              "        return object.__setattr__\n")
    assert setattr_calls(source) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_sets_no_attributes_through_object(path):
    assert setattr_calls(path.read_text()) == []


def definitions(source):
    """Module-level defs and classes, and the methods and properties of
    those classes as Class.name, leaving out dunder methods, which Python
    calls by protocol."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += ["%s.%s" % (node.name, m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__")
                             and m.name.endswith("__"))]
    return out


def referenced_names(sources):
    """Every name a Name node reads, an attribute access names or an
    import brings in, across the sources."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced(source, sources):
    """The definitions of source whose names no source references."""
    names = referenced_names(sources)
    return [d for d in definitions(source)
            if d.rsplit(".", 1)[-1] not in names]


def test_gate_finds_an_unreferenced_definition():
    source = ("class P:\n    def __init__(self):\n        self.x = f()\n"
              "    def used(self):\n        pass\n"
              "    @property\n    def unused(self):\n        pass\n"
              "def f():\n    pass\ndef g():\n    pass\n"
              "class Q:\n    pass\n")
    caller = "from m import Q\nP().used()\n"
    assert unreferenced(source, [source, caller]) == ["P.unused", "g"]


REPO = SRC.parent.parent
CALLER_FILES = sorted(p for d in (SRC, REPO / "tests", REPO / "perfbench")
                      for p in d.glob("*.py"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_defines_nothing_unreferenced(path):
    sources = [p.read_text() for p in CALLER_FILES]
    assert unreferenced(path.read_text(), sources) == []
