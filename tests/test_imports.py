"""No module of the package imports a name it never reads, and no private
helper of the package goes unread.

No linter is a dependency of the project, so these tests stand in for the
unused-import and dead-code checks of one: they parse the modules with
``ast``, and list every name an import binds that no expression of its
module loads, and every module-level private name that no module reads.
"""

import ast
from pathlib import Path

import pytest

import oscnav

PACKAGE = sorted(Path(oscnav.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\nx: np.ndarray = pi\n")
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private name (one leading underscore) that a
    module of ``sources`` defines at its top level and no module reads: no
    ``Name`` load, attribute or imported name outside the name's own
    definition."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                elif isinstance(node, ast.alias):
                    reads.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a function that only calls itself is still dead
                reads.discard(stmt.name)
            read |= reads
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_finds_a_dead_helper():
    sources = {
        "a": ("import b as _b\n_LIMIT = 1\n_unused = 2\n_imported = _helper = 3\n"
              "def _loop(n):\n    return _loop(n - 1)\n"
              "def _called():\n    return _b.x + _LIMIT\n_called()\n"
              "def __getattr__(name):\n    return name\n"),
        "b": "from a import _imported\ny = a._helper\n",
    }
    assert dead_helpers(sources) == ["a._loop", "a._unused"]


def test_every_private_helper_is_read():
    assert dead_helpers({path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}) == []
