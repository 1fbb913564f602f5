"""One owner per input check: only ``protocol.py`` decides what an input
number or count is, and how pulses split into chunks.

``protocol._is_real`` and ``protocol._is_int`` are the package's tests of an
input number and count, and the config classes check their own fields with
them. ``protocol._chunk_size`` is the one split of M pulses into L chunks,
which ``collapse`` and the compression cost share. This test parses each
module with ``ast`` and fails on a second owner: a call
``isinstance(..., bool)`` or a ``raise IndivisibleChunking`` outside
``protocol.py``, a ``math`` or ``typing`` import in ``cli.py``, or one of
the CLI's retired checks.
"""

import ast
from pathlib import Path

import oscnav

PACKAGE = Path(oscnav.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
RETIRED_CLI_CHECKS = {"_is_number", "_fits", "_type_hints"}


def bool_checks(source: str) -> list[int]:
    """Lines of ``source`` that call ``isinstance`` with ``bool`` among its types."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                lines.append(node.lineno)
    return lines


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that ``source`` raises, as ``raise X`` or ``raise X(...)``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
    return found


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def defined_functions(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_the_checks_find_a_second_owner():
    source = ("import math\nfrom typing import get_type_hints\nimport numpy as np\n"
              "def _fits(v):\n    return isinstance(v, (int, bool))\n"
              "ok = isinstance(1, int) and isinstance(2, np.ndarray)\n"
              "bad = not isinstance(True, bool)\n")
    assert bool_checks(source) == [5, 7]
    assert imported_modules(source) == {"math", "typing", "numpy"}
    assert defined_functions(source) & RETIRED_CLI_CHECKS == {"_fits"}
    source = ("def split(m, k):\n    if m % k:\n        raise IndivisibleChunking('no')\n"
              "    try:\n        pass\n    except KeyError:\n        raise\n"
              "    raise ValueError\n")
    assert raised_names(source) == {"IndivisibleChunking", "ValueError"}


def test_only_protocol_splits_into_chunks():
    owners = [path.name for path in MODULES
              if "IndivisibleChunking" in raised_names(path.read_text(encoding="utf-8"))]
    assert owners == ["protocol.py"], owners


def test_only_protocol_checks_for_a_bool():
    owners = {path.name: lines for path in MODULES
              if (lines := bool_checks(path.read_text(encoding="utf-8")))}
    assert list(owners) == ["protocol.py"], owners


def test_cli_holds_no_number_check_of_its_own():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert imported_modules(source) & {"math", "typing"} == set()
    assert defined_functions(source) & RETIRED_CLI_CHECKS == set()
