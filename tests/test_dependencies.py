"""numpy is the only runtime dependency that pyproject.toml declares: importing
the package and its CLI loads nothing else outside the standard library,
although the test extras (scipy, hypothesis) are installed alongside."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oscnav

PACKAGE_ROOT = str(Path(oscnav.__file__).resolve().parents[1])

# the modules the import adds, counted in a fresh interpreter, so that the
# interpreter's own startup modules and the test suite's imports do not count
PROBE = """
import json, sys
before = set(sys.modules)
import oscnav, oscnav.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_importing_the_package_loads_only_numpy_and_the_standard_library():
    path = filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, check=True)
    loaded = json.loads(run.stdout)
    assert "oscnav" in loaded and "numpy" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "oscnav"}
    assert [name for name in loaded if name not in allowed] == []
