"""Every test module imports in a fresh process within a time bound.

pytest imports each module at collection, outside ``conftest.time_bound``'s
alarm, so work a module does at import (the seeded case lists of
``test_weightring``, ``test_truncation`` and ``test_cli_sweep``) could hang
collection with no test to blame.  Here each import runs alone, and one
that is too slow, or raises, fails under the module's name.  Each takes
about 0.2-0.3 s (2-core Xeon, Python 3.11), most of it starting Python and
importing pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
IMPORT_SECONDS = 20  # the longest a test module may take to import
MODULES = sorted(path.stem for path in TESTS.glob("test_*.py"))


def test_every_test_module_is_listed():
    assert "test_imports" in MODULES and len(MODULES) > 10


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_bounded_time(module):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=TESTS, env=env,
                              capture_output=True, text=True, timeout=IMPORT_SECONDS)
    except subprocess.TimeoutExpired:
        pytest.fail(f"importing {module} took longer than {IMPORT_SECONDS} s")
    assert proc.returncode == 0, proc.stderr[-2000:]
