"""Each module imports cleanly when it is the first one loaded.

``groups`` imports ``packing`` to build its packings, so a module-level import
of ``groups`` from ``packing`` (or from anything ``packing`` imports) would
close a cycle.  The package ``__init__`` always loads in one fixed order, which
can hide such a cycle; here a fresh interpreter registers the bare package
without running ``__init__`` and imports one module first.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import haar

SRC = Path(haar.__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(haar.__path__))

FIRST_IMPORT = """
import importlib, importlib.util, sys, types
spec = importlib.util.find_spec("haar")
pkg = types.ModuleType("haar")
pkg.__path__ = list(spec.submodule_search_locations)
sys.modules["haar"] = pkg
importlib.import_module("haar." + sys.argv[1])
"""


def test_every_module_is_listed():
    assert {"exactreal", "groups", "packing", "regions", "generic"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, module],
        cwd=SRC, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
