"""Each module imports cleanly when it is the first one loaded, and every
top-level function and class is used.

``groups`` imports ``packing`` to build its packings, so a module-level import
of ``groups`` from ``packing`` (or from anything ``packing`` imports) would
close a cycle.  The package ``__init__`` always loads in one fixed order, which
can hide such a cycle; here a fresh interpreter registers the bare package
without running ``__init__`` and imports one module first.
"""

import ast
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


# Top-level names that no other code in the package uses, each with the
# acceptance criterion, benchmark or documented entry point that keeps it.
ENTRY_POINTS = {
    "translate_su2_integrand": "criterion 8; the su2-translated benchmark",
    "invert_su2_integrand": "criterion 8; the su2-translated benchmark",
    "translate_circle_integrand": "criterion 8; the circle-quadrature benchmark",
    "invert_circle_integrand": "criterion 8",
    "packing_size": "criterion 7",
    "packing_size_bracket": "criterion 7",
    "separation_certificate": "criterion 7",
    "find_coinner_radius": "the paper's coinner radius, a documented entry point",
    "psi": "the paper's parametrization Psi, a documented entry point",
    "jacobian": "the Jacobian of Psi, a documented entry point",
}


def _unused_definitions() -> tuple[set, list]:
    """(every top-level def/class name, those that no code in ``src/haar``
    reads outside their own body).  ``__init__`` re-exports do not count."""
    defined, readers = {}, {}
    for path in sorted((SRC / "haar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (path.stem, node.name)
                defined[owner] = node.lineno
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None:
                    readers.setdefault(name, set()).add(owner)
    unused = [f"{mod}.py:{line} {name}"
              for (mod, name), line in sorted(defined.items())
              if not readers.get(name, set()) - {(mod, name)}
              and name not in ENTRY_POINTS]
    return {name for _, name in defined}, unused


def test_no_dead_definitions():
    names, unused = _unused_definitions()
    assert set(ENTRY_POINTS) <= names, set(ENTRY_POINTS) - names
    assert not unused, "defined but never used: " + ", ".join(unused)
