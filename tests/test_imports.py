"""Each module imports cleanly when it is the first one loaded, every
definition (function, class, method, module constant) is used, and every
raise refuses with a ``HaarError`` or is a listed check for a caller's bug.

``groups`` imports ``packing`` to build its packings, so a module-level import
of ``groups`` from ``packing`` (or from anything ``packing`` imports) would
close a cycle.  The package ``__init__`` always loads in one fixed order, which
can hide such a cycle; here a fresh interpreter registers the bare package
without running ``__init__`` and imports one module first.
"""

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import haar
from conftest import haar_errors

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


# Definitions that no other code in the package reads, each with what keeps
# it, which its reason names first (``ENTRY_CATEGORIES``).  Methods are named
# Class.method.
ENTRY_POINTS = {
    "translate_su2_integrand": "criterion 8; the su2-translated benchmark",
    "invert_su2_integrand": "criterion 8; the su2-translated benchmark",
    "translate_circle_integrand": "criterion 8; the circle-quadrature benchmark",
    "invert_circle_integrand": "criterion 8",
    "packing_size": "criterion 7",
    "packing_size_bracket": "criterion 7",
    "separation_certificate": "criterion 7",
    "sin_enclosure": "criterion 11; the routes reach sin/cos through sincos_pi",
    "cos_enclosure": "criterion 11; the routes reach sin/cos through sincos_pi",
    "Interval.contains": "criterion 11: its enclosure oracle",
    "find_coinner_radius": "documented API: the paper's coinner radius",
    "_Parser.error": "CLI: argparse calls it on every usage error",
    "ModulusOfContinuity.discrete": "benchmark: workloads.py finite integrals",
    "_scalar_sweep": "tracer: the grid.sweep span patches it; the grid tests "
                     "call it as their per-cell interval oracle",
    "BoxRegion.union": "tracer: the regions.op span patches it",
    "FiniteRegion.union": "tracer: the regions.op span patches it",
}
ENTRY_CATEGORIES = re.compile(
    r"(route|CLI|criterion \d+|documented API|benchmark|tracer)\b")


def test_every_entry_point_names_what_keeps_it():
    untagged = [name for name, why in ENTRY_POINTS.items()
                if not ENTRY_CATEGORIES.match(why)]
    assert not untagged, "entry points without a category: " + ", ".join(untagged)


def test_region_oracle_reads_no_private_name():
    # the tests' membership and distance oracle calls no private helper of
    # the region algebra or the packing counts it checks
    checked = {"haar.regions", "haar.packing"}
    tree = ast.parse((Path(__file__).parent / "region_oracle.py").read_text())
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stray += [a.name for a in node.names if a.name in checked]
        elif isinstance(node, ast.ImportFrom):
            stray += [f"{node.module}.{a.name}" for a in node.names
                      if node.module in checked and a.name.startswith("_")
                      or f"{node.module}.{a.name}" in checked]
    assert not stray, "the region oracle imports " + ", ".join(stray)


def _definitions(tree):
    """(path, line) of each top-level def and class, each non-dunder method
    (path (Class, name)) and each module-level constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield (node.name,), node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__"):
                    yield (node.name, item.name), item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and \
                            not sub.id.startswith("__"):
                        yield (sub.id,), node.lineno


def _reads(node, path=()):
    """(name, is an attribute, path of the innermost def or class around it)
    of each Name and Attribute the tree loads."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        path = path + (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, path
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, path
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, path)


def _unused_definitions() -> tuple[set, list]:
    """(every definition's dotted name, those that no code in ``src/haar``
    reads outside their own body).  ``__init__`` re-exports do not count.
    Reads match by name: any ``.name`` counts for every method ``name``, and
    only an attribute read counts for a method."""
    defined, readers = {}, {}
    for path in sorted((SRC / "haar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for owner, line in _definitions(tree):
            defined[(path.stem, owner)] = line
        for name, is_attr, owner in _reads(tree):
            readers.setdefault(name, set()).add((is_attr, path.stem, owner))
    unused = []
    for (mod, owner), line in sorted(defined.items()):
        read = any((is_attr or len(owner) == 1)
                   and (m != mod or reader[:len(owner)] != owner)
                   for is_attr, m, reader in readers.get(owner[-1], ()))
        if not read and ".".join(owner) not in ENTRY_POINTS:
            unused.append(f"{mod}.py:{line} {'.'.join(owner)}")
    return {".".join(owner) for _, owner in defined}, unused


def test_no_dead_definitions():
    names, unused = _unused_definitions()
    assert set(ENTRY_POINTS) <= names, set(ENTRY_POINTS) - names
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_routes_reach_sin_cos_only_through_sincos_pi():
    # one certified sin/cos kernel: the interval forms stay in ``exactreal``
    # for criterion 11 and the package's re-exports, and no route reads them
    interval_forms = {"sin_enclosure", "cos_enclosure"}
    stray = []
    for path in sorted((SRC / "haar").glob("*.py")):
        if path.stem in ("exactreal", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            if names & interval_forms:
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, "interval sin/cos outside exactreal: " + ", ".join(stray)


# Raises that catch a bug in the calling code instead of refusing a request,
# as (module, enclosing definition, exception): every other raise in the
# package raises a HaarError, so the command line maps it to its exit code.
BUG_RAISES = {
    ("exactreal", "Interval.__init__", "ValueError"):
        "an interval whose ends are out of order is built only by a bug",
    ("generic", "_ceil_log2", "ValueError"):
        "its one caller passes a positive Lipschitz constant",
    ("generic", "CoinnerRadiusSearch.__init__", "ValueError"):
        "callers pass radii 0 < a < b",
    ("packing", "packing_size_bracket", "ValueError"):
        "a packing radius is positive by definition",
    ("quadrature", "lift_circle_function", "ValueError"):
        "only the circle builtins, which carry eval_complex and complex_fixed "
        "and no pre-map, are lifted",
    ("cli", "_format_fraction_decimal", "ValueError"):
        "callers round the value onto the decimal grid first",
    ("functions", "builtin_integrand", "KeyError"):
        "a mapping lookup's error; the command line names the choices",
}


def _raises(node, path=()):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        path = path + (node.name,)
    if isinstance(node, ast.Raise):
        yield ".".join(path), node
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, path)


def test_every_raise_is_a_refusal():
    refusals = {cls.__name__ for cls in haar_errors()}
    seen, stray = set(), []
    for path in sorted((SRC / "haar").glob("*.py")):
        for owner, node in _raises(ast.parse(path.read_text())):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = (exc.id if isinstance(exc, ast.Name) else
                    exc.attr if isinstance(exc, ast.Attribute) else None)
            if (path.stem, owner, name) in BUG_RAISES:
                seen.add((path.stem, owner, name))
            elif name not in refusals:
                stray.append(f"{path.name}:{node.lineno} raise {name}")
    assert not stray, "raises outside the HaarError hierarchy: " + ", ".join(stray)
    assert seen == set(BUG_RAISES), set(BUG_RAISES) - seen
