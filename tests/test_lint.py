"""Source checks that need no import of the package, and an import guard
that runs in a fresh interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "spaceform_areas").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so a runtime check written as one
    # silently disappears; raise an exception instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


# The only packages available are the standard library and the installed
# numerical stack; a compiled-kernel or other third-party dependency would
# make the package unusable where it is not installed.
ALLOWED_PACKAGES = {"numpy", "scipy", "mpmath", "spaceform_areas"}


def _foreign_imports(source: str) -> list:
    """Top-level names of the modules imported by source that are neither
    standard library nor in ALLOWED_PACKAGES (relative imports are the
    package's own)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return sorted({top for top in tops
                   if top not in sys.stdlib_module_names
                   and top not in ALLOWED_PACKAGES})


def test_foreign_import_check_flags_third_party():
    source = ("import numba\nfrom cython.parallel import prange\n"
              "import numpy.linalg, math\nfrom scipy import special\n"
              "from . import specfun\nfrom __future__ import annotations\n"
              "def f():\n    import pandas as pd\n")
    assert _foreign_imports(source) == ["cython", "numba", "pandas"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numerical_stack(path):
    foreign = _foreign_imports(path.read_text(encoding="utf-8"))
    assert foreign == [], f"{path.name}: imports {foreign}"


# A run is configured by its experiment parameters and command-line flags
# only, so that its manifest records everything that shaped it; a setting
# read from the environment would not appear there.
ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def _environment_access(source: str) -> list:
    """(line, name) of every use of os.environ, os.getenv or os.putenv in
    source, through `os`, an alias of it, or a `from os import`."""
    tree = ast.parse(source)
    os_names = {"os"} | {alias.asname for node in ast.walk(tree)
                         if isinstance(node, ast.Import)
                         for alias in node.names
                         if alias.name == "os" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}")
                      for alias in node.names
                      if alias.name in ENVIRONMENT_NAMES]
        elif (isinstance(node, ast.Attribute)
              and node.attr in ENVIRONMENT_NAMES
              and isinstance(node.value, ast.Name)
              and node.value.id in os_names):
            found.append((node.lineno, f"os.{node.attr}"))
    return sorted(found)


def test_environment_check_flags_os_environment():
    source = ("import os\nimport os as system\n"
              "from os import getenv, path\n"
              "x = os.environ.get('HOME')\ny = system.putenv\n"
              "z = os.path.join('a', 'b')\nenviron = {}\n"
              "def f():\n    return os.getenv('X')\n")
    assert _environment_access(source) == [
        (3, "os.getenv"), (4, "os.environ"), (5, "os.putenv"),
        (9, "os.getenv")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_access(path):
    found = _environment_access(path.read_text(encoding="utf-8"))
    assert found == [], f"{path.name}: reads the environment at {found}"


def _unused_imports(source: str) -> list:
    """(line, name) of every name bound by a module-level import of source
    that is never read as a name; `from __future__` imports are
    directives, not bindings."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in bound if name not in used]
    return sorted(found)


def test_unused_import_check_flags_unread_names():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nimport os.path\n"
              "from dataclasses import dataclass, field\n"
              "from . import specfun\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n"
              "def f():\n    import threading\n"
              "    return os.path.join(specfun.__name__)\n")
    assert _unused_imports(source) == [(2, "math"), (5, "field")]


TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


# __init__.py imports in order to re-export
@pytest.mark.parametrize(
    "path", [p for p in SOURCES + TESTS if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert unused == [], f"{path.name}: unused import(s) {unused}"


# The acceptance criteria read the verdict of the experiments themselves,
# through the package's public names; a private helper would let a criterion
# re-implement part of an experiment beside it.
def _private_imports(source: str) -> list:
    """(line, name) of every underscore-prefixed name that source imports
    from spaceform_areas or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.partition(".")[0] == "spaceform_areas"):
            found += [(node.lineno, f"{node.module}.{alias.name}")
                      for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def test_private_import_check_flags_underscore_names():
    source = ("from spaceform_areas.cli import ExperimentSpec, _quad_cf_ch1\n"
              "from spaceform_areas import SimConfig, _x as x\n"
              "from numpy import _core\nfrom ._private import y\n"
              "def f():\n    from spaceform_areas.simulate import _R_FAR\n")
    assert _private_imports(source) == [
        (1, "spaceform_areas.cli._quad_cf_ch1"), (2, "spaceform_areas._x"),
        (6, "spaceform_areas.simulate._R_FAR")]


def test_acceptance_imports_no_private_names():
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    found = _private_imports(path.read_text(encoding="utf-8"))
    assert found == [], f"test_acceptance.py imports {found}"


# Blocks are scheduled in one place, simulate._run_blocks, so that every
# sampler means the same by `threads` and its outputs are checked at one
# site for not depending on it.
POOL_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}


def _scheduling_sites(source: str) -> list:
    """(line, what) of every import from concurrent.futures, threading or
    multiprocessing in source, and every use of a pool executor's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Name) and node.id in POOL_NAMES:
            found.append((node.lineno, node.id))
            continue
        elif isinstance(node, ast.Attribute) and node.attr in POOL_NAMES:
            found.append((node.lineno, node.attr))
            continue
        else:
            continue
        found += [(node.lineno, f"import {name}") for name in names
                  if name.partition(".")[0]
                  in ("concurrent", "threading", "multiprocessing")]
    return sorted(found)


def test_scheduling_check_flags_pools_and_threads():
    source = ("import concurrent.futures as cf\nimport threading, math\n"
              "from multiprocessing import Pool\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "def f():\n    return cf.ProcessPoolExecutor(2)\n"
              "x = ThreadPoolExecutor\n")
    assert _scheduling_sites(source) == [
        (1, "import concurrent.futures"), (2, "import threading"),
        (3, "import multiprocessing"), (4, "import concurrent.futures"),
        (6, "ProcessPoolExecutor"), (7, "ThreadPoolExecutor")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_scheduling_site(path):
    source = path.read_text(encoding="utf-8")
    found = _scheduling_sites(source)
    if path.name != "simulate.py":
        assert found == [], f"{path.name}: schedules work at {found}"
        return
    # one import and one pool, built in _run_blocks
    assert [what for _, what in found] == ["import concurrent.futures",
                                           "ThreadPoolExecutor"]
    runner = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_run_blocks")
    assert runner.lineno <= found[1][0] <= runner.end_lineno


# Normals are drawn at three sites of simulate.py: the splitting step of
# every fixed-grid sampler (_split_step), the closed-form far finish of
# _hyperbolic_block and the per-block fill of the clock-time sweeps and the
# angles (_fill_normals).  A second fixed-grid scheme would need a fourth.
DRAW_NAMES = {"standard_normal", "normal"}


def _draw_sites(source: str) -> list:
    """(line, function) of every call of a method named standard_normal or
    normal in source, function being the innermost enclosing def, or
    "<module>"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in DRAW_NAMES):
                found.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_draw_check_flags_every_normal_call():
    source = ("import numpy as np\nz = np.random.default_rng(1).normal()\n"
              "def f(rng, out):\n    rng.standard_normal(out=out)\n"
              "    def g():\n        return rng.normal(size=3)\n"
              "    return g, rng.uniform(), rng.standard_normal\n"
              "class A:\n    def h(self, rng):\n"
              "        return np.sqrt(rng.standard_normal(2))\n")
    assert _draw_sites(source) == [
        (2, "<module>"), (4, "f"), (6, "g"), (10, "h")]


def test_three_draw_sites():
    for path in SOURCES:
        sites = [where for _, where in
                 _draw_sites(path.read_text(encoding="utf-8"))]
        if path.name != "simulate.py":
            assert sites == [], f"{path.name}: draws normals in {sites}"
            continue
        assert sorted(sites) == ["_fill_normals", "_hyperbolic_block",
                                 "_split_step"]


# The benchmark's setup_s times a fresh import of the package against a
# 0.25 s bound.  Importing scipy.stats adds 136 modules and about 0.33 s to
# it on a 2-core host, so no module may import it; the KS p-value comes
# from scipy.special.kolmogorov.
def test_package_import_skips_scipy_stats():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import spaceform_areas, spaceform_areas.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, str(SOURCES[0].parent.parent)],
        capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]
