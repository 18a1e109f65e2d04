"""Package-wide checks: every exported name exists, what the CLI imports, and
the import graph between bellkit's modules."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(bellkit.__path__, "bellkit."))
SRC = Path(bellkit.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cli_import_leaves_out_scipy_interpolate():
    """`import bellkit.cli` must not load scipy.interpolate.

    scipy.optimize is still loaded on this path: `tomo` imports
    `scipy.optimize.minimize` at module level for its Nelder-Mead fit, and
    `interplay` uses `brentq`.
    """
    code = ("import sys, bellkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def package_imports() -> dict:
    """{(importer, imported): at module level} over the imports between bellkit
    modules, read with ast; imports inside a function count, at first use."""
    def target(dotted, name=None):
        parts = [p for p in (dotted or "").split(".") if p and p != "bellkit"]
        if not parts and name and (SRC / f"{name}.py").exists():
            parts = [name]
        return parts[0] if parts else "__init__"

    edges = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        deferred = {id(node) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").split(".")[0] == "bellkit"):
                found = {target(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                found = {target(alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "bellkit"}
            else:
                continue
            for imported in found:
                key = (path.stem, imported)
                edges[key] = edges.get(key, False) or id(node) not in deferred
    return edges


def test_import_graph_has_one_documented_cycle():
    """trial_sim loads its text codec, trial_log, inside the functions that use
    it, and trial_log reads TRIAL_CELLS from trial_sim; that is the one cycle.
    Any other, such as trial_sim importing pbr at first use while pbr imports
    trial_sim, fails."""
    edges = package_imports()
    assert {("pbr", "bell"), ("pbr", "trial_sim"), ("trial_log", "trial_sim"),
            ("cli", "__init__")} <= set(edges)
    assert edges.pop(("trial_sim", "trial_log")) is False  # at first use only
    left = {path.stem for path in SRC.glob("*.py")}
    while True:  # peel off modules that import, or are imported by, none left
        inner = {(a, b) for a, b in edges if a in left and b in left}
        off = (left - {a for a, _ in inner}) | (left - {b for _, b in inner})
        if not off:
            break
        left -= off
    assert left == set(), f"import cycle among {sorted(left)}"
