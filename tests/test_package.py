"""Package-wide checks: every exported name exists, what the CLI imports, and
the import graph between bellkit's modules."""

import ast
import importlib
import json
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


def run_python(code: str, cwd=None) -> str:
    """Standard output of code run by a fresh interpreter that imports bellkit
    from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_out_scipy():
    """`import bellkit.cli` loads no scipy module: `interplay` solves its roots
    itself, and `tomo` imports `scipy.optimize.minimize` inside `mle_fit`."""
    code = ("import sys, bellkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_python(code).strip() == "[]"


SIMULATE = {"weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45], "trials": 1000,
            "shards": 2}


@pytest.mark.parametrize("subcommand, cfg, allowed", [
    ("quantify", {"pairs": [[2.1, 1.0], [2.05, 1.5]]}, []),
    ("simulate", SIMULATE, []),
    ("interplay", {"measure": "ode", "level": 0.3, "alphas": [1.0, 1.5],
                   "theta_grid": {"start": 0.0, "stop": 0.785, "num": 5}}, []),
    ("simulate", dict(SIMULATE, trial_log=True), ["bellkit.trial_log"]),
], ids=["quantify", "simulate", "interplay", "simulate-log"])
def test_main_loads_no_module_after_import(tmp_path, subcommand, cfg, allowed):
    """Each call's modules are loaded by `import bellkit.cli`, not inside `main`,
    so a call's time is its own work; writing a trial log loads its codec."""
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    code = ("import sys, bellkit.cli; before = set(sys.modules); "
            f"code = bellkit.cli.main([{subcommand!r}, '--config', 'c.json', '--out', 'o']); "
            "print(code, sorted(set(sys.modules) - before))")
    assert run_python(code, cwd=tmp_path).splitlines()[-1] == f"0 {allowed}"


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
