"""Package-wide checks: every exported name exists, and what the CLI imports."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(bellkit.__path__, "bellkit."))


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
