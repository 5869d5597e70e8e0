"""Smoke tests for the scripts under scripts/.

The scripts import the package by its public names, so an API change that
breaks one shows up here.  The oracle script must stay independent of the
engines it checks.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("argv", [
    ["limit_table.py"],
    ["calibrate_direct_engine.py", "--grid-tol", "0.1", "--sweep-min", "1e-5"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_oracle_script_never_imports_the_package():
    tree = ast.parse((SCRIPTS / "compute_oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "thetaeval" for name in imported)


FORBIDDEN_MODULES = {"mpmath", "scipy"}
FORBIDDEN_MATH = {"gamma", "lgamma", "erf", "erfc"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "thetaeval").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_builds_special_functions_from_definitions(path):
    # The paper's premise: no special-function library and no libm Gamma
    # or erf anywhere in the package, so every constant comes from an engine.
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = {alias.name.split(".")[0] for alias in node.names}
            assert not roots & FORBIDDEN_MODULES
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] not in FORBIDDEN_MODULES
            if node.module == "math":
                assert not {alias.name for alias in node.names} & FORBIDDEN_MATH
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "math" and node.attr in FORBIDDEN_MATH), \
                f"math.{node.attr} at line {node.lineno}"
