"""Smoke tests for the scripts under scripts/.

The scripts import the package by its public names, so an API change that
breaks one shows up here.  The oracle script must stay independent of the
engines it checks, and the package keeps record building in one place and
one bounded-value type.
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


def _call_sites(names):
    # (module, enclosing top-level function) of every call to one of names
    # in the package, keyed by the called name.
    sites = {name: set() for name in names}

    def visit(node, module, outer):
        for child in ast.iter_child_nodes(node):
            here = outer
            if outer is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                here = child.name
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in sites:
                    sites[called].add((module, here))
            visit(child, module, here)

    for path in sorted((ROOT / "src" / "thetaeval").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def test_records_are_built_in_one_place():
    # Every record comes from report.timed_record; only the runner and the
    # record-returning target_limit_check call it, and no suite builder
    # goes through a record to get its two sides.
    sites = _call_sites(("VerificationRecord", "timed_record", "target_limit_check"))
    assert sites["VerificationRecord"] == {("report", "timed_record")}
    assert sites["timed_record"] == {("suites", "run_suites"),
                                     ("kronecker", "target_limit_check")}
    assert not any(module == "suites" for module, _ in sites["target_limit_check"])


def test_one_bounded_value_type():
    # ApproxValue, complex values included, is the one type that carries a
    # bound: no other class in the package declares an error_bound field.
    declared = set()
    for path in sorted((ROOT / "src" / "thetaeval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                declared |= {(path.stem, node.name) for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and getattr(stmt.target, "id", None) == "error_bound"}
    assert declared == {("approx", "ApproxValue")}
