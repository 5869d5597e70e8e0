"""Smoke tests for the scripts under scripts/.

The scripts import the package by its public names, so an API change that
breaks one shows up here.  The oracle script must stay independent of the
engines it checks, and the package keeps record building in one place,
one bounded-value type, two independent two-squares routes, one owner
of a run's configuration and one declaration per public name, and loads
numpy only inside the lattice engines.
"""

import ast
import dataclasses
import importlib
import json
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
    proc = _run_with_package([str(SCRIPTS / argv[0]), *argv[1:]])
    assert proc.returncode == 0, proc.stderr


def _run_with_package(args):
    # A fresh interpreter that imports the package from this tree's src/.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


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


PACKAGE = ROOT / "src" / "thetaeval"
TWO_SQUARES_ROUTES = {"r_divisor_table", "r_bruteforce_table"}


def _called_names(node):
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def _reachable(functions, start):
    # Every name called from the node start, following calls into the
    # functions of the dict functions (name -> node).
    seen, todo = set(), [start]
    while todo:
        for name in _called_names(todo.pop()) - seen:
            seen.add(name)
            if name in functions:
                todo.append(functions[name])
    return seen


def test_two_squares_routes_stay_independent():
    # r(n) by divisors and r(n) by counting points must stay two computations:
    # a check of one against the other proves nothing if either calls the
    # other, or if the suite compares one route with itself.
    tree = ast.parse((PACKAGE / "number_theory.py").read_text())
    for node in ast.walk(tree):
        # number_theory imports nothing from the package, qseries included
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "thetaeval"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "thetaeval" for alias in node.names)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    divisor = _reachable(functions, functions["r_divisor_table"])
    search = _reachable(functions, functions["r_bruteforce_table"])
    assert "chi4" in divisor
    assert not divisor & {"r_bruteforce_table", "r_bruteforce"}
    assert not search & {"chi4", "r_divisor_table", "r_divisor"}
    # The one piece of the module both reach is the argument check.
    assert divisor & search & set(functions) <= {"_check_order"}

    suite = next(node for node in ast.parse((PACKAGE / "suites.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_suite_two_squares")
    builders = {node.name: node for node in ast.walk(suite) if isinstance(node, ast.FunctionDef)}
    declared = next(node for node in ast.walk(suite)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"
                    and getattr(node.args[0], "value", None)
                    == "two-squares/bruteforce-vs-divisor")
    builder = builders[declared.args[3].id]
    returned = [node.value for node in ast.walk(builder) if isinstance(node, ast.Return)]
    assert len(returned) == 1 and isinstance(returned[0], ast.Call)
    lhs, rhs = returned[0].args[:2]
    # A side may reach its route through a helper of the suite's own.
    assert {frozenset(_reachable(builders, side) & TWO_SQUARES_ROUTES) for side in (lhs, rhs)} \
        == {frozenset({"r_divisor_table"}), frozenset({"r_bruteforce_table"})}


GRID_BUILDERS = {"arange", "meshgrid", "mgrid", "ogrid", "indices"}


def test_one_lattice_enumerator_and_a_direct_engine_without_caches():
    # epstein._level_set alone lays out lattice points, and it is the one
    # array grid of the package.  Both lattice engines reach points only
    # through it, the direct engine never reaches the accelerated engine,
    # and nothing it reaches is cached.
    sites = _call_sites(GRID_BUILDERS | {"_level_set"})
    builders = set().union(*(sites[name] for name in GRID_BUILDERS))
    assert builders == {("epstein", "_level_set")}
    assert sites["_level_set"] == {("epstein", "epstein_direct"),
                                   ("epstein", "epstein_accelerated")}

    functions = _functions("epstein.py")
    reached = _reachable(functions, functions["epstein_direct"])
    assert "_level_set" in reached and "epstein_accelerated" not in reached
    for name in reached & set(functions) | {"epstein_direct"}:
        assert "epstein_accelerated" not in {
            node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}, name
        assert not functions[name].decorator_list, name


def _functions(module):
    # The top-level functions of one module of the package, by name.
    tree = ast.parse((PACKAGE / module).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_one_entry_per_computation():
    # The accelerated sum is taken on each call, with no cache around it,
    # and theta, eta and the eta log series pick their truncation through
    # the one search, approx.terms_needed, with no loop of their own.
    assert not _functions("epstein.py")["epstein_accelerated"].decorator_list
    for module, name in (("modular.py", "theta_uhp"), ("modular.py", "eta_uhp"),
                         ("kronecker.py", "l1_series")):
        engine = _functions(module)[name]
        assert not [node for node in ast.walk(engine) if isinstance(node, ast.While)], name
        assert "terms_needed" in _called_names(engine), name

    # approx.limit_at_zero is the one limit driver: no second entry remains.
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "limit_at_zero" in defined
    assert not defined & {"extrapolate_to_zero", "_limit_at_zero"}

    # Both form integrals go through the one vertex split and map.
    quadrature = _functions("quadrature.py")
    for name in ("f_form", "f_form_derivative_at_1"):
        assert "_vertex_integral" in _called_names(quadrature[name]), name
        assert not [node for node in ast.walk(quadrature[name])
                    if isinstance(node, ast.FunctionDef) and node is not quadrature[name]], name

    # The Kronecker limit asks its nodes for its own tolerance: pole_gap is
    # called with plain names, so no share of tol is carved off on the way.
    calls = [node for node in ast.walk(_functions("kronecker.py")["kronecker_lhs"])
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pole_gap"]
    assert calls and all(isinstance(arg, ast.Name) for call in calls
                         for arg in [*call.args, *(kw.value for kw in call.keywords)])

    # Gamma below 1/2 takes gamma_integral's lift, with no lift of its own.
    assert "_gamma_cached" not in _called_names(_functions("epstein.py")["_gamma_cached"])

    # RunConfig builds each form once; a suite builds only its own literal forms.
    for name, suite in _functions("suites.py").items():
        for node in ast.walk(suite):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                    == "BinaryQuadraticForm":
                assert all(isinstance(arg, (ast.Constant, ast.UnaryOp)) for arg in node.args), \
                    f"{name} line {node.lineno}"


def test_one_owner_of_a_run_configuration():
    # report.py renders records and imports nothing from the package; the
    # suite list is spelled once, as the keys of suites.SUITES; and
    # run_suites only runs checks, as RunConfig refuses a bad configuration
    # when it is built.
    report = ast.parse((PACKAGE / "report.py").read_text())
    assert not [node.module for node in ast.walk(report)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "thetaeval")]

    suites = ast.parse((PACKAGE / "suites.py").read_text())
    table = next(node.value for node in suites.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SUITES"])
    names = {key.value for key in table.keys}
    assert "theta" in names
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                spelled = {elt.value for elt in node.elts if isinstance(elt, ast.Constant)}
                assert len(spelled & names) < 2, f"{path.name} line {node.lineno}"

    runner = next(node for node in suites.body
                  if isinstance(node, ast.FunctionDef) and node.name == "run_suites")
    assert not [node for node in ast.walk(runner) if isinstance(node, ast.Raise)]


PUBLIC_NAMES = sorted([
    "ApproxValue", "BinaryQuadraticForm", "DEFAULT_FORMS", "L_chi4", "L_chi4_prime_at_1",
    "NonConvergence", "QSeries", "RunConfig", "SUITES", "SUITE_NAMES", "UpperHalfPoint",
    "VerificationRecord", "__version__", "chi4", "emit_report", "epstein_accelerated",
    "epstein_direct", "eta_quotient", "eta_uhp", "euler_gamma", "f_form",
    "f_form_derivative_at_1", "gammaL_integral", "gamma_gauss", "gamma_integral", "integral_I",
    "kronecker_lhs", "kronecker_rhs", "l1_series", "qs_mul", "r_bruteforce",
    "r_bruteforce_table", "r_divisor", "r_divisor_table", "r_from_theta_squared", "run_suites",
    "target_limit_check", "theta_at_i_assembly", "theta_qseries", "theta_uhp",
    "triple_product_qseries", "upper_incomplete_gamma", "zeta",
])


def test_one_declaration_per_public_name():
    # Each module's __all__ declares its public names once; the package
    # re-exports every module but the CLI, spells no name itself, and its
    # __all__ is their union.  The report file is the CLI's business, so
    # RunConfig holds only what run_suites reads.
    package = importlib.import_module("thetaeval")
    homes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"thetaeval.{path.stem}")
        for name in module.__all__:
            assert name not in homes, f"{name} in {homes.get(name)} and {path.stem}"
            homes[name] = module
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) == set(homes) | {"__version__"}
    for name, module in homes.items():
        obj = getattr(module, name)
        assert getattr(package, name) is obj, name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert sorted(package.__all__) == PUBLIC_NAMES

    init = ast.parse((PACKAGE / "__init__.py").read_text())
    spelled = {node.value for node in ast.walk(init)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not spelled & set(PUBLIC_NAMES) - {"__version__"}
    assert not [node.lineno for node in ast.walk(init)
                if isinstance(node, (ast.List, ast.Tuple, ast.Set))
                and any(isinstance(elt, ast.Constant) for elt in node.elts)]

    cli = importlib.import_module("thetaeval.cli")
    assert [f.name for f in dataclasses.fields(homes["RunConfig"].RunConfig)] \
        == ["suites", "qseries_order", "forms", "tol_overrides"]
    assert cli.__all__ == ["build_parser", "main"] and not hasattr(cli, "run")
    raised = {(path.stem, node.name) for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and "unknown output format" in ast.unparse(node)}
    assert raised == {("report", "emit_report")}


def _report(records):
    passed = sum(1 for r in records if r["pass"])
    return {"version": "1.0.0", "records": records,
            "summary": {"total": len(records), "passed": passed,
                        "failed": len(records) - passed}}


def _record(name, lhs, runtime_ms, passed=True):
    return {"name": name, "paper_anchor": "Lemma 1", "lhs": lhs, "rhs": 1.0,
            "abs_error": abs(lhs - 1.0), "combined_bound": 1e-15,
            "tolerance": 1e-12, "pass": passed, "runtime_ms": runtime_ms}


def _compare(tmp_path, a, b):
    paths = []
    for label, report in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPTS / "compare_reports.py"), *paths],
                          capture_output=True, text=True, timeout=60)


def test_compare_reports_masks_only_runtime(tmp_path):
    a = _report([_record("x/one", 1.0, 3), _record("x/two", 1.0, 5)])
    b = _report([_record("x/one", 1.0, 40), _record("x/two", 1.0, 0)])
    proc = _compare(tmp_path, a, b)
    assert (proc.returncode, proc.stdout) == (0, "")


def test_compare_reports_names_each_difference(tmp_path):
    a = _report([_record("x/one", 1.0, 3), _record("x/two", 1.0, 5),
                 _record("x/gone", 1.0, 1)])
    b = _report([_record("x/one", 1.0 + 2.0 ** -52, 3), _record("x/two", 1.0, 5, False),
                 _record("x/new", 1.0, 1)])
    proc = _compare(tmp_path, a, b)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "x/one: lhs 1.0 != 1.0000000000000002" in lines
    assert "x/one: abs_error 0.0 != 2.220446049250313e-16" in lines
    assert "x/two: pass True != False" in lines
    assert "x/gone: only in A" in lines and "x/new: only in B" in lines
    assert any(line.startswith("summary: ") for line in lines)
    assert not any("runtime_ms" in line for line in lines)


def test_compare_reports_refuses_a_repeated_record_name(tmp_path):
    # Records are matched by name, so a repeated one would compare only its
    # last copy.
    a = _report([_record("x/one", 1.0, 3), _record("x/one", 1.5, 3)])
    b = _report([_record("x/one", 1.0, 3)])
    for first, second in ((a, b), (b, a)):
        proc = _compare(tmp_path, first, second)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cannot read report" in proc.stderr and "x/one" in proc.stderr


@pytest.mark.parametrize("report, problem", [
    ([], "not a report object"),
    ({"records": [{"paper_anchor": "Lemma 1"}]}, "record 0 is not an object"),
    ({"records": [_record("x/one", 1.0, 3), "x/two"]}, "record 1 is not an object"),
], ids=["list-report", "record-without-name", "record-not-an-object"])
def test_compare_reports_refuses_a_malformed_report(tmp_path, report, problem):
    good = _report([_record("x/one", 1.0, 3)])
    for first, second in ((report, good), (good, report)):
        proc = _compare(tmp_path, first, second)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cannot read report" in proc.stderr and problem in proc.stderr
        assert "Traceback" not in proc.stderr


def test_no_module_of_the_package_imports_numpy_at_module_level():
    # numpy is the lattice engines' array library and nobody else's: only
    # epstein.py imports it, and only inside a function body, so the CLI,
    # the exact suites and the scalar suites start without it.
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(node, None) for node in ast.parse(path.read_text()).body]
        while stack:
            node, function = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Import):
                roots = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                roots = set()
            if "numpy" in roots:
                importers.add((path.stem, function))
            stack.extend((child, function) for child in ast.iter_child_nodes(node))
    assert importers and {module for module, _ in importers} == {"epstein"}
    assert all(function is not None for _, function in importers), importers


def test_cli_and_scalar_suites_never_load_numpy():
    proc = _run_with_package(["-c", "import sys, thetaeval.cli\n"
                                    "assert 'numpy' not in sys.modules, 'import'\n"
                                    "assert thetaeval.cli.main(['theta']) == 0\n"
                                    "assert 'numpy' not in sys.modules, 'verify theta'\n"
                                    "assert thetaeval.cli.main(['triple-product', "
                                    "'two-squares', 'theta']) == 0\n"
                                    "assert 'numpy' not in sys.modules, 'exact suites'\n"])
    assert proc.returncode == 0, proc.stderr


def test_the_product_side_of_lemma_one_never_reaches_the_squares():
    # triple-product/theta-vs-product compares two computations only while
    # the product is expanded from its factors, never from the squares.
    functions = _functions("qseries.py")
    reached = _reachable(functions, functions["triple_product_qseries"])
    assert not reached & {"theta_qseries", "qs_mul", "isqrt"}, reached


def test_a_failing_property_test_leaves_the_run_going(tmp_path):
    # Any warning fails the run, but Hypothesis's report of a failing
    # example must not stop pytest before the other tests have run.
    (tmp_path / "test_two_failures.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property_fails(n):\n"
        "    assert n != n\n\n\n"
        "def test_plain_fails():\n"
        "    assert False\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_two_failures.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout, proc.stdout
