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
    # A call through the run's memo, once_per_run(f)(...), is a call to f too.
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Call) and getattr(func.func, "id", None) == "once_per_run":
                func = func.args[0]
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
    # array grid of the package.  The direct engine and the incomplete-gamma
    # split reach points only through it, and the accelerated engine and
    # the Kronecker limit reach them only through the split.  The direct
    # engine never reaches the accelerated engine, nothing it reaches is
    # cached, and it adds its blocks in numpy.
    sites = _call_sites(GRID_BUILDERS | {"_level_set", "_split_sum"})
    builders = set().union(*(sites[name] for name in GRID_BUILDERS))
    assert builders == {("epstein", "_level_set")}
    assert sites["_level_set"] == {("epstein", "epstein_direct"),
                                   ("epstein", "_split_sum")}
    assert sites["_split_sum"] == {("epstein", "epstein_accelerated"),
                                   ("kronecker", "kronecker_lhs")}

    functions = _functions("epstein.py")
    reached = _reachable(functions, functions["epstein_direct"])
    assert "_level_set" in reached and not reached & {"epstein_accelerated", "_split_sum"}
    # Its points stay in numpy: no block is turned into Python floats.
    assert "_block_sum" in reached and "tolist" not in reached
    for name in reached & set(functions) | {"epstein_direct"}:
        assert "epstein_accelerated" not in {
            node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}, name
        assert not functions[name].decorator_list, name


def _functions(module):
    # The top-level functions of one module of the package, by name.
    tree = ast.parse((PACKAGE / module).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


MEMOISED = {"integral_I", "gamma_integral", "gammaL_integral", "euler_gamma",
            "L_chi4_prime_at_1", "eta_uhp", "epstein_accelerated"}


def test_one_entry_per_computation():
    # The accelerated sum, its split and the split's kernels keep no cache
    # of their own: a block's table of equal arguments is local to the
    # block, epstein.py binds no dict at module level, and the sum itself
    # is shared only through the run's memo.  Theta, eta and the eta log
    # series pick their truncation through the one search,
    # approx.terms_needed, with no loop of their own.
    epstein = _functions("epstein.py")
    assert {"epstein_accelerated", "_split_sum", "_gamma_block", "_incomplete_gamma",
            "_cf_upper"} <= set(epstein)
    assert [name for name, node in epstein.items() if node.decorator_list] \
        == ["epstein_accelerated"]

    # The run's memo, approx.once_per_run, is the package's one sharing of
    # engine results: it decorates exactly the seven engines that a default
    # run asks for more than once (the two-squares suite applies it to
    # r_divisor_table where it calls it), and no lru_cache or functools.cache
    # is left but the quadrature's three node tables, kept per process.  The
    # memo keys positional arguments only, so every call in src/ to a
    # memoised engine spells its arguments positionally: one spelling per
    # shared computation.
    decorated, cached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        assert "functools.cache" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            for decorator in map(ast.unparse, getattr(node, "decorator_list", ())):
                if decorator == "once_per_run":
                    decorated.add(node.name)
                elif "cache" in decorator:
                    cached.add((path.stem, node.name))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in MEMOISED:
                assert not node.keywords, f"{path.name} line {node.lineno}"
    assert decorated == MEMOISED
    assert cached == {("quadrature", "_level_nodes"), ("quadrature", "_halfline_nodes"),
                      ("quadrature", "_vertex_nodes")}
    module = ast.parse((PACKAGE / "epstein.py").read_text())
    for node in module.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and value is not None:
            assert not isinstance(value, (ast.Dict, ast.DictComp)), ast.unparse(node)
            assert getattr(getattr(value, "func", None), "id", None) not in \
                {"dict", "defaultdict", "OrderedDict"}, ast.unparse(node)

    # _incomplete_gamma is the one incomplete-gamma entry: it alone picks
    # the continued fraction, and the public function and the lattice
    # blocks reach the fraction only through it.
    assert (PACKAGE / "epstein.py").read_text().count("max(1.0, s + 1.0)") == 1
    assert "max(1.0, s + 1.0)" in ast.unparse(epstein["_incomplete_gamma"])
    for name in ("_gamma_block", "upper_incomplete_gamma"):
        called = _called_names(epstein[name])
        assert "_incomplete_gamma" in called and "_cf_upper" not in called, name

    # lambda = 2 pi / sqrt D is spelled once, as BinaryQuadraticForm.lam.
    form_class = next(node for node in module.body if isinstance(node, ast.ClassDef)
                      and node.name == "BinaryQuadraticForm")
    lam = next((node for node in form_class.body
                if isinstance(node, ast.FunctionDef) and node.name == "lam"), None)
    assert lam is not None and "math.pi / math.sqrt(" in ast.unparse(lam)
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert sum(text.count("math.pi / math.sqrt(") for text in sources) == 1
    assert not [text for text in sources if "_TWO_PI" in text]

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

    # Both form integrals go through the one vertex split and map.  The
    # quadrature's node maps are spelled once each, in the per-process node
    # tables, and _drive holds the one loop over the levels and the one node
    # fault rule, which neither rule repeats.
    quadrature = _functions("quadrature.py")
    text = (PACKAGE / "quadrature.py").read_text()
    for spelling, table in (("-math.log(", "_halfline_nodes"), ("log1p(-", "_halfline_nodes"),
                            ("(1.0 - u) / u", "_vertex_nodes")):
        assert text.count(spelling) == 1 and spelling in ast.unparse(quadrature[table]), spelling
        assert [ast.unparse(d) for d in quadrature[table].decorator_list] == ["lru_cache(maxsize=32)"]
    assert [name for name, node in quadrature.items() for loop in ast.walk(node)
            if isinstance(loop, ast.For) and "_MAX_LEVEL" in ast.unparse(loop.iter)] == ["_drive"]
    assert [arg.arg for arg in quadrature["_drive"].args.args] \
        == ["nodes", "level_sum", "node_value", "label", "tol"]
    drive_strings = [node.value for node in ast.walk(quadrature["_drive"])
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for stall in ("integrand overflows at", "integrand is "):
        assert text.count(stall) == 1 and any(x.startswith(stall) for x in drive_strings), stall
    for rule in ("_halfline", "_vertex_integral"):
        assert not [node for node in ast.walk(quadrature[rule]) if isinstance(node, ast.Try)], rule
        assert "NonConvergence" not in ast.unparse(quadrature[rule]), rule
    assert {name for name, node in quadrature.items() if "_drive" in _called_names(node)} \
        == {"_halfline", "_vertex_integral"}
    for name in ("f_form", "f_form_derivative_at_1"):
        assert "_vertex_integral" in _called_names(quadrature[name]), name
        assert not [node for node in ast.walk(quadrature[name])
                    if isinstance(node, ast.FunctionDef) and node is not quadrature[name]], name

    # The Kronecker limit is taken at s = 1 itself: one incomplete-gamma
    # split at s = 1.0, and no pole ladder behind it.
    lhs = _called_names(_functions("kronecker.py")["kronecker_lhs"])
    assert not lhs & {"pole_gap", "pole_constant", "limit_at_zero", "epstein_accelerated"}
    splits = [node for node in ast.walk(_functions("kronecker.py")["kronecker_lhs"])
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_split_sum"]
    assert len(splits) == 1
    assert isinstance(splits[0].args[1], ast.Constant) and splits[0].args[1].value == 1.0

    # Both Kronecker checks take -2 log |eta(z_Q)| from one entry, which
    # asks eta for the tol it is given: kronecker_rhs cuts nothing from its
    # tol, and the suite calls eta only in the theta checks.
    kronecker = _functions("kronecker.py")
    assert {name for name, node in kronecker.items() if "eta_uhp" in _called_names(node)} \
        == {"_minus_two_log_eta", "theta_at_i_assembly"}
    assert "_minus_two_log_eta" in _called_names(kronecker["kronecker_rhs"])
    assert "/ 8.0" not in ast.unparse(kronecker["kronecker_rhs"])
    assert "eta_uhp" not in _called_names(_functions("suites.py")["_suite_kronecker"])

    # The scalar pole limit is pole_gap's on the unit form's Dirichlet
    # route, asked for the tolerance it is certified to: it builds no
    # regular part of its own, so spells neither the zeta pole nor pi.
    scalar = _functions("kronecker.py")["scalar_limit_sides"]
    gaps = [node for node in ast.walk(scalar) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "pole_gap"]
    certify = [node for node in ast.walk(scalar) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "certified"]
    assert len(gaps) == 1 and len(certify) == 1
    assert ast.dump(gaps[0].args[2]) == ast.dump(certify[0].args[0])
    assert "zeta(2.0 * s - 1.0" not in ast.unparse(scalar)
    assert "math.pi" not in ast.unparse(scalar)
    assert not scalar.args.args

    # I is one half-line integral, with no split into a finite piece.
    integral = [node.func.id for node in ast.walk(_functions("quadrature.py")["integral_I"])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert integral.count("_halfline") == 1 and "_finite" not in integral

    # L and L'(1) take one attempt at the a-priori term count: no retry loop.
    pair = _functions("special_values.py")["_accelerated_pair"]
    assert not [node for node in ast.walk(pair) if isinstance(node, (ast.For, ast.While))]

    # The enumerator evaluates Q through BinaryQuadraticForm.__call__ on
    # arrays, with no copy of its formula.
    level_set = _functions("epstein.py")["_level_set"]
    assert "form" in _called_names(level_set)
    assert "* xs * xs" not in ast.unparse(level_set)

    # Gamma(s) has one entry.  The lattice engines call gamma_integral
    # directly, in the kernel and in the accelerated sum's division: below
    # 1/2 it takes its lift and above 4 its recurrence.  The downward
    # recurrence (an exact product, or a step s -= 1) lives in the one
    # helper, approx.gamma_recurrence, and the 171 limit in the one range
    # check; both Gamma routes call them, gamma_integral and the Gauss
    # product, the independent route to Gamma that the reflection check takes.
    assert {site for site in _call_sites({"gamma_integral"})["gamma_integral"]
            if site[0] == "epstein"} \
        == {("epstein", "_incomplete_gamma"), ("epstein", "epstein_accelerated")}
    limits, recurrences = set(), set()
    for path in PACKAGE.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Compare) and any(
                        isinstance(side, ast.Constant) and side.value == 171
                        for side in (node.left, *node.comparators)):
                    limits.add((path.stem, function.name))
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub) \
                        and isinstance(node.value, ast.Constant) and node.value.value == 1:
                    recurrences.add((path.stem, function.name))
            if "prod" in _called_names(function):
                recurrences.add((path.stem, function.name))
    assert recurrences == {("approx", "gamma_recurrence")}
    assert limits == {("approx", "check_gamma_range")}
    routes = {**_functions("quadrature.py"), **_functions("special_values.py")}
    for route in ("gamma_integral", "gamma_gauss"):
        assert {"check_gamma_range", "gamma_recurrence"} <= _called_names(routes[route])

    # RunConfig builds each form once; a suite builds only its own literal forms.
    for name, suite in _functions("suites.py").items():
        for node in ast.walk(suite):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                    == "BinaryQuadraticForm":
                assert all(isinstance(arg, (ast.Constant, ast.UnaryOp)) for arg in node.args), \
                    f"{name} line {node.lineno}"

    # The triple product's running sums have one store, the lane int: its
    # windows are read as explicit big-endian words, with no byte-order
    # branch, and _solve assigns to no list slice, so a nonzero p_n reaches
    # the running sums only through the big int.
    text = (PACKAGE / "qseries.py").read_text()
    assert "byteorder" not in text and "memoryview" not in text
    assert not [ast.unparse(node) for node in ast.walk(_functions("qseries.py")["_solve"])
                if isinstance(node, (ast.Assign, ast.AugAssign))
                for target in getattr(node, "targets", [getattr(node, "target", None)])
                if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice)]

    # Both exact tables take their divisor sums over odd numbers from one
    # sieve, number_theory._odd_divisor_sums: the hyperbola split's J' is
    # spelled once in src/, there, and no other function of the package
    # loops over odd j with a stride of 2.
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert sum(text.count("root + 1 + root % 2") for text in sources.values()) == 1
    sieve = _functions("number_theory.py")["_odd_divisor_sums"]
    assert "root + 1 + root % 2" in ast.unparse(sieve)
    assert "_odd_divisor_sums" in _called_names(_functions("qseries.py")["_log_derivative"])
    assert "_odd_divisor_sums" in _called_names(_functions("number_theory.py")["r_divisor_table"])
    odd_loops = {(stem, function.name) for stem, text in sources.items()
                 for function in ast.walk(ast.parse(text)) if isinstance(function, ast.FunctionDef)
                 for loop in ast.walk(function) if isinstance(loop, ast.For)
                 for call in ast.walk(loop.iter) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "range" and len(call.args) == 3
                 and ast.unparse(call.args[0]) == "1" and ast.unparse(call.args[2]) == "2"}
    assert odd_loops == {("number_theory", "_odd_divisor_sums")}


def test_one_exit_per_engine():
    # Every function that checks an engine tolerance (check_tol without
    # zero_ok, which only a record's tolerance takes) returns through
    # ApproxValue.certified, itself or through a helper of its own module
    # (_drive for the quadrature rules, _accelerated_pair for L), so a bound
    # above what tol allows is a stall, never a result.
    checked, unchecked = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        functions = _functions(path.name)
        for name, node in functions.items():
            if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "check_tol"
                   and not any(k.arg == "zero_ok" for k in call.keywords)
                   for call in ast.walk(node)):
                checked.add(name)
                if "certified" not in _reachable(functions, node):
                    unchecked.add((path.stem, name))
    assert {"theta_uhp", "eta_uhp", "epstein_direct", "kronecker_lhs", "integral_I",
            "_vertex_integral", "_accelerated_pair", "zeta", "gamma_gauss"} <= checked
    assert unchecked == set()

    # certified holds the package's one comparison of a bound with a tol.
    compared = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Compare) and {"error_bound", "tol"} <= {
                            getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}:
                        compared.add((path.stem, function.name))
    assert compared == {("approx", "certified")}

    # The special-value engines refuse a bad tol as every other engine does.
    special = _functions("special_values.py")
    for name in ("zeta", "L_chi4", "L_chi4_prime_at_1", "euler_gamma", "gamma_gauss"):
        assert "check_tol" in _reachable(special, special[name]), name


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


# Runs cli.main on each argv given as JSON, after the imports, and writes
# the exit codes and the (file, first line) of every package function called.
_CALL_TRACER = """
import json, os, sys
from thetaeval import cli
package = os.path.dirname(cli.__file__)
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

out, *argvs = sys.argv[1:]
sys.setprofile(profile)
codes = [cli.main(json.loads(argv)) for argv in argvs]
sys.setprofile(None)
with open(out, "w") as f:
    json.dump({"codes": codes, "called": sorted(called)}, f)
"""

# Package functions that no verify run calls, each kept for a caller outside
# the run: acceptance criterion 01 multiplies two q-series, the benchmark's
# layer spans wrap upper_incomplete_gamma by name, and tests/test_acceptance.py
# calls the rest.
KEPT_OUTSIDE_A_RUN = {
    ("qseries", "QSeries.__mul__"), ("qseries", "r_from_theta_squared"),
    ("epstein", "upper_incomplete_gamma"), ("kronecker", "target_limit_check"),
    ("number_theory", "r_divisor"), ("number_theory", "r_bruteforce"),
    ("number_theory", "_check_positive"),
}


def _defined_functions(path):
    # (qualified name, lines a code object may start at) of every function
    # defined in one module; a decorated one starts at a decorator or its def.
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.append((name, {child.lineno} | {d.lineno for d in child.decorator_list}))
                visit(child, name + ".<locals>.")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_function_of_the_package_is_reached_by_a_run(tmp_path):
    # The default run and one run through the integral, epstein and
    # kronecker suites with a stalling form and a tolerance override call
    # every function of src/ but those kept for a caller outside a run: code
    # that only tests reach belongs in tests/.
    argvs = [["--json", str(tmp_path / "default.json")],
             ["integral", "epstein", "kronecker", "--form", "1,0.53,1e4", "--form", "1,0,1e-300",
              "--tol", "integral/f-at-1/1,0.53,10000=1e-9", "--json", str(tmp_path / "wide.json")]]
    proc = _run_with_package(["-c", _CALL_TRACER, str(tmp_path / "called.json"),
                              *map(json.dumps, argvs)])
    assert proc.returncode == 0, proc.stderr
    traced = json.loads((tmp_path / "called.json").read_text())
    assert traced["codes"] == [0, 3]
    called = {tuple(site) for site in traced["called"]}
    unreached = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
                 for name, lines in _defined_functions(path)
                 if not any((path.name, line) in called for line in lines)}
    assert unreached == KEPT_OUTSIDE_A_RUN


def test_the_product_side_of_lemma_one_never_reaches_the_squares():
    # triple-product/theta-vs-product compares two computations only while
    # the product is expanded from its factors, never from the squares.
    # Calls are followed into number_theory too, whose odd-divisor sieve
    # the product's logarithmic derivative shares with the divisor table.
    functions = {**_functions("number_theory.py"), **_functions("qseries.py")}
    reached = _reachable(functions, functions["triple_product_qseries"])
    assert "_odd_divisor_sums" in reached
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
