"""Structure guards, checked on the source by ``ast``.

* Only ``main`` and ``_render`` in ``cli.py`` read the ``format`` setting or
  branch on a format name: every command builds all its views in one pass.
* No function in ``identities.py``, ``congruences.py`` or ``cli.py`` compares
  coefficients in a Python loop: a ``for`` over ``range(...)``, or over a
  ``zip(...)`` of coefficient sequences, whose body tests ``!=``.  Such
  comparisons go through ``series.mismatches``.
* The two counting generating functions are stated once, as the phi(-q^s)
  exponents of ``eta._GF_THETAS``: ``congruences.py`` takes nothing from
  ``eta`` but ``family_gf``, and ``expr.evaluate`` names no family kind.  In
  ``eta.py`` a family kind is named only as a ``_GF_THETAS`` key or a
  ``family_gf`` argument.  Only ``_gf_thetas`` and the derived ``GF_BASE``
  read the table, and ``GF_BASE``, ``family_gf``, ``gf_mismatch`` and
  ``expr.gf_series`` all take the exponents from ``_gf_thetas``.
* One function steps between series powers, ``series._ladder``: it is
  the only function in ``overq`` that squares (an assignment, augmented
  assignment or return of a product ``x * x`` of one operand), and
  ``eta.py`` and ``congruences.py`` define no ``_rung`` or ``_power``.
  ``Series.__pow__``, ``eta._f1_power`` and ``SeriesProvider.values`` all
  call it.
* ``SeriesProvider`` raises no series to a power (no ``**``, ``pow`` or
  ``__pow__``), and ``_bucket`` multiplies nothing and defines no inner
  function, so the ladder over its memo is the one path that steps between
  powers.  No method reduces the tuple parameter in place (no ``param %=``):
  a power-of-2 modulus is served from the binomial table, which one method,
  ``_table``, builds, multiplying by nothing but base - 1.  The provider
  calls ``family_gf`` once for its modular buckets, in ``_bucket``, and
  ``_bucket`` constructs no ``Series``, so every bucket is an expanded base
  and no bucket copies another's powers (``gf_exact`` makes the other
  ``family_gf`` call, over the exact ring).
* Refusals reach the exit code in one place: in ``cli.py`` only ``main``
  catches ``BudgetError`` or ``UsageError``, and ``verify_dissection_step``
  refuses an order or a parameter over its budget with ``BudgetError``.
* Every name in an ``overq`` module's ``__all__`` is defined there: the bench
  tracer looks each one up by name.
* A dissection step checked at one point is an identity case: no module
  defines a ``StepReport``, and ``verify_dissection_step`` calls
  ``verify_identity`` and builds no report class but ``IdentityReport``.
* A step's point is checked in one place, ``verify_dissection_step``:
  ``cli.cmd_replay`` calls no ``step_registry`` and reads no ``param_names``.
* The slot byte layout is decided in the slot helpers only:
  ``series._convolve_mod``, ``series._convolve_packed`` and their shared
  ``series._packed_product`` read no ``sys.byteorder``.
* A congruence family's formulas are one compiled point expression:
  ``congruences.py`` calls ``compile`` once, in ``_point_code``, and
  ``eval`` once, in ``CongruenceFamily.point``, so no per-formula
  evaluator sits beside it.  The expression is compiled from source text:
  ``congruences.py`` calls nothing from ``ast`` but ``parse`` and ``walk``,
  so it builds no node and fixes no locations.  Only ``default_grid``
  calls ``.point(``, so each grid candidate is evaluated once and every
  other reader takes the point it returned.
* Recipes have one evaluator: ``expr.evaluate`` is the only function in
  ``overq`` that dispatches on recipe node types (``isinstance`` or
  ``type`` against a recipe class, or a class pattern of ``match``).  The
  walk that finds an exact case's denominator is a method of each node.
* Every method that the bench tracer wraps (``METHODS`` in
  ``bench/spans.py``, read without importing it) is defined on its class,
  where ``Tracer.install`` looks it up.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import overq

SOURCE = Path(overq.__file__).parent
SPANS = Path(__file__).parent.parent / "bench" / "spans.py"
FORMAT_NAMES = {"json", "csv", "table"}


def _functions(path):
    tree = ast.parse(path.read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _reads_format(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if node.slice.value == "format":  # settings["format"]
                return True
        if isinstance(node, ast.Attribute) and node.attr == "format":
            if not isinstance(node.value, ast.Constant):  # args.format, not "...".format
                return True
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            if any(isinstance(a, ast.Constant) and a.value == "format" for a in node.args):
                return True
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value in FORMAT_NAMES for o in operands):
                return True
    return False


def _coefficient_loop(loop_iter):
    """A range(...) or zip(...coeffs...) loop iterator, possibly under enumerate."""
    if isinstance(loop_iter, ast.Call) and getattr(loop_iter.func, "id", None) == "enumerate":
        loop_iter = loop_iter.args[0]
    if not isinstance(loop_iter, ast.Call):
        return False
    name = getattr(loop_iter.func, "id", None)
    return name == "range" or (name == "zip" and "coeffs" in ast.unparse(loop_iter))


def _tests_inequality(nodes):
    return any(
        isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops)
        for root in nodes
        for node in ast.walk(root)
    )


def coefficient_loops(path):
    """Names of the functions in ``path`` that compare coefficients in a Python loop."""
    found = set()
    for function in _functions(path):
        for node in ast.walk(function):
            if isinstance(node, ast.For) and _coefficient_loop(node.iter):
                if _tests_inequality(node.body):
                    found.add(function.name)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                if any(_coefficient_loop(g.iter) for g in node.generators):
                    if _tests_inequality([node]):
                        found.add(function.name)
    return found


def test_only_main_and_render_read_the_format_setting():
    readers = {f.name for f in _functions(SOURCE / "cli.py") if _reads_format(f)}
    assert readers == {"main", "_render"}


def test_no_coefficient_comparison_loops():
    for module in ("identities.py", "congruences.py", "cli.py"):
        assert coefficient_loops(SOURCE / module) == set(), module


def test_gf_bases_are_read_only_through_family_gf():
    tree = ast.parse((SOURCE / "congruences.py").read_text())
    from_eta = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "eta"
        for alias in node.names
    }
    assert from_eta == {"family_gf"}
    evaluate = next(f for f in _functions(SOURCE / "expr.py") if f.name == "evaluate")
    kinds = {"overpartition", "opt"}
    assert not any(isinstance(n, ast.Constant) and n.value in kinds for n in ast.walk(evaluate))


def _top_level_uses(path, name):
    """The names of the top-level functions and assignments of a module that
    read ``name``."""
    tree = ast.parse(path.read_text())
    return {
        node.name if isinstance(node, ast.FunctionDef) else ast.unparse(node.targets[0])
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.Assign))
        and any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node)
        )
    }


def test_eta_states_the_bases_once():
    # the phi table is the one literal table keyed by kind
    tree = ast.parse((SOURCE / "eta.py").read_text())
    kinds = {"overpartition", "opt"}
    (table,) = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_GF_THETAS"
    ]
    assert isinstance(table, ast.Dict)
    allowed = {id(key) for key in table.keys} | {
        id(node.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "family_gf"
    }
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value in kinds]
    assert named and all(id(n) in allowed for n in named)  # no second table keyed by kind
    # _gf_thetas reads it, and GF_BASE and every consumer derive from _gf_thetas
    assert _top_level_uses(SOURCE / "eta.py", "_GF_THETAS") == {"_gf_thetas", "GF_BASE"}
    assert _top_level_uses(SOURCE / "eta.py", "_gf_thetas") == {
        "GF_BASE", "family_gf", "gf_mismatch"
    }
    assert _top_level_uses(SOURCE / "expr.py", "_gf_thetas") == {"gf_series"}
    assert _top_level_uses(SOURCE / "expr.py", "GF_BASE") == set()


def test_provider_steps_by_its_ladder_and_expands_in_one_place():
    tree = ast.parse((SOURCE / "congruences.py").read_text())
    provider = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "SeriesProvider"
    )
    nodes = list(ast.walk(provider))
    powers = [
        node for node in nodes
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
        or isinstance(node, ast.Name) and node.id == "pow"
        or isinstance(node, ast.Attribute) and node.attr == "__pow__"
    ]
    assert powers == []
    callers = [
        method.name
        for method in provider.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "family_gf"
    ]
    assert sorted(callers) == ["_bucket", "gf_exact"]  # gf_exact is the exact ring's
    bucket = next(
        method for method in provider.body
        if isinstance(method, ast.FunctionDef) and method.name == "_bucket"
    )
    inner = list(ast.walk(bucket))[1:]
    assert not any(isinstance(node, ast.Mult) for node in inner)  # squaring is the ladder's
    assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda)) for node in inner)
    assert not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Series" for node in inner
    )  # a divisor is served from its multiple's powers, not from a copy of them


def _squares(function):
    """Whether ``function`` steps a power by squaring: an assignment,
    augmented assignment or return whose value is a product x * x of one
    operand."""
    for node in ast.walk(function):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            if ast.unparse(node.target) == ast.unparse(node.value):
                return True
        if isinstance(node, (ast.Assign, ast.Return, ast.NamedExpr)):
            value = node.value
            if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
                if ast.unparse(value.left) == ast.unparse(value.right):
                    return True
    return False


def test_one_ladder_steps_between_powers():
    squarers = [
        (path.name, function.name)
        for path in sorted(SOURCE.glob("*.py"))
        for function in _functions(path)
        if _squares(function)
    ]
    assert squarers == [("series.py", "_ladder")]
    for module in ("eta.py", "congruences.py"):
        names = {function.name for function in _functions(SOURCE / module)}
        assert not names & {"_rung", "_power"}, module
    callers = {
        function.name
        for path in sorted(SOURCE.glob("*.py"))
        for function in _functions(path)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_ladder"
    }
    assert callers == {"__pow__", "_f1_power", "values"}


def test_provider_reads_power_of_2_moduli_off_one_table():
    tree = ast.parse((SOURCE / "congruences.py").read_text())
    provider = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "SeriesProvider"
    )
    reductions = [
        node for node in ast.walk(provider)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod)
        and getattr(node.target, "id", None) == "param"
    ]
    assert reductions == []  # no period: every parameter is served as itself
    builders = [
        method for method in provider.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and isinstance(node.slice, ast.Constant) and node.slice.value == "table"
    ]
    assert [method.name for method in builders] == ["_table"]
    (table,) = builders
    factors = {
        ast.unparse(node.right)
        for node in ast.walk(table)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
    }
    steps = {
        ast.unparse(node.targets[0]): ast.unparse(node.value)
        for node in ast.walk(table)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
    }
    assert len(factors) == 1, factors  # one factor, base^1 - base^0: the base, constant zeroed
    (factor,) = factors
    assert steps[factor] == "Series._from_canonical(base.ring, (0,) + base.coeffs[1:])"
    assert steps["(unit, base)"] == "(bucket['powers'][0], bucket['powers'][1])"


def _caught_names(handler):
    if handler.type is None:
        return set()
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types}


def test_only_main_turns_refusals_into_exit_codes():
    refusals = {"BudgetError", "UsageError"}
    catchers = {
        function.name
        for function in _functions(SOURCE / "cli.py")
        for node in ast.walk(function)
        if isinstance(node, ast.ExceptHandler) and _caught_names(node) & refusals
    }
    assert catchers == {"main"}


def test_step_order_budget_raises_budget_error():
    step = next(
        f for f in _functions(SOURCE / "congruences.py") if f.name == "verify_dissection_step"
    )
    raised = [
        ast.unparse(node.exc.func)
        for node in ast.walk(step)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and any("budget" in ast.unparse(arg) for arg in node.exc.args)
    ]
    assert raised == ["BudgetError", "BudgetError"]  # a parameter, then the order


def test_every_exported_name_is_defined():
    names = [info.name for info in pkgutil.iter_modules(overq.__path__)]
    modules = [overq] + [importlib.import_module(f"overq.{name}") for name in names]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if name not in vars(module)]
        assert missing == [], module.__name__


def test_a_step_is_checked_as_an_identity_case():
    for path in SOURCE.glob("*.py"):
        tree = ast.parse(path.read_text())
        classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        assert "StepReport" not in classes, path.name
    step = next(
        f for f in _functions(SOURCE / "congruences.py") if f.name == "verify_dissection_step"
    )
    called = {
        getattr(node.func, "id", None) for node in ast.walk(step) if isinstance(node, ast.Call)
    }
    assert "verify_identity" in called
    assert {name for name in called if name and name.endswith("Report")} == {"IdentityReport"}


def test_replay_leaves_the_step_point_check_to_the_library():
    replay = next(f for f in _functions(SOURCE / "cli.py") if f.name == "cmd_replay")
    nodes = list(ast.walk(replay))
    assert not any(isinstance(n, ast.Name) and n.id == "step_registry" for n in nodes)
    assert not any(isinstance(n, ast.Attribute) and n.attr == "param_names" for n in nodes)


def test_only_the_slot_helpers_read_the_byte_order():
    kernels = [
        f
        for f in _functions(SOURCE / "series.py")
        if f.name in ("_convolve_mod", "_convolve_packed", "_packed_product")
    ]
    assert len(kernels) == 3
    for kernel in kernels:
        assert not any(
            isinstance(n, ast.Attribute) and n.attr == "byteorder" for n in ast.walk(kernel)
        ), kernel.name


def _builtin_calls(path, builtin, field="id"):
    """The enclosing class and function names of each call of ``builtin`` in
    ``path``; with ``field="attr"``, of each call of a method of that name."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.Call) and getattr(child.func, field, None) == builtin:
                found.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text()), ())
    return found


def test_family_formulas_compile_into_one_point_expression():
    path = SOURCE / "congruences.py"
    assert _builtin_calls(path, "compile") == [("_point_code",)]
    assert _builtin_calls(path, "eval") == [("CongruenceFamily", "point")]


def test_family_formulas_are_compiled_from_source_text():
    tree = ast.parse((SOURCE / "congruences.py").read_text())
    used = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "ast"
    }
    assert used == {"parse", "walk"}


def test_only_the_grid_builder_evaluates_family_points():
    calls = {path.name: _builtin_calls(path, "point", "attr") for path in SOURCE.glob("*.py")}
    assert {name: where for name, where in calls.items() if where} == {
        "congruences.py": [("default_grid",)]
    }


def _recipe_classes():
    tree = ast.parse((SOURCE / "expr.py").read_text())
    classes = {"Recipe"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & classes:
            classes.add(node.name)
    return classes


def _dispatches_on(function, classes):
    """Whether ``function`` tests a value's type against one of ``classes``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "type"):
            named = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if named & classes:
                return True
        if isinstance(node, ast.Compare) and "type(" in ast.unparse(node):
            if {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & classes:
                return True
        if isinstance(node, ast.MatchClass) and ast.unparse(node.cls).split(".")[-1] in classes:
            return True
    return False


def test_recipes_have_one_evaluator():
    classes = _recipe_classes()
    assert {"EtaRecipe", "SubstRecipe", "DissectRecipe"} <= classes
    dispatchers = [
        (path.name, function.name)
        for path in sorted(SOURCE.glob("*.py"))
        for function in _functions(path)
        if _dispatches_on(function, classes)
    ]
    assert dispatchers == [("expr.py", "evaluate")]


def test_every_traced_method_is_defined_on_its_class():
    tree = ast.parse(SPANS.read_text())
    assigned = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["METHODS"]
    )
    for (layer, cls_name), methods in ast.literal_eval(assigned).items():
        cls = getattr(importlib.import_module(f"overq.{layer}"), cls_name)
        missing = [method for method in methods if method not in vars(cls)]
        assert missing == [], (layer, cls_name)
