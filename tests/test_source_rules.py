"""Rules that every engine module keeps, checked on the source itself."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chowcalc"


def test_engine_has_no_assert_statements():
    # checks are raises: `python -O` strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_engine_imports_only_at_module_level():
    # a function-local import hides a module's dependencies from its header
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = set(tree.body)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in top]
    assert found == []


def test_engine_imports_are_used():
    # a name a module imports and never loads is a dead dependency;
    # __init__.py imports to re-export, so it is exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{node.lineno}:{bound}" for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names
                  for bound in [alias.asname or alias.name.split(".")[0]]
                  if bound not in loaded]
    assert found == []


def test_engine_imports_no_private_names():
    # a private name is a module's own; another module that needs it needs
    # it made public
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}:{alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_engine_functions_read_every_parameter():
    # a module-level function's parameter that its body never reads is dead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            found += [f"{path.name}:{fn.name}({a.arg})" for a in params
                      if a.arg not in read]
    assert found == []


def test_engine_defines_no_unreachable_functions():
    # a module-level function or class that no engine code loads and the
    # package does not export is test-only or dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    reachable = set(importlib.import_module("chowcalc").__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reachable.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reachable.add(node.attr)
    found = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name not in reachable]
    assert found == []


def test_engine_private_functions_are_referenced_outside_their_own_body():
    # a module-level helper that only its own body names (or nothing names)
    # is dead code, even when the package still imports cleanly
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))]
    refs = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.attr, []).append(node)
    found = []
    for path, tree in zip(sorted(SRC.glob("*.py")), trees):
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")):
                own = set(ast.walk(fn))
                if all(node in own for node in refs.get(fn.name, ())):
                    found.append(f"{path.name}:{fn.name}")
    assert found == []


def test_engine_builds_no_sympy_expressions():
    # the engine reaches sympy through its sparse rings only: symbols,
    # Poly and the expression-level factor_list stay out of src/
    banned = {"Symbol", "Rational", "Integer", "Poly", "factor_list"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and isinstance(node.value, ast.Name) and node.value.id == "sympy"):
                found.append(f"{path.name}:{node.lineno}:sympy.{node.attr}")
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "sympy"):
                found += [f"{path.name}:{node.lineno}:{alias.name}" for alias in node.names
                          if alias.name in banned]
    assert found == []


def test_one_function_reaches_sympy_factorization():
    # every recognizer in primes.factor answers on its own or passes the
    # polynomial on; none may fall back to sympy quietly, so factor_list is
    # named in _factor_with_sympy alone
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for func in ast.walk(tree):  # outer functions first: inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        found |= {f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "factor_list"
                  or isinstance(node, ast.Name) and node.id == "factor_list"}
    assert found == {"primes.py:_factor_with_sympy"}


def test_only_morphisms_reads_the_pushforward_graph():
    # ChartMap.graph() is the pushforward's presentation, free to drop
    # variables and relations; other modules build graphs on their own rings
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "graph"]
    assert found and {entry.split(":")[0] for entry in found} == {"morphisms.py"}


def test_only_the_kernels_search_independent_sets():
    # dimensions and residue degrees belong to groebner and primes; a
    # pushforward degree is counted on the basis that gives the image
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [path.name for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "independent_set" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))]
    assert found and set(found) <= {"groebner.py", "primes.py"}


def test_one_function_of_primes_passes_over_unfactorable_polynomials():
    # every split reads its factorizations through one loop, so a
    # polynomial outside factor's fragment is handled in one place
    tree = ast.parse((SRC / "primes.py").read_text(encoding="utf-8"))
    found = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and any(isinstance(handler, ast.ExceptHandler) and handler.type is not None
                     and "FactorizationUnavailable" in ast.unparse(handler.type)
                     for handler in ast.walk(node))]
    assert found == ["_factorizations"]


def test_fields_take_number_theory_from_sympy():
    # primality of p and square roots in F_p are sympy.ntheory's, exact
    # below the same bound: fields.py keeps no loop of its own for either
    def named(body, kind, name):
        return next(node for node in body if isinstance(node, kind) and node.name == name)

    tree = ast.parse((SRC / "fields.py").read_text(encoding="utf-8"))
    prime_field = named(tree.body, ast.ClassDef, "PrimeField")
    cases = ((named(tree.body, ast.FunctionDef, "_is_prime"), "isprime"),
             (named(prime_field.body, ast.FunctionDef, "sqrt"), "sqrt_mod"))
    for fn, callee in cases:
        nodes = list(ast.walk(fn))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in nodes), fn.name
        assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == callee for node in nodes), fn.name


def test_engine_names_one_rational_type():
    # QQ's coefficient type is fields.py's choice alone: values of two
    # rational types do not mix in arithmetic, so no other module builds one
    banned = {"fractions", "sympy.external.pythonmpq"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}:{alias.name}" for alias in node.names
                          if alias.name in banned]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [f"{path.name}:{node.lineno}:{node.module}" for alias in node.names
                          if banned & {node.module, f"{node.module}.{alias.name}"}]
    assert found == []


def test_only_module_constructors_and_vector_kernels_take_a_chart_ideal():
    # a module carries its algebra: functions of a module read M.modulo, so
    # the chart ideal is set only where a module is built, or handed to the
    # kernels that work on bare coordinate vectors
    def functions(body, prefix=""):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
                yield from functions(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                yield from functions(node.body, f"{prefix}{node.name}.")

    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn in functions(tree.body):
            args = fn.args
            if any(a.arg == "modulo" for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.add(f"{path.name}:{name}")
    assert found == {"homology.py:FPModule.__init__", "homology.py:FPModule.free",
                     "homology.py:FPModule.cyclic", "homology.py:coefficient_module",
                     "homology.py:syzygies", "homology.py:fold_modulo"}


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these by name and fails mid-run on a missing one;
    # its list is read as text, so nothing of the benchmark is imported
    path = ROOT / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    assert traced
    missing = []
    for module, name in traced:
        target = importlib.import_module(f"chowcalc.{module}")
        for part in name.split("."):
            target = getattr(target, part, None)
        if not inspect.isfunction(target):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_ring_and_field_mismatches_raise_ring_mismatch_error():
    # a caller catching RingMismatchError sees every mismatch of rings or
    # fields, wherever in the engine it is found
    phrases = ("different ring", "across rings", "different field", "base fields")
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            text = " ".join(part.value for part in ast.walk(node.exc)
                            if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if (any(phrase in text for phrase in phrases)
                    and not (isinstance(node.exc, ast.Call)
                             and getattr(node.exc.func, "id", None) == "RingMismatchError")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
