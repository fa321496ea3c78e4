"""Checks on the program's source text."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import turncover

SOURCE = Path(turncover.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _self_calls(tree: ast.Module) -> list[str]:
    """Functions that call themselves by name, or methods that call
    themselves through ``self`` or ``cls``, with their line numbers."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")):
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_no_function_calls_itself():
    # no stage may depend on the interpreter's recursion limit
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    offenders = {path.name: _self_calls(ast.parse(path.read_text()))
                 for path in modules}
    assert {name: calls for name, calls in offenders.items() if calls} == {}


def test_no_record_is_built_around_its_init():
    # each record has one constructor: nothing calls ``__new__``
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"]
    assert offenders == []


def _stores_a_parameter(stmt: ast.stmt, params: set[str]) -> bool:
    """Whether ``stmt`` is ``self.__dict__.update(name=name, ...)`` or
    ``self.__dict__["name"] = name`` for parameters ``name`` only."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return (ast.unparse(call.func) == "self.__dict__.update"
                and not call.args and all(
                    kw.arg in params and isinstance(kw.value, ast.Name)
                    and kw.value.id == kw.arg for kw in call.keywords))
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
        return (isinstance(target, ast.Subscript)
                and ast.unparse(target.value) == "self.__dict__"
                and isinstance(target.slice, ast.Constant)
                and target.slice.value in params
                and isinstance(value, ast.Name)
                and value.id == target.slice.value)
    return False


def test_no_init_only_stores_its_parameters():
    # Record binds its fields itself: a constructor that only stores its
    # own parameters unchanged repeats each field name three times
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for func in cls.body:
                if not (isinstance(func, ast.FunctionDef)
                        and func.name == "__init__"):
                    continue
                body = func.body[ast.get_docstring(func) is not None:]
                params = {arg.arg for arg in (*func.args.args[1:],
                                              *func.args.kwonlyargs)}
                if body and all(_stores_a_parameter(stmt, params)
                                for stmt in body):
                    offenders.append(f"{path.name}:{func.lineno} {cls.name}")
    assert offenders == []


def test_src_imports_stdlib_only():
    # the runtime needs nothing beyond the standard library; relative
    # imports stay inside the package
    offenders = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] not in sys.stdlib_module_names]
    assert offenders == []


def test_cli_import_loads_every_layer_without_dataclasses():
    # the records are plain classes: dataclasses and the inspect module
    # it pulls in would cost every process more than planning a small map
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import turncover.cli; print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code,
                           str(SOURCE.parent)], capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    layers = {f"turncover.{path.stem}" for path in SOURCE.glob("*.py")
              if path.stem != "__init__"}
    assert len(layers) == 9 and layers <= loaded


def test_src_imports_only_at_module_level():
    # no import is deferred into a function, so importing turncover.cli
    # pays for every layer up front, and none of them is dataclasses
    offenders = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{path.name}:{node.lineno} inside {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}"
                          for name in names
                          if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def _names(paths) -> set[str]:
    """Every name that the modules ``paths`` read: ``Name`` ids,
    ``Attribute`` attributes and import aliases."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
    return names


def test_every_definition_is_named_by_a_caller():
    # a function, method or class that neither the package nor the
    # benchmark names is dead code. Special methods are called by the
    # interpreter and an override by its base class, so those are exempt
    perfbench = sorted(PERFBENCH.glob("*.py"))
    assert perfbench
    named = _names([*SOURCE.glob("*.py"), *perfbench])
    dead = []
    for path in sorted(SOURCE.glob("*.py")):
        module = (turncover if path.stem == "__init__" else
                  importlib.import_module(f"turncover.{path.stem}"))
        tree = ast.parse(path.read_text())
        exempt = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                bases = getattr(module, cls.name).__mro__[1:]
                exempt.update(
                    id(func) for func in cls.body
                    if isinstance(func, ast.FunctionDef)
                    and (func.name.startswith("__")
                         and func.name.endswith("__")
                         or any(func.name in vars(base) for base in bases)))
        dead += [f"{path.name}:{node.lineno} {node.name}"
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                 and node.name not in named and id(node) not in exempt]
    assert dead == []


def test_every_class_is_a_record_or_an_error():
    # a plain class holding data would bring back a mutable record that
    # compares by identity; the two allowed ones are a cost evaluator
    # and argparse's parser, which hold no plan data
    allowed = {"balance.LoopCostModel", "cli._Parser"}
    others = []
    for path in sorted(SOURCE.glob("*.py")):
        module = (turncover if path.stem == "__init__" else
                  importlib.import_module(f"turncover.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            if not (issubclass(cls, (turncover.grid_map.Record, Exception))
                    or f"{path.stem}.{node.name}" in allowed):
                others.append(f"{path.name}:{node.lineno} {node.name}")
    assert others == []
