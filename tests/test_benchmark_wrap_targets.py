"""Guard: every program callable the pipeline benchmark wraps still exists.

``benchmarks/pipeline/spans.py`` measures per-layer time from outside
the program: ``install()`` replaces methods and module-level functions
by name.  A refactor that moves one of them — into a base class, behind
a facade, under a new name — breaks the benchmark without failing any
program test.  This guard reads ``spans.py`` (it never calls
``install()``) and checks each name against the code, in well under a
second.
"""

import ast
import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "benchmarks", "pipeline", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipeline_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _install_body() -> ast.FunctionDef:
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "install")


def _literal_patches(install: ast.FunctionDef, helper: str,
                     arity: int) -> set[tuple[str, ...]]:
    """The name arguments of every ``helper(rec, undo, ...)`` call in
    ``install`` whose names are literals or local string constants (the
    loop over ``TARGETS`` is checked separately)."""
    constants = {target.id: node.value.value
                 for node in ast.walk(install)
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str)
                 for target in node.targets if isinstance(target, ast.Name)}
    found = set()
    for node in ast.walk(install):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == helper):
            continue
        names = []
        for arg in node.args[2:2 + arity]:
            if isinstance(arg, ast.Constant):
                names.append(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in constants:
                names.append(constants[arg.id])
        if len(names) == arity:
            found.add(tuple(names))
    return found


def test_every_target_class_defines_its_wrapped_methods():
    for __, module_name, class_name, methods, contexts in \
            _load_spans().TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods + contexts:
            assert method in vars(cls), (
                f"{class_name}.{method} is not defined on {class_name} "
                f"itself; benchmarks/pipeline/spans.py wraps it by name")


def test_explicitly_wrapped_methods_are_defined_on_their_class():
    patched = _literal_patches(_install_body(), "_patch_method", 3)
    assert {("repro.oodb.address_space", "PassiveAddressSpace", "write"),
            ("repro.core.composer", "Composer", "snapshot_state")} <= patched
    for module_name, class_name, method in patched:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert method in vars(cls), f"{class_name}.{method} moved"


def test_patched_module_functions_exist():
    install = _install_body()
    patched = _literal_patches(install, "_patch_function", 2)
    assert ("repro.storage.serializer", "serialize") in patched
    for module_name, name in patched:
        assert callable(getattr(importlib.import_module(module_name), name,
                                None)), f"{module_name}.{name} moved"
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module}.{alias.name} moved"
