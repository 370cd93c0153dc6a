"""Public names: the package exports and the functions the benchmark's
tracer wraps by name."""
import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import nakasum

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_assignment(name):
    """The expression the tracer assigns to a module-level ``name``, read
    from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} assignment in {TRACER}")


def tracer_targets():
    """The tracer's TARGETS mapping (layer -> function names)."""
    return ast.literal_eval(tracer_assignment("TARGETS"))


def test_tracer_names_resolve():
    targets = tracer_targets()
    # install() also wraps specfun.quad to count adaptive fallbacks
    names = [(layer, name) for layer, names in targets.items() for name in names]
    names.append(("specfun", "quad"))
    for layer, name in names:
        module = importlib.import_module(f"nakasum.{layer}")
        assert callable(getattr(module, name, None)), f"nakasum.{layer}.{name}"


def test_tracer_draw_arguments_bind():
    # _DRAWS maps "layer.name" to a function of the call's bound arguments,
    # which it reads by parameter name
    draws = tracer_assignment("_DRAWS")
    for key, reader in zip(draws.keys, draws.values):
        layer, name = ast.literal_eval(key).split(".")
        params = inspect.signature(getattr(importlib.import_module(f"nakasum.{layer}"),
                                           name)).parameters
        used = [n.slice.value for n in ast.walk(reader) if isinstance(n, ast.Subscript)]
        assert used and all(arg in params for arg in used), (layer, name, used)


def test_tracer_reads_fit_flags():
    # the tracer counts FitClampWarning flags on every fitted model
    fields = {f.name for f in dataclasses.fields(nakasum.GammaSumModel)}
    assert "flags" in fields


def test_all_exports_resolve():
    # the package and every submodule: a removal that leaves a stale
    # export fails here
    modules = [nakasum] + [importlib.import_module(f"nakasum.{info.name}")
                           for info in pkgutil.iter_modules(nakasum.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
