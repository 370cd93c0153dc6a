"""Public names: the package exports and the functions the benchmark's
tracer wraps by name."""
import ast
import importlib
import pathlib
import pkgutil

import nakasum

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """The tracer's TARGETS mapping (layer -> function names), read from its
    source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_tracer_names_resolve():
    targets = tracer_targets()
    # install() also wraps specfun.quad to count adaptive fallbacks
    names = [(layer, name) for layer, names in targets.items() for name in names]
    names.append(("specfun", "quad"))
    for layer, name in names:
        module = importlib.import_module(f"nakasum.{layer}")
        assert callable(getattr(module, name, None)), f"nakasum.{layer}.{name}"


def test_all_exports_resolve():
    # the package and every submodule: a removal that leaves a stale
    # export fails here
    modules = [nakasum] + [importlib.import_module(f"nakasum.{info.name}")
                           for info in pkgutil.iter_modules(nakasum.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
