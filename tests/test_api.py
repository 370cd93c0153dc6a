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


class _RaiseFinder(ast.NodeVisitor):
    """Every raise statement of a module, with the names it may use
    without being a class: the enclosing functions' parameters annotated
    ``type[NakasumError]`` and the names bound by enclosing except clauses."""

    def __init__(self):
        self.scope = [set()]
        self.raises = []

    def visit_FunctionDef(self, node):
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        typed = {a.arg for a in args
                 if a.annotation is not None and ast.unparse(a.annotation) == "type[NakasumError]"}
        self.scope.append(self.scope[-1] | typed)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ExceptHandler(self, node):
        self.scope.append(self.scope[-1] | ({node.name} if node.name else set()))
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        self.raises.append((node, self.scope[-1]))
        self.generic_visit(node)


def test_every_raise_is_a_package_error():
    # no bare builtin error can come back: each raise re-raises, or raises
    # a NakasumError subclass by name or through an error-class parameter
    package = pathlib.Path(nakasum.__file__).parent
    bad = []
    for path in sorted(package.glob("*.py")):
        module = nakasum if path.stem == "__init__" else importlib.import_module(
            f"nakasum.{path.stem}")
        finder = _RaiseFinder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        for node, allowed in finder.raises:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if exc is None or isinstance(exc, ast.Name) and exc.id in allowed:
                continue
            raised = getattr(module, ast.unparse(exc), None)
            if not (isinstance(raised, type) and issubclass(raised, nakasum.NakasumError)):
                bad.append(f"{path.name}:{node.lineno} raises {ast.unparse(exc)}")
    assert not bad, bad
