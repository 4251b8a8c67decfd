"""Every call the benchmark makes on a gnnase module must fit its signature.

The benchmark's output checks run only when the benchmark runs, so a
keyword dropped from the package would otherwise go unnoticed by the unit
suite. This test only reads ``benchmark/*.py``. Each call ``m.f(...)`` on
a module imported as ``from gnnase import m`` must bind, by its number of
positional arguments and its keyword names, to ``inspect.signature(m.f)``.
Names resolve by Python's scope rules: a function sees its own names, then
those of the functions around it, then the module's (a class body is
skipped). A name that a scope binds to anything besides a gnnase module,
or binds twice, is not a module there: in ``run.py`` one method imports
``config`` from gnnase and another makes ``config`` a local ``RunConfig``.
A call that unpacks ``*args`` or ``**kwargs`` binds only the arguments it
spells out.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the bodies of the functions and classes it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def bindings(scope: ast.AST) -> dict:
    """Each name ``scope`` binds: its gnnase module, or None for any other or a second binding."""
    bound: dict = {}

    def bind(name, module=None):
        bound[name] = module if name not in bound else None

    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bind(node.id)
        elif isinstance(node, ast.arg):
            bind(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bind(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            gnnase = isinstance(node, ast.ImportFrom) and node.module == "gnnase"
            for alias in node.names:
                module = f"gnnase.{alias.name}" if gnnase else None
                bind(alias.asname or alias.name.split(".")[0], module)
    return bound


def scope_calls(scope: ast.AST, outer: dict):
    """(call, module) for each ``m.f(...)`` in ``scope`` and the scopes in it whose ``m`` is a module."""
    names = {**outer, **bindings(scope)}
    for node in own_nodes(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and names.get(node.func.value.id)
        ):
            yield node, names[node.func.value.id]
        if isinstance(node, SCOPES):
            # The functions of a class body see the names around the class, not its own.
            yield from scope_calls(node, outer if isinstance(scope, ast.ClassDef) else names)


def package_calls() -> list:
    """One pytest.param(module, attr, positional count, keywords, unpacks) per call site."""
    calls = []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node, module in scope_calls(ast.parse(path.read_text()), {}):
            alias, attr = node.func.value.id, node.func.attr
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            unpacks = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            calls.append(pytest.param(
                module, attr, len(positional), keywords, unpacks,
                id=f"{path.name}:{node.lineno}:{alias}.{attr}",
            ))
    return calls


CALLS = package_calls()


@pytest.mark.parametrize("module_name, attr, positional, keywords, unpacks", CALLS)
def test_call_binds_to_the_package_signature(module_name, attr, positional, keywords, unpacks):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} is not a callable of the package"
    signature = inspect.signature(target)
    bind = signature.bind_partial if unpacks else signature.bind
    try:
        bind(*[None] * positional, **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(f"{module_name}.{attr}{signature} rejects the benchmark's call: {err}")


def test_scan_finds_the_pinned_model_calls():
    found = {(p.values[0], p.values[1]) for p in CALLS}
    pinned = ("forward", "loss_and_grads", "loss_value", "gcn_layer", "reweight_edges")
    assert {("gnnase.model", name) for name in pinned} <= found


def test_scan_resolves_names_per_scope():
    # run.py's Bench.__init__ imports config from gnnase; Bench.ingest binds a
    # local config = replace(self.defaults, ...), whose split_seed() is no module call.
    found = {(p.values[0], p.values[1]) for p in CALLS if p.id.startswith("run.py:")}
    assert ("gnnase.config", "RunConfig") in found
    assert ("gnnase.config", "split_seed") not in found
    source = """
from gnnase import model, simulate
def f(model):
    model.gone()
    simulate.kept()
    def g():
        model.gone()
        simulate = None
        simulate.gone()
class C:
    simulate = 1
    def h(self):
        simulate.kept()
"""
    calls = [(module, node.func.attr) for node, module in scope_calls(ast.parse(source), {})]
    assert calls == [("gnnase.simulate", "kept")] * 2
