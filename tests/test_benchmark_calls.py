"""Every call the benchmark makes on a gnnase module must fit its signature.

The benchmark's output checks run only when the benchmark runs, so a
keyword dropped from the package would otherwise go unnoticed by the unit
suite. This test only reads ``benchmark/*.py``. Each call ``m.f(...)`` on
a module imported as ``from gnnase import m`` must bind, by its number of
positional arguments and its keyword names, to ``inspect.signature(m.f)``.
A name the file also assigns or takes as a parameter is skipped:
``run.py`` rebinds ``config`` to a ``RunConfig``. A call that unpacks
``*args`` or ``**kwargs`` binds only the arguments it spells out.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def package_calls() -> list:
    """One pytest.param(module, attr, positional count, keywords, unpacks) per call site."""
    calls = []
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        modules = {
            alias.asname or alias.name: f"gnnase.{alias.name}"
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.module == "gnnase"
            for alias in node.names
        }
        rebound = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        rebound |= {n.arg for n in nodes if isinstance(n, ast.arg)}
        aliases = modules.keys() - rebound
        for node in nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases
            ):
                continue
            alias, attr = node.func.value.id, node.func.attr
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            unpacks = len(positional) < len(node.args) or len(keywords) < len(node.keywords)
            calls.append(pytest.param(
                modules[alias], attr, len(positional), keywords, unpacks,
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
