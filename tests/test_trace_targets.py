"""Every function the benchmark tracer patches must exist in the package.

The tracer skips a target it cannot find and then reports zero calls for
it, so a renamed or deleted function would blind a benchmark layer without
any failure. This test only reads ``benchmark/spans.py``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def traced_paths() -> list[str]:
    """The ``module.attr`` paths of the literal ``TRACED`` table, read without running spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return [path for paths in ast.literal_eval(node.value).values() for path in paths]
    raise AssertionError("benchmark/spans.py defines no TRACED table")


@pytest.mark.parametrize("path", traced_paths())
def test_traced_target_is_callable(path):
    module_name, attr = path.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), attr, None)), path
