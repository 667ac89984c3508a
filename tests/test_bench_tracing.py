"""The bench's trace names resolve on the package.

`bench/tracing.py` wraps superell functions by (module, qualified name).
A rename or a move of one of them breaks `bench/run.py --trace 1`; this
test reads the names from the bench file and looks each one up, as the
tracer does, so such a refactor fails here instead.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names(table):
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [table]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{table} not found in {TRACING}")


@pytest.mark.parametrize("table", ["SPANS", "COUNTED"])
def test_every_traced_name_resolves(table):
    names = traced_names(table)
    assert names
    for module, qualname in names:
        owner = importlib.import_module(f"superell.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module}.{qualname}"
        assert callable(vars(owner)[attr]), f"{module}.{qualname}"
