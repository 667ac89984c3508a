import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="session")
def bench_workloads():
    """`bench/workloads.py`, imported once without changing it and left out
    of `sys.modules`."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
