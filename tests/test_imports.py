"""The runtime stays pure standard library: every module that a file of the
package imports is a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

import superell


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "superell" if node.level else node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(Path(superell.__file__).parent.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "superell", f"{path.name} imports {name}"


def test_the_scan_sees_every_kind_of_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os.path, numpy as np\nfrom . import ff\nfrom .poly import x\n"
                    "from sympy import S\ndef f():\n    import json\n")
    assert list(imported_modules(path)) == ["os.path", "numpy", "superell", "superell", "sympy", "json"]


def test_every_re_export_is_importable():
    init = Path(superell.__file__)
    names = [alias.name for node in ast.parse(init.read_text()).body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert len(names) >= 50
    for name in names:
        assert hasattr(superell, name), name


def test_automorphism_signatures_are_pinned():
    import inspect

    from superell.canrep import generator_matrix
    from superell.curve import CurveAutomorphism, apply_automorphism, orbit_partition

    pinned = {
        CurveAutomorphism.root_of_unity: "(zeta: 'FieldElement', m: 'int') -> \"'CurveAutomorphism'\"",
        CurveAutomorphism.mobius: "(a, b, c, d) -> \"'CurveAutomorphism'\"",
        CurveAutomorphism.mobius_ints: "(field: 'FieldDescriptor', a, b, c, d) -> \"'CurveAutomorphism'\"",
        CurveAutomorphism.compose: "(self, then: \"'CurveAutomorphism'\") -> \"'CurveAutomorphism'\"",
        apply_automorphism: "(X: 'SuperellipticCurve', sigma: 'CurveAutomorphism', point)",
        orbit_partition: "(X: 'SuperellipticCurve', gens, e: 'int')",
        generator_matrix: "(B: 'DifferentialBasis', sigma: 'CurveAutomorphism', K=None) -> 'FieldMatrix'",
    }
    for function, signature in pinned.items():
        assert str(inspect.signature(function)) == signature, function.__qualname__
