"""The module layering of the code, enumerator and elimination layers.

``enumerator`` and ``linalg`` sit below ``code``: they import only the
standard library and ``.errors``, and no top-level name is defined in
more than one of the three modules, so each routine has one copy.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import whmetric

PACKAGE = Path(whmetric.__file__).parent
LOWER = ("enumerator.py", "linalg.py")


def _tree(name):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", LOWER)
def test_lower_modules_import_only_the_standard_library_and_errors(name):
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "errors"), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.partition(".")[0] in sys.stdlib_module_names, ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.partition(".")[0] in sys.stdlib_module_names, ast.unparse(node)


def _defined(name):
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def test_no_top_level_name_is_defined_twice():
    counts = Counter(n for name in ("code.py",) + LOWER for n in set(_defined(name)))
    assert [n for n, c in counts.items() if c > 1] == []
    assert {"split_weight_enumerator", "_split_counts", "row_reduce"} <= set(counts)
