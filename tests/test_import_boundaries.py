"""Import boundaries: the test oracle stays in the tests, and the deleted
object-tree kernel stays deleted."""

import ast
import importlib.util
from pathlib import Path

import repro.core

SRC = Path(repro.core.__file__).resolve().parents[1]

DELETED_KERNEL = {"FairshareNode", "FairshareTree", "compute_fairshare_tree",
                  "UsageNode", "UsageTree", "build_usage_tree"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_module_under_src_imports_the_tests():
    offenders = [f"{path.relative_to(SRC)} imports {module}"
                 for path in sorted(SRC.rglob("*.py"))
                 for module in _imported_modules(path)
                 if module == "tests" or module.startswith("tests.")]
    assert offenders == []


def test_core_exports_no_object_tree_kernel():
    assert not DELETED_KERNEL & set(repro.core.__all__)
    assert not any(hasattr(repro.core, name) for name in DELETED_KERNEL)
    assert importlib.util.find_spec("repro.core.fairshare") is None
