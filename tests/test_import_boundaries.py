"""Import boundaries: the test oracle stays in the tests, the deleted
object-tree kernel stays deleted, and the identity rule stays in the FCS."""

import ast
import importlib.util
from pathlib import Path

import repro.core

SRC = Path(repro.core.__file__).resolve().parents[1]

DELETED_KERNEL = {"FairshareNode", "FairshareTree", "compute_fairshare_tree",
                  "UsageNode", "UsageTree", "build_usage_tree"}

#: the inputs of the identity rule; the serve plane reads its output, the
#: FCS identity table, and never re-derives it from these
IDENTITY_INPUTS = {"identity_map", "by_name"}


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


def test_serve_plane_never_reads_the_identity_rule_inputs():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} reads {name}"
        for path in sorted((SRC / "serve").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in [getattr(node, "attr", None) or getattr(node, "arg", None)
                     or getattr(node, "id", None)]
        if name in IDENTITY_INPUTS]
    assert offenders == []
