"""Import boundaries: the test oracle stays in the tests, the deleted
object-tree kernel stays deleted, and the identity rule stays in the FCS
identity table — for reads and for usage alike."""

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

#: the only FCS methods that read the alias map: construction, the alias
#: registration and the table built from it
IDENTITY_MAP_READERS = {"__init__", "register_identity", "identity_table"}

#: the deleted name-keyed usage fold: a second spelling of the rule
DELETED_USAGE_FOLD = {"leaf_row", "_key_users", "_alias_keys"}


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


def _names(node):
    """(node, name) for every attribute, argument, variable, definition and
    import name under ``node``."""
    for sub in ast.walk(node):
        name = getattr(sub, "attr", None) or getattr(sub, "arg", None) \
            or getattr(sub, "id", None) or getattr(sub, "name", None)
        if isinstance(name, str):
            yield sub, name


def test_serve_plane_never_reads_the_identity_rule_inputs():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} reads {name}"
        for path in sorted((SRC / "serve").rglob("*.py"))
        for node, name in _names(ast.parse(path.read_text(), str(path)))
        if name in IDENTITY_INPUTS]
    assert offenders == []


def test_fcs_reads_the_alias_map_only_to_build_the_table():
    path = SRC / "services" / "fcs.py"
    tree = ast.parse(path.read_text(), str(path))
    allowed = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func.name in IDENTITY_MAP_READERS:
            allowed.update(id(sub) for sub in ast.walk(func))
    offenders = [f"fcs.py:{node.lineno}" for node, name in _names(tree)
                 if name == "identity_map" and id(node) not in allowed]
    assert offenders == []


def test_usage_reaches_a_leaf_only_through_the_identity_table():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} names {name}"
        for path in sorted(SRC.rglob("*.py"))
        for node, name in _names(ast.parse(path.read_text(), str(path)))
        if name in DELETED_USAGE_FOLD]
    assert offenders == []
