"""Import boundaries: the test oracle stays in the tests, the deleted
object-tree kernel stays deleted, the identity rule stays in the FCS
identity table — for reads and for usage alike — and the evaluation plane
has one series type and one convergence measure."""

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

#: the deleted second series stack and second convergence measure
DELETED_SERIES_STACK = {"TimeSeries", "MetricsRecorder", "convergence_half_life"}


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


def _module_of(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _resolved_imports(path):
    """Absolute names of every module ``path`` may import, relative
    imports resolved; ``from pkg import name`` yields ``pkg.name`` too, as
    the name may be a submodule."""
    package = _module_of(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] \
                    if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _module_path(module):
    base = SRC.parent.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _import_closure(module):
    """Every ``repro`` module importing ``module`` may load, parent
    packages included (function-level imports count too)."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            path = _module_path(prefix)
            if path is None or prefix in seen:
                continue
            seen.add(prefix)
            todo.extend(m for m in _resolved_imports(path)
                        if m.split(".")[0] == "repro")
    return seen


def test_nothing_imports_the_deleted_series_module():
    offenders = [f"{path.relative_to(SRC)} imports {module}"
                 for path in sorted(SRC.rglob("*.py"))
                 for module in _resolved_imports(path)
                 if module == "repro.sim.metrics"]
    assert offenders == []


def test_one_series_type_and_one_convergence_measure():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} names {name}"
        for path in sorted(SRC.rglob("*.py"))
        for node, name in _names(ast.parse(path.read_text(), str(path)))
        if name in DELETED_SERIES_STACK]
    assert offenders == []


def test_daemon_import_closure_stays_off_the_experiments():
    closure = _import_closure("repro.serve.daemon")
    assert "repro.obs.timeseries" in closure  # the walk does reach obs
    offenders = sorted(m for m in closure
                       if m == "repro.sim.metrics"
                       or m.split(".")[:2] == ["repro", "experiments"])
    assert offenders == []
