"""Package layout, read from the source: private names stay private, every public
name has a caller, the CLI has one error boundary, reports are built in one
place, and README's quick start runs."""

import ast
import re
from pathlib import Path

import tanglekit

PACKAGE_DIR = Path(tanglekit.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "tanglekit"
        if sibling:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_sibling_name():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 1
    offenders = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert offenders == []


# Paper quantities kept as public API although no module in the package calls them.
PAPER_QUANTITIES = ("concurrence_squared", "three_tangle")
# Kept for the benchmark: `verify` forms each draw's POVM branches once and no
# longer calls monotonicity_trial, but perfbench's tracer test calls it and
# counts its three monotone calls.
BENCHMARK_ENTRY_POINTS = ("monotonicity_trial",)


def _orphan_names(package_dir: Path) -> list[str]:
    """Top-level public functions and classes that no other top-level statement
    of a package module (``__init__.py`` aside) names.

    A function registered by one of the package's own decorators counts as used.
    """
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package_dir.glob("*.py"))
        if path.name != "__init__.py"
    }
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    defined = {
        stmt.name for stmt in statements if isinstance(stmt, ast.FunctionDef | ast.ClassDef)
    }
    orphans = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, ast.FunctionDef | ast.ClassDef):
                continue
            if stmt.name.startswith("_"):
                continue
            registered = any(
                isinstance(dec, ast.Call) and getattr(dec.func, "id", None) in defined
                for dec in stmt.decorator_list
            )
            used = any(
                stmt.name in (getattr(node, "id", None), getattr(node, "attr", None))
                for other in statements
                if other is not stmt
                for node in ast.walk(other)
                if isinstance(node, ast.Name | ast.Attribute)
            )
            if not (registered or used):
                orphans.append(f"{module}: {stmt.name}")
    return orphans


def test_every_public_name_has_a_caller():
    # Exactly the exempt names: one that is deleted or gains a caller fails here.
    assert _orphan_names(PACKAGE_DIR) == [
        *(f"local_ops.py: {name}" for name in BENCHMARK_ENTRY_POINTS),
        *(f"monotones.py: {name}" for name in PAPER_QUANTITIES),
    ]


# Exception types whose handler would catch a ValueError; a bare ``except`` does too.
CATCHES_VALUE_ERROR = {"ValueError", "StateParseError", "Exception", "BaseException"}


def test_cli_main_is_the_one_value_error_boundary():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    catchers = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
            if node.type is None or names & CATCHES_VALUE_ERROR:
                catchers.append(getattr(stmt, "name", "<module>"))
    assert catchers == ["main"]


def test_reports_are_built_in_one_place():
    # A partition is opened into its Gram matrices by monotones._grams, and
    # every report, zero-column ones included, is evaluated by monotones._report.
    builders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if "InvariantReport" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None)):
                    builders.append(f"{path.name}: {getattr(stmt, 'name', '<module>')}")
    assert builders == ["monotones.py: _report"]


def test_readme_quick_start_runs():
    # The ```python block under README's "## Library quick start" heading.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
