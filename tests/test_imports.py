"""Package layout: no tanglekit module imports a private name from a sibling."""

import ast
from pathlib import Path

import tanglekit

PACKAGE_DIR = Path(tanglekit.__file__).parent


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
