"""No module imports a name it never reads.

No linter ships with the project, so this scan is the check: every name an
``import`` binds in ``src/``, ``tests/`` or ``tools/`` must be read somewhere
in the same module.  Names in string annotations count as read;
``__future__`` imports are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py")
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never reads: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "import os\nimport a.b\nfrom x import y as z, w\n"
        "def f(v: 'w') -> None:\n    return a.b\n"
    )
    assert [n for n in _imported(tree) if n not in _read(tree)] == ["os", "z"]
