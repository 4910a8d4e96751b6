"""No module under ``src/`` imports a name it never uses.

A stdlib-``ast`` stand-in for a linter's unused-import rule.  A name
counts as used when it appears as a name anywhere in the module, inside a
string annotation (``"Optional[Path]"``), or in the module's ``__all__``.
Package ``__init__.py`` files are skipped: their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"


def _annotation_names(node: ast.AST) -> Set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import in ``source`` the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: List[int] = []\n") == [
        (1, "os"),
        (2, "Optional"),
    ]


def test_string_annotations_and_all_count_as_uses():
    source = (
        "from __future__ import annotations\n"
        "from pathlib import Path\n"
        "from typing import Optional\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(p: 'Optional[Path]') -> 'Path':\n"
        "    return p\n"
    )
    assert unused_imports(source) == []


def test_no_module_under_src_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
