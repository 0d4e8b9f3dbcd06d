"""Every top-level import of a package module is used by that module."""

import ast
from pathlib import Path

import cloudrerun

PACKAGE = Path(cloudrerun.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never references.

    A name listed in ``__all__`` counts as referenced (a re-export);
    ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_detector_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional, List\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Optional[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["osp", "List"]


def test_package_modules_have_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(PACKAGE))] = unused
    assert found == {}
