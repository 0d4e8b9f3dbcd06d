"""Reference gates over the package: every top-level import is used, and
every private name and every ``__all__`` export is referenced somewhere."""

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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants, and private
    methods, that no module of ``sources`` references.

    ``sources`` maps a module's name to its text.  A reference is a loaded
    name or attribute anywhere in ``sources``, or a ``from ... import``
    of the name.
    """
    defined = []  # (label, name)
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}:{node.name}", node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{module}:{t.id}", t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return [
        label
        for label, name in defined
        if name.startswith("_") and not name.endswith("__") and name not in referenced
    ]


def test_private_detector_flags_only_unreferenced_definitions():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _orphan():\n"
            "    pass\n"
            "class _Box:\n"
            "    def __init__(self):\n"
            "        self._cache = None\n"
            "    def _called(self):\n"
            "        return self._cache\n"
            "    def _stale(self):\n"
            "        return self._called()\n"
        ),
        "b": "from a import _helper, _Box\n_helper()\n",
    }
    assert unreferenced_private_names(sources) == ["a:_UNUSED", "a:_orphan", "a:_Box._stale"]


def test_package_has_no_unreferenced_private_names():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


def unreferenced_public_names(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """``__all__`` entries of ``package`` modules that no source references.

    ``package`` and ``users`` map a module's name to its text.  A reference
    is a loaded name or attribute in any module of either map; the
    definition itself, ``__all__`` lists and ``from ... import`` re-exports
    bind or name a value without using it, so they do not count.  Dunder
    names such as ``__version__`` are read by tooling, not code, and are
    skipped.
    """
    exported = []  # (label, name)
    referenced = set()
    for module, source in {**package, **users}.items():
        tree = ast.parse(source)
        if module in package:
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported += [(f"{module}:{elt.value}", elt.value) for elt in node.value.elts]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.attr)
    return [
        label
        for label, name in exported
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    ]


def test_public_detector_flags_only_unreferenced_exports():
    package = {
        "a": (
            "__all__ = ['used_here', 'used_by_test', 'used_as_attr', 'orphan']\n"
            "def used_here(): pass\n"
            "def used_by_test(): pass\n"
            "used_as_attr = 1\n"
            "orphan = used_here()\n"
        ),
        "__init__": (
            "from .a import orphan, used_by_test\n"
            "__version__ = '1'\n"
            "__all__ = ['orphan', 'used_by_test', '__version__']\n"
        ),
    }
    users = {"test_a": "from a import used_by_test\nimport a\nused_by_test(a.used_as_attr)\n"}
    assert unreferenced_public_names(package, users) == ["a:orphan", "__init__:orphan"]


def test_package_has_no_unreferenced_public_names():
    root = Path(__file__).resolve().parents[1]
    package = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    # perfbench/ is scanned too: some exports are used only by the benchmark.
    users = {
        str(path.relative_to(root)): path.read_text(encoding="utf-8")
        for directory in ("tests", "perfbench")
        for path in sorted((root / directory).rglob("*.py"))
    }
    assert unreferenced_public_names(package, users) == []


def foreign_imports(source: str) -> list[str]:
    """Imports of a ``simcloud`` module that reach the rest of the package.

    The simulated cloud knows nothing of the program that runs on it, so
    its only package import is ``..errors``: any other ``from ..x`` and any
    absolute ``cloudrerun`` import, at any depth of the module, is named.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level >= 2:
            module = node.module or ",".join(alias.name for alias in node.names)
            if (node.level, module) != (2, "errors"):
                found.append("." * node.level + module)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "cloudrerun":
                found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "cloudrerun"]
    return found


def test_layering_detector_flags_only_imports_beyond_errors():
    source = (
        "import json\n"
        "from ..errors import NoSuchKey\n"
        "from .. import errors\n"
        "from .clock import VirtualClock\n"
        "from ..runtime import EventBus\n"
        "import cloudrerun.history\n"
        "def f():\n"
        "    from cloudrerun import runtime\n"
        "    from .. import history\n"
        "    from ... import other\n"
    )
    assert foreign_imports(source) == [
        "..runtime", "cloudrerun.history", "cloudrerun", "..history", "...other"
    ]


def test_simcloud_imports_nothing_of_the_package_but_errors():
    found = {
        path.name: foreign_imports(path.read_text(encoding="utf-8"))
        for path in sorted((PACKAGE / "simcloud").glob("*.py"))
    }
    assert {name: imports for name, imports in found.items() if imports} == {}


def foreign_private_reads(source: str) -> list[str]:
    """``x._name`` reads, on anything but ``self`` or ``cls``, of a private
    name the module does not define itself.

    A module defines a name by a ``def`` or ``class`` of it, or by binding
    it as a variable or as an attribute (``self._name = ...``) anywhere in
    the module.  Dunder names are the language's, not a module's.
    """
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    return [
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not isinstance(node.ctx, ast.Store)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and node.attr not in defined
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_private_read_detector_flags_only_names_defined_elsewhere():
    source = (
        "from .other import _imported\n"
        "_LOCAL = 1\n"
        "class Box:\n"
        "    def __init__(self, peer):\n"
        "        self._own = peer._own\n"
        "        self._theirs = peer._theirs_only\n"
        "    def _helper(self):\n"
        "        return self._unset, type(self).__name__\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._factory()\n"
        "def f(box, module):\n"
        "    return box._helper(), module._LOCAL, module._imported, box.env._counter\n"
    )
    assert foreign_private_reads(source) == ["peer._theirs_only", "module._imported", "box.env._counter"]


def test_package_reads_no_private_name_of_another_module():
    found = {
        str(path.relative_to(PACKAGE)): foreign_private_reads(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: reads for name, reads in found.items() if reads} == {}
