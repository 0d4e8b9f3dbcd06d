"""Reference gates over the package: every top-level import is used, every
private name is referenced somewhere and imported by no other module, every
public name has a caller in the package and every defaulted parameter a call
that passes it, or a stated reason to stay, every parameter is read, no
module declares its public names a second time in an ``__all__`` list,
every method reads its instance, only parsing builds a request, only
``history.indented_json`` writes indented JSON, and only
``simcloud.clock.as_fraction`` reads rational text."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import cloudrerun

PACKAGE = Path(cloudrerun.__file__).parent
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never references.

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
    return [name for name in imported if name not in used]


def test_detector_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional, List\n"
        "from .x import exported, listed\n"
        "__all__ = ['listed']\n"
        "def f(a: Optional[int]) -> None:\n"
        "    return os.sep, exported\n"
    )
    assert unused_imports(source) == ["osp", "List", "listed"]


def test_package_modules_have_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(PACKAGE))] = unused
    assert found == {}


def definitions(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """``(label, name)`` of each module-level function, class and constant,
    and of each method, of one parsed module."""
    defined = []
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
    return defined


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name and attribute the module reads (not the ones it binds)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


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
        defined += definitions(module, tree)
        referenced |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
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


def callerless_public_names(sources: dict[str, str]) -> list[str]:
    """Public module-level functions, classes and constants, and public
    methods, that no module of ``sources`` names.

    A name is a loaded name or attribute anywhere in ``sources``.  The
    definition, an ``__all__`` string and a ``from ... import`` re-export
    bind or list a name without calling it, so none of them counts.  Names
    match by name alone: a dead method that shares its name with a live one
    is missed, but a live name is never flagged.
    """
    defined = []  # (label, name)
    called = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += definitions(module, tree)
        called |= loaded_names(tree)
    return [label for label, name in defined if not name.startswith("_") and name not in called]


def allowlist_findings(callerless: list[str], allowed: dict[str, str]) -> dict[str, list[str]]:
    """Callerless names missing from ``allowed``, and ``allowed`` entries
    that are not callerless: their name is gone or has gained a caller."""
    return {
        "unlisted": [label for label in callerless if label not in allowed],
        "stale": [label for label in allowed if label not in callerless],
    }


def test_callerless_detector_flags_only_names_nothing_calls():
    sources = {
        "a.py": (
            "__all__ = ['live', 'dead', 'LIMIT', 'UNUSED', 'Box']\n"
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "def live(): return LIMIT\n"
            "def dead(): pass\n"
            "class Box:\n"
            "    def used(self): return self._private()\n"
            "    def stale(self): pass\n"
            "    def _private(self): pass\n"
        ),
        "b.py": "from a import Box, dead, live\n__all__ = ['dead']\nBox().used()\nlive()\n",
    }
    callerless = callerless_public_names(sources)
    assert callerless == ["a.py:UNUSED", "a.py:dead", "a.py:Box.stale"]
    allowed = {"a.py:dead": "kept", "a.py:live": "now called", "a.py:gone": "removed"}
    assert allowlist_findings(callerless, allowed) == {
        "unlisted": ["a.py:UNUSED", "a.py:Box.stale"],
        "stale": ["a.py:live", "a.py:gone"],
    }


BENCHMARK_READS = "benchmark reads it; revisit with ROADMAP item 1"

# Public names that no module of the package calls, each with its reason to stay.
CALLERLESS_ALLOWED = {
    "simcloud/provider.py:SimProvider.inject_fault":
        "test seam: breaks exactly the n-th call of one provider operation",
    "simcloud/provider.py:SimProvider.inventory":
        "test seam: the live clusters and networks that a finished run must release",
    "errors.py:StorageFailure": "the failure tests inject into any provider operation",
    "simcloud/provider.py:SimCloud.next_completion_time":
        "tests/test_acceptance.py reads it (acceptance 03's delivery explorer)",
    "runtime.py:STAGES": "tests/test_acceptance.py reads it (acceptance 06)",
    "metrics.py:reproducibility_overhead": "tests/test_acceptance.py computes m6 with it",
    "simcloud/ledger.py:CostLedger.request_counts":
        "tests read it; it decodes every loaded bill, so no src/ code may",
    "simcloud/ledger.py:CostLedger.compute_cost": BENCHMARK_READS,
    "simcloud/ledger.py:CostLedger.open_entries": BENCHMARK_READS,
    "history.py:CONFIG_ENTRY_NAMES": BENCHMARK_READS,
    "runtime.py:Orchestrator.run_serverless": BENCHMARK_READS,
    "runtime.py:Orchestrator.run_sdk": BENCHMARK_READS,
}


def test_every_public_name_has_a_caller_or_a_reason():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    callerless = callerless_public_names(sources)
    assert allowlist_findings(callerless, CALLERLESS_ALLOWED) == {"unlisted": [], "stale": []}


def methods_ignoring_their_instance(source: str) -> list[str]:
    """``Class.method`` of each ``def`` in a class body, at any depth of the
    module, whose first parameter is never read, or that has none.  A
    ``@staticmethod`` takes no instance and a ``@classmethod`` its class, so
    neither is named.  Setting an attribute of the instance reads it."""
    found = []
    for owner in ast.walk(ast.parse(source)):
        if not isinstance(owner, ast.ClassDef):
            continue
        for func in owner.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or any(
                isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod") for d in func.decorator_list
            ):
                continue
            positional = func.args.posonlyargs + func.args.args
            first = positional[0].arg if positional else None
            if not any(
                isinstance(node, ast.Name) and node.id == first and isinstance(node.ctx, ast.Load)
                for node in ast.walk(func)
            ):
                found.append(f"{owner.name}.{func.name}")
    return found


def test_instance_detector_flags_only_methods_that_never_read_their_first_parameter():
    source = (
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "    def read(self):\n"
        "        return self.size\n"
        "    def later(self):\n"
        "        return lambda: self.size\n"
        "    def ignores(self, other):\n"
        "        return other.size\n"
        "    def bare():\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def make(size):\n"
        "        return size\n"
        "    @classmethod\n"
        "    def default(cls):\n"
        "        return 1\n"
        "    @property\n"
        "    def constant(self):\n"
        "        return 3\n"
        "def free(self):\n"
        "    return 0\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def flat(this):\n"
        "            return 0\n"
    )
    assert methods_ignoring_their_instance(source) == ["Box.ignores", "Box.bare", "Box.constant", "Inner.flat"]


def test_every_method_reads_its_instance():
    # A method that never reads its instance is a function kept in a class;
    # it belongs beside the class, as a module function.
    found = {
        str(path.relative_to(PACKAGE)): methods_ignoring_their_instance(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: methods for name, methods in found.items() if methods} == {}


def defaulted_parameters(module: str, owner, func) -> list[tuple]:
    """``(label, callee, position or None, name)`` of each defaulted parameter
    of ``func``, a method of the class ``owner`` or, when None, a function."""
    qualname = func.name if owner is None else f"{owner.name}.{func.name}"
    callee = owner.name if func.name == "__init__" else func.name
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    )
    positional = (func.args.posonlyargs + func.args.args)[bound:]
    found = [
        (f"{module}:{qualname}({arg.arg})", callee, position, arg.arg)
        for position, arg in enumerate(positional)
        if position >= len(positional) - len(func.args.defaults)
    ]
    found += [
        (f"{module}:{qualname}({arg.arg})", callee, None, arg.arg)
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if default is not None
    ]
    return found


def callerless_parameters(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of module-level functions and methods that no
    call in ``sources`` passes, by keyword or by position.

    A call matches every definition of its callee's name; a class name
    stands for that class's ``__init__``.  A ``*args`` argument passes every
    positional parameter and a ``**kwargs`` argument every parameter.
    """
    passed: dict[str, tuple[float, set]] = {}  # callee: (positional count, keywords)
    defined = []  # (label, callee, position or None, parameter)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                count, keywords = passed.get(name, (0, set()))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = max(count, float("inf") if starred else len(node.args))
                keywords |= {k.arg for k in node.keywords}
                passed[name] = (count, keywords)
        for node in tree.body:
            owner = node if isinstance(node, ast.ClassDef) else None
            for func in owner.body if owner else [node]:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined += defaulted_parameters(module, owner, func)
    found = []
    for label, callee, position, parameter in defined:
        count, keywords = passed.get(callee, (0, set()))
        by_position = position is not None and position < count
        if not (by_position or parameter in keywords or None in keywords):
            found.append(label)
    return found


def test_parameter_detector_flags_only_parameters_no_call_passes():
    sources = {
        "a.py": (
            "def f(a, b=1, c=2, d=3, *, e=4, g=5): pass\n"
            "def spread(a=1, b=2): pass\n"
            "def mapped(a=1, *, b=2): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1, label=''): pass\n"
            "    def put(self, item, where=None): pass\n"
            "    @staticmethod\n"
            "    def make(kind='x'): pass\n"
            "def unused(x=0): pass\n"
        ),
        "b.py": (
            "from a import Box, f, mapped, spread\n"
            "f(0, 1)\n"
            "f(0, d=3, e=4)\n"
            "spread(*[1, 2])\n"
            "mapped(**{})\n"
            "Box(2).put('item')\n"
            "Box.make('y')\n"
        ),
    }
    found = callerless_parameters(sources)
    assert found == [
        "a.py:f(c)", "a.py:f(g)", "a.py:Box.__init__(label)", "a.py:Box.put(where)", "a.py:unused(x)"
    ]
    allowed = {"a.py:f(c)": "kept", "a.py:spread(a)": "passed by *args", "a.py:gone(x)": "removed"}
    assert allowlist_findings(found, allowed) == {
        "unlisted": ["a.py:f(g)", "a.py:Box.__init__(label)", "a.py:Box.put(where)", "a.py:unused(x)"],
        "stale": ["a.py:spread(a)", "a.py:gone(x)"],
    }


# Defaulted parameters that no call in the package passes, each with its reason to stay.
UNPASSED_ALLOWED = {
    "cli.py:main(argv)": "the entry point: the console script passes nothing, tests pass argv",
    "simcloud/provider.py:SimCloud.__init__(delays)":
        "acceptance m6's seam: tests/test_acceptance.py runs with other delays",
    "simcloud/ledger.py:CostLedger.compute_cost(scope)": "tests/test_acceptance.py passes it",
    "simcloud/ledger.py:CostLedger.open_entries(scope)": BENCHMARK_READS,
    "runtime.py:Orchestrator.run_serverless(record_history)": BENCHMARK_READS,
    "runtime.py:Orchestrator.run_sdk(poll_window)": BENCHMARK_READS,
    "runtime.py:Orchestrator.run_sdk(record_history)": BENCHMARK_READS,
}


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    found = callerless_parameters(sources)
    assert allowlist_findings(found, UNPASSED_ALLOWED) == {"unlisted": [], "stale": []}


def parameters_never_read(source: str) -> list[str]:
    """``qualname(parameter)`` of each parameter of a ``def`` or ``lambda``,
    at any depth of the module, that its body never reads.  ``*args`` and
    ``**kwargs`` are parameters too; a read inside a nested function or
    lambda counts, and defaults, annotations and decorators are not the
    body.  A lambda's name is ``<lambda>``."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                qualname = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                parameters = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {
                    node.id
                    for statement in body
                    for node in ast.walk(statement)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                }
                found.extend(f"{qualname}({a.arg})" for a in parameters if a is not None and a.arg not in read)
                visit(child, qualname + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    visit(ast.parse(source), "")
    return found


def test_unread_parameter_detector_flags_only_parameters_no_body_reads():
    source = (
        "def f(a, b, *rest, c, d=1, **extra):\n"
        "    return a, c, extra\n"
        "def outer(x, y: int = 0):\n"
        "    def inner(z):\n"
        "        return x\n"
        "    return inner, lambda: y, lambda _e: True\n"
        "def shadowed(n=len, m=[k for k in ()]):\n"
        "    return 0\n"
        "class Box:\n"
        "    def put(self, item):\n"
        "        self.item = None\n"
        "    @staticmethod\n"
        "    def make(kind):\n"
        "        return lambda size: kind\n"
        "handler = lambda event, *_: event\n"
    )
    assert parameters_never_read(source) == [
        "f(b)", "f(rest)", "f(d)", "outer.inner(z)", "outer.<lambda>(_e)",
        "shadowed(n)", "shadowed(m)", "Box.put(item)", "Box.make.<lambda>(size)", "<lambda>(_)",
    ]


def test_every_parameter_is_read():
    # A parameter no body reads is an input the caller computes for nothing;
    # there is no allowlist, so it goes, with every argument passed for it.
    found = {
        str(path.relative_to(PACKAGE)): parameters_never_read(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: parameters for name, parameters in found.items() if parameters} == {}


def test_every_benchmark_reason_names_a_benchmark_read():
    # An entry kept because the benchmark reads its name goes stale once the
    # benchmark stops reading it; a parameter's entry names its function.
    benchmark = "\n".join(path.read_text(encoding="utf-8") for path in sorted(BENCHMARK.glob("*.py")))
    names = {
        label.split(":")[1].split("(")[0].split(".")[-1]
        for allowed in (CALLERLESS_ALLOWED, UNPASSED_ALLOWED)
        for label, reason in allowed.items()
        if reason == BENCHMARK_READS
    }
    assert names and {name for name in names if not re.search(rf"\b{name}\b", benchmark)} == set()


def binds_all(source: str) -> bool:
    """Whether the module binds ``__all__`` at any depth: by assignment,
    annotated or augmented assignment, or any other store of the name."""
    return any(
        isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
        for node in ast.walk(ast.parse(source))
    )


def test_all_detector_flags_only_modules_that_bind_it():
    assert binds_all("__all__ = ['f']\ndef f(): pass\n")
    assert binds_all("__all__: list = []\n")
    assert binds_all("__all__ = []\n__all__ += ['f']\n")
    assert binds_all("if True:\n    __all__ = ('f',)\n")
    assert not binds_all("def f(): pass\n")
    assert not binds_all("import m\nnames = m.__all__\n")
    assert not binds_all("'__all__'\n")


def test_no_package_module_binds_all():
    # A module's public names are the ones without a leading underscore;
    # an ``__all__`` list would declare them a second time.
    found = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if binds_all(path.read_text(encoding="utf-8"))
    ]
    assert found == []


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


def foreign_private_imports(source: str) -> list[str]:
    """Private, non-dunder names that a relative ``from … import``, at any
    depth of the module, takes from another module of the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_private_import_detector_flags_only_relative_private_names():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .ledger import CostLedger, _snapshot\n"
        "from .. import _helpers\n"
        "from .meta import __version__\n"
        "def f():\n"
        "    from ..errors import _base\n"
    )
    assert foreign_private_imports(source) == ["_snapshot", "_helpers", "_base"]


def test_package_imports_no_private_name_of_another_module():
    found = {
        str(path.relative_to(PACKAGE)): foreign_private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: imports for name, imports in found.items() if imports} == {}


def derived_classes(sources: dict[str, str], exempt: str) -> list[str]:
    """``module:Class`` of each class, at any depth of a module of
    ``sources`` other than ``exempt``, whose bases name a class that a
    module of ``sources`` defines.  A base is named by a bare or dotted name,
    also inside a subscript; names match by name alone."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = []
    for module, tree in trees.items():
        if module == exempt:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                named = {
                    getattr(part, "id", getattr(part, "attr", None))
                    for base in node.bases
                    for part in ast.walk(base)
                }
                if named & defined:
                    found.append(f"{module}:{node.name}")
    return found


def test_derived_class_detector_flags_only_subclasses_of_package_classes():
    sources = {
        "errors.py": "class Base(Exception): pass\nclass Leaf(Base): pass\n",
        "a.py": (
            "from enum import Enum\n"
            "class Adapter:\n"
            "    pass\n"
            "class Kind(str, Enum):\n"
            "    A = 'a'\n"
            "class Local(Adapter):\n"
            "    pass\n"
            "def f():\n"
            "    class Nested(Kind): pass\n"
        ),
        "b.py": (
            "import a, errors\n"
            "from typing import Generic\n"
            "class Dotted(a.Adapter): pass\n"
            "class Failure(errors.Base): pass\n"
            "class Boxed(Generic[a.Kind]): pass\n"
            "class Plain(object): pass\n"
        ),
    }
    assert derived_classes(sources, "errors.py") == [
        "a.py:Local", "a.py:Nested", "b.py:Dotted", "b.py:Failure", "b.py:Boxed"
    ]


def test_no_class_derives_from_a_package_class():
    # A cloud's facts are rows of the provider tables, not subclasses that
    # override class attributes; ``errors.py`` alone builds a hierarchy, so
    # that ``except`` can catch a family of failures.
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert derived_classes(sources, "errors.py") == []


# Each constructed type and the one module that builds it.
CONSTRUCTED_BY = {
    **dict.fromkeys(("AbstractRequest", "ResourcesSpec", "ApplicationSpec", "PersonalSpec"), "config_model.py"),
    "PipelineDocument": "caam.py",
}


def test_only_config_model_constructs_a_request():
    # Every other module gets its requests by parsing texts, so the parsed
    # request is the one source of each request fact; likewise only the
    # adapters build a pipeline document, so deploy need not check its shape.
    constructing = {
        (name, str(path.relative_to(PACKAGE)))
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in CONSTRUCTED_BY
    }
    assert {(name, module) for name, module in constructing if module != CONSTRUCTED_BY[name]} == set()
    assert {module for _, module in constructing} == set(CONSTRUCTED_BY.values())


def indented_json_writers(source: str) -> list[str]:
    """``name:line`` of each call of ``dumps``, ``dump`` or ``JSONEncoder``,
    by any path to the name, that passes ``indent=``: a writer of indented
    JSON beside ``history.indented_json``."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in ("dumps", "dump", "JSONEncoder")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]


def test_indented_writer_detector_flags_only_calls_passing_indent():
    source = (
        "import json\n"
        "from json import dumps\n"
        "json.dumps(v, sort_keys=True, indent=2)\n"
        "json.dumps(v, sort_keys=True, separators=(',', ':'))\n"
        "json.dump(v, fh, indent=None)\n"
        "dumps(v, indent=4)\n"
        "json.encoder.JSONEncoder(indent=2).encode(v)\n"
        "json.JSONEncoder(sort_keys=True).encode(v)\n"
        "pformat(v, indent=2)\n"
    )
    assert indented_json_writers(source) == ["dumps:3", "dump:5", "dumps:6", "JSONEncoder:7"]


def test_the_package_has_one_writer_of_indented_json():
    # ``history.indented_json`` writes what ``json.dumps(v, sort_keys=True,
    # indent=2)`` would; a second writer would be a second serializer of one format.
    found = {
        str(path.relative_to(PACKAGE)): indented_json_writers(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def rational_text_readers(source: str, reader: str = "") -> list[str]:
    """``Fraction:line`` of each call of ``Fraction``, by any path to the
    name, with one argument that is no int literal, outside the module-level
    function ``reader``: a reader of rational text beside ``as_fraction``."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name == reader
        for node in ast.walk(function)
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in exempt
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
        and len(node.args) + len(node.keywords) == 1
        and not (node.args and isinstance(node.args[0], ast.Constant) and type(node.args[0].value) is int)
    ]
    return [f"Fraction:{node.lineno}" for node in sorted(calls, key=lambda node: (node.lineno, node.col_offset))]


def test_rational_reader_detector_flags_only_one_argument_calls_of_no_int_literal():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "def as_fraction(value):\n"
        "    return Fraction(value)\n"
        "Fraction(0), Fraction(3600), Fraction(1, 2), Fraction(n, d)\n"
        "Fraction(text)\n"
        "fractions.Fraction('1/2')\n"
        "Fraction(-1)\n"
        "Fraction(numerator=x)\n"
        "Fraction(1.5)\n"
        "def other():\n"
        "    return Fraction(True)\n"
    )
    assert rational_text_readers(source, "as_fraction") == [
        "Fraction:6", "Fraction:7", "Fraction:8", "Fraction:9", "Fraction:10", "Fraction:12"
    ]
    assert rational_text_readers(source) == ["Fraction:4"] + rational_text_readers(source, "as_fraction")


def test_only_as_fraction_reads_rational_text():
    # ``Fraction(text)`` builds ``10 ** exponent`` for any exponent a text
    # holds; ``simcloud.clock.as_fraction`` refuses one above the int-digit
    # limit first, so it is the one reader.
    found = {
        str(path.relative_to(PACKAGE)): rational_text_readers(
            path.read_text(encoding="utf-8"), "as_fraction" if path == PACKAGE / "simcloud" / "clock.py" else ""
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_the_cli_loads_no_shlex():
    # A fresh interpreter without site-packages, so no start-up hook loads
    # anything: the modules present are the ones the CLI's imports load.
    check = "import sys, cloudrerun.cli; print(sorted({'shlex'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-S", "-c", check], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
