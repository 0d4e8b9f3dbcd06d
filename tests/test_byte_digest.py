"""The package admits CPython 3.10 and later, so every such interpreter
must write the same bytes: ``byte_digest.py`` run under each other one
found prints the digest this interpreter computes, and that digest is the
pinned one, so a change that alters the bytes alike everywhere fails too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import byte_digest

TESTS = Path(__file__).resolve().parent
# Changes only with a deliberate change to what the package writes.
PINNED = "3cf7fa8de042aa4e9cd783bb40ce019a9696058b14d78472e9af26d31649aa49"


def other_interpreters() -> list[Path]:
    """Each ``python3.1x`` on PATH and in the running pyenv's
    ``versions/*/bin``, other than the running interpreter.  pyenv's shims
    are left out: they run whichever version pyenv selects, and its versions
    are searched directly."""
    names = [f"python3.{minor}" for minor in range(10, 20)]
    candidates = [Path(d) / n for d in os.environ.get("PATH", "").split(os.pathsep) if d for n in names]
    versions = Path(sys.base_prefix).parent
    shims = None
    if versions.name == "versions":
        candidates += sorted(versions.glob("*/bin/python3.1?"))
        shims = versions.parent / "shims"
    seen = {Path(sys.executable).resolve()}
    found = []
    for path in candidates:
        if path.parent == shims or not (path.is_file() and os.access(path, os.X_OK)):
            continue
        if path.resolve() not in seen:
            seen.add(path.resolve())
            found.append(path)
    return found


def test_this_interpreter_writes_the_pinned_bytes():
    assert byte_digest.digest() == PINNED


def test_every_interpreter_writes_the_same_bytes():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 found")
    expected = byte_digest.digest()
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    printed = {}
    for python in interpreters:
        done = subprocess.run([str(python), str(TESTS / "byte_digest.py")], env=env,
                              capture_output=True, text=True, timeout=60)
        printed[str(python)] = done.stdout.strip() or done.stderr.strip()[-500:]
    assert printed == {str(python): expected for python in interpreters}
