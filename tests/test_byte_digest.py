"""The package admits CPython 3.10 and later, so every such interpreter
must write the same bytes: ``byte_digest.py`` run under each other one
found prints the digests this interpreter computes, and those digests are
the pinned ones, so a change that alters the bytes alike everywhere fails
too.  The outputs digest is pinned apart from the state and appended
digests: a new state-file layout re-pins the last two only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import byte_digest

TESTS = Path(__file__).resolve().parent
# Each changes only with a deliberate change to what the package writes.
PINNED = {
    "outputs": "e1c013ebb9c35b717d0cebfd1a24b18a00cc98f4236ec2e06e42b12c2a4b00d2",
    "state": "48707b667f2acb326cdafdffbe15a19cf6cd42d894f21fde193cd25b65349653",
    "appended": "ea2a6d8813b01286cfe767b7e5eaa79d827a6dcb2f1b0950229c3b564e88ec0b",
}


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
    assert byte_digest.digests() == PINNED


def test_every_interpreter_writes_the_same_bytes():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 found")
    expected = "".join(f"{name} {value}\n" for name, value in byte_digest.digests().items())
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    printed = {}
    for python in interpreters:
        done = subprocess.run([str(python), str(TESTS / "byte_digest.py")], env=env,
                              capture_output=True, text=True, timeout=60)
        printed[str(python)] = done.stdout if done.returncode == 0 else done.stderr[-500:]
    assert printed == {str(python): expected for python in interpreters}


def test_the_script_runs_without_pythonpath(tmp_path):
    # From any directory: the script puts the checkout's package first itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(TESTS / "byte_digest.py")], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "".join(f"{name} {value}\n" for name, value in PINNED.items())
