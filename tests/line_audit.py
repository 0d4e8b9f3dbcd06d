"""List every line inside a ``src/`` function that a run of the tier-1
suite, or of the benchmark's workloads, leaves unrun.

It runs its traffic in this process under a trace function set by
``sys.settrace`` and ``threading.settrace`` that records each line run in
a file under ``src/``.  A line is a function's when the compiled code of
some function, method, lambda or comprehension maps an instruction to it;
module and class bodies are left out.  Child processes are not followed: a
line that only a subprocess runs is listed as unrun.  Run it from any
directory, in one of two modes::

    python tests/line_audit.py
    python tests/line_audit.py --traffic

The first runs the tier-1 suite, as ``python -m pytest -q
--continue-on-collection-errors`` from the checkout's root does; any other
arguments are passed on to pytest.  The second runs every workload of
``perfbench/run.py`` in turn, with ``--seed 7 --seconds 1 --trace 0``, and
prints each one's result line.  ``--workload all`` would start a child
process per workload, so the workloads run here one by one instead, as
``all`` runs them.  This mode reads ``perfbench/`` and writes only the
benchmark's own scratch directory, which it removes.

Beside pytest, and the benchmark in the second mode, it imports only the
standard library, and pytest does not collect it.  It prints ``UNRUN
<module>:<line>: <text>`` for each unrun line, in module and line order,
then ``ran N of M lines``, and exits with pytest's exit code or, in the
second mode, the first non-zero exit code of a workload.  Tracing makes
the suite about two and a half times slower.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def function_lines(path: Path) -> set[int]:
    """The lines of the source file ``path`` that some function's code maps an instruction to."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [module]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
        if code is not module and code.co_flags & CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


class LineCollector:
    """While active, records in ``ran[filename]`` each line run in one of
    ``filenames``, in this thread and in every thread started meanwhile.  A
    call records the line its frame starts on, the function's first line.
    On exit it puts back the trace functions it found."""

    def __init__(self, filenames) -> None:
        self.ran: dict[str, set[int]] = {name: set() for name in filenames}

    def _call(self, frame, event, arg):
        ran = self.ran.get(frame.f_code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "LineCollector":
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def unrun_lines(path: Path, ran: set[int]) -> list[int]:
    """The function lines of ``path`` not in ``ran``, in order."""
    return sorted(function_lines(path) - ran)


def run_suite(argv: list[str]) -> int:
    import pytest

    return int(pytest.main(["-q", "--continue-on-collection-errors", *argv]))


def run_traffic() -> int:
    """Run each benchmark workload in this process and print its result line."""
    sys.path.insert(0, str(ROOT))
    from perfbench import run, workloads

    code = 0
    for name in workloads.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0"])
        code = code or status
        print(f"{name}: {out.getvalue().splitlines()[-1]}")
    return code


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    paths = sorted(SRC.rglob("*.py"))
    with LineCollector(str(path) for path in paths) as collector:
        code = run_traffic() if argv == ["--traffic"] else run_suite(argv)
    total = unrun = 0
    for path in paths:
        lines = function_lines(path)
        missed = unrun_lines(path, collector.ran[str(path)])
        total, unrun = total + len(lines), unrun + len(missed)
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"UNRUN {module}:{line}: {text[line - 1].strip()}")
    print(f"ran {total - unrun} of {total} lines")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
