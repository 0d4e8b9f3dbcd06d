"""Synthetic analytics workload: parameterized duration and deterministic output.

A workload is described entirely by flags on the application command::

    analyze --serial-seconds 10 --parallel-seconds 100 --comm-seconds 2 \
            --parallelism 4 --seed 7 --exit-code 0

A flag the command leaves out takes the default of its ``WorkloadProfile``
field.

Duration on n nodes with per-node parallelism p:

    serial + parallel / (n * p) + comm * (n - 1)

computed exactly in Fractions.  The result payload is a pure function of
(seed, command, datasets, n, p): identical on every provider and at every
virtual time, which is what makes byte-level reproduction checkable.

A command is tokenized in the one POSIX dialect of ``shlex.split``:
whitespace is space, tab, CR and LF; single quotes keep every character;
inside double quotes a backslash escapes only ``"`` and ``\\``; outside
quotes a backslash escapes the next character.  An unclosed quote raises
``ValueError("No closing quotation")`` and a final lone backslash
``ValueError("No escaped character")``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from ..errors import MalformedValue
from .clock import as_fraction

RESULT_BLOCKS = 4  # sha256 blocks per result payload (128 bytes)

# The body of a double-quoted string: each character, or a backslash and the
# character it escapes, is one repetition, so an unclosed quote fails in
# linear time.
_DOUBLE_BODY = re.compile(r'(?:[^"\\]|\\.)*', re.DOTALL)
# Whitespace, then one token: unquoted runs, backslash escapes and quoted
# strings up to the next whitespace.
_TOKEN = re.compile(rf"""[ \t\r\n]*((?:[^ \t\r\n\\'"]+|\\.|'[^']*'|"{_DOUBLE_BODY.pattern}")*)""", re.DOTALL)
_QUOTED = re.compile(rf"""\\(.)|'([^']*)'|"({_DOUBLE_BODY.pattern})\"""", re.DOTALL)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\(["\\])')


@dataclass(frozen=True)
class WorkloadProfile:
    serial_s: Fraction = Fraction(10)
    parallel_s: Fraction = Fraction(100)
    comm_s: Fraction = Fraction(2)
    parallelism: int = 1
    seed: int = 0
    exit_code: int = 0


def _fraction_flag(value: str, flag: str) -> Fraction:
    """A duration flag: a non-negative rational number of seconds."""
    try:
        seconds = as_fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedValue(f"--{flag}: expected a rational number, got {value!r}") from exc
    if seconds < 0:
        raise MalformedValue(f"--{flag} must be non-negative, got {value!r}")
    return seconds


def _int_flag(value: str, flag: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise MalformedValue(f"--{flag}: expected an integer, got {value!r}") from exc


# Each workload flag: the profile field it sets and the reader of its value,
# in the order a command's flags are read, so the first bad one is reported.
_FLAGS = {
    "serial-seconds": ("serial_s", _fraction_flag),
    "parallel-seconds": ("parallel_s", _fraction_flag),
    "comm-seconds": ("comm_s", _fraction_flag),
    "parallelism": ("parallelism", _int_flag),
    "seed": ("seed", _int_flag),
    "exit-code": ("exit_code", _int_flag),
}


def _unquoted(match: re.Match) -> str:
    """The characters one escape or quoted string of a token stands for."""
    if match.lastindex == 3:
        return _DOUBLE_QUOTED_ESCAPE.sub(r"\1", match[3])
    return match[match.lastindex]


def split_command(command: str) -> list[str]:
    """The tokens of a command line, as ``shlex.split`` gives them; raises
    ValueError, with its message, on an unclosed quote or a final lone
    backslash."""
    tokens, position, end = [], 0, len(command)
    while True:
        match = _TOKEN.match(command, position)
        position = match.end()
        if match[1]:
            tokens.append(_QUOTED.sub(_unquoted, match[1]))
        if position == end:
            return tokens
        if command[position] not in " \t\r\n":
            break
    # What stopped the token: a lone final backslash, a single quote that
    # never closes, or a double quote that never closes, either at the end
    # of the text or at a lone final backslash inside it.
    rest = command[position:]
    if rest[0] == '"':
        rest = rest[_DOUBLE_BODY.match(rest, 1).end():]
    raise ValueError("No escaped character" if rest == "\\" else "No closing quotation")


def parse_flags(command: str) -> dict[str, str]:
    """Every ``--flag value`` pair of a command line, keyed by flag name; a
    later repeat of a flag wins.  A ``--`` token is never a value, so a flag
    followed by another flag or by nothing is not recorded.  Raises
    ValueError on unbalanced quoting."""
    tokens = split_command(command)
    values: dict[str, str] = {}
    for token, following in zip(tokens, tokens[1:]):
        if token.startswith("--") and not following.startswith("--"):
            values[token[2:]] = following
    return values


def parse_workload(command: Union[str, Iterable[tuple[str, str]]]) -> WorkloadProfile:
    """Extract the workload profile from a command line, or from its flag
    pairs as parsing already tokenized them (``ApplicationSpec.flags``);
    unknown flags are someone else's business and are ignored."""
    values = parse_flags(command) if isinstance(command, str) else dict(command)
    profile = WorkloadProfile(**{
        field: read(values[flag], flag) for flag, (field, read) in _FLAGS.items() if flag in values
    })
    if profile.parallelism < 1:
        raise MalformedValue(f"--parallelism must be >= 1, got {profile.parallelism}")
    return profile


def workload_duration(profile: WorkloadProfile, nodes: int) -> Fraction:
    if nodes < 1:
        raise MalformedValue(f"node count must be >= 1, got {nodes}")
    return (
        profile.serial_s
        + profile.parallel_s / (nodes * profile.parallelism)
        + profile.comm_s * (nodes - 1)
    )


def workload_result(
    seed: int,
    command: str,
    datasets: Sequence[str],
    nodes: int,
    parallelism: int,
) -> bytes:
    """Deterministic result bytes; independent of provider and clock."""
    digest = hashlib.sha256()
    digest.update(str(seed).encode())
    digest.update(b"\x00")
    digest.update(command.encode())
    digest.update(b"\x00")
    for dataset in datasets:
        digest.update(dataset.encode())
        digest.update(b"\x1f")
    digest.update(f"{nodes}:{parallelism}".encode())

    blocks = []
    block = digest.digest()
    for _ in range(RESULT_BLOCKS):
        blocks.append(block)
        block = hashlib.sha256(block).digest()
    return b"".join(blocks)
