"""Synthetic analytics workload: parameterized duration and deterministic output.

A workload is described entirely by flags on the application command::

    analyze --serial-seconds 10 --parallel-seconds 100 --comm-seconds 2 \
            --parallelism 4 --seed 7 --exit-code 0

Duration on n nodes with per-node parallelism p:

    serial + parallel / (n * p) + comm * (n - 1)

computed exactly in Fractions.  The result payload is a pure function of
(seed, command, datasets, n, p): identical on every provider and at every
virtual time, which is what makes byte-level reproduction checkable.
"""

from __future__ import annotations

import hashlib
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import MalformedValue

__all__ = [
    "WorkloadProfile",
    "parse_flags",
    "parse_workload",
    "workload_duration",
    "workload_result",
    "RESULT_BLOCKS",
]

_FLAG_DEFAULTS = {
    "serial-seconds": Fraction(10),
    "parallel-seconds": Fraction(100),
    "comm-seconds": Fraction(2),
}

RESULT_BLOCKS = 4  # sha256 blocks per result payload (128 bytes)


@dataclass(frozen=True)
class WorkloadProfile:
    serial_s: Fraction
    parallel_s: Fraction
    comm_s: Fraction
    parallelism: int
    seed: int
    exit_code: int


def _fraction_flag(value: str, flag: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedValue(f"--{flag}: expected a rational number, got {value!r}") from exc


def _int_flag(value: str, flag: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise MalformedValue(f"--{flag}: expected an integer, got {value!r}") from exc


def parse_flags(command: str) -> dict[str, str]:
    """Every ``--flag value`` pair of a command line, keyed by flag name;
    a later repeat of a flag wins."""
    tokens = shlex.split(command)
    values: dict[str, str] = {}
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.startswith("--") and index + 1 < len(tokens):
            values[token[2:]] = tokens[index + 1]
            index += 2
        else:
            index += 1
    return values


def parse_workload(command: str) -> WorkloadProfile:
    """Extract the workload profile from a command line; unknown flags are
    someone else's business and are ignored."""
    values = parse_flags(command)
    serial = _fraction_flag(values["serial-seconds"], "serial-seconds") if "serial-seconds" in values else _FLAG_DEFAULTS["serial-seconds"]
    parallel = _fraction_flag(values["parallel-seconds"], "parallel-seconds") if "parallel-seconds" in values else _FLAG_DEFAULTS["parallel-seconds"]
    comm = _fraction_flag(values["comm-seconds"], "comm-seconds") if "comm-seconds" in values else _FLAG_DEFAULTS["comm-seconds"]
    parallelism = _int_flag(values.get("parallelism", "1"), "parallelism")
    seed = _int_flag(values.get("seed", "0"), "seed")
    exit_code = _int_flag(values.get("exit-code", "0"), "exit-code")

    if serial < 0 or parallel < 0 or comm < 0:
        raise MalformedValue("workload durations must be non-negative")
    if parallelism < 1:
        raise MalformedValue(f"--parallelism must be >= 1, got {parallelism}")

    return WorkloadProfile(
        serial_s=serial,
        parallel_s=parallel,
        comm_s=comm,
        parallelism=parallelism,
        seed=seed,
        exit_code=exit_code,
    )


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
