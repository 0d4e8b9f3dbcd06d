"""Independent oracles: deliberately naive reimplementations used to
cross-check the package's cleverer code paths."""

from __future__ import annotations

import configparser
import io
import zipfile
from fractions import Fraction
from typing import Optional, Sequence

from cloudrerun.errors import MalformedValue


def per_second_cost(
    entries: Sequence[tuple[Fraction, Fraction, Fraction]],
) -> Fraction:
    """Brute-force ledger integration: walk every whole second of every
    entry and accumulate price/3600, plus the fractional tail ends.

    Entries are (unit_price_hour, open_time, close_time) with exact times.
    """
    total = Fraction(0)
    for price, open_time, close_time in entries:
        per_second = price / 3600
        t = open_time
        # partial first second up to the next integer boundary
        first_boundary = Fraction(int(open_time)) + (0 if open_time == int(open_time) else 1)
        if first_boundary > close_time:
            total += per_second * (close_time - open_time)
            continue
        total += per_second * (first_boundary - open_time)
        t = first_boundary
        while t + 1 <= close_time:
            total += per_second
            t += 1
        total += per_second * (close_time - t)
    return total


def residue_walk(
    durations: Sequence[Fraction], window: Fraction
) -> tuple[Fraction, list[Fraction]]:
    """Walk the poll grid tick by tick (no closed-form ceil), returning the
    polled total duration and the per-stage alignment residues."""
    window = Fraction(window)
    elapsed = Fraction(0)  # time since submission, always on a tick
    residues = []
    for duration in durations:
        target = elapsed + Fraction(duration)
        tick = elapsed
        while tick < target:
            tick += window
        residues.append(tick - target)
        elapsed = tick
    return elapsed, residues


def query_scan(
    rows: Sequence[dict], filters: dict
) -> list[dict]:
    """Linear-scan equality filter ordered by submit time then id."""
    kept = [
        row
        for row in rows
        if all(row.get(key) == value for key, value in filters.items())
    ]
    return sorted(
        kept,
        key=lambda r: (Fraction(r.get("submitted_at", "0")), r.get("execution_id", "")),
    )


def reachable_pairs(groups) -> set[tuple[str, str, str]]:
    """Every (protocol, source_group, peer) combination some ingress rule
    permits, enumerated over all ports by brute force on rule bounds.
    ``groups`` are security groups as the pipeline document holds them."""
    pairs = set()
    for group in groups:
        for rule in group["rules"]:
            if rule["direction"] != "ingress":
                continue
            pairs.add((rule["protocol"], group["group_id"], rule["peer"]))
    return pairs


def allows(group: dict, direction: str, protocol: str, peer: str, port: int) -> bool:
    """Whether some rule of ``group``, a security group as the pipeline
    document holds it, lets ``protocol`` traffic on ``port`` pass in
    ``direction`` to or from ``peer``."""
    return any(
        rule["direction"] == direction
        and rule["protocol"] == protocol
        and rule["peer"] == peer
        and rule["port_range"][0] <= port <= rule["port_range"][1]
        for rule in group["rules"]
    )


def student_t_reference(sample_a: Sequence[float], sample_b: Sequence[float]):
    """Reference t statistic and two-sided p-value from scipy.

    scipy is an optional test dependency, so it is imported on the first
    call rather than with this module.  That first import can take over a
    second, so a timed caller must load ``scipy.stats`` before its clock
    starts, e.g. with ``pytest.importorskip("scipy.stats")``.
    """
    from scipy import stats

    result = stats.ttest_ind(list(sample_a), list(sample_b), equal_var=True)
    return float(result.statistic), float(result.pvalue)


def configparser_ini(text: str, label: str, known_keys: dict) -> tuple[dict, tuple]:
    """The request INI dialect read by the standard library's
    ``ConfigParser``: the sections, plus the unknown sections and the
    unknown keys of the sections in ``known_keys`` as sorted extras."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text, source=label)
    except configparser.Error as exc:
        raise MalformedValue(f"{label}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    extras = []
    for name in parser.sections():
        data = sections[name] = {k: v.strip() for k, v in parser.items(name)}
        for key, value in data.items():
            if "\n" in value:
                raise MalformedValue(f"{label}: [{name}] {key}: values must be one line")
        if name in known_keys:
            data = {k: v for k, v in data.items() if k not in known_keys[name]}
            if not data:
                continue
        extras.append((name, tuple(sorted(data.items()))))
    return sections, tuple(sorted(extras))


def zipfile_stored(entries: dict[str, bytes]) -> bytes:
    """The stored zip of ``entries`` as the standard library writes it:
    sorted names, each dated 1980-01-01 00:00:00 with mode 0600."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.external_attr = 0o600 << 16
            zf.writestr(info, entries[name])
    return buffer.getvalue()
