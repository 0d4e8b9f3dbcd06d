"""Cost ledger: exact per-second proration of hourly prices plus request
fees, with every price read from the packaged catalog."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional

from ..errors import OpenLedger

SECONDS_PER_HOUR = Fraction(3600)


@lru_cache(maxsize=None)
def price_catalog() -> dict:
    catalog = resources.files("cloudrerun.data").joinpath("price_catalog.json")
    raw = json.loads(catalog.read_text(encoding="utf-8"))
    return {
        "instance_hour": {
            provider: {t: Fraction(p) for t, p in types.items()}
            for provider, types in raw["instance_hour"].items()
        },
        "network_hour": Fraction(raw["network_hour"]),
        "request": {op: Fraction(p) for op, p in raw["request"].items()},
    }


def snapshot(record) -> dict:
    """A dataclass's fields as JSON values, with each Fraction as a string."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(record).items()}


def rebuilder(cls):
    """The inverse of ``snapshot`` for ``cls``: a function that reads every
    field declared as a Fraction, or as an optional one, back from its
    string.  The fields are looked up once, and each distinct string is
    parsed once per rebuilder (ledger rows repeat a few prices and times)."""
    exact = [f.name for f in fields(cls) if "Fraction" in str(f.type)]
    fraction = lru_cache(maxsize=None)(Fraction)

    def rebuild(state: dict):
        row = dict(state)
        for name in exact:
            if row.get(name) is not None:
                row[name] = fraction(row[name])
        return cls(**row)

    return rebuild


@dataclass
class LedgerEntry:
    """One billable resource interval, priced per hour, prorated per second."""

    resource_id: str
    category: str
    unit_price_hour: Fraction
    open_time: Fraction
    close_time: Optional[Fraction] = None
    scope: str = ""

    def cost(self) -> Fraction:
        end = self.close_time
        if end is None:
            raise OpenLedger(f"entry {self.resource_id!r} is still open")
        if end < self.open_time:
            raise OpenLedger(
                f"entry {self.resource_id!r}: close {end} precedes open {self.open_time}"
            )
        return self.unit_price_hour * (end - self.open_time) / SECONDS_PER_HOUR


class CostLedger:
    """Accumulates resource intervals and per-request charges.

    Totals are exact: Fraction prices times Fraction durations.  ``scope``
    attributes charges to one execution so per-run cost can be read out of
    a shared environment.
    """

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self.request_counts: dict[tuple[str, str], int] = {}

    def open_entry(
        self,
        resource_id: str,
        category: str,
        unit_price_hour: Fraction,
        open_time: Fraction,
        scope: str = "",
    ) -> LedgerEntry:
        entry = LedgerEntry(
            resource_id=resource_id,
            category=category,
            unit_price_hour=Fraction(unit_price_hour),
            open_time=Fraction(open_time),
            scope=scope,
        )
        self.entries.append(entry)
        return entry

    def close_entry(self, resource_id: str, close_time: Fraction) -> None:
        for entry in self.entries:
            if entry.resource_id == resource_id and entry.close_time is None:
                if close_time < entry.open_time:
                    raise OpenLedger(
                        f"close {close_time} precedes open {entry.open_time}"
                    )
                entry.close_time = Fraction(close_time)
                return
        raise OpenLedger(f"no open entry for resource {resource_id!r}")

    def charge_request(self, scope: str, operation: str, count: int = 1) -> None:
        key = (scope, operation)
        self.request_counts[key] = self.request_counts.get(key, 0) + count

    def open_entries(self, scope: Optional[str] = None) -> list[LedgerEntry]:
        return [
            e
            for e in self.entries
            if e.close_time is None and (scope is None or e.scope == scope)
        ]

    def compute_cost(self, scope: Optional[str] = None) -> Fraction:
        """Total cost of ``scope``, or of every scope when None."""
        return sum(self.breakdown(scope).values(), Fraction(0))

    def breakdown(self, scope: Optional[str] = None) -> dict[str, Fraction]:
        """Cost of ``scope`` (every scope when None) per category, request
        fees under 'requests'; an open entry raises OpenLedger.  The catalog
        prices each request; an operation it does not price costs 0."""
        per_category: dict[str, Fraction] = {}
        for entry in self.entries:
            if scope is None or entry.scope == scope:
                per_category[entry.category] = per_category.get(entry.category, Fraction(0)) + entry.cost()
        prices = price_catalog()["request"]
        fees = Fraction(0)
        for (entry_scope, operation), count in self.request_counts.items():
            if scope is None or entry_scope == scope:
                fees += prices.get(operation, Fraction(0)) * count
        if fees:
            per_category["requests"] = fees
        return per_category

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Entries and request counts; prices come from the catalog and are
        not captured."""
        return {
            "entries": [snapshot(e) for e in self.entries],
            "request_counts": [
                {"scope": scope, "operation": op, "count": count}
                for (scope, op), count in sorted(self.request_counts.items())
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Append the entries and request counts of a ``to_state`` snapshot."""
        self.entries.extend(map(rebuilder(LedgerEntry), state["entries"]))
        for rc in state["request_counts"]:
            self.charge_request(rc["scope"], rc["operation"], rc["count"])
