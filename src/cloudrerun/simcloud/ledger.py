"""Cost ledger: exact per-second proration of hourly prices plus request fees."""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from ..errors import OpenLedger

__all__ = ["LedgerEntry", "CostLedger", "SECONDS_PER_HOUR"]

SECONDS_PER_HOUR = Fraction(3600)


def _snapshot(record) -> dict:
    """A dataclass's fields as JSON values, with each Fraction as a string."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(record).items()}


def _rebuild(cls, state: dict):
    """The inverse of ``_snapshot``: every field declared as a Fraction, or
    as an optional one, is read back from its string."""
    exact = {f.name for f in fields(cls) if "Fraction" in str(f.type)}
    return cls(**{k: Fraction(v) if k in exact and v is not None else v for k, v in state.items()})


@dataclass
class LedgerEntry:
    """One billable resource interval, priced per hour, prorated per second."""

    resource_id: str
    category: str
    unit_price_hour: Fraction
    open_time: Fraction
    close_time: Optional[Fraction] = None
    scope: str = ""

    def cost(self, at: Optional[Fraction] = None) -> Fraction:
        end = self.close_time
        if end is None:
            if at is None:
                raise OpenLedger(f"entry {self.resource_id!r} is still open")
            end = at
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
        self.request_prices: dict[str, Fraction] = {}

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

    def set_request_price(self, operation: str, price: Fraction) -> None:
        self.request_prices[operation] = Fraction(price)

    def open_entries(self, scope: Optional[str] = None) -> list[LedgerEntry]:
        return [
            e
            for e in self.entries
            if e.close_time is None and (scope is None or e.scope == scope)
        ]

    def _fees(self, scope: Optional[str]) -> Fraction:
        """Request fees charged to ``scope``, or to every scope when None."""
        fees = Fraction(0)
        for (entry_scope, operation), count in self.request_counts.items():
            if scope is None or entry_scope == scope:
                fees += self.request_prices.get(operation, Fraction(0)) * count
        return fees

    def compute_cost(
        self, at: Optional[Fraction] = None, scope: Optional[str] = None
    ) -> Fraction:
        """Total cost; open entries are priced up to ``at`` when given,
        otherwise every entry must be closed."""
        total = Fraction(0)
        for entry in self.entries:
            if scope is not None and entry.scope != scope:
                continue
            total += entry.cost(at)
        return total + self._fees(scope)

    def breakdown(self, scope: Optional[str] = None) -> dict[str, Fraction]:
        """Closed-entry cost per category, request fees under 'requests'."""
        per_category: dict[str, Fraction] = {}
        for entry in self.entries:
            if scope is not None and entry.scope != scope:
                continue
            per_category[entry.category] = per_category.get(entry.category, Fraction(0)) + entry.cost()
        fees = self._fees(scope)
        if fees:
            per_category["requests"] = fees
        return per_category

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Entries and request counts; request prices come from the catalog
        and are not captured."""
        return {
            "entries": [_snapshot(e) for e in self.entries],
            "request_counts": [
                {"scope": scope, "operation": op, "count": count}
                for (scope, op), count in sorted(self.request_counts.items())
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Append the entries and request counts of a ``to_state`` snapshot."""
        self.entries.extend(_rebuild(LedgerEntry, e) for e in state["entries"])
        for rc in state["request_counts"]:
            self.charge_request(rc["scope"], rc["operation"], rc["count"])
