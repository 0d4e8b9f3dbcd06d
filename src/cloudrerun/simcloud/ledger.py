"""Cost ledger: exact per-second proration of hourly prices plus request
fees, with every price read from the packaged catalog.

The ledger is a map from scope to bill.  A scope is an execution id, or
``query`` for the history queries no run pays for.  A bill holds its
scope's entries in the order they were opened and its request counts per
operation.  Open entries are also kept by resource id, so closing one is a
lookup, and pricing a scope reads its bill alone.

A saved bill is its closed entries and its request counts as canonical
bytes (``encode_bill``).  A bill loaded from a state file stays the
``[offset, length]`` reference into the file's ``Tail`` that the index
holds until it is first charged, as a loaded row stays its reference until
it is written: a read slices and decodes it for the answer only, and a
bill never charged is saved back as its reference, naming the same bytes.
A charged one is decoded to be kept, and the bytes it leaves in the tail
are dead.  A saved ledger has no open entry: a save refuses one, and a
load refuses a state file that holds one.  So a bill with an open entry
is always kept, and a stored bill holds every entry of its scope."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional

from ..errors import OpenLedger
from .clock import as_fraction

SECONDS_PER_HOUR = Fraction(3600)


@lru_cache(maxsize=None)
def price_catalog() -> dict:
    catalog = resources.files("cloudrerun.data").joinpath("price_catalog.json")
    raw = json.loads(catalog.read_text(encoding="utf-8"))
    return {
        "instance_hour": {
            provider: {t: as_fraction(p) for t, p in types.items()}
            for provider, types in raw["instance_hour"].items()
        },
        "network_hour": as_fraction(raw["network_hour"]),
        "request": {op: as_fraction(p) for op, p in raw["request"].items()},
    }


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical(value) -> bytes:
    """Compact key-sorted JSON: the saved bytes of a row or a bill."""
    return _CANONICAL(value).encode()


class Tail:
    """The tail of a loaded state file (empty for an environment that never
    loaded one): the bytes that each stored version, row and bill it loaded
    still names by its ``[offset, length]`` reference, sliced only when
    read.  ``live`` counts the bytes some part still references; the others
    are dead, left by a row written again or a bill charged again."""

    def __init__(self, data: bytes | memoryview) -> None:
        self.data = data
        self.live = 0

    def check(self, part):
        """``part`` itself, when it is bytes or a reference into the tail,
        whose bytes then count as live; anything else raises ValueError."""
        if type(part) is bytes:
            return part
        start, length = part  # a reference that is no pair raises here
        if type(start) is int and type(length) is int and 0 <= start <= start + length <= len(self.data):
            self.live += length
            return part
        raise ValueError(f"reference {part!r} is no [offset, length] in the tail")

    def read(self, part) -> bytes:
        """The bytes of a stored part: a reference is sliced out of the tail."""
        if type(part) is not list:
            return part
        start, length = part
        return bytes(self.data[start:start + length])

    def drop(self, part) -> None:
        """Forget ``part``, which is written again: a reference's bytes are dead."""
        if type(part) is list:
            self.live -= part[1]


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
        return self.unit_price_hour * (end - self.open_time) / SECONDS_PER_HOUR


@dataclass
class Bill:
    """One scope's charges: its entries in the order they were opened, and
    its request counts per operation."""

    entries: list[LedgerEntry] = field(default_factory=list)
    requests: dict[str, int] = field(default_factory=dict)


def encode_bill(bill: Bill) -> bytes:
    """The canonical bytes of a bill's closed entries, each
    ``[resource_id, category, unit_price_hour, open_time, close_time]``
    without the scope they share, and of its request counts."""
    closed = [
        [e.resource_id, e.category, str(e.unit_price_hour), str(e.open_time), str(e.close_time)]
        for e in bill.entries
        if e.close_time is not None
    ]
    return canonical({"entries": closed, "requests": bill.requests})


def decode_bill(scope: str, raw: bytes) -> Bill:
    """The bill ``encode_bill`` wrote for ``scope``; damaged bytes, or an
    entry that closes before it opens, raise ValueError naming the scope."""
    try:
        doc = json.loads(raw)
        entries = [
            LedgerEntry(resource_id, category, as_fraction(price), as_fraction(opened), as_fraction(closed), scope)
            for resource_id, category, price, opened, closed in doc["entries"]
        ]
        for e in entries:
            if e.close_time < e.open_time:
                raise ValueError(f"entry {e.resource_id!r}: close {e.close_time} precedes open {e.open_time}")
        requests = doc["requests"]
        if not all(type(count) is int for count in requests.values()):
            raise ValueError(f"request counts {requests!r} are not all ints")
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"the bill of scope {scope!r} is damaged: {type(exc).__name__}: {exc}") from exc
    return Bill(entries, requests)


class CostLedger:
    """Accumulates resource intervals and per-request charges, one bill per scope.

    Totals are exact: Fraction prices times Fraction durations.  ``scope``
    attributes charges to one execution so per-run cost can be read out of
    a shared environment.
    """

    def __init__(self) -> None:
        self._bills: dict[str, Bill | bytes | list] = {}  # in first-charge order; stored until decoded
        self._open: dict[str, LedgerEntry] = {}  # open entries only, by resource id
        self.tail = Tail(b"")  # what a loaded bill's reference points into

    def __contains__(self, scope: str) -> bool:
        """Whether ``scope`` holds a bill; no stored bill is decoded."""
        return scope in self._bills

    def _read(self, scope: str) -> Optional[Bill]:
        """``scope``'s bill, None if it was never charged; a stored bill is
        decoded for the answer and stays as it is."""
        bill = self._bills.get(scope)
        return bill if bill is None or type(bill) is Bill else decode_bill(scope, self.tail.read(bill))

    def _charge(self, scope: str) -> Bill:
        """``scope``'s bill, decoded to be kept, or started if it was never charged."""
        stored = self._bills.get(scope)
        if type(stored) is Bill:
            return stored
        bill = self._bills[scope] = Bill() if stored is None else decode_bill(scope, self.tail.read(stored))
        self.tail.drop(stored)
        return bill

    @property
    def entries(self) -> list[LedgerEntry]:
        """Every entry, bill by bill."""
        return [entry for scope in self._bills for entry in self._read(scope).entries]

    @property
    def request_counts(self) -> dict[tuple[str, str], int]:
        """``(scope, operation)`` to count, bill by bill."""
        return {(scope, op): count for scope in self._bills for op, count in self._read(scope).requests.items()}

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
            unit_price_hour=as_fraction(unit_price_hour),
            open_time=as_fraction(open_time),
            scope=scope,
        )
        self._charge(scope).entries.append(entry)
        self._open[resource_id] = entry
        return entry

    def close_entry(self, resource_id: str, close_time: Fraction) -> None:
        entry = self._open.get(resource_id)
        if entry is None:
            raise OpenLedger(f"no open entry for resource {resource_id!r}")
        if close_time < entry.open_time:
            raise OpenLedger(f"close {close_time} precedes open {entry.open_time}")
        entry.close_time = as_fraction(close_time)
        del self._open[resource_id]

    def charge_request(self, scope: str, operation: str) -> None:
        requests = self._charge(scope).requests
        requests[operation] = requests.get(operation, 0) + 1

    def open_entries(self, scope: Optional[str] = None) -> list[LedgerEntry]:
        return [e for e in self._open.values() if scope is None or e.scope == scope]

    def compute_cost(self, scope: Optional[str] = None) -> Fraction:
        """Total cost of ``scope``, or of every scope when None."""
        return sum(self.breakdown(scope).values(), Fraction(0))

    def breakdown(self, scope: Optional[str] = None) -> dict[str, Fraction]:
        """Cost of ``scope`` (every scope when None) per category, request
        fees under 'requests'; an open entry raises OpenLedger.  The catalog
        prices each request; an operation it does not price costs 0."""
        scopes = list(self._bills) if scope is None else [scope]
        per_category: dict[str, Fraction] = {}
        prices = price_catalog()["request"]
        fees = Fraction(0)
        for bill in filter(None, map(self._read, scopes)):
            for entry in bill.entries:
                per_category[entry.category] = per_category.get(entry.category, Fraction(0)) + entry.cost()
            for operation, count in bill.requests.items():
                fees += prices.get(operation, Fraction(0)) * count
        if fees:
            per_category["requests"] = fees
        return per_category

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """Each bill as ``[scope, part]`` in first-charge order: a bill never
        charged is still what it was loaded as, bytes or a reference into the
        tail; a charged one is its bytes.  ``open`` is always empty, since an
        open entry raises OpenLedger naming its resource and scope.  Prices
        come from the catalog and are not captured."""
        for entry in self._open.values():
            raise OpenLedger(f"{entry.category} {entry.resource_id!r} of scope {entry.scope!r} is still open")
        return {
            "bills": [
                [scope, encode_bill(bill) if type(bill) is Bill else bill]
                for scope, bill in self._bills.items()
            ],
            "open": [],
        }

    def restore_state(self, state: dict) -> None:
        """Take in a ``to_state`` snapshot, each bill checked by the tail; a
        non-empty ``open`` raises ValueError, as no save writes one."""
        if state["open"] != []:
            raise ValueError(f"ledger.open is {state['open']!r}, but a saved ledger has no open entry")
        self._bills = {scope: self.tail.check(part) for scope, part in state["bills"]}
