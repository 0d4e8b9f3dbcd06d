"""Simulated cloud providers and the shared simulation environment.

The environment holds a virtual clock, one provider per supported cloud, a
shared cost ledger, a completion scheduler and one event bus.  Provider
operations are deterministic: ids come from counters, durations from a
delay profile, and prices from a packaged catalog.  Storage writes and
hardware readiness emit events to subscribers; everything else is
synchronous.

The bus is the cloud's event service and the environment's one subscriber;
every orchestrator on the environment installs its trigger rules there.
Like pending completions it is transient, so a loaded environment starts
with an empty bus.

A provider holds live resources only: a deleted cluster or network leaves
it, and its cost stays in the ledger.  The quota and the image registry,
like the delays and prices, are settings of the running environment.

Database tables are keyed by execution id, so a record write or a lookup by
id touches one row.  The saved state writes each table as its list of rows
in the order their ids were first written.

A state file is the line ``cloudrerun-state/2``, one index line of compact,
key-sorted JSON ``{"state": to_state(), "tail_bytes": n}`` with each stored
version as an ``[offset, length]`` reference, then the tail: the ``n`` raw
bytes of every version.  A file without the first line is legacy JSON.

Fault injection targets one (operation, call_index) pair at a time so tests
can break exactly the n-th call of an operation and nothing else.
"""

from __future__ import annotations

import heapq
import json
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Callable, Optional

from ..errors import (
    NoSuchImage,
    NoSuchKey,
    QuotaExceeded,
    UnknownInstanceType,
    UnsupportedProvider,
)
from .clock import VirtualClock
from .ledger import CostLedger, _rebuilder, _snapshot

__all__ = [
    "Event",
    "InstalledRule",
    "EventBus",
    "Cluster",
    "DelayProfile",
    "SimProvider",
    "SimCloud",
    "price_catalog",
    "PROVIDERS",
]

PROVIDERS = ("aws", "azure")

_STATE_MAGIC = b"cloudrerun-state/2\n"


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


@dataclass(frozen=True)
class Event:
    """One delivered notification.  Delivery is at-least-once; consumers
    must deduplicate on event_id."""

    event_id: str
    source: str
    name: str
    kind: str  # "lifecycle" or "storage"
    time: Fraction
    payload: dict


@dataclass(frozen=True)
class InstalledRule:
    """A trigger bound to a concrete execution instance."""

    function: str
    instance_id: str
    source: str
    event: str
    match: str  # "exact" or "prefix"

    def matches(self, event: Event) -> bool:
        if event.source != self.source:
            return False
        if self.match == "prefix":
            return event.name.startswith(self.event)
        return event.name == self.event


class EventBus:
    """FIFO queue with id-based deduplication and rule dispatch."""

    def __init__(self) -> None:
        self.queue: deque[Event] = deque()
        self.seen: set[str] = set()
        self.rules: list[tuple[InstalledRule, Callable[[Event], bool]]] = []
        self.dropped: list[Event] = []

    def enqueue(self, event: Event) -> None:
        """Queue an event; with no rule installed none can act, so none is kept."""
        if self.rules:
            self.queue.append(event)

    def install(self, rule: InstalledRule, handler: Callable[[Event], bool]) -> None:
        self.rules.append((rule, handler))

    def retire(self, instance_id: str) -> None:
        """Remove every rule bound to ``instance_id``.  With no rule left no
        event can act, so queued, seen and dropped events are cleared too."""
        self.rules = [pair for pair in self.rules if pair[0].instance_id != instance_id]
        if not self.rules:
            self.queue.clear()
            self.seen.clear()
            self.dropped.clear()

    def dispatch(self, event: Event) -> list[str]:
        """Process one event; returns the names of functions that acted."""
        if event.event_id in self.seen:
            return []
        self.seen.add(event.event_id)
        acted = []
        matched = False
        for rule, handler in self.rules:
            if rule.matches(event):
                matched = True
                if handler(event):
                    acted.append(rule.function)
        if not matched:
            self.dropped.append(event)
        return acted


@dataclass
class Cluster:
    cluster_id: str
    instance_type: str
    instance_count: int
    network_id: str
    scope: str
    state: str = "Provisioning"  # Provisioning -> Ready; delete_cluster removes it
    ready_at: Optional[Fraction] = None


@dataclass(frozen=True)
class DelayProfile:
    """Fixed operation latencies, in seconds."""

    provisioning_s: Fraction = Fraction(30)
    image_pull_s: Fraction = Fraction(10)
    bootstrap_cmd_s: Fraction = Fraction(1)
    terminate_s: Fraction = Fraction(5)
    history_op_s: Fraction = Fraction(1)


class SimProvider:
    """One cloud: live clusters and networks, versioned object stores, database
    tables, and a container image registry.

    A table maps each execution id to its row, in the order the ids were
    first written; a write to a known id replaces its row in place."""

    def __init__(self, name: str, env: "SimCloud") -> None:
        self.name = name
        self.env = env
        self.max_instances = 64
        self.clusters: dict[str, Cluster] = {}
        self.networks: set[str] = set()
        self.stores: dict[str, dict[str, list[bytes]]] = {}
        self.tables: dict[str, dict[str, dict]] = {}
        self.registry: Optional[set[str]] = None  # None: any image resolves
        self._counters: dict[str, int] = {}
        self._op_calls: dict[str, int] = {}
        self._faults: dict[tuple[str, int], Callable[[], Exception]] = {}

    # -- infrastructure ----------------------------------------------------

    def next_id(self, kind: str) -> str:
        n = self._counters.get(kind, 0) + 1
        self._counters[kind] = n
        return f"{self.name}-{kind}-{n:04d}"

    def inject_fault(
        self, operation: str, call_index: int, make_exc: Callable[[], Exception]
    ) -> None:
        self._faults[(operation, call_index)] = make_exc

    def _enter_op(self, operation: str) -> None:
        index = self._op_calls.get(operation, 0)
        self._op_calls[operation] = index + 1
        make_exc = self._faults.pop((operation, index), None)
        if make_exc is not None:
            raise make_exc()

    def _instance_price(self, instance_type: str) -> Fraction:
        prices = price_catalog()["instance_hour"].get(self.name, {})
        if instance_type not in prices:
            raise UnknownInstanceType(
                f"{self.name} has no instance type {instance_type!r}"
            )
        return prices[instance_type]

    def live_instance_count(self) -> int:
        return sum(c.instance_count for c in self.clusters.values())

    # -- compute and network ----------------------------------------------

    def create_network(self, scope: str) -> str:
        self._enter_op("create_network")
        network_id = self.next_id("net")
        self.networks.add(network_id)
        self.env.ledger.open_entry(
            resource_id=network_id,
            category="network",
            unit_price_hour=price_catalog()["network_hour"],
            open_time=self.env.clock.now(),
            scope=scope,
        )
        return network_id

    def delete_network(self, network_id: str) -> None:
        self._enter_op("delete_network")
        if network_id in self.networks:
            self.networks.discard(network_id)
            self.env.ledger.close_entry(network_id, self.env.clock.now())

    def create_cluster(
        self, instance_type: str, instance_count: int, network_id: str, scope: str
    ) -> Cluster:
        """Start provisioning; the cluster turns Ready after the provisioning
        delay, announced by a HardwareEnvReady lifecycle event."""
        self._enter_op("create_cluster")
        price = self._instance_price(instance_type)
        if self.live_instance_count() + instance_count > self.max_instances:
            raise QuotaExceeded(
                f"{self.name}: requested {instance_count} instances, "
                f"{self.max_instances - self.live_instance_count()} available"
            )
        cluster = Cluster(
            cluster_id=self.next_id("cluster"),
            instance_type=instance_type,
            instance_count=instance_count,
            network_id=network_id,
            scope=scope,
        )
        self.clusters[cluster.cluster_id] = cluster
        self.env.ledger.open_entry(
            resource_id=cluster.cluster_id,
            category="compute",
            unit_price_hour=price * instance_count,
            open_time=self.env.clock.now(),
            scope=scope,
        )

        def ready() -> None:
            if self.clusters.get(cluster.cluster_id) is not cluster:
                return
            cluster.state = "Ready"
            cluster.ready_at = self.env.clock.now()
            self.env.emit(
                source=f"{self.name}:instance:{scope}",
                name="HardwareEnvReady",
                kind="lifecycle",
                payload={"cluster_id": cluster.cluster_id},
            )

        self.env.schedule_in(self.env.delays.provisioning_s, ready)
        return cluster

    def delete_cluster(self, cluster_id: str) -> None:
        self._enter_op("delete_cluster")
        if self.clusters.pop(cluster_id, None) is not None:
            self.env.ledger.close_entry(cluster_id, self.env.clock.now())

    # -- images ------------------------------------------------------------

    def seed_registry(self, images: list[str]) -> None:
        """Switch to a strict registry that resolves only seeded images."""
        self.registry = set(images)

    def resolve_image(self, image: str) -> None:
        self._enter_op("resolve_image")
        if self.registry is not None and image not in self.registry:
            raise NoSuchImage(f"{self.name} registry has no image {image!r}")

    # -- object storage ----------------------------------------------------

    def storage_put(self, store: str, key: str, data: bytes, scope: str) -> int:
        self._enter_op("storage_put")
        versions = self.stores.setdefault(store, {}).setdefault(key, [])
        versions.append(bytes(data))
        version = len(versions) - 1
        self.env.ledger.charge_request(scope, "storage_put")
        self.env.emit(
            source=f"{self.name}:objectstore:{store}",
            name=key,
            kind="storage",
            payload={"store": store, "key": key, "version": version},
        )
        return version

    def storage_get(self, store: str, key: str, scope: str) -> bytes:
        """The newest version of the object."""
        self._enter_op("storage_get")
        versions = self.stores.get(store, {}).get(key)
        if not versions:
            raise NoSuchKey(f"{self.name}:{store} has no key {key!r}")
        self.env.ledger.charge_request(scope, "storage_get")
        return versions[-1]

    def storage_has(self, store: str, key: str) -> bool:
        return bool(self.stores.get(store, {}).get(key))

    # -- database ----------------------------------------------------------

    def db_put(self, table: str, record: dict, scope: str) -> None:
        """Upsert the record under its execution_id."""
        self._enter_op("db_put")
        rows = self.tables.setdefault(table, {})
        self.env.ledger.charge_request(scope, "db_write")
        rows[record["execution_id"]] = dict(record)

    def db_query(self, table: str, filters: dict, scope: str) -> list[dict]:
        """Copies of the rows equal to ``filters`` on every field; a filter
        on execution_id reads that one row."""
        self._enter_op("db_query")
        self.env.ledger.charge_request(scope, "db_read")
        rows = self.tables.get(table, {})
        candidates = rows.values()
        if "execution_id" in filters:
            row = rows.get(filters["execution_id"])
            candidates = () if row is None else (row,)
        return [
            json.loads(json.dumps(row))
            for row in candidates
            if all(row.get(k) == v for k, v in filters.items())
        ]

    # -- bookkeeping -------------------------------------------------------

    def inventory(self) -> dict:
        """Live billable resources, which is all the provider holds; empty after clean termination."""
        return {"clusters": sorted(self.clusters), "networks": sorted(self.networks)}


class SimCloud:
    """Shared environment: clock, providers, ledger, scheduler, event bus."""

    def __init__(self, delays: Optional[DelayProfile] = None) -> None:
        self.clock = VirtualClock()
        self.delays = delays or DelayProfile()
        self.ledger = CostLedger()
        for op, price in price_catalog()["request"].items():
            self.ledger.set_request_price(op, price)
        self.providers = {name: SimProvider(name, self) for name in PROVIDERS}
        self.bus = EventBus()
        self.subscribers: list[Callable[[Event], None]] = [self.bus.enqueue]
        self._completions: list[tuple[Fraction, int, Callable[[], None]]] = []
        self._seq = 0
        self._event_counter = 0

    def provider(self, name: str) -> SimProvider:
        try:
            return self.providers[name]
        except KeyError:
            raise UnsupportedProvider(f"no simulated provider {name!r}") from None

    # -- scheduling --------------------------------------------------------

    def schedule_in(self, delay: Fraction, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now; a negative delay means now."""
        self._seq += 1
        when = self.clock.now() + max(Fraction(delay), Fraction(0))
        heapq.heappush(self._completions, (when, self._seq, callback))

    def next_completion_time(self) -> Optional[Fraction]:
        return self._completions[0][0] if self._completions else None

    def run_next_completion(self) -> bool:
        """Advance to the earliest completion and run it.  Returns False when
        nothing is pending."""
        if not self._completions:
            return False
        when, _, callback = heapq.heappop(self._completions)
        if when > self.clock.now():
            self.clock.advance_to(when)
        callback()
        return True

    # -- events ------------------------------------------------------------

    def emit(self, source: str, name: str, kind: str, payload: Optional[dict] = None) -> Event:
        self._event_counter += 1
        event = Event(
            event_id=f"evt-{self._event_counter:06d}",
            source=source,
            name=name,
            kind=kind,
            time=self.clock.now(),
            payload=dict(payload or {}),
        )
        self.deliver(event)
        return event

    def deliver(self, event: Event) -> None:
        """Hand an event to every subscriber; calling this twice with the
        same event models duplicate delivery."""
        for handler in list(self.subscribers):
            handler(event)

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict:
        """What commands change, with stored versions as bytes; the bus, pending completions,
        quota, registry, delays and prices belong to the running environment only."""
        return {
            "clock": str(self.clock.now()),
            "event_counter": self._event_counter,
            "providers": {
                name: {
                    "counters": dict(p._counters),
                    "clusters": [_snapshot(c) for c in p.clusters.values()],
                    "networks": sorted(p.networks),
                    "stores": {s: {k: list(v) for k, v in keys.items()} for s, keys in p.stores.items()},
                    "tables": {table: list(rows.values()) for table, rows in p.tables.items()},
                }
                for name, p in self.providers.items()
            },
            "ledger": self.ledger.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, blob: Callable[[object], bytes] = bytes) -> "SimCloud":
        """The environment a snapshot describes; ``blob`` turns each saved version into bytes.
        Older snapshots also hold terminated clusters, a quota and a registry, which are skipped."""
        env = cls()
        env.clock.advance_to(Fraction(state["clock"]))
        env._event_counter = state["event_counter"]
        cluster = _rebuilder(Cluster)
        for name, pstate in state["providers"].items():
            p = env.providers[name]
            p._counters = dict(pstate["counters"])
            live = (c for c in pstate["clusters"] if c["state"] != "Terminated")
            p.clusters = {c["cluster_id"]: cluster(c) for c in live}
            p.networks = set(pstate["networks"])
            p.stores = {
                store: {key: [blob(v) for v in versions] for key, versions in keys.items()}
                for store, keys in pstate["stores"].items()
            }
            p.tables = {
                table: {row["execution_id"]: dict(row) for row in rows}
                for table, rows in pstate["tables"].items()
            }
        env.ledger.restore_state(state["ledger"])
        return env

    def save_state(self, path) -> None:
        """Write the state file and commit it atomically: a temp file beside ``path``
        is written, flushed and fsynced, then replaces ``path``, so a reader finds the
        old file or the new one, never part of one.  The directory is fsynced last,
        since the rename is not durable before that (Pillai et al., OSDI 2014)."""
        tail, ends = [], [0]

        def reference(blob: bytes) -> list[int]:
            tail.append(blob)
            ends.append(ends[-1] + len(blob))
            return [ends[-2], len(blob)]

        # Without an indent the C encoder runs, calling ``reference`` in key order.
        state = json.dumps(self.to_state(), sort_keys=True, separators=(",", ":"), default=reference)
        directory, name = os.path.split(os.fspath(path))
        # O_EXCL follows no symlink; 0666 less the umask is open()'s mode (mkstemp's is 0600).
        tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(b'%s{"state":%s,"tail_bytes":%d}\n' % (_STATE_MAGIC, state.encode(), ends[-1]))
                fh.writelines(tail)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        dir_fd = os.open(directory or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def load_state(cls, path) -> "SimCloud":
        """Read a ``save_state`` file or a legacy one; a damaged tail raises ValueError."""
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.startswith(_STATE_MAGIC):
            return cls.from_state(json.loads(data), bytes.fromhex)
        _, line, tail = data.split(b"\n", 2)
        index = json.loads(line)
        if index["tail_bytes"] != len(tail):
            raise ValueError(f"{len(tail)} tail bytes, the index records {index['tail_bytes']!r}")

        def blob(ref) -> bytes:
            start, length = ref if type(ref) is list and len(ref) == 2 else (None, None)
            if not (type(start) is int and type(length) is int
                    and 0 <= start <= start + length <= len(tail)):
                raise ValueError(f"stored-object reference {ref!r} is no [offset, length] in the tail")
            return tail[start:start + length]

        return cls.from_state(index["state"], blob)
