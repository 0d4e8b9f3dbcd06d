"""Simulated cloud providers and the shared simulation environment.

The environment holds a virtual clock, one provider per supported cloud, a
shared cost ledger, and a completion scheduler.  Provider operations are
deterministic: ids come from counters, durations from a delay profile, and
prices from a packaged catalog.  Storage writes and hardware readiness emit
events to subscribers; everything else is synchronous.

Fault injection targets one (operation, call_index) pair at a time so tests
can break exactly the n-th call of an operation and nothing else.
"""

from __future__ import annotations

import heapq
import json
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
from .ledger import CostLedger, _rebuild, _snapshot

__all__ = [
    "Event",
    "Cluster",
    "DelayProfile",
    "SimProvider",
    "SimCloud",
    "price_catalog",
    "PROVIDERS",
]

PROVIDERS = ("aws", "azure")


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


@dataclass
class Cluster:
    cluster_id: str
    instance_type: str
    instance_count: int
    network_id: str
    scope: str
    state: str = "Provisioning"  # Provisioning -> Ready -> Terminated
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
    """One cloud: clusters, networks, versioned object stores, database
    tables, and a container image registry."""

    def __init__(self, name: str, env: "SimCloud", max_instances: int = 64) -> None:
        self.name = name
        self.env = env
        self.max_instances = max_instances
        self.clusters: dict[str, Cluster] = {}
        self.networks: set[str] = set()
        self.stores: dict[str, dict[str, list[bytes]]] = {}
        self.tables: dict[str, list[dict]] = {}
        self.registry: Optional[set[str]] = None  # None: any image resolves
        self._counters: dict[str, int] = {}
        self._op_calls: dict[str, int] = {}
        self._faults: dict[tuple[str, int], Callable[[], Exception]] = {}

    # -- infrastructure ----------------------------------------------------

    def _next_id(self, kind: str) -> str:
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
        return sum(
            c.instance_count for c in self.clusters.values() if c.state != "Terminated"
        )

    # -- compute and network ----------------------------------------------

    def create_network(self, scope: str) -> str:
        self._enter_op("create_network")
        network_id = self._next_id("net")
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
            cluster_id=self._next_id("cluster"),
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
            if cluster.state != "Provisioning":
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
        cluster = self.clusters.get(cluster_id)
        if cluster is None or cluster.state == "Terminated":
            return
        cluster.state = "Terminated"
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

    def storage_get(
        self, store: str, key: str, scope: str, version: Optional[int] = None
    ) -> bytes:
        self._enter_op("storage_get")
        versions = self.stores.get(store, {}).get(key)
        if not versions:
            raise NoSuchKey(f"{self.name}:{store} has no key {key!r}")
        self.env.ledger.charge_request(scope, "storage_get")
        if version is None:
            return versions[-1]
        if not 0 <= version < len(versions):
            raise NoSuchKey(f"{self.name}:{store}:{key} has no version {version}")
        return versions[version]

    def storage_has(self, store: str, key: str) -> bool:
        return bool(self.stores.get(store, {}).get(key))

    def list_keys(self, store: str, prefix: str = "") -> list[str]:
        return sorted(k for k in self.stores.get(store, {}) if k.startswith(prefix))

    # -- database ----------------------------------------------------------

    def db_put(self, table: str, record: dict, scope: str) -> None:
        """Upsert by execution_id when the record carries one."""
        self._enter_op("db_put")
        rows = self.tables.setdefault(table, [])
        self.env.ledger.charge_request(scope, "db_write")
        key = record.get("execution_id")
        if key is not None:
            for i, row in enumerate(rows):
                if row.get("execution_id") == key:
                    rows[i] = dict(record)
                    return
        rows.append(dict(record))

    def db_query(self, table: str, filters: dict, scope: str) -> list[dict]:
        self._enter_op("db_query")
        self.env.ledger.charge_request(scope, "db_read")
        out = []
        for row in self.tables.get(table, []):
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(json.loads(json.dumps(row)))
        return out

    # -- bookkeeping -------------------------------------------------------

    def inventory(self) -> dict:
        """Live billable resources; must be empty after clean termination."""
        return {
            "clusters": sorted(
                c.cluster_id for c in self.clusters.values() if c.state != "Terminated"
            ),
            "networks": sorted(self.networks),
        }


class SimCloud:
    """Shared environment: clock, providers, ledger, scheduler, event fanout."""

    def __init__(self, delays: Optional[DelayProfile] = None) -> None:
        self.clock = VirtualClock()
        self.delays = delays or DelayProfile()
        self.ledger = CostLedger()
        for op, price in price_catalog()["request"].items():
            self.ledger.set_request_price(op, price)
        self.providers = {name: SimProvider(name, self) for name in PROVIDERS}
        self.subscribers: list[Callable[[Event], None]] = []
        self._completions: list[tuple[Fraction, int, Callable[[], None]]] = []
        self._seq = 0
        self._event_counter = 0

    def provider(self, name: str) -> SimProvider:
        try:
            return self.providers[name]
        except KeyError:
            raise UnsupportedProvider(f"no simulated provider {name!r}") from None

    # -- scheduling --------------------------------------------------------

    def schedule_at(self, when: Fraction, callback: Callable[[], None]) -> None:
        when = Fraction(when)
        if when < self.clock.now():
            when = self.clock.now()
        self._seq += 1
        heapq.heappush(self._completions, (when, self._seq, callback))

    def schedule_in(self, delay: Fraction, callback: Callable[[], None]) -> None:
        self.schedule_at(self.clock.now() + Fraction(delay), callback)

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

    def subscribe(self, handler: Callable[[Event], None]) -> None:
        self.subscribers.append(handler)

    def unsubscribe(self, handler: Callable[[Event], None]) -> None:
        self.subscribers.remove(handler)

    def emit(
        self,
        source: str,
        name: str,
        kind: str,
        payload: Optional[dict] = None,
        event_id: Optional[str] = None,
    ) -> Event:
        if event_id is None:
            self._event_counter += 1
            event_id = f"evt-{self._event_counter:06d}"
        event = Event(
            event_id=event_id,
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
        """Snapshot for cross-invocation use.  Pending completions and
        subscribers are transient and not captured."""
        return {
            "clock": str(self.clock.now()),
            "event_counter": self._event_counter,
            "providers": {
                name: {
                    "max_instances": p.max_instances,
                    "counters": dict(p._counters),
                    "clusters": [_snapshot(c) for c in p.clusters.values()],
                    "networks": sorted(p.networks),
                    "stores": {
                        store: {
                            key: [v.hex() for v in versions]
                            for key, versions in keys.items()
                        }
                        for store, keys in p.stores.items()
                    },
                    "tables": p.tables,
                    "registry": None if p.registry is None else sorted(p.registry),
                }
                for name, p in self.providers.items()
            },
            "ledger": self.ledger.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, delays: Optional[DelayProfile] = None) -> "SimCloud":
        env = cls(delays)
        env.clock.advance_to(Fraction(state["clock"]))
        env._event_counter = state["event_counter"]
        for name, pstate in state["providers"].items():
            p = env.providers[name]
            p.max_instances = pstate["max_instances"]
            p._counters = dict(pstate["counters"])
            p.clusters = {c["cluster_id"]: _rebuild(Cluster, c) for c in pstate["clusters"]}
            p.networks = set(pstate["networks"])
            p.stores = {
                store: {
                    key: [bytes.fromhex(v) for v in versions]
                    for key, versions in keys.items()
                }
                for store, keys in pstate["stores"].items()
            }
            p.tables = {table: [dict(r) for r in rows] for table, rows in pstate["tables"].items()}
            p.registry = None if pstate["registry"] is None else set(pstate["registry"])
        env.ledger.restore_state(state["ledger"])
        return env

    def save_state(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_state(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load_state(cls, path, delays: Optional[DelayProfile] = None) -> "SimCloud":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_state(json.load(fh), delays)
