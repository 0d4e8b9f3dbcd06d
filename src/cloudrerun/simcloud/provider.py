"""Simulated cloud providers and the shared simulation environment.

The environment holds a virtual clock, one provider per supported cloud, a
shared cost ledger, a completion scheduler and one event bus.  Provider
operations are deterministic: ids come from counters, durations from a
delay profile, and prices from the ledger's catalog.  Storage writes and
hardware readiness emit events to subscribers; everything else is
synchronous.

The bus is the cloud's event service and the environment's one subscriber;
every orchestrator on the environment installs its trigger rules there.
Like pending completions it is transient, so a loaded environment starts
with an empty bus.

A provider holds live resources only, a cluster as its instance count: a
deleted cluster or network leaves it, and its cost stays in the ledger.

Database tables are keyed by execution id, so a record write or a lookup by
id touches one row.  A row written in the process is a dict; a row loaded
from a state file stays its reference into the file's tail, which
``db_query`` slices and decodes each time it reads it and a save writes
back as it is.

A state file is the line ``cloudrerun-state/3``, one index line of compact,
key-sorted JSON ``{"state": to_state(), "tail_bytes": n}``, then the tail:
the ``n`` raw bytes of every stored version, row and bill, each named in the
index by an ``[offset, length]`` reference.  The index holds what is
small: the clock and counters, each table as ``[execution_id, reference]``
pairs in the order the ids were first written, and each bill as ``[scope,
reference]`` in first-charge order.  A row's bytes are its compact
key-sorted JSON; a bill's are ``ledger.encode_bill``'s.  Every reference is
checked at load, but a damaged row or bill shows only when a command reads
it.  This is the one layout that loads: a file of any other layout is
refused.

A saved environment has nothing live.  A live cluster or network is an
open ledger entry until it is deleted, so a save while one is open raises
``OpenLedger``, and the index's ``clusters``, ``networks`` and ledger
``open`` are always empty lists; a file in which one is not is refused.

A loaded environment keeps the file's tail as one ``ledger.Tail`` and every
stored version, row and bill as its reference into it, sliced only when
read.  Its save writes that tail unchanged and appends the parts written
since, in the index's key order, so a command pays for what it touches;
the bytes of a row written again or a bill charged again stay in the tail,
dead.  A save that would keep more dead bytes than live ones writes the
fresh layout instead, as an environment that never loaded does: every part
in key order, nothing dead.  Either file loads the same.

Fault injection targets one (operation, call_index) pair at a time so tests
can break exactly the n-th call of an operation and nothing else.
"""

from __future__ import annotations

import glob
import heapq
import json
import os
import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..errors import (
    CloudRerunError,
    NoSuchKey,
    QuotaExceeded,
    UnknownInstanceType,
    UnsupportedProvider,
)
from .clock import VirtualClock, as_fraction
from .ledger import CostLedger, Tail, canonical, price_catalog

PROVIDERS = ("aws", "azure")
MAX_INSTANCES = 64  # live instances per provider

_STATE_MAGIC = b"cloudrerun-state/3\n"


def _copy_json(value):
    """A copy of a JSON value sharing no dict or list with it: for the
    dicts, lists, strings, numbers and None a table row holds, what a JSON
    round trip gives back."""
    if type(value) is dict:
        return {key: _copy_json(item) for key, item in value.items()}
    if type(value) is list:
        return [_copy_json(item) for item in value]
    return value


def _read_every_part(state: dict, read: Callable[[object], bytes]) -> None:
    """Replace each stored version, row and bill of a ``to_state`` snapshot by ``read`` of it."""
    for pstate in state["providers"].values():
        for keys in pstate["stores"].values():
            for versions in keys.values():
                versions[:] = map(read, versions)
    pairs = [pair for pstate in state["providers"].values() for rows in pstate["tables"].values() for pair in rows]
    for pair in pairs + state["ledger"]["bills"]:
        pair[1] = read(pair[1])


def decode_row(provider: str, table: str, execution_id: str, raw: bytes) -> dict:
    """The row saved as ``raw`` for ``execution_id``; damaged bytes raise
    ValueError naming the provider, table and id."""
    try:
        row = json.loads(raw)
        if type(row) is not dict or row.get("execution_id") != execution_id:
            raise ValueError("not an object with that execution_id")
    except ValueError as exc:
        raise ValueError(f"{provider} table {table!r}: row {execution_id!r} is damaged: {exc}") from exc
    return row


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
        self.rules: list[tuple[InstalledRule, Callable[[], bool]]] = []
        self.dropped: list[Event] = []

    def enqueue(self, event: Event) -> None:
        """Queue an event; with no rule installed none can act, so none is kept."""
        if self.rules:
            self.queue.append(event)

    def install(self, rule: InstalledRule, handler: Callable[[], bool]) -> None:
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
                if handler():
                    acted.append(rule.function)
        if not matched:
            self.dropped.append(event)
        return acted


@dataclass(frozen=True)
class DelayProfile:
    """Fixed operation latencies, in seconds."""

    provisioning_s: Fraction = Fraction(30)
    image_pull_s: Fraction = Fraction(10)
    bootstrap_cmd_s: Fraction = Fraction(1)
    terminate_s: Fraction = Fraction(5)
    history_op_s: Fraction = Fraction(1)


class SimProvider:
    """One cloud: live clusters and networks, versioned object stores and
    database tables.

    A table maps each execution id to its row, in the order the ids were
    first written; a write to a known id replaces its row in place.  A
    row is a dict, or the part it was stored as: bytes, or a reference
    into the environment's tail.  So is an object version.
    ``env`` is a weak proxy, so an environment is freed with its last reference."""

    def __init__(self, name: str, env: "SimCloud") -> None:
        self.name = name
        self.env = weakref.proxy(env)
        self.clusters: dict[str, int] = {}  # live cluster id -> instance count
        self.networks: set[str] = set()
        self.stores: dict[str, dict[str, list[bytes | list]]] = {}
        self.tables: dict[str, dict[str, dict | bytes | list]] = {}
        self._counters: dict[str, int] = {}
        self._op_calls: dict[str, int] = {}
        self._faults: dict[tuple[str, int], Callable[[], Exception]] = {}

    # -- infrastructure ----------------------------------------------------

    def next_id(self, kind: str) -> str:
        """The next id of ``kind``; one that a table row or a bill already holds
        raises ValueError, so a counter behind its ids overwrites no run."""
        n = self._counters.get(kind, 0) + 1
        new_id = f"{self.name}-{kind}-{n:04d}"
        if new_id in self.env.ledger or any(new_id in rows for rows in self.tables.values()):
            raise ValueError(f"{self.name} counter {kind!r} is at {n - 1}, but {new_id!r} is already taken")
        self._counters[kind] = n
        return new_id

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
        return sum(self.clusters.values())

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

    def create_cluster(self, instance_type: str, instance_count: int, scope: str) -> str:
        """Start provisioning and return the cluster's id; once the
        provisioning delay has passed, a HardwareEnvReady lifecycle event
        announces the cluster, unless it was deleted first."""
        self._enter_op("create_cluster")
        price = self._instance_price(instance_type)
        if self.live_instance_count() + instance_count > MAX_INSTANCES:
            raise QuotaExceeded(
                f"{self.name}: requested {instance_count} instances, "
                f"{MAX_INSTANCES - self.live_instance_count()} available"
            )
        cluster_id = self.next_id("cluster")
        self.clusters[cluster_id] = instance_count
        self.env.ledger.open_entry(cluster_id, "compute", price * instance_count, self.env.clock.now(), scope)

        def ready() -> None:
            if cluster_id in self.clusters:
                payload = {"cluster_id": cluster_id}
                self.env.emit(f"{self.name}:instance:{scope}", "HardwareEnvReady", "lifecycle", payload)

        self.env.schedule_in(self.env.delays.provisioning_s, ready)
        return cluster_id

    def delete_cluster(self, cluster_id: str) -> None:
        self._enter_op("delete_cluster")
        if self.clusters.pop(cluster_id, None) is not None:
            self.env.ledger.close_entry(cluster_id, self.env.clock.now())

    # -- images ------------------------------------------------------------

    def resolve_image(self) -> None:
        """Pull the run's container image: every image resolves, so the pull
        fails only by an injected fault."""
        self._enter_op("resolve_image")

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
        return self.env.tail.read(versions[-1])

    def storage_has(self, store: str, key: str) -> bool:
        return bool(self.stores.get(store, {}).get(key))

    # -- database ----------------------------------------------------------

    def db_put(self, table: str, record: dict, scope: str) -> None:
        """Upsert the record under its execution_id."""
        self._enter_op("db_put")
        rows = self.tables.setdefault(table, {})
        self.env.ledger.charge_request(scope, "db_write")
        self.env.tail.drop(rows.get(record["execution_id"]))
        rows[record["execution_id"]] = dict(record)

    def db_query(self, table: str, filters: dict, scope: str) -> list[dict]:
        """Copies of the rows equal to ``filters`` on every field; a filter
        on execution_id reads that one row.  A stored row is decoded for
        the read and stays as it is."""
        self._enter_op("db_query")
        self.env.ledger.charge_request(scope, "db_read")
        rows = self.tables.get(table, {})
        candidates = rows.items()
        if "execution_id" in filters:
            row = rows.get(filters["execution_id"])
            candidates = () if row is None else ((filters["execution_id"], row),)
        found = []
        for execution_id, row in candidates:
            loaded = type(row) is not dict
            if loaded:
                row = decode_row(self.name, table, execution_id, self.env.tail.read(row))
            if all(row.get(k) == v for k, v in filters.items()):
                found.append(row if loaded else _copy_json(row))
        return found

    # -- bookkeeping -------------------------------------------------------

    def inventory(self) -> dict:
        """Live billable resources, which is all the provider holds; empty after clean termination."""
        return {"clusters": sorted(self.clusters), "networks": sorted(self.networks)}


class SimCloud:
    """Shared environment: clock, providers, ledger, scheduler, event bus,
    and the tail of the state file it was loaded from, if any."""

    def __init__(self, delays: Optional[DelayProfile] = None) -> None:
        self.clock = VirtualClock()
        self.delays = delays or DelayProfile()
        self.ledger = CostLedger()
        self.tail = self.ledger.tail  # the loaded state file's, shared with the ledger
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
        delay, now = as_fraction(delay), self.clock.now()
        self._seq += 1
        when = now + delay if delay > 0 else now
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
        """What commands change, with each stored version, row and bill as its part: bytes,
        or the reference into the loaded tail it still is.  The bus, pending completions,
        delays and prices belong to the running environment only.  A live cluster or
        network, or any other open ledger entry, raises OpenLedger naming it and its scope."""
        return {
            "clock": str(self.clock.now()),
            "event_counter": self._event_counter,
            "providers": {
                name: {
                    "counters": dict(p._counters),
                    # a live cluster or network is an open entry, which the ledger refuses
                    "clusters": [],
                    "networks": [],
                    "stores": {s: {k: list(v) for k, v in keys.items()} for s, keys in p.stores.items()},
                    "tables": {
                        table: [[key, canonical(row) if type(row) is dict else row] for key, row in rows.items()]
                        for table, rows in p.tables.items()
                    },
                }
                for name, p in self.providers.items()
            },
            "ledger": self.ledger.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict, tail: bytes | memoryview) -> "SimCloud":
        """The environment a snapshot describes.  Each stored version, row and bill is
        bytes, or a reference into ``tail``, which the environment keeps.  A counter that
        is not a non-negative int, a reference outside ``tail``, or a live cluster,
        network or open ledger entry, which no save writes, raises ValueError."""

        def count(value, field: str) -> int:
            if type(value) is not int or value < 0:
                raise ValueError(f"{field} must be a non-negative int, got {value!r}")
            return value

        env = cls()
        env.tail = env.ledger.tail = Tail(tail)
        check = env.tail.check
        env.clock.advance_to(as_fraction(state["clock"]))
        env._event_counter = count(state["event_counter"], "event_counter")
        for name, pstate in state["providers"].items():
            p = env.providers[name]
            p._counters = {k: count(v, f"providers.{name}.counters.{k}") for k, v in pstate["counters"].items()}
            for key in ("clusters", "networks"):
                if pstate[key] != []:
                    raise ValueError(f"providers.{name}.{key} is {pstate[key]!r}, but a save holds nothing live")
            p.stores = {
                store: {key: list(map(check, versions)) for key, versions in keys.items()}
                for store, keys in pstate["stores"].items()
            }
            p.tables = {table: {key: check(part) for key, part in rows} for table, rows in pstate["tables"].items()}
        env.ledger.restore_state(state["ledger"])
        return env

    def save_state(self, path) -> None:
        """Write the state file and commit it atomically: a temp file beside ``path``
        is written, flushed and fsynced, then replaces ``path``, so a reader finds the
        old file or the new one, never part of one.  The directory is fsynced last,
        since the rename is not durable before that (Pillai et al., OSDI 2014).  An
        environment with a live cluster, network or open ledger entry raises OpenLedger
        before any file is touched.

        The tail written is the loaded one, unchanged, then every part written since,
        unless the loaded tail holds more dead bytes than live ones: then every part is
        written in key order, as an environment that never loaded writes them.

        There must be one writer per path, as the CLI's lock on the state directory
        ensures: a save first removes every temp file of ``path``, each left by a save
        that crashed before its rename."""
        state, kept = self.to_state(), self.tail.data
        if len(kept) > 2 * self.tail.live:
            _read_every_part(state, self.tail.read)
            kept = b""
        added, size = [], len(kept)

        def reference(blob: bytes) -> list[int]:
            nonlocal size
            added.append(blob)
            size += len(blob)
            return [size - len(blob), len(blob)]

        # Without an indent the C encoder runs, calling ``reference`` in key order
        # for each part that is bytes; a reference into the kept tail is written as it is.
        # A snapshot is a tree, so the encoder need not look for cycles.
        index = json.dumps(state, sort_keys=True, separators=(",", ":"), default=reference, check_circular=False)
        directory, name = os.path.split(os.fspath(path))
        prefix = os.path.join(directory, f".{name}.")
        for stale in glob.glob(glob.escape(prefix) + "*.tmp"):
            os.unlink(stale)
        # O_EXCL follows no symlink; 0666 less the umask is open()'s mode (mkstemp's is 0600).
        tmp = f"{prefix}{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                header = b'%s{"state":%s,"tail_bytes":%d}\n' % (_STATE_MAGIC, index.encode(), size)
                fh.writelines([header, kept, *added])  # the kept tail is not copied
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
        """Read a ``save_state`` file.  A file of another layout or a damaged
        one raises ValueError naming ``path`` and the fault; a damaged row or
        bill, when it is read."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            if not data.startswith(_STATE_MAGIC):
                raise ValueError(f"the first line is not {_STATE_MAGIC.strip().decode()}")
            line = len(_STATE_MAGIC)
            base = data.index(b"\n", line) + 1  # where the tail starts
            index = json.loads(data[line:base - 1])
            size = len(data) - base
            if index["tail_bytes"] != size:
                raise ValueError(f"{size} tail bytes, the index records {index['tail_bytes']!r}")
            return cls.from_state(index["state"], memoryview(data)[base:])
        # ValueError covers another layout, bad JSON, bad literals and a tail unlike the index;
        # CloudRerunError a clock before zero.
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError, CloudRerunError) as exc:
            raise ValueError(f"{path}: malformed state file: {type(exc).__name__}: {exc}") from exc
