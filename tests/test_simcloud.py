"""Virtual clock, cost ledger, workload model, provider operations."""

import json
import os
import random
import stat
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.caam import generate_pipeline
from cloudrerun.errors import (
    ClockModeViolation,
    NoSuchImage,
    NoSuchKey,
    OpenLedger,
    QuotaExceeded,
    StorageFailure,
    UnknownInstanceType,
)
from cloudrerun.history import HistoryStore, find_record_table, parse_url
from cloudrerun.runtime import ExecutionState, Orchestrator
from cloudrerun.simcloud.clock import VirtualClock
from cloudrerun.simcloud.ledger import CostLedger
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud, price_catalog
from cloudrerun.simcloud.workload import (
    WorkloadProfile,
    parse_flags,
    parse_workload,
    workload_duration,
    workload_result,
)

from cloudrerun.reproducer import INSTANCE_TYPE_EQUIVALENCE

from helpers import make_request
from oracles import per_second_cost


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0
        assert clock.advance_to(Fraction(5, 2)) == Fraction(5, 2)
        assert clock.advance_to(10) == 10
        assert clock.advance_to(10) == clock.now() == 10

    def test_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance_to(10)
        with pytest.raises(ClockModeViolation):
            clock.advance_to(Fraction(19, 2))
        assert clock.now() == 10


class TestLedger:
    def test_exact_proration(self):
        ledger = CostLedger()
        entry = ledger.open_entry("i-1", "compute", Fraction("0.768"), Fraction(0))
        entry.close_time = Fraction(90)
        # 0.768/hour for 90 seconds
        assert ledger.compute_cost() == Fraction("0.768") * 90 / 3600

    def test_open_entry_requires_as_of_time(self):
        ledger = CostLedger()
        ledger.open_entry("i-1", "compute", Fraction(1), Fraction(0))
        with pytest.raises(OpenLedger):
            ledger.compute_cost()
        assert ledger.compute_cost(at=Fraction(3600)) == 1

    def test_request_fees(self):
        ledger = CostLedger()
        ledger.set_request_price("storage_put", Fraction("0.000005"))
        ledger.charge_request("run-1", "storage_put", 3)
        assert ledger.compute_cost() == Fraction("0.000015")

    def test_scoped_views(self):
        ledger = CostLedger()
        a = ledger.open_entry("i-1", "compute", Fraction(36), Fraction(0), scope="a")
        b = ledger.open_entry("i-2", "compute", Fraction(36), Fraction(0), scope="b")
        a.close_time = Fraction(100)
        b.close_time = Fraction(200)
        assert ledger.compute_cost(scope="a") == Fraction(1)
        assert ledger.compute_cost(scope="b") == Fraction(2)
        assert ledger.compute_cost() == Fraction(3)

    def test_close_before_open_rejected(self):
        ledger = CostLedger()
        ledger.open_entry("i-1", "compute", Fraction(1), Fraction(50))
        with pytest.raises(OpenLedger):
            ledger.close_entry("i-1", Fraction(10))

    def test_randomized_ledgers_match_per_second_oracle(self):
        rng = random.Random(20260823)
        for _ in range(50):
            ledger = CostLedger()
            spans = []
            for i in range(rng.randint(1, 8)):
                price = Fraction(rng.randint(1, 5000), 1000)
                open_t = Fraction(rng.randint(0, 500))
                close_t = open_t + Fraction(rng.randint(1, 900))
                entry = ledger.open_entry(f"r-{i}", "compute", price, open_t)
                entry.close_time = close_t
                spans.append((price, open_t, close_t))
            assert ledger.compute_cost() == per_second_cost(spans)


class TestWorkload:
    def test_duration_formula(self):
        profile = parse_workload(
            "analyze --serial-seconds 10 --parallel-seconds 100 --comm-seconds 2 --parallelism 4"
        )
        assert workload_duration(profile, 1) == 10 + Fraction(100, 4)
        assert workload_duration(profile, 2) == 10 + Fraction(100, 8) + 2
        assert workload_duration(profile, 5) == 10 + Fraction(100, 20) + 8

    def test_defaults(self):
        profile = parse_workload("analyze")
        assert profile == WorkloadProfile(
            serial_s=Fraction(10),
            parallel_s=Fraction(100),
            comm_s=Fraction(2),
            parallelism=1,
            seed=0,
            exit_code=0,
        )

    def test_a_valueless_flag_does_not_take_the_next_flag(self):
        assert parse_flags("analyze --verbose --seed 3 --trailing") == {"seed": "3"}
        assert parse_workload("analyze --verbose --seed 3").seed == 3

    def test_flag_pairs_give_the_profile_of_their_command(self):
        command = "analyze --serial-seconds 1/2 --parallelism 3 --seed 4 --exit-code 1"
        assert parse_workload(sorted(parse_flags(command).items())) == parse_workload(command)

    def test_result_is_deterministic_and_input_sensitive(self):
        a = workload_result(1, "cmd", ["s3://x"], 2, 4)
        assert a == workload_result(1, "cmd", ["s3://x"], 2, 4)
        assert a != workload_result(2, "cmd", ["s3://x"], 2, 4)
        assert a != workload_result(1, "cmd", ["s3://y"], 2, 4)
        assert len(a) == 128

    @settings(max_examples=40, deadline=None)
    @given(
        serial=st.integers(0, 100),
        parallel=st.integers(0, 1000),
        comm=st.integers(0, 10),
        p=st.integers(1, 16),
        n=st.integers(1, 16),
    )
    def test_duration_property(self, serial, parallel, comm, p, n):
        profile = parse_workload(
            f"a --serial-seconds {serial} --parallel-seconds {parallel} "
            f"--comm-seconds {comm} --parallelism {p}"
        )
        expected = Fraction(serial) + Fraction(parallel, n * p) + Fraction(comm) * (n - 1)
        assert workload_duration(profile, n) == expected


class TestProvider:
    def test_catalog_shapes(self):
        # Every priced instance type translates to a priced type of the
        # other cloud, and nothing else does.
        priced = price_catalog()["instance_hour"]
        for (source, target), table in INSTANCE_TYPE_EQUIVALENCE.items():
            assert set(table) == set(priced[source])
            assert set(table.values()) == set(priced[target])

    def test_cluster_lifecycle_emits_ready_event(self):
        env = SimCloud()
        events = []
        env.subscribers.append(events.append)
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        cluster = provider.create_cluster("c5d.large", 2, net, "run-1")
        assert cluster.state == "Provisioning"
        assert env.run_next_completion()
        assert cluster.state == "Ready"
        assert env.clock.now() == env.delays.provisioning_s
        (event,) = events
        assert event.name == "HardwareEnvReady"
        assert event.source == "aws:instance:run-1"

    def test_a_cluster_deleted_while_provisioning_never_turns_ready(self):
        env = SimCloud()
        events = []
        env.subscribers.append(events.append)
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        cluster = provider.create_cluster("c5d.large", 2, net, "run-1")
        provider.delete_cluster(cluster.cluster_id)
        provider.delete_cluster(cluster.cluster_id)  # already deleted: a no-op
        provider.delete_network(net)
        assert env.run_next_completion()
        assert events == [] and cluster.ready_at is None and provider.clusters == {}
        assert provider.inventory() == {"clusters": [], "networks": []}
        assert not env.ledger.open_entries()

    def test_unknown_instance_type(self):
        env = SimCloud()
        with pytest.raises(UnknownInstanceType):
            env.provider("aws").create_cluster("m5.mega", 1, "net", "run-1")
        with pytest.raises(UnknownInstanceType):
            env.provider("azure").create_cluster("c5d.large", 1, "net", "run-1")

    def test_quota(self):
        env = SimCloud()
        provider = env.provider("aws")
        provider.max_instances = 4
        net = provider.create_network("r")
        first = provider.create_cluster("c5d.large", 3, net, "r")
        with pytest.raises(QuotaExceeded):
            provider.create_cluster("c5d.large", 2, net, "r")
        # deleting a cluster frees its instances
        provider.delete_cluster(first.cluster_id)
        assert provider.live_instance_count() == 0
        second = provider.create_cluster("c5d.large", 4, net, "r")
        assert provider.live_instance_count() == 4
        assert list(provider.clusters) == [second.cluster_id]

    def test_object_store_versions(self):
        env = SimCloud()
        provider = env.provider("aws")
        assert provider.storage_put("bucket", "k", b"v0", "r") == 0
        assert provider.storage_put("bucket", "k", b"v1", "r") == 1
        assert provider.storage_get("bucket", "k", "r") == b"v1"
        assert provider.stores["bucket"]["k"] == [b"v0", b"v1"]
        with pytest.raises(NoSuchKey):
            provider.storage_get("bucket", "missing", "r")

    def test_storage_events_carry_key_as_name(self):
        env = SimCloud()
        events = []
        env.subscribers.append(events.append)
        env.provider("aws").storage_put("bucket", "export/r/part-1", b"x", "r")
        assert events[0].kind == "storage"
        assert events[0].name == "export/r/part-1"
        assert events[0].source == "aws:objectstore:bucket"

    def test_db_upsert_and_query(self):
        env = SimCloud()
        provider = env.provider("azure")
        provider.db_put("t", {"execution_id": "e1", "status": "Running"}, "e1")
        provider.db_put("t", {"execution_id": "e1", "status": "Completed"}, "e1")
        provider.db_put("t", {"execution_id": "e2", "status": "Completed"}, "e2")
        rows = provider.db_query("t", {"status": "Completed"}, "q")
        assert sorted(r["execution_id"] for r in rows) == ["e1", "e2"]
        assert len(provider.tables["t"]) == 2

    def test_registry_open_until_seeded(self):
        env = SimCloud()
        provider = env.provider("aws")
        provider.resolve_image("anything:latest")
        provider.seed_registry(["known:1"])
        provider.resolve_image("known:1")
        with pytest.raises(NoSuchImage):
            provider.resolve_image("anything:latest")

    def test_fault_injection_hits_exact_call(self):
        env = SimCloud()
        provider = env.provider("aws")
        provider.inject_fault("storage_put", 1, lambda: StorageFailure("disk on fire"))
        provider.storage_put("b", "k0", b"", "r")
        with pytest.raises(StorageFailure):
            provider.storage_put("b", "k1", b"", "r")
        provider.storage_put("b", "k2", b"", "r")

    def test_inventory_tracks_live_resources(self):
        env = SimCloud()
        provider = env.provider("aws")
        net = provider.create_network("r")
        cluster = provider.create_cluster("c5d.large", 1, net, "r")
        assert provider.inventory() == {"clusters": [cluster.cluster_id], "networks": [net]}
        provider.delete_cluster(cluster.cluster_id)
        provider.delete_network(net)
        assert provider.inventory() == {"clusters": [], "networks": []}

    def test_scheduler_orders_by_time_then_fifo(self):
        env = SimCloud()
        order = []
        env.schedule_in(Fraction(5), lambda: order.append("b"))
        env.schedule_in(Fraction(2), lambda: order.append("a"))
        env.schedule_in(Fraction(5), lambda: order.append("c"))
        while env.run_next_completion():
            pass
        assert order == ["a", "b", "c"]
        assert env.clock.now() == 5

    def test_state_round_trip(self, tmp_path):
        env = SimCloud()
        provider = env.provider("aws")
        net = provider.create_network("r")
        cluster = provider.create_cluster("c5d.large", 1, net, "r")
        env.run_next_completion()
        provider.storage_put("bucket", "k", b"payload", "r")
        provider.db_put("t", {"execution_id": "e1", "status": "Completed"}, "e1")
        provider.delete_cluster(cluster.cluster_id)
        provider.delete_network(net)
        open_net = provider.create_network("r2")

        path = tmp_path / "state.json"
        env.save_state(path)
        again = SimCloud.load_state(path)
        assert again.clock.now() == env.clock.now()
        assert again.ledger.compute_cost(at=env.clock.now()) == env.ledger.compute_cost(at=env.clock.now())
        assert [e.resource_id for e in again.ledger.open_entries()] == [open_net]
        assert again.provider("aws").storage_get("bucket", "k", "r") == b"payload"
        assert again.provider("aws").tables == provider.tables
        assert again.provider("aws").inventory() == {"clusters": [], "networks": [open_net]}
        assert again.provider("aws").clusters == {}
        assert SimCloud.from_state(env.to_state()).to_state() == env.to_state()

    def test_saved_state_format(self):
        """The exact saved shape of a cluster and of ledger entries: every
        field, with Fractions written as strings, so a field dropped on both
        the saving and the loading side still shows."""
        env = SimCloud()
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        provider.create_cluster("c5d.large", 2, net, "run-1")
        cluster = {
            "cluster_id": "aws-cluster-0001",
            "instance_type": "c5d.large",
            "instance_count": 2,
            "network_id": "aws-net-0001",
            "scope": "run-1",
            "state": "Provisioning",
            "ready_at": None,
        }
        assert json.loads(json.dumps(env.to_state()))["providers"]["aws"]["clusters"] == [cluster]

        env.run_next_completion()
        env.clock.advance_to(Fraction(45))
        provider.delete_network(net)
        state = json.loads(json.dumps(env.to_state()))
        assert state["providers"]["aws"]["clusters"] == [{**cluster, "state": "Ready", "ready_at": "30"}]
        assert state["ledger"]["entries"] == [
            {
                "resource_id": "aws-net-0001",
                "category": "network",
                "unit_price_hour": "1/100",
                "open_time": "0",
                "close_time": "45",
                "scope": "run-1",
            },
            {
                "resource_id": "aws-cluster-0001",
                "category": "compute",
                "unit_price_hour": "24/125",
                "open_time": "0",
                "close_time": None,
                "scope": "run-1",
            },
        ]

        again = SimCloud.from_state(state)
        assert again.provider("aws").clusters == provider.clusters
        assert again.ledger.entries == env.ledger.entries


def _environment_with_history(runs: int) -> SimCloud:
    """One environment after ``runs`` recorded runs across both providers,
    several engines and both execution modes."""
    engines = {"aws": ("none", "spark", "horovod", "dask"), "azure": ("none", "horovod", "dask")}
    env = SimCloud()
    orchestrator = Orchestrator(env)
    for i in range(runs):
        provider = PROVIDERS[i % 2]
        engine = engines[provider][i % len(engines[provider])]
        doc = generate_pipeline(make_request(engine=engine, provider=provider, nodes=1 + i % 3))
        if i % 3:
            outcome = orchestrator.run_serverless(doc)
        else:
            outcome = orchestrator.run_sdk(doc, poll_window=Fraction(5))
        assert outcome.state is ExecutionState.COMPLETED
    return env


def _state_file(state: dict) -> bytes:
    """The bytes ``save_state`` should write for a ``to_state()`` snapshot,
    built by walking it in key order: the magic line, the compact index line
    with each stored version as its ``[offset, length]`` in the tail, then
    the tail."""
    tail = bytearray()

    def index(value):
        if isinstance(value, bytes):
            tail.extend(value)
            return [len(tail) - len(value), len(value)]
        if isinstance(value, dict):
            return {key: index(value[key]) for key in sorted(value)}
        if isinstance(value, list):
            return [index(item) for item in value]
        return value

    state = index(state)
    line = json.dumps({"state": state, "tail_bytes": len(tail)}, sort_keys=True, separators=(",", ":"))
    return b"cloudrerun-state/2\n" + line.encode("ascii") + b"\n" + bytes(tail)


def _hex_versions(state: dict) -> dict:
    """A ``to_state()`` snapshot as legacy files held it: versions in hex."""
    for pstate in state["providers"].values():
        pstate["stores"] = {
            store: {key: [v.hex() for v in versions] for key, versions in keys.items()}
            for store, keys in pstate["stores"].items()
        }
    return state


# A legacy state file, saved before tables were keyed by execution id: five
# runs on both providers, one into a custom table, one failed and one in sdk
# mode.  GOLDEN_STATE_V2 is the same environment in the ``cloudrerun-state/2``
# layout.  Both inputs still hold the five terminated clusters and each
# provider's ``max_instances`` and ``registry``; GOLDEN_STATE_LIVE is the file
# ``save_state`` writes for either of them, without these.
GOLDEN_STATE = Path(__file__).parent / "golden" / "simcloud_state.json"
GOLDEN_STATE_V2 = Path(__file__).parent / "golden" / "simcloud_state.v2"
GOLDEN_STATE_LIVE = Path(__file__).parent / "golden" / "simcloud_state.live.v2"
GOLDENS = (GOLDEN_STATE, GOLDEN_STATE_V2, GOLDEN_STATE_LIVE)


def _saved_providers(path: Path) -> dict:
    """The ``providers`` part of a state file's snapshot, in either layout."""
    data = path.read_bytes()
    if data.startswith(b"cloudrerun-state/2\n"):
        return json.loads(data.split(b"\n", 2)[1])["state"]["providers"]
    return json.loads(data)["providers"]


def _golden_rows() -> list[tuple[str, str, dict]]:
    """(provider, table, row) for every row of the golden file, in file order."""
    saved = json.loads(GOLDEN_STATE.read_text(encoding="utf-8"))
    return [
        (name, table, row)
        for name, pstate in saved["providers"].items()
        for table, rows in pstate["tables"].items()
        for row in rows
    ]


class TestGoldenState:
    def test_covers_the_shapes_it_pins(self):
        rows = _golden_rows()
        assert len(rows) <= 6 and GOLDEN_STATE.stat().st_size <= 64 * 1024
        assert {name for name, _, _ in rows} == set(PROVIDERS)
        assert "team-records" in {table for _, table, _ in rows}
        assert {row["status"] for _, _, row in rows} == {"Completed", "Failed"}
        assert "sdk" in {row["mode"] for _, _, row in rows}
        for golden in (GOLDEN_STATE, GOLDEN_STATE_V2):
            providers = _saved_providers(golden)
            assert [c["state"] for p in providers.values() for c in p["clusters"]] == ["Terminated"] * 5
            assert all({"max_instances", "registry"} <= set(p) for p in providers.values())

    def test_loads_and_saves_back_byte_for_byte(self, tmp_path):
        """Both older layouts save to the live-only file, which saves back to itself."""
        path = tmp_path / "simcloud.json"
        for golden in GOLDENS:
            SimCloud.load_state(golden).save_state(path)
            assert path.read_bytes() == GOLDEN_STATE_LIVE.read_bytes(), golden.name
        for pstate in _saved_providers(GOLDEN_STATE_LIVE).values():
            assert sorted(pstate) == ["clusters", "counters", "networks", "stores", "tables"]
            assert pstate["clusters"] == []

    def test_every_record_is_found(self):
        for golden in GOLDENS:
            env = SimCloud.load_state(golden)
            for name, table, row in _golden_rows():
                execution_id = row["execution_id"]
                assert find_record_table(env, name, execution_id) == table
                store = HistoryStore(env, name, parse_url(row["history_url"])[1], table)
                assert store.get_record(execution_id) == row

    def test_an_upsert_keeps_the_row_in_place(self):
        env = SimCloud.load_state(GOLDEN_STATE)
        before = [row for name, table, row in _golden_rows() if (name, table) == ("aws", "execution-records")]
        assert len(before) > 1
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        store.put_record(before[0]["execution_id"], {**before[0], "status": "Failed"})
        after = env.to_state()["providers"]["aws"]["tables"]["execution-records"]
        assert after == [{**before[0], "status": "Failed"}] + before[1:]


class TestStateFile:
    def test_saved_text_is_compact_sorted_json(self, tmp_path):
        """Magic line, compact key-sorted index line, then the raw tail."""
        env = _environment_with_history(20)
        path = tmp_path / "simcloud.json"
        env.save_state(path)
        data = path.read_bytes()
        magic, line, tail = data.split(b"\n", 2)
        assert magic == b"cloudrerun-state/2"
        index = json.loads(line)
        assert sorted(index) == ["state", "tail_bytes"] and index["tail_bytes"] == len(tail)
        assert tail == b"".join(
            version
            for name in sorted(env.providers)
            for store, keys in sorted(env.provider(name).stores.items())
            for key, versions in sorted(keys.items())
            for version in versions
        )
        assert data == _state_file(env.to_state())
        assert SimCloud.load_state(path).to_state() == env.to_state()

    def test_legacy_indented_file_loads_and_is_saved_compact(self, tmp_path):
        env = _environment_with_history(5)
        path = tmp_path / "simcloud.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_hex_versions(env.to_state()), fh, sort_keys=True, indent=2)
            fh.write("\n")
        again = SimCloud.load_state(path)
        assert again.to_state() == env.to_state()
        again.save_state(path)
        assert path.read_bytes() == _state_file(env.to_state())

    def test_stored_bytes_round_trip(self, tmp_path):
        """Empty, newline-bearing and non-UTF-8 versions, several per key,
        under keys the index line must escape."""
        env = SimCloud()
        blobs = [b"", b"\n", b"two\nlines\n", b"\xff\xfe\x80\x00", bytes(range(256))]
        for blob in blobs:
            env.provider("aws").storage_put("bucket", "k", blob, "r")
        env.provider("azure").storage_put("other", "a\nkey", b"\n\n", "r")
        env.provider("azure").storage_put("other", "ключ", b"", "r")
        path = tmp_path / "simcloud.json"
        env.save_state(path)
        assert path.read_bytes() == _state_file(env.to_state())
        again = SimCloud.load_state(path)
        assert again.provider("aws").stores == {"bucket": {"k": blobs}}
        assert again.provider("azure").stores == {"other": {"a\nkey": [b"\n\n"], "ключ": [b""]}}
        assert {type(v) for p in again.providers.values() for keys in p.stores.values()
                for versions in keys.values() for v in versions} == {bytes}
        again.save_state(path)
        assert path.read_bytes() == _state_file(env.to_state())

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_saved_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        """The mode ``open(path, "wb")`` would give, for a new file and a replaced one."""
        env = _environment_with_history(1)
        path = tmp_path / "simcloud.json"
        previous = os.umask(umask)
        try:
            env.save_state(path)
            assert path.stat().st_mode & 0o777 == mode
            path.chmod(0o600)
            env.save_state(path)
            assert path.stat().st_mode & 0o777 == mode
            with open(tmp_path / "plain", "wb"):
                pass
            assert (tmp_path / "plain").stat().st_mode & 0o777 == mode
        finally:
            os.umask(previous)
        assert sorted(os.listdir(tmp_path)) == ["plain", "simcloud.json"]

    @pytest.mark.parametrize("where", ["while-writing", "at-fsync"])
    def test_a_failed_save_leaves_the_previous_file(self, tmp_path, monkeypatch, where):
        env = _environment_with_history(3)
        path = tmp_path / "simcloud.json"
        env.save_state(path)
        before = path.read_bytes()
        env.provider("aws").create_network("later")
        if where == "while-writing":
            # the encoder meets the object before the temp file is written
            env.provider("aws").tables["broken"] = {"x": {"value": object()}}
            expected = TypeError
        else:
            def fail(fd):
                raise OSError("disk full")
            monkeypatch.setattr(os, "fsync", fail)
            expected = OSError
        with pytest.raises(expected):
            env.save_state(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["simcloud.json"]
        assert SimCloud.load_state(path).provider("aws").networks == set()

    def test_the_directory_is_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        """The temp file is fsynced before it replaces the file, the directory after."""
        env = _environment_with_history(1)
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), (tmp_path / "simcloud.json").exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        env.save_state(tmp_path / "simcloud.json")
        assert synced == [(False, False), (True, True)]
        # a bare file name is saved in, and syncs, the working directory
        monkeypatch.chdir(tmp_path)
        env.save_state("simcloud.json")
        assert synced[2:] == [(False, True), (True, True)]
        assert os.listdir(tmp_path) == ["simcloud.json"]
