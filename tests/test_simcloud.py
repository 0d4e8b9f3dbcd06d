"""Virtual clock, cost ledger, workload model, provider operations."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.errors import (
    ClockModeViolation,
    NoSuchImage,
    NoSuchKey,
    OpenLedger,
    QuotaExceeded,
    StorageFailure,
    UnknownInstanceType,
)
from cloudrerun.simcloud.clock import VirtualClock
from cloudrerun.simcloud.ledger import CostLedger
from cloudrerun.simcloud.provider import SimCloud, price_catalog
from cloudrerun.simcloud.workload import (
    WorkloadProfile,
    parse_workload,
    workload_duration,
    workload_result,
)

from cloudrerun.reproducer import INSTANCE_TYPE_EQUIVALENCE

from oracles import per_second_cost


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0
        assert clock.advance(Fraction(5, 2)) == Fraction(5, 2)
        assert clock.advance_to(10) == 10

    def test_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance(10)
        with pytest.raises(ClockModeViolation):
            clock.advance(-1)
        with pytest.raises(ClockModeViolation):
            clock.advance_to(5)


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
        env.subscribe(events.append)
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
        provider.create_cluster("c5d.large", 3, net, "r")
        with pytest.raises(QuotaExceeded):
            provider.create_cluster("c5d.large", 2, net, "r")

    def test_object_store_versions(self):
        env = SimCloud()
        provider = env.provider("aws")
        assert provider.storage_put("bucket", "k", b"v0", "r") == 0
        assert provider.storage_put("bucket", "k", b"v1", "r") == 1
        assert provider.storage_get("bucket", "k", "r") == b"v1"
        assert provider.storage_get("bucket", "k", "r", version=0) == b"v0"
        with pytest.raises(NoSuchKey):
            provider.storage_get("bucket", "missing", "r")
        with pytest.raises(NoSuchKey):
            provider.storage_get("bucket", "k", "r", version=7)

    def test_storage_events_carry_key_as_name(self):
        env = SimCloud()
        events = []
        env.subscribe(events.append)
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
