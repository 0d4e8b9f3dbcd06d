"""Virtual clock, cost ledger, workload model, provider operations."""

import copy
import json
import os
import random
import re
import shlex
import stat
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.caam import generate_pipeline
from cloudrerun.cli import EXIT_USAGE, main
from cloudrerun.errors import (
    ClockModeViolation,
    MalformedValue,
    NoSuchKey,
    OpenLedger,
    QuotaExceeded,
    StorageFailure,
    UnknownInstanceType,
)
from cloudrerun.history import HistoryStore, find_record_table, parse_url
from cloudrerun.runtime import ExecutionState, Orchestrator
from cloudrerun.simcloud.clock import VirtualClock, as_fraction
from cloudrerun.simcloud.ledger import CostLedger, price_catalog
from cloudrerun.simcloud.provider import MAX_INSTANCES, PROVIDERS, SimCloud
from cloudrerun.simcloud.workload import (
    WorkloadProfile,
    parse_flags,
    parse_workload,
    split_command,
    workload_duration,
    workload_result,
)

from cloudrerun.reproducer import INSTANCE_TYPE_EQUIVALENCE

from helpers import make_request, resolved_state
from oracles import per_second_cost

# Command text: shlex's whitespace, its quotes and escape, characters it
# does not treat as whitespace (\x0b, \xa0) and non-ASCII letters, alone
# and in fragments that quote or escape them.
_command_chars = " \t\r\n\x0b\xa0'\"\\-az9\u00e9\u00df\u0436\u4e2d"
_escaped = st.sampled_from(_command_chars).map(lambda c: "\\" + c)
_commands = st.one_of(
    st.text(alphabet=_command_chars, max_size=30),
    st.lists(
        st.one_of(
            st.text(alphabet=_command_chars, max_size=3),
            _escaped,
            st.text(alphabet=_command_chars.replace("'", ""), max_size=6).map(lambda t: f"'{t}'"),
            st.lists(st.one_of(st.sampled_from(_command_chars.replace('"', "").replace("\\", "")), _escaped),
                     max_size=6).map(lambda parts: '"' + "".join(parts) + '"'),
        ),
        max_size=8,
    ).map("".join),
)


def _tokens_or_error(split, command: str):
    try:
        return split(command)
    except ValueError as exc:
        return f"ValueError: {exc}"


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


# Rational texts as ``Fraction`` reads them: digits (ASCII and others
# ``int`` reads), a point, a slash, exponent marks, signs, underscores and
# whitespace.  Their exponents have at most three digits or lie within
# ±640, the lowest int-digit limit an interpreter can be given.
_rational_chars = "0123456789.eE+-/_ \t\u0661\uff10"
_small_exponent_texts = st.text(alphabet=_rational_chars, max_size=14).filter(
    lambda text: not re.search(r"[eE][-+]?[\d_]{4}", text)
)
_mantissas = st.from_regex(r"\A[-+]?(\d+(\.\d*)?|\.\d+)\Z")
_exponent_texts = st.builds(
    lambda mantissa, mark, exponent, tail: f"{mantissa}{mark}{exponent}{tail}",
    _mantissas, st.sampled_from("eE"), st.integers(-640, 640), st.sampled_from(["", " ", "\n"]),
)


def _value_or_error(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestRationalText:
    @settings(max_examples=300, deadline=None)
    @given(text=_small_exponent_texts | _exponent_texts)
    def test_a_text_without_a_huge_exponent_reads_as_fraction_reads_it(self, text):
        assert _value_or_error(as_fraction, text) == _value_or_error(Fraction, text)

    # Exponents up to 100,000, so a reader that builds them fails fast.
    @settings(max_examples=50, deadline=None)
    @given(mantissa=_mantissas, exponent=st.integers(4301, 100_000), sign=st.sampled_from(["", "+", "-"]))
    def test_an_exponent_above_the_int_digit_limit_is_refused(self, mantissa, exponent, sign):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(f"{mantissa}e{sign}{exponent}")

    # Exponents about the limit, where a numerator or denominator passes it.
    @settings(max_examples=300, deadline=None)
    @given(text=_small_exponent_texts | _exponent_texts | st.builds(
        lambda mantissa, sign, exponent: f"{mantissa}e{sign}{exponent}",
        _mantissas, st.sampled_from(["", "+", "-"]), st.integers(4200, 4300)))
    def test_an_accepted_text_can_be_written_back(self, text):
        try:
            value = as_fraction(text)
        except (ValueError, ZeroDivisionError):
            return
        assert Fraction(str(value)) == value

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-digit limit to set")
    def test_the_limit_is_the_interpreters(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            assert as_fraction("1e4999") == 10**4999  # 5,000 digits: at the limit, not above it
            with pytest.raises(ValueError, match="more than 5000 digits"):
                as_fraction("1e5000")
            with pytest.raises(ValueError, match="exponent"):
                as_fraction("1e5001")
            sys.set_int_max_str_digits(0)  # no limit, as for int
            assert as_fraction("1e-5001") == Fraction(1, 10**5001)
        finally:
            sys.set_int_max_str_digits(limit)


class TestLedger:
    def test_exact_proration(self):
        ledger = CostLedger()
        entry = ledger.open_entry("i-1", "compute", Fraction("0.768"), Fraction(0))
        entry.close_time = Fraction(90)
        # 0.768/hour for 90 seconds
        assert ledger.compute_cost() == Fraction("0.768") * 90 / 3600

    def test_open_entry_is_not_priced(self):
        ledger = CostLedger()
        ledger.open_entry("i-1", "compute", Fraction(1), Fraction(0))
        with pytest.raises(OpenLedger):
            ledger.compute_cost()

    def test_request_fees(self):
        # The catalog prices storage_put at 0.000005 and does not price "unpriced".
        ledger = CostLedger()
        for operation in ("storage_put",) * 3 + ("unpriced",) * 2:
            ledger.charge_request("run-1", operation)
        assert ledger.compute_cost() == Fraction("0.000015")
        assert ledger.breakdown("run-1") == {"requests": Fraction("0.000015")}

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

    def test_closing_an_entry_never_opened_is_rejected(self):
        ledger = CostLedger()
        with pytest.raises(OpenLedger, match="no open entry for resource 'i-1'"):
            ledger.close_entry("i-1", Fraction(10))
        assert ledger.entries == []

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

    def test_a_node_count_below_one_is_rejected(self):
        with pytest.raises(MalformedValue, match="node count must be >= 1, got 0"):
            workload_duration(parse_workload("analyze"), 0)

    def test_the_first_bad_flag_in_reading_order_is_reported(self):
        """Flags are read in one fixed order, whatever their order in the
        command, and the parallelism check follows every read."""
        order = ("serial-seconds", "parallel-seconds", "comm-seconds", "parallelism", "seed", "exit-code")
        for index, flag in enumerate(order):
            command = "analyze " + " ".join(f"--{bad} x" for bad in reversed(order[index:]))
            with pytest.raises(MalformedValue, match=f"^--{flag}: expected an? "):
                parse_workload(command)
        with pytest.raises(MalformedValue, match="^--exit-code: expected an integer"):
            parse_workload("analyze --parallelism 0 --exit-code x")
        with pytest.raises(MalformedValue, match="^--parallelism must be >= 1, got 0$"):
            parse_workload("analyze --parallelism 0 --exit-code 2")

    def test_a_valueless_flag_does_not_take_the_next_flag(self):
        assert parse_flags("analyze --verbose --seed 3 --trailing") == {"seed": "3"}
        assert parse_workload("analyze --verbose --seed 3").seed == 3

    def test_flag_pairs_give_the_profile_of_their_command(self):
        command = "analyze --serial-seconds 1/2 --parallelism 3 --seed 4 --exit-code 1"
        assert parse_workload(sorted(parse_flags(command).items())) == parse_workload(command)

    @settings(max_examples=400, deadline=None)
    @given(command=_commands)
    def test_split_command_is_shlex_split(self, command):
        """The same tokens as shlex.split, or a ValueError with its message."""
        assert _tokens_or_error(split_command, command) == _tokens_or_error(shlex.split, command)

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
        provider.create_network("run-1")
        cluster_id = provider.create_cluster("c5d.large", 2, "run-1")
        assert provider.clusters == {cluster_id: 2} and events == []
        assert env.run_next_completion()
        assert provider.clusters == {cluster_id: 2}
        assert env.clock.now() == env.delays.provisioning_s
        (event,) = events
        assert event.name == "HardwareEnvReady"
        assert event.source == "aws:instance:run-1"
        assert event.payload == {"cluster_id": cluster_id}

    def test_a_cluster_deleted_while_provisioning_never_turns_ready(self):
        env = SimCloud()
        events = []
        env.subscribers.append(events.append)
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        cluster_id = provider.create_cluster("c5d.large", 2, "run-1")
        provider.delete_cluster(cluster_id)
        provider.delete_cluster(cluster_id)  # already deleted: a no-op
        provider.delete_network(net)
        assert env.run_next_completion()
        assert events == [] and provider.clusters == {}
        assert provider.inventory() == {"clusters": [], "networks": []}
        assert not env.ledger.open_entries()

    def test_unknown_instance_type(self):
        env = SimCloud()
        with pytest.raises(UnknownInstanceType):
            env.provider("aws").create_cluster("m5.mega", 1, "run-1")
        with pytest.raises(UnknownInstanceType):
            env.provider("azure").create_cluster("c5d.large", 1, "run-1")

    def test_quota(self):
        env = SimCloud()
        provider = env.provider("aws")
        provider.create_network("r")
        first = provider.create_cluster("c5d.large", MAX_INSTANCES - 1, "r")
        with pytest.raises(QuotaExceeded, match="requested 2 instances, 1 available"):
            provider.create_cluster("c5d.large", 2, "r")
        # deleting a cluster frees its instances
        provider.delete_cluster(first)
        assert provider.live_instance_count() == 0
        second = provider.create_cluster("c5d.large", MAX_INSTANCES, "r")
        assert provider.live_instance_count() == MAX_INSTANCES
        assert provider.clusters == {second: MAX_INSTANCES}

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
        cluster_id = provider.create_cluster("c5d.large", 1, "r")
        assert provider.inventory() == {"clusters": [cluster_id], "networks": [net]}
        provider.delete_cluster(cluster_id)
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
        cluster_id = provider.create_cluster("c5d.large", 1, "r")
        env.run_next_completion()
        provider.storage_put("bucket", "k", b"payload", "r")
        provider.db_put("t", {"execution_id": "e1", "status": "Completed"}, "e1")
        provider.delete_cluster(cluster_id)
        provider.delete_network(net)

        path = tmp_path / "state.json"
        env.save_state(path)
        again = SimCloud.load_state(path)
        assert again.clock.now() == env.clock.now()
        assert again.ledger.entries == env.ledger.entries
        assert again.ledger.request_counts == env.ledger.request_counts
        assert again.ledger.open_entries() == []
        assert again.provider("aws").storage_get("bucket", "k", "r") == b"payload"
        # a loaded row stays the reference to the bytes it was saved as
        assert {t: {k: json.loads(again.tail.read(row)) for k, row in rows.items()}
                for t, rows in again.provider("aws").tables.items()} == provider.tables
        assert again.provider("aws").inventory() == {"clusters": [], "networks": []}
        assert SimCloud.from_state(env.to_state(), b"").to_state() == env.to_state()
        # the id counters go on where they stopped
        assert again.provider("aws").create_network("r2") == provider.create_network("r2") == "aws-net-0002"

    def test_saved_state_format(self):
        """The exact saved shape of a bill: every field, with Fractions
        written as strings, so a field dropped on both the saving and the
        loading side still shows.  A live network or cluster is not saved:
        it is refused, naming it and its scope, ready or not."""
        env = SimCloud()
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        cluster_id = provider.create_cluster("c5d.large", 2, "run-1")
        with pytest.raises(OpenLedger, match="^network 'aws-net-0001' of scope 'run-1' is still open$"):
            env.to_state()

        env.run_next_completion()
        env.clock.advance_to(Fraction(45))
        provider.delete_network(net)
        provider.storage_put("bucket", "k", b"", "run-1")
        with pytest.raises(OpenLedger, match="^compute 'aws-cluster-0001' of scope 'run-1' is still open$"):
            env.to_state()
        env.clock.advance_to(Fraction(60))
        provider.delete_cluster(cluster_id)
        state = env.to_state()
        providers = json.loads(json.dumps(state["providers"], default=bytes.decode))
        assert providers["aws"]["clusters"] == providers["aws"]["networks"] == []
        assert state["ledger"] == {
            "bills": [[
                "run-1",
                b'{"entries":[["aws-net-0001","network","1/100","0","45"],'
                b'["aws-cluster-0001","compute","24/125","0","60"]],"requests":{"storage_put":1}}',
            ]],
            "open": [],
        }

        again = SimCloud.from_state(state, b"")
        assert again.provider("aws").clusters == provider.clusters == {}
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


def _state_file(state: dict, magic: bytes = b"cloudrerun-state/3") -> bytes:
    """The bytes ``save_state`` should write for a ``to_state()`` snapshot,
    built by walking it in key order: the magic line, the compact index line
    with each stored version, row and bill as its ``[offset, length]`` in
    the tail, then the tail."""
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
    return magic + b"\n" + line.encode("ascii") + b"\n" + bytes(tail)


def _compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _older_state(env: SimCloud, version) -> dict:
    """The environment's snapshot as the layouts before ``cloudrerun-state/3``
    held it: decoded rows, one list of ledger entries and one of request
    counts, and each stored version as ``version`` writes it."""
    state = env.to_state()
    for pstate in state["providers"].values():
        pstate["tables"] = {table: [json.loads(row) for _, row in rows] for table, rows in pstate["tables"].items()}
        pstate["stores"] = {
            store: {key: [version(v) for v in versions] for key, versions in keys.items()}
            for store, keys in pstate["stores"].items()
        }
    state["ledger"] = {
        "entries": [{k: str(v) if isinstance(v, Fraction) else v for k, v in vars(e).items()}
                    for e in env.ledger.entries],
        "request_counts": [
            {"scope": scope, "operation": op, "count": n} for (scope, op), n in sorted(env.ledger.request_counts.items())
        ],
    }
    return state


# The state file of five runs on both providers, one into a custom table,
# one failed and one in sdk mode.
GOLDEN_STATE = Path(__file__).parent / "golden" / "simcloud_state.live.v3"


def _golden_index() -> tuple[dict, bytes]:
    """The golden file's snapshot and its tail, split apart without the loader."""
    magic, line, tail = GOLDEN_STATE.read_bytes().split(b"\n", 2)
    assert magic == b"cloudrerun-state/3"
    return json.loads(line)["state"], tail


def _golden_rows() -> list[tuple[str, str, dict]]:
    """(provider, table, row) for every row of the golden file, in file
    order, each row's bytes sliced out of the tail by its reference."""
    state, tail = _golden_index()
    return [
        (name, table, json.loads(tail[start:start + length]))
        for name, pstate in state["providers"].items()
        for table, rows in pstate["tables"].items()
        for _, (start, length) in rows
    ]


class TestGoldenState:
    def test_covers_the_shapes_it_pins(self):
        rows = _golden_rows()
        assert len(rows) <= 6 and GOLDEN_STATE.stat().st_size <= 64 * 1024
        assert {name for name, _, _ in rows} == set(PROVIDERS)
        assert "team-records" in {table for _, table, _ in rows}
        assert {row["status"] for _, _, row in rows} == {"Completed", "Failed"}
        assert "sdk" in {row["mode"] for _, _, row in rows}
        for pstate in _golden_index()[0]["providers"].values():
            assert sorted(pstate) == ["clusters", "counters", "networks", "stores", "tables"]
            assert pstate["clusters"] == []

    def test_loads_and_saves_back_byte_for_byte(self, tmp_path):
        """Saved as loaded, and again after every bill was decoded, which
        saves each one as ``encode_bill`` writes it."""
        path = tmp_path / "simcloud.json"
        env = SimCloud.load_state(GOLDEN_STATE)
        env.save_state(path)
        assert path.read_bytes() == GOLDEN_STATE.read_bytes()
        assert env.ledger.breakdown()
        env.save_state(path)
        assert path.read_bytes() == GOLDEN_STATE.read_bytes()

    def test_every_record_is_found(self):
        env = SimCloud.load_state(GOLDEN_STATE)
        for name, table, row in _golden_rows():
            execution_id = row["execution_id"]
            assert find_record_table(env, name, execution_id) == table
            store = HistoryStore(env, name, parse_url(row["history_url"])[1], table)
            assert store.get_record(execution_id) == row

    def test_queried_rows_are_json_copies(self):
        """A queried row is its stored row's JSON round trip, and changing
        its nested parts leaves the stored row as it was."""
        env = SimCloud.load_state(GOLDEN_STATE)
        for name, table in {(name, table) for name, table, _ in _golden_rows()}:
            stored = env.provider(name).tables[table]
            before = copy.deepcopy(stored)
            rows = env.provider(name).db_query(table, {}, "query")
            assert rows == [row for n, t, row in _golden_rows() if (n, t) == (name, table)]
            for row in rows:
                row["parameters"]["region"] = "elsewhere"
                for timing in row["stage_timings"].values():
                    timing.append("0")
                row["input_keys"].append("inputs/elsewhere")
            assert stored == before

    def test_an_upsert_keeps_the_row_in_place(self):
        env = SimCloud.load_state(GOLDEN_STATE)
        before = [row for name, table, row in _golden_rows() if (name, table) == ("aws", "execution-records")]
        assert len(before) > 1
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        store.put_record(before[0]["execution_id"], {**before[0], "status": "Failed"})
        after = resolved_state(env)["providers"]["aws"]["tables"]["execution-records"]
        assert [json.loads(row) for _, row in after] == [{**before[0], "status": "Failed"}] + before[1:]


class TestStateFile:
    def test_saved_text_is_compact_sorted_json(self, tmp_path):
        """Magic line, compact key-sorted index line, then the raw tail: the
        bills, then per provider its stored versions and its rows."""
        env = _environment_with_history(20)
        path = tmp_path / "simcloud.json"
        env.save_state(path)
        data = path.read_bytes()
        magic, line, tail = data.split(b"\n", 2)
        assert magic == b"cloudrerun-state/3"
        index = json.loads(line)
        assert sorted(index) == ["state", "tail_bytes"] and index["tail_bytes"] == len(tail)
        scopes = [scope for scope, _ in index["state"]["ledger"]["bills"]]
        assert scopes == list(dict.fromkeys(e.scope for e in env.ledger.entries)) and len(scopes) == 20
        parts = [
            _compact({
                "entries": [[e.resource_id, e.category, str(e.unit_price_hour), str(e.open_time), str(e.close_time)]
                            for e in env.ledger.entries if e.scope == scope],
                "requests": {op: n for (s, op), n in env.ledger.request_counts.items() if s == scope},
            })
            for scope in scopes
        ]
        for name in sorted(env.providers):
            p = env.provider(name)
            parts += [version for store, keys in sorted(p.stores.items())
                      for key, versions in sorted(keys.items()) for version in versions]
            parts += [_compact(row) for table, rows in sorted(p.tables.items()) for row in rows.values()]
        assert tail == b"".join(parts)
        assert data == _state_file(env.to_state())
        assert resolved_state(SimCloud.load_state(path)) == env.to_state()

    def test_an_older_layout_is_refused(self, tmp_path):
        """A legacy JSON document, compact or indented, and a
        ``cloudrerun-state/2`` file, each well-formed, are refused and left
        as they are."""
        env = _environment_with_history(5)
        legacy = _older_state(env, bytes.hex)
        path = tmp_path / "simcloud.json"
        for content in (
            _compact(legacy),
            json.dumps(legacy, sort_keys=True, indent=2).encode() + b"\n",
            _state_file(_older_state(env, bytes), b"cloudrerun-state/2"),
        ):
            path.write_bytes(content)
            with pytest.raises(ValueError, match="malformed state file: .*not cloudrerun-state/3"):
                SimCloud.load_state(path)
            assert path.read_bytes() == content

    @pytest.mark.parametrize(
        ("key", "live"),
        [
            ("clusters", [{"cluster_id": "aws-cluster-0001", "instance_type": "c5d.large", "instance_count": 2,
                           "network_id": "aws-net-0001", "scope": "run-1", "state": "Ready", "ready_at": "30"}]),
            ("clusters", [["aws-cluster-0001", -1]]),
            ("clusters", [["aws-cluster-0001", "2"]]),
            ("clusters", [["aws-cluster-0001", 2.0]]),
            ("clusters", [["aws-cluster-0001", True]]),
            ("clusters", [["aws-cluster-0001", None]]),
            ("clusters", [["aws-cluster-0001"]]),
            ("clusters", [["aws-cluster-0001", 2, "c5d.large"]]),
            ("clusters", [["aws-cluster-0001", 2]]),
            ("networks", ["aws-net-0001"]),
            ("open", [{"category": "compute", "close_time": None, "open_time": "0",
                       "resource_id": "aws-cluster-0001", "scope": "run-1", "unit_price_hour": "24/125"}]),
        ],
        ids=["older-dict", "negative", "str", "float", "bool", "null", "no-count", "triple",
             "pair", "network", "open-entry"],
    )
    def test_a_live_cluster_saved_as_anything_but_an_id_and_a_count_is_refused(self, tmp_path, capsys, key, live):
        """No save writes a live cluster, network or open ledger entry.  A
        file holding one, in the shape a save once wrote it, in the shape
        before ``[cluster_id, instance_count]`` or as a pair whose count is
        no non-negative int, is refused with one error line and left as it is."""
        env = SimCloud()
        provider = env.provider("aws")
        net = provider.create_network("run-1")
        cluster_id = provider.create_cluster("c5d.large", 2, "run-1")
        env.run_next_completion()
        provider.delete_cluster(cluster_id)
        provider.delete_network(net)
        state = env.to_state()
        assert state["providers"]["aws"]["clusters"] == state["providers"]["aws"]["networks"] == []
        assert state["ledger"]["open"] == []
        (state["ledger"] if key == "open" else state["providers"]["aws"])[key] = live
        path = tmp_path / "simcloud.json"
        content = _state_file(state)
        path.write_bytes(content)
        with pytest.raises(ValueError, match="malformed state file"):
            SimCloud.load_state(path)
        assert main(["history", "--state-dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed state file") and captured.out == ""
        assert captured.err.count("\n") == 1
        assert path.read_bytes() == content

    def test_a_clock_whose_exponent_exceeds_the_int_digit_limit_is_refused(self, tmp_path, capsys):
        state = _environment_with_history(2).to_state()
        state["clock"] = "1e100000"
        path = tmp_path / "simcloud.json"
        content = _state_file(state)
        path.write_bytes(content)
        assert main(["history", "--state-dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed state file: ValueError: the exponent")
        assert path.read_bytes() == content

    def test_a_run_saved_mid_flight_is_refused_and_touches_no_file(self, tmp_path):
        """A save after a run's hardware is ready, with its cluster and
        network live, raises OpenLedger naming one of them and the run's
        scope; the file saved before the run stays as it was, and no temp
        file is left beside it."""
        env = _environment_with_history(2)
        path = tmp_path / "simcloud.json"
        env.save_state(path)
        saved = path.read_bytes()
        orchestrator = Orchestrator(env)
        inst = orchestrator.deploy(generate_pipeline(make_request()))
        orchestrator.start(inst)
        assert env.run_next_completion()
        assert env.provider(inst.provider).clusters == {inst.cluster_id: inst.node_count}
        live = f"({re.escape(inst.network_id)}|{re.escape(inst.cluster_id)})"
        with pytest.raises(OpenLedger, match=f"'{live}' of scope '{re.escape(inst.instance_id)}' is still open"):
            env.save_state(path)
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == ["simcloud.json"]

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
        stores = {name: state["stores"] for name, state in resolved_state(again)["providers"].items()}
        assert stores["aws"] == {"bucket": {"k": blobs}}
        assert stores["azure"] == {"other": {"a\nkey": [b"\n\n"], "ключ": [b""]}}
        loaded = [v for p in again.providers.values() for keys in p.stores.values()
                  for versions in keys.values() for v in versions]
        assert {type(v) for v in loaded} == {list} and {type(again.tail.read(v)) for v in loaded} == {bytes}
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
        env.provider("aws").storage_put("bucket", "later", b"", "later")
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
        assert not SimCloud.load_state(path).provider("aws").storage_has("bucket", "later")

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
