"""Lifecycle, event handling, and the two execution modes."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.caam import FUNCTION_NAMES, generate_pipeline
from cloudrerun.errors import (
    AnalyticsFailure,
    CloudRerunError,
    DeploymentRejected,
    MalformedValue,
    QuotaExceeded,
    StorageFailure,
)
from cloudrerun.history import HistoryStore
from cloudrerun.metrics import measure
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import (
    STAGES,
    WORKSPACE_STORE,
    EventBus,
    ExecutionState,
    InstalledRule,
    Orchestrator,
)
from cloudrerun.simcloud.provider import MAX_INSTANCES, SimCloud

from helpers import make_request, personal_text, run_sdk, run_serverless

from oracles import residue_walk


def command_for(serial, parallel, comm, parallelism, seed=0, extra=""):
    return (
        f"analyze --serial-seconds {serial} --parallel-seconds {parallel}"
        f" --comm-seconds {comm} --parallelism {parallelism} --seed {seed}{extra}"
    )


class TestServerlessLifecycle:
    def test_completes_with_ordered_stages(self):
        failing = make_request(command=command_for(1, 1, 0, 1, extra=" --exit-code 3"))
        cases = [
            (make_request(engine="dask", nodes=2), ExecutionState.COMPLETED, STAGES),
            (failing, ExecutionState.FAILED, STAGES[:3] + ("Terminating",)),
        ]
        for req, state, stages in cases:
            outcome, env = run_serverless(req)
            assert outcome.state is state
            assert tuple(outcome.stage_timings) == stages
            boundaries = []
            for stage in stages:
                start, end = outcome.stage_timings[stage]
                assert start <= end
                boundaries.extend([start, end])
            assert boundaries == sorted(boundaries)
            # stages tile the run exactly: no gaps between trigger and action
            assert boundaries[0] == outcome.submitted_at
            assert boundaries[-1] == outcome.ended_at
            assert all(a == b for a, b in zip(boundaries[1::2], boundaries[2::2]))

    def test_stage_durations_follow_delay_profile(self):
        req = make_request(engine="dask", nodes=2, command=command_for(10, 100, 2, 4))
        outcome, env = run_serverless(req)
        durations = {
            stage: end - start for stage, (start, end) in outcome.stage_timings.items()
        }
        assert durations["Provisioning"] == env.delays.provisioning_s
        assert durations["SoftwareSetup"] == env.delays.image_pull_s
        assert durations["Executing"] == 10 + Fraction(100, 8) + 2
        # config + result + record + one new input
        assert durations["Exporting"] == 4 * env.delays.history_op_s
        assert durations["Terminating"] == env.delays.terminate_s

    def test_resources_are_released(self):
        outcome, env = run_serverless(make_request(engine="spark", nodes=3))
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}
        assert not env.ledger.open_entries()

    def test_one_part_per_node_plus_manifest(self):
        outcome, env = run_serverless(make_request(engine="spark", nodes=3))
        prefix = f"export/{outcome.instance_id}/"
        keys = sorted(k for k in env.provider("aws").stores[WORKSPACE_STORE] if k.startswith(prefix))
        parts = [k for k in keys if "part-" in k]
        assert len(parts) == 3
        assert any(k.endswith("manifest.json") for k in keys)
        assert outcome.result_keys == tuple(parts + [f"export/{outcome.instance_id}/manifest.json"])

    def test_record_finalized_completed(self):
        outcome, env = run_serverless(make_request())
        assert outcome.record["status"] == "Completed"
        assert outcome.record["ended_at"] == str(outcome.ended_at)
        assert outcome.history_url.startswith("rpac://aws/execution-history/")

    def test_a_printed_run_leaves_out_its_document_request_and_history(self):
        outcome, _ = run_serverless(make_request(credentials="access_key:AKIAEXAMPLE, secret_key:topsecret"))
        printed = repr(outcome)
        assert outcome.instance_id in printed
        for left_out in ("resources_ini", "topsecret", "HistoryStore", " at 0x"):
            assert left_out not in printed

    def test_bootstrap_extends_setup(self):
        from cloudrerun.config_model import parse_abstract_request
        from helpers import application_text, personal_text, resources_text

        req = parse_abstract_request(
            resources_text(),
            application_text(bootstrap="apt update, pip install x, mount data"),
            personal_text(),
        )
        outcome, env = run_serverless(req)
        start, end = outcome.stage_timings["SoftwareSetup"]
        assert end - start == env.delays.image_pull_s + 3 * env.delays.bootstrap_cmd_s


@pytest.mark.parametrize("record_history", [True, False])
@pytest.mark.parametrize("mode", ["serverless", "sdk"])
def test_finished_runs_leave_no_cluster_in_the_provider(mode, record_history):
    """A deleted cluster leaves its provider, and a saved provider holds only
    what commands change."""
    env = SimCloud()
    orchestrator = Orchestrator(env)
    poll_window = Fraction(5) if mode == "sdk" else None
    failing = command_for(1, 1, 0, 1, extra=" --exit-code 3")
    requests = (
        make_request(engine="spark", nodes=2), make_request(provider="azure"), make_request(command=failing)
    )
    states = [
        orchestrator.run(generate_pipeline(req), mode, poll_window, record_history).state
        for req in requests
    ]
    assert states == [ExecutionState.COMPLETED, ExecutionState.COMPLETED, ExecutionState.FAILED]
    assert {name: p.clusters for name, p in env.providers.items()} == {"aws": {}, "azure": {}}
    for pstate in env.to_state()["providers"].values():
        assert sorted(pstate) == ["clusters", "counters", "networks", "stores", "tables"]
        assert pstate["clusters"] == [] and pstate["networks"] == []


@pytest.mark.parametrize("flag", ["--parallelism 0", "--seed x", "--serial-seconds 1/0", "--comm-seconds -1"])
def test_a_bad_workload_flag_fails_at_parse_before_an_id_is_drawn(flag):
    env = SimCloud()
    with pytest.raises(MalformedValue, match=r"^application.ini: \[application\] command: "):
        Orchestrator(env).run_serverless(generate_pipeline(make_request(command=f"analyze {flag}")))
    assert {name: p._counters for name, p in env.providers.items()} == {"aws": {}, "azure": {}}


class TestEventHandling:
    def test_duplicate_events_processed_once(self):
        env = SimCloud()
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request(engine="dask", nodes=1))
        inst = orchestrator.deploy(doc)
        orchestrator.start(inst)
        delivered = []
        seen_events = []
        while inst.state not in (ExecutionState.COMPLETED, ExecutionState.FAILED):
            if orchestrator.bus.queue:
                event = orchestrator.bus.queue.popleft()
                seen_events.append(event)
                delivered.append(orchestrator.bus.dispatch(event))
                # deliver every event twice: the second copy must be a no-op
                assert orchestrator.bus.dispatch(event) == []
            else:
                assert env.run_next_completion()
        assert inst.state is ExecutionState.COMPLETED
        # exactly one Config.zip version despite duplicate storage events
        store = env.provider("aws").stores["execution-history"]
        assert len(store[f"executions/{inst.instance_id}/Config.zip"]) == 1

    def test_late_storage_event_is_noop(self):
        env = SimCloud()
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request(engine="dask", nodes=2))
        inst = orchestrator.deploy(doc)
        orchestrator.start(inst)
        pending = []
        while inst.state not in (ExecutionState.COMPLETED, ExecutionState.FAILED):
            if orchestrator.bus.queue:
                event = orchestrator.bus.queue.popleft()
                if event.kind == "storage" and event.name.startswith("export/"):
                    pending.append(event)
                acted = orchestrator.bus.dispatch(event)
                if event.kind == "storage" and acted:
                    # re-delivering the *other* part events later must not act
                    for late in pending[:-1]:
                        assert orchestrator.bus.dispatch(late) == []
            else:
                assert env.run_next_completion()
        assert inst.state is ExecutionState.COMPLETED

    def test_unmatched_events_are_dropped(self):
        bus = EventBus()
        rule = InstalledRule("f", "i", "aws:instance:i", "Go", "exact")
        bus.install(rule, lambda: True)
        from cloudrerun.simcloud.provider import Event

        stray = Event("e-1", "aws:instance:other", "Go", "lifecycle", Fraction(0), {})
        assert bus.dispatch(stray) == []
        assert bus.dropped == [stray]

    def test_finished_runs_retire_their_rules(self):
        env = SimCloud()
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request())
        runs = [
            lambda: orchestrator.run_serverless(doc),
            lambda: orchestrator.run_sdk(doc, poll_window=Fraction(10)),
            lambda: orchestrator.run_serverless(doc, record_history=False),
        ]
        for run in runs:
            assert run().state is ExecutionState.COMPLETED
            assert orchestrator.bus.rules == []

    def test_only_the_finished_instance_loses_its_rules(self):
        from cloudrerun.simcloud.provider import Event

        env = SimCloud()
        orchestrator = Orchestrator(env)
        bus = orchestrator.bus
        first = orchestrator.deploy(generate_pipeline(make_request()))
        second = orchestrator.deploy(
            generate_pipeline(make_request(command=command_for(50, 100, 2, 2)))
        )
        assert len(bus.rules) == 8
        orchestrator.start(first)
        orchestrator.start(second)
        assert orchestrator._drive(first).state is ExecutionState.COMPLETED
        assert second.state is ExecutionState.EXECUTING
        assert [rule.instance_id for rule, _ in bus.rules] == [second.instance_id] * 4
        late = Event("late-1", first.source, "ExportComplete", "lifecycle", env.clock.now(), {})
        assert bus.dispatch(late) == []
        assert bus.dropped[-1] == late
        assert orchestrator._drive(second).state is ExecutionState.COMPLETED
        assert bus.rules == []

    @pytest.mark.parametrize("mode", ["serverless", "sdk"])
    def test_a_step_ignores_a_fresh_copy_of_the_event_it_acted_on(self, mode):
        """Dedup ids cannot catch a redelivery under a new id; the state
        guard must, for every one of the four functions."""
        orchestrator = Orchestrator(SimCloud())
        bus = orchestrator.bus
        poll_window = Fraction(10) if mode == "sdk" else None
        inst = orchestrator.deploy(generate_pipeline(make_request()), mode, poll_window=poll_window)
        dispatch = bus.dispatch
        replayed = []

        def dispatch_and_replay(event):
            acted = dispatch(event)
            if acted:
                before = list(inst.transitions)
                assert dispatch(dataclasses.replace(event, event_id=f"copy-{event.event_id}")) == []
                assert inst.transitions == before
                replayed.extend(acted)
            return acted

        bus.dispatch = dispatch_and_replay
        assert orchestrator._drive(inst).state is ExecutionState.COMPLETED
        assert replayed == list(FUNCTION_NAMES)

    @pytest.mark.parametrize("mode", ["serverless", "sdk"])
    def test_a_bus_without_rules_keeps_no_ids_or_dropped_events(self, mode):
        orchestrator = Orchestrator(SimCloud())
        doc = generate_pipeline(make_request())
        for _ in range(3):
            if mode == "sdk":
                outcome = orchestrator.run_sdk(doc, poll_window=Fraction(10))
            else:
                outcome = orchestrator.run_serverless(doc)
            assert outcome.state is ExecutionState.COMPLETED
            assert orchestrator.bus.seen == set()
            assert orchestrator.bus.dropped == []

    @pytest.mark.parametrize("mode", ["serverless", "sdk"])
    @pytest.mark.parametrize(
        "fault",
        [("create_network", 0), ("create_cluster", 0), ("delete_cluster", 0),
         ("delete_network", 0), ("db_put", 1)],
        ids=lambda fault: f"{fault[0]}[{fault[1]}]",
    )
    def test_a_run_that_raises_retires_its_rules(self, mode, fault):
        env = SimCloud()
        env.provider("aws").inject_fault(*fault, lambda: StorageFailure("injected"))
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request())
        with pytest.raises(StorageFailure):
            if mode == "sdk":
                orchestrator.run_sdk(doc, poll_window=Fraction(10))
            else:
                orchestrator.run_serverless(doc)
        assert orchestrator.bus.rules == []

    def test_a_run_that_raises_leaves_no_ids_or_dropped_events_behind(self):
        orchestrator = Orchestrator(SimCloud())
        with pytest.raises(QuotaExceeded):
            orchestrator.run_serverless(generate_pipeline(make_request(engine="dask", nodes=100)))
        doc = generate_pipeline(make_request())
        for _ in range(3):
            assert orchestrator.run_serverless(doc).state is ExecutionState.COMPLETED
        assert orchestrator.bus.seen == set()
        assert orchestrator.bus.dropped == []

    def test_prefix_matching(self):
        rule = InstalledRule("f", "i", "aws:objectstore:b", "export/i/", "prefix")
        from cloudrerun.simcloud.provider import Event

        hit = Event("e-1", "aws:objectstore:b", "export/i/part-0", "storage", Fraction(0), {})
        miss = Event("e-2", "aws:objectstore:b", "export/j/part-0", "storage", Fraction(0), {})
        assert rule.matches(hit)
        assert not rule.matches(miss)


class TestSdkMode:
    def test_sdk_slower_by_exact_residues(self):
        req = make_request(engine="dask", nodes=2, command=command_for(10, 100, 2, 4))
        serverless, _ = run_serverless(req)
        sdk, _ = run_sdk(req, poll_window=10)
        stage_durations = [
            end - start for _, (start, end) in sorted(
                serverless.stage_timings.items(), key=lambda kv: kv[1][0]
            )
        ]
        polled_total, residues = residue_walk(stage_durations, Fraction(10))
        assert sdk.duration_s == polled_total
        assert sdk.duration_s - serverless.duration_s == sum(residues, Fraction(0))

    def test_sdk_results_equal_serverless(self):
        req = make_request(engine="spark", nodes=2)
        serverless, env_a = run_serverless(req)
        sdk, env_b = run_sdk(req)
        assert sdk.state is ExecutionState.COMPLETED
        # fresh environments assign the same ids, so keys line up directly
        assert serverless.result_keys == sdk.result_keys
        bytes_a = [
            env_a.provider("aws").storage_get(WORKSPACE_STORE, k, "t")
            for k in serverless.result_keys
        ]
        bytes_b = [
            env_b.provider("aws").storage_get(WORKSPACE_STORE, k, "t")
            for k in sdk.result_keys
        ]
        assert bytes_a == bytes_b

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.builds(Fraction, st.integers(0, 10**10), st.integers(1, 10**6)),
        window=st.builds(Fraction, st.integers(1, 1000), st.integers(1, 10)),
        # at most 10 s, so the walk takes at most 100 ticks a stage
        durations=st.lists(st.builds(lambda n, d: Fraction(n % (10 * d + 1), d),
                                     st.integers(0, 10**7), st.integers(1, 10**6)), max_size=5),
    )
    def test_poll_tick_is_the_walked_tick(self, start, window, durations):
        env = SimCloud()
        env.clock.advance_to(start)
        orchestrator = Orchestrator(env)
        inst = SimpleNamespace(submitted_at=start, poll_window=window)
        tick = start
        for duration in durations:
            tick = orchestrator._poll_tick(inst, tick + duration)
            assert type(tick) is Fraction and env.clock.now() == tick
        assert tick == start + residue_walk(durations, window)[0]

    def test_window_multiple_of_stages_adds_nothing(self):
        # every stage duration divides the window evenly: no residues
        req = make_request(command=command_for(10, 20, 0, 1))  # executing = 30s
        serverless, _ = run_serverless(req)
        assert {
            end - start for _, (start, end) in serverless.stage_timings.items()
        } <= {Fraction(30), Fraction(10), Fraction(4), Fraction(5)}
        sdk, _ = run_sdk(req, poll_window=Fraction(1))
        assert sdk.duration_s == serverless.duration_s

    def test_modes_bill_the_same_requests(self):
        # each mode writes the history record once
        req = make_request()
        for run in (run_serverless, run_sdk):
            outcome, env = run(req)
            counts = {
                op: n for (scope, op), n in env.ledger.request_counts.items()
                if scope == outcome.instance_id
            }
            assert counts == {"storage_put": 5, "storage_get": 2, "db_write": 2, "db_read": 3}, run

    def test_poll_window_must_be_positive(self):
        req = make_request()
        env = SimCloud()
        with pytest.raises(MalformedValue):
            Orchestrator(env).run_sdk(generate_pipeline(req), poll_window=Fraction(0))

    @pytest.mark.parametrize("window", ["soon", "1/0", 0, None])
    def test_poll_window_that_is_no_positive_rational_is_malformed(self, window):
        env = SimCloud()
        with pytest.raises(MalformedValue, match="poll window"):
            Orchestrator(env).deploy(generate_pipeline(make_request()), mode="sdk", poll_window=window)
        # rejected before an execution id was drawn
        assert env.provider("aws").next_id("exec") == "aws-exec-0001"


    def test_only_an_sdk_record_names_a_poll_window(self):
        env = SimCloud()
        doc = generate_pipeline(make_request())
        # a serverless run ignores the window it is given, however bad
        inst = Orchestrator(env).deploy(doc, mode="serverless", poll_window="soon")
        serverless = Orchestrator(env)._drive(inst)
        assert serverless.state is ExecutionState.COMPLETED
        assert inst.poll_window is None
        assert "poll_window_s" not in inst.history.get_record(inst.instance_id)["parameters"]
        sdk = Orchestrator(env).run(doc, "sdk", Fraction(5, 2))
        assert sdk.record["parameters"] == {**serverless.record["parameters"], "poll_window_s": "5/2"}


class TestOneBusPerEnvironment:
    def test_orchestrators_on_one_environment_share_its_bus(self):
        env = SimCloud()
        assert env.subscribers == [env.bus.enqueue]
        first, second = Orchestrator(env), Orchestrator(env)
        assert first.bus is env.bus and second.bus is env.bus
        doc = generate_pipeline(make_request())
        a, b = first.deploy(doc), second.deploy(doc, "sdk", poll_window=Fraction(10))
        assert len(env.bus.rules) == 8
        assert first._drive(a).state is ExecutionState.COMPLETED
        assert [rule.instance_id for rule, _ in env.bus.rules] == [b.instance_id] * 4
        assert second._drive(b).state is ExecutionState.COMPLETED
        assert env.bus.rules == []
        assert env.subscribers == [env.bus.enqueue]

    def test_runs_keep_the_one_subscriber(self):
        env = SimCloud()
        doc = generate_pipeline(make_request())
        for mode, window in (("serverless", None), ("sdk", Fraction(10))):
            assert Orchestrator(env).run(doc, mode, window).state is ExecutionState.COMPLETED
            assert env.subscribers == [env.bus.enqueue]
        with pytest.raises(QuotaExceeded):
            Orchestrator(env).run(generate_pipeline(make_request(engine="spark", nodes=MAX_INSTANCES + 1)))
        assert env.subscribers == [env.bus.enqueue]
        assert (env.bus.rules, list(env.bus.queue), env.bus.seen) == ([], [], set())

    def test_a_loaded_environment_starts_with_its_own_empty_bus(self):
        env = SimCloud()
        Orchestrator(env).start(Orchestrator(env).deploy(generate_pipeline(make_request())))
        assert env.run_next_completion()  # hardware ready: one event queued
        assert len(env.bus.queue) == 1 and len(env.bus.rules) == 4
        state = env.to_state()
        assert set(state) == {"clock", "event_counter", "providers", "ledger"}
        again = SimCloud.from_state(state, b"")
        assert again.bus is not env.bus
        assert again.subscribers == [again.bus.enqueue]
        assert (again.bus.rules, list(again.bus.queue), again.bus.seen) == ([], [], set())
        assert again.to_state() == state


class TestFailures:
    def test_missing_image_fails_and_cleans_up(self):
        # Every image resolves, so a missing image is a pull broken by an injected fault.
        env = SimCloud()
        env.provider("aws").inject_fault("resolve_image", 0, lambda: StorageFailure("no such image"))
        outcome = Orchestrator(env).run_serverless(generate_pipeline(make_request()))
        assert outcome.state is ExecutionState.FAILED
        assert "no such image" in outcome.failure
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}
        assert outcome.record["status"] == "Failed"
        assert outcome.record["config_key"] is None

    def test_injected_pull_failure(self):
        env = SimCloud()
        provider = env.provider("aws")
        provider.inject_fault("resolve_image", 0, lambda: StorageFailure("registry timeout"))
        outcome = Orchestrator(env).run_serverless(generate_pipeline(make_request()))
        assert outcome.state is ExecutionState.FAILED
        assert "StorageFailure" in outcome.failure and "registry timeout" in outcome.failure
        assert provider.inventory() == {"clusters": [], "networks": []}

    def test_nonzero_exit_code(self):
        req = make_request(command=command_for(1, 1, 0, 1, extra=" --exit-code 3"))
        outcome, env = run_serverless(req)
        assert outcome.state is ExecutionState.FAILED
        assert "AnalyticsFailure" in outcome.failure
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}

    def test_storage_fault_during_result_write(self):
        env = SimCloud()
        env.provider("aws").inject_fault(
            "storage_put", 0, lambda: StorageFailure("bucket offline")
        )
        outcome = Orchestrator(env).run_serverless(generate_pipeline(make_request()))
        assert outcome.state is ExecutionState.FAILED
        assert "StorageFailure" in outcome.failure
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}

    def test_quota_exceeded_at_start(self):
        env = SimCloud()
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request(engine="spark", nodes=MAX_INSTANCES + 1))
        with pytest.raises(QuotaExceeded):
            orchestrator.run_serverless(doc)
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}

    def test_sdk_mode_failure_path(self):
        env = SimCloud()
        env.provider("aws").inject_fault("resolve_image", 0, lambda: StorageFailure("registry timeout"))
        outcome = Orchestrator(env).run_sdk(generate_pipeline(make_request()))
        assert outcome.state is ExecutionState.FAILED
        assert env.provider("aws").inventory() == {"clusters": [], "networks": []}
        assert outcome.record["status"] == "Failed"
        assert outcome.record["ended_at"] == str(outcome.ended_at)

    @pytest.mark.parametrize("mode", ["serverless", "sdk"])
    def test_a_run_cut_off_from_its_events_stalls_and_retires_its_rules(self, mode):
        """With no subscriber the bus never hears that the hardware is ready:
        nothing is queued and nothing is pending, so the drive raises."""
        env = SimCloud()
        env.subscribers.clear()
        poll_window = Fraction(10) if mode == "sdk" else None
        with pytest.raises(CloudRerunError) as raised:
            Orchestrator(env).run(generate_pipeline(make_request()), mode, poll_window)
        assert repr(raised.value) == repr(CloudRerunError("aws-exec-0001 stalled in state Provisioning"))
        assert env.bus.rules == []


@pytest.mark.parametrize("completes", [True, False])
@pytest.mark.parametrize("run", [run_serverless, run_sdk])
def test_the_record_and_the_outcome_say_the_same_of_a_run(monkeypatch, run, completes):
    stored = []
    put = HistoryStore.put_record
    monkeypatch.setattr(HistoryStore, "put_record", lambda self, *args: stored.append(put(self, *args)) or stored[-1])
    command = None if completes else command_for(1, 1, 0, 1, extra=" --exit-code 3")
    outcome, _ = run(make_request(engine="dask", nodes=2, command=command))

    assert outcome.state is (ExecutionState.COMPLETED if completes else ExecutionState.FAILED)
    shared = ("provider", "engine", "mode", "submitted_at", "ended_at", "stage_timings", "failure")
    payload = outcome.payload()
    assert {key: outcome.record[key] for key in shared} == {key: payload[key] for key in shared}
    assert stored[-1] == outcome.record
    # A completed run stored its pending record at export; a failed one
    # archived nothing, so its final record is its only one.
    pending = stored[:-1]
    assert len(pending) == (1 if completes else 0)
    for record in pending:
        assert record["status"] == "Completed-pending-termination"
        assert "ended_at" not in record and "stage_timings" not in record
        assert all(record[key] == payload[key] for key in shared if key in record)


class TestDeploymentValidation:
    def make_doc(self):
        return generate_pipeline(make_request())

    def test_unknown_provider(self):
        doc = self.make_doc()
        doc.body["provider"] = "gcloud"
        bad = type(doc)(provider="gcloud", body=doc.body)
        with pytest.raises(DeploymentRejected):
            Orchestrator(SimCloud()).deploy(bad)

    def test_broken_archive(self):
        doc = self.make_doc()
        doc.body["archive"] = {"resources_ini": "oops"}
        with pytest.raises(DeploymentRejected):
            Orchestrator(SimCloud()).deploy(doc)

    @pytest.mark.parametrize(
        "mode, poll_window",
        [("sdk", None), ("sdk", Fraction(0)), ("batch", None)],
        ids=["sdk-without-window", "sdk-zero-window", "unknown-mode"],
    )
    def test_mode_and_window_are_checked_before_the_run_exists(self, mode, poll_window):
        env = SimCloud()
        provider = env.provider("aws")
        with pytest.raises(MalformedValue):
            Orchestrator(env).deploy(self.make_doc(), mode=mode, poll_window=poll_window)
        assert provider._counters == {}
        assert provider.inventory() == {"clusters": [], "networks": []}

    def assert_rejected_before_an_id_is_drawn(self, doc, message):
        env = SimCloud()
        provider = env.provider("aws")
        with pytest.raises(DeploymentRejected, match=message):
            Orchestrator(env).run(doc)
        assert provider._counters == {}
        assert provider.inventory() == {"clusters": [], "networks": []}
        assert env.ledger.entries == []

    def test_an_archive_edited_to_another_cloud_is_rejected(self):
        doc = self.make_doc()
        azure = generate_pipeline(make_request(provider="azure")).body["archive"]
        doc.body["archive"].update(resources_ini=azure["resources_ini"], personal_ini=azure["personal_ini"])
        self.assert_rejected_before_an_id_is_drawn(doc, "runs on 'azure', not 'aws'")

    def test_an_archive_edited_to_a_bad_horovod_port_is_rejected(self):
        doc = generate_pipeline(make_request(engine="horovod", command="train --ssh-port 2222"))
        archive = doc.body["archive"]
        archive["application_ini"] = archive["application_ini"].replace("2222", "70000")
        self.assert_rejected_before_an_id_is_drawn(doc, "--ssh-port '70000'")

    def test_archive_that_is_not_an_object(self):
        doc = self.make_doc()
        doc.body["archive"] = "x"
        with pytest.raises(DeploymentRejected):
            Orchestrator(SimCloud()).deploy(doc)

    def test_rules_in_any_order_deploy(self):
        doc = self.make_doc()
        doc.body["rules"].reverse()
        assert Orchestrator(SimCloud()).run_serverless(doc).state is ExecutionState.COMPLETED

    def test_deploy_takes_its_arguments_in_the_order_run_does(self):
        inst = Orchestrator(SimCloud()).deploy(self.make_doc(), "sdk", Fraction(5), False)
        assert (inst.mode, inst.poll_window, inst.history) == ("sdk", Fraction(5), None)

    @pytest.mark.parametrize(
        "rules", [list, lambda rules: []], ids=["generated", "emptied"]
    )
    def test_installed_rules_are_the_trigger_table_bound_to_the_run(self, rules):
        """The runtime installs the trigger table, whatever rules the document lists."""
        doc = self.make_doc()
        doc.body["rules"] = rules(doc.body["rules"])
        assert Orchestrator(SimCloud()).run_serverless(doc).state is ExecutionState.COMPLETED
        orchestrator = Orchestrator(SimCloud())
        orchestrator.deploy(doc)
        installed = [
            (rule.function, rule.instance_id, rule.source, rule.event, rule.match)
            for rule, _ in orchestrator.bus.rules
        ]
        source = "aws:instance:aws-exec-0001"
        assert installed == [
            ("software_env_setup", "aws-exec-0001", source, "HardwareEnvReady", "exact"),
            ("run_analytics", "aws-exec-0001", source, "SoftwareEnvReady", "exact"),
            ("export_execution", "aws-exec-0001", f"aws:objectstore:{WORKSPACE_STORE}",
             "export/aws-exec-0001/", "prefix"),
            ("terminate_resources", "aws-exec-0001", source, "ExportComplete", "exact"),
        ]


def _environment_after_run(mode="serverless", command=None, env=None, ends=ExecutionState.COMPLETED):
    env = env or SimCloud()
    window = Fraction(10) if mode == "sdk" else None
    doc = generate_pipeline(make_request(command=command) if command else make_request())
    assert Orchestrator(env).run(doc, mode, window).state is ends
    return env


def _environment_after_reproduce():
    env = SimCloud()
    url = Orchestrator(env).run(generate_pipeline(make_request())).history_url
    assert reproduce(env, url, OverrideSet(personal_text=personal_text())).outcome.state is ExecutionState.COMPLETED
    return env


def _environment_loaded_then_run(tmp_path):
    _environment_after_run().save_state(tmp_path / "simcloud.json")
    return _environment_after_run(env=SimCloud.load_state(tmp_path / "simcloud.json"))


ENVIRONMENT_LIFETIMES = {
    "bare": lambda tmp_path: SimCloud(),
    "serverless": lambda tmp_path: _environment_after_run(),
    "sdk": lambda tmp_path: _environment_after_run("sdk"),
    "failed": lambda tmp_path: _environment_after_run(
        command=command_for(1, 1, 0, 1, extra=" --exit-code 1"), ends=ExecutionState.FAILED
    ),
    "reproduce": lambda tmp_path: _environment_after_reproduce(),
    "loaded": _environment_loaded_then_run,
}


class TestEnvironmentLifetime:
    """An environment holds no reference cycle, so it is freed when its last
    reference goes, without the cyclic collector."""

    @pytest.mark.parametrize("case", sorted(ENVIRONMENT_LIFETIMES))
    def test_an_environment_is_freed_with_its_last_reference(self, case, tmp_path):
        gc.disable()
        try:
            env = ENVIRONMENT_LIFETIMES[case](tmp_path)
            ref = weakref.ref(env)
            del env
            assert ref() is None
        finally:
            gc.enable()


FAULT_OPERATIONS = (
    "create_network",
    "create_cluster",
    "resolve_image",
    "storage_put",
    "storage_get",
    "db_put",
    "db_query",
    "delete_cluster",
    "delete_network",
)


def run_with_fault(req, mode, fault, record_history, deliveries=1):
    """One run on a fresh environment with at most one injected fault.

    Returns ``(outcome, error, env)``; exactly one of the first two is None.
    ``deliveries`` subscribes the bus that many times, so each event is
    delivered that often.
    """
    env = SimCloud()
    if fault is not None:
        env.provider("aws").inject_fault(*fault, lambda: StorageFailure("injected"))
    orchestrator = Orchestrator(env)
    for _ in range(deliveries - 1):
        env.subscribers.append(orchestrator.bus.enqueue)
    doc = generate_pipeline(req)
    try:
        if mode == "sdk":
            outcome = orchestrator.run_sdk(
                doc, poll_window=Fraction(10), record_history=record_history
            )
        else:
            outcome = orchestrator.run_serverless(doc, record_history=record_history)
    except CloudRerunError as exc:
        return None, exc, env
    return outcome, None, env


class TestModeEquivalenceSweep:
    def test_single_fault_modes_agree(self):
        requests = [
            make_request(),
            make_request(engine="dask", nodes=2),
            make_request(engine="spark", nodes=3),
            make_request(command=command_for(10, 100, 2, 2, extra=" --exit-code 2")),
        ]
        faults = [None] + [(op, k) for op in FAULT_OPERATIONS for k in range(4)]
        for req in requests:
            for fault in faults:
                for history in (True, False):
                    case = (req.application.command, req.resources.bigdata_engine, fault, history)
                    results = {
                        mode: run_with_fault(req, mode, fault, history)
                        for mode in ("serverless", "sdk")
                    }
                    if fault is None:
                        # every event delivered twice changes no outcome byte
                        for mode, (outcome, _, _) in results.items():
                            twice, _, _ = run_with_fault(req, mode, None, history, deliveries=2)
                            assert twice.to_json() == outcome.to_json(), (case, mode)
                    for outcome, _, env in results.values():
                        if outcome is not None:
                            # a returned run holds nothing and can be measured
                            assert env.provider("aws").inventory() == {"clusters": [], "networks": []}, case
                            assert env.ledger.open_entries(scope=outcome.instance_id) == [], case
                            measure(outcome, env.ledger)
                    (out_a, err_a, env_a), (out_b, err_b, env_b) = results.values()
                    if err_a is not None or err_b is not None:
                        assert repr(err_a) == repr(err_b), case
                        continue
                    for outcome, env in ((out_a, env_a), (out_b, env_b)):
                        start, end = outcome.stage_timings["Terminating"]
                        assert end - start == env.delays.terminate_s, (case, outcome.mode)
                    assert out_a.state is out_b.state, case
                    assert out_a.failure == out_b.failure, case
                    assert out_a.result_keys == out_b.result_keys, case
                    assert out_a.history_url == out_b.history_url, case
                    statuses = [o.record and o.record["status"] for o in (out_a, out_b)]
                    assert statuses[0] == statuses[1], case
                    assert env_a.ledger.request_counts == env_b.ledger.request_counts, case
                    provider_a, provider_b = env_a.provider("aws"), env_b.provider("aws")
                    assert provider_a.inventory() == provider_b.inventory(), case
                    assert provider_a._op_calls == provider_b._op_calls, case

    def test_twenty_seeded_workloads(self):
        rng = random.Random(1234)
        window = Fraction(10)
        for case in range(20):
            serial = rng.randint(0, 30)
            parallel = rng.randint(0, 300)
            comm = rng.randint(0, 5)
            parallelism = rng.randint(1, 8)
            nodes = rng.randint(1, 4)
            seed = rng.randint(0, 10**6)
            req = make_request(
                engine="dask",
                nodes=nodes,
                command=command_for(serial, parallel, comm, parallelism, seed),
            )
            serverless, _ = run_serverless(req)
            sdk, _ = run_sdk(req, poll_window=window)
            assert serverless.state is ExecutionState.COMPLETED
            assert sdk.state is ExecutionState.COMPLETED
            durations = [
                end - start
                for _, (start, end) in sorted(
                    serverless.stage_timings.items(), key=lambda kv: kv[1][0]
                )
            ]
            polled_total, residues = residue_walk(durations, window)
            assert sdk.duration_s - serverless.duration_s == sum(residues, Fraction(0))
            assert sdk.duration_s == polled_total
