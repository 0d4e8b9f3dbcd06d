"""Acceptance gate: twelve executable guarantees over the whole toolkit.

Each test prints one terminal line ("[acceptance NN] <title>: PASS" or
FAIL) and enforces the runtime budget attached to its guarantee.  The
bodies deliberately lean on the independent oracles in ``oracles.py``
rather than on the code under test.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from cloudrerun.caam import generate_pipeline, lookup_service
from cloudrerun.config_model import (
    REDACTED,
    Engine,
    parse_abstract_request,
    parse_personal,
)
from cloudrerun.engines import DEFAULT_SSH_DAEMON_PORT, build_security_groups
from cloudrerun.errors import (
    MalformedValue,
    MissingRequiredKey,
    ProviderMismatch,
    UnknownEngine,
    UnsupportedProvider,
)
from cloudrerun.history import HistoryStore
from cloudrerun.metrics import (
    cost_by_usage,
    make_suite_request,
    measure,
    pooled_t_statistic,
    reproducibility_overhead,
    run_scaling_suite,
    two_sided_p_value,
)
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import (
    STAGES,
    TERMINAL_STATES,
    ExecutionState,
    Orchestrator,
)
from cloudrerun.simcloud.ledger import CostLedger
from cloudrerun.simcloud.provider import DelayProfile, Event, SimCloud
from cloudrerun.simcloud.workload import parse_workload

from helpers import (
    application_text,
    make_request,
    personal_text,
    resources_text,
    run_sdk,
    run_serverless,
)
from oracles import (
    allows,
    per_second_cost,
    reachable_pairs,
    residue_walk,
    student_t_reference,
)

HISTORY_STORE = "execution-history"
HISTORY_TABLE = "execution-records"


@contextlib.contextmanager
def criterion(announce, number: int, title: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        announce(f"[acceptance {number:02d}] {title}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_s:
        announce(
            f"[acceptance {number:02d}] {title}: FAIL "
            f"({elapsed:.2f}s exceeds the {budget_s:.0f}s budget)"
        )
        raise AssertionError(f"{title}: took {elapsed:.2f}s, budget {budget_s}s")
    announce(f"[acceptance {number:02d}] {title}: PASS ({elapsed:.2f}s)")


def history_store(env: SimCloud, provider: str = "aws") -> HistoryStore:
    return HistoryStore(env, provider, HISTORY_STORE, HISTORY_TABLE)


# -- 01 ---------------------------------------------------------------------

def grammar_corpus() -> list[tuple[type | None, str, str, str]]:
    """Config triples labelled with the exact error class they must raise,
    or None when they must parse."""
    res, app, per = resources_text, application_text, personal_text
    valid = [
        (res(), app(), per()),
        (res(engine="spark", nodes=4), app(), per()),
        (res(engine="horovod", nodes=2), app(command="train --ssh-port 2222"), per()),
        (res(engine="dask", provider="azure", nodes=2), app(), per(provider="azure")),
        (res(engine="horovod", provider="azure", nodes=3), app(), per(provider="azure")),
        (res(provider="azure"), app(), per(provider="azure")),
        ("[resources]\nbigdata_engine = none\n", app(), per()),
        ("[resources]\nbigdata_engine = dask\n", app(), per(provider="azure")),
        (res(), app(), per(credentials="access_key:AKIA, secret_key:shh")),
        (res(), app(datasets="s3://a, s3://b", bootstrap="apt install tools"), per()),
        (res(extra="\n[cloud.custom]\nflavor = spicy\n"), app(), per()),
        ("[resources]\n", app(), per()),
    ]
    invalid = [
        (UnknownEngine, res(engine="tensorflow"), app(), per()),
        (UnknownEngine, res(engine="Spark"), app(), per()),
        (UnknownEngine, res(engine="mapreduce"), app(), per()),
        (MissingRequiredKey, res(), "[application]\ncommand = analyze\n", per()),
        (MissingRequiredKey, res(), "[application]\ndocker_image =\ncommand = x\n", per()),
        (MissingRequiredKey, res(), app(), "[personal]\nkey_name = k\n"),
        (MissingRequiredKey, res(), app(), "[personal]\ncloud_provider =\n"),
        (MissingRequiredKey, res(engine="spark"), app(command=""), per()),
        (MissingRequiredKey, res(engine="dask"), "[application]\ndocker_image = img:1\n", per()),
        (MalformedValue, res(nodes="two"), app(), per()),
        (MalformedValue, res(nodes=0), app(), per()),
        (MalformedValue, res(nodes=-3), app(), per()),
        (MalformedValue, res(provider="azure", nodes="1.5"), app(), per(provider="azure")),
        (MalformedValue, res(), app(), per(credentials="access_keyAKIA")),
        (MalformedValue, "no section header at all\nkey = value\n", app(), per()),
        (MalformedValue, "[resources]\n[resources]\n", app(), per()),
        (ProviderMismatch, res(provider="aws"), app(), per(provider="azure")),
        (ProviderMismatch, res(provider="azure"), app(), per(provider="aws")),
        (ProviderMismatch, res(provider="aws"), app(), per(provider="gcloud")),
        (ProviderMismatch, "[resources]\nbigdata_engine = none\n", app(), per(provider="gcloud")),
    ]
    return [(None, *triple) for triple in valid] + list(invalid)


def test_01_config_grammar(announce):
    with criterion(announce, 1, "config grammar conformance", budget_s=1.0):
        assert {e.value for e in Engine} == {"none", "spark", "horovod", "dask"}
        corpus = grammar_corpus()
        assert len(corpus) >= 30
        for expected, res_text, app_text, per_text in corpus:
            if expected is None:
                req = parse_abstract_request(res_text, app_text, per_text)
                assert req.resources.bigdata_engine in Engine
                block = req.resources.provider_block(req.personal.cloud_provider)
                assert block is not None
            else:
                with pytest.raises(expected) as info:
                    parse_abstract_request(res_text, app_text, per_text)
                assert info.type is expected


# -- 02 ---------------------------------------------------------------------

BOTH_PROVIDER_RESOURCES = (
    "[resources]\n"
    "bigdata_engine = dask\n"
    "\n"
    "[cloud.aws]\n"
    "region = us-west-2\n"
    "instance_number = 2\n"
    "instance_type = c5d.xlarge\n"
    "subnet_id = subnet-12345\n"
    "vpc_id = vpc-12345\n"
    "\n"
    "[cloud.azure]\n"
    "region = westus2\n"
    "instance_number = 2\n"
    "instance_type = F4s_v2\n"
    "resource_group_name = analytics-rg\n"
)


def assert_document_services_match(doc) -> None:
    provider = doc.provider
    resources = doc.body["executable"]["resources"]
    assert resources["cluster_service"] == lookup_service(provider, "cluster")
    assert resources["network_service"] == lookup_service(provider, "network")
    assert resources["registry_service"] == lookup_service(provider, "container_registry")
    personal = doc.body["executable"]["personal"]
    assert personal["authentication_service"] == lookup_service(provider, "identity")
    for function in doc.body["functions"]:
        assert function["service"] == lookup_service(provider, "deployment_functions")
    storage_rules = [r for r in doc.body["rules"] if r["source_kind"] == "storage"]
    assert storage_rules
    for rule in storage_rules:
        assert rule["service"] == lookup_service(provider, "storage")


def test_02_provider_dispatch(announce):
    with criterion(announce, 2, "adapter dispatch and portability", budget_s=1.0):
        app, per = application_text(), personal_text()
        req_aws = parse_abstract_request(BOTH_PROVIDER_RESOURCES, app, per)
        req_azure = parse_abstract_request(
            BOTH_PROVIDER_RESOURCES, app, personal_text(provider="azure")
        )
        doc_aws = generate_pipeline(req_aws)
        doc_azure = generate_pipeline(req_azure)

        env = SimCloud()
        orchestrator = Orchestrator(env)
        orchestrator.deploy(doc_aws)
        orchestrator.deploy(doc_azure)

        assert doc_aws.provider == "aws" and doc_azure.provider == "azure"
        assert (
            doc_aws.body["executable"]["application"]
            == doc_azure.body["executable"]["application"]
        )
        assert_document_services_match(doc_aws)
        assert_document_services_match(doc_azure)

        req_gcloud = replace(
            req_aws, personal=replace(req_aws.personal, cloud_provider="gcloud")
        )
        with pytest.raises(UnsupportedProvider) as info:
            generate_pipeline(req_gcloud)
        assert isinstance(info.value, NotImplementedError)


# -- 03 ---------------------------------------------------------------------

DUPLICATE_BUDGET = 2
STRAY_BUDGET = 2
EXPECTED_SCHEDULES = 13736
STAGE_EVENT_COUNT = 5  # HardwareEnvReady, SoftwareEnvReady, 2 results, ExportComplete

LIFECYCLE_FUNCTION_ORDER = (
    "software_env_setup",
    "run_analytics",
    "export_execution",
    "terminate_resources",
)

LIFECYCLE_TRANSITIONS = (
    ("Submitted", "Provisioning"),
    ("Provisioning", "SoftwareSetup"),
    ("SoftwareSetup", "Executing"),
    ("Executing", "Exporting"),
    ("Exporting", "Terminating"),
    ("Terminating", "Completed"),
)


def run_delivery_schedule(doc, forced: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Execute one pipeline under an explicit event delivery schedule.

    ``forced`` picks the branch at each decision point; beyond it the first
    choice is taken.  Returns the picks actually taken and the number of
    alternatives at each decision point, so a driver can enumerate every
    schedule by replay.  Duplicate and stray deliveries are injected only
    at points that are distinct in delivery order: just before another
    delivery, or after the last one.
    """
    env = SimCloud()
    orchestrator = Orchestrator(env)
    inst = orchestrator.deploy(doc, record_history=False)
    orchestrator.start(inst)
    queue = orchestrator.bus.queue

    delivered: list[Event] = []
    acted_log: list[str] = []
    taken: list[int] = []
    arities: list[int] = []
    decisions = 0
    duplicates_left, strays_left = DUPLICATE_BUDGET, STRAY_BUDGET
    stray_count = 0

    while inst.state not in TERMINAL_STATES:
        choices: list[tuple[str, int | None]] = [
            ("deliver", i) for i in range(len(queue))
        ]
        if not queue and env.next_completion_time() is not None:
            choices.append(("advance", None))
        injection_window = bool(queue) or inst.state is ExecutionState.TERMINATING
        if injection_window and duplicates_left and delivered:
            choices.extend(("duplicate", j) for j in range(len(delivered)))
        if injection_window and strays_left:
            choices.append(("stray", None))
        assert choices, f"stalled in {inst.state.value}"

        if len(choices) == 1:
            pick = 0
        else:
            pick = forced[decisions] if decisions < len(forced) else 0
            arities.append(len(choices))
            taken.append(pick)
            decisions += 1

        kind, arg = choices[pick]
        if kind == "deliver":
            event = queue[arg]
            del queue[arg]
            acted_log.extend(orchestrator.bus.dispatch(event))
            delivered.append(event)
        elif kind == "advance":
            assert env.run_next_completion()
        elif kind == "duplicate":
            # at-least-once delivery, exactly-once processing
            assert orchestrator.bus.dispatch(delivered[arg]) == []
            duplicates_left -= 1
        else:
            stray_count += 1
            stray = Event(
                event_id=f"stray-{stray_count}",
                source="aws:objectstore:unrelated-bucket",
                name="noise/object",
                kind="storage",
                time=env.clock.now(),
                payload={},
            )
            assert orchestrator.bus.dispatch(stray) == []
            assert stray in orchestrator.bus.dropped
            strays_left -= 1

    assert inst.state is ExecutionState.COMPLETED, inst.failure
    assert not queue
    assert len(delivered) == STAGE_EVENT_COUNT
    assert tuple(acted_log) == LIFECYCLE_FUNCTION_ORDER
    assert tuple((a, b) for _, a, b in inst.transitions) == LIFECYCLE_TRANSITIONS
    for provider in env.providers.values():
        inventory = provider.inventory()
        assert inventory["clusters"] == [] and inventory["networks"] == []
    env.ledger.compute_cost(scope=inst.instance_id)  # raises if anything is open
    return taken, arities


def test_03_lifecycle_model_check(announce):
    with criterion(announce, 3, "lifecycle delivery model check", budget_s=30.0):
        doc = generate_pipeline(make_request())
        total = 0
        stack: list[tuple[int, ...]] = [()]
        while stack:
            forced = stack.pop()
            taken, arities = run_delivery_schedule(doc, forced)
            total += 1
            for depth in range(len(forced), len(arities)):
                for alternative in range(1, arities[depth]):
                    stack.append(tuple(taken[:depth]) + (alternative,))
        assert total >= 1000
        assert total == EXPECTED_SCHEDULES


# -- 04 ---------------------------------------------------------------------

def test_04_reproduction_fixpoint(announce):
    with criterion(announce, 4, "reproduction fixpoint", budget_s=5.0):
        personal = personal_text(credentials="access_key:AKIAEXAMPLE, secret_key:topsecret")
        request = parse_abstract_request(
            resources_text(engine="dask", nodes=2), application_text(), personal
        )
        doc = generate_pipeline(request)
        env = SimCloud()
        outcome = Orchestrator(env).run_serverless(doc)
        assert outcome.state is ExecutionState.COMPLETED

        # Client state is gone: the reproduction starts from nothing but the
        # URL and a fresh personal profile.
        result = reproduce(env, outcome.history_url, OverrideSet(personal_text=personal))
        assert result.reproduction_mode == "identical"
        assert result.outcome.state is ExecutionState.COMPLETED

        regenerated = generate_pipeline(result.request)
        assert regenerated.to_json() == doc.to_json()

        store = history_store(env)
        first = store.fetch(outcome.history_url)
        second = store.fetch(result.outcome.history_url)
        assert second.config == first.config
        assert second.result == first.result

        provider = env.provider("aws")
        for key_field in ("config_key", "result_key"):
            original = provider.storage_get(
                HISTORY_STORE, first.record[key_field], "acceptance"
            )
            reproduced = provider.storage_get(
                HISTORY_STORE, second.record[key_field], "acceptance"
            )
            assert reproduced == original


# -- 05 ---------------------------------------------------------------------

def test_05_cross_cloud_port(announce):
    with criterion(announce, 5, "cross-cloud reproduction", budget_s=5.0):
        request = make_request(engine="dask", nodes=2)
        doc = generate_pipeline(request)
        env = SimCloud()
        outcome = Orchestrator(env).run_serverless(doc)

        result = reproduce(
            env,
            outcome.history_url,
            OverrideSet(
                personal_text=personal_text(provider="azure"),
                target_provider="azure",
            ),
        )
        assert result.reproduction_mode == "cross-cloud"
        assert result.outcome.state is ExecutionState.COMPLETED
        assert result.outcome.provider == "azure"

        ported = generate_pipeline(result.request)
        # the application part survives the port untouched ...
        assert (
            ported.body["executable"]["application"]
            == doc.body["executable"]["application"]
        )
        assert ported.body["archive"]["application_ini"] == doc.body["archive"]["application_ini"]
        # ... while resources, personal, and service names are re-targeted
        assert ported.body["executable"]["resources"] != doc.body["executable"]["resources"]
        assert ported.body["archive"]["resources_ini"] != doc.body["archive"]["resources_ini"]
        assert ported.body["archive"]["personal_ini"] != doc.body["archive"]["personal_ini"]
        assert_document_services_match(doc)
        assert_document_services_match(ported)
        block = result.request.resources.provider_block("azure")
        assert block.instance_type == "F4s_v2"

        record = result.outcome.record
        assert record["parameters"]["ancestor_url"] == outcome.history_url
        assert record["parameters"]["reproduction_mode"] == "cross-cloud"

        original = history_store(env).fetch(outcome.history_url)
        replayed = history_store(env, "azure").fetch(result.outcome.history_url)
        assert replayed.result == original.result


# -- 06 ---------------------------------------------------------------------

def comparable_record(record: dict) -> dict:
    """Strip the fields that legitimately differ between execution modes."""
    trimmed = {
        k: v
        for k, v in record.items()
        if k not in ("submitted_at", "ended_at", "stage_timings", "mode")
    }
    trimmed["parameters"] = {
        k: v for k, v in record["parameters"].items() if k != "poll_window_s"
    }
    return trimmed


def test_06_mode_equivalence(announce):
    with criterion(announce, 6, "mode equivalence and residue identity", budget_s=10.0):
        rng = random.Random(424242)
        engines = ("none", "spark", "horovod", "dask")
        window = Fraction(10)
        for i in range(20):
            engine = engines[i % len(engines)]
            nodes = 1 if engine == "none" else rng.randint(2, 5)
            command = (
                "analyze"
                f" --serial-seconds {rng.randint(0, 30)}"
                f" --parallel-seconds {rng.randint(0, 300)}"
                f" --comm-seconds {rng.randint(0, 5)}"
                f" --parallelism {rng.randint(1, 8)}"
                f" --seed {rng.randint(0, 10**6)}"
            )
            request = make_request(engine=engine, nodes=nodes, command=command)
            serverless, _ = run_serverless(request)
            sdk, _ = run_sdk(request, poll_window=window)
            assert serverless.state is ExecutionState.COMPLETED
            assert sdk.state is ExecutionState.COMPLETED

            assert comparable_record(sdk.record) == comparable_record(serverless.record)
            assert sdk.result_keys == serverless.result_keys

            durations = [
                serverless.stage_timings[stage][1] - serverless.stage_timings[stage][0]
                for stage in STAGES
            ]
            polled_total, residues = residue_walk(durations, window)
            assert sdk.duration_s == polled_total
            assert sdk.duration_s - serverless.duration_s == sum(residues)


# -- 07 ---------------------------------------------------------------------

def test_07_metric_arithmetic(announce):
    with criterion(announce, 7, "metric arithmetic", budget_s=5.0):
        runs = [
            run_serverless(make_request()),
            run_serverless(make_request(engine="dask", provider="azure", nodes=2)),
            run_sdk(make_request(engine="spark", nodes=3)),
        ]
        for outcome, env in runs:
            report = measure(outcome, env.ledger)
            assert report.m3_ppr == report.m1_hours * report.m2_cost
            assert sum(report.breakdown.values(), Fraction(0)) == report.m2_cost

        assert cost_by_usage(8, 0.25) == 2

        rng = random.Random(20260825)
        for _ in range(50):
            ledger = CostLedger()
            spans = []
            for i in range(rng.randint(1, 6)):
                price = Fraction(rng.randint(1, 5000), 1000)
                open_t = Fraction(rng.randint(0, 500_000), rng.choice((997, 1000, 1024)))
                close_t = open_t + Fraction(rng.randint(1, 600_000), rng.choice((999, 1000, 1009)))
                entry = ledger.open_entry(f"r-{i}", "compute", price, open_t)
                entry.close_time = close_t
                spans.append((price, open_t, close_t))
            assert ledger.compute_cost() == per_second_cost(spans)


# -- 08 ---------------------------------------------------------------------

def capture_overhead(request, delays=None) -> tuple[Fraction, Fraction, Fraction]:
    """Measured m6 plus the durations it came from, on fresh environments."""
    doc = generate_pipeline(request)
    env_with = SimCloud(delays=delays)
    with_history = Orchestrator(env_with).run_serverless(doc)
    env_without = SimCloud(delays=delays)
    without_history = Orchestrator(env_without).run_serverless(doc, record_history=False)
    assert with_history.state is ExecutionState.COMPLETED
    assert without_history.state is ExecutionState.COMPLETED
    m6 = reproducibility_overhead(with_history.duration_s, without_history.duration_s)
    return m6, with_history.duration_s, without_history.duration_s


def test_08_capture_overhead(announce):
    with criterion(announce, 8, "history capture overhead", budget_s=5.0):
        # one dataset: config + result + record + 1 input = 4 archive ops
        request = make_request()
        m6, _, baseline = capture_overhead(request)
        op_seconds = SimCloud().delays.history_op_s
        assert m6 == (3 + 1) * op_seconds / baseline

        # two datasets: one more content-addressed input, one more op
        wide = parse_abstract_request(
            resources_text(),
            application_text(datasets="s3://datasets/alpha, s3://datasets/beta"),
            personal_text(),
        )
        m6_wide, _, baseline_wide = capture_overhead(wide)
        assert m6_wide == (3 + 2) * op_seconds / baseline_wide

        # free archive operations: capture costs nothing
        m6_free, with_free, without_free = capture_overhead(
            request, delays=DelayProfile(history_op_s=Fraction(0))
        )
        assert with_free == without_free
        assert m6_free == 0


# -- 09 ---------------------------------------------------------------------

def test_09_scaling_trends(announce):
    with criterion(announce, 9, "scaling trend shapes", budget_s=10.0):
        profile = parse_workload(make_suite_request(1, 1).application.command)
        assert profile.comm_s > 0

        levels = (1, 2, 4, 8)
        scale_up = run_scaling_suite("scale_up", levels)
        scale_out = run_scaling_suite("scale_out", levels)

        up_m1 = [row.metrics.m1_hours for row in scale_up.rows]
        assert all(later <= earlier for earlier, later in zip(up_m1, up_m1[1:]))

        out_m2 = [row.metrics.m2_cost for row in scale_out.rows]
        assert all(later >= earlier for earlier, later in zip(out_m2, out_m2[1:]))

        # equal total parallelism, communication cost > 0: adding cores to
        # one node beats adding chatty nodes
        assert scale_up.rows[-1].metrics.m1_hours < scale_out.rows[-1].metrics.m1_hours


# -- 10 ---------------------------------------------------------------------

def test_10_security_policy(announce):
    with criterion(announce, 10, "cluster security policy", budget_s=1.0):
        cluster_ids = {"sg-head", "sg-workers"}
        for engine in (Engine.SPARK, Engine.DASK, Engine.HOROVOD):
            groups = build_security_groups(engine)
            assert {g["group_id"] for g in groups} == cluster_ids

            for group in groups:
                for rule in group["rules"]:
                    assert rule["peer"] in cluster_ids | {"client"}
                    if rule["peer"] == "client":
                        assert group["group_id"] == "sg-head"
                        assert rule["protocol"] == "tcp"
                        assert rule["port_range"] == [22, 22]
                    else:
                        assert rule["protocol"] in ("tcp", "udp")

            pairs = reachable_pairs(groups)
            assert ("tcp", "sg-head", "client") in pairs
            assert ("tcp", "sg-workers", "client") not in pairs
            assert ("udp", "sg-head", "client") not in pairs
            for protocol in ("tcp", "udp"):
                for group_id in cluster_ids:
                    for peer in cluster_ids:
                        assert (protocol, group_id, peer) in pairs

            head = next(g for g in groups if g["group_id"] == "sg-head")
            workers = next(g for g in groups if g["group_id"] == "sg-workers")
            assert allows(head, "ingress", "tcp", "client", 22)
            assert not allows(workers, "ingress", "tcp", "client", 22)
            if engine is Engine.HOROVOD:
                assert allows(
                    head, "ingress", "tcp", "sg-workers", DEFAULT_SSH_DAEMON_PORT
                )

        standalone = build_security_groups(Engine.NONE)
        assert [g["group_id"] for g in standalone] == ["sg-standalone"]
        assert reachable_pairs(standalone) == {("tcp", "sg-standalone", "client")}


# -- 11 ---------------------------------------------------------------------

T_TEST_FIXTURES = [
    ([10.0, 11.0, 12.0], [20.0, 21.0, 22.0]),
    ([1.0, 2.0], [1.5, 2.5]),
    ([5.0, 5.0, 5.0, 6.0, 6.0, 6.0], [5.5, 5.5, 5.5, 6.5, 6.5, 6.5]),
    ([-4.0, -2.0, 0.0, 2.0], [1.0, 3.0, 5.0]),
    ([100.0, 101.0, 99.0, 100.5], [100.2, 100.8, 99.9]),
    ([0.001, 0.002, 0.003], [0.004, 0.005, 0.006]),
    ([7.0, 7.5, 8.0, 8.5, 9.0], [7.2, 7.7, 8.2]),
    ([12.0, 15.0, 11.0, 14.0], [13.0, 16.0, 12.0, 15.0]),
    ([2.5, 3.5, 4.5, 5.5, 6.5, 7.5], [3.0, 4.0, 5.0]),
    ([-1.0, 1.0], [-2.0, 2.0]),
]


def test_11_t_test_reference(announce):
    # Load the reference library before the budget clock starts: the budget
    # times the t-test, not scipy's one-time import.
    pytest.importorskip("scipy.stats")
    with criterion(announce, 11, "t-test against reference", budget_s=1.0):
        assert len(T_TEST_FIXTURES) >= 10
        for sample_a, sample_b in T_TEST_FIXTURES:
            t, dof = pooled_t_statistic(sample_a, sample_b)
            p = two_sided_p_value(t, dof)
            reference_t, reference_p = student_t_reference(sample_a, sample_b)
            assert math.isclose(t, reference_t, rel_tol=1e-10, abs_tol=1e-12)
            assert math.isclose(p, reference_p, rel_tol=1e-10, abs_tol=1e-12)

        t, dof = pooled_t_statistic([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
        assert t == 0.0
        assert two_sided_p_value(t, dof) == 1.0


# -- 12 ---------------------------------------------------------------------

SEEDED_SECRETS = ("AKIAEXAMPLE", "topsecret", "hunter2")


def test_12_secret_redaction(announce, tmp_path):
    with criterion(announce, 12, "secret redaction everywhere", budget_s=5.0):
        credentials = (
            "access_key:AKIAEXAMPLE, secret_key:topsecret, password:hunter2"
        )
        personal = personal_text(credentials=credentials)
        request = parse_abstract_request(
            resources_text(engine="dask", nodes=2), application_text(), personal
        )
        env = SimCloud()
        outcome = Orchestrator(env).run_serverless(generate_pipeline(request))
        result = reproduce(env, outcome.history_url, OverrideSet(personal_text=personal))
        assert outcome.state is ExecutionState.COMPLETED
        assert result.outcome.state is ExecutionState.COMPLETED

        # Archives are stored uncompressed, so scanning every stored object
        # byte-for-byte also sees inside the zip entries.
        for provider in env.providers.values():
            for store in provider.stores.values():
                for versions in store.values():
                    for blob in versions:
                        for secret in SEEDED_SECRETS:
                            assert secret.encode() not in blob
            for rows in provider.tables.values():
                dumped = json.dumps(rows)
                for secret in SEEDED_SECRETS:
                    assert secret not in dumped

        env.save_state(tmp_path / "simcloud.json")
        saved = (tmp_path / "simcloud.json").read_bytes()
        for secret in SEEDED_SECRETS:
            assert secret.encode() not in saved
            assert secret.encode().hex().encode() not in saved

        archived = history_store(env).fetch(outcome.history_url)
        personal_ini = archived.config["personal.ini"].decode()
        assert REDACTED in personal_ini
        parsed = parse_personal(personal_ini)
        assert parsed.cloud_credentials
        assert all(value == REDACTED for _, value in parsed.cloud_credentials)
