"""Reproduction modes, overrides, cross-cloud translation."""

import pytest

from cloudrerun.caam import generate_pipeline
from cloudrerun.config_model import parse_resources, serialize_resources
from cloudrerun.errors import (
    InvalidMerge,
    MalformedValue,
    NotFound,
    QuotaExceeded,
    UnsupportedProvider,
)
from cloudrerun.history import HistoryStore, read_zip
from cloudrerun.reproducer import (
    INSTANCE_TYPE_EQUIVALENCE,
    OverrideSet,
    reproduce,
    translate_resources,
)
from cloudrerun.runtime import ExecutionState, Orchestrator
from cloudrerun.simcloud.provider import SimCloud

from helpers import application_text, make_request, personal_text, resources_text


def seeded_env(engine="dask", nodes=2, provider="aws"):
    env = SimCloud()
    outcome = Orchestrator(env).run_serverless(
        generate_pipeline(make_request(engine=engine, nodes=nodes, provider=provider))
    )
    assert outcome.state is ExecutionState.COMPLETED
    return env, outcome


def fetch_bundles(env, url):
    from cloudrerun.history import find_record_table, parse_url

    provider, store, execution_id = parse_url(url)
    table = find_record_table(env, provider, execution_id)
    return HistoryStore(env, provider, store, table).fetch(url)


class TestModes:
    def test_identical(self):
        env, outcome = seeded_env()
        result = reproduce(
            env, outcome.history_url, OverrideSet(personal_text=personal_text())
        )
        assert result.reproduction_mode == "identical"
        assert result.outcome.state is ExecutionState.COMPLETED
        assert result.outcome.record["parameters"]["ancestor_url"] == outcome.history_url

    def test_new_personal(self):
        env, outcome = seeded_env()
        other = personal_text(key_name="other-key", key_path="~/.ssh/other.pem")
        result = reproduce(env, outcome.history_url, OverrideSet(personal_text=other))
        assert result.reproduction_mode == "new-personal"
        assert result.outcome.state is ExecutionState.COMPLETED

    def test_modified(self):
        env, outcome = seeded_env()
        bigger = resources_text(engine="dask", nodes=4)
        result = reproduce(
            env,
            outcome.history_url,
            OverrideSet(personal_text=personal_text(), resources_text=bigger),
        )
        assert result.reproduction_mode == "modified"
        assert result.request.resources.cloud_aws.instance_number == 4
        assert len([k for k in result.outcome.result_keys if "part-" in k]) == 4

    def test_cross_cloud(self):
        env, outcome = seeded_env()
        result = reproduce(
            env,
            outcome.history_url,
            OverrideSet(personal_text=personal_text(provider="azure")),
        )
        assert result.reproduction_mode == "cross-cloud"
        assert result.outcome.provider == "azure"
        assert result.request.resources.cloud_azure.instance_type == "F4s_v2"

    def test_target_provider_beats_personal_provider(self):
        env, outcome = seeded_env()
        result = reproduce(
            env,
            outcome.history_url,
            OverrideSet(personal_text=personal_text(provider="aws"), target_provider="azure"),
        )
        assert result.outcome.provider == "azure"
        assert result.request.personal.cloud_provider == "azure"

    def test_reproduce_leaves_no_subscriber_behind(self):
        env, outcome = seeded_env()
        # the environment's bus is its one subscriber, whatever runs on it
        assert env.subscribers == [env.bus.enqueue]
        for mode in ("serverless", "sdk", "serverless"):
            reproduce(env, outcome.history_url, OverrideSet(personal_text=personal_text()), mode=mode)
            assert env.subscribers == [env.bus.enqueue]
        env.provider("aws").max_instances = 1
        with pytest.raises(QuotaExceeded):
            reproduce(env, outcome.history_url, OverrideSet(personal_text=personal_text()))
        assert env.subscribers == [env.bus.enqueue]

    def test_an_unknown_mode_raises_before_an_id_is_drawn(self):
        env, outcome = seeded_env()
        provider = env.provider("aws")
        executions = provider._counters["exec"]
        with pytest.raises(MalformedValue):
            reproduce(
                env, outcome.history_url, OverrideSet(personal_text=personal_text()), mode="batch"
            )
        assert provider._counters["exec"] == executions
        assert provider.inventory() == {"clusters": [], "networks": []}
        assert env.bus.rules == []

    def test_an_idle_orchestrators_bus_stays_empty(self):
        env = SimCloud()
        orchestrator = Orchestrator(env)
        outcome = orchestrator.run_serverless(generate_pipeline(make_request()))
        for _ in range(3):
            reproduce(env, outcome.history_url, OverrideSet(personal_text=personal_text()))
        bus = orchestrator.bus
        assert (list(bus.queue), bus.seen, bus.dropped) == ([], set(), [])


class TestFixpoint:
    def test_identical_reproduction_is_byte_stable(self):
        env, outcome = seeded_env()
        first = reproduce(
            env, outcome.history_url, OverrideSet(personal_text=personal_text())
        )
        ancestor = fetch_bundles(env, outcome.history_url)
        child = fetch_bundles(env, first.outcome.history_url)
        assert child.config == ancestor.config
        assert child.result == ancestor.result
        # reproducing the reproduction changes nothing either
        second = reproduce(
            env, first.outcome.history_url, OverrideSet(personal_text=personal_text())
        )
        grandchild = fetch_bundles(env, second.outcome.history_url)
        assert grandchild.config == ancestor.config
        assert grandchild.result == ancestor.result

    def test_cross_cloud_results_identical(self):
        env, outcome = seeded_env()
        ported = reproduce(
            env,
            outcome.history_url,
            OverrideSet(personal_text=personal_text(provider="azure")),
        )
        ancestor = fetch_bundles(env, outcome.history_url)
        child = fetch_bundles(env, ported.outcome.history_url)
        assert child.result == ancestor.result
        assert child.config["application.ini"] == ancestor.config["application.ini"]


class TestTranslation:
    def test_every_mapped_type_round_trips(self):
        for (source, target), table in INSTANCE_TYPE_EQUIVALENCE.items():
            back = INSTANCE_TYPE_EQUIVALENCE[(target, source)]
            for src_type, dst_type in table.items():
                assert back[dst_type] == src_type

    def test_translate_block_fields(self):
        resources = parse_resources(resources_text(engine="dask", nodes=3))
        translated = translate_resources(resources, "aws", "azure")
        azure = translated.cloud_azure
        assert translated.cloud_aws is None
        assert azure.instance_type == "F4s_v2"
        assert azure.instance_number == 3
        assert azure.region == "westus2"

    def test_unmapped_type_raises(self):
        text = resources_text(instance_type="c5d.4xlarge").replace(
            "c5d.4xlarge", "c5d.24xlarge"
        )
        resources = parse_resources(text)
        with pytest.raises(InvalidMerge):
            translate_resources(resources, "aws", "azure")

    def test_unmapped_region_falls_back_to_default(self):
        resources = parse_resources(resources_text(region="eu-central-1"))
        translated = translate_resources(resources, "aws", "azure")
        assert translated.cloud_azure.region == "westus2"

    def test_unknown_keys_of_the_source_block_go_with_it(self):
        text = resources_text(extra="\n[extra]\nnote = kept\n").replace(
            "vpc_id = vpc-12345\n", "vpc_id = vpc-12345\nx_rack = r7\n"
        )
        translated = translate_resources(parse_resources(text), "aws", "azure")
        assert translated.extras == (("extra", (("note", "kept"),)),)
        assert parse_resources(serialize_resources(translated)) == translated


class TestGuards:
    def test_unknown_target_rejected_before_fetch(self):
        env = SimCloud()  # empty: a fetch would raise NotFound
        with pytest.raises(UnsupportedProvider):
            reproduce(
                env,
                "rpac://aws/execution-history/aws-exec-0001",
                OverrideSet(personal_text=personal_text(), target_provider="gcloud"),
            )

    def test_unregistered_personal_provider(self):
        env, outcome = seeded_env()
        with pytest.raises(UnsupportedProvider):
            reproduce(
                env,
                outcome.history_url,
                OverrideSet(personal_text=personal_text(provider="gcloud")),
            )

    def test_missing_ancestor(self):
        env = SimCloud()
        with pytest.raises(NotFound):
            reproduce(
                env,
                "rpac://aws/execution-history/aws-exec-0404",
                OverrideSet(personal_text=personal_text()),
            )

    def test_failed_ancestor_has_no_config(self):
        env = SimCloud()
        env.provider("aws").seed_registry(["something-else:1"])
        outcome = Orchestrator(env).run_serverless(generate_pipeline(make_request()))
        assert outcome.state is ExecutionState.FAILED
        with pytest.raises(NotFound):
            reproduce(env, outcome.history_url, OverrideSet(personal_text=personal_text()))

    def test_broken_personal_override(self):
        env, outcome = seeded_env()
        with pytest.raises(InvalidMerge):
            reproduce(env, outcome.history_url, OverrideSet(personal_text="[personal]\n"))

    def test_broken_resources_override(self):
        env, outcome = seeded_env()
        with pytest.raises(InvalidMerge):
            reproduce(
                env,
                outcome.history_url,
                OverrideSet(
                    personal_text=personal_text(),
                    resources_text="[resources]\nbigdata_engine = warp\n",
                ),
            )

    def test_broken_application_override_is_an_invalid_merge(self):
        env, outcome = seeded_env()
        with pytest.raises(InvalidMerge, match="^merged request is invalid: application.docker_image is required"):
            reproduce(
                env,
                outcome.history_url,
                OverrideSet(personal_text=personal_text(), application_text="[application]\n"),
            )

    def test_modified_application_changes_results(self):
        env, outcome = seeded_env()
        new_app = application_text(
            command="analyze --serial-seconds 5 --parallel-seconds 50 --comm-seconds 1 --parallelism 2 --seed 99"
        )
        result = reproduce(
            env,
            outcome.history_url,
            OverrideSet(personal_text=personal_text(), application_text=new_app),
        )
        assert result.reproduction_mode == "modified"
        ancestor = fetch_bundles(env, outcome.history_url)
        child = fetch_bundles(env, result.outcome.history_url)
        assert child.result != ancestor.result
