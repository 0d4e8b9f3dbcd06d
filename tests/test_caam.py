"""Service mapping and per-cloud pipeline assembly."""

import hashlib
import json
from pathlib import Path

import pytest

from cloudrerun import caam
from cloudrerun.caam import (
    FUNCTION_NAMES,
    SERVICE_MAPPING,
    TRIGGER_TABLE,
    UNSUPPORTED_ENGINES,
    generate_pipeline,
    get_adapter,
    lookup_service,
    PipelineDocument,
)
from cloudrerun.config_model import CLOUD_BLOCKS, Engine, parse_abstract_request
from cloudrerun.errors import (
    UnmappedService,
    UnsupportedEngineOnProvider,
    UnsupportedProvider,
)
from cloudrerun.history import indented_json
from cloudrerun.reproducer import INSTANCE_TYPE_EQUIVALENCE, REGION_EQUIVALENCE
from cloudrerun.simcloud.ledger import price_catalog
from cloudrerun.simcloud.provider import PROVIDERS

from helpers import application_text, personal_text, resources_text

GOLDEN = Path(__file__).parent / "golden"
COMMAND = "analyze --serial-seconds 10 --parallel-seconds 100 --comm-seconds 2 --parallelism 2 --seed 1"


def request_for(provider, engine="dask"):
    return parse_abstract_request(
        resources_text(engine=engine, provider=provider, nodes=2),
        application_text(command=COMMAND),
        personal_text(
            provider=provider,
            credentials="access_key:AKIAEXAMPLE, secret_key:topsecret",
        ),
    )


class TestServiceMapping:
    CATEGORIES = (
        "cluster",
        "network",
        "container_registry",
        "storage",
        "database",
        "deployment_functions",
        "sdk",
        "identity",
    )
    # One concrete service per provider and category; exactly these cells.
    EXPECTED = {
        "aws": (
            "EC2 Auto Scaling/EMR",
            "VPN",
            "ECR",
            "S3",
            "DynamoDB",
            "CloudFormation & Lambda Functions",
            "Boto/Boto3",
            "AWS IAM",
        ),
        "azure": (
            "Virtual Machine Scale Set/HDInsight",
            "Virtual Network",
            "Azure Container Registry",
            "Blob storage",
            "CosmosDB",
            "Deployment Manager & Azure Functions",
            ".NET Core",
            "Azure IAM",
        ),
        "gcloud": (
            "Autoscaling Groups/Dataproc",
            "Virtual Private Cloud",
            "Artifact Registry",
            "Firebase",
            "Firebase Realtime Database",
            "Cloud Deployment Manager & Cloud Functions",
            "Cloud SDK",
            "Cloud IAM",
        ),
    }

    def test_every_cell(self):
        assert set(SERVICE_MAPPING) == set(self.EXPECTED)
        for provider, expected in self.EXPECTED.items():
            for category, service in zip(self.CATEGORIES, expected):
                assert lookup_service(provider, category) == service

    def test_mapping_is_total_per_provider(self):
        for provider in SERVICE_MAPPING:
            assert set(SERVICE_MAPPING[provider]) == set(self.CATEGORIES)

    def test_unmapped_pairs_raise(self):
        with pytest.raises(UnmappedService):
            lookup_service("aws", "quantum")
        with pytest.raises(UnmappedService):
            lookup_service("onprem", "storage")


class TestDispatch:
    def test_adapters_registered_for_both_clouds(self):
        assert [get_adapter(p).provider for p in ("aws", "azure")] == ["aws", "azure"]
        with pytest.raises(UnsupportedProvider, match="registered: aws, azure$"):
            get_adapter("gcloud")

    def test_dispatch_selects_by_personal_provider(self):
        assert generate_pipeline(request_for("aws")).provider == "aws"
        assert generate_pipeline(request_for("azure")).provider == "azure"

    def test_unregistered_provider_raises(self, monkeypatch):
        req = request_for("aws")
        monkeypatch.delitem(caam._ADAPTERS, "aws")
        with pytest.raises(UnsupportedProvider, match="registered: azure$"):
            generate_pipeline(req)

    def test_unsupported_provider_is_not_implemented_error(self):
        with pytest.raises(NotImplementedError):
            get_adapter("gcloud")

    def test_azure_cannot_host_spark(self):
        req = request_for("azure", engine="spark")
        with pytest.raises(UnsupportedEngineOnProvider):
            generate_pipeline(req)

    def test_azure_hosts_dask_and_horovod(self):
        for engine in ("dask", "horovod"):
            assert generate_pipeline(request_for("azure", engine)).provider == "azure"


def test_every_table_names_the_same_clouds():
    """A cloud missing from one table fails here rather than in a run.
    ``SERVICE_MAPPING`` keeps its services for gcloud, which has no adapter,
    so it is left out."""
    clouds = set(PROVIDERS)
    assert set(CLOUD_BLOCKS) == clouds
    assert {get_adapter(provider).provider for provider in PROVIDERS} == clouds
    assert set(UNSUPPORTED_ENGINES) <= clouds
    for engines in UNSUPPORTED_ENGINES.values():
        assert isinstance(engines, frozenset) and all(isinstance(e, Engine) for e in engines)
    assert set(price_catalog()["instance_hour"]) == clouds
    pairs = {(source, target) for source in clouds for target in clouds if source != target}
    assert set(INSTANCE_TYPE_EQUIVALENCE) == set(REGION_EQUIVALENCE) == pairs


class TestPipelineDocument:
    def test_golden_aws(self):
        doc = generate_pipeline(request_for("aws"))
        assert doc.to_json() == (GOLDEN / "pipeline_aws.json").read_text()

    def test_golden_azure(self):
        doc = generate_pipeline(request_for("azure"))
        assert doc.to_json() == (GOLDEN / "pipeline_azure.json").read_text()

    def test_four_functions_four_rules(self):
        body = generate_pipeline(request_for("aws")).body
        assert [f["name"] for f in body["functions"]] == list(FUNCTION_NAMES)
        assert sorted(r["function"] for r in body["rules"]) == sorted(FUNCTION_NAMES)
        by_function = {r["function"]: r for r in body["rules"]}
        assert by_function["software_env_setup"]["event"] == "HardwareEnvReady"
        assert by_function["run_analytics"]["event"] == "SoftwareEnvReady"
        assert by_function["export_execution"]["match"] == "prefix"
        assert by_function["terminate_resources"]["event"] == "ExportComplete"

    def test_golden_rules_are_the_trigger_table(self):
        for name in ("pipeline_aws.json", "pipeline_azure.json"):
            rules = json.loads((GOLDEN / name).read_text())["rules"]
            rows = [(r["function"], r["source_kind"], r["event"], r["match"]) for r in rules]
            assert rows == list(TRIGGER_TABLE), name

    def test_application_part_is_provider_independent(self):
        aws = generate_pipeline(request_for("aws")).body["executable"]["application"]
        azure = generate_pipeline(request_for("azure")).body["executable"]["application"]
        assert json.dumps(aws, sort_keys=True) == json.dumps(azure, sort_keys=True)

    def test_secrets_never_enter_the_document(self):
        text = generate_pipeline(request_for("aws")).to_json()
        assert "AKIAEXAMPLE" not in text
        assert "topsecret" not in text
        assert "<redacted>" in text

    def test_horovod_groups_pin_the_commands_ssh_port(self):
        for provider in ("aws", "azure"):
            req = parse_abstract_request(
                resources_text(engine="horovod", provider=provider, nodes=2),
                application_text(command=f"{COMMAND} --ssh-port 2222"),
                personal_text(provider=provider),
            )
            body = generate_pipeline(req).body
            assert body["executable"]["application"]["engine_parameters"]["ssh-port"] == "2222"
            pinned = {
                group["group_id"]: {tuple(r["port_range"]) for r in group["rules"]}
                for group in body["security_groups"]
            }
            assert set(pinned) == {"sg-head", "sg-workers"}
            for ranges in pinned.values():
                assert (2222, 2222) in ranges
                assert (12345, 12345) not in ranges

    def test_provisioning_names_mapped_services(self):
        body = generate_pipeline(request_for("aws")).body
        resources = body["executable"]["resources"]
        assert resources["cluster_service"] == "EC2 Auto Scaling/EMR"
        assert resources["network_service"] == "VPN"
        assert resources["registry_service"] == "ECR"
        assert resources["emits"] == "HardwareEnvReady"

    def test_json_round_trip(self):
        doc = generate_pipeline(request_for("azure"))
        again = PipelineDocument(doc.provider, json.loads(doc.to_json()))
        assert (again.provider, again.body) == (doc.provider, doc.body)
        assert again.to_json() == doc.to_json()


class TestBodyPins:
    """The sha256 of every document body the adapters build: each engine on
    each cloud that hosts it, and horovod with a custom ``--ssh-port``.  The
    goldens pin dask only; these pin the security groups and provisioning
    blocks of the rest."""

    PINS = {
        ("aws", "none", None): "fc3702b73f6aef06067c1a23ac7050c50cd369e085be0219ebc23c7ec59b68f8",
        ("aws", "spark", None): "dee2d9a4373400f24d8aa8b1927baf80d3306ef167970c206b7b522c9b64f87d",
        ("aws", "horovod", None): "be793f85a4d9f6d7be924bf75fd2629c9f592e2509fcb360d8a2c32caa03f4d1",
        ("aws", "horovod", 2222): "e9e638dadcf85b958d969e32e9f0438d0609a40a8fb41036c768df971f307275",
        ("aws", "dask", None): "03920fb991430444be695981a499dab152eff828431f47dab7e94794d0bedea3",
        ("azure", "none", None): "6f84277bcfeed980288349f48558122f54c6f564724216aee7ee065ce2068cda",
        ("azure", "horovod", None): "ae2af7dcceee57c11770ba33b7a682eb3c97ca0ab0ed290f0eef64b27113f5ef",
        ("azure", "horovod", 2222): "e1bc06b0933dd77fe0b97feb2bf5b748d1a29bfa4fdf616f5a1cab42885905b8",
        ("azure", "dask", None): "034caf8f7ae7fe2d9c76b53041b4c67a241e0a8b1c50b9a9051cbaf6bb55114d",
    }

    def test_pins_cover_every_hosted_engine(self):
        hosted = {
            (provider, engine.value)
            for provider in caam._ADAPTERS
            for engine in Engine
            if engine not in UNSUPPORTED_ENGINES.get(provider, frozenset())
        }
        assert {(provider, engine) for provider, engine, _ in self.PINS} == hosted

    @pytest.mark.parametrize("provider,engine,ssh_port", sorted(PINS, key=str))
    def test_body_bytes(self, provider, engine, ssh_port):
        command = COMMAND if ssh_port is None else f"{COMMAND} --ssh-port {ssh_port}"
        req = parse_abstract_request(
            resources_text(engine=engine, provider=provider, nodes=2),
            application_text(command=command),
            personal_text(provider=provider, credentials="access_key:AKIAEXAMPLE, secret_key:topsecret"),
        )
        body = indented_json(generate_pipeline(req).body).encode()
        assert hashlib.sha256(body).hexdigest() == self.PINS[(provider, engine, ssh_port)]
