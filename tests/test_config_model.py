"""Request configuration: parsing, rejection, defaults, serialization."""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun.caam import get_adapter
from cloudrerun.config_model import (
    DEFAULTS,
    REDACTED,
    AwsBlock,
    AzureBlock,
    Engine,
    ReproduceBlock,
    canonical_serialize,
    fill_defaults,
    parse_abstract_request,
    parse_application,
    parse_personal,
    parse_resources,
    serialize_personal,
    serialize_resources,
)
from cloudrerun.errors import (
    MalformedValue,
    MissingRequiredKey,
    ProviderMismatch,
    UnknownEngine,
)

from helpers import application_text, personal_text, resources_text


def parse_triple(res, app, pers):
    return parse_abstract_request(res, app, pers)


class TestParsing:
    def test_minimal_request_fills_defaults(self):
        req = parse_triple(
            "[resources]\n[cloud.aws]\n[reproduce]\n",
            "[application]\ndocker_image = img:1\n",
            "[personal]\ncloud_provider = aws\n",
        )
        assert req.resources.bigdata_engine is Engine.NONE
        aws = req.resources.cloud_aws
        assert aws.instance_number == 1
        assert aws.region == DEFAULTS["aws_region"]
        assert aws.instance_type == DEFAULTS["aws_instance_type"]
        assert req.resources.reproduce.reproduce_storage == DEFAULTS["reproduce_storage"]
        assert req.personal.python_runtime == DEFAULTS["python_runtime"]

    def test_missing_provider_block_is_created_from_personal(self):
        req = parse_triple(
            "[resources]\nbigdata_engine = none\n",
            "[application]\ndocker_image = img:1\n",
            "[personal]\ncloud_provider = azure\n",
        )
        assert req.resources.cloud_azure is not None
        assert req.resources.cloud_aws is None
        assert req.resources.cloud_azure.instance_type == DEFAULTS["azure_instance_type"]

    def test_engine_enumeration_is_closed(self):
        for engine in ("none", "spark", "horovod", "dask"):
            req = parse_triple(
                resources_text(engine=engine),
                application_text(),
                personal_text(),
            )
            assert req.resources.bigdata_engine.value == engine
        with pytest.raises(UnknownEngine):
            parse_resources("[resources]\nbigdata_engine = flink\n")

    def test_lists_and_maps(self):
        app = parse_application(
            "[application]\ndocker_image = img:1\n"
            "data_uri = s3://a, s3://b,s3://c\n"
            "bootstrap = apt update, pip install x\n"
        )
        assert app.data_uri == ("s3://a", "s3://b", "s3://c")
        assert app.bootstrap == ("apt update", "pip install x")
        personal = parse_personal(
            "[personal]\ncloud_provider = aws\n"
            "cloud_credentials = b:2, a:1\n"
        )
        assert personal.cloud_credentials == (("a", "1"), ("b", "2"))

    def test_credential_env_override(self):
        personal = parse_personal(
            "[personal]\ncloud_provider = aws\ncloud_credentials = access_key:old\n",
            env={"CLOUDRERUN_CREDENTIAL_ACCESS_KEY": "new", "PATH": "/usr/bin"},
        )
        assert dict(personal.cloud_credentials)["access_key"] == "new"

    def test_unknown_keys_kept_as_extras_with_warning(self):
        cases = [
            (
                parse_resources,
                "[resources]\nbigdata_engine = none\nfuture_flag = on\n",
                (("resources", (("future_flag", "on"),)),),
            ),
            # Secrets belong in personal.ini, so an unknown secret-looking key
            # there is kept like any other.
            (
                parse_personal,
                "[personal]\ncloud_provider = aws\nkey_nmae = x\n\n[extra]\napi_token = t\n",
                (("extra", (("api_token", "t"),)), ("personal", (("key_nmae", "x"),))),
            ),
        ]
        for parse, text, extras in cases:
            assert parse(text).extras == extras

    def test_comments_and_whitespace(self):
        res = parse_resources(
            "# leading comment\n[resources]\nbigdata_engine = spark  \n\n[cloud.aws]\n"
        )
        assert res.bigdata_engine is Engine.SPARK


BLOCKS = {"aws": AwsBlock, "azure": AzureBlock}

# Both provider blocks and the reproduce block, every field away from its
# default, in canonical form.
ALL_BLOCKS_TEXT = """\
[resources]
bigdata_engine = dask

[cloud.aws]
instance_number = 3
instance_type = p3.2xlarge
region = us-east-1
subnet_id = subnet-9
vpc_id = vpc-9

[cloud.azure]
instance_number = 4
instance_type = NC6s_v3
region = eastus
resource_group_name = rg-9

[reproduce]
reproduce_database = records-9
reproduce_storage = history-9
"""


@pytest.mark.parametrize("provider", sorted(BLOCKS))
class TestBlockDefinition:
    """The block dataclasses are the one definition of their sections."""

    def test_empty_section_and_fill_defaults_give_the_default_block(self, provider):
        block = BLOCKS[provider]()
        assert parse_resources(f"[resources]\n[cloud.{provider}]\n").provider_block(provider) == block
        req = parse_triple(resources_text(provider=provider), application_text(), personal_text(provider))
        bare = replace(req, resources=parse_resources("[resources]\n"))
        assert fill_defaults(bare).resources.provider_block(provider) == block

    def test_both_blocks_round_trip_with_every_field_set(self, provider):
        res = parse_resources(ALL_BLOCKS_TEXT)
        for block in (res.provider_block(provider), res.reproduce):
            for f in fields(block):
                assert getattr(block, f.name) != f.default, f.name
        assert serialize_resources(res) == ALL_BLOCKS_TEXT

    def test_provisioning_doc_carries_every_block_field(self, provider):
        req = parse_triple(resources_text(provider=provider), application_text(), personal_text(provider))
        doc = get_adapter(provider).provisioning_doc(req)
        services = {"cluster_service", "network_service", "registry_service", "emits"}
        assert set(doc) == {f.name for f in fields(BLOCKS[provider])} | services


class TestErrorKinds:
    def test_missing_docker_image(self):
        with pytest.raises(MissingRequiredKey):
            parse_application("[application]\ncommand = run\n")

    def test_missing_cloud_provider(self):
        with pytest.raises(MissingRequiredKey):
            parse_personal("[personal]\nkey_name = k\n")

    def test_missing_command_with_engine(self):
        with pytest.raises(MissingRequiredKey):
            parse_triple(
                resources_text(engine="spark"),
                "[application]\ndocker_image = img:1\n",
                personal_text(),
            )

    def test_zero_instance_number(self):
        with pytest.raises(MalformedValue):
            parse_resources("[resources]\n[cloud.aws]\ninstance_number = 0\n")

    def test_non_integer_instance_number(self):
        with pytest.raises(MalformedValue):
            parse_resources("[resources]\n[cloud.aws]\ninstance_number = two\n")

    def test_empty_block_value_names_the_key(self):
        # an empty value would otherwise reach the archive and the history URL
        for section, block in (
            ("cloud.aws", AwsBlock), ("cloud.azure", AzureBlock), ("reproduce", ReproduceBlock)
        ):
            for key in (f.name for f in fields(block)):
                with pytest.raises(MalformedValue, match=rf"^{section}\.{key}: must be non-empty"):
                    parse_resources(f"[resources]\n[{section}]\n{key} =\n")

    def test_syntax_error_is_malformed(self):
        with pytest.raises(MalformedValue):
            parse_resources("not an ini file at all\n")

    @pytest.mark.parametrize(
        "parse, text, where",
        [
            (parse_resources, "[resources]\naccess_key_id = AKIA123\n", "resources.ini: [resources] access_key_id"),
            (parse_resources, "[resources]\n[cloud.aws]\nSecret = s\n", "resources.ini: [cloud.aws] Secret"),
            (parse_application, "[application]\ndocker_image = i\n[extra]\nprivate_key = k\n", "application.ini: [extra] private_key"),
        ],
        ids=["resources", "cloud.aws", "application-extra"],
    )
    def test_secret_outside_personal_names_file_section_and_key(self, parse, text, where):
        with pytest.raises(MalformedValue, match=rf"^{re.escape(where)}: "):
            parse(text)

    def test_whitespace_in_locator(self):
        with pytest.raises(MalformedValue, match="application.data_uri: 's3://bad uri'"):
            parse_application("[application]\ndocker_image = img:1\ndata_uri = s3://a, s3://bad uri\n")

    def test_credentials_without_colon(self):
        with pytest.raises(MalformedValue):
            parse_personal("[personal]\ncloud_provider = aws\ncloud_credentials = justakey\n")

    def test_provider_mismatch(self):
        with pytest.raises(ProviderMismatch):
            parse_triple(
                resources_text(provider="aws"),
                application_text(),
                personal_text(provider="azure"),
            )


class TestSerialization:
    def test_round_trip_identity(self):
        req = parse_triple(
            resources_text(engine="dask", nodes=3),
            application_text(bootstrap="apt update"),
            personal_text(credentials="access_key:AKIA, secret:shh"),
        )
        res_text, app_text, pers_text = canonical_serialize(req)
        again = parse_triple(res_text, app_text, pers_text)
        assert again == req
        assert canonical_serialize(again) == (res_text, app_text, pers_text)

    def test_serialization_is_byte_stable(self):
        req = parse_triple(resources_text(), application_text(), personal_text())
        assert canonical_serialize(req) == canonical_serialize(req)
        text = canonical_serialize(req)[0]
        assert text.endswith("\n")
        assert "\r" not in text

    def test_redacted_personal_keeps_keys(self):
        personal = parse_personal(
            "[personal]\ncloud_provider = aws\ncloud_credentials = access_key:AKIA123\n"
            "key_nmae = x\n\n[extra]\napi_token = t0k\n"
        )
        text = serialize_personal(personal.redacted())
        assert "AKIA123" not in text
        assert f"access_key:{REDACTED}" in text
        # a secret-looking unknown key is redacted too; other extras are kept
        assert f"api_token = {REDACTED}\n" in text
        assert "key_nmae = x\n" in text

    def test_default_fill_idempotent(self):
        req = parse_triple(
            "[resources]\n", "[application]\ndocker_image = i\n", "[personal]\ncloud_provider = aws\n"
        )
        assert fill_defaults(req) == req
        assert fill_defaults(fill_defaults(req)) == fill_defaults(req)


_engines = st.sampled_from(["none", "spark", "horovod", "dask"])
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
).filter(lambda s: not s.startswith("-"))


@settings(max_examples=60, deadline=None)
@given(
    engine=_engines,
    nodes=st.integers(min_value=1, max_value=40),
    key_name=_names,
    image_tag=_names,
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_property(engine, nodes, key_name, image_tag, seed):
    req = parse_triple(
        resources_text(engine=engine, nodes=nodes),
        application_text(
            image=f"registry.example/job:{image_tag}",
            command=f"analyze --parallelism 2 --seed {seed}",
        ),
        personal_text(key_name=key_name),
    )
    texts = canonical_serialize(req)
    assert parse_triple(*texts) == req
    assert canonical_serialize(parse_triple(*texts)) == texts
