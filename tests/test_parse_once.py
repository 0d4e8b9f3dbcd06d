"""Each request text is parsed once and each command tokenized once.

A compiled pipeline document carries the request it was compiled from, and
deployment reuses it while the document's archive texts are unchanged.
That is sound only if parsing the canonical texts of a request gives the
request back, which the property below checks over a wide request space.
"""

import json
import shlex
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cloudrerun import config_model
from cloudrerun.caam import PipelineDocument, generate_pipeline
from cloudrerun.config_model import (
    CREDENTIAL_ENV_PREFIX,
    SECRET_KEY_MARKERS,
    Engine,
    canonical_serialize,
    parse_abstract_request,
)
from cloudrerun.errors import DeploymentRejected
from cloudrerun.metrics import make_suite_request
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import ExecutionState, Orchestrator
from cloudrerun.simcloud.provider import SimCloud

from helpers import application_text, make_request, personal_text, resources_text

_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789-_./@%#$!", min_size=1, max_size=12
)
# Secret-looking keys are rejected outside personal.ini.
_extra_key = _word.filter(lambda w: not any(m in w for m in SECRET_KEY_MARKERS)).map(lambda w: f"x_{w}")
_secret_key = st.sampled_from(["api_token", "db_password", "Secret_Name"])


def _pairs(keys, values=_value, max_size=3):
    return st.dictionaries(keys, values, max_size=max_size)


def _lines(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


@st.composite
def _block(draw, known: dict) -> str:
    """Some of a block's known keys and some unknown ones."""
    chosen = draw(st.dictionaries(st.sampled_from(sorted(known)), st.just(None), max_size=len(known)))
    pairs = {key: draw(known[key]) for key in chosen}
    pairs.update(draw(_pairs(_extra_key)))
    return _lines(pairs)


_AWS = {"region": _value, "instance_number": st.integers(1, 64).map(str),
        "subnet_id": _value, "instance_type": _value, "vpc_id": _value}
_AZURE = {"region": _value, "instance_number": st.integers(1, 64).map(str),
          "resource_group_name": _value, "instance_type": _value}
_REPRODUCE = {"reproduce_storage": _value, "reproduce_database": _value}

_flag = st.sampled_from(["seed", "parallelism", "serial-seconds", "verbose", "x", "dry-run"])
_token = st.one_of(
    _flag.map(lambda f: f"--{f}"),
    _value,
    _value.map(lambda v: f'"{v} {v}"'),
    _value.map(lambda v: f"'{v}'"),
)


@st.composite
def requests(draw):
    """Three request texts and an environment that parse to a valid request."""
    engine = draw(st.sampled_from([e.value for e in Engine]))
    provider = draw(st.sampled_from(["aws", "azure"]))
    # Azure cannot host spark, so such a request parses but does not compile.
    assume(not (provider == "azure" and engine == "spark"))

    sections = [f"[resources]\nbigdata_engine = {engine}\n" + _lines(draw(_pairs(_extra_key)))]
    blocks = {"aws": draw(st.booleans()), "azure": draw(st.booleans())}
    if draw(st.booleans()):
        blocks[provider] = True  # otherwise filled in only if neither is given
    assume(blocks[provider] or not any(blocks.values()))
    if blocks["aws"]:
        sections.append("[cloud.aws]\n" + draw(_block(_AWS)))
    if blocks["azure"]:
        sections.append("[cloud.azure]\n" + draw(_block(_AZURE)))
    if draw(st.booleans()):
        sections.append("[reproduce]\n" + draw(_block(_REPRODUCE)))
    for name in draw(st.lists(_word, max_size=2, unique=True)):
        sections.append(f"[extra_{name}]\n" + _lines(draw(_pairs(_extra_key))))
    resources = "\n".join(sections)

    tokens = draw(st.lists(_token, min_size=0 if engine == "none" else 1, max_size=6))
    command = " ".join(["analyze", *tokens]) if tokens or draw(st.booleans()) else ""
    app = {"docker_image": draw(_value), "command": command}
    datasets = draw(st.lists(_value.map(lambda v: f"s3://{v}"), max_size=3))
    if datasets:
        app["data_uri"] = ", ".join(datasets)
    bootstrap = draw(st.lists(st.lists(_value, min_size=1, max_size=3).map(" ".join), max_size=3))
    if bootstrap:
        app["bootstrap"] = ", ".join(bootstrap)
    application = "[application]\n" + _lines(app) + _lines(draw(_pairs(_extra_key)))
    if draw(st.booleans()):
        application += "\n[extra_app]\n" + _lines(draw(_pairs(_extra_key)))

    personal_pairs = {"cloud_provider": provider}
    credentials = draw(_pairs(_word, _value))
    if credentials:
        personal_pairs["cloud_credentials"] = ", ".join(f"{k}:{v}" for k, v in credentials.items())
    for key in ("key_path", "key_name", "python_runtime"):
        if draw(st.booleans()):
            personal_pairs[key] = draw(_value)
    personal_pairs.update(draw(_pairs(st.one_of(_extra_key, _secret_key))))
    personal = "[personal]\n" + _lines(personal_pairs)
    if draw(st.booleans()):
        personal += "\n[extra_me]\n" + _lines(draw(_pairs(st.one_of(_extra_key, _secret_key))))

    env = {f"{CREDENTIAL_ENV_PREFIX}{k.upper()}": v for k, v in draw(_pairs(_word, _value)).items()}
    return resources, application, personal, env


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=requests())
def test_parsed_requests_round_trip_and_deploy_as_compiled(texts):
    resources, application, personal, env = texts
    req = parse_abstract_request(resources, application, personal, env=env)
    redacted = replace(req, personal=req.personal.redacted())
    assert parse_abstract_request(*canonical_serialize(redacted)) == redacted

    doc = generate_pipeline(req)
    compiled = Orchestrator(SimCloud()).deploy(doc, record_history=False)
    loaded = PipelineDocument(doc.provider, json.loads(doc.to_json()))
    assert loaded.compiled_request() is None
    assert Orchestrator(SimCloud()).deploy(loaded, record_history=False).request == compiled.request
    assert compiled.request == redacted


@pytest.mark.parametrize("nodes, parallelism, engine", [(1, 1, Engine.SPARK), (4, 2, Engine.DASK), (8, 16, Engine.NONE)])
def test_suite_requests_round_trip(nodes, parallelism, engine):
    req = make_suite_request(nodes, parallelism, engine=engine, seed=3)
    assert parse_abstract_request(*canonical_serialize(req)) == req


@pytest.mark.parametrize("mode", ["serverless", "sdk"])
def test_a_run_reads_each_text_once_and_splits_the_command_once(monkeypatch, mode):
    reads, splits = [], []
    read_ini, split = config_model._read_ini, shlex.split
    monkeypatch.setattr(config_model, "_read_ini", lambda text, label, known: reads.append(label) or read_ini(text, label, known))
    monkeypatch.setattr(shlex, "split", lambda text: splits.append(text) or split(text))

    req = make_request(engine="spark", nodes=2)
    orchestrator = Orchestrator(SimCloud())
    doc = generate_pipeline(req)
    run = orchestrator.run_sdk if mode == "sdk" else orchestrator.run_serverless
    outcome = run(doc)

    assert outcome.state is ExecutionState.COMPLETED and outcome.history_url
    assert sorted(reads) == ["application.ini", "personal.ini", "resources.ini"]
    assert splits == [req.application.command]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"personal_text": personal_text(key_name="other")},
        {"resources_text": resources_text(engine="dask", nodes=3)},
        {"personal_text": personal_text(provider="azure")},
        {"target_provider": "azure", "application_text": application_text(bootstrap="apt update")},
    ],
    ids=["identical", "new-personal", "modified", "cross-cloud", "ported-and-modified"],
)
def test_a_reproduction_reads_each_text_once(monkeypatch, overrides):
    env = SimCloud()
    ancestor = Orchestrator(env).run_serverless(generate_pipeline(make_request(engine="dask", nodes=2)))
    reads = []
    read_ini = config_model._read_ini
    monkeypatch.setattr(config_model, "_read_ini", lambda text, label, known: reads.append(label) or read_ini(text, label, known))

    result = reproduce(env, ancestor.history_url, OverrideSet(**{"personal_text": personal_text(), **overrides}))

    assert result.outcome.state is ExecutionState.COMPLETED
    # the override's personal.ini and the archived one, then one of each other file
    assert sorted(reads) == ["application.ini", "personal.ini", "personal.ini", "resources.ini"]
    assert parse_abstract_request(*canonical_serialize(result.request)) == result.request


@pytest.mark.parametrize("key", ["resources_ini", "application_ini", "personal_ini"])
def test_an_archive_text_edited_in_place_is_parsed_again(key):
    doc = generate_pipeline(make_request())
    doc.body["archive"][key] = "oops"
    with pytest.raises(DeploymentRejected):
        Orchestrator(SimCloud()).deploy(doc)


def test_a_valid_edit_of_the_archive_is_the_request_that_runs():
    doc = generate_pipeline(make_request(nodes=1))
    archive = doc.body["archive"]
    archive["resources_ini"] = archive["resources_ini"].replace("instance_number = 1", "instance_number = 3")
    assert doc.compiled_request() is None
    inst = Orchestrator(SimCloud()).deploy(doc)
    assert inst.request.resources.cloud_aws.instance_number == 3
    texts = (archive["resources_ini"], archive["application_ini"], archive["personal_ini"])
    assert inst.request == parse_abstract_request(*texts)


def test_the_compiled_request_is_the_parse_of_the_archive():
    req = parse_abstract_request(
        resources_text(engine="dask", nodes=2, extra="[extra]\nnote = kept\n"),
        application_text(bootstrap="apt update, pip install dask"),
        personal_text(credentials="access_key:AKIA, secret_key:s3cret"),
    )
    doc = generate_pipeline(req)
    archive = doc.body["archive"]
    texts = (archive["resources_ini"], archive["application_ini"], archive["personal_ini"])
    assert doc.compiled_request() == parse_abstract_request(*texts)
    assert doc.compiled_request().personal.cloud_credentials == (
        ("access_key", "<redacted>"), ("secret_key", "<redacted>"),
    )
