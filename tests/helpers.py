"""Shared builders for tests: request texts and one-shot runs."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from cloudrerun.caam import generate_pipeline
from cloudrerun.config_model import parse_abstract_request
from cloudrerun.history import HistoryStore, find_record_table, parse_url
from cloudrerun.runtime import SDK_POLL_WINDOW, Orchestrator
from cloudrerun.simcloud.provider import SimCloud

DEFAULT_IMAGE = "registry.example/analytics:1.0"


def resources_text(
    engine: str = "none",
    provider: str = "aws",
    nodes: int = 1,
    instance_type: Optional[str] = None,
    region: Optional[str] = None,
    store: str = "execution-history",
    table: str = "execution-records",
    extra: str = "",
) -> str:
    if provider == "aws":
        block = (
            "[cloud.aws]\n"
            f"region = {region or 'us-west-2'}\n"
            f"instance_number = {nodes}\n"
            f"instance_type = {instance_type or 'c5d.xlarge'}\n"
            "subnet_id = subnet-12345\n"
            "vpc_id = vpc-12345\n"
        )
    else:
        block = (
            "[cloud.azure]\n"
            f"region = {region or 'westus2'}\n"
            f"instance_number = {nodes}\n"
            f"instance_type = {instance_type or 'F4s_v2'}\n"
            "resource_group_name = analytics-rg\n"
        )
    return (
        "[resources]\n"
        f"bigdata_engine = {engine}\n\n"
        f"{block}\n"
        "[reproduce]\n"
        f"reproduce_storage = {store}\n"
        f"reproduce_database = {table}\n"
        f"{extra}"
    )


def application_text(
    image: str = DEFAULT_IMAGE,
    datasets: str = "s3://datasets/alpha",
    command: str = "analyze --serial-seconds 10 --parallel-seconds 100 --comm-seconds 2 --parallelism 2 --seed 1",
    bootstrap: Optional[str] = None,
) -> str:
    lines = ["[application]", f"docker_image = {image}"]
    if datasets:
        lines.append(f"data_uri = {datasets}")
    lines.append(f"command = {command}")
    if bootstrap:
        lines.append(f"bootstrap = {bootstrap}")
    return "\n".join(lines) + "\n"


def personal_text(
    provider: str = "aws",
    key_name: str = "team-key",
    key_path: str = "~/.ssh/team.pem",
    runtime: str = "3.8",
    credentials: Optional[str] = None,
) -> str:
    lines = [
        "[personal]",
        f"cloud_provider = {provider}",
        f"key_name = {key_name}",
        f"key_path = {key_path}",
        f"python_runtime = {runtime}",
    ]
    if credentials:
        lines.append(f"cloud_credentials = {credentials}")
    return "\n".join(lines) + "\n"


def make_request(
    engine: str = "none",
    provider: str = "aws",
    nodes: int = 1,
    command: Optional[str] = None,
    credentials: Optional[str] = None,
    **kwargs,
):
    app = application_text(command=command) if command else application_text()
    return parse_abstract_request(
        resources_text(engine=engine, provider=provider, nodes=nodes, **kwargs),
        app,
        personal_text(provider=provider, credentials=credentials),
    )


def run_serverless(req, record_history: bool = True):
    env = SimCloud()
    outcome = Orchestrator(env).run(generate_pipeline(req), "serverless", None, record_history)
    return outcome, env


def run_sdk(req, poll_window=SDK_POLL_WINDOW, record_history: bool = True):
    env = SimCloud()
    outcome = Orchestrator(env).run(generate_pipeline(req), "sdk", Fraction(poll_window), record_history)
    return outcome, env


def fetch_bundles(env, url):
    """The archived record and bundles of the execution ``url`` names."""
    provider, store, execution_id = parse_url(url)
    table = find_record_table(env, provider, execution_id)
    return HistoryStore(env, provider, store, table).fetch(url)


def resolved_state(env: SimCloud) -> dict:
    """``env.to_state()`` with every stored version, row and bill as its
    bytes, so a loaded environment, whose parts are still references into
    its tail, compares equal to a live one holding the same content."""
    state = env.to_state()
    read = env.tail.read
    for pstate in state["providers"].values():
        pstate["stores"] = {
            store: {key: [read(version) for version in versions] for key, versions in keys.items()}
            for store, keys in pstate["stores"].items()
        }
        pstate["tables"] = {table: [[key, read(row)] for key, row in rows] for table, rows in pstate["tables"].items()}
    state["ledger"]["bills"] = [[scope, read(bill)] for scope, bill in state["ledger"]["bills"]]
    return state
