"""Reproduce archived executions: same cloud, new identity, modified
request, or ported to another cloud.

The archived Config.zip carries the canonical resources and application
texts; the personal part is always redacted, so every reproduction must
bring its own personal configuration.  Overrides replace whole sections
(never single keys):

* identical     -- no overrides beyond the mandatory personal part,
* new-personal  -- personal differs from the archived one,
* modified      -- resources and/or application text replaced,
* cross-cloud   -- target provider differs; instance types and regions are
  translated through the equivalence tables below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .caam import generate_pipeline, get_adapter
from .config_model import (
    DEFAULTS,
    AbstractRequest,
    AwsBlock,
    AzureBlock,
    PersonalSpec,
    ResourcesSpec,
    parse_abstract_request,
    parse_personal,
    parse_resources,
    serialize_personal,
    serialize_resources,
)
from .errors import ConfigError, InvalidMerge, NotFound
from .history import HistoryStore, find_record_table, parse_url
from .runtime import ExecutionOutcome, Orchestrator
from .simcloud.provider import SimCloud

__all__ = [
    "OverrideSet",
    "ReproductionResult",
    "reproduce",
    "translate_resources",
    "INSTANCE_TYPE_EQUIVALENCE",
    "REGION_EQUIVALENCE",
    "REPRODUCTION_MODES",
]

REPRODUCTION_MODES = ("identical", "new-personal", "modified", "cross-cloud")

# Size-for-size instance translation between the supported clouds.
_AWS_TO_AZURE_TYPES = {
    "c5d.large": "F2s_v2",
    "c5d.xlarge": "F4s_v2",
    "c5d.4xlarge": "F16s_v2",
    "p3.2xlarge": "NC6s_v3",
    "p3.8xlarge": "NC24s_v3",
}
INSTANCE_TYPE_EQUIVALENCE = {
    ("aws", "azure"): _AWS_TO_AZURE_TYPES,
    ("azure", "aws"): {v: k for k, v in _AWS_TO_AZURE_TYPES.items()},
}

_AWS_TO_AZURE_REGIONS = {"us-west-2": "westus2", "us-east-1": "eastus"}
REGION_EQUIVALENCE = {
    ("aws", "azure"): _AWS_TO_AZURE_REGIONS,
    ("azure", "aws"): {v: k for k, v in _AWS_TO_AZURE_REGIONS.items()},
}

@dataclass(frozen=True)
class OverrideSet:
    """Wholesale section replacements for a reproduction.

    ``personal_text`` is mandatory: archives never contain credentials.
    ``target_provider`` ports the execution to another cloud and takes
    precedence over the provider named in ``personal_text``.
    """

    personal_text: str
    resources_text: Optional[str] = None
    application_text: Optional[str] = None
    target_provider: Optional[str] = None


@dataclass(frozen=True)
class ReproductionResult:
    ancestor_url: str
    reproduction_mode: str
    request: AbstractRequest
    outcome: ExecutionOutcome


def translate_resources(resources: ResourcesSpec, source: str, target: str) -> ResourcesSpec:
    """Rebuild the provider block of ``resources`` for another cloud."""
    block = resources.provider_block(source)
    if block is None:
        raise InvalidMerge(f"archived resources have no {source!r} block to translate")
    type_map = INSTANCE_TYPE_EQUIVALENCE.get((source, target))
    if type_map is None:
        raise InvalidMerge(f"no translation from {source!r} to {target!r}")
    instance_type = type_map.get(block.instance_type)
    if instance_type is None:
        raise InvalidMerge(
            f"instance type {block.instance_type!r} has no {target} equivalent"
        )
    block_type = AwsBlock if target == "aws" else AzureBlock
    ported = block_type(
        # An unmapped region falls back to the target block's default region.
        region=REGION_EQUIVALENCE[(source, target)].get(block.region, block_type.region),
        instance_number=block.instance_number,
        instance_type=instance_type,
    )
    return replace(
        resources,
        cloud_aws=ported if target == "aws" else None,
        cloud_azure=ported if target == "azure" else None,
    )


def _classify(
    ancestor_provider: str,
    target_provider: str,
    overrides: OverrideSet,
    archived_personal: PersonalSpec,
    new_personal: PersonalSpec,
) -> str:
    if target_provider != ancestor_provider:
        return "cross-cloud"
    if overrides.resources_text is not None or overrides.application_text is not None:
        return "modified"
    # Credentials are redacted in the archive, so identity is compared on
    # the non-secret fields only.
    same_identity = (
        archived_personal.key_name == new_personal.key_name
        and archived_personal.key_path == new_personal.key_path
        and archived_personal.python_runtime == new_personal.python_runtime
        and archived_personal.cloud_provider == new_personal.cloud_provider
    )
    return "identical" if same_identity else "new-personal"


def reproduce(
    env: SimCloud,
    url: str,
    overrides: OverrideSet,
    mode: str = "serverless",
    poll_window: Fraction = Fraction(10),
    record_history: bool = True,
) -> ReproductionResult:
    """Re-execute the archived run named by ``url`` under ``overrides``."""
    # A port to an unsupported cloud fails before anything is fetched.
    if overrides.target_provider is not None:
        get_adapter(overrides.target_provider)

    provider_name, store, execution_id = parse_url(url)
    table = (
        find_record_table(env, provider_name, execution_id)
        or DEFAULTS["reproduce_database"]
    )
    history = HistoryStore(env, provider_name, store, table)
    fetched = history.fetch(url)
    if fetched.config is None:
        raise NotFound(f"{url} has no archived configuration to reproduce")

    resources_text = (
        overrides.resources_text
        if overrides.resources_text is not None
        else fetched.config["resources.ini"].decode()
    )
    application_text = (
        overrides.application_text
        if overrides.application_text is not None
        else fetched.config["application.ini"].decode()
    )

    try:
        new_personal = parse_personal(overrides.personal_text)
        archived_personal = parse_personal(fetched.config["personal.ini"].decode())
    except ConfigError as exc:
        raise InvalidMerge(f"personal override unusable: {exc}") from exc

    target = overrides.target_provider or new_personal.cloud_provider
    get_adapter(target)
    personal_text = overrides.personal_text
    if new_personal.cloud_provider != target:
        new_personal = replace(new_personal, cloud_provider=target)
        personal_text = serialize_personal(new_personal)

    try:
        resources = parse_resources(resources_text)
    except ConfigError as exc:
        raise InvalidMerge(f"resources override unusable: {exc}") from exc
    if resources.provider_block(target) is None:
        source = "aws" if resources.cloud_aws is not None else "azure"
        resources = translate_resources(resources, source, target)
        resources_text = serialize_resources(resources)

    try:
        request = parse_abstract_request(resources_text, application_text, personal_text)
    except ConfigError as exc:
        raise InvalidMerge(f"merged request is invalid: {exc}") from exc

    reproduction_mode = _classify(
        fetched.record["provider"], target, overrides, archived_personal, new_personal
    )

    doc = generate_pipeline(request)
    orchestrator = Orchestrator(env)
    extra = {"ancestor_url": url, "reproduction_mode": reproduction_mode}
    if mode == "sdk":
        outcome = orchestrator.run_sdk(
            doc,
            poll_window=poll_window,
            record_history=record_history,
            extra_parameters=extra,
        )
    else:
        outcome = orchestrator.run_serverless(
            doc, record_history=record_history, extra_parameters=extra
        )
    return ReproductionResult(
        ancestor_url=url,
        reproduction_mode=reproduction_mode,
        request=request,
        outcome=outcome,
    )

