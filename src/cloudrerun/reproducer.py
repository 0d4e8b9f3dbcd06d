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
from typing import Mapping, Optional

from .caam import generate_pipeline, get_adapter
from .config_model import (
    CLOUD_BLOCKS,
    AbstractRequest,
    ResourcesSpec,
    build_request,
    parse_application,
    parse_personal,
    parse_resources,
)
from .errors import ConfigError, InvalidMerge, NotFound
from .history import HistoryStore, find_record_table, parse_url
from .runtime import SDK_POLL_WINDOW, Orchestrator, PipelineInstance, poll_window_for
from .simcloud.provider import SimCloud

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
    reproduction_mode: str
    request: AbstractRequest
    outcome: PipelineInstance


def translate_resources(resources: ResourcesSpec, source: str, target: str) -> ResourcesSpec:
    """Rebuild the ``source`` provider block of ``resources``, which it
    holds, for the other cloud ``target``."""
    block = resources.provider_block(source)
    instance_type = INSTANCE_TYPE_EQUIVALENCE[(source, target)].get(block.instance_type)
    if instance_type is None:
        raise InvalidMerge(
            f"instance type {block.instance_type!r} has no {target} equivalent"
        )
    block_type = CLOUD_BLOCKS[target]
    ported = block_type(
        # An unmapped region falls back to the target block's default region.
        region=REGION_EQUIVALENCE[(source, target)].get(block.region, block_type.region),
        instance_number=block.instance_number,
        instance_type=instance_type,
    )
    # The unknown keys of the source block's section go with the block.
    return replace(
        resources,
        clouds=((target, ported),),
        extras=tuple(pair for pair in resources.extras if pair[0] != f"cloud.{source}"),
    )


def _merging(unusable: str, step, *args):
    """``step(*args)``, with a ConfigError raised as InvalidMerge(``unusable``: ...)."""
    try:
        return step(*args)
    except ConfigError as exc:
        raise InvalidMerge(f"{unusable}: {exc}") from exc


def reproduce(
    env: SimCloud,
    url: str,
    overrides: OverrideSet,
    mode: str = "serverless",
    poll_window: Fraction = SDK_POLL_WINDOW,
    record_history: bool = True,
    environ: Optional[Mapping[str, str]] = None,
) -> ReproductionResult:
    """Re-execute the archived run named by ``url`` under ``overrides``;
    ``environ`` may supply credentials as ``parse_personal``'s ``env`` does.

    Every check that needs no archive runs before anything is fetched, since
    the fetch's reads are billed to the ancestor."""
    poll_window_for(mode, poll_window)
    new_personal = _merging("personal override unusable", parse_personal, overrides.personal_text, environ)
    target = overrides.target_provider or new_personal.cloud_provider
    get_adapter(target)
    new_personal = replace(new_personal, cloud_provider=target)
    resources = application = None
    if overrides.resources_text is not None:
        resources = _merging("resources override unusable", parse_resources, overrides.resources_text)
    if overrides.application_text is not None:
        application = _merging("merged request is invalid", parse_application, overrides.application_text)

    provider_name, store, execution_id = parse_url(url)
    table = find_record_table(env, provider_name, execution_id)
    history = HistoryStore(env, provider_name, store, table)
    fetched = history.fetch(url)
    if fetched.config is None:
        raise NotFound(f"{url} has no archived configuration to reproduce")

    # Each text is parsed once; the overrides merge on the parsed specs.
    config = fetched.config
    if resources is None:
        resources = _merging("archived resources.ini unusable", parse_resources, config["resources.ini"].decode())
    # Port the block the resources hold for another cloud; with no block at
    # all, build_request default-fills the target's, as it does for a run.
    if resources.clouds and resources.provider_block(target) is None:
        resources = translate_resources(resources, resources.clouds[0][0], target)
    if application is None:
        application = _merging(
            "archived application.ini unusable", parse_application, config["application.ini"].decode()
        )
    request = _merging("merged request is invalid", build_request, resources, application, new_personal)

    if target != fetched.record["provider"]:
        reproduction_mode = "cross-cloud"
    elif overrides.resources_text is not None or overrides.application_text is not None:
        reproduction_mode = "modified"
    else:
        # Only here is the archived personal.ini read.  Credentials are
        # redacted in the archive, so identity is compared on the non-secret
        # fields only.
        archived = _merging("archived personal.ini unusable", parse_personal, config["personal.ini"].decode())
        reproduction_mode = "identical" if archived.identity() == new_personal.identity() else "new-personal"

    extra = {"ancestor_url": url, "reproduction_mode": reproduction_mode}
    outcome = Orchestrator(env).run(generate_pipeline(request), mode, poll_window, record_history, extra)
    return ReproductionResult(reproduction_mode=reproduction_mode, request=request, outcome=outcome)
