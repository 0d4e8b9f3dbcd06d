"""Cloud-agnostic application model: one abstract request, per-cloud
executable pipeline documents.

The provider-specific knowledge lives in two places only:

* a service mapping table (category -> concrete managed service per cloud),
* an adapter per provider that assembles the pipeline document.

Dispatch follows the adaptee-mapping convention: look the provider up in the
adapter table and delegate, raising for anything unregistered.  The table also
names services for a third cloud (gcloud); carrying the names costs nothing
and no adapter exists for it, so using it fails exactly like any other
unregistered provider.

A pipeline document is a JSON-serializable description with four cloud
function bindings (software setup, analytics, export, terminate), one
trigger rule per function, and a provisioning step that announces hardware
readiness.  The application and personal parts are provider-independent by
construction and are byte-identical across adapters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Protocol

from .config_model import AbstractRequest, Engine, canonical_serialize
from .engines import build_security_groups, capture_engine_config
from .errors import (
    UnmappedService,
    UnsupportedEngineOnProvider,
    UnsupportedProvider,
)

__all__ = [
    "SERVICE_MAPPING",
    "lookup_service",
    "PipelineDocument",
    "CloudAdapter",
    "AwsAdapter",
    "AzureAdapter",
    "get_adapter",
    "generate_pipeline",
    "FUNCTION_NAMES",
    "TRIGGER_TABLE",
    "SCHEMA_VERSION",
    "EXPORT_PREFIX",
]

SCHEMA_VERSION = 1

# Concrete managed service per (provider, category).
SERVICE_MAPPING = {
    "aws": {
        "cluster": "EC2 Auto Scaling/EMR",
        "network": "VPN",
        "container_registry": "ECR",
        "storage": "S3",
        "database": "DynamoDB",
        "deployment_functions": "CloudFormation & Lambda Functions",
        "sdk": "Boto/Boto3",
        "identity": "AWS IAM",
    },
    "azure": {
        "cluster": "Virtual Machine Scale Set/HDInsight",
        "network": "Virtual Network",
        "container_registry": "Azure Container Registry",
        "storage": "Blob storage",
        "database": "CosmosDB",
        "deployment_functions": "Deployment Manager & Azure Functions",
        "sdk": ".NET Core",
        "identity": "Azure IAM",
    },
    "gcloud": {
        "cluster": "Autoscaling Groups/Dataproc",
        "network": "Virtual Private Cloud",
        "container_registry": "Artifact Registry",
        "storage": "Firebase",
        "database": "Firebase Realtime Database",
        "deployment_functions": "Cloud Deployment Manager & Cloud Functions",
        "sdk": "Cloud SDK",
        "identity": "Cloud IAM",
    },
}

# Analytics results land under this key prefix; the export function is
# triggered by object-created events matching it.
EXPORT_PREFIX = "export/"

# The one trigger per function, in lifecycle order: (function, source kind,
# event, match).  Sources are symbolic; deployment binds each row to a
# concrete execution instance.
TRIGGER_TABLE = (
    ("software_env_setup", "lifecycle", "HardwareEnvReady", "exact"),
    ("run_analytics", "lifecycle", "SoftwareEnvReady", "exact"),
    ("export_execution", "storage", EXPORT_PREFIX, "prefix"),
    ("terminate_resources", "lifecycle", "ExportComplete", "exact"),
)

FUNCTION_NAMES = tuple(function for function, *_ in TRIGGER_TABLE)


def lookup_service(provider: str, category: str) -> str:
    table = SERVICE_MAPPING.get(provider)
    if table is None or category not in table:
        raise UnmappedService(f"no service mapped for ({provider!r}, {category!r})")
    return table[category]


@dataclass(frozen=True)
class PipelineDocument:
    """Executable pipeline for one provider, JSON all the way down."""

    provider: str
    body: dict
    # Set by the adapter that assembled ``body``: a copy of the archive texts
    # it wrote and the request they parse to.  Not part of the document, so
    # ``to_json`` leaves it out and equality ignores it.
    compiled: Optional[tuple[dict, AbstractRequest]] = field(default=None, compare=False, repr=False)

    def compiled_request(self) -> Optional[AbstractRequest]:
        """The request this document was compiled from, personal part
        redacted, while the body's archive texts are still the ones written
        for it; None for a loaded or edited document."""
        if self.compiled is None or self.body.get("archive") != self.compiled[0]:
            return None
        return self.compiled[1]

    def to_json(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=2) + "\n"


class CloudAdapter(Protocol):
    provider: str

    def provisioning_doc(self, req: AbstractRequest) -> dict: ...

    def personal_doc(self, req: AbstractRequest) -> dict: ...

    def assemble(self, req: AbstractRequest) -> PipelineDocument: ...


def _application_doc(req: AbstractRequest, captured: dict) -> dict:
    """Provider-independent application part; adapters share it verbatim."""
    return {
        "docker_image": req.application.docker_image,
        "datasets": list(req.application.data_uri),
        "command": req.application.command,
        "bootstrap": list(req.application.bootstrap),
        "engine": captured["engine"],
        "engine_parameters": captured["parameters"],
    }


class _BaseAdapter:
    provider: str = ""
    unsupported_engines: frozenset[Engine] = frozenset()

    def _check_engine(self, req: AbstractRequest) -> None:
        engine = req.resources.bigdata_engine
        if engine in self.unsupported_engines:
            raise UnsupportedEngineOnProvider(
                f"{self.provider} cannot host the {engine.value} engine"
            )

    def provisioning_doc(self, req: AbstractRequest) -> dict:
        """The mapped services plus every field of the provider block."""
        return {
            "cluster_service": lookup_service(self.provider, "cluster"),
            "network_service": lookup_service(self.provider, "network"),
            "registry_service": lookup_service(self.provider, "container_registry"),
            **vars(req.resources.provider_block(self.provider)),
            "emits": "HardwareEnvReady",
        }

    def personal_doc(self, req: AbstractRequest) -> dict:
        personal = req.personal
        return {
            "cloud_provider": personal.cloud_provider,
            "key_name": personal.key_name,
            "key_path": personal.key_path,
            "python_runtime": personal.python_runtime,
            "authentication_service": lookup_service(self.provider, "identity"),
            # Secrets never enter the document; functions read them from the
            # execution environment at run time.
            "credentials_source": "environment",
        }

    def _functions(self, req: AbstractRequest) -> list[dict]:
        runtime = req.personal.python_runtime
        service = lookup_service(self.provider, "deployment_functions")
        return [
            {"name": name, "runtime": f"python{runtime}", "service": service}
            for name in FUNCTION_NAMES
        ]

    def _rules(self, req: AbstractRequest) -> list[dict]:
        """The trigger table; a storage trigger also names the mapped service."""
        storage_service = lookup_service(self.provider, "storage")
        return [
            {
                "function": function,
                "source_kind": kind,
                **({"service": storage_service} if kind == "storage" else {}),
                "event": event,
                "match": match,
            }
            for function, kind, event, match in TRIGGER_TABLE
        ]

    def _security_groups(self, req: AbstractRequest, captured: dict) -> list[dict]:
        groups = build_security_groups(req.resources.bigdata_engine, captured["ssh_daemon_port"])
        return [
            {
                "group_id": g.group_id,
                "rules": [{**vars(r), "port_range": list(r.port_range)} for r in g.rules],
            }
            for g in groups
        ]

    def assemble(self, req: AbstractRequest) -> PipelineDocument:
        self._check_engine(req)
        # One capture per compile: the application part records the
        # command's flags and the security groups pin its SSH port.
        captured = capture_engine_config(req)
        archived = replace(req, personal=req.personal.redacted())
        # ``archived`` shares ``req``'s resources and application parts.
        archive = dict(zip(("resources_ini", "application_ini", "personal_ini"),
                           canonical_serialize(archived)))
        body = {
            "schema_version": SCHEMA_VERSION,
            "provider": self.provider,
            "executable": {
                "resources": self.provisioning_doc(req),
                "application": _application_doc(req, captured),
                "personal": self.personal_doc(req),
            },
            "functions": self._functions(req),
            "rules": self._rules(req),
            "security_groups": self._security_groups(req, captured),
            # Canonical request texts ride along so deployment can archive
            # the exact configuration; the personal part is pre-redacted.
            "archive": archive,
        }
        return PipelineDocument(self.provider, body, compiled=(dict(archive), archived))


class AwsAdapter(_BaseAdapter):
    provider = "aws"


class AzureAdapter(_BaseAdapter):
    provider = "azure"
    # HDInsight offers no Docker-based engine deployment, so the
    # containerized engine path is unavailable on this provider.
    unsupported_engines = frozenset({Engine.SPARK})


_ADAPTERS: dict[str, CloudAdapter] = {a.provider: a for a in (AwsAdapter(), AzureAdapter())}


def get_adapter(provider: str) -> CloudAdapter:
    adapter = _ADAPTERS.get(provider)
    if adapter is None:
        raise UnsupportedProvider(
            f"no adapter registered for provider {provider!r}; "
            f"registered: {', '.join(sorted(_ADAPTERS))}"
        )
    return adapter


def generate_pipeline(req: AbstractRequest) -> PipelineDocument:
    """Dispatch on personal.cloud_provider and assemble the pipeline."""
    return get_adapter(req.personal.cloud_provider).assemble(req)
