"""Cloud-agnostic application model: one abstract request, per-cloud
executable pipeline documents.

The provider-specific knowledge of a document lives in two tables only:

* a service mapping table (category -> concrete managed service per cloud),
* the engines each cloud cannot host.

Each is a table keyed by provider, as are the rest of the program's
provider tables: ``config_model.CLOUD_BLOCKS`` (a request's resource block),
the price catalog and the reproducer's equivalence tables, so no code
branches on a provider's name.  One ``CloudAdapter`` class assembles every
cloud's document from these rows; it is made once per cloud of
``CLOUD_BLOCKS``, so a cloud has an adapter exactly when a request can hold
a block for it.  The engine parts of a document (its security groups) come
from ``engines`` as the JSON the document holds, and every adapter takes
them verbatim.

Dispatch follows the adaptee-mapping convention: look the provider up in the
adapter table and delegate, raising for anything unregistered.  The service
table also names services for a third cloud (gcloud); carrying the names
costs nothing and no adapter exists for it, so using it fails exactly like
any other unregistered provider.

A pipeline document is a JSON-serializable description with four cloud
function bindings (software setup, analytics, export, terminate), one
trigger rule per function, and a provisioning step that announces hardware
readiness.  The application and personal parts are provider-independent by
construction and are byte-identical across adapters.  An adapter's document
builds its body on the first read; deploying and running it read only the
archive texts, so a run never builds the rest.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .config_model import CLOUD_BLOCKS, AbstractRequest, Engine, canonical_serialize
from .engines import build_security_groups
from .errors import (
    UnmappedService,
    UnsupportedEngineOnProvider,
    UnsupportedProvider,
)
from .history import indented_json

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

# Engines a provider cannot host.  HDInsight offers no Docker-based engine
# deployment, so the containerized engine path is unavailable on azure.
UNSUPPORTED_ENGINES = {"azure": frozenset({Engine.SPARK})}

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


class PipelineDocument:
    """Executable pipeline for one provider, JSON all the way down.

    ``PipelineDocument(provider, body)`` holds ``body`` as given, such as a
    body read back from ``to_json``.  An adapter's document is made with no
    body: it holds the archive texts the adapter wrote, and builds the rest
    of its body on the first read of ``body``.  A run reads only
    ``archive``, so it never builds the rest."""

    def __init__(
        self,
        provider: str,
        body: Optional[dict],
        compiled: Optional[tuple[CloudAdapter, dict, AbstractRequest]] = None,
    ) -> None:
        self.provider = provider
        self._body = body
        # Set by the adapter that made the document: the adapter, the archive
        # texts it wrote and the request they parse to.  Not part of the
        # document, so ``to_json`` leaves it out.
        self.compiled = compiled
        self._archive = None if compiled is None else dict(compiled[1])

    @property
    def body(self) -> dict:
        if self._body is None:
            adapter, _, request = self.compiled
            self._body = adapter.body(request, self._archive)
        return self._body

    @property
    def archive(self):
        """The body's archive section, read without building the rest of the body."""
        return self._archive if self._body is None else self._body.get("archive", {})

    def compiled_request(self) -> Optional[AbstractRequest]:
        """The request this document was compiled from, personal part
        redacted, while the body's archive texts are still the ones written
        for it; None for a document rebuilt from its JSON or edited."""
        if self.compiled is None or self.archive != self.compiled[1]:
            return None
        return self.compiled[2]

    def to_json(self) -> str:
        return indented_json(self.body) + "\n"


def _application_doc(req: AbstractRequest) -> dict:
    """Provider-independent application part; adapters share it verbatim."""
    return {
        "docker_image": req.application.docker_image,
        "datasets": list(req.application.data_uri),
        "command": req.application.command,
        "bootstrap": list(req.application.bootstrap),
        "engine": req.resources.bigdata_engine.value,
        "engine_parameters": dict(req.application.flags),
    }


class CloudAdapter:
    """Assembles one provider's pipeline document from that provider's rows
    of ``SERVICE_MAPPING`` and ``UNSUPPORTED_ENGINES``."""

    def __init__(self, provider: str) -> None:
        self.provider = provider

    def _check_engine(self, req: AbstractRequest) -> None:
        engine = req.resources.bigdata_engine
        if engine in UNSUPPORTED_ENGINES.get(self.provider, frozenset()):
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
        return {
            **req.personal.identity(),
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

    def _rules(self) -> list[dict]:
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

    def assemble(self, req: AbstractRequest) -> PipelineDocument:
        """The document of ``req``, whose body is built on its first read."""
        self._check_engine(req)
        archived = replace(req, personal=req.personal.redacted())
        # ``archived`` shares ``req``'s resources and application parts.
        archive = dict(zip(("resources_ini", "application_ini", "personal_ini"),
                           canonical_serialize(archived)))
        return PipelineDocument(self.provider, None, compiled=(self, archive, archived))

    def body(self, req: AbstractRequest, archive: dict) -> dict:
        """The body of ``req``'s document around its ``archive`` texts.  The
        personal part of ``req`` may be redacted: the body holds no secret."""
        return {
            "schema_version": SCHEMA_VERSION,
            "provider": self.provider,
            "executable": {
                "resources": self.provisioning_doc(req),
                "application": _application_doc(req),
                "personal": self.personal_doc(req),
            },
            "functions": self._functions(req),
            "rules": self._rules(),
            "security_groups": build_security_groups(req.resources.bigdata_engine, req.ssh_daemon_port),
            # Canonical request texts ride along so deployment can archive
            # the exact configuration; the personal part is pre-redacted.
            "archive": archive,
        }


_ADAPTERS: dict[str, CloudAdapter] = {provider: CloudAdapter(provider) for provider in CLOUD_BLOCKS}


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
