"""Abstract request configuration: parse, default-fill, redact, serialize.

The user-facing input is three INI files:

* ``resources.ini``   -- sections ``[resources]``, ``[cloud.aws]``,
  ``[cloud.azure]``, ``[reproduce]``
* ``application.ini`` -- section ``[application]``
* ``personal.ini``    -- section ``[personal]``

Parsing is the only place request rules are checked: a text either parses
to a valid request or raises.  Unknown keys and sections are kept as
extras and written back.  Secret material belongs in personal.ini only: a
secret-looking key (see ``SECRET_KEY_MARKERS``) in the other two files is
rejected, and in personal.ini its value is redacted from archives along
with the credentials.

Dialect: ``key = value`` pairs, ``#`` comments, lists comma-separated,
maps as comma-separated ``key:value`` pairs.  Canonical serialization is
byte-specified: UTF-8, LF line endings, fixed section order, keys sorted
inside each section, exactly one space around ``=``.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Mapping, Optional

from .errors import (
    MalformedValue,
    MissingRequiredKey,
    ProviderMismatch,
    UnknownEngine,
)

__all__ = [
    "Engine",
    "AwsBlock",
    "AzureBlock",
    "ReproduceBlock",
    "ResourcesSpec",
    "ApplicationSpec",
    "PersonalSpec",
    "AbstractRequest",
    "parse_abstract_request",
    "parse_resources",
    "parse_application",
    "parse_personal",
    "canonical_serialize",
    "serialize_resources",
    "serialize_application",
    "serialize_personal",
    "fill_defaults",
    "DEFAULTS",
    "SECRET_KEY_MARKERS",
    "REDACTED",
    "CREDENTIAL_ENV_PREFIX",
]


class Engine(str, Enum):
    """Accepted analytics engines; the enumeration is closed."""

    NONE = "none"
    SPARK = "spark"
    HOROVOD = "horovod"
    DASK = "dask"


# Default values used to complete partially specified requests.  These are
# configuration choices, not measured facts.
DEFAULTS = {
    "bigdata_engine": "none",
    "instance_number": 1,
    "aws_region": "us-west-2",
    "azure_region": "westus2",
    "aws_instance_type": "c5d.4xlarge",
    "azure_instance_type": "F16s_v2",
    "subnet_id": "subnet-default",
    "vpc_id": "vpc-default",
    "resource_group_name": "analytics-rg",
    "reproduce_storage": "execution-history",
    "reproduce_database": "execution-records",
    "key_path": "~/.ssh/analytics.pem",
    "key_name": "analytics-key",
    "python_runtime": "3.8",
}

# Key-name fragments that mark a value as secret material.
SECRET_KEY_MARKERS = (
    "credential",
    "secret",
    "password",
    "token",
    "access_key",
    "private_key",
)

REDACTED = "<redacted>"


def _looks_secret(key: str) -> bool:
    """The one secret rule: a key naming secret material."""
    lowered = key.lower()
    return any(marker in lowered for marker in SECRET_KEY_MARKERS)


# Environment variables CLOUDRERUN_CREDENTIAL_<NAME> add or override entries
# of personal.cloud_credentials (NAME lowercased).
CREDENTIAL_ENV_PREFIX = "CLOUDRERUN_CREDENTIAL_"


# The block dataclasses are the one definition of their INI sections: the
# field names are the section's keys and the field defaults fill what a
# request leaves out.  Parsing, serializing, porting and the adapters'
# provisioning documents all read the fields from here.

@dataclass(frozen=True)
class AwsBlock:
    region: str = DEFAULTS["aws_region"]
    instance_number: int = DEFAULTS["instance_number"]
    subnet_id: str = DEFAULTS["subnet_id"]
    instance_type: str = DEFAULTS["aws_instance_type"]
    vpc_id: str = DEFAULTS["vpc_id"]


@dataclass(frozen=True)
class AzureBlock:
    region: str = DEFAULTS["azure_region"]
    instance_number: int = DEFAULTS["instance_number"]
    resource_group_name: str = DEFAULTS["resource_group_name"]
    instance_type: str = DEFAULTS["azure_instance_type"]


@dataclass(frozen=True)
class ReproduceBlock:
    reproduce_storage: str = DEFAULTS["reproduce_storage"]
    reproduce_database: str = DEFAULTS["reproduce_database"]


@dataclass(frozen=True)
class ResourcesSpec:
    bigdata_engine: Engine
    cloud_aws: Optional[AwsBlock]
    cloud_azure: Optional[AzureBlock]
    reproduce: ReproduceBlock
    # Unknown keys, kept per section for forward compatibility.
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    def provider_block(self, provider: str):
        if provider == "aws":
            return self.cloud_aws
        if provider == "azure":
            return self.cloud_azure
        return None


@dataclass(frozen=True)
class ApplicationSpec:
    docker_image: str
    data_uri: tuple[str, ...]
    command: str
    bootstrap: tuple[str, ...] = ()
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()


@dataclass(frozen=True)
class PersonalSpec:
    cloud_provider: str
    key_path: str = DEFAULTS["key_path"]
    key_name: str = DEFAULTS["key_name"]
    python_runtime: str = DEFAULTS["python_runtime"]
    cloud_credentials: tuple[tuple[str, str], ...] = ()
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    def redacted(self) -> "PersonalSpec":
        """Copy with every credential value, and the value of every
        secret-looking unknown key, replaced by a placeholder."""
        return replace(
            self,
            cloud_credentials=tuple((k, REDACTED) for k, _ in self.cloud_credentials),
            extras=tuple(
                (section, tuple((k, REDACTED if _looks_secret(k) else v) for k, v in pairs))
                for section, pairs in self.extras
            ),
        )


@dataclass(frozen=True)
class AbstractRequest:
    resources: ResourcesSpec
    application: ApplicationSpec
    personal: PersonalSpec


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_BLOCKS = {"cloud.aws": AwsBlock, "cloud.azure": AzureBlock, "reproduce": ReproduceBlock}
_RESOURCES_SECTIONS = ("resources", *_BLOCKS)
_APPLICATION_SECTIONS = ("application",)
_PERSONAL_SECTIONS = ("personal",)
_KNOWN_KEYS = {
    "resources": {"bigdata_engine"},
    **{name: {f.name for f in fields(block)} for name, block in _BLOCKS.items()},
    "application": {f.name for f in fields(ApplicationSpec)} - {"extras"},
    "personal": {f.name for f in fields(PersonalSpec)} - {"extras"},
}


def _read_ini(text: str, label: str, known_sections) -> tuple[dict, tuple]:
    """Read one INI text into its sections, plus the unknown sections and
    the unknown keys of known sections as sorted extras."""
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str  # keep key case as written
    try:
        parser.read_string(text, source=label)
    except configparser.Error as exc:
        raise MalformedValue(f"{label}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    extras = []
    for name in parser.sections():
        data = sections[name] = {k: v.strip() for k, v in parser.items(name)}
        if name in known_sections:
            data = {k: v for k, v in data.items() if k not in _KNOWN_KEYS[name]}
            if not data:
                continue
        extras.append((name, tuple(sorted(data.items()))))
    return sections, tuple(sorted(extras))


def _reject_secrets(extras, label: str) -> None:
    """Secret material belongs in personal.ini only."""
    for section, pairs in extras:
        for key, _ in pairs:
            if _looks_secret(key):
                raise MalformedValue(
                    f"{label}: [{section}] {key}: secret-looking keys belong in personal.ini"
                )


def _split_list(value: str) -> tuple[str, ...]:
    if not value.strip():
        return ()
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _split_map(value: str, label: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in _split_list(value):
        if ":" not in item:
            raise MalformedValue(f"{label}: expected key:value pair, got {item!r}")
        k, v = item.split(":", 1)
        pairs.append((k.strip(), v.strip()))
    return tuple(pairs)


def _positive_int(value: str, label: str) -> int:
    try:
        number = int(value)
    except ValueError as exc:
        raise MalformedValue(f"{label}: expected a positive integer, got {value!r}") from exc
    if number < 1:
        raise MalformedValue(f"{label}: must be >= 1, got {number}")
    return number


def _parse_block(sections: dict, name: str):
    """The block of section ``name`` built from its known keys, with the
    dataclass defaults for the rest; None when the section is absent."""
    if name not in sections:
        return None
    data = {k: v for k, v in sections[name].items() if k in _KNOWN_KEYS[name]}
    for key, value in data.items():
        if not value:
            raise MalformedValue(f"{name}.{key}: must be non-empty")
    if "instance_number" in data:
        data["instance_number"] = _positive_int(data["instance_number"], f"{name}.instance_number")
    return _BLOCKS[name](**data)


def parse_resources(text: str) -> ResourcesSpec:
    sections, extras = _read_ini(text, "resources.ini", _RESOURCES_SECTIONS)
    _reject_secrets(extras, "resources.ini")

    res = sections.get("resources", {})
    engine_raw = res.get("bigdata_engine", DEFAULTS["bigdata_engine"])
    try:
        engine = Engine(engine_raw)
    except ValueError as exc:
        accepted = ", ".join(e.value for e in Engine)
        raise UnknownEngine(
            f"bigdata_engine {engine_raw!r} not one of: {accepted}"
        ) from exc

    return ResourcesSpec(
        bigdata_engine=engine,
        cloud_aws=_parse_block(sections, "cloud.aws"),
        cloud_azure=_parse_block(sections, "cloud.azure"),
        reproduce=_parse_block(sections, "reproduce") or ReproduceBlock(),
        extras=extras,
    )


def parse_application(text: str) -> ApplicationSpec:
    sections, extras = _read_ini(text, "application.ini", _APPLICATION_SECTIONS)
    _reject_secrets(extras, "application.ini")

    app = sections.get("application", {})
    image = app.get("docker_image", "").strip()
    if not image:
        raise MissingRequiredKey("application.docker_image is required")
    data_uri = _split_list(app.get("data_uri", ""))
    for uri in data_uri:
        if any(ch.isspace() for ch in uri):
            raise MalformedValue(f"application.data_uri: {uri!r} contains whitespace")

    return ApplicationSpec(
        docker_image=image,
        data_uri=data_uri,
        command=app.get("command", "").strip(),
        bootstrap=_split_list(app.get("bootstrap", "")),
        extras=extras,
    )


def parse_personal(text: str, env: Optional[Mapping[str, str]] = None) -> PersonalSpec:
    """Parse personal.ini; credentials may arrive or be overridden via
    CLOUDRERUN_CREDENTIAL_* environment variables."""
    sections, extras = _read_ini(text, "personal.ini", _PERSONAL_SECTIONS)

    personal = sections.get("personal", {})
    provider = personal.get("cloud_provider", "").strip()
    if not provider:
        raise MissingRequiredKey("personal.cloud_provider is required")

    credentials = dict(_split_map(personal.get("cloud_credentials", ""), "personal.cloud_credentials"))
    for var, value in (env or {}).items():
        if var.startswith(CREDENTIAL_ENV_PREFIX):
            credentials[var[len(CREDENTIAL_ENV_PREFIX):].lower()] = value

    known = {k: v for k, v in personal.items() if k in _KNOWN_KEYS["personal"]}
    known["cloud_credentials"] = tuple(sorted(credentials.items()))
    return PersonalSpec(**known, extras=extras)


def fill_defaults(req: AbstractRequest) -> AbstractRequest:
    """Complete a request with default values; idempotent.

    Parsing already fills per-key defaults.  This adds the one structural
    default: when no provider block was given at all, the block for the
    provider named in personal.ini is created (known providers only).
    """
    res = req.resources
    if res.cloud_aws is None and res.cloud_azure is None:
        if req.personal.cloud_provider == "aws":
            res = replace(res, cloud_aws=AwsBlock())
        elif req.personal.cloud_provider == "azure":
            res = replace(res, cloud_azure=AzureBlock())
    return replace(req, resources=res)


def parse_abstract_request(
    resources_text: str,
    application_text: str,
    personal_text: str,
    env: Optional[Mapping[str, str]] = None,
) -> AbstractRequest:
    """Parse the three configuration texts and check the rules between them.

    Raises exactly one of UnknownEngine, MissingRequiredKey, MalformedValue
    or ProviderMismatch on invalid input; anything else parses to a valid,
    default-filled request.
    """
    resources = parse_resources(resources_text)
    application = parse_application(application_text)
    personal = parse_personal(personal_text, env)

    req = fill_defaults(AbstractRequest(resources, application, personal))

    if req.resources.provider_block(personal.cloud_provider) is None:
        raise ProviderMismatch(
            f"personal.cloud_provider={personal.cloud_provider!r} has no matching "
            "provider block in resources.ini"
        )
    if req.resources.bigdata_engine is not Engine.NONE and not application.command:
        raise MissingRequiredKey(
            "application.command is required when bigdata_engine is not 'none'"
        )
    return req


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _render(sections: list[tuple[str, dict[str, str]]], extras, known_sections) -> str:
    """Merge the extras into their known sections, append the unknown
    sections by name, and write every section with its keys sorted."""
    merged: dict[str, dict[str, str]] = {}
    for section, pairs in extras:
        merged.setdefault(section, {}).update(pairs)
    for name, data in sections:
        data.update(merged.get(name, {}))
    sections = sections + [
        (name, data) for name, data in sorted(merged.items()) if name not in known_sections
    ]
    out = io.StringIO()
    first = True
    for name, data in sections:
        if not first:
            out.write("\n")
        first = False
        out.write(f"[{name}]\n")
        for key in sorted(data):
            out.write(f"{key} = {data[key]}\n")
    return out.getvalue()


def serialize_resources(res: ResourcesSpec) -> str:
    sections = [("resources", {"bigdata_engine": res.bigdata_engine.value})]
    blocks = (("cloud.aws", res.cloud_aws), ("cloud.azure", res.cloud_azure), ("reproduce", res.reproduce))
    for name, block in blocks:
        if block is not None:
            sections.append((name, {k: str(v) for k, v in vars(block).items()}))
    return _render(sections, res.extras, _RESOURCES_SECTIONS)


def serialize_application(app: ApplicationSpec) -> str:
    data = {"docker_image": app.docker_image, "command": app.command}
    if app.data_uri:
        data["data_uri"] = ", ".join(app.data_uri)
    if app.bootstrap:
        data["bootstrap"] = ", ".join(app.bootstrap)
    return _render([("application", data)], app.extras, _APPLICATION_SECTIONS)


def serialize_personal(personal: PersonalSpec) -> str:
    data = {
        "cloud_provider": personal.cloud_provider,
        "key_path": personal.key_path,
        "key_name": personal.key_name,
        "python_runtime": personal.python_runtime,
    }
    if personal.cloud_credentials:
        data["cloud_credentials"] = ", ".join(f"{k}:{v}" for k, v in personal.cloud_credentials)
    return _render([("personal", data)], personal.extras, _PERSONAL_SECTIONS)


def canonical_serialize(req: AbstractRequest) -> tuple[str, str, str]:
    """Deterministic (resources, application, personal) text triple.

    Serializing twice yields identical bytes; parsing the output yields a
    structurally equal request.
    """
    return (
        serialize_resources(req.resources),
        serialize_application(req.application),
        serialize_personal(req.personal),
    )
