"""Abstract request configuration: parse, default-fill, redact, serialize.

The user-facing input is three INI files:

* ``resources.ini``   -- sections ``[resources]``, one ``[cloud.<provider>]``
  per provider of ``CLOUD_BLOCKS`` (``[cloud.aws]``, ``[cloud.azure]``),
  ``[reproduce]``
* ``application.ini`` -- section ``[application]``
* ``personal.ini``    -- section ``[personal]``

Parsing is the only place request rules are checked: a text either parses
to a valid request or raises.  Unknown keys and sections are kept as
extras and written back.  Secret material belongs in personal.ini only: a
secret-looking key (see ``SECRET_KEY_MARKERS``) in the other two files is
rejected, and in personal.ini its value is redacted from archives along
with the credentials.

Dialect: a text is split into lines at ``\n`` only, and each line is read
with surrounding whitespace stripped.  A line is blank, a ``#`` comment, a
``[name]`` section header (the name runs to the line's last ``]``), or a
``key = value`` pair split at its first ``=``; a line indented deeper than
the last line that was not one continues the current key's value, across
blank lines and comments.  Keys of ``[DEFAULT]`` sections are merged into
every other section, under the section's own keys.  A repeated section
other than DEFAULT, a repeated key in one section, a pair before the first
header, an empty key and any other line are malformed.  Lists are
comma-separated, maps comma-separated ``key:value`` pairs.  Every value is
one line: a value with two non-blank lines is rejected, so serializing a
parsed request and parsing the texts again yields the same request, and
deployment reuses the compiled request while a document's archive texts
are unchanged.  The application command is tokenized and its workload
flags read at parse time, once per spec (``ApplicationSpec.flags`` and
``.workload``): an unbalanced quote or a bad workload flag is a parse
error.
Canonical serialization is byte-specified: UTF-8, LF line endings, fixed
section order, keys sorted inside each section, exactly one space around
``=``.
"""

from __future__ import annotations

# The reader is this module's own; configparser's error classes give its
# errors the messages that configparser's reader gives for the same text.
from configparser import (
    DEFAULTSECT,
    DuplicateOptionError,
    DuplicateSectionError,
    MissingSectionHeaderError,
)
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from typing import Mapping, Optional

from .errors import (
    MalformedValue,
    MissingRequiredKey,
    ProviderMismatch,
    UnknownEngine,
)
from .simcloud.workload import WorkloadProfile, parse_flags, parse_workload


class Engine(str, Enum):
    """Accepted analytics engines; the enumeration is closed."""

    NONE = "none"
    SPARK = "spark"
    HOROVOD = "horovod"
    DASK = "dask"


# Horovod's in-cluster SSH daemon port when the command sets no --ssh-port.
DEFAULT_SSH_DAEMON_PORT = 12345

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


# The block dataclasses, like ``PersonalSpec``, are the one definition of
# their INI sections: the field names are the section's keys and the field
# defaults (configuration choices, not measured facts) fill what a request
# leaves out.  Parsing, serializing, porting and the adapters' provisioning
# documents all read the fields from here.  ``CLOUD_BLOCKS`` is the one
# table of the clouds a request may hold a block for: it names each
# ``[cloud.<provider>]`` section and its block, in canonical section order,
# so no code branches on a provider's name.

@dataclass(frozen=True)
class AwsBlock:
    region: str = "us-west-2"
    instance_number: int = 1
    subnet_id: str = "subnet-default"
    instance_type: str = "c5d.4xlarge"
    vpc_id: str = "vpc-default"


@dataclass(frozen=True)
class AzureBlock:
    region: str = "westus2"
    instance_number: int = 1
    resource_group_name: str = "analytics-rg"
    instance_type: str = "F16s_v2"


CLOUD_BLOCKS = {"aws": AwsBlock, "azure": AzureBlock}


@dataclass(frozen=True)
class ReproduceBlock:
    reproduce_storage: str = "execution-history"
    reproduce_database: str = "execution-records"


# ``ReproduceBlock``'s defaults by key, which ``history --store/--table`` share.
DEFAULTS = {f.name: f.default for f in fields(ReproduceBlock)}


@dataclass(frozen=True)
class ResourcesSpec:
    bigdata_engine: Engine
    # (provider, block) of each cloud block the request holds, in
    # ``CLOUD_BLOCKS`` order.
    clouds: tuple[tuple[str, AwsBlock | AzureBlock], ...]
    reproduce: ReproduceBlock
    # Unknown keys, kept per section for forward compatibility.
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    def provider_block(self, provider: str):
        """The block of ``provider``; None when the request holds none."""
        return dict(self.clouds).get(provider)


@dataclass(frozen=True)
class ApplicationSpec:
    docker_image: str
    data_uri: tuple[str, ...]
    command: str
    bootstrap: tuple[str, ...] = ()
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    @cached_property
    def flags(self) -> tuple[tuple[str, str], ...]:
        """The command's ``--flag value`` pairs sorted by flag, tokenized
        once per spec; parsing reads them, so a bad command fails there."""
        try:
            return tuple(sorted(parse_flags(self.command).items()))
        except ValueError as exc:
            raise MalformedValue(f"application.ini: [application] command: {exc}") from exc

    @cached_property
    def workload(self) -> WorkloadProfile:
        """The workload profile of ``flags``, read once per spec; parsing
        reads it, so a bad workload flag fails there."""
        flags = self.flags  # outside the try: a tokenizing error carries its own prefix
        try:
            return parse_workload(flags)
        except MalformedValue as exc:
            raise MalformedValue(f"application.ini: [application] command: {exc}") from exc


@dataclass(frozen=True)
class PersonalSpec:
    cloud_provider: str
    key_path: str = "~/.ssh/analytics.pem"
    key_name: str = "analytics-key"
    python_runtime: str = "3.8"
    cloud_credentials: tuple[tuple[str, str], ...] = ()
    extras: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    def identity(self) -> dict[str, str]:
        """The non-secret fields, which archives and documents keep as written."""
        return {"cloud_provider": self.cloud_provider, "key_path": self.key_path,
                "key_name": self.key_name, "python_runtime": self.python_runtime}

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

    @property
    def ssh_daemon_port(self) -> Optional[int]:
        """Horovod's SSH daemon port, ``--ssh-port`` in 1..65535; None for other engines."""
        if self.resources.bigdata_engine is not Engine.HOROVOD:
            return None
        text = dict(self.application.flags).get("ssh-port", str(DEFAULT_SSH_DAEMON_PORT))
        if not (text.isdecimal() and 1 <= int(text) <= 65535):
            raise MalformedValue(
                f"application.ini: command --ssh-port {text!r} is not a port number in 1..65535"
            )
        return int(text)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_BLOCKS = {**{f"cloud.{p}": block for p, block in CLOUD_BLOCKS.items()}, "reproduce": ReproduceBlock}
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
    defaults: dict[str, list[str]] = {}
    parsed: dict[str, dict[str, list[str]]] = {}
    section = name = key = None  # the section being read and the key indented lines continue
    indent = 0  # of the last line that was not a continuation
    invalid = []  # (line number, line) of each line that is no header and no pair
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        value = line.strip()
        if not value or value[0] == "#":
            if not value and key:
                section[key].append("")
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            section[key].append(value)
            continue
        indent = depth
        raw = line + "\n" if lineno < len(lines) else line
        end = value.rfind("]")
        if value[0] == "[" and end > 1:
            name, key = value[1:end], None
            if name == DEFAULTSECT:
                section = defaults
            elif name in parsed:
                exc = DuplicateSectionError(name, label, lineno)
                raise MalformedValue(f"{label}: {exc}") from exc
            else:
                section = parsed[name] = {}
        elif section is None:
            exc = MissingSectionHeaderError(label, lineno, raw)
            raise MalformedValue(f"{label}: {exc}") from exc
        elif "=" not in value:
            invalid.append((lineno, raw))
        else:
            key, _, rest = value.partition("=")
            key = key.rstrip()
            if not key:  # invalid, but read on as configparser does
                invalid.append((lineno, raw))
            if key in section:
                exc = DuplicateOptionError(name, key, label, lineno)
                raise MalformedValue(f"{label}: {exc}") from exc
            section[key] = [rest.strip()]
    if invalid:
        raise MalformedValue(f"{label}: Source contains parsing errors: {label!r}" + "".join(
            f"\n\t[line {lineno:2d}]: {line!r}" for lineno, line in invalid))
    joined = {k: "\n".join(parts).strip() for k, parts in defaults.items()}
    sections: dict[str, dict[str, str]] = {}
    extras = []
    for name, pairs in parsed.items():
        data = sections[name] = {**joined, **{k: "\n".join(parts).strip() for k, parts in pairs.items()}}
        for key, value in data.items():
            if "\n" in value:
                raise MalformedValue(f"{label}: [{name}] {key}: values must be one line")
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
    engine_raw = res.get("bigdata_engine", Engine.NONE.value)
    try:
        engine = Engine(engine_raw)
    except ValueError as exc:
        accepted = ", ".join(e.value for e in Engine)
        raise UnknownEngine(
            f"bigdata_engine {engine_raw!r} not one of: {accepted}"
        ) from exc

    return ResourcesSpec(
        bigdata_engine=engine,
        clouds=tuple(
            (provider, _parse_block(sections, f"cloud.{provider}"))
            for provider in CLOUD_BLOCKS
            if f"cloud.{provider}" in sections
        ),
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

    spec = ApplicationSpec(
        docker_image=image,
        data_uri=data_uri,
        command=app.get("command", "").strip(),
        bootstrap=_split_list(app.get("bootstrap", "")),
        extras=extras,
    )
    spec.workload  # tokenize and read the workload now, so a bad command fails at parse
    return spec


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
            name = var[len(CREDENTIAL_ENV_PREFIX):].lower()
            if any(ch in ",:" or ch.isspace() for ch in name):
                raise MalformedValue(f"{var}: a credential name cannot hold ',', ':' or whitespace")
            credentials[name] = value

    known = {k: v for k, v in personal.items() if k in _KNOWN_KEYS["personal"]}
    known["cloud_credentials"] = tuple(sorted(credentials.items()))
    return PersonalSpec(**known, extras=extras)


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
    return build_request(
        parse_resources(resources_text),
        parse_application(application_text),
        parse_personal(personal_text, env),
    )


def build_request(
    resources: ResourcesSpec, application: ApplicationSpec, personal: PersonalSpec
) -> AbstractRequest:
    """The default-filled request of three parsed specs, after the checks
    between the files (ProviderMismatch, MissingRequiredKey, a bad port).

    Parsing fills the per-key defaults.  This adds the one structural
    default: when no provider block was given at all, the block for the
    provider named in personal.ini is created (known providers only).
    """
    provider = personal.cloud_provider
    if not resources.clouds and provider in CLOUD_BLOCKS:
        resources = replace(resources, clouds=((provider, CLOUD_BLOCKS[provider]()),))
    if resources.provider_block(provider) is None:
        raise ProviderMismatch(
            f"personal.cloud_provider={provider!r} has no matching "
            "provider block in resources.ini"
        )
    if resources.bigdata_engine is not Engine.NONE and not application.command:
        raise MissingRequiredKey(
            "application.command is required when bigdata_engine is not 'none'"
        )
    req = AbstractRequest(resources, application, personal)
    req.ssh_daemon_port  # read the port now, so a bad --ssh-port fails at parse
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
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {data[key]}\n" for key in sorted(data))
        for name, data in sections
    )


def serialize_resources(res: ResourcesSpec) -> str:
    sections = [("resources", {"bigdata_engine": res.bigdata_engine.value})]
    blocks = {f"cloud.{provider}": res.provider_block(provider) for provider in CLOUD_BLOCKS}
    blocks["reproduce"] = res.reproduce
    for name, block in blocks.items():
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
    data = personal.identity()
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
