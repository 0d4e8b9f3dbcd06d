"""Execution history: archive bundles, records, URLs, and queries.

Every completed execution leaves three things in the provider it ran on:

* ``executions/<id>/Config.zip``  -- the canonical request texts (personal
  part redacted) plus the captured engine configuration,
* ``executions/<id>/Result.zip``  -- the analytics output parts,
* one database record describing the run, in a table keyed by execution
  id.  It is written when the bundles are and rewritten once when the run
  ends; every write returns the record as stored.

Input datasets are stored content-addressed under ``inputs/<sha256>`` so a
dataset shared by many executions is kept once.  An execution is referred
to by URL::

    rpac://<provider>/<store>/<execution_id>

Zip bundles are deterministic, so equal content means equal bytes, which is
what makes byte-level reproduction checks meaningful.  A bundle is written
in the PKWARE APPNOTE layout: per entry, in name order, a local header, the
ASCII name and the stored (uncompressed) bytes, with the CRC-32 and sizes
in the header and no data descriptor; then one central directory header per
entry and the end record.  Every entry is dated 1980-01-01 00:00:00, made
by version 2.0 on Unix, with mode 0600 and no extra field or comment: the
bytes ``zipfile`` writes for the same entries.  Reading walks that layout
alone: nothing in an archive is decompressed.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from .config_model import PersonalSpec
from .errors import MalformedURL, NotFound, RedactionViolation, UnknownField
from .simcloud.clock import as_fraction
from .simcloud.provider import SimCloud

URL_SCHEME = "rpac"


def find_record_table(env: "SimCloud", provider_name: str, execution_id: str) -> Optional[str]:
    """Locate the database table holding an execution's record.  Tables are
    named per request, so lookup by URL asks each of the provider's tables,
    in name order."""
    tables = env.provider(provider_name).tables
    return next((table for table in sorted(tables) if execution_id in tables[table]), None)

CONFIG_ENTRY_NAMES = ("application.ini", "engine.json", "personal.ini", "resources.ini")

# Queryable record fields; everything else is UnknownField.
RECORD_FIELDS = (
    "execution_id",
    "provider",
    "engine",
    "status",
    "mode",
)

_ZIP_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_ZIP_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_ZIP_END_RECORD = struct.Struct("<4s4H2LH")
_ZIP_DATE = 1 << 5 | 1  # MS-DOS date of 1980-01-01; the time field is 0
_ZIP_MODE = 0o600 << 16  # Unix permissions in the external attributes
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # json.dumps's spellings


def execution_url(provider: str, store: str, execution_id: str) -> str:
    return f"{URL_SCHEME}://{provider}/{store}/{execution_id}"


def parse_url(url: str) -> tuple[str, str, str]:
    prefix = f"{URL_SCHEME}://"
    if not url.startswith(prefix):
        raise MalformedURL(f"expected {prefix}<provider>/<store>/<execution_id>, got {url!r}")
    parts = url[len(prefix):].split("/")
    if len(parts) != 3 or not all(parts):
        raise MalformedURL(f"expected {prefix}<provider>/<store>/<execution_id>, got {url!r}")
    return parts[0], parts[1], parts[2]


def deterministic_zip(entries: dict[str, bytes]) -> bytes:
    """Zip whose bytes depend only on entry names and contents.  A name
    must be ASCII without NUL, which ``zipfile`` stores unchanged."""
    local, central, offset = [], [], 0
    for name in sorted(entries):
        if not name.isascii() or "\0" in name:
            raise ValueError(f"zip entry name {name!r} is not ASCII without NUL")
        encoded, data = name.encode("ascii"), entries[name]
        crc, size = zlib.crc32(data), len(data)
        header = _ZIP_LOCAL_HEADER.pack(
            b"PK\x03\x04", 20, 0, 0, 0, 0, _ZIP_DATE, crc, size, size, len(encoded), 0
        )
        local += (header, encoded, data)
        central += (_ZIP_CENTRAL_HEADER.pack(
            b"PK\x01\x02", 20, 3, 20, 0, 0, 0, 0, _ZIP_DATE, crc, size, size, len(encoded),
            0, 0, 0, 0, _ZIP_MODE, offset,
        ), encoded)
        offset += len(header) + len(encoded) + size
    directory = b"".join(central)
    count = len(entries)
    end = _ZIP_END_RECORD.pack(b"PK\x05\x06", 0, 0, count, count, len(directory), offset, 0)
    return b"".join(local) + directory + end


def indented_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, for a value built of
    dicts with str keys, lists, str, int, float, bool and None: the one
    writer of archived JSON files, reports, pipeline documents and the
    CLI's ``--json`` output.  A float is spelled as ``json.dumps`` spells
    it: its ``repr`` when finite, else ``Infinity``, ``-Infinity`` or
    ``NaN``.  Any other type (a tuple, a Fraction) or a key that is no str
    raises TypeError.  The standard library writes indented JSON with its
    pure-Python encoder before 3.13; this writer is faster."""
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    """Append the text of ``value``, nested at the indent ``newline`` ends in."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True or value is False:
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_JSON_NONFINITE.get(text, text))
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not written as JSON")


def read_zip(data: bytes, name: str = "zip") -> dict[str, bytes]:
    """The entries of a bundle that ``deterministic_zip`` wrote; other bytes raise
    ValueError naming ``name``.  Each local header gives a name and stored bytes; the
    entries must zip back to ``data``, which checks the CRCs, directory and end record."""
    entries, offset = {}, 0
    try:
        while data.startswith(b"PK\x03\x04", offset):
            *_, size, _, name_length, _ = _ZIP_LOCAL_HEADER.unpack_from(data, offset)
            start = offset + _ZIP_LOCAL_HEADER.size + name_length
            entries[data[start - name_length:start].decode("ascii")] = data[start:start + size]
            offset = start + size
        if deterministic_zip(entries) != data:
            raise ValueError("its bytes are not the zip of its entries")
    except (struct.error, ValueError) as exc:
        raise ValueError(f"{name} is damaged: {type(exc).__name__}: {exc}") from exc
    return entries


def dataset_content(uri: str) -> bytes:
    """Simulated dataset bytes: a pure function of the URI."""
    first = hashlib.sha256(b"dataset:" + uri.encode()).digest()
    return first + hashlib.sha256(first).digest()


def content_address(data: bytes) -> str:
    return f"inputs/{hashlib.sha256(data).hexdigest()}"


@dataclass
class ExportPlan:
    """Everything the export step will write, computed ahead of time so the
    operation count (and its simulated latency) is known up front."""

    objects: dict[str, bytes]  # key -> bytes, in write order
    fields: dict  # the record fields that name them

    @property
    def op_count(self) -> int:
        # one put per object + the record write
        return len(self.objects) + 1


@dataclass(frozen=True)
class FetchedExecution:
    record: dict
    config: Optional[dict[str, bytes]]
    result: Optional[dict[str, bytes]]


class HistoryStore:
    """Archive and query interface over one provider's history storage."""

    def __init__(self, env: SimCloud, provider_name: str, store: str, table: Optional[str]) -> None:
        self.env = env
        self.provider_name = provider_name
        self.store = store
        self.table = table

    @property
    def _provider(self):
        return self.env.provider(self.provider_name)

    # -- archiving ---------------------------------------------------------

    def plan_export(
        self,
        execution_id: str,
        archive_texts: dict[str, str],
        personal: PersonalSpec,
        engine_config: dict,
        result_entries: dict[str, bytes],
        datasets: list[str],
    ) -> ExportPlan:
        """Plan the export of a run whose archived ``personal.ini`` parses to
        ``personal``; any secret value left in it is a RedactionViolation."""
        if personal != personal.redacted():
            raise RedactionViolation("archived personal.ini holds unredacted secret values")
        config_key = f"executions/{execution_id}/Config.zip"
        result_key = f"executions/{execution_id}/Result.zip"
        objects = {
            config_key: deterministic_zip(
                {
                    "resources.ini": archive_texts["resources_ini"].encode(),
                    "application.ini": archive_texts["application_ini"].encode(),
                    "personal.ini": archive_texts["personal_ini"].encode(),
                    "engine.json": (indented_json(engine_config) + "\n").encode(),
                }
            ),
            result_key: deterministic_zip(result_entries),
        }
        new_inputs: dict[str, bytes] = {}
        existing: list[str] = []
        for uri in datasets:
            content = dataset_content(uri)
            address = content_address(content)
            if self._provider.storage_has(self.store, address):
                existing.append(address)
            elif address not in new_inputs:
                new_inputs[address] = content
        objects.update(sorted(new_inputs.items()))
        return ExportPlan(
            objects=objects,
            fields={
                "config_key": config_key,
                "result_key": result_key,
                "input_keys": sorted(new_inputs) + sorted(existing),
            },
        )

    def commit_export(self, execution_id: str, plan: ExportPlan, record: dict) -> dict:
        """Write the planned objects, then ``record`` with the fields that
        name them; returns the record as stored."""
        for key, data in plan.objects.items():
            self._provider.storage_put(self.store, key, data, execution_id)
        return self.put_record(execution_id, {**record, **plan.fields})

    def put_record(self, execution_id: str, record: dict) -> dict:
        """Write ``record`` as the execution's record, with its id and URL;
        returns the record as stored."""
        url = execution_url(self.provider_name, self.store, execution_id)
        self._provider.db_put(
            self.table, {**record, "execution_id": execution_id, "history_url": url}, execution_id
        )
        return self.get_record(execution_id)

    def get_record(self, execution_id: str) -> Optional[dict]:
        rows = self._provider.db_query(
            self.table, {"execution_id": execution_id}, execution_id
        )
        return rows[0] if rows else None

    # -- retrieval ---------------------------------------------------------

    def fetch(self, url: str) -> FetchedExecution:
        provider_name, store, execution_id = parse_url(url)
        if provider_name != self.provider_name or store != self.store:
            raise NotFound(f"{url!r} does not live in this store")
        # An unknown id is refused before the billed read, which would charge
        # whichever run draws that id later.
        if execution_id not in self._provider.tables.get(self.table, {}):
            raise NotFound(f"no execution record for {url!r}")
        record = self.get_record(execution_id)
        if record.get("history_url") != url:
            raise NotFound(f"no execution record for {url!r}")
        config, result = (
            read_zip(self._provider.storage_get(store, key, execution_id), f"{url}: archive {key!r}")
            if key and self._provider.storage_has(store, key) else None
            for key in (record.get("config_key"), record.get("result_key"))
        )
        return FetchedExecution(record=record, config=config, result=result)

    def query(self, filters: dict) -> list[dict]:
        """Equality filtering on record fields, ordered by submit time."""
        for key in filters:
            if key not in RECORD_FIELDS:
                raise UnknownField(
                    f"unknown query field {key!r}; queryable: {', '.join(RECORD_FIELDS)}"
                )
        rows = self._provider.db_query(self.table, dict(filters), "query")
        return sorted(
            rows,
            key=lambda r: (as_fraction(r.get("submitted_at", "0")), r.get("execution_id", "")),
        )
