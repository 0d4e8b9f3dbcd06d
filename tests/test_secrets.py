"""Secret values never reach storage, wherever a request places them.

Each ``SECRET_KEY_MARKERS`` entry is used as a key in every section a user
can write.  Outside personal.ini the key is rejected at parse time; inside
it the run completes, is reproduced, and no stored object, table row or
saved state carries the value.
"""

import json

import pytest

from cloudrerun.caam import generate_pipeline
from cloudrerun.config_model import REDACTED, SECRET_KEY_MARKERS, parse_abstract_request
from cloudrerun.errors import MalformedValue
from cloudrerun.history import HistoryStore
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import ExecutionState, Orchestrator
from cloudrerun.simcloud.provider import SimCloud

from helpers import application_text, personal_text, resources_text

SEED = "Seeded-Value-7f3a"


def _under(section: str):
    """Place ``key = SEED`` right under an existing ``[section]`` header."""
    return lambda text, key: text.replace(f"[{section}]\n", f"[{section}]\n{key} = {SEED}\n", 1)


def _in_new_section(text: str, key: str) -> str:
    return f"{text}\n[extra]\n{key} = {SEED}\n"


# spot -> (file placed in, how to place the key)
REJECTED = {
    "[resources]": ("resources", _under("resources")),
    "[cloud.aws]": ("resources", _under("cloud.aws")),
    "resources.ini [extra]": ("resources", _in_new_section),
    "[application]": ("application", _under("application")),
}
KEPT = {
    "[personal]": _under("personal"),
    "personal.ini [extra]": _in_new_section,
}


def _texts():
    return {
        "resources": resources_text(engine="dask", nodes=2),
        "application": application_text(),
        "personal": personal_text(credentials="access_key:AKIAEXAMPLE"),
    }


@pytest.mark.parametrize("marker", SECRET_KEY_MARKERS)
@pytest.mark.parametrize("spot", sorted(REJECTED))
def test_secret_outside_personal_is_rejected(marker, spot):
    part, place = REJECTED[spot]
    texts = _texts()
    texts[part] = place(texts[part], marker)
    assert f"{marker} = {SEED}" in texts[part]
    with pytest.raises(MalformedValue, match=rf"^{part}\.ini: \[[^]]+\] {marker}: "):
        parse_abstract_request(texts["resources"], texts["application"], texts["personal"])


@pytest.mark.parametrize("marker", SECRET_KEY_MARKERS)
@pytest.mark.parametrize("spot", sorted(KEPT))
def test_secret_in_personal_never_reaches_storage(marker, spot, tmp_path):
    texts = _texts()
    personal = texts["personal"] = KEPT[spot](texts["personal"], marker)
    assert f"{marker} = {SEED}" in personal
    request = parse_abstract_request(texts["resources"], texts["application"], personal)
    env = SimCloud()
    outcome = Orchestrator(env).run_serverless(generate_pipeline(request))
    assert outcome.state is ExecutionState.COMPLETED
    result = reproduce(env, outcome.history_url, OverrideSet(personal_text=personal))
    assert result.outcome.state is ExecutionState.COMPLETED

    secrets = (SEED, "AKIAEXAMPLE")
    # Archives are stored uncompressed, so a byte scan sees inside them.
    for provider in env.providers.values():
        for store in provider.stores.values():
            for versions in store.values():
                for blob in versions:
                    assert not any(secret.encode() in blob for secret in secrets)
        rows = json.dumps(provider.tables)
        assert not any(secret in rows for secret in secrets)
    # the saved state file holds stored objects as raw bytes, and no hex copy of them either
    env.save_state(tmp_path / "simcloud.json")
    state = (tmp_path / "simcloud.json").read_bytes()
    assert not any(s in state for secret in secrets for s in (secret.encode(), secret.encode().hex().encode()))
    archived = HistoryStore(env, "aws", "execution-history", "execution-records").fetch(outcome.history_url)
    assert f"{marker} = {REDACTED}\n" in archived.config["personal.ini"].decode()
