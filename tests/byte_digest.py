"""Two sha256 digests over the bytes cloudrerun must write alike on every
interpreter, kept apart so that a change of the state-file format cannot
hide a change of what a run outputs.

The outputs digest hashes, in order:

* the golden pipeline documents' JSON (``tests/golden/pipeline_*.json``);
* one run per cloud, engine and mode with history on, and per cloud a run
  ending Failed, a run without history and an identical reproduction,
  then that reproduction's ancestor, whose bill the fetch adds to: for
  each, the outcome JSON, the ``measure()`` JSON and, when it keeps
  history, its record and the ``Config.zip`` and ``Result.zip`` bytes.

The state digest hashes the state golden, loaded and saved again; the
appended digest, the state golden loaded, with one default run added, then
saved, which appends that run's parts to the loaded tail.

It imports only the standard library, the package and the test helpers,
so any CPython the package admits can run it without the test
dependencies.  Run as a script, it puts the checkout's ``src`` first on
``sys.path``::

    python tests/byte_digest.py

prints ``outputs <hex>``, ``state <hex>`` and ``appended <hex>``, one a line.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cloudrerun.caam import generate_pipeline
from cloudrerun.metrics import measure
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import Orchestrator
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud

from helpers import make_request, personal_text

GOLDEN = Path(__file__).parent / "golden"
STATE_GOLDENS = ("simcloud_state.live.v3",)
ENGINES = ("none", "dask", "horovod")  # the engines both clouds host
POLL_WINDOWS = {"serverless": None, "sdk": Fraction(10)}
FAILING_COMMAND = "analyze --serial-seconds 10 --parallel-seconds 100 --exit-code 1"


def _update(sha, env: SimCloud, outcome) -> None:
    """Hash one finished run: its outcome and ``measure()`` JSON and, when
    it keeps history, its record and the archives the record names."""
    sha.update(outcome.to_json().encode())
    sha.update(measure(outcome, env.ledger).to_json().encode())
    if outcome.record is None:
        return
    sha.update(json.dumps(outcome.record, sort_keys=True).encode())
    for field in ("config_key", "result_key"):
        if outcome.record[field] is not None:
            objects = env.provider(outcome.provider).stores["execution-history"]
            sha.update(objects[outcome.record[field]][-1])


def outputs_digest() -> str:
    sha = hashlib.sha256()
    for provider in PROVIDERS:
        golden = make_request(engine="dask", provider=provider, nodes=2,
                              credentials="access_key:AKIAEXAMPLE, secret_key:topsecret")
        sha.update(generate_pipeline(golden).to_json().encode())
    for provider in PROVIDERS:
        for engine in ENGINES:
            for mode, window in POLL_WINDOWS.items():
                env = SimCloud()
                doc = generate_pipeline(make_request(engine=engine, provider=provider, nodes=2))
                _update(sha, env, Orchestrator(env).run(doc, mode, window))
        env = SimCloud()
        failing = make_request(provider=provider, command=FAILING_COMMAND)
        _update(sha, env, Orchestrator(env).run(generate_pipeline(failing)))
        env = SimCloud()
        doc = generate_pipeline(make_request(provider=provider))
        _update(sha, env, Orchestrator(env).run(doc, record_history=False))
        env = SimCloud()
        ancestor = Orchestrator(env).run(doc)
        overrides = OverrideSet(personal_text=personal_text(provider=provider))
        _update(sha, env, reproduce(env, ancestor.history_url, overrides).outcome)
        _update(sha, env, ancestor)
    return sha.hexdigest()


def state_digest() -> str:
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "simcloud.json"
        for name in STATE_GOLDENS:
            SimCloud.load_state(GOLDEN / name).save_state(saved)
            sha.update(saved.read_bytes())
    return sha.hexdigest()


def appended_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "simcloud.json"
        env = SimCloud.load_state(GOLDEN / STATE_GOLDENS[0])
        Orchestrator(env).run(generate_pipeline(make_request()))
        env.save_state(saved)
        return hashlib.sha256(saved.read_bytes()).hexdigest()


def digests() -> dict[str, str]:
    return {"outputs": outputs_digest(), "state": state_digest(), "appended": appended_digest()}


if __name__ == "__main__":
    for name, value in digests().items():
        print(name, value)
