"""One sha256 over the bytes cloudrerun must write alike on every interpreter.

It hashes, in order:

* the golden pipeline documents' JSON (``tests/golden/pipeline_*.json``);
* one run per cloud, engine and mode with history on: the outcome JSON,
  the ``measure()`` JSON and the ``Config.zip`` and ``Result.zip`` bytes;
* each state golden, loaded and saved again.

It imports only the standard library, the package and the test helpers,
so any CPython the package admits can run it without the test
dependencies::

    PYTHONPATH=src python tests/byte_digest.py

prints the digest as hex.
"""

from __future__ import annotations

import hashlib
import tempfile
from fractions import Fraction
from pathlib import Path

from cloudrerun.caam import generate_pipeline
from cloudrerun.metrics import measure
from cloudrerun.runtime import Orchestrator
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud

from helpers import make_request

GOLDEN = Path(__file__).parent / "golden"
STATE_GOLDENS = ("simcloud_state.json", "simcloud_state.v2", "simcloud_state.live.v2")
ENGINES = ("none", "dask", "horovod")  # the engines both clouds host
POLL_WINDOWS = {"serverless": None, "sdk": Fraction(10)}


def digest() -> str:
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
                outcome = Orchestrator(env).run(doc, mode, window)
                sha.update(outcome.to_json().encode())
                sha.update(measure(outcome, env.ledger).to_json().encode())
                objects = env.provider(provider).stores["execution-history"]
                for field in ("config_key", "result_key"):
                    sha.update(objects[outcome.record[field]][-1])
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "simcloud.json"
        for name in STATE_GOLDENS:
            SimCloud.load_state(GOLDEN / name).save_state(saved)
            sha.update(saved.read_bytes())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
