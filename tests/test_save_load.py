"""Saving and reloading the environment between commands changes nothing a
command prints.

A Hypothesis state machine runs random command sequences (run, reproduce,
``history`` query and ``history --url``) on two environments: one kept in
memory, and one saved to a state file after every command and loaded from
it before the next.  Both must print the same key-sorted JSON, as the CLI
prints it: outcomes, records, query rows and fetched records.  After every
command, every run so far must measure the same on both.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

from cloudrerun.caam import generate_pipeline
from cloudrerun.config_model import DEFAULTS
from cloudrerun.errors import CloudRerunError
from cloudrerun.history import HistoryStore, find_record_table, parse_url
from cloudrerun.metrics import measure
from cloudrerun.reproducer import OverrideSet, reproduce
from cloudrerun.runtime import Orchestrator
from cloudrerun.simcloud.provider import PROVIDERS, SimCloud

from helpers import application_text, make_request, personal_text, resources_text

ENGINES = st.sampled_from(["none", "spark", "dask", "horovod"])
MODES = st.sampled_from(["serverless", "sdk"])
WINDOWS = st.sampled_from([Fraction(10), Fraction(7, 2)])
OVERRIDE_KINDS = st.sampled_from(["identical", "new-personal", "modified", "cross-cloud"])
FILTERS = st.dictionaries(
    st.sampled_from(["status", "engine", "mode"]),
    st.sampled_from(["Completed", "Failed", "dask", "spark", "serverless", "sdk"]),
    max_size=2,
)


def report(env: SimCloud, outcome) -> dict:
    """What ``run --json`` and ``reproduce --json`` print, and the record."""
    try:
        metrics = json.loads(measure(outcome, env.ledger).to_json())
    except CloudRerunError:
        metrics = None
    return {"outcome": json.loads(outcome.to_json()), "metrics": metrics, "record": outcome.record}


def overrides_for(url: str, kind: str) -> OverrideSet:
    provider = parse_url(url)[0]
    if kind == "identical":
        return OverrideSet(personal_text=personal_text(provider=provider))
    if kind == "new-personal":
        return OverrideSet(personal_text=personal_text(provider=provider, key_name="other-key"))
    if kind == "modified":
        return OverrideSet(
            personal_text=personal_text(provider=provider),
            resources_text=resources_text(engine="dask", provider=provider, nodes=2),
            application_text=application_text(datasets="s3://datasets/beta"),
        )
    other = next(p for p in PROVIDERS if p != provider)
    return OverrideSet(personal_text=personal_text(provider=provider), target_provider=other)


class SaveLoadIsInvisible(RuleBasedStateMachine):
    urls = Bundle("urls")

    def __init__(self):
        super().__init__()
        self.memory = SimCloud()
        self.directory = tempfile.TemporaryDirectory()
        self.state_file = Path(self.directory.name) / "simcloud.json"
        SimCloud().save_state(self.state_file)
        self.runs = []  # (in-memory outcome, saved-side outcome) of every run so far

    def teardown(self):
        self.directory.cleanup()

    def on_both(self, command):
        """Run ``command`` in memory and on the saved environment, saving it
        again after; both must print the same.  ``command(env)`` returns
        what it prints and the outcome of the run it made, if any."""
        saved = SimCloud.load_state(self.state_file)
        printed, outcomes = [], []
        for env in (self.memory, saved):
            try:
                payload, outcome = command(env)
            except CloudRerunError as exc:
                payload, outcome = f"error: {type(exc).__name__}: {exc}", None
            printed.append(json.dumps(payload, sort_keys=True, indent=2))
            outcomes.append(outcome)
        saved.save_state(self.state_file)
        assert printed[0] == printed[1]
        if outcomes[0] is None:
            return multiple()
        self.runs.append(tuple(outcomes))
        return multiple(outcomes[0].history_url) if outcomes[0].history_url else multiple()

    @rule(target=urls, engine=ENGINES, provider=st.sampled_from(PROVIDERS),
          nodes=st.integers(1, 3), mode=MODES, window=WINDOWS, history=st.booleans())
    def run(self, engine, provider, nodes, mode, window, history):
        def command(env):
            doc = generate_pipeline(make_request(engine=engine, provider=provider, nodes=nodes))
            outcome = Orchestrator(env).run(doc, mode, window, history)
            return report(env, outcome), outcome

        return self.on_both(command)

    @rule(target=urls, url=urls, kind=OVERRIDE_KINDS, mode=MODES, window=WINDOWS,
          history=st.booleans())
    def reproduce(self, url, kind, mode, window, history):
        def command(env):
            result = reproduce(env, url, overrides_for(url, kind), mode, window, history)
            payload = {"kind": result.reproduction_mode, **report(env, result.outcome)}
            return payload, result.outcome

        return self.on_both(command)

    @rule(filters=FILTERS, provider=st.sampled_from((None,) + PROVIDERS))
    def history_query(self, filters, provider):
        def command(env):
            rows = []
            for name in [provider] if provider else PROVIDERS:
                store = HistoryStore(
                    env, name, DEFAULTS["reproduce_storage"], DEFAULTS["reproduce_database"]
                )
                rows += store.query({**filters, **({"provider": provider} if provider else {})})
            return rows, None

        self.on_both(command)

    @rule(url=urls)
    def history_url(self, url):
        def command(env):
            provider, store, execution_id = parse_url(url)
            table = find_record_table(env, provider, execution_id) or DEFAULTS["reproduce_database"]
            fetched = HistoryStore(env, provider, store, table).fetch(url)
            return {
                "url": fetched.url,
                "record": fetched.record,
                "config_entries": sorted(fetched.config) if fetched.config else None,
                "result_entries": sorted(fetched.result) if fetched.result else None,
            }, None

        self.on_both(command)

    @invariant()
    def every_run_measures_the_same(self):
        saved = SimCloud.load_state(self.state_file)
        for in_memory, reloaded in self.runs:
            assert (
                measure(in_memory, self.memory.ledger).to_json()
                == measure(reloaded, saved.ledger).to_json()
            )


SaveLoadIsInvisible.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSaveLoadIsInvisible = SaveLoadIsInvisible.TestCase
