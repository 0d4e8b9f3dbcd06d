"""History archiving, URLs, bundles, queries, redaction."""

import io
import json
import tracemalloc
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudrerun.config_model import parse_personal
from cloudrerun.errors import (
    MalformedURL,
    NotFound,
    RedactionViolation,
    UnknownField,
)
from cloudrerun.history import (
    HistoryStore,
    content_address,
    dataset_content,
    deterministic_zip,
    execution_url,
    find_record_table,
    indented_json,
    parse_url,
    read_zip,
)
from cloudrerun.simcloud.provider import SimCloud

from helpers import make_request, run_serverless

from oracles import query_scan, zipfile_stored

GOLDEN = Path(__file__).parent / "golden"

# Any ASCII name; NUL is refused, since zipfile would cut the name there.
_zip_names = st.text(alphabet=st.characters(max_codepoint=127), max_size=12)
_payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda byte, size: byte * size, st.binary(min_size=1, max_size=1),
              st.integers(min_value=65_000, max_value=70_000)),
)
# What an archived JSON file, a report or a loaded row may hold: the engine
# configuration has a None port for engines other than horovod, and a
# report's approximations and t statistic are floats, infinite when the
# pooled variance is 0.  Text covers escapes and non-ASCII.
_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, float("inf"), float("-inf"), float("nan")])
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


class TestUrls:
    def test_format_and_parse(self):
        url = execution_url("aws", "execution-history", "aws-exec-0001")
        assert url == "rpac://aws/execution-history/aws-exec-0001"
        assert parse_url(url) == ("aws", "execution-history", "aws-exec-0001")

    @pytest.mark.parametrize(
        "bad",
        [
            "http://aws/store/id",
            "rpac:/aws/store/id",
            "rpac://aws/store",
            "rpac://aws/store/id/extra",
            "rpac://aws//id",
            "rpac://",
            "",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedURL):
            parse_url(bad)


class TestBundles:
    def test_zip_is_byte_stable(self):
        entries = {"b.txt": b"bravo", "a.txt": b"alpha"}
        assert deterministic_zip(entries) == deterministic_zip(dict(reversed(entries.items())))
        assert read_zip(deterministic_zip(entries)) == entries

    def test_zip_depends_only_on_content(self):
        a = deterministic_zip({"x": b"1"})
        b = deterministic_zip({"x": b"2"})
        assert a != b

    def test_golden_archives_are_written_again_byte_for_byte(self):
        """The bundles in the state golden, which ``zipfile`` wrote, are what
        the writer makes of their entries."""
        env = SimCloud.load_state(GOLDEN / "simcloud_state.live.v3")
        blobs = [
            env.tail.read(version)
            for provider in env.providers.values()
            for store in provider.stores.values()
            for key, versions in store.items()
            if key.endswith(".zip")
            for version in versions
        ]
        assert len(blobs) == 8
        for blob in blobs:
            assert deterministic_zip(read_zip(blob)) == blob

    @settings(max_examples=150, deadline=None)
    @given(entries=st.dictionaries(_zip_names, _payloads, max_size=5))
    def test_zip_is_what_zipfile_writes(self, entries):
        if any("\0" in name for name in entries):
            with pytest.raises(ValueError, match="not ASCII without NUL"):
                deterministic_zip(entries)
            return
        blob = deterministic_zip(entries)
        assert blob == zipfile_stored(entries)
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            assert zf.testzip() is None
        assert read_zip(blob) == entries

    def test_an_archive_this_code_never_wrote_is_refused_without_being_inflated(self):
        """A deflated 16 MiB entry is refused from its 16 KiB of bytes: the
        read allocates nothing near what the entry would inflate to."""
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("part-0000", bytes(16 << 20))
        blob = buffer.getvalue()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^Result\.zip is damaged: "):
                read_zip(blob, "Result.zip")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_prefix_and_an_appended_byte_are_refused(self):
        blob = deterministic_zip({"a.txt": b"alpha", "b.txt": b"bravo"})
        for damaged in [blob[:end] for end in range(len(blob))] + [blob + b"\0"]:
            with pytest.raises(ValueError, match="is damaged: "):
                read_zip(damaged)

    def test_non_ascii_name_is_refused(self):
        # zipfile would store it as UTF-8 and set flag bit 0x800
        with pytest.raises(ValueError, match="not ASCII without NUL"):
            deterministic_zip({"r\u00e9sum\u00e9.txt": b"x"})

    @settings(max_examples=300, deadline=None)
    @given(value=_json_values)
    @example(value={"t": [float("inf"), float("-inf"), float("nan")], "z": [-0.0, {"min": 5e-324, "e": 1e16}]})
    def test_indented_json_is_what_json_dumps_writes(self, value):
        assert indented_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "value", [(1, 2), Fraction(1, 3), ["a", ("b",)], {1: "one"}],
        ids=["tuple", "fraction", "nested-tuple", "int-key"],
    )
    def test_indented_json_refuses_any_other_type(self, value):
        with pytest.raises(TypeError):
            indented_json(value)

    def test_dataset_content_is_pure(self):
        assert dataset_content("s3://d/alpha") == dataset_content("s3://d/alpha")
        assert dataset_content("s3://d/alpha") != dataset_content("s3://d/beta")
        assert content_address(b"x").startswith("inputs/")


class TestArchive:
    def test_completed_run_is_fetchable(self):
        outcome, env = run_serverless(make_request(engine="dask", nodes=2))
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        fetched = store.fetch(outcome.history_url)
        assert fetched.record["status"] == "Completed"
        assert sorted(fetched.config) == [
            "application.ini",
            "engine.json",
            "personal.ini",
            "resources.ini",
        ]
        assert sorted(fetched.result) == ["manifest.json", "part-0000", "part-0001"]

    def test_a_changed_archive_byte_is_refused(self):
        """Each byte of a stored Config.zip and Result.zip changed in turn
        (XOR 0xFF): every fetch raises one ValueError naming the URL and the
        key, even where ``zipfile`` alone would read the bytes."""
        outcome, env = run_serverless(make_request(nodes=2))
        url = outcome.history_url
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        intact = store.fetch(url)
        versions = env.provider("aws").stores["execution-history"]
        for key in (intact.record["config_key"], intact.record["result_key"]):
            blob = versions[key][-1]
            for index in range(len(blob)):
                damaged = bytearray(blob)
                damaged[index] ^= 0xFF
                versions[key][-1] = bytes(damaged)
                with pytest.raises(ValueError) as info:
                    store.fetch(url)
                assert str(info.value).startswith(f"{url}: archive {key!r} is damaged: "), (key, index)
            versions[key][-1] = blob
        assert store.fetch(url) == intact

    def test_fetch_unknown_execution(self):
        env = SimCloud()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        with pytest.raises(NotFound):
            store.fetch("rpac://aws/execution-history/aws-exec-9999")
        assert env.ledger.request_counts == {}  # no read is billed to an unknown id

    def test_fetch_wrong_store(self):
        outcome, env = run_serverless(make_request())
        store = HistoryStore(env, "aws", "other-store", "execution-records")
        with pytest.raises(NotFound):
            store.fetch(outcome.history_url)

    def test_fetch_url_naming_another_store_than_its_record(self):
        outcome, env = run_serverless(make_request())
        other = outcome.history_url.replace("/execution-history/", "/other-store/")
        store = HistoryStore(env, "aws", "other-store", "execution-records")
        before = dict(env.ledger.request_counts)
        with pytest.raises(NotFound):
            store.fetch(other)
        # the record read is billed as before; no archive is read
        charged = {key: n - before.get(key, 0) for key, n in env.ledger.request_counts.items()}
        assert {key: n for key, n in charged.items() if n} == {(outcome.instance_id, "db_read"): 1}

    def test_writes_return_the_stored_record(self):
        env = SimCloud()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        stored = store.put_record("aws-exec-0001", {"status": "Running"})
        assert stored == {
            "status": "Running",
            "execution_id": "aws-exec-0001",
            "history_url": "rpac://aws/execution-history/aws-exec-0001",
        }
        assert store.put_record("aws-exec-0001", {**stored, "status": "Completed"}) == {
            **stored,
            "status": "Completed",
        }
        assert list(env.provider("aws").tables["execution-records"]) == ["aws-exec-0001"]

    def test_input_dedup_across_executions(self):
        from cloudrerun.caam import generate_pipeline
        from cloudrerun.runtime import Orchestrator

        env = SimCloud()
        orchestrator = Orchestrator(env)
        doc = generate_pipeline(make_request())
        first = orchestrator.run_serverless(doc)
        second = orchestrator.run_serverless(doc)
        address = first.record["input_keys"][0]
        assert address.startswith("inputs/")
        assert second.record["input_keys"] == first.record["input_keys"]
        # the shared dataset was stored exactly once
        assert len(env.provider("aws").stores["execution-history"][address]) == 1
        # and the second export therefore performed one fewer operation
        d1 = Fraction(first.record["stage_timings"]["Exporting"][1]) - Fraction(
            first.record["stage_timings"]["Exporting"][0]
        )
        d2 = Fraction(second.record["stage_timings"]["Exporting"][1]) - Fraction(
            second.record["stage_timings"]["Exporting"][0]
        )
        assert d1 - d2 == env.delays.history_op_s

    def test_redaction_guard_rejects_raw_credentials(self):
        env = SimCloud()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        # a raw credential, and a raw secret-looking unknown key
        for raw in ("cloud_credentials = secret_key:hunter2\n", "\n[extra]\napi_token = hunter2\n"):
            with pytest.raises(RedactionViolation):
                store.plan_export(
                    "exec-1",
                    {
                        "resources_ini": "[resources]\nbigdata_engine = none\n",
                        "application_ini": "[application]\ndocker_image = i\n",
                        "personal_ini": "[personal]\ncloud_provider = aws\n" + raw,
                    },
                    parse_personal("[personal]\ncloud_provider = aws\n" + raw),
                    {},
                    {},
                    [],
                )

    def test_find_record_table(self):
        outcome, env = run_serverless(
            make_request(store="execution-history", table="custom-records")
        )
        assert find_record_table(env, "aws", outcome.instance_id) == "custom-records"
        assert find_record_table(env, "aws", "nope") is None


class TestQuery:
    def seeded_env(self):
        from cloudrerun.caam import generate_pipeline
        from cloudrerun.runtime import Orchestrator

        env = SimCloud()
        orchestrator = Orchestrator(env)
        for engine, nodes in (("none", 1), ("dask", 2), ("spark", 1)):
            orchestrator.run_serverless(generate_pipeline(make_request(engine=engine, nodes=nodes)))
        bad = make_request(command="analyze --exit-code 2")
        orchestrator.run_serverless(generate_pipeline(bad))
        return env

    def test_equality_filters_match_linear_scan(self):
        env = self.seeded_env()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        rows = list(env.provider("aws").tables["execution-records"].values())
        for filters in (
            {},
            {"status": "Completed"},
            {"status": "Failed"},
            {"engine": "dask"},
            {"engine": "dask", "status": "Completed"},
            {"provider": "aws"},
            {"mode": "serverless"},
        ):
            assert store.query(filters) == query_scan(rows, filters)

    def test_results_ordered_by_submit_time(self):
        env = self.seeded_env()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        rows = store.query({})
        times = [Fraction(r["submitted_at"]) for r in rows]
        assert times == sorted(times)
        assert len(rows) == 4

    def test_unknown_field(self):
        env = self.seeded_env()
        store = HistoryStore(env, "aws", "execution-history", "execution-records")
        with pytest.raises(UnknownField):
            store.query({"flavour": "salty"})
