"""End-to-end command line tests driven through ``main(argv)``.

Each test gets its own state directory, so invocations chain the way real
shell sessions would: run, then query, then reproduce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import cloudrerun
from cloudrerun import cli
from cloudrerun.cli import (
    EXIT_EXECUTION_FAILED,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_PROVIDER_REJECTED,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    build_parser,
    main,
)
from cloudrerun.config_model import DEFAULTS
from cloudrerun.simcloud.provider import SimCloud

from helpers import application_text, fetch_bundles, personal_text, resources_text

FAILING_COMMAND = "analyze --serial-seconds 1 --parallel-seconds 1 --exit-code 3"


def write_files(tmp_path: Path, *, resources=None, application=None, personal=None):
    paths = {
        "resources": tmp_path / "resources.ini",
        "application": tmp_path / "application.ini",
        "personal": tmp_path / "personal.ini",
    }
    paths["resources"].write_text(resources if resources is not None else resources_text())
    paths["application"].write_text(
        application if application is not None else application_text()
    )
    paths["personal"].write_text(personal if personal is not None else personal_text())
    return paths


def run_args(paths, state: Path, *extra: str) -> list[str]:
    return [
        "run",
        "--resources",
        str(paths["resources"]),
        "--application",
        str(paths["application"]),
        "--personal",
        str(paths["personal"]),
        "--state-dir",
        str(state),
        *extra,
    ]


def history_url_from(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("history"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no history line in output:\n{stdout}")


def child_env() -> dict:
    """The environment of a child ``python -m cloudrerun.cli``: it imports the
    same package whether or not PYTHONPATH was exported."""
    src = str(Path(cloudrerun.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_run_requires_config_paths(self):
        with pytest.raises(SystemExit) as info:
            main(["run"])
        assert info.value.code == 2

    def test_one_parser_serves_every_call_and_keeps_no_arguments(self, tmp_path, capsys):
        """The parser is built once per process, and a ``--where`` given to
        one call does not filter the next."""
        state = tmp_path / "state"
        assert main(run_args(write_files(tmp_path), state)) == EXIT_OK
        (tmp_path / "failing").mkdir()
        failing = write_files(tmp_path / "failing", application=application_text(command=FAILING_COMMAND))
        assert main(run_args(failing, state)) == EXIT_EXECUTION_FAILED
        capsys.readouterr()
        history = ["history", "--state-dir", str(state), "--json"]
        assert main([*history, "--where", "status=Completed"]) == EXIT_OK
        assert [row["status"] for row in json.loads(capsys.readouterr().out)] == ["Completed"]
        assert main(history) == EXIT_OK
        assert [row["status"] for row in json.loads(capsys.readouterr().out)] == ["Completed", "Failed"]
        assert build_parser() is build_parser()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cloudrerun.cli", "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        for name in ("run", "reproduce", "history", "bench"):
            assert name in proc.stdout


class TestRun:
    def test_serverless_run_succeeds(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        assert main(run_args(paths, state)) == EXIT_OK
        out = capsys.readouterr().out
        assert "state     : Completed" in out
        assert "history   : rpac://aws/" in out
        assert (state / "simcloud.json").exists()

    def test_json_output_carries_metrics(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        assert main(run_args(paths, tmp_path / "state", "--json")) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["state"] == "Completed"
        assert report["mode"] == "serverless"
        metrics = report["metrics"]
        assert metrics["m3_ppr"]["approx"] > 0
        assert Fraction(metrics["m1_hours"]["exact"]) > 0

    def test_a_value_no_float_can_hold_is_reported_as_inf_and_null(self, tmp_path, capsys):
        """A run whose exact metrics exceed every float completes and reports:
        text prints their approximation as ``inf``, and ``--json`` writes it
        as null beside the exact text, in JSON that holds no non-JSON token."""
        paths = write_files(tmp_path, application=application_text(
            command="analyze --serial-seconds 1e3000 --parallel-seconds 1 --seed 1"))
        assert main(run_args(paths, tmp_path / "text")) == EXIT_OK
        out = capsys.readouterr().out
        assert "state     : Completed" in out and "duration  : infs" in out
        for line in ("m1        : inf h", "m2        : inf $", "m3        : inf h*$"):
            assert line in out

        def refuse(token):
            raise AssertionError(f"non-JSON token {token}")

        assert main(run_args(paths, tmp_path / "json", "--json")) == EXIT_OK
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        metrics = report["metrics"]
        assert report["state"] == "Completed"
        assert [metrics[name]["approx"] for name in ("m1_hours", "m2_cost", "m3_ppr")] == [None] * 3
        # m3's terms hold more digits than ``Fraction(text)`` may read.
        numerator, _, denominator = metrics["m3_ppr"]["exact"].partition("/")
        m3 = Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))
        assert m3 == Fraction(metrics["m1_hours"]["exact"]) * Fraction(metrics["m2_cost"]["exact"])

    def test_sdk_mode(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        code = main(run_args(paths, tmp_path / "state", "--mode", "sdk", "--poll-window", "5"))
        assert code == EXIT_OK
        assert "mode      : sdk" in capsys.readouterr().out

    def test_no_history_leaves_archive_empty(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        assert main(run_args(paths, state, "--no-history")) == EXIT_OK
        assert "history   :" not in capsys.readouterr().out
        assert main(["history", "--state-dir", str(state)]) == EXIT_OK
        assert "no matching executions" in capsys.readouterr().out

    def test_out_dir_reports(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        out_dir = tmp_path / "reports"
        assert main(run_args(paths, tmp_path / "state", "--out-dir", str(out_dir))) == EXIT_OK
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["aws-exec-0001-metrics.json", "aws-exec-0001-outcome.json"]
        for path in out_dir.iterdir():
            json.loads(path.read_text())

    def test_state_dir_environment_variable(self, tmp_path, capsys, monkeypatch):
        paths = write_files(tmp_path)
        state = tmp_path / "via-env"
        monkeypatch.setenv("CLOUDRERUN_STATE_DIR", str(state))
        argv = run_args(paths, state)
        argv.remove("--state-dir")
        argv.remove(str(state))
        assert main(argv) == EXIT_OK
        assert (state / "simcloud.json").exists()

    def test_failed_execution_maps_to_exit_one(self, tmp_path, capsys):
        paths = write_files(tmp_path, application=application_text(command=FAILING_COMMAND))
        code = main(run_args(paths, tmp_path / "state"))
        assert code == EXIT_EXECUTION_FAILED
        out = capsys.readouterr().out
        assert "state     : Failed" in out
        assert "failure   :" in out

    def test_every_save_holds_no_live_resource_and_no_open_entry(self, tmp_path, capsys):
        """The CLI saves only after a run has returned, so each saved index
        holds no live cluster or network on either cloud and no open ledger
        entry, whatever the mode, outcome or history setting."""
        paths = write_files(tmp_path)
        (tmp_path / "failing").mkdir()
        failing = write_files(tmp_path / "failing", application=application_text(command=FAILING_COMMAND))
        state = tmp_path / "state"

        def assert_saved_index_holds_nothing_live():
            index = json.loads((state / "simcloud.json").read_bytes().split(b"\n")[1])["state"]
            assert sorted(index["providers"]) == ["aws", "azure"]
            for provider in index["providers"].values():
                assert (provider["clusters"], provider["networks"]) == ([], [])
            assert index["ledger"]["open"] == []

        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        assert_saved_index_holds_nothing_live()
        for argv, code in [
            (run_args(paths, state, "--mode", "sdk", "--poll-window", "5"), EXIT_OK),
            (run_args(failing, state), EXIT_EXECUTION_FAILED),
            (run_args(paths, state, "--no-history"), EXIT_OK),
            (["reproduce", url, "--personal", str(paths["personal"]), "--state-dir", str(state)], EXIT_OK),
        ]:
            saved = (state / "simcloud.json").read_bytes()
            assert main(argv) == code
            assert (state / "simcloud.json").read_bytes() != saved
            assert_saved_index_holds_nothing_live()
        assert "kind      : identical" in capsys.readouterr().out

    def test_concurrent_runs_on_one_state_directory(self, tmp_path, capsys):
        """Six processes run at once on one directory: the lock makes each
        load see the previous save, so no record or execution id is lost."""
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        for _ in range(30):  # a larger state file widens the load-to-save window
            assert main(run_args(paths, state)) == EXIT_OK
        capsys.readouterr()
        argv = [sys.executable, "-m", "cloudrerun.cli", *run_args(paths, state, "--json")]
        children = [
            subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
            for _ in range(6)
        ]
        outputs = [child.communicate(timeout=120) for child in children]
        assert [child.returncode for child in children] == [EXIT_OK] * 6, outputs
        ids = {json.loads(out)["instance_id"] for out, _ in outputs}
        assert len(ids) == 6
        assert main(["history", "--state-dir", str(state), "--json"]) == EXIT_OK
        recorded = [row["execution_id"] for row in json.loads(capsys.readouterr().out)]
        assert len(recorded) == len(set(recorded)) == 36
        assert ids <= set(recorded)

    def test_a_save_removes_the_temp_files_crashed_saves_left(self, tmp_path, capsys):
        """A save that crashes before its rename leaves its full-size temp
        file; ``history`` saves nothing and leaves them, the next ``run``
        removes them, and a file of another name stays."""
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_OK
        data = (state / "simcloud.json").read_bytes()
        planted = {
            ".simcloud.json.0123456789abcdef.tmp": data,
            ".simcloud.json.fedcba9876543210.tmp": data[:100],
            ".other.tmp": b"kept",
        }
        for name, content in planted.items():
            (state / name).write_bytes(content)
        assert main(["history", "--state-dir", str(state)]) == EXIT_OK
        assert {name: (state / name).read_bytes() for name in planted} == planted
        assert main(run_args(paths, state)) == EXIT_OK
        assert sorted(os.listdir(state)) == [".other.tmp", "simcloud.json", "simcloud.lock"]
        assert (state / ".other.tmp").read_bytes() == b"kept"


class TestHistoryCommand:
    def test_run_query_fetch_reproduce_chain(self, tmp_path, capsys):
        paths = write_files(
            tmp_path,
            resources=resources_text(engine="dask", nodes=2),
            personal=personal_text(credentials="access_key:AKIAEXAMPLE, secret_key:topsecret"),
        )
        state = tmp_path / "state"

        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)

        assert main(["history", "--state-dir", str(state)]) == EXIT_OK
        table = capsys.readouterr().out
        assert "aws-exec-0001" in table
        assert url in table

        assert main(["history", "--state-dir", str(state), "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["provider"] == "aws"
        assert rows[0]["engine"] == "dask"
        assert rows[0]["status"] == "Completed"

        assert main(["history", "--url", url, "--state-dir", str(state)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["url"] == url
        assert payload["config_entries"] == [
            "application.ini",
            "engine.json",
            "personal.ini",
            "resources.ini",
        ]
        assert any(name.startswith("part-") for name in payload["result_entries"])

        code = main(
            [
                "reproduce",
                url,
                "--personal",
                str(paths["personal"]),
                "--state-dir",
                str(state),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"ancestor  : {url}" in out
        assert "kind      : identical" in out

        assert main(["history", "--state-dir", str(state), "--json"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)) == 2

    def test_where_filter_selects_matching_rows(self, tmp_path, capsys):
        state = tmp_path / "state"
        first = write_files(tmp_path)
        assert main(run_args(first, state)) == EXIT_OK
        (tmp_path / "second").mkdir()
        second = write_files(
            tmp_path / "second", resources=resources_text(engine="dask", nodes=2)
        )
        assert main(run_args(second, state)) == EXIT_OK
        capsys.readouterr()

        code = main(["history", "--state-dir", str(state), "--where", "engine=dask", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [row["engine"] for row in rows] == ["dask"]

    def test_provider_flag_and_where_provider_both_filter(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(run_args(write_files(tmp_path), state)) == EXIT_OK
        capsys.readouterr()
        history = ["history", "--state-dir", str(state), "--provider", "aws", "--json", "--where"]
        assert main([*history, "provider=aws"]) == EXIT_OK
        assert [row["provider"] for row in json.loads(capsys.readouterr().out)] == ["aws"]
        # contradictory filters match nothing
        assert main([*history, "provider=azure"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == []

    def test_where_requires_field_equals_value(self, tmp_path, capsys):
        code = main(["history", "--state-dir", str(tmp_path / "s"), "--where", "engine"])
        assert code == EXIT_USAGE
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_where_unknown_field_is_usage_error(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        assert main(run_args(paths, state)) == EXIT_OK
        capsys.readouterr()
        code = main(["history", "--state-dir", str(state), "--where", "flavor=spicy"])
        assert code == EXIT_USAGE

    def test_fetch_unknown_execution(self, tmp_path, capsys):
        code = main(
            [
                "history",
                "--url",
                "rpac://aws/execution-history/aws-exec-9999",
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_NOT_FOUND
        assert "error:" in capsys.readouterr().err

    def test_table_flag_does_not_change_a_url_fetch(self, tmp_path, capsys):
        # A URL fetch reads the table that holds the id; an id no table holds
        # is refused the same way whatever --table names.
        state = tmp_path / "state"
        paths = write_files(tmp_path, resources=resources_text(table="team-records"))
        assert main(run_args(paths, state)) == EXIT_OK
        capsys.readouterr()
        fetch = ["history", "--url", "rpac://aws/execution-history/aws-exec-9999", "--state-dir", str(state)]
        assert main(fetch) == EXIT_NOT_FOUND
        without = capsys.readouterr()
        assert main([*fetch, "--table", "team-records"]) == EXIT_NOT_FOUND
        assert capsys.readouterr() == without
        assert "no execution record for" in without.err

    def test_fetch_url_naming_another_store(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        other = url.replace("/execution-history/", "/other-store/")
        code = main(["history", "--url", other, "--state-dir", str(state)])
        assert code == EXIT_NOT_FOUND
        captured = capsys.readouterr()
        assert captured.out == ""
        assert other in captured.err

    def test_fetch_url_naming_an_unsimulated_provider(self, tmp_path, capsys):
        url = "rpac://gcloud/execution-history/x"
        code = main(["history", "--url", url, "--state-dir", str(tmp_path / "s")])
        assert code == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no simulated provider 'gcloud'\n"

    def test_fetch_malformed_url(self, tmp_path, capsys):
        code = main(
            ["history", "--url", "https://aws/x/y", "--state-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_NOT_FOUND

    def test_empty_history(self, tmp_path, capsys):
        assert main(["history", "--state-dir", str(tmp_path / "s")]) == EXIT_OK
        assert "no matching executions" in capsys.readouterr().out


def dumped(text: str) -> str:
    """What ``json.dumps(v, sort_keys=True, indent=2)`` writes of the value
    ``text`` holds, with the newline that ends a printed or written report."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestIndentedJsonBytes:
    """Every indented JSON text the CLI prints or writes is what
    ``json.dumps(v, sort_keys=True, indent=2)`` writes of its value."""

    def test_run_reproduce_and_history_output_and_reports(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state, out_dir = tmp_path / "state", tmp_path / "reports"
        assert main(run_args(paths, state, "--json", "--out-dir", str(out_dir))) == EXIT_OK
        out = capsys.readouterr().out
        assert out == dumped(out)
        url = json.loads(out)["history_url"]
        for argv in (
            ["reproduce", url, "--personal", str(paths["personal"]), "--json", "--out-dir", str(out_dir)],
            ["history", "--json"],
            ["history", "--url", url],
        ):
            assert main([*argv, "--state-dir", str(state)]) == EXIT_OK
            out = capsys.readouterr().out
            assert out == dumped(out)
        reports = sorted(out_dir.iterdir())
        assert [path.name for path in reports] == [
            "aws-exec-0001-metrics.json", "aws-exec-0001-outcome.json",
            "aws-exec-0002-metrics.json", "aws-exec-0002-outcome.json",
        ]
        for path in reports:
            text = path.read_text()
            assert text == dumped(text)

    def test_bench_output_and_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "bench-out"
        argv = ["bench", "--suite", "all", "--levels", "1,2", "--repeats", "2", "--json"]
        assert main([*argv, "--out-dir", str(out_dir), "--state-dir", str(tmp_path / "s")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == dumped(out)
        payload = json.loads(out)
        text = (out_dir / "efficiency.json").read_text()
        assert text == dumped(text)
        assert json.loads(text) == payload["efficiency"]
        for suite in ("scale_up", "scale_out"):
            rows = payload[suite]
            assert (out_dir / f"{suite}.jsonl").read_text() == "".join(
                json.dumps(row, sort_keys=True) + "\n" for row in rows
            )

    def test_history_prints_a_loaded_row_that_holds_floats(self, tmp_path, capsys):
        # A table row may hold any JSON value; one loaded from a state file
        # holds floats as json.loads reads them.
        row = {"execution_id": "aws-exec-0001", "provider": "aws", "score": 0.1, "t": float("inf"), "tiny": 5e-324}
        env = SimCloud()
        env.provider("aws").db_put(DEFAULTS["reproduce_database"], row, "seed")
        state = tmp_path / "state"
        state.mkdir()
        env.save_state(state / "simcloud.json")
        assert main(["history", "--state-dir", str(state), "--json"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == dumped(out)
        assert json.loads(out) == [row]


class TestReproduceCommand:
    def test_unregistered_target_rejected_before_fetch(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        code = main(
            [
                "reproduce",
                "rpac://aws/execution-history/aws-exec-0001",
                "--personal",
                str(paths["personal"]),
                "--target-provider",
                "gcloud",
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_UNSUPPORTED

    def test_reproduce_reads_credential_variables_as_run_does(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLOUDRERUN_CREDENTIAL_ACCESS_KEY", "AKIAFROMENV")
        paths = write_files(tmp_path)
        state = tmp_path / "state"
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        code = main(["reproduce", url, "--personal", str(paths["personal"]), "--state-dir", str(state)])
        assert code == EXIT_OK
        reproduction = history_url_from(capsys.readouterr().out)
        env = SimCloud.load_state(state / "simcloud.json")
        for archived in (url, reproduction):
            personal = fetch_bundles(env, archived).config["personal.ini"].decode()
            assert "cloud_credentials = access_key:<redacted>\n" in personal
        assert b"AKIAFROMENV" not in (state / "simcloud.json").read_bytes()

    def test_missing_ancestor(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        code = main(
            [
                "reproduce",
                "rpac://aws/execution-history/aws-exec-0042",
                "--personal",
                str(paths["personal"]),
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_NOT_FOUND

    def test_cross_cloud_reproduction(self, tmp_path, capsys):
        state = tmp_path / "state"
        paths = write_files(tmp_path, resources=resources_text(engine="dask", nodes=2))
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)

        azure_personal = tmp_path / "personal-azure.ini"
        azure_personal.write_text(personal_text(provider="azure"))
        code = main(
            [
                "reproduce",
                url,
                "--personal",
                str(azure_personal),
                "--target-provider",
                "azure",
                "--state-dir",
                str(state),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "kind      : cross-cloud" in out
        assert "provider  : azure" in out

        code = main(["history", "--state-dir", str(state), "--provider", "azure", "--json"])
        assert code == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["provider"] == "azure"


class TestErrorExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        paths["resources"].unlink()
        assert main(run_args(paths, tmp_path / "s")) == EXIT_USAGE

    def test_invalid_config_content(self, tmp_path, capsys):
        secret = resources_text().replace("[resources]\n", "[resources]\naws_secret_access_key = X9\n")
        cases = [
            ({"application": "[application]\ncommand = analyze\n"}, "docker_image"),
            ({"resources": secret}, "resources.ini: [resources] aws_secret_access_key"),
        ]
        for files, message in cases:
            state = tmp_path / "s"
            assert main(run_args(write_files(tmp_path, **files), state)) == EXIT_USAGE
            assert message in capsys.readouterr().err
            assert not (state / "simcloud.json").exists()

    @pytest.mark.parametrize(
        "flag",
        [
            "--parallelism 0",
            "--seed x",
            "--serial-seconds 1/0",
            "--serial-seconds -1",
            "--parallel-seconds -1/2",
            "--comm-seconds -1",
        ],
    )
    def test_bad_workload_flag_is_usage_error(self, tmp_path, capsys, flag):
        paths = write_files(tmp_path, application=application_text(command=f"analyze {flag}"))
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: application.ini: [application] command: {flag.split()[0]}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (state / "simcloud.json").exists()

    def test_bad_poll_window_literal(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        for literal in ("soon", "1/0", "0"):
            window = ("--poll-window", literal)
            # run, reproduce and bench read the window in either mode
            commands = [
                run_args(paths, state, "--mode", "sdk", *window),
                run_args(paths, state, *window),
                ["reproduce", url, "--personal", str(paths["personal"]), "--state-dir", str(state), *window],
                ["bench", "--suite", "efficiency", "--repeats", "2", "--state-dir", str(state), *window],
            ]
            for argv in commands:
                assert main(argv) == EXIT_USAGE, argv
                captured = capsys.readouterr()
                assert captured.err.startswith("error: "), argv
                assert captured.out == "", argv

    @pytest.mark.parametrize("text", ["1e4300", "12e4299", "1e-4300"])
    def test_a_value_of_more_digits_than_an_int_may_write_is_refused_before_any_run(self, tmp_path, capsys, text):
        """Its exponent is within the int-digit limit, but its numerator or
        denominator is not, so the clock could not be saved after the run."""
        paths = write_files(tmp_path, application=application_text(command=f"analyze --serial-seconds {text}"))
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: application.ini: [application] command: --serial-seconds: expected a rational number, got {text!r}\n")
        assert captured.out == ""
        assert not state.exists()

    def test_an_exponent_beyond_the_int_digit_limit_is_refused_before_the_lock(self, tmp_path, capsys):
        # ``Fraction`` would build the 100,001-digit numerator of 1e100000 and
        # the run would go on; each reader refuses it before the state directory.
        bomb = "1e100000"
        (tmp_path / "bad").mkdir()
        bad = write_files(tmp_path / "bad", application=application_text(command=f"analyze --serial-seconds {bomb}"))
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        window = ("--poll-window", bomb)
        commands = {
            "--serial-seconds": run_args(bad, state),
            "--poll-window": run_args(paths, state, "--mode", "sdk", *window),
            "reproduce": ["reproduce", "rpac://aws/store/aws-exec-0001", "--personal", str(paths["personal"]),
                          "--state-dir", str(state), *window],
            "bench": ["bench", "--suite", "efficiency", "--repeats", "2", "--state-dir", str(state), *window],
        }
        for name, argv in commands.items():
            assert main(argv) == EXIT_USAGE, name
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1, name
            if name == "--serial-seconds":
                assert captured.err.startswith("error: application.ini: [application] command: --serial-seconds")
            else:
                assert captured.err == f"error: poll window must be a positive rational, got {bomb!r}\n", name
            assert not state.exists(), name

    def test_malformed_state_file_is_usage_error(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_OK
        capsys.readouterr()
        state_file = state / "simcloud.json"
        data = state_file.read_bytes()
        magic, line, tail = data.split(b"\n", 2)
        assert json.loads(line)["tail_bytes"] == len(tail) > 1

        def saved(edit):
            """The saved file with ``edit`` applied to its parsed state."""
            index = json.loads(line)
            edit(index["state"])
            return magic + b"\n" + json.dumps(index, separators=(",", ":")).encode() + b"\n" + tail

        def with_reference(ref):
            """The saved file with the first version of every aws key replaced by ``ref``."""

            def edit(state_doc):
                for keys in state_doc["providers"]["aws"]["stores"].values():
                    for versions in keys.values():
                        versions[0] = ref

            return saved(edit)

        def with_part_reference(part, ref):
            """The saved file with the reference of every aws row, or of every bill, replaced by ``ref``."""

            def edit(state_doc):
                pairs = [pair for rows in state_doc["providers"]["aws"]["tables"].values() for pair in rows]
                for pair in pairs if part == "row" else state_doc["ledger"]["bills"]:
                    pair[1] = ref

            return saved(edit)

        # a well-formed legacy document and ``cloudrerun-state/2`` file, each of one closed ledger entry
        older = {
            "clock": "109",
            "event_counter": 0,
            "providers": {},
            "ledger": {
                "entries": [{
                    "resource_id": "aws-net-0001",
                    "category": "network",
                    "unit_price_hour": "1/100",
                    "open_time": "0",
                    "close_time": "109",
                    "scope": "aws-exec-0001",
                }],
                "request_counts": [{"scope": "aws-exec-0001", "operation": "db_write", "count": 1}],
            },
        }
        older_layouts = [
            json.dumps(older).encode(),
            b"cloudrerun-state/2\n" + json.dumps({"state": older, "tail_bytes": 0}).encode() + b"\n",
        ]
        counter_cases = [
            saved(lambda state_doc: state_doc.update(event_counter="33")),
            saved(lambda state_doc: state_doc.update(event_counter=-1)),
            saved(lambda state_doc: state_doc["providers"]["aws"]["counters"].update(exec="1")),
            saved(lambda state_doc: state_doc["providers"]["aws"]["counters"].update(exec=True)),
        ]
        cases = [
            b"{}",
            b"[]",
            data[:200],
            saved(lambda state_doc: state_doc.update(clock="x")),
            saved(lambda state_doc: state_doc.update(clock="-1")),
            # counters that are not non-negative ints
            *counter_cases,
            # the tail is shorter or longer than the index records
            data[:-1],
            data + b"\0",
            # a reference that is not two non-negative ints
            with_reference([-1, 1]),
            with_reference([0, -1]),
            with_reference([0]),
            with_reference([0, 1, 2]),
            with_reference([0, "1"]),
            with_reference([True, 1]),
            with_reference([0.0, 1]),
            with_reference("00"),
            # a reference that runs past the tail
            with_reference([0, len(tail) + 1]),
            with_reference([len(tail), 1]),
            # rows and bills are referenced as stored versions are
            *(with_part_reference(part, ref) for part in ("row", "bill")
              for ref in ([-1, 1], [0], "00", [0, len(tail) + 1])),
            # a layout before cloudrerun-state/3
            *older_layouts,
        ]
        for content in cases:
            state_file.write_bytes(content)
            assert main(["history", "--state-dir", str(state)]) == EXIT_USAGE, content[:40]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"{state_file}: malformed state file" in err
            assert state_file.read_bytes() == content
        # a run on such a file is refused the same way, before anything runs
        for content in counter_cases + older_layouts:
            state_file.write_bytes(content)
            assert main(run_args(paths, state)) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
            assert f"{state_file}: malformed state file" in captured.err and captured.out == ""
            assert state_file.read_bytes() == content
            assert sorted(os.listdir(state)) == ["simcloud.json", "simcloud.lock"]
        # references that end exactly at the end of the tail are in range
        for content in (data, with_reference([0, len(tail)]), with_reference([len(tail), 0])):
            state_file.write_bytes(content)
            assert main(["history", "--state-dir", str(state)]) == EXIT_OK

    def test_a_damaged_archive_is_refused_and_the_state_file_kept(self, tmp_path, capsys):
        """A changed byte in a stored Config.zip, in the end record's
        signature or in its central directory offset, makes ``history --url``
        and ``reproduce`` exit 2 with one error line naming the URL and key."""
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        state_file = state / "simcloud.json"
        data = state_file.read_bytes()
        env = SimCloud.load_state(state_file)
        key = fetch_bundles(env, url).record["config_key"]
        blob = env.tail.read(env.provider("aws").stores["execution-history"][key][-1])
        start = data.index(blob)
        for offset in (len(blob) - 22, len(blob) - 6):
            damaged = bytearray(data)
            damaged[start + offset] ^= 0xFF
            state_file.write_bytes(damaged)
            for argv in (["history", "--url", url], ["reproduce", url, "--personal", str(paths["personal"])]):
                assert main([*argv, "--state-dir", str(state)]) == EXIT_USAGE
                captured = capsys.readouterr()
                assert captured.err.startswith(f"error: {url}: archive {key!r} is damaged: "), captured.err
                assert captured.err.count("\n") == 1 and captured.out == ""
                assert state_file.read_bytes() == damaged

    @pytest.mark.parametrize("extra", [(), ("--no-history",)], ids=["row", "bill"])
    def test_a_lowered_id_counter_overwrites_no_run(self, tmp_path, capsys, extra):
        """An execution id that a table row, or only a bill, already holds
        is refused: the run exits 2 and the state file is kept."""
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        for _ in range(2):
            assert main(run_args(paths, state, *extra)) == EXIT_OK
        history = ["history", "--state-dir", str(state)]
        capsys.readouterr()
        assert main(history) == EXIT_OK
        listing = capsys.readouterr().out
        state_file = state / "simcloud.json"
        magic, line, tail = state_file.read_bytes().split(b"\n", 2)
        index = json.loads(line)
        assert index["state"]["providers"]["aws"]["counters"]["exec"] == 2
        index["state"]["providers"]["aws"]["counters"]["exec"] = 1
        lowered = magic + b"\n" + json.dumps(index, separators=(",", ":")).encode() + b"\n" + tail
        state_file.write_bytes(lowered)
        assert main(run_args(paths, state, *extra)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: aws counter 'exec' is at 1, but 'aws-exec-0002' is already taken\n"
        assert captured.out == ""
        assert state_file.read_bytes() == lowered
        assert main(history) == EXIT_OK
        assert capsys.readouterr().out == listing

    def test_an_error_no_exit_code_maps_escapes(self, tmp_path, monkeypatch, capsys):
        """An error of a kind that no exit code names is not reported as one."""

        def broken(args):
            raise LookupError(f"broken {args.command}")

        monkeypatch.setitem(cli._COMMANDS, "history", broken)
        with pytest.raises(LookupError, match="broken history"):
            main(["history", "--state-dir", str(tmp_path / "s")])
        assert capsys.readouterr().err == ""

    def test_nonpositive_poll_window(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        code = main(run_args(paths, tmp_path / "s", "--mode", "sdk", "--poll-window", "0"))
        assert code == EXIT_USAGE

    def test_empty_block_values_are_usage_errors(self, tmp_path, capsys):
        resources = resources_text(store="").replace("region = us-west-2", "region =")
        paths = write_files(tmp_path, resources=resources)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "cloud.aws.region: must be non-empty" in captured.err
        assert "history" not in captured.out
        assert not (state / "simcloud.json").exists()

    def test_provider_without_resource_block_is_usage_error(self, tmp_path, capsys):
        # an aws resources block cannot serve a gcloud personal profile
        paths = write_files(tmp_path, personal=personal_text(provider="gcloud"))
        assert main(run_args(paths, tmp_path / "s")) == EXIT_USAGE

    def test_unregistered_provider(self, tmp_path, capsys, monkeypatch):
        from cloudrerun import caam

        paths = write_files(
            tmp_path,
            resources=resources_text(provider="azure"),
            personal=personal_text(provider="azure"),
        )
        monkeypatch.delitem(caam._ADAPTERS, "azure")
        assert main(run_args(paths, tmp_path / "s")) == EXIT_UNSUPPORTED

    def test_engine_not_hosted_on_provider(self, tmp_path, capsys):
        paths = write_files(
            tmp_path,
            resources=resources_text(engine="spark", provider="azure", nodes=2),
            personal=personal_text(provider="azure"),
        )
        assert main(run_args(paths, tmp_path / "s")) == EXIT_UNSUPPORTED

    def test_unknown_instance_type(self, tmp_path, capsys):
        paths = write_files(tmp_path, resources=resources_text(instance_type="z9.mega"))
        assert main(run_args(paths, tmp_path / "s")) == EXIT_PROVIDER_REJECTED

    def test_quota_exceeded(self, tmp_path, capsys):
        paths = write_files(tmp_path, resources=resources_text(engine="dask", nodes=100))
        assert main(run_args(paths, tmp_path / "s")) == EXIT_PROVIDER_REJECTED

    def test_bench_rejects_bad_levels(self, tmp_path, capsys):
        code = main(["bench", "--levels", "0,2", "--state-dir", str(tmp_path / "s")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("suite", ["efficiency", "all"])
    @pytest.mark.parametrize("repeats", ["1", "0", "-3"])
    def test_bench_rejects_too_few_repeats(self, tmp_path, capsys, suite, repeats):
        code = main(
            ["bench", "--suite", suite, "--repeats", repeats, "--state-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--repeats must be at least 2" in captured.err
        assert captured.out == ""


class TestBench:
    def test_scale_up_json_payload(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--suite",
                "scale_up",
                "--levels",
                "1,2",
                "--json",
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rows = payload["scale_up"]
        assert [row["level"] for row in rows] == [1, 2]
        assert all(row["kind"] == "scale_up" for row in rows)

    def test_scale_up_writes_the_json_rows_to_the_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "bench-out"
        argv = ["bench", "--suite", "scale_up", "--levels", "1,2", "--state-dir", str(tmp_path / "s")]
        assert main([*argv, "--out-dir", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, "--json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["scale_up"]
        assert len(rows) == 2
        assert [json.loads(line) for line in (out_dir / "scale_up.jsonl").read_text().splitlines()] == rows

    def test_efficiency_suite_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "bench-out"
        code = main(
            [
                "bench",
                "--suite",
                "efficiency",
                "--repeats",
                "2",
                "--out-dir",
                str(out_dir),
                "--json",
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["efficiency"]["n_sdk"] == 2
        on_disk = json.loads((out_dir / "efficiency.json").read_text())
        assert on_disk == payload["efficiency"]

    def test_all_suites_table_output(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--suite",
                "all",
                "--levels",
                "1,2",
                "--repeats",
                "2",
                "--state-dir",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for header in ("[scale_up]", "[scale_out]", "[efficiency]"):
            assert header in out
