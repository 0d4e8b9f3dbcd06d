"""End-to-end command line tests driven through ``main(argv)``.

Each test gets its own state directory, so invocations chain the way real
shell sessions would: run, then query, then reproduce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cloudrerun
from cloudrerun.cli import (
    EXIT_EXECUTION_FAILED,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_PROVIDER_REJECTED,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
)

from helpers import application_text, personal_text, resources_text

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

    def test_fetch_malformed_url(self, tmp_path, capsys):
        code = main(
            ["history", "--url", "https://aws/x/y", "--state-dir", str(tmp_path / "s")]
        )
        assert code == EXIT_NOT_FOUND

    def test_empty_history(self, tmp_path, capsys):
        assert main(["history", "--state-dir", str(tmp_path / "s")]) == EXIT_OK
        assert "no matching executions" in capsys.readouterr().out


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

    def test_bad_poll_window_literal(self, tmp_path, capsys):
        paths = write_files(tmp_path)
        state = tmp_path / "s"
        assert main(run_args(paths, state)) == EXIT_OK
        url = history_url_from(capsys.readouterr().out)
        for literal in ("soon", "1/0"):
            window = ("--poll-window", literal)
            # run and reproduce read the window in either mode
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

        cases = [
            b"{}",
            b"[]",
            data[:200],
            saved(lambda state_doc: state_doc.update(clock="x")),
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
        ]
        for content in cases:
            state_file.write_bytes(content)
            assert main(["history", "--state-dir", str(state)]) == EXIT_USAGE, content[:40]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"{state_file}: malformed state file" in err
            assert state_file.read_bytes() == content
        # references that end exactly at the end of the tail are in range
        for content in (data, with_reference([0, len(tail)]), with_reference([len(tail), 0])):
            state_file.write_bytes(content)
            assert main(["history", "--state-dir", str(state)]) == EXIT_OK

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
