import sys

from perfbench import run, workloads


def test_setup_sample_leaves_the_running_modules_loaded(cr, tmp_path, monkeypatch):
    before = dict(sys.modules)
    # As before the run's first set-up: neither cloudrerun nor a
    # standard-library module that only it imports is loaded yet.
    baseline = {n for n in before if not n.startswith("cloudrerun") and n != "configparser"}
    fresh = {}
    import_cloudrerun = workloads.import_cloudrerun

    def spy(src):
        fresh["before"] = "configparser" in sys.modules
        program = import_cloudrerun(src)
        fresh["after"] = sys.modules["configparser"] is not before["configparser"]
        return program

    monkeypatch.setattr(workloads, "import_cloudrerun", spy)
    cpu, wall = run.sample_setup("oneshot", 1, tmp_path / "setup", baseline)
    assert 0 < cpu and 0 < wall
    assert fresh == {"before": False, "after": True}
    assert sys.modules.keys() == before.keys()
    assert [n for n, module in before.items() if sys.modules[n] is not module] == []
    assert not (tmp_path / "setup").exists()


def test_a_failed_counter_hook_makes_the_traced_run_incorrect():
    report = {"failed": 0, "attempted": 3, "per_layer": {},
              "hook_failures": {"runtime.EventBus.dispatch: AttributeError: rules": 2}}
    assert run.result_line(report, True)["correct"] is False
    assert run.result_line({**report, "hook_failures": {}}, True)["correct"] is True


def test_measure_reports_every_end_to_end_metric(tmp_path):
    report = run.measure("oneshot", 3, 0.1, False, tmp_path)
    assert report["failed"] == 0 and report["blocks"] >= 1
    assert len(report["setup_runs_s"]) >= 2
    assert all(report["metrics"][name]["value"] > 0 for name in run.END_TO_END)
