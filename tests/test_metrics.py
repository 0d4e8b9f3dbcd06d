"""Metric arithmetic, statistics, and the measurement suites."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudrerun import metrics
from cloudrerun.cli import EXIT_OK, main
from cloudrerun.config_model import (
    AbstractRequest,
    ApplicationSpec,
    AwsBlock,
    Engine,
    PersonalSpec,
    ReproduceBlock,
    ResourcesSpec,
)
from cloudrerun.errors import InsufficientSamples, MalformedValue, NonPositiveBaseline, OpenLedger, StorageFailure
from cloudrerun.metrics import (
    cost_by_usage,
    efficiency_comparison,
    make_suite_request,
    measure,
    pooled_t_statistic,
    regularized_incomplete_beta,
    reproducibility_overhead,
    run_efficiency_suite,
    run_scaling_suite,
    two_sided_p_value,
)
from cloudrerun.simcloud.ledger import CostLedger
from cloudrerun.simcloud.provider import SimCloud

from helpers import make_request, run_serverless

from oracles import student_t_reference

# Frozen reference values (independent implementation) for a fixed fixture.
FIXTURE_A = [10.0, 11.0, 12.0]
FIXTURE_B = [20.0, 21.0, 22.0]
FIXTURE_T = -12.24744871391589
FIXTURE_P = 0.00025521674944192687


class TestCoreMetrics:
    def test_m3_is_product_of_m1_m2(self):
        outcome, env = run_serverless(make_request(engine="dask", nodes=2))
        report = measure(outcome, env.ledger)
        assert report.m3_ppr == report.m1_hours * report.m2_cost
        assert report.m1_hours == outcome.duration_s / 3600

    def test_m2_matches_manual_breakdown(self):
        outcome, env = run_serverless(make_request(engine="dask", nodes=2))
        report = measure(outcome, env.ledger)
        assert sum(report.breakdown.values(), Fraction(0)) == report.m2_cost
        assert set(report.breakdown) == {"compute", "network", "requests"}

    def test_open_ledger_rejected(self):
        ledger = CostLedger()
        ledger.open_entry("x", "compute", Fraction(1), Fraction(0), scope="run-1")
        with pytest.raises(OpenLedger):
            ledger.compute_cost(scope="run-1")

    def test_a_serverless_mean_that_is_not_positive_is_rejected(self):
        with pytest.raises(NonPositiveBaseline, match="serverless mean duration must be positive"):
            efficiency_comparison([10, 12], [0, 0])
        with pytest.raises(NonPositiveBaseline):
            efficiency_comparison([10, 12], [3, -5])

    def test_cost_by_usage(self):
        assert cost_by_usage(8, 0.25) == 2
        assert cost_by_usage(8, Fraction(1, 3)) == Fraction(8, 3)
        assert cost_by_usage("7/2", "1/7") == Fraction(1, 2)

    def test_reproducibility_overhead(self):
        assert reproducibility_overhead(12, 10) == Fraction(1, 5)
        assert reproducibility_overhead(10, 10) == 0
        with pytest.raises(NonPositiveBaseline):
            reproducibility_overhead(5, 0)


class TestStudentT:
    def test_frozen_fixture(self):
        t, dof = pooled_t_statistic(FIXTURE_A, FIXTURE_B)
        assert dof == 4
        assert math.isclose(t, FIXTURE_T, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(two_sided_p_value(t, dof), FIXTURE_P, rel_tol=0, abs_tol=1e-12)

    def test_identical_samples(self):
        t, dof = pooled_t_statistic([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
        assert t == 0.0
        assert two_sided_p_value(t, dof) == 1.0

    def test_zero_variance_different_means(self):
        t, dof = pooled_t_statistic([5.0, 5.0], [9.0, 9.0])
        assert math.isinf(t)
        assert two_sided_p_value(t, dof) == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            pooled_t_statistic([1.0], [2.0, 3.0])
        with pytest.raises(InsufficientSamples):
            efficiency_comparison([1], [2, 3])

    def test_symmetry(self):
        t_ab, _ = pooled_t_statistic(FIXTURE_A, FIXTURE_B)
        t_ba, _ = pooled_t_statistic(FIXTURE_B, FIXTURE_A)
        assert t_ab == -t_ba

    # scipy warns about precision on near-identical samples; the comparison
    # still holds at the tolerances below.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(-1000, 1000), min_size=2, max_size=12),
        b=st.lists(st.integers(-1000, 1000), min_size=2, max_size=12),
    )
    def test_matches_reference_implementation(self, a, b):
        pytest.importorskip("scipy.stats")
        a = [float(x) for x in a]
        b = [float(x) for x in b]
        t, dof = pooled_t_statistic(a, b)
        ref_t, ref_p = student_t_reference(a, b)
        if math.isinf(t) or math.isnan(ref_t):
            return
        assert math.isclose(t, ref_t, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(two_sided_p_value(t, dof), ref_p, rel_tol=1e-10, abs_tol=1e-12)

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0
        # symmetric case with known closed form: I_x(1,1) = x
        for x in (0.1, 0.37, 0.5, 0.93):
            assert math.isclose(regularized_incomplete_beta(1.0, 1.0, x), x, abs_tol=1e-14)


class TestEfficiencyReport:
    def test_percent_reduction_formula(self):
        report = efficiency_comparison([90, 110], [80, 120])
        assert report.percent_reduction == 0
        report = efficiency_comparison([126, 126], [100, 100])
        assert report.percent_reduction == 26

    def test_suite_runs_and_p_value_is_sane(self):
        report = run_efficiency_suite(repeats=6, poll_window=10)
        assert report.n_sdk == report.n_serverless == 6
        assert report.mean_sdk_s > report.mean_serverless_s
        assert report.percent_reduction > 0
        assert 0 <= report.p_value <= 1

    def test_an_infinite_t_statistic_is_written_as_json_dumps_writes_it(self):
        # Zero pooled variance with different means: t is +inf, p is 0.
        # JSON has no infinity, so t is written as null, as json.dumps writes None.
        text = efficiency_comparison([10, 10], [5, 5]).to_json()
        assert '"t_statistic": null' in text
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        tokens = []
        json.loads(text, parse_constant=tokens.append)
        assert tokens == []

    def test_durations_no_float_can_hold_end_in_a_report_of_nulls(self, tmp_path, capsys):
        """SDK runs polled every 1e3000 s last longer than any float: the
        t-test reads them as inf, so t and p are no number, written as null,
        while the means and the reduction stay exact."""
        report = efficiency_comparison([Fraction(10) ** 400, Fraction(10) ** 400 + 1], [100, 101])
        assert math.isnan(report.t_statistic) and math.isnan(report.p_value)
        tokens = []
        payload = json.loads(report.to_json(), parse_constant=tokens.append)
        assert tokens == [] and (payload["t_statistic"], payload["p_value"]) == (None, None)
        assert Fraction(payload["mean_sdk_s"]) == Fraction(10) ** 400 + Fraction(1, 2)
        assert payload["percent_reduction"]["approx"] is None
        argv = ["bench", "--suite", "efficiency", "--repeats", "2", "--poll-window", "1e3000",
                "--state-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert "t = nan, dof = 2, p = nan" in capsys.readouterr().out
        assert main(argv + ["--json"]) == EXIT_OK
        efficiency = json.loads(capsys.readouterr().out, parse_constant=tokens.append)["efficiency"]
        assert tokens == [] and (efficiency["t_statistic"], efficiency["p_value"]) == (None, None)

    def test_a_failed_run_stops_the_suite(self, monkeypatch):
        # A failed run's duration must not reach the t-test.
        def faulty_env():
            env = SimCloud()
            env.provider("aws").inject_fault("storage_put", 0, lambda: StorageFailure("injected"))
            return env

        monkeypatch.setattr(metrics, "SimCloud", faulty_env)
        with pytest.raises(NonPositiveBaseline, match="suite run failed: StorageFailure: injected"):
            run_efficiency_suite(repeats=2)


class TestScalingSuites:
    def test_scale_up_trends(self):
        report = run_scaling_suite("scale_up", levels=(1, 2, 4, 8))
        durations = [row.metrics.duration_s for row in report.rows]
        costs = [row.metrics.m2_cost for row in report.rows]
        assert all(a > b for a, b in zip(durations, durations[1:]))
        # one node at a fixed rate: shorter run means cheaper run
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert [row.nodes for row in report.rows] == [1, 1, 1, 1]
        assert [row.parallelism for row in report.rows] == [1, 2, 4, 8]

    def test_scale_out_trends(self):
        report = run_scaling_suite("scale_out", levels=(1, 2, 4, 8))
        durations = [row.metrics.duration_s for row in report.rows]
        costs = [row.metrics.m2_cost for row in report.rows]
        assert all(a > b for a, b in zip(durations, durations[1:]))
        # more nodes cost more in total
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert [row.nodes for row in report.rows] == [1, 2, 4, 8]

    def test_usage_cost_fraction(self):
        report = run_scaling_suite("scale_up", levels=(1, 2, 4))
        last = report.rows[-1]
        assert last.usage_fraction == 1
        assert last.usage_cost == last.metrics.m2_cost
        first = report.rows[0]
        assert first.usage_cost == first.metrics.m2_cost * Fraction(1, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_scaling_suite("sideways", levels=(1, 2))

    def test_suite_request_shape(self):
        req = make_suite_request(nodes=4, parallelism=2, seed=3)
        assert req.resources.provider_block("aws").instance_number == 4
        assert "--parallelism 2" in req.application.command
        assert "--seed 3" in req.application.command

    def test_suite_request_is_parsed_to_the_spark_request_on_aws(self):
        command = (
            "analyze --serial-seconds 1/2 --parallel-seconds 100"
            " --comm-seconds 2 --parallelism 2 --seed 3"
        )
        assert make_suite_request(4, 2, seed=3, serial_s=Fraction(1, 2)) == AbstractRequest(
            ResourcesSpec(Engine.SPARK, (("aws", AwsBlock(instance_number=4)),), ReproduceBlock()),
            ApplicationSpec("registry.example/analytics:1.0", ("s3://datasets/benchmark",), command),
            PersonalSpec(cloud_provider="aws"),
        )

    def test_a_zero_node_suite_request_fails_at_parse(self):
        with pytest.raises(MalformedValue, match=r"^cloud\.aws\.instance_number: must be >= 1"):
            make_suite_request(0, 1)
