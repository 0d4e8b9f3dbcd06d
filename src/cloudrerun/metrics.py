"""Evaluation metrics over executions and their cost ledgers.

All core quantities are exact rationals:

* m1  execution time in hours,
* m2  budgetary cost from the ledger (per-second proration of hourly
      prices plus per-request fees),
* m3  the price-performance ratio m1 * m2,
* m6  reproducibility overhead (with-history minus without, over without).

Derived suites measure scale-up (one node, growing per-node parallelism)
and scale-out (growing node count), and the efficiency comparison between
SDK polling and serverless triggering uses a pooled-variance two-sample
t-test.  The t statistic and its two-sided p-value are computed here from
first principles (regularized incomplete beta via continued fractions);
tests cross-check them against an independent reference implementation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .caam import generate_pipeline
from .config_model import (
    AbstractRequest,
    ApplicationSpec,
    AwsBlock,
    Engine,
    PersonalSpec,
    ReproduceBlock,
    ResourcesSpec,
)
from .errors import InsufficientSamples, NonPositiveBaseline
from .runtime import ExecutionOutcome, ExecutionState, Orchestrator
from .simcloud.ledger import SECONDS_PER_HOUR, CostLedger
from .simcloud.provider import SimCloud

__all__ = [
    "MetricReport",
    "measure",
    "cost_by_usage",
    "reproducibility_overhead",
    "EfficiencyReport",
    "efficiency_comparison",
    "pooled_t_statistic",
    "regularized_incomplete_beta",
    "two_sided_p_value",
    "SuiteRow",
    "SuiteReport",
    "run_scaling_suite",
    "run_efficiency_suite",
    "make_suite_request",
]

Rational = Union[int, str, Fraction]


@dataclass(frozen=True)
class MetricReport:
    execution_id: str
    mode: str
    duration_s: Fraction
    m1_hours: Fraction
    m2_cost: Fraction
    m3_ppr: Fraction
    breakdown: dict[str, Fraction]

    def to_json(self) -> str:
        payload = {
            "execution_id": self.execution_id,
            "mode": self.mode,
            "duration_s": str(self.duration_s),
            "m1_hours": {"exact": str(self.m1_hours), "approx": float(self.m1_hours)},
            "m2_cost": {"exact": str(self.m2_cost), "approx": float(self.m2_cost)},
            "m3_ppr": {"exact": str(self.m3_ppr), "approx": float(self.m3_ppr)},
            "breakdown": {k: str(v) for k, v in sorted(self.breakdown.items())},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def measure(outcome: ExecutionOutcome, ledger: CostLedger) -> MetricReport:
    """m1, m2 and m3 for one finished execution, exactly; m2 sums the breakdown."""
    duration = outcome.duration_s
    m1 = duration / SECONDS_PER_HOUR
    breakdown = ledger.breakdown(scope=outcome.instance_id)
    m2 = sum(breakdown.values(), Fraction(0))
    return MetricReport(
        execution_id=outcome.instance_id,
        mode=outcome.mode,
        duration_s=duration,
        m1_hours=m1,
        m2_cost=m2,
        m3_ppr=m1 * m2,
        breakdown=breakdown,
    )


def cost_by_usage(total_cost: Rational, fraction: Union[Rational, float]) -> Fraction:
    """Share of a total cost attributed to a usage fraction."""
    return Fraction(total_cost) * Fraction(fraction)


def reproducibility_overhead(with_history: Rational, without_history: Rational) -> Fraction:
    """m6: relative slowdown caused by history capture."""
    with_history = Fraction(with_history)
    without_history = Fraction(without_history)
    if without_history <= 0:
        raise NonPositiveBaseline(
            f"baseline duration must be positive, got {without_history}"
        )
    return (with_history - without_history) / without_history


# ---------------------------------------------------------------------------
# two-sample comparison
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iterations = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def pooled_t_statistic(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> tuple[float, int]:
    """Equal-variance two-sample t statistic and its degrees of freedom."""
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise InsufficientSamples(
            f"need at least 2 samples per group, got {n_a} and {n_b}"
        )
    mean_a = sum(sample_a) / n_a
    mean_b = sum(sample_b) / n_b
    var_a = sum((x - mean_a) ** 2 for x in sample_a) / (n_a - 1)
    var_b = sum((x - mean_b) ** 2 for x in sample_b) / (n_b - 1)
    dof = n_a + n_b - 2
    pooled = ((n_a - 1) * var_a + (n_b - 1) * var_b) / dof
    if pooled == 0.0:
        if mean_a == mean_b:
            return 0.0, dof
        return math.copysign(math.inf, mean_a - mean_b), dof
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    return t, dof


def two_sided_p_value(t: float, dof: int) -> float:
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


@dataclass(frozen=True)
class EfficiencyReport:
    """m7: SDK polling versus serverless triggering."""

    n_sdk: int
    n_serverless: int
    mean_sdk_s: Fraction
    mean_serverless_s: Fraction
    percent_reduction: Fraction
    t_statistic: float
    degrees_of_freedom: int
    p_value: float

    def to_json(self) -> str:
        payload = {
            "n_sdk": self.n_sdk,
            "n_serverless": self.n_serverless,
            "mean_sdk_s": str(self.mean_sdk_s),
            "mean_serverless_s": str(self.mean_serverless_s),
            "percent_reduction": {
                "exact": str(self.percent_reduction),
                "approx": float(self.percent_reduction),
            },
            "t_statistic": self.t_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "p_value": self.p_value,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def efficiency_comparison(
    sdk_durations: Sequence[Rational], serverless_durations: Sequence[Rational]
) -> EfficiencyReport:
    sdk = [Fraction(x) for x in sdk_durations]
    srv = [Fraction(x) for x in serverless_durations]
    if len(sdk) < 2 or len(srv) < 2:
        raise InsufficientSamples(
            f"need at least 2 runs per mode, got {len(sdk)} and {len(srv)}"
        )
    mean_sdk = sum(sdk, Fraction(0)) / len(sdk)
    mean_srv = sum(srv, Fraction(0)) / len(srv)
    if mean_srv <= 0:
        raise NonPositiveBaseline("serverless mean duration must be positive")
    t, dof = pooled_t_statistic([float(x) for x in sdk], [float(x) for x in srv])
    return EfficiencyReport(
        n_sdk=len(sdk),
        n_serverless=len(srv),
        mean_sdk_s=mean_sdk,
        mean_serverless_s=mean_srv,
        percent_reduction=(mean_sdk - mean_srv) / mean_srv * 100,
        t_statistic=t,
        degrees_of_freedom=dof,
        p_value=two_sided_p_value(t, dof),
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def make_suite_request(
    nodes: int,
    parallelism: int,
    engine: Engine = Engine.SPARK,
    seed: int = 0,
    serial_s: Rational = 10,
    parallel_s: Rational = 100,
    comm_s: Rational = 2,
) -> AbstractRequest:
    """Synthetic benchmark request on the aws simulation."""
    command = (
        "analyze"
        f" --serial-seconds {serial_s}"
        f" --parallel-seconds {parallel_s}"
        f" --comm-seconds {comm_s}"
        f" --parallelism {parallelism}"
        f" --seed {seed}"
    )
    return AbstractRequest(
        resources=ResourcesSpec(
            bigdata_engine=engine,
            cloud_aws=AwsBlock(instance_number=nodes),
            cloud_azure=None,
            reproduce=ReproduceBlock(),
        ),
        application=ApplicationSpec(
            docker_image="registry.example/analytics:1.0",
            data_uri=("s3://datasets/benchmark",),
            command=command,
        ),
        personal=PersonalSpec(cloud_provider="aws"),
    )


@dataclass(frozen=True)
class SuiteRow:
    level: int
    nodes: int
    parallelism: int
    metrics: MetricReport
    usage_fraction: Fraction
    usage_cost: Fraction


@dataclass(frozen=True)
class SuiteReport:
    kind: str  # "scale_up" or "scale_out"
    rows: tuple[SuiteRow, ...]

    def to_jsonl(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                json.dumps(
                    {
                        "kind": self.kind,
                        "level": row.level,
                        "nodes": row.nodes,
                        "parallelism": row.parallelism,
                        "duration_s": str(row.metrics.duration_s),
                        "m1_hours": str(row.metrics.m1_hours),
                        "m2_cost": str(row.metrics.m2_cost),
                        "m3_ppr": str(row.metrics.m3_ppr),
                        "usage_fraction": str(row.usage_fraction),
                        "usage_cost": str(row.usage_cost),
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        header = f"{'level':>5} {'nodes':>5} {'par':>4} {'m1 (h)':>12} {'m2 ($)':>12} {'m3':>12}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.level:>5} {row.nodes:>5} {row.parallelism:>4}"
                f" {float(row.metrics.m1_hours):>12.6f}"
                f" {float(row.metrics.m2_cost):>12.6f}"
                f" {float(row.metrics.m3_ppr):>12.8f}"
            )
        return "\n".join(lines)


def _run_once(req: AbstractRequest) -> tuple[ExecutionOutcome, SimCloud]:
    """One serverless run in a fresh environment."""
    env = SimCloud()
    orchestrator = Orchestrator(env)
    outcome = orchestrator.run(generate_pipeline(req))
    if outcome.state is not ExecutionState.COMPLETED:
        raise NonPositiveBaseline(f"suite run failed: {outcome.failure}")
    return outcome, env


def run_scaling_suite(kind: str, levels: Sequence[int] = (1, 2, 4, 8)) -> SuiteReport:
    """m4 (scale-up) or m5 (scale-out) over the given levels.

    Scale-up holds one node and grows per-node parallelism; scale-out grows
    the node count at parallelism one.  Each level runs in a fresh
    environment so ledgers never bleed across levels.
    """
    if kind not in ("scale_up", "scale_out"):
        raise ValueError(f"kind must be scale_up or scale_out, got {kind!r}")
    top = max(levels)
    rows = []
    for level in levels:
        nodes, parallelism = (1, level) if kind == "scale_up" else (level, 1)
        outcome, env = _run_once(make_suite_request(nodes, parallelism))
        report = measure(outcome, env.ledger)
        fraction = Fraction(level, top)
        rows.append(
            SuiteRow(
                level=level,
                nodes=nodes,
                parallelism=parallelism,
                metrics=report,
                usage_fraction=fraction,
                usage_cost=cost_by_usage(report.m2_cost, fraction),
            )
        )
    return SuiteReport(kind=kind, rows=tuple(rows))


def run_efficiency_suite(
    repeats: int = 10, poll_window: Rational = 10
) -> EfficiencyReport:
    """m7 with ``repeats`` paired runs per mode.

    The workload profile varies deterministically with the repeat index so
    each mode produces a sample with nonzero variance.
    """
    sdk_durations = []
    serverless_durations = []
    for i in range(repeats):
        req = make_suite_request(
            nodes=1, parallelism=2, seed=i, serial_s=10 + i, parallel_s=100 + 3 * i
        )
        doc = generate_pipeline(req)

        env = SimCloud()
        outcome = Orchestrator(env).run(doc)
        serverless_durations.append(outcome.duration_s)

        env = SimCloud()
        outcome = Orchestrator(env).run(doc, "sdk", Fraction(poll_window))
        sdk_durations.append(outcome.duration_s)
    return efficiency_comparison(sdk_durations, serverless_durations)
