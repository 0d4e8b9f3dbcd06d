"""Command line interface.

Subcommands:

* ``run``        submit an abstract request and drive it to completion,
* ``reproduce``  re-execute an archived run from its history URL,
* ``history``    query execution records or fetch one by URL,
* ``bench``      scaling and mode-efficiency suites.

The simulated environment persists between invocations in a compact JSON
state file (``--state-dir``, default ``$CLOUDRERUN_STATE_DIR`` or
``.cloudrerun``), so a run from one invocation can be queried and
reproduced from the next.  Each save writes a temp file and replaces the
state file with it atomically.  ``run`` and ``reproduce`` hold an
exclusive lock on the state directory (``simcloud.lock``) from loading the
state to saving it, so concurrent commands on one directory apply their
changes one after another; ``history`` reads without the lock.

Exit codes: 0 success; 1 execution failed or unexpected error; 2 bad
usage or configuration; 3 history lookup failed; 4 unsupported provider,
engine, or service; 5 provider rejected the deployment.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional

from .caam import generate_pipeline
from .config_model import DEFAULTS, parse_abstract_request
from .errors import (
    CloudRerunError,
    ConfigError,
    DeploymentRejected,
    InvalidMerge,
    MalformedURL,
    NotFound,
    QuotaExceeded,
    UnknownField,
    UnknownInstanceType,
    UnmappedService,
    UnsupportedEngineOnProvider,
    UnsupportedProvider,
)
from .history import HistoryStore, find_record_table, indented_json, parse_url
from .metrics import approx, measure, run_efficiency_suite, run_scaling_suite
from .reproducer import OverrideSet, reproduce
from .runtime import SDK_POLL_WINDOW, ExecutionState, Orchestrator, poll_window_for
from .simcloud.provider import PROVIDERS, SimCloud

EXIT_OK = 0
EXIT_EXECUTION_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_UNSUPPORTED = 4
EXIT_PROVIDER_REJECTED = 5

# Error kinds and their exit codes, in order: the first row that matches wins.
_EXIT_CODES = (
    ((NotFound, MalformedURL), EXIT_NOT_FOUND),
    ((UnsupportedProvider, UnsupportedEngineOnProvider, UnmappedService), EXIT_UNSUPPORTED),
    ((DeploymentRejected, QuotaExceeded, UnknownInstanceType), EXIT_PROVIDER_REJECTED),
    ((ConfigError, InvalidMerge, UnknownField, ValueError, OSError), EXIT_USAGE),
    ((CloudRerunError,), EXIT_EXECUTION_FAILED),
)

STATE_FILE = "simcloud.json"
LOCK_FILE = "simcloud.lock"
STATE_DIR_VAR = "CLOUDRERUN_STATE_DIR"


@cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudrerun",
        description="Run, archive, query, and reproduce analytics pipelines "
        "on simulated clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state-dir", default=None, help="environment state directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=("serverless", "sdk"),
            default="serverless",
            help="event-triggered (serverless) or polling (sdk) execution",
        )
        p.add_argument(
            "--poll-window",
            default=SDK_POLL_WINDOW,
            help="sdk polling window in seconds (rational, e.g. 10 or 5/2)",
        )
        p.add_argument(
            "--no-history",
            action="store_true",
            help="skip history capture (no archive, no record)",
        )
        p.add_argument("--out-dir", default=None, help="write report files here")

    p_run = sub.add_parser("run", help="run an abstract request")
    p_run.add_argument("--resources", required=True, help="resources.ini path")
    p_run.add_argument("--application", required=True, help="application.ini path")
    p_run.add_argument("--personal", required=True, help="personal.ini path")
    add_run_options(p_run)
    add_common(p_run)

    p_rep = sub.add_parser("reproduce", help="re-execute an archived run")
    p_rep.add_argument("url", help="history URL (rpac://<provider>/<store>/<id>)")
    p_rep.add_argument("--personal", required=True, help="personal.ini path (mandatory)")
    p_rep.add_argument("--resources", default=None, help="replacement resources.ini")
    p_rep.add_argument("--application", default=None, help="replacement application.ini")
    p_rep.add_argument("--target-provider", default=None, help="port to this cloud")
    add_run_options(p_rep)
    add_common(p_rep)

    p_hist = sub.add_parser("history", help="query the execution history")
    p_hist.add_argument("--url", default=None, help="fetch one execution by URL")
    p_hist.add_argument("--status", default=None)
    p_hist.add_argument("--engine", default=None)
    p_hist.add_argument("--provider", default=None, choices=PROVIDERS)
    p_hist.add_argument("--mode", default=None, choices=("serverless", "sdk"))
    p_hist.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="extra equality filter (repeatable)",
    )
    p_hist.add_argument("--store", default=DEFAULTS["reproduce_storage"])
    p_hist.add_argument("--table", default=DEFAULTS["reproduce_database"])
    add_common(p_hist)

    p_bench = sub.add_parser("bench", help="run the measurement suites")
    p_bench.add_argument(
        "--suite",
        choices=("scale_up", "scale_out", "efficiency", "all"),
        default="all",
    )
    p_bench.add_argument("--levels", default="1,2,4,8", help="comma-separated levels")
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--poll-window", default=SDK_POLL_WINDOW)
    p_bench.add_argument("--out-dir", default=None)
    add_common(p_bench)

    return parser


def _state_path(state_dir: Optional[str]) -> Path:
    base = state_dir or os.environ.get(STATE_DIR_VAR) or ".cloudrerun"
    return Path(base) / STATE_FILE


def _load_env(path: Path) -> SimCloud:
    return SimCloud.load_state(path) if path.exists() else SimCloud()


@contextlib.contextmanager
def _locked_env(state_dir: Optional[str]):
    """The saved environment, loaded under an exclusive lock on the state
    directory and saved back before the lock is released, so concurrent
    commands apply their changes one after another.  Nothing is saved when
    the block raises."""
    path = _state_path(state_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_name(LOCK_FILE), "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        env = _load_env(path)
        yield env
        env.save_state(path)


def _write_reports(out_dir: Optional[str], outcome, metrics) -> None:
    if not out_dir:
        return
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{outcome.instance_id}-outcome.json").write_text(outcome.to_json())
    (directory / f"{outcome.instance_id}-metrics.json").write_text(metrics.to_json())


def _print_outcome(outcome, metrics, as_json: bool) -> None:
    if as_json:
        print(indented_json({**outcome.payload(), "metrics": metrics.payload()}))
        return
    print(f"execution : {outcome.instance_id}")
    print(f"provider  : {outcome.provider}")
    print(f"engine    : {outcome.engine}")
    print(f"mode      : {outcome.mode}")
    print(f"state     : {outcome.state.value}")
    print(f"duration  : {approx(outcome.duration_s):.3f}s")
    if outcome.history_url:
        print(f"history   : {outcome.history_url}")
    if outcome.failure:
        print(f"failure   : {outcome.failure}")
    print(f"m1        : {approx(metrics.m1_hours):.6f} h")
    print(f"m2        : {approx(metrics.m2_cost):.6f} $")
    print(f"m3        : {approx(metrics.m3_ppr):.8f} h*$")


def _conclude(args: argparse.Namespace, env: SimCloud, outcome, header: tuple[str, ...] = ()) -> int:
    """The end of ``run`` and ``reproduce``: measure the outcome, write its
    reports, print ``header`` and the outcome, and return the exit code.  A
    returned run has closed every ledger entry of its scope, so it can
    always be measured."""
    metrics = measure(outcome, env.ledger)
    _write_reports(args.out_dir, outcome, metrics)
    if not args.json:
        for line in header:
            print(line)
    _print_outcome(outcome, metrics, args.json)
    return EXIT_OK if outcome.state is ExecutionState.COMPLETED else EXIT_EXECUTION_FAILED


def _cmd_run(args: argparse.Namespace) -> int:
    # Read as an sdk window in either mode: a bad one fails a serverless run too.
    poll_window = poll_window_for("sdk", args.poll_window)
    request = parse_abstract_request(
        Path(args.resources).read_text(encoding="utf-8"),
        Path(args.application).read_text(encoding="utf-8"),
        Path(args.personal).read_text(encoding="utf-8"),
        env=os.environ,
    )
    doc = generate_pipeline(request)
    with _locked_env(args.state_dir) as env:
        outcome = Orchestrator(env).run(doc, args.mode, poll_window, not args.no_history)
    return _conclude(args, env, outcome)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    poll_window = poll_window_for("sdk", args.poll_window)
    overrides = OverrideSet(
        personal_text=Path(args.personal).read_text(encoding="utf-8"),
        resources_text=(
            Path(args.resources).read_text(encoding="utf-8") if args.resources else None
        ),
        application_text=(
            Path(args.application).read_text(encoding="utf-8")
            if args.application
            else None
        ),
        target_provider=args.target_provider,
    )
    with _locked_env(args.state_dir) as env:
        result = reproduce(
            env,
            args.url,
            overrides,
            mode=args.mode,
            poll_window=poll_window,
            record_history=not args.no_history,
            environ=os.environ,
        )
    header = (f"ancestor  : {args.url}", f"kind      : {result.reproduction_mode}")
    return _conclude(args, env, result.outcome, header)


def _cmd_history(args: argparse.Namespace) -> int:
    env = _load_env(_state_path(args.state_dir))

    if args.url:
        provider_name, store, execution_id = parse_url(args.url)
        table = find_record_table(env, provider_name, execution_id)
        fetched = HistoryStore(env, provider_name, store, table).fetch(args.url)
        payload = {
            "url": args.url,
            "record": fetched.record,
            "config_entries": sorted(fetched.config) if fetched.config else None,
            "result_entries": sorted(fetched.result) if fetched.result else None,
        }
        print(indented_json(payload))
        return EXIT_OK

    filters: dict[str, str] = {}
    for flag in ("status", "engine", "mode"):
        value = getattr(args, flag)
        if value is not None:
            filters[flag] = value
    for clause in args.where:
        if "=" not in clause:
            raise UnknownField(f"--where expects FIELD=VALUE, got {clause!r}")
        key, value = clause.split("=", 1)
        filters[key] = value
    providers = [args.provider] if args.provider else list(PROVIDERS)

    rows = []
    for provider_name in providers:
        rows.extend(HistoryStore(env, provider_name, args.store, args.table).query(filters))

    if args.json:
        print(indented_json(rows))
        return EXIT_OK
    if not rows:
        print("no matching executions")
        return EXIT_OK
    header = f"{'execution_id':<18} {'provider':<8} {'engine':<8} {'status':<10} {'mode':<10} url"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.get('execution_id', ''):<18} {row.get('provider', ''):<8} "
            f"{row.get('engine', ''):<8} {row.get('status', ''):<10} "
            f"{row.get('mode', ''):<10} {row.get('history_url', '')}"
        )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    levels = tuple(int(x) for x in args.levels.split(",") if x.strip())
    if not levels or any(level < 1 for level in levels):
        raise ValueError(f"--levels must be positive integers, got {args.levels!r}")
    if args.suite in ("efficiency", "all"):
        # The t-test needs two runs per mode; fail before any run starts.
        if args.repeats < 2:
            raise ValueError(f"--repeats must be at least 2 for the efficiency suite, got {args.repeats}")
        poll_window = poll_window_for("sdk", args.poll_window)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    suites = ("scale_up", "scale_out", "efficiency") if args.suite == "all" else (args.suite,)
    payload: dict[str, object] = {}
    for suite in suites:
        if suite == "efficiency":
            report = run_efficiency_suite(repeats=args.repeats, poll_window=poll_window)
            if out_dir:
                (out_dir / "efficiency.json").write_text(report.to_json())
            if not args.json:
                print(f"[{suite}]")
                print(
                    f"  mean sdk        : {approx(report.mean_sdk_s):.3f}s over {report.n_sdk} runs"
                )
                print(
                    f"  mean serverless : {approx(report.mean_serverless_s):.3f}s over {report.n_serverless} runs"
                )
                print(f"  reduction       : {approx(report.percent_reduction):.2f}%")
                print(
                    f"  t = {report.t_statistic:.6f}, dof = {report.degrees_of_freedom}, "
                    f"p = {report.p_value:.6g}"
                )
        else:
            report = run_scaling_suite(suite, levels)
            if out_dir:
                (out_dir / f"{suite}.jsonl").write_text(report.to_jsonl())
            if not args.json:
                print(f"[{suite}]")
                print(report.table())
        payload[suite] = report.payload()
    if args.json:
        print(indented_json(payload))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "history": _cmd_history,
    "bench": _cmd_bench,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
