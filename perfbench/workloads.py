"""The benchmark workloads, their output checks and their output digests.

Each workload runs as a closed loop with one client: the next op starts
when the previous one has returned.  Work is split into epochs of a fixed
number of ops.  Every epoch starts from the same kind of state, so the
history size an op sees depends on the workload, not on how fast the code
under test is; a faster program runs more epochs, not larger ones.

Only the op itself is timed.  Input generation, writing input files,
output checks and digests happen between ops.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from . import gen

_wall = time.perf_counter_ns
_cpu = time.thread_time_ns

# Ledger scope charged for the benchmark's own reads (digests, checks).
BENCH_SCOPE = "perfbench"


def import_cloudrerun(src: Path) -> SimpleNamespace:
    """Import cloudrerun from ``src`` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cloudrerun" or n.startswith("cloudrerun.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    package = importlib.import_module("cloudrerun")
    location = Path(package.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"cloudrerun imported from {location}, not from {src}")
    names = ("config_model", "caam", "runtime", "history", "reproducer", "metrics", "cli",
             "simcloud.provider")
    modules = {n.split(".")[-1]: importlib.import_module(f"cloudrerun.{n}") for n in names}
    return SimpleNamespace(**modules)


class Elapsed(NamedTuple):
    """Time one op took: wall clock, and CPU time of this thread."""

    wall_ns: int
    cpu_ns: int


NOT_RUN = Elapsed(0, 0)


@dataclass
class Recorder:
    """Latencies of ops that passed their checks, plus failure counts."""

    wall_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    cpu_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    timed_wall_ns: int = 0
    timed_cpu_ns: int = 0
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, kind: str, elapsed: Elapsed, problems: list[str]) -> None:
        self.attempted += 1
        self.timed_wall_ns += elapsed.wall_ns
        self.timed_cpu_ns += elapsed.cpu_ns
        if problems:
            self.fail(f"{kind}: {'; '.join(problems)}")
        else:
            self.wall_ns[kind].append(elapsed.wall_ns)
            self.cpu_ns[kind].append(elapsed.cpu_ns)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def timed(tracer, op_id: int, fn: Callable):
    """Run ``fn`` as one op: returns (result, exception, Elapsed)."""
    result = error = None
    wall, cpu = _wall(), _cpu()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        result = fn()
    except Exception as exc:  # a raised op is a failed op, not a failed run
        error = exc
    finally:
        if tracer is not None:
            tracer.end_op()
        elapsed = Elapsed(_wall() - wall, _cpu() - cpu)
    return result, error, elapsed


def describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


class Workload:
    """One workload.  ``state_bytes`` is the size of the file
    ``SimCloud.save_state`` writes for the workload's environment after the
    first epoch; for oneshot, the mean over that epoch's requests."""

    name = ""
    epoch_ops = 0

    def __init__(self, cr: SimpleNamespace, seed: int, workdir: Path) -> None:
        self.cr = cr
        self.seed = seed
        self.workdir = workdir
        self.next_op = 0
        self.state_bytes = 0

    def inputs(self, epoch) -> gen.Inputs:
        return gen.Inputs(f"{self.name}:{self.seed}:{epoch}")

    def setup(self) -> None:
        """Generate the first epoch's inputs and run one request untimed."""
        self.plans = {0: self.plan(0)}
        warm = self.inputs("warm-up").run()
        env = self.cr.provider.SimCloud()
        self.request(warm, env, self.cr.runtime.Orchestrator(env))

    def plan(self, epoch: int) -> list:
        raise NotImplementedError

    def run_epoch(self, epoch: int, rec: Recorder, tracer, digest) -> None:
        raise NotImplementedError

    def _op_id(self) -> int:
        self.next_op += 1
        return self.next_op

    # -- shared request path -------------------------------------------------

    def request(self, spec: gen.RunSpec, env, orchestrator):
        """One request: parse, compile, run to a finished outcome, measure."""
        cr = self.cr
        req = cr.config_model.parse_abstract_request(spec.resources, spec.application, spec.personal)
        doc = cr.caam.generate_pipeline(req)
        if spec.mode == "sdk":
            outcome = orchestrator.run_sdk(
                doc, poll_window=Fraction(spec.poll_window), record_history=spec.history
            )
        else:
            outcome = orchestrator.run_serverless(doc, record_history=spec.history)
        return doc, outcome, cr.metrics.measure(outcome, env.ledger)

    def check_outcome(self, env, outcome, expected_state: str, history: bool) -> list[str]:
        problems = []
        if outcome.state.value != expected_state:
            problems.append(f"state {outcome.state.value}, expected {expected_state} "
                            f"({outcome.failure})")
        for name in gen.PROVIDERS:
            inventory = env.provider(name).inventory()
            if inventory["clusters"] or inventory["networks"]:
                problems.append(f"{name} inventory not empty: {inventory}")
        if env.ledger.open_entries(scope=outcome.instance_id):
            problems.append(f"ledger scope {outcome.instance_id} still open")
        if history:
            status = (outcome.record or {}).get("status")
            if status != outcome.state.value:
                problems.append(f"record status {status!r}, outcome {outcome.state.value}")
        return problems

    def digest_outcome(self, digest, env, outcome, report) -> None:
        digest.update(outcome.to_json().encode())
        digest.update(report.to_json().encode())
        digest.update((outcome.history_url or "").encode())
        record = outcome.record or {}
        provider = env.provider(outcome.provider)
        store = self.cr.history.parse_url(outcome.history_url)[1] if outcome.history_url else None
        for key in ("config_key", "result_key"):
            if record.get(key) and store:
                digest.update(provider.storage_get(store, record[key], BENCH_SCOPE))

    def save_state_size(self, env) -> int:
        path = self.workdir / "state-size.json"
        env.save_state(path)
        size = path.stat().st_size
        path.unlink()
        return size


class OneShot(Workload):
    """Every op is one request in a fresh environment."""

    name = "oneshot"
    epoch_ops = 200

    def plan(self, epoch: int) -> list[gen.RunSpec]:
        inputs = self.inputs(epoch)
        return [inputs.run() for _ in range(self.epoch_ops)]

    def run_epoch(self, epoch, rec, tracer, digest) -> None:
        cr = self.cr
        specs = self.plans.pop(epoch, None) or self.plan(epoch)
        sizes = []  # state file size of each request's environment
        for spec in specs:
            def op(spec=spec):
                env = cr.provider.SimCloud()
                return (env,) + self.request(spec, env, cr.runtime.Orchestrator(env))

            result, error, elapsed = timed(tracer, self._op_id(), op)
            if error is not None:
                rec.add("run", elapsed, [describe(error)])
                continue
            env, _, outcome, report = result
            rec.add("run", elapsed, self.check_outcome(env, outcome, spec.expected_state, spec.history))
            if epoch == 0:
                sizes.append(self.save_state_size(env))
            if digest is not None:
                self.digest_outcome(digest, env, outcome, report)
        if sizes:
            self.state_bytes = sum(sizes) / len(sizes)


@dataclass
class Tally:
    """The benchmark's own account of the history records that should exist."""

    records: list[dict] = field(default_factory=list)

    def add(self, execution_id, provider, table, engine, mode, status) -> None:
        self.records.append({
            "execution_id": execution_id, "provider": provider, "table": table,
            "engine": engine, "mode": mode, "status": status,
        })

    def matching(self, table: str, filters, providers) -> list[str]:
        out = []
        for provider in providers:
            for r in self.records:
                if r["table"] == table and r["provider"] == provider and all(
                    r[k] == v for k, v in filters
                ):
                    out.append(r["execution_id"])
        return out

    def copy(self) -> "Tally":
        return Tally([dict(r) for r in self.records])


@dataclass
class _Epoch:
    """What the ops of one ``longlived`` epoch share."""

    env: object
    orchestrator: object
    rec: Recorder
    tracer: object
    digest: object
    tally: Tally = field(default_factory=Tally)
    urls: dict[int, str] = field(default_factory=dict)  # op index -> history URL
    doc_json: dict[int, str] = field(default_factory=dict)  # op index -> pipeline JSON


class LongLived(Workload):
    """One environment and one orchestrator serve every op of an epoch."""

    name = "longlived"
    epoch_ops = 500
    mix = {"run": 0.6, "reproduce": 0.2, "query": 0.1, "fetch": 0.1}
    warm_runs = 10

    def plan(self, epoch: int):
        return self.inputs(epoch).plan(self.epoch_ops, self.mix, self.warm_runs)

    def run_epoch(self, epoch, rec, tracer, digest) -> None:
        cr = self.cr
        plan = self.plans.pop(epoch, None) or self.plan(epoch)
        env = cr.provider.SimCloud()
        st = _Epoch(env, cr.runtime.Orchestrator(env), rec, tracer, digest)
        for index, (kind, spec) in enumerate(plan):
            getattr(self, f"_{kind}")(index, spec, st)
        if epoch == 0:
            self.state_bytes = self.save_state_size(env)

    def _run(self, index, spec, st: _Epoch):
        result, error, elapsed = timed(
            st.tracer, self._op_id(), lambda: self.request(spec, st.env, st.orchestrator)
        )
        if error is not None:
            st.rec.add("run", elapsed, [describe(error)])
            return
        doc, outcome, report = result
        st.rec.add("run", elapsed,
                    self.check_outcome(st.env, outcome, spec.expected_state, spec.history))
        if spec.history:
            st.tally.add(outcome.instance_id, spec.provider, spec.table, spec.engine,
                         spec.mode, spec.expected_state)
            st.urls[index] = outcome.history_url
            st.doc_json[index] = doc.to_json()
        if st.digest is not None:
            self.digest_outcome(st.digest, st.env, outcome, report)

    def _reproduce(self, index, spec, st: _Epoch):
        cr = self.cr
        if spec.target not in st.urls:
            st.rec.add("reproduce", NOT_RUN, [f"target op {spec.target} left no URL"])
            return
        url = st.urls[spec.target]
        overrides = cr.reproducer.OverrideSet(
            personal_text=spec.personal,
            resources_text=spec.resources,
            application_text=spec.application,
            target_provider=spec.target_provider,
        )
        result, error, elapsed = timed(st.tracer, self._op_id(), lambda: cr.reproducer.reproduce(
            st.env, url, overrides, mode=spec.mode,
            poll_window=Fraction(spec.poll_window or 10),  # read in sdk mode only
            record_history=spec.history,
        ))
        if error is not None:
            st.rec.add("reproduce", elapsed, [describe(error)])
            return
        outcome = result.outcome
        problems = self.check_outcome(st.env, outcome, "Completed", spec.history)
        if result.reproduction_mode != spec.kind:
            problems.append(f"classified {result.reproduction_mode}, expected {spec.kind}")
        if spec.kind == "identical" and (
            cr.caam.generate_pipeline(result.request).to_json() != st.doc_json[spec.target]
        ):
            problems.append("identical reproduction compiled a different pipeline")
        st.rec.add("reproduce", elapsed, problems)
        if spec.history:
            st.tally.add(outcome.instance_id, spec.provider, spec.table, spec.engine,
                         spec.mode, "Completed")
            st.urls[index] = outcome.history_url
        if st.digest is not None:
            report = cr.metrics.measure(outcome, st.env.ledger)
            self.digest_outcome(st.digest, st.env, outcome, report)

    def _query(self, index, spec, st: _Epoch):
        cr = self.cr
        filters = dict(spec.filters)
        result, error, elapsed = timed(st.tracer, self._op_id(), lambda: cr.history.HistoryStore(
            st.env, spec.provider, spec.store, spec.table).query(filters))
        if error is not None:
            st.rec.add("query", elapsed, [describe(error)])
            return
        got = [row["execution_id"] for row in result]
        expected = st.tally.matching(spec.table, spec.filters, [spec.provider])
        st.rec.add("query", elapsed, [] if got == expected else [
            f"{filters} on {spec.provider}/{spec.table}: {len(got)} rows, expected {len(expected)}"])
        if st.digest is not None:
            st.digest.update(json.dumps(result, sort_keys=True).encode())

    def _fetch(self, index, spec, st: _Epoch):
        cr = self.cr
        if spec.target not in st.urls:
            st.rec.add("fetch", NOT_RUN, [f"target op {spec.target} left no URL"])
            return
        url = st.urls[spec.target]

        def op():
            provider_name, store, execution_id = cr.history.parse_url(url)
            table = (cr.history.find_record_table(st.env, provider_name, execution_id)
                     or cr.config_model.DEFAULTS["reproduce_database"])
            return cr.history.HistoryStore(st.env, provider_name, store, table).fetch(url)

        fetched, error, elapsed = timed(st.tracer, self._op_id(), op)
        if error is not None:
            st.rec.add("fetch", elapsed, [describe(error)])
            return
        problems = []
        if tuple(sorted(fetched.config or ())) != tuple(cr.history.CONFIG_ENTRY_NAMES):
            problems.append(f"config entries {sorted(fetched.config or ())}")
        if fetched.record.get("history_url") != url or fetched.result is None:
            problems.append("record or result bundle does not match the URL")
        st.rec.add("fetch", elapsed, problems)
        if st.digest is not None:
            st.digest.update(json.dumps(fetched.record, sort_keys=True).encode())
            for name in sorted(fetched.config or ()):
                st.digest.update(fetched.config[name])


class CliSession(Workload):
    """In-process ``cloudrerun`` commands against one state directory that
    setup seeds with earlier runs; each epoch restores that seeded state."""

    name = "cli_session"
    epoch_ops = 50
    seeded_runs = 200
    # Commands that save state (run, reproduce) take 2-4 times as long as
    # those that only load it; at 70% the median lies well inside the slow
    # group instead of in the gap between the two.
    mix = {"run": 0.5, "reproduce": 0.2, "fetch": 0.15, "query": 0.15}

    def setup(self) -> None:
        cr = self.cr
        self.state_dir = self.workdir / "state"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.input_dir = self.workdir / "inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        inputs = self.inputs("seed-runs")
        env = cr.provider.SimCloud()
        orchestrator = cr.runtime.Orchestrator(env)
        self.seed_runs: dict[int, gen.RunSpec] = {}
        self.seed_archived: list[int] = []
        self.seed_urls: dict[int, str] = {}
        self.seed_tally = Tally()
        for index in range(self.seeded_runs):
            spec = inputs.run()
            _, outcome, _ = self.request(spec, env, orchestrator)
            if outcome.state.value != spec.expected_state:
                raise RuntimeError(f"seeded run {index} ended {outcome.state.value}")
            self.seed_runs[index] = spec
            if spec.history:
                self.seed_tally.add(outcome.instance_id, spec.provider, spec.table, spec.engine,
                                    spec.mode, spec.expected_state)
                if not spec.fails:
                    self.seed_archived.append(index)
                    self.seed_urls[index] = outcome.history_url
        self.state_file = self.state_dir / cr.cli.STATE_FILE
        env.save_state(self.state_file)
        self.snapshot = self.state_file.read_bytes()
        self.plans = {0: self.plan(0)}
        self.cli(["history", "--url", self.seed_urls[self.seed_archived[0]], "--json"])

    def plan(self, epoch: int):
        return self.inputs(epoch).plan(
            self.epoch_ops, self.mix, warm_runs=0,
            first_index=self.seeded_runs, runs=self.seed_runs,
            archived=self.seed_archived, status_queries=True,
        )

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cr.cli.main(argv + ["--state-dir", str(self.state_dir)])
        return code, out.getvalue(), err.getvalue()

    def write_input(self, name: str, text: Optional[str]) -> list[str]:
        if text is None:
            return []
        path = self.input_dir / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        return [f"--{name}", str(path)]

    @staticmethod
    def mode_args(mode: str, poll_window: int, history: bool) -> list[str]:
        args = ["--mode", mode]
        if mode == "sdk":
            args += ["--poll-window", str(poll_window)]
        if not history:
            args.append("--no-history")
        return args + ["--json"]

    def argv(self, kind, spec, urls) -> tuple[list[str], int]:
        """The command line for one op and the exit code it should return."""
        if kind == "run":
            return (["run"] + self.write_input("resources", spec.resources)
                    + self.write_input("application", spec.application)
                    + self.write_input("personal", spec.personal)
                    + self.mode_args(spec.mode, spec.poll_window, spec.history),
                    1 if spec.fails else 0)
        if kind == "reproduce":
            argv = (["reproduce", urls[spec.target]]
                    + self.write_input("personal", spec.personal)
                    + self.write_input("resources", spec.resources)
                    + self.write_input("application", spec.application))
            if spec.target_provider:
                argv += ["--target-provider", spec.target_provider]
            return argv + self.mode_args(spec.mode, spec.poll_window, spec.history), 0
        if kind == "fetch":
            return ["history", "--url", urls[spec.target], "--json"], 0
        argv = ["history"]
        for key, value in spec.filters:
            argv += [f"--{key}", value]
        return argv + ["--store", spec.store, "--table", spec.table, "--json"], 0

    def run_epoch(self, epoch, rec, tracer, digest) -> None:
        plan = self.plans.pop(epoch, None) or self.plan(epoch)
        self.state_file.write_bytes(self.snapshot)
        urls = dict(self.seed_urls)
        tally = self.seed_tally.copy()
        for offset, (kind, spec) in enumerate(plan):
            index = self.seeded_runs + offset
            if kind in ("reproduce", "fetch") and spec.target not in urls:
                rec.add("cli", NOT_RUN, [f"target op {spec.target} left no URL"])
                continue
            argv, expected_code = self.argv(kind, spec, urls)
            result, error, elapsed = timed(tracer, self._op_id(), lambda: self.cli(argv))
            if error is not None:
                rec.add("cli", elapsed, [describe(error)])
                continue
            code, out, err = result
            try:
                problems = ([] if code == expected_code else [f"exit {code}: {err.strip()}"]) or (
                    self.check(kind, spec, json.loads(out), index, urls, tally))
            except ValueError:
                problems = [f"{kind} printed no JSON: {out[:200]!r}"]
            rec.add("cli", elapsed, problems)
            if digest is not None:
                digest.update(out.encode())
        for problem in self.check_state(tally):
            rec.fail(f"state: {problem}")
        if epoch == 0:
            self.state_bytes = self.state_file.stat().st_size
            if digest is not None:
                digest.update(self.state_file.read_bytes())

    def check(self, kind, spec, payload, index, urls, tally) -> list[str]:
        if kind in ("run", "reproduce"):
            expected = spec.expected_state if kind == "run" else "Completed"
            if payload["state"] != expected:
                return [f"{kind} ended {payload['state']}, expected {expected}"]
            if spec.history:
                urls[index] = payload["history_url"]
                tally.add(payload["instance_id"], spec.provider, spec.table, spec.engine,
                          spec.mode, expected)
            return []
        if kind == "fetch":
            if payload["config_entries"] != list(self.cr.history.CONFIG_ENTRY_NAMES):
                return [f"config entries {payload['config_entries']}"]
            return [] if payload["url"] == urls[spec.target] else ["fetched another record"]
        filters = dict(spec.filters)
        providers = [filters["provider"]] if "provider" in filters else list(gen.PROVIDERS)
        expected = tally.matching(spec.table, spec.filters, providers)
        got = [row["execution_id"] for row in payload]
        return [] if got == expected else [
            f"history {filters} on {spec.table}: {len(got)} rows, expected {len(expected)}"]

    def check_state(self, tally: Tally) -> list[str]:
        """After an epoch: nothing billable is live and every record's status
        is the one its run ended in."""
        env = self.cr.provider.SimCloud.load_state(self.state_file)
        problems = []
        for name in gen.PROVIDERS:
            inventory = env.provider(name).inventory()
            if inventory["clusters"] or inventory["networks"]:
                problems.append(f"{name} inventory not empty: {inventory}")
        open_scopes = sorted({e.scope for e in env.ledger.open_entries()})
        if open_scopes:
            problems.append(f"open ledger scopes {open_scopes}")
        for r in tally.records:
            rows = env.provider(r["provider"]).db_query(
                r["table"], {"execution_id": r["execution_id"]}, BENCH_SCOPE)
            if [row.get("status") for row in rows] != [r["status"]]:
                problems.append(f"record {r['execution_id']} status {rows and rows[0].get('status')}")
        return problems


WORKLOADS = {w.name: w for w in (OneShot, LongLived, CliSession)}
