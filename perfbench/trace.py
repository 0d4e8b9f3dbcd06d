"""CPU-time spans around the public functions of each cloudrerun layer.

The tracer patches functions and methods from outside the program and
restores every original afterwards.  A module-level function is replaced
in every ``cloudrerun`` module that holds it, because modules import each
other's functions by name (``runtime.parse_abstract_request``,
``reproducer.find_record_table`` and so on).

A span is recorded only while an op is open, so work the benchmark does
between ops (output checks, digests) never counts.  Spans stay in memory
until the run ends.  Counters read the size of the structure a call scans
(``len(bus.rules)``, rows in a table, ledger entries) when the call starts;
they describe the work the current algorithm faces, so a change that
replaces a scan with an index moves the span's self time, not the counter.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# Thread CPU time, the clock the end-to-end metrics use: unlike the wall
# clock it leaves out time the hypervisor takes from the VM.
_clock = time.thread_time_ns


# -- hooks ------------------------------------------------------------------
# Each pre hook runs before the span starts and may return a context for its
# post hook, which runs after the span ends.  Hooks read program internals.
# If a later version renames or reshapes one, the hook raises; the tracer
# counts the failure against the span and the run reports it as incorrect,
# so a stale counter never reads as a gain.


def _dispatch_pre(counters, args):
    bus, event = args[0], args[1]
    duplicate = event.event_id in bus.seen
    rules = bus.rules
    dropped = len(bus.dropped)
    if duplicate:
        counters["dispatch.duplicates"] += 1
    else:
        counters["dispatch.rules_scanned"] += len(rules)
        counters["dispatch.rules_matched"] += sum(
            1 for rule, _ in rules if rule.matches(event)
        )
    return dropped


def _dispatch_post(counters, dropped_before, args, result):
    counters["dispatch.dropped"] += len(args[0].dropped) - dropped_before


def _deliver_pre(counters, args):
    counters["deliver.subscribers"] += len(args[0].subscribers)


def _table_rows(counters_key):
    def pre(counters, args):
        counters[counters_key] += len(args[0].tables.get(args[1], ()))

    return pre


def _db_query_post(counters, ctx, args, result):
    counters["db_query.rows_returned"] += len(result)


def _ledger_entries(counters_key):
    def pre(counters, args):
        counters[counters_key] += len(args[0].entries)

    return pre


def _find_record_table_pre(counters, args):
    tables = args[0].provider(args[1]).tables
    counters["find_record_table.rows"] += sum(len(rows) for rows in tables.values())


def _save_state_post(counters, ctx, args, result):
    counters["save_state.bytes"] += os.path.getsize(args[1])


@dataclass(frozen=True)
class Target:
    module: str  # relative to the cloudrerun package
    qualname: str  # "function" or "Class.method"
    span: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


def _t(module, qualname, span=None, pre=None, post=None):
    return Target(module, qualname, span or f"{module}.{qualname}", pre, post)


SERIALIZE = "config_model.serialize"

TARGETS = (
    _t("config_model", "parse_abstract_request"),
    _t("config_model", "parse_personal"),
    _t("config_model", "serialize_resources", SERIALIZE),
    _t("config_model", "serialize_application", SERIALIZE),
    _t("config_model", "serialize_personal", SERIALIZE),
    _t("caam", "generate_pipeline"),
    _t("engines", "capture_engine_config"),
    _t("simcloud.workload", "parse_workload"),
    _t("runtime", "Orchestrator.deploy"),
    _t("runtime", "Orchestrator.run_serverless"),
    _t("runtime", "Orchestrator.run_sdk"),
    _t("runtime", "EventBus.dispatch", pre=_dispatch_pre, post=_dispatch_post),
    _t("simcloud.provider", "SimCloud.deliver", pre=_deliver_pre),
    _t("simcloud.provider", "SimCloud.run_next_completion"),
    _t("simcloud.provider", "SimProvider.storage_put"),
    _t("simcloud.provider", "SimProvider.storage_get"),
    _t("simcloud.provider", "SimProvider.db_put", pre=_table_rows("db_put.rows")),
    _t("simcloud.provider", "SimProvider.db_query", pre=_table_rows("db_query.rows"),
       post=_db_query_post),
    _t("simcloud.provider", "SimCloud.to_state"),
    _t("simcloud.provider", "SimCloud.from_state"),
    _t("simcloud.provider", "SimCloud.save_state", post=_save_state_post),
    _t("simcloud.provider", "SimCloud.load_state"),
    _t("simcloud.ledger", "CostLedger.close_entry", pre=_ledger_entries("close_entry.entries")),
    _t("simcloud.ledger", "CostLedger.open_entries", pre=_ledger_entries("open_entries.entries")),
    _t("simcloud.ledger", "CostLedger.compute_cost", pre=_ledger_entries("compute_cost.entries")),
    _t("simcloud.ledger", "CostLedger.breakdown", pre=_ledger_entries("breakdown.entries")),
    _t("history", "HistoryStore.plan_export"),
    _t("history", "HistoryStore.commit_export"),
    _t("history", "HistoryStore.get_record"),
    _t("history", "HistoryStore.query"),
    _t("history", "HistoryStore.fetch"),
    _t("history", "find_record_table", pre=_find_record_table_pre),
    _t("reproducer", "reproduce"),
    _t("metrics", "measure"),
    _t("cli", "main"),
)

OP_SPAN = "op"
PACKAGE = "cloudrerun"


class Tracer:
    """Span recorder.  ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, op id, hook overhead ns)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []
        # "span: error" -> calls whose counter hook raised
        self.hook_failures: dict[str, int] = defaultdict(int)

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append((OP_SPAN, _clock(), None, -1, op_id, 0))

    def end_op(self) -> None:
        index = self._stack[0]
        name, start, _, parent, op_id, overhead = self.spans[index]
        self.spans[index] = (name, start, _clock(), parent, op_id, overhead)
        self._stack = []
        self._op = None
        self.ops += 1

    # -- wrapping ----------------------------------------------------------------

    def hook_failed(self, span: str, exc: Exception) -> None:
        self.hook_failures[f"{span}: {type(exc).__name__}: {exc}"] += 1

    def wrap(self, span: str, func: Callable, pre=None, post=None) -> Callable:
        spans, counters = self.spans, self.counters
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            t0 = _clock()
            ctx, hooked = None, True
            if pre:
                try:
                    ctx = pre(counters, args)
                except Exception as exc:
                    tracer.hook_failed(span, exc)
                    hooked = False
            index = len(spans)
            parent = tracer._stack[-1]
            spans.append(None)
            tracer._stack.append(index)
            t1 = _clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                t2 = _clock()
                tracer._stack.pop()
                spans[index] = (span, t1, t2, parent, tracer._op, t1 - t0)
                raise
            t2 = _clock()
            tracer._stack.pop()
            if post and hooked:
                try:
                    post(counters, ctx, args, result)
                except Exception as exc:
                    tracer.hook_failed(span, exc)
            t3 = _clock()
            spans[index] = (span, t1, t2, parent, tracer._op, (t1 - t0) + (t3 - t2))
            return result

        traced.__wrapped__ = func
        return traced

    @staticmethod
    def _modules() -> list:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for target in TARGETS:
            module = sys.modules[f"{PACKAGE}.{target.module}"]
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(target.span, raw.__func__, target.pre, target.post))
                else:
                    patched = self.wrap(target.span, raw, target.pre, target.post)
                setattr(owner, attr, patched)
                self._patches.append((owner, attr, raw))
                continue
            original = getattr(module, attr)
            patched = self.wrap(target.span, original, target.pre, target.post)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, patched)
                        self._patches.append((holder, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op id."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of each span: its duration minus its children's durations
    and the hook time spent around them.  Calls are synchronous, so the
    children of one span never overlap."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, overhead in spans:
        if parent >= 0:
            own[parent] -= (end - start) + overhead
    return own


@dataclass
class Summary:
    ops: int
    calls: dict[str, int]
    self_us: dict[str, float]
    counters: dict[str, float]

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0


def summarize(tracer: Tracer) -> Summary:
    calls: dict[str, int] = defaultdict(int)
    self_us: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_us[span[0]] += own / 1000
    return Summary(tracer.ops, calls, self_us, tracer.counters)


def _calls_per_op(span):
    return "calls/op", "lower", lambda s: s.per_op(s.calls[span])


def _self_us_per_op(span):
    return "us/op", "lower", lambda s: s.per_op(s.self_us[span])


def _per_call(counter, span, unit):
    return unit, "lower", lambda s: s.ratio(s.counters[counter], s.calls[span])


_P = "simcloud.provider."
_L = "simcloud.ledger.CostLedger."
_H = "history.HistoryStore."


def _layer_metrics():
    metrics = {
        "config_model.parse_abstract_request.calls_per_op": _calls_per_op("config_model.parse_abstract_request"),
        "config_model.parse_abstract_request.self_us_per_op": _self_us_per_op("config_model.parse_abstract_request"),
        "config_model.parse_personal.calls_per_op": _calls_per_op("config_model.parse_personal"),
        "config_model.serialize.self_us_per_op": _self_us_per_op(SERIALIZE),
        "caam.generate_pipeline.self_us_per_op": _self_us_per_op("caam.generate_pipeline"),
        "engines.capture_engine_config.self_us_per_op": _self_us_per_op("engines.capture_engine_config"),
        "simcloud.workload.parse_workload.self_us_per_op": _self_us_per_op("simcloud.workload.parse_workload"),
        "runtime.Orchestrator.deploy.self_us_per_op": _self_us_per_op("runtime.Orchestrator.deploy"),
        "runtime.EventBus.dispatch.calls_per_op": _calls_per_op("runtime.EventBus.dispatch"),
        "runtime.EventBus.dispatch.self_us_per_op": _self_us_per_op("runtime.EventBus.dispatch"),
        "runtime.EventBus.rules_scanned_per_dispatch": _per_call(
            "dispatch.rules_scanned", "runtime.EventBus.dispatch", "rules/call"),
        "runtime.EventBus.match_ratio": ("ratio", "higher", lambda s: s.ratio(
            s.counters["dispatch.rules_matched"], s.counters["dispatch.rules_scanned"])),
        "runtime.EventBus.duplicates_per_op": ("events/op", "lower",
                                               lambda s: s.per_op(s.counters["dispatch.duplicates"])),
        "runtime.EventBus.dropped_per_op": ("events/op", "lower",
                                            lambda s: s.per_op(s.counters["dispatch.dropped"])),
        _P + "SimCloud.deliver.subscribers_per_event": _per_call(
            "deliver.subscribers", _P + "SimCloud.deliver", "subs/event"),
        _P + "SimCloud.run_next_completion.calls_per_op": _calls_per_op(_P + "SimCloud.run_next_completion"),
    }
    for op in ("storage_put", "storage_get"):
        metrics[f"{_P}SimProvider.{op}.calls_per_op"] = _calls_per_op(f"{_P}SimProvider.{op}")
        metrics[f"{_P}SimProvider.{op}.self_us_per_op"] = _self_us_per_op(f"{_P}SimProvider.{op}")
    for op in ("db_put", "db_query"):
        metrics[f"{_P}SimProvider.{op}.rows_scanned_per_call"] = _per_call(
            f"{op}.rows", f"{_P}SimProvider.{op}", "rows/call")
        metrics[f"{_P}SimProvider.{op}.self_us_per_op"] = _self_us_per_op(f"{_P}SimProvider.{op}")
    metrics[_P + "SimProvider.db_query.hit_ratio"] = ("ratio", "higher", lambda s: s.ratio(
        s.counters["db_query.rows_returned"], s.counters["db_query.rows"]))
    for op in ("to_state", "from_state", "save_state", "load_state"):
        metrics[f"{_P}SimCloud.{op}.self_us_per_op"] = _self_us_per_op(f"{_P}SimCloud.{op}")
    metrics[_P + "SimCloud.state_bytes"] = _per_call(
        "save_state.bytes", _P + "SimCloud.save_state", "B/save")
    for op in ("close_entry", "open_entries", "compute_cost", "breakdown"):
        metrics[f"{_L}{op}.entries_scanned_per_call"] = _per_call(
            f"{op}.entries", f"{_L}{op}", "entries/call")
        metrics[f"{_L}{op}.self_us_per_op"] = _self_us_per_op(f"{_L}{op}")
    for op in ("plan_export", "commit_export", "get_record", "query"):
        metrics[f"{_H}{op}.self_us_per_op"] = _self_us_per_op(f"{_H}{op}")
    metrics["history.find_record_table.rows_scanned_per_call"] = _per_call(
        "find_record_table.rows", "history.find_record_table", "rows/call")
    metrics["history.find_record_table.self_us_per_op"] = _self_us_per_op("history.find_record_table")
    metrics["reproducer.reproduce.self_us_per_op"] = _self_us_per_op("reproducer.reproduce")
    metrics["metrics.measure.self_us_per_op"] = _self_us_per_op("metrics.measure")
    metrics["cli.main.self_us_per_op"] = _self_us_per_op("cli.main")
    metrics["trace.spans_per_op"] = ("spans/op", "lower", lambda s: s.per_op(sum(s.calls.values())))
    return metrics


# name -> (unit, better, fn(Summary) -> value).  The tracing overhead metrics
# are computed by the runner, which times traced and untraced epochs.
LAYER_METRICS = _layer_metrics()
OVERHEAD_METRICS = {
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_values(summary: Summary) -> dict[str, tuple[float, str]]:
    return {name: (fn(summary), unit) for name, (unit, _, fn) in LAYER_METRICS.items()}
