"""Event-triggered pipeline lifecycle over the simulated cloud.

A deployed pipeline moves through

    Submitted -> Provisioning -> SoftwareSetup -> Executing -> Exporting
              -> Terminating -> Completed

with Failed reachable from any non-terminal state.  Progress is driven by
events: hardware readiness triggers software setup, software readiness
triggers analytics, the first analytics output object triggers export, and
export completion triggers termination.

Delivery is at-least-once, so processing is made exactly-once by two
mechanisms: the bus drops events whose id was already seen, and one state
guard runs each step only in the state it belongs to, turning
distinct-but-late events into no-ops.  The four pipeline functions are one
step table, from function name to that state and the step's work; the same
guard runs every stage completion and turns a stage fault into a failed run.

``Orchestrator.run`` runs both execution modes, which share all stage
logic and the environment's one event bus.  Serverless mode acts on each
event as it arrives.  SDK mode polls on a fixed tick grid anchored at
submission and acts on each event at the first tick at or after it, so the
wall-clock difference between the modes is exactly the sum of per-stage
alignment residues.  However a run ends, it removes its trigger rules from
the bus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .caam import EXPORT_PREFIX, FUNCTION_NAMES, TRIGGER_TABLE, PipelineDocument, SCHEMA_VERSION
from .config_model import AbstractRequest, parse_abstract_request
from .engines import capture_engine_config
from .errors import (
    AnalyticsFailure,
    CloudRerunError,
    DeploymentRejected,
    MalformedValue,
)
from .history import HistoryStore
from .simcloud.provider import Cluster, EventBus, InstalledRule, SimCloud
from .simcloud.workload import parse_workload, workload_duration, workload_result

__all__ = [
    "ExecutionState",
    "STAGES",
    "WORKSPACE_STORE",
    "InstalledRule",
    "EventBus",
    "PipelineInstance",
    "ExecutionOutcome",
    "Orchestrator",
]

WORKSPACE_STORE = "analytics-workspace"


class ExecutionState(str, Enum):
    SUBMITTED = "Submitted"
    PROVISIONING = "Provisioning"
    SOFTWARE_SETUP = "SoftwareSetup"
    EXECUTING = "Executing"
    EXPORTING = "Exporting"
    TERMINATING = "Terminating"
    COMPLETED = "Completed"
    FAILED = "Failed"


TERMINAL_STATES = (ExecutionState.COMPLETED, ExecutionState.FAILED)
# A run in one of these states starts no further stage.
ENDING_STATES = (ExecutionState.TERMINATING,) + TERMINAL_STATES

# Stage names used as timing keys, in lifecycle order.
STAGES = ("Provisioning", "SoftwareSetup", "Executing", "Exporting", "Terminating")


@dataclass
class PipelineInstance:
    instance_id: str
    provider_name: str
    doc: PipelineDocument
    request: AbstractRequest
    mode: str
    history: Optional[HistoryStore]  # None: the run keeps no history
    poll_window: Optional[Fraction] = None
    extra_parameters: dict = field(default_factory=dict)

    state: ExecutionState = ExecutionState.SUBMITTED
    submitted_at: Optional[Fraction] = None
    ended_at: Optional[Fraction] = None
    failure: Optional[str] = None
    transitions: list[tuple[Fraction, str, str]] = field(default_factory=list)

    cluster: Optional[Cluster] = None
    network_id: Optional[str] = None
    result_keys: list[str] = field(default_factory=list)
    record: Optional[dict] = None  # as last stored

    @property
    def history_url(self) -> Optional[str]:
        return None if self.record is None else self.record["history_url"]

    @property
    def source(self) -> str:
        return f"{self.provider_name}:instance:{self.instance_id}"

    @property
    def stage_timings(self) -> dict[str, tuple[Fraction, Fraction]]:
        """Each finished stage, from the transition into it to the next one."""
        return {
            stage: (start, end)
            for (start, _, stage), (end, _, _) in zip(self.transitions, self.transitions[1:])
        }

    @property
    def node_count(self) -> int:
        return self.request.resources.provider_block(self.provider_name).instance_number

    @property
    def engine(self) -> str:
        return self.request.resources.bigdata_engine.value


def _timings_json(timings: dict[str, tuple[Fraction, Fraction]]) -> dict[str, list[str]]:
    """Stage timings as written to an outcome and to a history record."""
    return {name: [str(start), str(end)] for name, (start, end) in timings.items()}


@dataclass(frozen=True)
class ExecutionOutcome:
    instance_id: str
    provider: str
    engine: str
    mode: str
    state: ExecutionState
    submitted_at: Fraction
    ended_at: Fraction
    stage_timings: dict[str, tuple[Fraction, Fraction]]
    result_keys: tuple[str, ...]
    history_url: Optional[str]
    record: Optional[dict]
    failure: Optional[str]

    @property
    def duration_s(self) -> Fraction:
        return self.ended_at - self.submitted_at

    def to_json(self) -> str:
        payload = {
            "instance_id": self.instance_id,
            "provider": self.provider,
            "engine": self.engine,
            "mode": self.mode,
            "state": self.state.value,
            "submitted_at": str(self.submitted_at),
            "ended_at": str(self.ended_at),
            "duration_s": str(self.duration_s),
            "stage_timings": _timings_json(self.stage_timings),
            "result_keys": list(self.result_keys),
            "history_url": self.history_url,
            "failure": self.failure,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _field(entry, key: str):
    """``entry[key]`` of a document entry, or None when the entry is not an
    object or has no such key; None is in no expected row."""
    return entry.get(key) if isinstance(entry, dict) else None


def _same_rows(rows: list, expected: tuple) -> bool:
    """Whether ``rows`` are the distinct ``expected`` rows in any order, by equality alone."""
    return len(rows) == len(expected) and all(row in rows for row in expected)


class Orchestrator:
    """Deploys pipeline documents on the environment's bus and runs them to
    completion in either execution mode."""

    def __init__(self, env: SimCloud) -> None:
        self.env = env
        self.bus = env.bus
        # Each pipeline function: the state its step runs in, and the work.
        self._steps = {
            "software_env_setup": (ExecutionState.PROVISIONING, self._software_setup),
            "run_analytics": (ExecutionState.SOFTWARE_SETUP, self._analytics),
            "export_execution": (ExecutionState.EXECUTING, self._export),
            "terminate_resources": (ExecutionState.EXPORTING, self._enter_terminating),
        }

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        doc: PipelineDocument,
        mode: str = "serverless",
        record_history: bool = True,
        poll_window: Optional[Fraction] = None,
        extra_parameters: Optional[dict] = None,
    ) -> PipelineInstance:
        if mode not in ("serverless", "sdk"):
            raise MalformedValue(f"execution mode must be serverless or sdk, got {mode!r}")
        window = None
        if mode == "sdk":
            try:
                window = Fraction(poll_window)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                pass
            if window is None or window <= 0:
                raise MalformedValue(f"poll window must be a positive rational, got {poll_window!r}")
        body = doc.body
        if body.get("schema_version") != SCHEMA_VERSION:
            raise DeploymentRejected(
                f"unsupported schema_version {body.get('schema_version')!r}"
            )
        if doc.provider not in self.env.providers:
            raise DeploymentRejected(f"no simulated provider {doc.provider!r}")
        names = [_field(f, "name") for f in body.get("functions", [])]
        # The document's rules are the rules that run: the trigger table.
        rules = [
            tuple(_field(r, key) for key in ("function", "source_kind", "event", "match"))
            for r in body.get("rules", [])
        ]
        if not (_same_rows(names, FUNCTION_NAMES) and _same_rows(rules, TRIGGER_TABLE)):
            raise DeploymentRejected(
                f"expected exactly the functions {FUNCTION_NAMES} and the trigger "
                f"rules {TRIGGER_TABLE}, got {names} and {rules}"
            )
        archive = body.get("archive", {})
        if not isinstance(archive, dict):
            raise DeploymentRejected(f"archive section is not an object: {archive!r}")
        request = doc.compiled_request()
        if request is None:
            try:
                request = parse_abstract_request(
                    archive["resources_ini"], archive["application_ini"], archive["personal_ini"]
                )
            except (KeyError, CloudRerunError) as exc:
                raise DeploymentRejected(f"archive section unusable: {exc}") from exc

        history = None
        if record_history:
            reproduce = request.resources.reproduce
            history = HistoryStore(
                self.env, doc.provider, reproduce.reproduce_storage, reproduce.reproduce_database
            )
        instance = PipelineInstance(
            instance_id=self.env.provider(doc.provider).next_id("exec"),
            provider_name=doc.provider,
            doc=doc,
            request=request,
            mode=mode,
            history=history,
            poll_window=window,
            extra_parameters=dict(extra_parameters or {}),
        )
        self._install_rules(instance)
        return instance

    def _install_rules(self, instance: PipelineInstance) -> None:
        """Bind each row of the trigger table to ``instance``."""
        storage_source = f"{instance.provider_name}:objectstore:{WORKSPACE_STORE}"
        for function, kind, event, match in TRIGGER_TABLE:
            source = instance.source
            if kind == "storage":
                source, event = storage_source, f"{event}{instance.instance_id}/"
            rule = InstalledRule(function, instance.instance_id, source, event, match)
            self.bus.install(rule, lambda _e, f=function: self._step(instance, f))

    # -- state machine -----------------------------------------------------

    def _transition(self, inst: PipelineInstance, to: ExecutionState) -> None:
        now = self.env.clock.now()
        inst.transitions.append((now, inst.state.value, to.value))
        inst.state = to

    def _step(self, inst: PipelineInstance, function: str) -> bool:
        """Run the step of ``function`` if the run is in the state it runs in."""
        state, work = self._steps[function]
        return self._guarded(inst, state, lambda: work(inst))

    def _guarded(self, inst: PipelineInstance, state: ExecutionState, work: Callable[[], None]) -> bool:
        """The one state guard: run ``work`` only in ``state``, and fail the
        run on a fault it raises.  Returns whether the work ran."""
        if inst.state is not state:
            return False
        try:
            work()
        except CloudRerunError as exc:
            self._fail(inst, exc)
        return True

    def _after(self, inst: PipelineInstance, delay: Fraction, then: Callable[[], None]) -> None:
        """Complete the current stage after ``delay``, unless the run has left it."""
        state = inst.state
        self.env.schedule_in(delay, lambda: self._guarded(inst, state, then))

    def start(self, inst: PipelineInstance) -> None:
        """Begin hardware provisioning."""
        if inst.state is not ExecutionState.SUBMITTED:
            return
        inst.submitted_at = self.env.clock.now()
        self._transition(inst, ExecutionState.PROVISIONING)
        provider = self.env.provider(inst.provider_name)
        block = inst.request.resources.provider_block(inst.provider_name)
        network_id = provider.create_network(inst.instance_id)
        inst.network_id = network_id
        try:
            inst.cluster = provider.create_cluster(
                block.instance_type, block.instance_number, network_id, inst.instance_id
            )
        except CloudRerunError:
            provider.delete_network(network_id)
            inst.network_id = None
            raise

    def _software_setup(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.SOFTWARE_SETUP)
        self.env.provider(inst.provider_name).resolve_image(inst.request.application.docker_image)
        delay = self.env.delays.image_pull_s + self.env.delays.bootstrap_cmd_s * len(
            inst.request.application.bootstrap
        )
        self._after(inst, delay, lambda: self.env.emit(inst.source, "SoftwareEnvReady", "lifecycle"))

    def _analytics(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.EXECUTING)
        profile = parse_workload(inst.request.application.flags)
        duration = workload_duration(profile, inst.node_count)
        self._after(inst, duration, lambda: self._write_results(inst, profile))

    def _write_results(self, inst: PipelineInstance, profile) -> None:
        if profile.exit_code != 0:
            raise AnalyticsFailure(f"command exited with code {profile.exit_code}")
        provider = self.env.provider(inst.provider_name)
        base = workload_result(
            profile.seed,
            inst.request.application.command,
            inst.request.application.data_uri,
            inst.node_count,
            profile.parallelism,
        )
        prefix = f"{EXPORT_PREFIX}{inst.instance_id}/"
        keys = []
        for k in range(inst.node_count):
            key = f"{prefix}part-{k:04d}"
            chunk = base + k.to_bytes(4, "big")
            provider.storage_put(WORKSPACE_STORE, key, chunk, inst.instance_id)
            keys.append(key)
        manifest = {
            "parts": [key.rsplit("/", 1)[1] for key in keys],
            "nodes": inst.node_count,
            "parallelism": profile.parallelism,
        }
        provider.storage_put(
            WORKSPACE_STORE,
            f"{prefix}manifest.json",
            (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
            inst.instance_id,
        )
        inst.result_keys = keys + [f"{prefix}manifest.json"]

    def _export(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.EXPORTING)

        # A run without history has nothing to archive: no plan, no delay.
        plan = None
        if inst.history is not None:
            provider = self.env.provider(inst.provider_name)
            entries = {
                key.rsplit("/", 1)[1]: provider.storage_get(WORKSPACE_STORE, key, inst.instance_id)
                for key in inst.result_keys
            }
            plan = inst.history.plan_export(
                inst.instance_id,
                inst.doc.body["archive"],
                inst.request.personal,
                capture_engine_config(inst.request),
                entries,
                list(inst.request.application.data_uri),
            )

        def done() -> None:
            if plan is not None:
                inst.record = inst.history.commit_export(inst.instance_id, plan, self._record(inst))
            self.env.emit(inst.source, "ExportComplete", "lifecycle")

        delay = Fraction(0) if plan is None else self.env.delays.history_op_s * plan.op_count
        self._after(inst, delay, done)

    def _enter_terminating(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.TERMINATING)
        # Not through the guard: a fault in teardown or in the final record
        # is not a stage fault, and escapes the run.
        self.env.schedule_in(self.env.delays.terminate_s, lambda: self._finish(inst))

    def _finish(self, inst: PipelineInstance) -> None:
        """The one place a run ends: release its resources, retire its
        rules, set its end and write its final record."""
        provider = self.env.provider(inst.provider_name)
        if inst.cluster is not None:
            provider.delete_cluster(inst.cluster.cluster_id)
        if inst.network_id is not None:
            provider.delete_network(inst.network_id)
        final = ExecutionState.FAILED if inst.failure else ExecutionState.COMPLETED
        self._transition(inst, final)
        self.bus.retire(inst.instance_id)
        # An sdk run ends at the poll that observes termination, not at the
        # termination instant itself.
        now = self.env.clock.now()
        inst.ended_at = self._poll_tick(inst, now) if inst.mode == "sdk" else now
        if inst.history is not None:
            self._finalize_record(inst)

    def _fail(self, inst: PipelineInstance, exc: Exception) -> None:
        if inst.failure is None:
            inst.failure = f"{type(exc).__name__}: {exc}"
        if inst.state not in ENDING_STATES:
            self._enter_terminating(inst)

    # -- history glue ------------------------------------------------------

    def _record(self, inst: PipelineInstance) -> dict:
        """The run's history record, pending until the run has ended; from
        then on it carries the final status, the end and the stage timings."""
        block = inst.request.resources.provider_block(inst.provider_name)
        parameters = {
            "instance_type": block.instance_type,
            "instance_number": block.instance_number,
            "region": block.region,
            "docker_image": inst.request.application.docker_image,
            "command": inst.request.application.command,
        }
        if inst.poll_window is not None:
            parameters["poll_window_s"] = str(inst.poll_window)
        parameters.update(inst.extra_parameters)
        ended = inst.state in TERMINAL_STATES
        record = {
            "provider": inst.provider_name,
            "engine": inst.engine,
            "mode": inst.mode,
            "status": inst.state.value if ended else "Completed-pending-termination",
            "submitted_at": str(inst.submitted_at),
            "parameters": parameters,
            "failure": inst.failure,
        }
        if ended:
            record["ended_at"] = str(inst.ended_at)
            record["stage_timings"] = _timings_json(inst.stage_timings)
        return record

    def _finalize_record(self, inst: PipelineInstance) -> None:
        """Write the final record over the stored one, or over empty archive
        fields when the run archived nothing."""
        stored = inst.history.get_record(inst.instance_id) or {
            "config_key": None,
            "result_key": None,
            "input_keys": [],
        }
        inst.record = inst.history.put_record(inst.instance_id, {**stored, **self._record(inst)})

    # -- execution modes ---------------------------------------------------

    def _poll_tick(self, inst: PipelineInstance, ready_at: Fraction) -> Fraction:
        """Advance to the first poll tick at or after ``ready_at``."""
        ticks = math.ceil((ready_at - inst.submitted_at) / inst.poll_window)
        tick = inst.submitted_at + max(0, ticks) * inst.poll_window
        if tick > self.env.clock.now():
            self.env.clock.advance_to(tick)
        return tick

    def _run_next_completion(self, inst: PipelineInstance) -> None:
        """Run the earliest pending completion; with none pending, the run is stalled."""
        if not self.env.run_next_completion():
            raise CloudRerunError(f"{inst.instance_id} stalled in state {inst.state.value}")

    def _outcome(self, inst: PipelineInstance) -> ExecutionOutcome:
        return ExecutionOutcome(
            instance_id=inst.instance_id,
            provider=inst.provider_name,
            engine=inst.engine,
            mode=inst.mode,
            state=inst.state,
            submitted_at=inst.submitted_at,
            ended_at=inst.ended_at,
            stage_timings=inst.stage_timings,
            result_keys=tuple(inst.result_keys),
            history_url=inst.history_url,
            record=inst.record,
            failure=inst.failure,
        )

    def run(
        self,
        doc: PipelineDocument,
        mode: str = "serverless",
        poll_window: Optional[Fraction] = None,
        record_history: bool = True,
        extra_parameters: Optional[dict] = None,
    ) -> ExecutionOutcome:
        """Deploy ``doc`` and drive it to its end; only sdk runs poll."""
        return self._drive(self.deploy(doc, mode, record_history, poll_window, extra_parameters))

    def run_serverless(
        self,
        doc: PipelineDocument,
        record_history: bool = True,
        extra_parameters: Optional[dict] = None,
    ) -> ExecutionOutcome:
        return self.run(doc, "serverless", None, record_history, extra_parameters)

    def run_sdk(
        self,
        doc: PipelineDocument,
        poll_window: Fraction = Fraction(10),
        record_history: bool = True,
        extra_parameters: Optional[dict] = None,
    ) -> ExecutionOutcome:
        return self.run(doc, "sdk", poll_window, record_history, extra_parameters)

    def _drive(self, inst: PipelineInstance) -> ExecutionOutcome:
        """Start a deployed run and drive it to its end: dispatch each queued
        event, and run the next completion when none is queued.  An sdk run
        that has not begun ending acts on an event at the first poll tick at
        or after it.  However the drive ends, it retires the run's rules."""
        try:
            self.start(inst)
            queue = self.bus.queue
            while inst.state not in TERMINAL_STATES:
                if not queue:
                    self._run_next_completion(inst)
                    continue
                event = queue.popleft()
                if inst.mode == "sdk" and inst.state not in ENDING_STATES:
                    self._poll_tick(inst, event.time)
                self.bus.dispatch(event)
        finally:
            self.bus.retire(inst.instance_id)
        return self._outcome(inst)
