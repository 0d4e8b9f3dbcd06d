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
logic and the environment's one event bus, and returns the ended run's
``PipelineInstance``.  Serverless mode acts on each event as it arrives.
SDK mode polls on a fixed tick grid anchored at submission and acts on each
event at the first tick at or after it, so the wall-clock difference between
the modes is exactly the sum of per-stage alignment residues.  However a run
ends, it removes its trigger rules from the bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from .caam import EXPORT_PREFIX, TRIGGER_TABLE, PipelineDocument
from .config_model import AbstractRequest, parse_abstract_request
from .engines import capture_engine_config
from .errors import (
    AnalyticsFailure,
    CloudRerunError,
    DeploymentRejected,
    MalformedValue,
)
from .history import HistoryStore, indented_json
from .simcloud.clock import as_fraction
from .simcloud.provider import EventBus, InstalledRule, SimCloud
from .simcloud.workload import workload_duration, workload_result

WORKSPACE_STORE = "analytics-workspace"
# The sdk poll window, in seconds, of a run that names none.
SDK_POLL_WINDOW = Fraction(10)


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
    """One run; ``Orchestrator.run`` returns it once it is Completed or Failed."""

    instance_id: str
    provider: str
    doc: PipelineDocument = field(repr=False)
    request: AbstractRequest = field(repr=False)
    mode: str
    history: Optional[HistoryStore] = field(repr=False)  # None: the run keeps no history
    poll_window: Optional[Fraction] = None
    extra_parameters: dict = field(default_factory=dict)

    state: ExecutionState = ExecutionState.SUBMITTED
    submitted_at: Optional[Fraction] = None
    ended_at: Optional[Fraction] = None
    failure: Optional[str] = None
    transitions: list[tuple[Fraction, str, str]] = field(default_factory=list)

    cluster_id: Optional[str] = None
    network_id: Optional[str] = None
    result_keys: tuple[str, ...] = ()
    record: Optional[dict] = None  # as last stored

    @property
    def history_url(self) -> Optional[str]:
        return None if self.record is None else self.record["history_url"]

    @property
    def source(self) -> str:
        return f"{self.provider}:instance:{self.instance_id}"

    @property
    def stage_timings(self) -> dict[str, tuple[Fraction, Fraction]]:
        """Each finished stage, from the transition into it to the next one."""
        return {
            stage: (start, end)
            for (start, _, stage), (end, _, _) in zip(self.transitions, self.transitions[1:])
        }

    @property
    def node_count(self) -> int:
        return self.request.resources.provider_block(self.provider).instance_number

    @property
    def engine(self) -> str:
        return self.request.resources.bigdata_engine.value

    @property
    def duration_s(self) -> Fraction:
        return self.ended_at - self.submitted_at

    def _facts(self) -> dict:
        """What an outcome and a history record both say of the run; the end
        and the stage timings once it has ended."""
        facts = {
            "provider": self.provider,
            "engine": self.engine,
            "mode": self.mode,
            "submitted_at": str(self.submitted_at),
            "failure": self.failure,
        }
        if self.state in TERMINAL_STATES:
            facts["ended_at"] = str(self.ended_at)
            facts["stage_timings"] = {
                stage: [str(start), str(end)] for stage, (start, end) in self.stage_timings.items()
            }
        return facts

    def payload(self) -> dict:
        """The outcome as JSON values: what ``to_json`` writes and a
        ``--json`` report holds."""
        return {
            **self._facts(),
            "instance_id": self.instance_id,
            "state": self.state.value,
            "duration_s": str(self.duration_s),
            "result_keys": list(self.result_keys),
            "history_url": self.history_url,
        }

    def to_json(self) -> str:
        return indented_json(self.payload()) + "\n"

    def history_record(self) -> dict:
        """The run's history record, pending until the run has ended; from
        then on it carries the final status, the end and the stage timings."""
        block = self.request.resources.provider_block(self.provider)
        parameters = {
            "instance_type": block.instance_type,
            "instance_number": block.instance_number,
            "region": block.region,
            "docker_image": self.request.application.docker_image,
            "command": self.request.application.command,
        }
        if self.poll_window is not None:
            parameters["poll_window_s"] = str(self.poll_window)
        parameters.update(self.extra_parameters)
        return {
            **self._facts(),
            "status": self.state.value if self.state in TERMINAL_STATES else "Completed-pending-termination",
            "parameters": parameters,
        }


def poll_window_for(mode: str, poll_window) -> Optional[Fraction]:
    """The poll window of a run in ``mode``: None for serverless, a positive
    rational for sdk.  Any other mode, or an sdk window that is not a
    positive rational, raises MalformedValue."""
    if mode == "serverless":
        return None
    if mode != "sdk":
        raise MalformedValue(f"execution mode must be serverless or sdk, got {mode!r}")
    try:
        window = as_fraction(poll_window)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        window = Fraction(0)
    if window <= 0:
        raise MalformedValue(f"poll window must be a positive rational, got {poll_window!r}")
    return window


class Orchestrator:
    """Deploys pipeline documents on the environment's bus and runs them to
    completion in either execution mode."""

    def __init__(self, env: SimCloud) -> None:
        self.env = env
        self.bus: EventBus = env.bus

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        doc: PipelineDocument,
        mode: str = "serverless",
        poll_window: Optional[Fraction] = None,
        record_history: bool = True,
        extra_parameters: Optional[dict] = None,
    ) -> PipelineInstance:
        window = poll_window_for(mode, poll_window)
        archive = doc.archive
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
        if request.personal.cloud_provider != doc.provider:
            raise DeploymentRejected(
                f"archived request runs on {request.personal.cloud_provider!r}, not {doc.provider!r}"
            )

        history = None
        if record_history:
            reproduce = request.resources.reproduce
            history = HistoryStore(
                self.env, doc.provider, reproduce.reproduce_storage, reproduce.reproduce_database
            )
        instance = PipelineInstance(
            instance_id=self.env.provider(doc.provider).next_id("exec"),
            provider=doc.provider,
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
        """Bind each row of the trigger table, and its function's step, to ``instance``."""
        storage_source = f"{instance.provider}:objectstore:{WORKSPACE_STORE}"
        for function, kind, event, match in TRIGGER_TABLE:
            source = instance.source
            if kind == "storage":
                source, event = storage_source, f"{event}{instance.instance_id}/"
            rule = InstalledRule(function, instance.instance_id, source, event, match)
            state, work = _STEPS[function]
            self.bus.install(rule, partial(self._guarded, instance, state, partial(work, self, instance)))

    # -- state machine -----------------------------------------------------

    def _transition(self, inst: PipelineInstance, to: ExecutionState) -> None:
        now = self.env.clock.now()
        inst.transitions.append((now, inst.state.value, to.value))
        inst.state = to

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
        provider = self.env.provider(inst.provider)
        block = inst.request.resources.provider_block(inst.provider)
        inst.network_id = provider.create_network(inst.instance_id)
        try:
            inst.cluster_id = provider.create_cluster(block.instance_type, block.instance_number, inst.instance_id)
        except CloudRerunError:
            self._release(inst)
            raise

    def _software_setup(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.SOFTWARE_SETUP)
        self.env.provider(inst.provider).resolve_image()
        delay = self.env.delays.image_pull_s + self.env.delays.bootstrap_cmd_s * len(
            inst.request.application.bootstrap
        )
        self._after(inst, delay, lambda: self.env.emit(inst.source, "SoftwareEnvReady", "lifecycle"))

    def _analytics(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.EXECUTING)
        profile = inst.request.application.workload
        duration = workload_duration(profile, inst.node_count)
        self._after(inst, duration, lambda: self._write_results(inst, profile))

    def _write_results(self, inst: PipelineInstance, profile) -> None:
        if profile.exit_code != 0:
            raise AnalyticsFailure(f"command exited with code {profile.exit_code}")
        provider = self.env.provider(inst.provider)
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
            (indented_json(manifest) + "\n").encode(),
            inst.instance_id,
        )
        inst.result_keys = (*keys, f"{prefix}manifest.json")

    def _export(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.EXPORTING)

        # A run without history has nothing to archive: no plan, no delay.
        plan = None
        if inst.history is not None:
            provider = self.env.provider(inst.provider)
            entries = {
                key.rsplit("/", 1)[1]: provider.storage_get(WORKSPACE_STORE, key, inst.instance_id)
                for key in inst.result_keys
            }
            plan = inst.history.plan_export(
                inst.instance_id,
                inst.doc.archive,
                inst.request.personal,
                capture_engine_config(inst.request),
                entries,
                list(inst.request.application.data_uri),
            )

        def done() -> None:
            if plan is not None:
                inst.record = inst.history.commit_export(inst.instance_id, plan, inst.history_record())
            self.env.emit(inst.source, "ExportComplete", "lifecycle")

        delay = Fraction(0) if plan is None else self.env.delays.history_op_s * plan.op_count
        self._after(inst, delay, done)

    def _enter_terminating(self, inst: PipelineInstance) -> None:
        self._transition(inst, ExecutionState.TERMINATING)
        # Not through the guard: a fault in teardown or in the final record
        # is not a stage fault, and escapes the run.
        self.env.schedule_in(self.env.delays.terminate_s, lambda: self._finish(inst))

    def _release(self, inst: PipelineInstance) -> None:
        """Delete the run's cluster, then its network: whichever it holds."""
        provider = self.env.provider(inst.provider)
        if inst.cluster_id is not None:
            provider.delete_cluster(inst.cluster_id)
        if inst.network_id is not None:
            provider.delete_network(inst.network_id)

    def _finish(self, inst: PipelineInstance) -> None:
        """The one place a run ends: release its resources, retire its
        rules, set its end at the poll tick that observes it and write its
        final record."""
        self._release(inst)
        final = ExecutionState.FAILED if inst.failure else ExecutionState.COMPLETED
        self._transition(inst, final)
        self.bus.retire(inst.instance_id)
        inst.ended_at = self._poll_tick(inst, self.env.clock.now())
        if inst.history is not None:
            # Over the stored record, or over empty archive fields when the
            # run archived nothing.
            stored = inst.history.get_record(inst.instance_id) or {
                "config_key": None, "result_key": None, "input_keys": [],
            }
            inst.record = inst.history.put_record(inst.instance_id, {**stored, **inst.history_record()})

    def _fail(self, inst: PipelineInstance, exc: Exception) -> None:
        if inst.failure is None:
            inst.failure = f"{type(exc).__name__}: {exc}"
        if inst.state not in ENDING_STATES:
            self._enter_terminating(inst)

    # -- execution modes ---------------------------------------------------

    def _poll_tick(self, inst: PipelineInstance, ready_at: Fraction) -> Fraction:
        """The instant a run observes what is ready at ``ready_at``: that one
        for a run without a poll window (serverless), else the first poll
        tick at or after it, which the clock advances to.  So an sdk run ends
        at the poll that observes termination, not at termination itself."""
        start, window = inst.submitted_at, inst.poll_window
        if window is None:
            return ready_at
        # ceil((ready_at - start) / window) and start + ticks * window, on
        # numerators and denominators: exact, without Fraction operators.
        numerator = (ready_at.numerator * start.denominator
                     - start.numerator * ready_at.denominator) * window.denominator
        ticks = max(0, -(-numerator // (ready_at.denominator * start.denominator * window.numerator)))
        tick = Fraction(start.numerator * window.denominator
                        + ticks * window.numerator * start.denominator,
                        start.denominator * window.denominator)
        if tick > self.env.clock.now():
            self.env.clock.advance_to(tick)
        return tick

    def run(
        self,
        doc: PipelineDocument,
        mode: str = "serverless",
        poll_window: Optional[Fraction] = None,
        record_history: bool = True,
        extra_parameters: Optional[dict] = None,
    ) -> PipelineInstance:
        """Deploy ``doc`` and drive it to its end; only sdk runs poll."""
        return self._drive(self.deploy(doc, mode, poll_window, record_history, extra_parameters))

    def run_serverless(self, doc: PipelineDocument, record_history: bool = True) -> PipelineInstance:
        return self.run(doc, "serverless", None, record_history)

    def run_sdk(
        self, doc: PipelineDocument, poll_window: Fraction = SDK_POLL_WINDOW, record_history: bool = True
    ) -> PipelineInstance:
        return self.run(doc, "sdk", poll_window, record_history)

    def _drive(self, inst: PipelineInstance) -> PipelineInstance:
        """Start a deployed run and drive it to its end: dispatch each queued
        event, and run the next completion when none is queued.  A run with a
        poll window that has not begun ending acts on an event at the first
        poll tick at or after it.  A run that ends has its rules retired by
        ``_finish``; one that raises, here."""
        try:
            self.start(inst)
            queue = self.bus.queue
            while inst.state not in TERMINAL_STATES:
                if queue:
                    event = queue.popleft()
                    if inst.poll_window is not None and inst.state not in ENDING_STATES:
                        self._poll_tick(inst, event.time)
                    self.bus.dispatch(event)
                elif not self.env.run_next_completion():
                    raise CloudRerunError(f"{inst.instance_id} stalled in state {inst.state.value}")
        except BaseException:
            self.bus.retire(inst.instance_id)
            raise
        return inst


# Each pipeline function: the state its step runs in, and its work.
_STEPS = {
    "software_env_setup": (ExecutionState.PROVISIONING, Orchestrator._software_setup),
    "run_analytics": (ExecutionState.SOFTWARE_SETUP, Orchestrator._analytics),
    "export_execution": (ExecutionState.EXECUTING, Orchestrator._export),
    "terminate_resources": (ExecutionState.EXPORTING, Orchestrator._enter_terminating),
}
