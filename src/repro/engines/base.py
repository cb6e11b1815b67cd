"""Shared engine infrastructure.

All three engines (Pado, Spark, Spark-checkpoint) run on the same simulated
cluster substrate so that JCT differences come only from engine mechanisms,
mirroring the paper's single-testbed comparison (§5.1). This module provides
the cluster/program/result types, the template ``run()`` flow, and
:class:`MasterBase` — the harness that wires the :mod:`repro.core.exec`
substrate (task state machine, fetch service, output registry) under each
engine's master so the master contributes only policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.cluster.events import Simulator
from repro.cluster.manager import ResourceManager
from repro.cluster.network import NetworkModel
from repro.cluster.resources import (NodeSpec, RESERVED_NODE,
                                     TRANSIENT_NODE)
from repro.cluster.storage import InputStore
from repro.core.exec import records
from repro.core.exec.attempt import TaskAttempt, TaskState
from repro.core.exec.executor import SimExecutor
from repro.core.exec.fetch import FetchService, RetryPolicy
from repro.core.exec.outputs import OutputRegistry
from repro.core.exec.records import AttemptTable
from repro.core.runtime.scheduler import SchedulingPolicy, TaskScheduler
from repro.dataflow.dag import LogicalDAG, SourceKind
from repro.errors import ExecutionError
from repro.obs.events import Relaunch, TaskStart
from repro.obs.tracer import Tracer, active_collector
from repro.trace.models import EvictionRate, LifetimeModel

__all__ = ["ClusterConfig", "Program", "JobResult", "SimExecutor",
           "SimContext", "EngineBase", "MasterBase",
           "partition_payload_size"]


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated cluster a job runs on (§5.1.1).

    The paper's default setup is 40 transient plus 5 reserved containers
    (the engine master runs on one additional reserved node, which we do not
    simulate except in master-failure tests).
    """

    num_reserved: int = 5
    num_transient: int = 40
    eviction: Union[EvictionRate, LifetimeModel] = EvictionRate.NONE
    reserved_spec: NodeSpec = RESERVED_NODE
    transient_spec: NodeSpec = TRANSIENT_NODE
    task_overhead_seconds: float = 0.2
    #: §6 extension: heterogeneous transient pools with estimated lifetimes
    #: (overrides ``num_transient``/``eviction`` for the transient side).
    transient_pools: Optional[tuple] = None

    def lifetime_model(self) -> LifetimeModel:
        if isinstance(self.eviction, EvictionRate):
            return self.eviction.lifetime_model()
        return self.eviction

    @property
    def effective_num_transient(self) -> int:
        if self.transient_pools is not None:
            return sum(pool.count for pool in self.transient_pools)
        return self.num_transient


@dataclass
class Program:
    """A dataflow program submitted to an engine."""

    dag: LogicalDAG
    name: str = "job"

    def __post_init__(self) -> None:
        self.dag.validate()

    def is_real(self) -> bool:
        """True when every operator carries an executable function."""
        return all(op.fn is not None for op in self.dag.operators)


@dataclass
class JobResult:
    """Metrics of one job execution — the quantities Figures 5-9 plot."""

    engine: str
    workload: str
    completed: bool
    jct_seconds: float
    original_tasks: int
    launched_tasks: int
    evictions: int
    bytes_input_read: int = 0
    bytes_shuffled: int = 0
    bytes_pushed: int = 0
    bytes_checkpointed: int = 0
    outputs: Optional[dict[str, dict[int, list]]] = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def relaunched_tasks(self) -> int:
        return max(0, self.launched_tasks - self.original_tasks)

    @property
    def relaunched_ratio(self) -> float:
        """Relaunched tasks over original tasks (bottom panels of Figs 5-7)."""
        if self.original_tasks == 0:
            return 0.0
        return self.relaunched_tasks / self.original_tasks

    @property
    def jct_minutes(self) -> float:
        return self.jct_seconds / 60.0

    def collected(self, op_name: str) -> list:
        """All output records of an operator (real-data runs only)."""
        if self.outputs is None or op_name not in self.outputs:
            raise ExecutionError(f"no recorded output for {op_name!r}")
        parts = self.outputs[op_name]
        return [record for idx in sorted(parts) for record in parts[idx]]


class SimContext:
    """Everything a single job execution shares: simulator, cluster, stores,
    and byte counters."""

    def __init__(self, cluster: ClusterConfig, seed: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.cluster = cluster
        self.sim = Simulator()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.net = NetworkModel(self.sim, tracer=tracer)
        self.input_store = InputStore(self.sim, self.net)
        self.rm = ResourceManager(self.sim, cluster.lifetime_model(),
                                  self.rng,
                                  reserved_spec=cluster.reserved_spec,
                                  transient_spec=cluster.transient_spec,
                                  tracer=tracer)
        self.tasks_launched = 0
        self.bytes_pushed = 0
        self.bytes_shuffled = 0
        self.bytes_checkpointed = 0

    def allocate(self, num_reserved: int) -> None:
        """Bring the configured cluster online (homogeneous transient pool
        or the §6 heterogeneous pools)."""
        if self.cluster.transient_pools is not None:
            self.rm.allocate_pools(num_reserved,
                                   list(self.cluster.transient_pools))
        else:
            self.rm.allocate(num_reserved, self.cluster.num_transient)

    def register_inputs(self, program: Program) -> None:
        """Materialize every READ source's partitions in the input store."""
        for op in program.dag.operators:
            if op.source_kind is not SourceKind.READ:
                continue
            partitions = getattr(op.fn, "partitions", None)
            if partitions is not None:
                for index, records in enumerate(partitions):
                    size = len(records) * op.record_bytes
                    self.input_store.put((op.input_ref, index), size,
                                         payload=list(records))
            elif op.partition_bytes is not None:
                for index, size in enumerate(op.partition_bytes):
                    self.input_store.put((op.input_ref, index), size)
            else:
                raise ExecutionError(
                    f"read source {op.name!r} has neither real partitions "
                    f"nor partition sizes")


class MasterBase:
    """Shared harness under the engine masters.

    Wires the :mod:`repro.core.exec` substrate — scheduler, output
    registry, fetch service — and implements the task lifecycle steps every
    engine repeats identically: slot assignment, the fetch barrier start,
    compute scheduling, relaunch tracing, and eviction-time relaunching.
    Subclasses supply policy through the hooks at the bottom.
    """

    #: Executor whose tasks bypass scheduler slots (the Spark driver).
    slotless: Optional[SimExecutor] = None

    def __init__(self, ctx: SimContext,
                 scheduling_policy: Optional[SchedulingPolicy] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.net = ctx.net
        self.tracer = ctx.tracer
        self.scheduler = TaskScheduler(scheduling_policy)
        self.scheduler.attach_tracer(ctx.tracer, self.sim)
        #: One packed attempt table shared by every task of the job (see
        #: :mod:`repro.core.exec.records`); subclasses pass it into task
        #: construction.
        self.attempts = AttemptTable()
        self.outputs = OutputRegistry(tracer=ctx.tracer, sim=self.sim)
        self.fetch = FetchService(
            input_store=ctx.input_store, scheduler=self.scheduler,
            on_ready=self._start_compute, after_abort=self._after_abort,
            trace_relaunch=self._trace_relaunch, retry=retry_policy)
        self.job_outputs: dict[str, dict[int, list]] = {}
        self.completed = False
        self.jct: Optional[float] = None

    # ------------------------------------------------------------------
    # shared lifecycle steps

    def _trace_relaunch(self, task: TaskAttempt, cause: str,
                        cause_ref: Optional[int] = None) -> None:
        """Emit a Relaunch for the attempt being abandoned (call *before*
        ``task.reset()`` so the attempt number still names it)."""
        if self.tracer is not None:
            name, index = task.key
            self.tracer.emit(Relaunch(
                time=self.sim.now, stage=self.stage_index_of(task),
                task=name, index=index, attempt=task.attempt, cause=cause,
                cause_ref=cause_ref))

    def _resource_label(self, executor: SimExecutor) -> str:
        if executor is self.slotless:
            return "driver"
        return "reserved" if executor.is_reserved else "transient"

    def _task_assigned(self, task: TaskAttempt,
                       executor: SimExecutor) -> None:
        """Scheduler callback: a slot was acquired for this task."""
        if task.status != TaskState.QUEUED:
            # Stale queue entry (the task was reset and resubmitted, or
            # assigned via an earlier duplicate entry): give the slot back.
            if executor is not self.slotless:
                executor.release_slot()
                self.scheduler.slot_released()
            return
        task.begin_attempt(executor)
        self.ctx.tasks_launched += 1
        if self.tracer is not None:
            name, index = task.key
            self.tracer.emit(TaskStart(
                time=self.sim.now, stage=self.stage_index_of(task),
                task=name, index=index, attempt=task.attempt,
                executor=executor.executor_id,
                resource=self._resource_label(executor)))
        attempt = task.attempt
        fetches, count = self._plan_fetches(task, attempt)
        self.fetch.begin(task, fetches, count)

    def _start_compute(self, task: TaskAttempt) -> None:
        """All inputs arrived: run the fused chain on the executor."""
        task.status = TaskState.COMPUTING
        spec = task.executor.container.spec
        total = sum(task.input_bytes_by_parent.values())
        seconds = task.chain.compute_seconds(total, spec.cpu_throughput)
        seconds += self.ctx.cluster.task_overhead_seconds
        attempt = task.attempt
        self._schedule_compute(task, seconds,
                               lambda: self._compute_done(task, attempt))

    def _schedule_compute(self, task: TaskAttempt, seconds: float,
                          callback: Callable[[], None]) -> None:
        self.sim.schedule_at(self.sim.now + seconds, callback)

    def _relaunch_lost(self, executor: SimExecutor, cause: str,
                       cause_ref: Optional[int] = None,
                       within: Optional[Callable[[TaskAttempt], bool]] = None,
                       ) -> None:
        """Relaunch the active attempts scheduled on a lost executor.

        Sweeps only the attempt table's per-executor row bucket instead of
        every task of every stage; ``within`` optionally restricts the
        sweep (Pado relaunches stage by stage, interleaved with its
        per-stage output purges). Rows come back in task-creation order,
        matching the full scans this replaced.
        """
        table = self.attempts
        rows = table.rows_on(executor.executor_id)
        if not rows:
            return
        status = table.status
        for row in rows:
            if not records.FETCHING <= status[row] <= records.DELIVERING:
                continue
            task = table.tasks[row]
            if task.executor is not executor:
                continue
            if within is not None and not within(task):
                continue
            self._trace_relaunch(task, cause, cause_ref=cause_ref)
            task.reset()
            self._resubmit(task)

    def _find_executor(self, container) -> Optional[SimExecutor]:
        executor = self.scheduler.executor_for(container.container_id)
        if executor is not None and executor.container is container:
            return executor
        for executor in self._extra_executors():
            if executor.container is container:
                return executor
        return None

    # ------------------------------------------------------------------
    # policy hooks

    def stage_index_of(self, task: TaskAttempt) -> int:
        """Trace stage index for a task."""
        raise NotImplementedError

    def _plan_fetches(self, task: TaskAttempt,
                      attempt: int) -> tuple[list[Callable[[], None]], int]:
        """The input fetches this attempt must complete before computing.

        Returns ``(fetches, count)``: the callables to issue and the
        number of barrier arrivals they produce (a callable may issue a
        whole bulk fetch plan, so ``count >= len(fetches)``)."""
        raise NotImplementedError

    def _compute_done(self, task: TaskAttempt, attempt: int) -> None:
        """The chain finished computing; deliver its output."""
        raise NotImplementedError

    def _resubmit(self, task: TaskAttempt) -> None:
        """Requeue a reset task per engine semantics."""
        raise NotImplementedError

    def _after_abort(self, task: TaskAttempt, failed_parents: set) -> None:
        """An attempt was abandoned by the fetch service; default: requeue
        immediately."""
        self._resubmit(task)

    def _extra_executors(self):
        """Executors outside the scheduler pool (e.g. Pado's reserved)."""
        return ()

    # ------------------------------------------------------------------
    # result hooks (consumed by EngineBase._finish)

    def original_task_count(self) -> int:
        raise NotImplementedError

    def result_extras(self) -> dict[str, Any]:
        return {}


class EngineBase:
    """Template for engines; subclasses implement :meth:`_start`."""

    name = "engine"

    def run(self, program: Program, cluster: ClusterConfig,
            seed: int = 0, time_limit: Optional[float] = None,
            max_events: int = 20_000_000,
            tracer: Optional[Tracer] = None,
            trace_label: Optional[str] = None) -> JobResult:
        """Execute ``program`` on a fresh simulated cluster.

        ``time_limit`` caps simulated time (the paper cuts Spark's ALS runs
        at 90 minutes); a job still running at the limit is reported with
        ``completed=False`` and ``jct_seconds=time_limit``.

        ``tracer`` records structured events (see :mod:`repro.obs`); when
        omitted and a trace collector is installed, a fresh labelled tracer
        is drawn from it, otherwise the run is untraced and the hot path
        pays only null checks. ``trace_label`` overrides the default
        ``engine-program-seed`` collector label (multi-tenant runs label
        traces ``tenant/job_id`` instead).
        """
        if tracer is None:
            collector = active_collector()
            if collector is not None:
                tracer = collector.new_tracer(
                    trace_label if trace_label is not None
                    else f"{self.name}-{program.name}-seed{seed}")
        ctx = SimContext(cluster, seed, tracer=tracer)
        ctx.register_inputs(program)
        state = self._start(ctx, program)
        # The eviction/replacement schedule keeps the event heap non-empty
        # forever, so we step until the job reports completion (or the
        # simulated-time limit / event budget runs out).
        executed = 0
        while not self._is_done(state):
            next_time = ctx.sim.peek_time()
            if math.isinf(next_time):
                break  # no more events: the job cannot make progress
            if time_limit is not None and next_time > time_limit:
                break
            ctx.sim.step()
            executed += 1
            if executed > max_events:
                raise ExecutionError(
                    f"{self.name}: exceeded {max_events} events; "
                    f"likely livelock")
        return self._finish(ctx, program, state, time_limit)

    # ------------------------------------------------------------------
    # subclass hooks

    def _start(self, ctx: SimContext, program: Program) -> Any:
        raise NotImplementedError

    def _is_done(self, master: Any) -> bool:
        return master.completed

    def _finish(self, ctx: SimContext, program: Program, master: Any,
                time_limit: Optional[float]) -> JobResult:
        """Assemble the JobResult from the context counters and the
        master's :meth:`MasterBase.original_task_count` /
        :meth:`MasterBase.result_extras` hooks."""
        completed = master.completed
        if completed:
            jct = master.jct
        else:
            jct = time_limit if time_limit is not None else ctx.sim.now
        return JobResult(
            engine=self.name,
            workload=program.name,
            completed=completed,
            jct_seconds=float(jct if jct is not None else ctx.sim.now),
            original_tasks=master.original_task_count(),
            launched_tasks=ctx.tasks_launched,
            evictions=ctx.rm.evictions,
            bytes_input_read=ctx.input_store.bytes_read,
            bytes_shuffled=ctx.bytes_shuffled,
            bytes_pushed=ctx.bytes_pushed,
            bytes_checkpointed=ctx.bytes_checkpointed,
            outputs=master.job_outputs if program.is_real() else None,
            extras=master.result_extras(),
        )


def partition_payload_size(records: list, record_bytes: int) -> int:
    """Simulated byte size of a real partition."""
    return len(records) * record_bytes
