"""The Pado master: stage execution, eviction tolerance, fault tolerance.

Orchestrates a compiled job on the simulated cluster (§3.2):

* stages run in topological order; for each stage the reserved-side receiver
  tasks are set up first, then the transient tasks are scheduled (§3.2.3);
* transient task outputs are pushed to reserved receivers the moment the
  task finishes computing — the task slot is released immediately and the
  push proceeds "on a separate thread" (§3.2.4);
* a task counts as done only after an output-commit message reaches the
  master; evictions relaunch exactly the uncommitted tasks of the running
  stage, never tasks of parent stages (§3.2.5);
* reserved-executor machine faults re-run the stages whose preserved outputs
  were lost, discovered lazily when a consumer's fetch misses (§3.2.6);
* optional task-input caching and task-output partial aggregation reduce the
  load on the small reserved side (§3.2.7).

The attempt lifecycle, fetch barrier, and output bookkeeping live in
:mod:`repro.core.exec` (shared with the Spark masters); this module adds
Pado's policy: push-to-reserved retention, receiver repair, and
lifetime-aware placement.

Partial aggregation affects simulated transfer sizes through the combiner's
``merged_size_bytes``; in real-data mode the routed records travel unmerged
inside the batch (the combine logic is associative, so merging at the
receiver — which the downstream operator does anyway — is semantically
identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.cluster.network import InfiniteEndpoint, TransferResult
from repro.core.compiler.fusion import FusedOperator
from repro.core.exec import (FetchResult, RetryPolicy, TaskAttempt,
                             TaskState)
from repro.core.runtime.aggregation import AggregationBuffer, Contribution
from repro.core.runtime.cache import LruCache
from repro.core.runtime.plan import (ExecutionPlan, InterChainEdge,
                                     PhysicalStage)
from repro.core.runtime.scheduler import SchedulingPolicy
from repro.dataflow.dag import (DependencyType, Edge, destination_indices,
                                route_output, route_sizes, source_indices,
                                transfer_fraction)
from repro.engines.base import (MasterBase, Program, SimContext,
                                SimExecutor)
from repro.errors import ExecutionError
from repro.obs.events import PredictedEviction, ProactivePush, StageEnd, \
    StageStart, TaskCommitted, TaskPushed, TaskStart


@dataclass(frozen=True)
class PadoRuntimeConfig:
    """Runtime knobs (§3.2.7 optimizations are on by default).

    The prediction knobs (all default-off) select the §6 lifetime
    extension: ``placement`` switches the compiler pass, ``predictor``
    names a :func:`repro.predict.base.make_predictor` model, and
    ``proactive_push`` arms the master's re-replication loop — every
    ``push_check_interval`` simulated seconds, local outputs sitting on
    containers whose predicted eviction probability within
    ``push_horizon`` exceeds ``push_threshold`` are copied to a reserved
    home ahead of the eviction (see docs/PREDICTION.md).
    """

    enable_caching: bool = True
    enable_partial_aggregation: bool = True
    aggregation_max_tasks: int = 2
    aggregation_max_delay: float = 30.0
    cache_fraction: float = 0.3
    scheduling_policy: Optional[SchedulingPolicy] = None
    progress_replication_interval: float = 30.0
    retry_policy: Optional[RetryPolicy] = None
    placement: str = "algorithm1"
    predictor: Optional[str] = None
    proactive_push: bool = False
    push_threshold: float = 0.4
    push_horizon: float = 120.0
    push_check_interval: float = 30.0


class _TransientTask(TaskAttempt):
    """State of one transient task across attempts."""

    def __init__(self, stage_run: "_StageRun", chain: FusedOperator,
                 index: int) -> None:
        super().__init__(stage_run.master.attempts)
        self.stage_run = stage_run
        self.chain = chain
        self.index = index
        self._reset_scratch()

    @property
    def key(self) -> tuple:
        return (self.chain.name, self.index)

    @property
    def weight(self) -> float:
        """Static compute weight of the fused chain — the §6 scheduling
        hint for lifetime-aware placement (heavier tasks cost more to lose
        to an eviction)."""
        return sum(op.cost.fixed_compute_seconds + op.cost.compute_factor
                   for op in self.chain.ops)

    def assign(self, executor: SimExecutor) -> None:
        """Called by the scheduler when a slot is acquired for this task."""
        self.stage_run.master._task_assigned(self, executor)

    def _reset_scratch(self) -> None:
        self.pending_deliveries: set = set()
        self.delivered_dsts: set = set()
        self.output_records: Optional[list] = None
        self.output_bytes = 0.0


class _ReservedTask(TaskAttempt):
    """State of one reserved receiver/compute task."""

    initial_state = TaskState.FETCHING  # placed directly, never queued

    def __init__(self, stage_run: "_StageRun", index: int) -> None:
        super().__init__(stage_run.master.attempts)
        self.stage_run = stage_run
        self.index = index
        self.expected: set = set()
        self.consumed_keys: set = set()  # producer keys at last DONE
        self._reset_scratch()

    @property
    def key(self) -> tuple:
        return ("__root__", self.index)

    def _reset_scratch(self) -> None:
        self.committed: set = set()
        self.arrived: dict[Hashable, tuple[float, Optional[list], str]] = {}
        self.boundary_outstanding = 0
        self.boundary_bytes_by_parent: dict[str, float] = {}
        self.boundary_payloads: dict[str, list] = {}


class _StageRun:
    """Runtime state of one physical stage."""

    WAITING = "waiting"
    RUNNING = "running"
    DONE = "done"

    def __init__(self, master: "PadoMaster", pstage: PhysicalStage) -> None:
        self.master = master
        self.pstage = pstage
        self.status = self.WAITING
        self.tasks: dict[tuple, _TransientTask] = {}
        self.root_tasks: list[_ReservedTask] = []
        self.local_outputs: dict[tuple, tuple[SimExecutor, float,
                                              Optional[list]]] = {}
        if pstage.has_reserved_root:
            for chain in pstage.transient_chains:
                for i in range(chain.parallelism):
                    self.tasks[(chain.name, i)] = _TransientTask(
                        self, chain, i)
            self.root_tasks = [_ReservedTask(self, i)
                               for i in range(pstage.root_chain.parallelism)]
        else:
            for chain in pstage.chains:
                for i in range(chain.parallelism):
                    self.tasks[(chain.name, i)] = _TransientTask(
                        self, chain, i)
        # One attempt-table group per run: live_count(group) == 0 is the
        # O(1) "no task of this stage can still contribute" check that
        # _maybe_flush_stage used to answer by scanning every task.
        self.group = master.attempts.new_group()
        for task in self.tasks.values():
            master.attempts.set_group(task.row, self.group)

    def chain_by_name(self, name: str) -> FusedOperator:
        for chain in self.pstage.chains:
            if chain.name == name:
                return chain
        raise ExecutionError(f"no chain {name!r} in stage {self.pstage.index}")


class PadoMaster(MasterBase):
    """Drives one job execution on a :class:`SimContext`."""

    def __init__(self, ctx: SimContext, program: Program,
                 plan: ExecutionPlan, config: PadoRuntimeConfig) -> None:
        super().__init__(ctx, scheduling_policy=config.scheduling_policy,
                         retry_policy=config.retry_policy)
        self.program = program
        self.plan = plan
        self.config = config
        self.master_endpoint = InfiniteEndpoint()
        self.sink_endpoint = InfiniteEndpoint()
        self.reserved_executors: list[SimExecutor] = []
        self._reserved_cursor = 0
        self.stage_runs = [_StageRun(self, ps) for ps in self.plan.stages]
        self._agg_buffers: dict[tuple, AggregationBuffer] = {}
        self._buffers_by_executor: dict[int, list[tuple]] = {}
        # Repair-time pinning of many-to-one routes: (stage, task key) -> dst.
        self._forced_mo_dst: dict[tuple, int] = {}
        self.commit_count = 0
        self.reserved_repairs = 0
        # Proactive re-replication state (enable_proactive_push). Replicas
        # are keyed (stage index, producer key) and hold the same
        # (executor, size, payload) shape as _StageRun.local_outputs, with
        # the executor a reserved one.
        self._push_predictor = None
        self._predicted: set[int] = set()
        self._replicas: dict[tuple, tuple] = {}
        self._replicating: set[tuple] = set()
        self.proactive_pushes = 0
        self.recomputes_avoided = 0
        self.predicted_evictions = 0
        # Progress metadata "replicated" for master fault tolerance (§3.2.6).
        self.replicated_done_stages: set[int] = set()
        self._snapshot_progress()

    # ==================================================================
    # MasterBase policy hooks

    def stage_index_of(self, task) -> int:
        return task.stage_run.pstage.index

    def _resubmit(self, task: _TransientTask) -> None:
        self._maybe_submit(task)

    def _extra_executors(self):
        return self.reserved_executors

    def original_task_count(self) -> int:
        return self.plan.total_tasks

    def result_extras(self) -> dict:
        extras = {
            "commits": self.commit_count,
            "reserved_repairs": self.reserved_repairs,
            "stages": len(self.stage_runs),
        }
        if self._push_predictor is not None:
            extras["proactive_pushes"] = self.proactive_pushes
            extras["recomputes_avoided"] = self.recomputes_avoided
            extras["predicted_evictions"] = self.predicted_evictions
        return extras

    # ==================================================================
    # startup and container management

    def start(self) -> None:
        self.ctx.rm.on_container(self._on_container)
        self.ctx.rm.on_eviction(self._on_container_lost)
        self.ctx.allocate(self.ctx.cluster.num_reserved)
        if not self.reserved_executors:
            raise ExecutionError("Pado needs at least one reserved container")
        for run in self.stage_runs:
            if not run.pstage.stage.parents:
                self._start_stage(run)

    def _on_container(self, container) -> None:
        executor = SimExecutor(container, self.sim, tracer=self.tracer)
        if self.config.enable_caching:
            capacity = container.spec.memory_bytes * self.config.cache_fraction
            executor.cache = LruCache(capacity)
        if container.is_reserved:
            self.reserved_executors.append(executor)
        else:
            self.scheduler.add_executor(executor)

    def _pick_reserved(self) -> SimExecutor:
        alive = [e for e in self.reserved_executors if e.alive]
        if not alive:
            raise ExecutionError("all reserved executors lost")
        self._reserved_cursor = (self._reserved_cursor + 1) % len(alive)
        return alive[self._reserved_cursor]

    # ==================================================================
    # proactive re-replication (predicted evictions)

    def enable_proactive_push(self, predictor) -> None:
        """Arm the predictor-driven re-replication loop.

        Every ``config.push_check_interval`` simulated seconds the master
        ranks live transient containers by predicted eviction probability
        within ``config.push_horizon`` and, for each container crossing
        ``config.push_threshold``, copies its retained local outputs to a
        reserved executor. When the eviction then lands, the replica is
        swapped into ``local_outputs`` and the producer never re-runs —
        the recompute is *avoided* rather than suffered (the lineage
        category ``recompute_avoided``).
        """
        self._push_predictor = predictor
        self.sim.schedule_at(self.sim.now + self.config.push_check_interval,
                             self._push_tick)

    def _push_tick(self) -> None:
        if self.completed:
            return
        predictor = self._push_predictor
        now = self.sim.now
        threshold = self.config.push_threshold
        horizon = self.config.push_horizon
        for container in predictor.risk_rank(
                self.ctx.rm.transient_containers(), now):
            age = max(0.0, now - container.launched_at)
            probability = predictor.eviction_probability(age, horizon)
            if probability < threshold:
                break  # ranked: everything after is safer still
            if container.container_id not in self._predicted:
                self._predicted.add(container.container_id)
                self.predicted_evictions += 1
                if self.tracer is not None:
                    self.tracer.emit(PredictedEviction(
                        time=now, container=container.container_id,
                        probability=probability, age=age))
            self._protect(container)
        self.sim.schedule_at(self.sim.now + self.config.push_check_interval,
                             self._push_tick)

    def _protect(self, container) -> None:
        """Replicate every local output held on an at-risk container."""
        executor = self._find_executor(container)
        if executor is None or not executor.alive:
            return
        # Aggregation batches buffered on the executor would die with it;
        # flush them out ahead of the predicted eviction.
        for key in list(self._buffers_by_executor.get(
                executor.executor_id, [])):
            buffer = self._agg_buffers.get(key)
            if buffer is not None and buffer.pending_count:
                buffer.flush()
        for run in self.stage_runs:
            if run.status is not _StageRun.RUNNING:
                continue
            stage_index = run.pstage.index
            # Sorted for reproducibility: replica transfers contend on
            # network ports, so issue order steers the simulation.
            for pkey in sorted(run.local_outputs):
                entry = run.local_outputs[pkey]
                if entry[0] is not executor:
                    continue
                rkey = (stage_index, pkey)
                if rkey in self._replicas or rkey in self._replicating:
                    continue
                if not self._replica_needed(run, pkey):
                    continue
                self._replicate(run, pkey, entry)

    def _replica_needed(self, run: _StageRun, pkey: tuple) -> bool:
        """Whether some intra-stage consumer has yet to pull this output.

        Once every consumer has its share on board, losing the retained
        copy costs nothing (nobody will call ``_ensure_local_output`` for
        it), so replicating it would only burn network the real fetches
        need.
        """
        producer = run.tasks.get(pkey)
        if producer is None:
            return False
        pstage = run.pstage
        for ice in pstage.consumers_of(producer.chain):
            if pstage.has_reserved_root and ice.consumer is pstage.root_chain:
                continue
            for cidx in route_sizes(ice.edge, pkey[1], 1.0):
                consumer = run.tasks.get((ice.consumer.name, cidx))
                if consumer is not None and consumer.status in (
                        TaskState.PENDING, TaskState.QUEUED,
                        TaskState.FETCHING):
                    return True
        return False

    def _replicate(self, run: _StageRun, pkey: tuple, entry: tuple) -> None:
        src_executor, size, payload = entry
        dst = self._pick_reserved()
        rkey = (run.pstage.index, pkey)
        self._replicating.add(rkey)

        def done(result: TransferResult) -> None:
            self._replicating.discard(rkey)
            if not result.ok:
                return  # source died mid-copy: the eviction path takes over
            if run.local_outputs.get(pkey) is not entry:
                return  # producer re-ran meanwhile; this copy is stale
            if not dst.alive:
                return
            self._replicas[rkey] = (dst, size, payload)
            self.proactive_pushes += 1
            self.ctx.bytes_pushed += int(size)
            if self.tracer is not None:
                self.tracer.emit(ProactivePush(
                    time=self.sim.now,
                    container=src_executor.container.container_id,
                    task=pkey[0], index=pkey[1], size_bytes=size,
                    executor=dst.executor_id))

        self.net.transfer(src_executor.endpoint, dst.endpoint, size, done)

    # ==================================================================
    # stage lifecycle

    def _start_stage(self, run: _StageRun) -> None:
        if run.status is not run.WAITING:
            return
        run.status = run.RUNNING
        pstage = run.pstage
        if self.tracer is not None:
            self.tracer.emit(StageStart(time=self.sim.now,
                                        stage=pstage.index,
                                        name=pstage.root_chain.name))
        if pstage.has_reserved_root:
            # §3.2.3: set up reserved receivers first.
            for task in run.root_tasks:
                self._launch_reserved_task(task)
        for chain in (pstage.transient_chains if pstage.has_reserved_root
                      else pstage.chains):
            for i in range(chain.parallelism):
                self._maybe_submit(run.tasks[(chain.name, i)])

    def _maybe_stage_done(self, run: _StageRun) -> None:
        if run.status is run.DONE:
            return
        pstage = run.pstage
        if pstage.has_reserved_root:
            if not all(t.status == TaskState.DONE for t in run.root_tasks):
                return
        else:
            root = pstage.root_chain
            for i in range(root.parallelism):
                if run.tasks[(root.name, i)].status != TaskState.DONE:
                    return
        run.status = run.DONE
        if self.tracer is not None:
            self.tracer.emit(StageEnd(time=self.sim.now,
                                      stage=pstage.index,
                                      name=pstage.root_chain.name))
        self._record_sink_outputs(run)
        for child_run in self.stage_runs:
            if any(p is run.pstage.stage for p in
                   child_run.pstage.stage.parents):
                if all(self._run_of(parent).status == _StageRun.DONE
                       for parent in child_run.pstage.stage.parents):
                    self._start_stage(child_run)
        if all(r.status == _StageRun.DONE for r in self.stage_runs):
            self.completed = True
            self.jct = self.sim.now

    def _run_of(self, stage) -> _StageRun:
        for run in self.stage_runs:
            if run.pstage.stage is stage:
                return run
        raise ExecutionError("unknown stage")

    def _record_sink_outputs(self, run: _StageRun) -> None:
        root = run.pstage.root_chain
        terminal = root.terminal
        if self.plan.compiled.logical.out_edges(terminal):
            return  # not a job sink
        parts: dict[int, list] = {}
        if run.pstage.has_reserved_root:
            for i in range(root.parallelism):
                record = self.outputs.get((terminal.name, i))
                if record is not None and record.payload is not None:
                    parts[i] = record.payload
        else:
            for i in range(root.parallelism):
                task = run.tasks[(root.name, i)]
                if task.output_records is not None:
                    parts[i] = task.output_records
        if parts:
            self.job_outputs[terminal.name] = parts

    # ==================================================================
    # reserved (receiver) tasks

    def _launch_reserved_task(self, task: _ReservedTask) -> None:
        run = task.stage_run
        pstage = run.pstage
        task.executor = self._pick_reserved()
        task.status = TaskState.FETCHING
        self.ctx.tasks_launched += 1
        if self.tracer is not None:
            self.tracer.emit(TaskStart(
                time=self.sim.now, stage=pstage.index, task="__root__",
                index=task.index, attempt=task.attempt,
                executor=task.executor.executor_id, resource="reserved"))
        # Expected producer commits with *static* routing. Many-to-one
        # pushes route dynamically by executor affinity (§3.2.7), so their
        # completion is tracked chain-wide in _maybe_reserved_compute.
        task.expected = set()
        for ice in pstage.producers_into(pstage.root_chain):
            if ice.edge.dep_type is DependencyType.MANY_TO_ONE:
                continue
            for pidx in source_indices(ice.edge, task.index):
                task.expected.add((ice.producer.name, pidx))
        # Boundary pulls from parent stages' reserved outputs.
        specs = []
        for edge in pstage.boundary_edges(pstage.root_chain):
            for pidx in source_indices(edge, task.index):
                specs.append((edge, pidx))
        task.boundary_outstanding = len(specs)
        attempt = task.attempt
        net = self.net
        net.begin_plan()
        try:
            for edge, pidx in specs:
                self._fetch_reserved_output(
                    edge.src.name, pidx, task.executor,
                    lambda result, e=edge, p=pidx:
                        self._reserved_boundary_done(task, attempt, e, p,
                                                     result),
                    fraction=transfer_fraction(edge))
        finally:
            net.commit_plan()
        self._maybe_reserved_compute(task)

    def _reserved_boundary_done(self, task: _ReservedTask, attempt: int,
                                edge: Edge, pidx: int,
                                result: FetchResult) -> None:
        if task.attempt != attempt or task.status != TaskState.FETCHING:
            return
        if not result.ok:
            # Our own executor died mid-fetch; the failure handler reassigns.
            return
        share = route_sizes(edge, pidx, result.size).get(task.index, 0.0)
        name = edge.src.name
        task.boundary_bytes_by_parent[name] = \
            task.boundary_bytes_by_parent.get(name, 0.0) + share
        if result.payload is not None:
            routed = route_output(edge, pidx, result.payload).get(
                task.index, [])
            task.boundary_payloads.setdefault(name, []).extend(routed)
        task.boundary_outstanding -= 1
        self._maybe_reserved_compute(task)

    def _maybe_reserved_compute(self, task: _ReservedTask) -> None:
        if task.status != TaskState.FETCHING:
            return
        if task.boundary_outstanding > 0:
            return
        if not task.expected <= task.committed:
            return
        # Affinity-routed (many-to-one) inputs are complete only once every
        # producer task of the chain has committed somewhere.
        run = task.stage_run
        for ice in run.pstage.producers_into(run.pstage.root_chain):
            if ice.edge.dep_type is not DependencyType.MANY_TO_ONE:
                continue
            for i in range(ice.producer.parallelism):
                if run.tasks[(ice.producer.name, i)].status != \
                        TaskState.DONE:
                    return
        task.status = TaskState.COMPUTING
        run = task.stage_run
        chain = run.pstage.root_chain
        spec = task.executor.container.spec
        input_bytes = sum(task.boundary_bytes_by_parent.values())
        input_bytes += sum(size for size, _, _ in task.arrived.values())
        seconds = chain.compute_seconds(input_bytes, spec.cpu_throughput)
        seconds += self.ctx.cluster.task_overhead_seconds
        attempt = task.attempt
        self._reserved_compute(
            task.executor, seconds,
            lambda: self._reserved_compute_done(task, attempt, input_bytes))

    def _reserved_compute(self, executor: SimExecutor, seconds: float,
                          callback: Callable[[], None]) -> None:
        """Serialize receiver processing through the executor's CPU (the
        reserved-side bottleneck of §3.2.7 / Figure 8c)."""
        _, end = executor.cpu.reserve(self.sim.now,
                                      seconds * executor.cpu.bandwidth)
        self.sim.schedule_at(end, callback)

    def _reserved_compute_done(self, task: _ReservedTask, attempt: int,
                               input_bytes: float) -> None:
        if task.attempt != attempt or task.status != TaskState.COMPUTING:
            return
        if not task.executor.alive:
            return  # failure handler took over
        run = task.stage_run
        chain = run.pstage.root_chain
        payload = self._reserved_real_output(task, chain)
        if payload is not None:
            out_bytes = float(len(payload) * chain.terminal.record_bytes)
        else:
            external = dict(task.boundary_bytes_by_parent)
            for size, _, parent in task.arrived.values():
                external[parent] = external.get(parent, 0.0) + size
            out_bytes = chain.synthetic_output_bytes(external)
        task.executor.disk.write(out_bytes)  # preserved on local disk
        task.status = TaskState.DONE
        if self.tracer is not None:
            self.tracer.emit(TaskCommitted(
                time=self.sim.now, stage=run.pstage.index, task="__root__",
                index=task.index, attempt=attempt,
                executor=task.executor.executor_id))
        task.consumed_keys = set(task.arrived)
        self.outputs.put((chain.terminal.name, task.index), task.executor,
                         out_bytes, payload)
        self.outputs.notify((chain.terminal.name, task.index))
        self._maybe_stage_done(run)

    def _reserved_real_output(self, task: _ReservedTask,
                              chain: FusedOperator) -> Optional[list]:
        if not self.program.is_real():
            return None
        external: dict[str, list] = {}
        for name, records in task.boundary_payloads.items():
            external.setdefault(name, []).extend(records)
        for _, payload, parent in task.arrived.values():
            if payload is None:
                raise ExecutionError(
                    "real-data run received a payload-less push")
            external.setdefault(parent, []).extend(payload)
        return chain.apply(task.index, external)

    # ==================================================================
    # transient tasks

    def _maybe_submit(self, task: _TransientTask) -> None:
        """Submit a task once its intra-stage producer outputs exist."""
        if task.status != TaskState.PENDING:
            return
        run = task.stage_run
        for ice in run.pstage.producers_into(task.chain):
            for pidx in source_indices(ice.edge, task.index):
                pkey = (ice.producer.name, pidx)
                if pkey not in run.local_outputs:
                    self._ensure_local_output(run, pkey)
                    return
        task.status = TaskState.QUEUED
        task.cache_keys = self._cache_keys_for(task)
        self.scheduler.submit(task)

    def _ensure_local_output(self, run: _StageRun, pkey: tuple) -> None:
        """Recompute an intra-stage producer whose local output is missing."""
        producer = run.tasks[pkey]
        if producer.status == TaskState.PENDING:
            self._maybe_submit(producer)
        elif producer.status == TaskState.DONE:
            lost_on = producer.executor
            self._trace_relaunch(
                producer, "local-output-lost",
                cause_ref=(lost_on.container.container_id
                           if lost_on is not None and not lost_on.alive
                           else None))
            producer.reset()
            self._maybe_submit(producer)
        # QUEUED/FETCHING/COMPUTING/DELIVERING: already on its way.

    def _cache_keys_for(self, task: _TransientTask) -> set:
        if not self.config.enable_caching:
            return set()
        keys: set = set()
        chain = task.chain
        head = chain.head
        if chain.is_source_chain() and head.input_ref is not None \
                and head.cacheable:
            keys.add((head.input_ref, task.index))
        for edge in task.stage_run.pstage.boundary_edges(chain):
            if edge.dst.cacheable:
                for pidx in source_indices(edge, task.index):
                    keys.add((edge.src.name, pidx))
        return keys

    def _plan_fetches(self, task: _TransientTask,
                      attempt: int) -> tuple[list[Callable[[], None]], int]:
        fetches: list[Callable[[], None]] = []
        count = 0
        run = task.stage_run
        chain = task.chain
        # 1. source data from the input store
        if chain.is_source_chain() and chain.head.input_ref is not None:
            fetches.append(lambda: self.fetch.fetch_source(task, attempt,
                                                           cache=True))
            count += 1
        specs = task.fetch_specs
        if specs is None:
            # 2. boundary inputs from parent stages' reserved outputs
            boundary = [(edge, pidx)
                        for edge in run.pstage.boundary_edges(chain)
                        for pidx in source_indices(edge, task.index)]
            # 3. intra-stage inputs from other transient chains
            local = [(ice, pidx)
                     for ice in run.pstage.producers_into(chain)
                     for pidx in source_indices(ice.edge, task.index)]
            specs = task.fetch_specs = [boundary, local]
        boundary, local = specs
        if boundary or local:
            fetches.append(
                lambda: self._fetch_pulls(task, attempt, boundary, local))
            count += len(boundary) + len(local)
        return fetches, count

    def _fetch_pulls(self, task: _TransientTask, attempt: int,
                     boundary: list, local: list) -> None:
        """Issue all of an attempt's boundary and local pulls as one bulk
        network plan: transfers queue while the specs are walked and
        reserve together at commit."""
        net = self.net
        net.begin_plan()
        try:
            for edge, pidx in boundary:
                self._fetch_boundary(task, attempt, edge, pidx)
            for ice, pidx in local:
                self._fetch_local(task, attempt, ice, pidx)
        finally:
            net.commit_plan()

    # ------------------------------------------------------------------
    # fetches

    def _fetch_boundary(self, task: _TransientTask, attempt: int,
                        edge: Edge, pidx: int) -> None:
        executor = task.executor
        key = (edge.src.name, pidx)
        cached = self.fetch.cache_lookup(executor, key)
        if cached is not None:
            size, payload = cached
            self.fetch.arrived_routed(task, attempt, edge, pidx, size,
                                      payload)
            return
        # Concurrent tasks on one executor share a single in-flight fetch
        # of a cacheable key, so e.g. the model "only needs to be sent once
        # to the executors" (§3.2.7).
        coalesce = (self.config.enable_caching and edge.dst.cacheable)
        inflight_key = (executor.executor_id, key)
        if coalesce and self.fetch.inflight.join(
                inflight_key, (task, attempt, edge, pidx)):
            return

        def done(result: FetchResult) -> None:
            waiters = (self.fetch.inflight.drain(inflight_key)
                       if coalesce else [])
            if result.ok:
                self.fetch.cache_store(executor, edge.dst, key, result.size,
                                       result.payload)
                if task.attempt == attempt:
                    self.fetch.arrived_routed(task, attempt, edge, pidx,
                                              result.size, result.payload)
                for other, a2, e2, p2 in waiters:
                    self.fetch.arrived_routed(other, a2, e2, p2, result.size,
                                              result.payload)
            else:
                if task.attempt == attempt:
                    self.fetch.broke(task, attempt)
                for other, a2, _, _ in waiters:
                    self.fetch.broke(other, a2)

        self._fetch_reserved_output(edge.src.name, pidx, executor, done,
                                    fraction=transfer_fraction(edge))

    def _fetch_local(self, task: _TransientTask, attempt: int,
                     ice: InterChainEdge, pidx: int) -> None:
        run = task.stage_run
        pkey = (ice.producer.name, pidx)
        entry = run.local_outputs.get(pkey)
        if entry is None:
            # Producer output lost since submission: abort this attempt and
            # wait for the producer to be recomputed.
            self._ensure_local_output(run, pkey)
            self.fetch.broke(task, attempt)
            return
        producer_executor, size, payload = entry
        share = route_sizes(ice.edge, pidx, size).get(task.index, 0.0)
        routed_payload = None
        if payload is not None:
            routed_payload = route_output(ice.edge, pidx, payload).get(
                task.index, [])
        if producer_executor is task.executor:
            self.fetch.arrived(task, attempt, ice.producer.terminal.name,
                               share, routed_payload)
            return
        tag = (task, attempt, ice, pkey, producer_executor, share,
               routed_payload)
        net = self.net
        if net.plan_open:
            net.plan_transfer(producer_executor.endpoint,
                              task.executor.endpoint, share, tag,
                              self._local_pull_done)
        else:
            net.transfer(producer_executor.endpoint, task.executor.endpoint,
                         share,
                         lambda result: self._local_pull_done(tag, result))

    def _local_pull_done(self, tag: tuple, result: TransferResult) -> None:
        """Shared completion callback for intra-stage local pulls."""
        (task, attempt, ice, pkey, producer_executor, share,
         routed_payload) = tag
        if task.attempt != attempt:
            return
        if not result.ok:
            if not producer_executor.alive:
                run = task.stage_run
                run.local_outputs.pop(pkey, None)
                self._ensure_local_output(run, pkey)
            self.fetch.broke(task, attempt)
            return
        self.ctx.bytes_shuffled += int(share)
        self.fetch.arrived(task, attempt, ice.producer.terminal.name,
                           share, routed_payload)

    # ------------------------------------------------------------------
    # compute and push

    def _compute_done(self, task: _TransientTask, attempt: int) -> None:
        if task.attempt != attempt or task.status != TaskState.COMPUTING:
            return
        executor = task.executor
        if not executor.alive:
            return  # eviction handler already rescheduled the task
        if self.program.is_real():
            task.output_records = task.chain.apply(task.index,
                                                   task.external_inputs)
            task.output_bytes = float(
                len(task.output_records) * task.chain.terminal.record_bytes)
        else:
            bytes_in = dict(task.input_bytes_by_parent)
            if task.chain.is_source_chain():
                bytes_in.setdefault(
                    task.chain.head.name,
                    task.input_bytes_by_parent.get(task.chain.head.name, 0.0))
            task.output_bytes = task.chain.synthetic_output_bytes(bytes_in)
        # §3.2.4: the slot frees immediately; pushes ride a separate thread.
        executor.release_slot()
        self.scheduler.slot_released()
        task.status = TaskState.DELIVERING
        if self.tracer is not None:
            self.tracer.emit(TaskPushed(
                time=self.sim.now, stage=task.stage_run.pstage.index,
                task=task.chain.name, index=task.index, attempt=attempt,
                executor=executor.executor_id,
                size_bytes=task.output_bytes))
        self._dispatch_output(task)
        self._maybe_flush_stage(task.stage_run)

    def _dispatch_output(self, task: _TransientTask) -> None:
        run = task.stage_run
        pstage = run.pstage
        chain = task.chain
        deliveries: set = set()
        # Local retention for intra-stage transient consumers.
        consumer_edges = pstage.consumers_of(chain)
        has_transient_consumer = False
        for ice in consumer_edges:
            if pstage.has_reserved_root and ice.consumer is pstage.root_chain:
                continue
            has_transient_consumer = True
        if has_transient_consumer:
            if self._replicas:
                # A fresh attempt's output supersedes any proactive replica
                # of an earlier attempt.
                self._replicas.pop((pstage.index, task.key), None)
            run.local_outputs[task.key] = (task.executor, task.output_bytes,
                                           task.output_records)
        # Pushes into the reserved root.
        if pstage.has_reserved_root:
            for ice in consumer_edges:
                if ice.consumer is not pstage.root_chain:
                    continue
                self._push_to_root(task, ice, deliveries)
        elif chain is pstage.root_chain:
            # Transient sink: escape to the job sink storage.
            deliveries.add(("__sink__",))
            self._write_sink(task)
        task.pending_deliveries = deliveries
        # Unblock intra-stage consumers now that the local output exists.
        if has_transient_consumer:
            for ice in consumer_edges:
                if pstage.has_reserved_root and \
                        ice.consumer is pstage.root_chain:
                    continue
                for didx in destination_indices(ice.edge, task.index):
                    self._maybe_submit(run.tasks[(ice.consumer.name, didx)])
        if not deliveries:
            # Nothing to commit (purely local output); mark committed so the
            # stage can finish, but keep local data available.
            self._send_commit(task)

    def _maybe_flush_stage(self, run: _StageRun) -> None:
        """Flush aggregation buffers once the stage has no task left that
        could still contribute — waiting out the timer would only delay the
        stage without saving any transfer."""
        if self.attempts.live_count(run.group):
            return
        stage_index = run.pstage.index
        for key, buffer in list(self._agg_buffers.items()):
            if key[1] == stage_index:
                buffer.flush()

    def _push_to_root(self, task: _TransientTask, ice: InterChainEdge,
                      deliveries: set) -> None:
        run = task.stage_run
        edge = ice.edge
        combiner = run.pstage.root_chain.head.combiner
        use_agg = (self.config.enable_partial_aggregation
                   and combiner is not None and edge.dep_type.is_wide)
        if edge.dep_type is DependencyType.MANY_TO_ONE:
            # Executor-affinity routing (§3.2.7): every task on this
            # executor feeds the same receiver, maximizing partial
            # aggregation. Repairs pin routes via _forced_mo_dst.
            n = run.pstage.root_chain.parallelism
            forced = self._forced_mo_dst.get((run.pstage.index, task.key))
            dst = forced if forced is not None else \
                task.executor.executor_id % n
            dsts_and_shares = [(dst, task.output_bytes,
                                task.output_records)]
        else:
            shares = route_sizes(edge, task.index, task.output_bytes)
            routed_payloads: dict[int, list] = {}
            if task.output_records is not None:
                routed_payloads = route_output(edge, task.index,
                                               task.output_records)
            dsts_and_shares = []
            for dst in destination_indices(edge, task.index):
                payload = routed_payloads.get(dst)
                if task.output_records is not None and payload is None:
                    payload = []
                dsts_and_shares.append((dst, shares.get(dst, 0.0), payload))
        for dst, size, payload in dsts_and_shares:
            delivery = ("root", dst)
            deliveries.add(delivery)
            task.delivered_dsts.add(delivery)
            contribution = Contribution(producer_key=task.key,
                                        size_bytes=size, payload=payload)
            if use_agg:
                self._buffered_push(task, edge, dst, combiner, contribution)
            else:
                self._direct_push(task, edge, dst, [contribution], size)

    def _buffered_push(self, task: _TransientTask, edge: Edge, dst: int,
                       combiner, contribution: Contribution) -> None:
        run = task.stage_run
        executor = task.executor
        key = (executor.executor_id, run.pstage.index, dst)
        buffer = self._agg_buffers.get(key)
        if buffer is None:
            keyed = edge.dep_type is DependencyType.MANY_TO_MANY
            buffer = AggregationBuffer(
                self.sim, combiner, keyed,
                max_tasks=self.config.aggregation_max_tasks,
                max_delay=self.config.aggregation_max_delay,
                flush_fn=lambda batch, r=run, e=executor, d=dst:
                    self._flush_batch(r, e, d, batch))
            self._agg_buffers[key] = buffer
            self._buffers_by_executor.setdefault(
                executor.executor_id, []).append(key)
        buffer.add(contribution)

    def _flush_batch(self, run: _StageRun, executor: SimExecutor, dst: int,
                     batch) -> None:
        root = run.root_tasks[dst]

        def done(result: TransferResult) -> None:
            if not result.ok:
                return  # producer evicted; its tasks are being relaunched
            self.ctx.bytes_pushed += int(batch.merged_size_bytes)
            share = (batch.merged_size_bytes / len(batch.contributions)
                     if batch.contributions else 0.0)
            for contribution in batch.contributions:
                self._root_received(run, dst, contribution.producer_key,
                                    share, contribution.payload)
            for contribution in batch.contributions:
                self._delivery_done(run, contribution.producer_key,
                                    ("root", dst))

        self.net.transfer(executor.endpoint, root.executor.endpoint,
                          batch.merged_size_bytes, done)

    def _direct_push(self, task: _TransientTask, edge: Edge, dst: int,
                     contributions: list[Contribution], size: float) -> None:
        run = task.stage_run
        root = run.root_tasks[dst]

        def done(result: TransferResult) -> None:
            if not result.ok:
                return
            self.ctx.bytes_pushed += int(size)
            for contribution in contributions:
                self._root_received(run, dst, contribution.producer_key,
                                    contribution.size_bytes,
                                    contribution.payload)
                self._delivery_done(run, contribution.producer_key,
                                    ("root", dst))

        self.net.transfer(task.executor.endpoint, root.executor.endpoint,
                          size, done)

    def _root_received(self, run: _StageRun, dst: int, producer_key: tuple,
                       size: float, payload: Optional[list]) -> None:
        root = run.root_tasks[dst]
        if root.status != TaskState.FETCHING:
            return  # late duplicate after the receiver finished
        if producer_key in root.arrived:
            return  # exactly-once: ignore duplicate deliveries
        chain_name = producer_key[0]
        parent_op = run.chain_by_name(chain_name).terminal.name
        root.arrived[producer_key] = (size, payload, parent_op)

    def _delivery_done(self, run: _StageRun, producer_key: tuple,
                       delivery: tuple) -> None:
        task = run.tasks.get(producer_key)
        if task is None or task.status != TaskState.DELIVERING:
            return
        task.pending_deliveries.discard(delivery)
        if not task.pending_deliveries:
            self._send_commit(task)

    def _write_sink(self, task: _TransientTask) -> None:
        def done(result: TransferResult) -> None:
            if not result.ok:
                return
            self._delivery_done(task.stage_run, task.key, ("__sink__",))

        self.net.transfer(task.executor.endpoint, self.sink_endpoint,
                          task.output_bytes, done)

    def _send_commit(self, task: _TransientTask) -> None:
        """Output-commit message through the master (§3.2.5)."""
        attempt = task.attempt

        def done(result: TransferResult) -> None:
            if task.attempt != attempt or \
                    task.status != TaskState.DELIVERING:
                return
            if not result.ok:
                return  # evicted mid-commit: task will be relaunched
            self._committed(task)

        self.net.transfer(task.executor.endpoint, self.master_endpoint, 0.0,
                          done)

    def _committed(self, task: _TransientTask) -> None:
        task.status = TaskState.DONE
        self.commit_count += 1
        run = task.stage_run
        pstage = run.pstage
        if self.tracer is not None:
            self.tracer.emit(TaskCommitted(
                time=self.sim.now, stage=pstage.index,
                task=task.chain.name, index=task.index,
                attempt=task.attempt,
                executor=task.executor.executor_id))
        if pstage.has_reserved_root:
            for ice in pstage.consumers_of(task.chain):
                if ice.consumer is not pstage.root_chain:
                    continue
                if ice.edge.dep_type is DependencyType.MANY_TO_ONE:
                    # Exactly-once under re-routed attempts: stale arrivals
                    # of earlier attempts at other receivers are purged.
                    for root in run.root_tasks:
                        if ("root", root.index) not in task.delivered_dsts \
                                and root.status == TaskState.FETCHING:
                            root.arrived.pop(task.key, None)
                    for root in run.root_tasks:
                        self._maybe_reserved_compute(root)
                else:
                    for dst in destination_indices(ice.edge, task.index):
                        root = run.root_tasks[dst]
                        if root.status == TaskState.FETCHING:
                            root.committed.add(task.key)
                            self._maybe_reserved_compute(root)
        self._maybe_stage_done(run)

    # ==================================================================
    # reserved output fetch / repair

    def _fetch_reserved_output(self, op_name: str, pidx: int,
                               dst_executor: SimExecutor,
                               on_done: Callable[[FetchResult], None],
                               fraction: float = 1.0) -> None:
        """Pull a preserved stage output; repairs it first if it was lost
        to a reserved-executor fault (§3.2.6). ``fraction`` limits the bytes
        moved (a many-to-many consumer only needs its hash partition)."""
        key = (op_name, pidx)
        record = self.outputs.get(key)
        if record is None or not record.reachable():
            self.outputs.trace_miss(op_name, pidx)
            self.outputs.wait(
                key,
                lambda: self._fetch_reserved_output(op_name, pidx,
                                                    dst_executor, on_done,
                                                    fraction))
            self._repair_output(op_name, pidx)
            return
        if record.executor is dst_executor:
            on_done(FetchResult(True, record.size, record.payload))
            return
        moved = record.size * fraction
        tag = (op_name, pidx, dst_executor, on_done, fraction, record, moved)
        net = self.net
        if net.plan_open:
            net.plan_transfer(record.executor.endpoint,
                              dst_executor.endpoint, moved, tag,
                              self._reserved_pull_done)
        else:
            net.transfer(record.executor.endpoint, dst_executor.endpoint,
                         moved,
                         lambda result: self._reserved_pull_done(tag, result))

    def _reserved_pull_done(self, tag: tuple, result: TransferResult) -> None:
        """Shared completion callback for preserved-output pulls."""
        op_name, pidx, dst_executor, on_done, fraction, record, moved = tag
        if not result.ok:
            if not record.executor.alive:
                # Source died mid-transfer: repair and retry.
                self._fetch_reserved_output(op_name, pidx, dst_executor,
                                            on_done, fraction)
            else:
                on_done(FetchResult(False, 0.0, None))
            return
        self.ctx.bytes_shuffled += int(moved)
        on_done(FetchResult(True, record.size, record.payload))

    def _repair_output(self, op_name: str, pidx: int) -> None:
        """Re-run the reserved task (and its producers) whose preserved
        output was lost."""
        record = self.outputs.get((op_name, pidx))
        if record is not None and record.reachable():
            return
        pstage = self.plan.stage_of_reserved_op(op_name)
        run = self.stage_runs[pstage.index]
        root = run.root_tasks[pidx]
        if root.status != TaskState.DONE and root.executor is not None \
                and root.executor.alive:
            return  # already being (re)computed
        self.outputs.pop((op_name, pidx), None)
        self.reserved_repairs += 1
        consumed = set(root.consumed_keys)
        lost_ref = (record.executor.container.container_id
                    if record is not None else None)
        self._trace_relaunch(root, "repair", cause_ref=lost_ref)
        root.reset()
        # Relaunch every transient producer routing into this receiver.
        self._launch_reserved_task(root)
        to_relaunch = set(root.expected)
        # Affinity-routed producers: re-run exactly the historical subset
        # this receiver consumed, pinning their route back to it so the
        # repaired output matches what downstream consumers already saw.
        for ice in pstage.producers_into(pstage.root_chain):
            if ice.edge.dep_type is not DependencyType.MANY_TO_ONE:
                continue
            for i in range(ice.producer.parallelism):
                pkey = (ice.producer.name, i)
                if pkey in consumed:
                    self._forced_mo_dst[(pstage.index, pkey)] = root.index
                    to_relaunch.add(pkey)
        # Sorted: set iteration is hash-seeded per process, and relaunch
        # submission order steers scheduling — keep runs reproducible.
        for pkey in sorted(to_relaunch):
            producer = run.tasks[pkey]
            if producer.status in (TaskState.DONE, TaskState.DELIVERING):
                self._trace_relaunch(producer, "repair", cause_ref=lost_ref)
                producer.reset()
            if producer.status == TaskState.PENDING:
                self._maybe_submit(producer)

    # ==================================================================
    # container loss

    def _on_container_lost(self, container, replacement) -> None:
        if container.is_reserved:
            self._reserved_lost(container)
        else:
            self._transient_lost(container)

    def _transient_lost(self, container) -> None:
        executor = self._find_executor(container)
        if executor is None:
            return
        self.scheduler.remove_executor(executor)
        # Drop aggregation buffers (their contents died with the executor).
        for key in self._buffers_by_executor.pop(executor.executor_id, []):
            buffer = self._agg_buffers.pop(key, None)
            if buffer is not None:
                buffer.discard()
        for run in self.stage_runs:
            # Local outputs on the evicted executor are gone — unless a
            # proactive replica survives on the reserved side, in which
            # case it is swapped in and the producer never re-runs.
            lost = [k for k, (ex, _, _) in run.local_outputs.items()
                    if ex is executor]
            for k in lost:
                replica = self._replicas.pop((run.pstage.index, k), None)
                if replica is not None and replica[0].alive:
                    run.local_outputs[k] = replica
                    self.recomputes_avoided += 1
                    if self.tracer is not None:
                        self.tracer.emit(ProactivePush(
                            time=self.sim.now,
                            container=container.container_id,
                            task=k[0], index=k[1],
                            size_bytes=replica[1],
                            executor=replica[0].executor_id,
                            restored=True))
                else:
                    run.local_outputs.pop(k, None)
            # §3.2.5: relaunch only the uncommitted tasks scheduled there.
            # The purge/relaunch interleaving is stage by stage, so the
            # table sweep is restricted to this run's tasks.
            self._relaunch_lost(executor, "eviction",
                                cause_ref=container.container_id,
                                within=lambda t, run=run:
                                    t.stage_run is run)

    def _reserved_lost(self, container) -> None:
        executor = self._find_executor(container)
        if executor is None:
            return
        if executor in self.reserved_executors:
            self.reserved_executors.remove(executor)
        if not any(e.alive for e in self.reserved_executors):
            raise ExecutionError("all reserved executors lost; cannot recover")
        # Preserved outputs on the failed machine are lost; consumers will
        # trigger repairs lazily, but receivers of *running* stages must be
        # reassigned right away.
        if self._replicas:
            dead = [k for k, (dst, _, _) in self._replicas.items()
                    if dst is executor]
            for k in dead:
                del self._replicas[k]
        self.outputs.mark_executor_lost(executor)
        for run in self.stage_runs:
            if run.status != _StageRun.RUNNING:
                continue
            for root in run.root_tasks:
                if root.executor is executor and \
                        root.status != TaskState.DONE:
                    self._trace_relaunch(
                        root, "reserved-fault",
                        cause_ref=container.container_id)
                    root.reset()
                    self._launch_reserved_task(root)
                    to_relaunch = set(root.expected)
                    # Affinity-routed producers whose deliveries targeted the
                    # dead receiver must re-push (the stage is still running,
                    # so any receiver assignment remains valid).
                    for ice in run.pstage.producers_into(
                            run.pstage.root_chain):
                        if ice.edge.dep_type is not \
                                DependencyType.MANY_TO_ONE:
                            continue
                        for i in range(ice.producer.parallelism):
                            pkey = (ice.producer.name, i)
                            producer = run.tasks[pkey]
                            if ("root", root.index) in \
                                    producer.delivered_dsts:
                                to_relaunch.add(pkey)
                    # Sorted for reproducibility (see _repair_output).
                    for pkey in sorted(to_relaunch):
                        producer = run.tasks[pkey]
                        if producer.status in (TaskState.DONE,
                                               TaskState.DELIVERING):
                            self._trace_relaunch(
                                producer, "reserved-fault",
                                cause_ref=container.container_id)
                            producer.reset()
                        if producer.status == TaskState.PENDING:
                            self._maybe_submit(producer)

    # ==================================================================
    # master fault tolerance (§3.2.6)

    def _snapshot_progress(self) -> None:
        """Periodically replicate the progress record."""
        self.replicated_done_stages = {
            run.pstage.index for run in self.stage_runs
            if run.status == _StageRun.DONE}
        if not self.completed:
            self.sim.schedule_at(
                self.sim.now + self.config.progress_replication_interval,
                self._snapshot_progress)

    def fail_master(self) -> None:
        """Simulate a master crash + restart from replicated metadata.

        Stages whose completion was not yet replicated are re-run (their
        preserved data still exists, but the new master has no record of
        it); the currently running stages restart from scratch.
        """
        for run in self.stage_runs:
            if run.pstage.index in self.replicated_done_stages:
                continue
            if run.status == _StageRun.WAITING:
                continue
            self._restart_stage(run)
        for run in self.stage_runs:
            if run.status == _StageRun.WAITING and all(
                    self._run_of(p).status == _StageRun.DONE
                    for p in run.pstage.stage.parents):
                self._start_stage(run)

    def _restart_stage(self, run: _StageRun) -> None:
        root_name = run.pstage.root_chain.terminal.name
        for idx in range(run.pstage.root_chain.parallelism):
            self.outputs.pop((root_name, idx), None)
        run.local_outputs.clear()
        if self._replicas:
            stale = [k for k in self._replicas if k[0] == run.pstage.index]
            for k in stale:
                del self._replicas[k]
        run.status = _StageRun.WAITING
        for task in run.tasks.values():
            if task.status != TaskState.PENDING:
                executor = task.executor
                held_slot = task.status in (TaskState.FETCHING,
                                            TaskState.COMPUTING)
                self._trace_relaunch(task, "master-restart")
                task.reset()
                if held_slot and executor is not None and executor.alive:
                    executor.release_slot()
        for root in run.root_tasks:
            self._trace_relaunch(root, "master-restart")
            root.reset()
        if all(self._run_of(p).status == _StageRun.DONE
               for p in run.pstage.stage.parents):
            self._start_stage(run)
