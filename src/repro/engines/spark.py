"""Spark 2.0.0 baseline (§5.1.2).

Models the execution semantics that drive the paper's Spark numbers:

* the logical DAG is pipelined into stages cut at wide (shuffle) edges;
  parallelism-1 operators (model creation/update in MLR) run on the
  never-evicted driver, matching MLlib's collect-to-driver aggregation;
* tasks run on executors placed on *both* transient and reserved containers;
* map outputs are preserved on the producing executor's local disk and
  pulled by the consuming tasks (pull-based shuffle);
* an eviction destroys the container's local map outputs; a consumer's
  fetch failure triggers recomputation of the missing parent tasks, which
  recursively triggers their parents — the cascading critical chain (§2.2).

The attempt lifecycle, fetch barrier, and output registry come from
:mod:`repro.core.exec`; this module adds Spark's policy: local-disk shuffle
writes, lazy pull, and lineage recomputation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cluster.network import TransferResult
from repro.cluster.resources import Container, ContainerKind
from repro.core.compiler.fusion import FusedOperator, fuse_operators
from repro.core.exec import (DelayedRefetch, ImmediateRetry, OutputRecord,
                             TaskAttempt, TaskState)
from repro.core.runtime.cache import LruCache
from repro.core.runtime.scheduler import RoundRobinPolicy
from repro.dataflow.dag import (DependencyType, Edge, source_indices,
                                transfer_share)
from repro.engines.base import (ClusterConfig, EngineBase, MasterBase,
                                Program, SimContext, SimExecutor)
from repro.obs.events import StageEnd, StageStart, TaskCommitted

__all__ = ["SparkEngine", "SparkMaster", "transfer_share"]


class _SparkTask(TaskAttempt):
    def __init__(self, chain: FusedOperator, index: int,
                 table=None) -> None:
        super().__init__(table)
        self.chain = chain
        self.index = index
        self.master: Optional["SparkMaster"] = None

    @property
    def key(self) -> tuple:
        return (self.chain.name, self.index)

    def assign(self, executor: SimExecutor) -> None:
        self.master._task_assigned(self, executor)


class _ChainRun:
    def __init__(self, chain: FusedOperator, on_driver: bool,
                 is_sink: bool, table=None) -> None:
        self.chain = chain
        self.on_driver = on_driver
        self.is_sink = is_sink
        self.started = False
        self.trace_open = False   # StageStart emitted, StageEnd pending
        self.tasks = [_SparkTask(chain, i, table)
                      for i in range(chain.parallelism)]


class SparkMaster(MasterBase):
    """Drives one Spark job on the shared simulator substrate."""

    def __init__(self, ctx: SimContext, program: Program,
                 engine: "SparkEngine") -> None:
        super().__init__(
            ctx, scheduling_policy=RoundRobinPolicy(),
            retry_policy=(ImmediateRetry() if engine.abort_on_fetch_failure
                          else DelayedRefetch()))
        self.program = program
        self.engine = engine
        dag = program.dag
        self.dag = dag
        self.chains = fuse_operators(dag, dag.operators,
                                     require_same_placement=False)
        self._chain_of_op = {op.name: c for c in self.chains for op in c.ops}
        self.runs: dict[str, _ChainRun] = {}
        sink_names = {op.name for op in dag.sinks()}
        for chain in self.chains:
            on_driver = chain.parallelism == 1
            is_sink = chain.terminal.name in sink_names
            self.runs[chain.name] = _ChainRun(chain, on_driver, is_sink,
                                              table=self.attempts)
        self._stage_index = {chain.name: i
                             for i, chain in enumerate(self.chains)}
        self.driver = self._make_driver()
        self.slotless = self.driver
        self.fetch.slotless = self.driver

    # ------------------------------------------------------------------
    # MasterBase policy hooks

    def stage_index_of(self, task: _SparkTask) -> int:
        return self._stage_index[task.chain.name]

    def _resubmit(self, task: _SparkTask) -> None:
        self._submit(task)

    def original_task_count(self) -> int:
        return sum(run.chain.parallelism for run in self.runs.values())

    def result_extras(self) -> dict:
        return {"stages": len(self.chains)}

    # ------------------------------------------------------------------
    # setup

    def _make_driver(self) -> SimExecutor:
        """The Spark driver runs on its own reserved container (§5.2)."""
        container = Container(kind=ContainerKind.RESERVED,
                              spec=self.ctx.cluster.reserved_spec)
        return SimExecutor(container, self.sim, tracer=self.tracer)

    def start(self) -> None:
        self.ctx.rm.on_container(self._on_container)
        self.ctx.rm.on_eviction(self._on_container_lost)
        self.ctx.allocate(self.engine.reserved_executor_count(
            self.ctx.cluster))
        for run in self.runs.values():
            self._maybe_start_chain(run)

    def _on_container(self, container: Container) -> None:
        executor = SimExecutor(container, self.sim, tracer=self.tracer)
        # Broadcast blocks are cached per executor (TorrentBroadcast).
        executor.cache = LruCache(container.spec.memory_bytes * 0.3)
        self.scheduler.add_executor(executor)

    # ------------------------------------------------------------------
    # chain (stage) scheduling

    def _parents_of(self, chain: FusedOperator) -> list[FusedOperator]:
        return [self._chain_of_op[e.src.name]
                for e in chain.external_in_edges()]

    def _maybe_start_chain(self, run: _ChainRun) -> None:
        """Submit a stage once every parent stage has fully completed."""
        if run.started:
            return
        for parent in self._parents_of(run.chain):
            parent_run = self.runs[parent.name]
            if not all(t.status == TaskState.DONE
                       for t in parent_run.tasks):
                return
        run.started = True
        if self.tracer is not None:
            run.trace_open = True
            self.tracer.emit(StageStart(
                time=self.sim.now,
                stage=self._stage_index[run.chain.name],
                name=run.chain.name))
        for task in run.tasks:
            task.master = self
            self._submit(task)

    def _submit(self, task: _SparkTask) -> None:
        if task.status != TaskState.PENDING:
            return
        run = self.runs[task.chain.name]
        task.status = TaskState.QUEUED
        if run.on_driver:
            # Driver-resident work starts immediately (no slot needed).
            self._task_assigned(task, self.driver)
        else:
            self.scheduler.submit(task)

    # ------------------------------------------------------------------
    # task execution

    def _plan_fetches(self, task: _SparkTask,
                      attempt: int) -> tuple[list[Callable[[], None]], int]:
        fetches: list[Callable[[], None]] = []
        count = 0
        chain = task.chain
        if chain.is_source_chain() and chain.head.input_ref is not None:
            fetches.append(lambda: self.fetch.fetch_source(task, attempt))
            count += 1
        specs = task.fetch_specs
        if specs is None:
            specs = task.fetch_specs = [
                (edge, pidx)
                for edge in chain.external_in_edges()
                for pidx in source_indices(edge, task.index)]
        if specs:
            fetches.append(
                lambda: self._fetch_edges(task, attempt, specs))
            count += len(specs)
        return fetches, count

    def _fetch_edges(self, task: _SparkTask, attempt: int,
                     specs: list) -> None:
        """Issue all external-edge fetches of one attempt as a bulk plan:
        the transfers queue on the network's open plan and reserve
        together at commit, sharing one completion callback
        (:meth:`_edge_pull_done`) instead of one closure each."""
        net = self.net
        net.begin_plan()
        try:
            for edge, pidx in specs:
                self._fetch_edge(task, attempt, edge, pidx)
        finally:
            net.commit_plan()

    def _fetch_edge(self, task: _SparkTask, attempt: int, edge: Edge,
                    pidx: int) -> None:
        if task.attempt != attempt or task.status != TaskState.FETCHING:
            return  # stale re-fetch after the task was reset
        producer_chain = self._chain_of_op[edge.src.name]
        pkey = (producer_chain.name, pidx)
        is_broadcast = edge.dep_type is DependencyType.ONE_TO_MANY
        if is_broadcast and task.executor.cache is not None:
            cached = task.executor.cache.get(pkey)
            if cached is not None:
                size, payload = cached
                self.fetch.arrived_routed(task, attempt, edge, pidx, size,
                                          payload)
                return
        output = self.outputs.get(pkey)
        if output is None or not output.reachable():
            # Fetch failure: the parent output is gone — recompute it (the
            # critical chain). Depending on the retry policy either the
            # whole task attempt fails (real Spark's FetchFailed handling)
            # or only this fetch is re-issued once the output is back.
            self.outputs.trace_miss(edge.src.name, pidx)
            if self.fetch.retry.abort_on_miss:
                task.failed_parents.add(pkey)
                self._recompute(pkey)
                self.fetch.broke(task, attempt)
            else:
                self._refetch_later(task, attempt, edge, pidx, pkey)
            return
        if is_broadcast and task.executor.cache is not None:
            # TorrentBroadcast fetches each block once per executor.
            inflight_key = (task.executor.executor_id, pkey)
            if self.fetch.inflight.join(inflight_key,
                                        (task, attempt, edge, pidx)):
                return
        self.engine.fetch_output(self, task, attempt, edge, pidx, output)

    def _deliver_edge_fetch(self, task: _SparkTask, attempt: int, edge: Edge,
                            pidx: int, output: OutputRecord,
                            src_endpoint: Any) -> None:
        """Pull one parent output over the network. Shuffle (many-to-many)
        fetches only move this task's partition of the output."""
        producer_chain = self._chain_of_op[edge.src.name]
        pkey = (producer_chain.name, pidx)
        moved = transfer_share(edge, output.size)
        coalesced = (edge.dep_type is DependencyType.ONE_TO_MANY
                     and task.executor.cache is not None)
        inflight_key = (task.executor.executor_id, pkey)
        tag = (task, attempt, edge, pidx, output, moved, pkey, coalesced,
               inflight_key)
        if output.executor is task.executor:
            self._edge_pull_done(
                tag, TransferResult(True, self.sim.now, int(moved)))
            return
        net = self.net
        if net.plan_open:
            net.plan_transfer(src_endpoint, task.executor.endpoint, moved,
                              tag, self._edge_pull_done)
        else:
            net.transfer(src_endpoint, task.executor.endpoint, moved,
                         lambda result: self._edge_pull_done(tag, result))

    def _edge_pull_done(self, tag: tuple, result: TransferResult) -> None:
        """Shared completion callback for edge pulls; ``tag`` carries the
        request-time state the per-transfer closure used to capture."""
        (task, attempt, edge, pidx, output, moved, pkey, coalesced,
         inflight_key) = tag
        waiters = (self.fetch.inflight.drain(inflight_key)
                   if coalesced else [])
        if not result.ok:
            if task.attempt == attempt:
                if not output.reachable():
                    # Source died mid-transfer.
                    output.available = output.checkpointed
                    self.outputs.trace_miss(edge.src.name, pidx)
                    if self.fetch.retry.abort_on_miss:
                        task.failed_parents.add(pkey)
                        self._recompute(pkey)
                        self.fetch.broke(task, attempt)
                    else:
                        self._refetch_later(task, attempt, edge, pidx,
                                            pkey)
                # else: we died; the eviction handler reset the task.
            for other, a2, e2, p2 in waiters:
                self._fetch_edge(other, a2, e2, p2)
            return
        self.ctx.bytes_shuffled += int(moved)
        if coalesced:
            task.executor.cache.put(pkey, output.size, output.payload)
        if task.attempt == attempt:
            self.fetch.arrived_routed(task, attempt, edge, pidx,
                                      output.size, output.payload)
        for other, a2, e2, p2 in waiters:
            self.fetch.arrived_routed(other, a2, e2, p2, output.size,
                                      output.payload)

    def _after_abort(self, task: _SparkTask, failed_parents: set) -> None:
        # Re-check the parents that broke this attempt *now*: any of them
        # may have been recomputed while the other fetches were draining.
        missing = []
        # Sorted: set iteration is hash-seeded per process, and recompute
        # submission order steers scheduling — keep runs reproducible.
        for pkey in sorted(failed_parents):
            if not self.outputs.reachable(pkey):
                missing.append(pkey)
        if not missing:
            self._submit(task)
            return
        for pkey in missing:
            self.outputs.wait(pkey, lambda: self._retry_task(task))
            self._recompute(pkey)

    def _retry_task(self, task: _SparkTask) -> None:
        if task.status == TaskState.PENDING:
            self._submit(task)

    def _refetch_later(self, task: _SparkTask, attempt: int, edge: Edge,
                       pidx: int, pkey: tuple) -> None:
        """Recompute a lost parent output, then re-issue one fetch.

        The attempt's other fetched partitions are kept, so one eviction does
        not force re-pulling the whole shuffle input (real Spark retries
        batch lost map outputs similarly at stage granularity).
        """
        self.outputs.wait(pkey,
                          lambda: self._fetch_edge(task, attempt, edge, pidx))
        self._recompute(pkey)

    def _schedule_compute(self, task: _SparkTask, seconds: float,
                          callback: Callable[[], None]) -> None:
        if task.executor is self.driver:
            # Driver work serializes through the driver's single CPU.
            _, end = self.driver.cpu.reserve(
                self.sim.now, seconds * self.driver.cpu.bandwidth)
            self.sim.schedule_at(end, callback)
        else:
            self.sim.schedule_at(self.sim.now + seconds, callback)

    def _compute_done(self, task: _SparkTask, attempt: int) -> None:
        if task.attempt != attempt or task.status != TaskState.COMPUTING:
            return
        executor = task.executor
        if executor is not self.driver and not executor.alive:
            return
        chain = task.chain
        if self.program.is_real():
            records = chain.apply(task.index, task.external_inputs)
            out_bytes = float(len(records) * chain.terminal.record_bytes)
        else:
            records = None
            bytes_in = dict(task.input_bytes_by_parent)
            out_bytes = chain.synthetic_output_bytes(bytes_in)
        task.status = TaskState.DELIVERING
        run = self.runs[chain.name]
        if executor is self.driver:
            self._finish_task(task, attempt, None, out_bytes, records)
        elif run.is_sink:
            # Final results stream to the job sink storage (S3).
            self.net.transfer(
                executor.endpoint, self.engine.sink_endpoint(self),
                out_bytes,
                lambda result: self._sink_written(task, attempt, result,
                                                  out_bytes, records))
        else:
            # Shuffle write: map outputs land on the local disk (§2.2).
            executor.disk.write(
                out_bytes,
                lambda ok: self._local_written(task, attempt, ok, executor,
                                               out_bytes, records))

    def _sink_written(self, task: _SparkTask, attempt: int,
                      result: TransferResult, out_bytes: float,
                      records: Optional[list]) -> None:
        if task.attempt != attempt or task.status != TaskState.DELIVERING:
            return
        if not result.ok:
            return  # evicted mid-write; eviction handler relaunches
        self._finish_task(task, attempt, task.executor, out_bytes, records)

    def _local_written(self, task: _SparkTask, attempt: int, ok: bool,
                       executor: SimExecutor, out_bytes: float,
                       records: Optional[list]) -> None:
        if task.attempt != attempt or task.status != TaskState.DELIVERING:
            return
        if not ok:
            return
        self._finish_task(task, attempt, executor, out_bytes, records)

    def _finish_task(self, task: _SparkTask, attempt: int,
                     executor: Optional[SimExecutor], out_bytes: float,
                     records: Optional[list]) -> None:
        task.status = TaskState.DONE
        if self.tracer is not None:
            self.tracer.emit(TaskCommitted(
                time=self.sim.now,
                stage=self._stage_index[task.chain.name],
                task=task.chain.name, index=task.index, attempt=attempt,
                executor=(executor.executor_id if executor is not None
                          else self.driver.executor_id)))
        location = None if executor is self.driver else executor
        output = self.outputs.put(task.key, location, out_bytes, records)
        if executor is not None and executor is not self.driver:
            executor.release_slot()
            self.scheduler.slot_released()
        self.engine.on_output_produced(self, task, output)
        self.outputs.notify(task.key)
        run = self.runs[task.chain.name]
        if all(t.status == TaskState.DONE for t in run.tasks):
            if self.tracer is not None and run.trace_open:
                run.trace_open = False
                self.tracer.emit(StageEnd(
                    time=self.sim.now,
                    stage=self._stage_index[run.chain.name],
                    name=run.chain.name))
            for child in self.runs.values():
                self._maybe_start_chain(child)
            self._maybe_job_done()

    def _maybe_job_done(self) -> None:
        if self.completed:
            return
        for run in self.runs.values():
            if not run.is_sink:
                continue
            if not all(t.status == TaskState.DONE for t in run.tasks):
                return
        self.completed = True
        self.jct = self.sim.now
        if self.program.is_real():
            for run in self.runs.values():
                if not run.is_sink:
                    continue
                parts = {}
                for task in run.tasks:
                    output = self.outputs.get(task.key)
                    if output is not None and output.payload is not None:
                        parts[task.index] = output.payload
                self.job_outputs[run.chain.terminal.name] = parts

    # ------------------------------------------------------------------
    # recomputation (the critical chain)

    def _recompute(self, pkey: tuple) -> None:
        """Re-run the task producing ``pkey`` (recursively re-fetching its
        own inputs, which may trigger further recomputations)."""
        chain_name, pidx = pkey
        run = self.runs[chain_name]
        task = run.tasks[pidx]
        if task.status == TaskState.DONE:
            if self.outputs.reachable(pkey):
                self.outputs.notify(pkey)
                return
            self._trace_relaunch(task, "lineage-recompute")
            if self.tracer is not None and not run.trace_open:
                # A completed stage reopens to re-run the lost producer.
                run.trace_open = True
                self.tracer.emit(StageStart(
                    time=self.sim.now,
                    stage=self._stage_index[run.chain.name],
                    name=run.chain.name))
            task.reset()
            self._submit(task)
        elif task.status == TaskState.PENDING:
            self._submit(task)
        # QUEUED/FETCHING/COMPUTING/DELIVERING: already in flight.

    # ------------------------------------------------------------------
    # evictions

    def _on_container_lost(self, container: Container,
                           replacement: Optional[Container]) -> None:
        executor = self._find_executor(container)
        if executor is None:
            return
        self.scheduler.remove_executor(executor)
        # All local state — including local-disk map outputs — is destroyed.
        lost_outputs = self.outputs.mark_executor_lost(executor)
        # One table sweep replaces the per-run loops: rows come back in
        # task-creation order, which is runs-in-submission-order — the
        # same order the loops produced.
        self._relaunch_lost(executor, "eviction",
                            cause_ref=container.container_id)
        # Spark's ExecutorLost handling: map outputs lost while their stage
        # is still running are resubmitted right away, overlapping with the
        # remaining tasks; outputs of *completed* stages are recomputed
        # reactively when a consumer's fetch fails.
        for key in lost_outputs:
            chain_name, _ = key
            run = self.runs[chain_name]
            if not all(t.status == TaskState.DONE for t in run.tasks):
                self._recompute(key)


class SparkEngine(EngineBase):
    """Spark 2.0.0: lineage recomputation, no checkpointing.

    ``abort_on_fetch_failure`` selects the fetch-failure semantics: True
    (default) fails the whole task attempt, as Spark's FetchFailed handling
    does; False keeps fetched partitions and re-pulls only the lost ones
    (an optimistic variant, used as an ablation).
    """

    name = "spark"

    def __init__(self, abort_on_fetch_failure: bool = True) -> None:
        self.abort_on_fetch_failure = abort_on_fetch_failure

    def reserved_executor_count(self, cluster: ClusterConfig) -> int:
        """Spark runs executors on the reserved containers too (§5.1.2)."""
        return cluster.num_reserved

    def sink_endpoint(self, master: SparkMaster):
        return master.ctx.input_store._endpoint

    def fetch_output(self, master: SparkMaster, task: _SparkTask,
                     attempt: int, edge: Edge, pidx: int,
                     output: OutputRecord) -> None:
        """Pull a parent output from wherever it lives (driver or a peer
        executor's local disk)."""
        src = master.driver.endpoint if output.executor is None \
            else output.executor.endpoint
        if output.executor is not None:
            output.executor.disk.read(transfer_share(edge, output.size))
        master._deliver_edge_fetch(task, attempt, edge, pidx, output, src)

    def on_output_produced(self, master: SparkMaster, task: _SparkTask,
                           output: OutputRecord) -> None:
        """Hook for the checkpointing subclass."""

    # ------------------------------------------------------------------
    # EngineBase plumbing

    def _make_master(self, ctx: SimContext, program: Program) -> SparkMaster:
        return SparkMaster(ctx, program, self)

    def _start(self, ctx: SimContext, program: Program) -> SparkMaster:
        master = self._make_master(ctx, program)
        master.start()
        return master
