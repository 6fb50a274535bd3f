"""Process-parallel shard runtime (multi-core warehouse execution).

The inline :class:`~repro.core.sharding.ShardedWarehouse` coordinator
steps every shard world interleaved in ONE Python process: the virtual
clocks interleave but the wall clock pays for every shard serially.
This module executes the same shard worlds across OS worker processes:

* each worker **rebuilds its shard worlds deterministically** from a
  picklable :class:`ShardWorldSpec` (spans + seeds + knobs) — the exact
  construction path ``build_sharded_testbed`` uses inline, via
  :func:`repro.experiments.testbed.build_shard_world` — and schedules
  identically-seeded workload copies from :class:`WorkloadSpec`
  parameters (workload *objects* hold mutable RNGs and are rebuilt
  fresh, never shipped);
* the parent drives the workers over pipes with a small command
  protocol — ``STEP``, ``BARRIER_HOLD`` / ``BARRIER_RELEASE`` (the
  cross-shard SC barrier), ``CRASH``, ``FINISH``, ``COLLECT``,
  ``SHUTDOWN`` — replicating the inline coordinator's min-virtual-clock
  and earliest-SC-release rules from compact :class:`ShardStatus`
  snapshots returned with every reply;
* at quiescence each worker ships its shard state home — extents
  through the PR-6 checkpoint codecs
  (:func:`repro.recovery.codec.table_to_json`), committed refs,
  metrics, the per-shard :class:`~repro.sim.engine.InstallRecord` log
  for the read front end, and its virtual clock.

**Determinism / bit-identity argument.**  Shard worlds are fully
independent (each owns its engine, sources, UMQ, caches and journal;
the router filters only *delivery* into the local UMQ), so a shard's
trace — extent, committed set, install log, virtual clock — depends
only on its own step *count*, never on when peers step.  The SC
barrier is a scheduling preference, not a correctness crutch (see
:mod:`repro.core.sharding`).  The runtime therefore steps all runnable
shards **concurrently per coordinator round** — the maximal-parallel
relaxation of the inline one-shard-per-round rule, with ``STEP``
dispatch ordered by ``(virtual clock, shard id)`` — and still produces
per-shard results byte-identical to the inline coordinator.  Only the
barrier deferral/release *counters* may differ (the round structure
differs); everything the equivalence tests compare —
extents, committed ``(source, seqno)`` sets, per-shard virtual clocks,
install logs — is invariant.  The virtual clock itself cannot move:
all virtual costs come from the cost model inside each world, and the
process-global plan cache / tuple interning are value-transparent.

Crashed *schedulers* (seeded :class:`~repro.recovery.crash.CrashPlan`)
recover inside the worker from the shard's own journal, exactly as
inline (:func:`repro.core.sharding.step_shard` is shared).  A dead
worker *process* is a different failure: the coordinator detects the
closed pipe, terminates the fleet and raises a clean ``RuntimeError``
instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from ..sim.costs import CostModel
from ..sim.metrics import Metrics

#: worker exit code after a ``CRASH`` command (hard process death)
_CRASH_EXIT_CODE = 23


@dataclass(frozen=True)
class ShardWorldSpec:
    """Everything a worker needs to rebuild one shard world.

    Pure picklable data: view definitions travel as testbed relation
    ``spans`` (rebuilt via ``subview_query``), workloads as
    :class:`WorkloadSpec` parameters.  ``build_shard_world`` consumes
    this spec on both sides — inline and in the worker — so the worlds
    are identical by construction.
    """

    shard_id: int
    view_names: tuple[str, ...]
    spans: tuple[tuple[int, int], ...]
    strategy: Any  # frozen Strategy dataclass (picklable)
    tuples_per_relation: int
    cost_model: CostModel | None
    seed: int
    backend: str
    parallel_workers: int | None
    snapshot_cache: bool
    self_maintenance: bool
    batch_policy: Any | None
    journal: bool
    checkpoint_every: int
    crash_plan: Any | None
    journal_dir: str | None
    fault_plan: Any | None


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload as rebuildable parameters (``kind`` selects the
    testbed factory: ``"du"`` or ``"sc"``)."""

    kind: str
    params: dict

    def __post_init__(self) -> None:
        if self.kind not in ("du", "sc"):
            raise ValueError(f"unknown workload kind {self.kind!r}")


@dataclass(frozen=True)
class ShardStatus:
    """One shard's coordinator-visible state after a step.

    Exactly the observables the inline coordinator reads from live
    shards — enough to replicate its quiescence, barrier-deferral and
    earliest-SC-release decisions remotely.
    """

    shard_id: int
    quiescent: bool
    clock_now: float
    #: commit time of the head unit's earliest SC (None: head not
    #: SC-bearing) — the cross-shard barrier time
    barrier_at: float | None
    #: earliest commit this shard still holds (queued + wrapper
    #: backlog); None when it holds nothing
    min_pending_commit: float | None
    #: parallel executor has in-flight dispatches
    pool_busy: bool
    #: the shard's event heap is non-empty
    has_next_event: bool

    def blocks_barrier(self, barrier_at: float) -> bool:
        """Status-snapshot twin of
        :func:`repro.core.sharding.shard_blocks_barrier`."""
        if (
            self.min_pending_commit is not None
            and self.min_pending_commit < barrier_at
        ):
            return True
        if self.pool_busy:
            return True
        return self.clock_now < barrier_at and self.has_next_event


def status_of(shard) -> ShardStatus:
    """Snapshot one live shard into a :class:`ShardStatus`."""
    from .sharding import (
        min_pending_commit,
        sc_barrier_time,
        shard_quiescent,
    )

    pool = getattr(shard.scheduler, "pool", None)
    return ShardStatus(
        shard_id=shard.shard_id,
        quiescent=shard_quiescent(shard),
        clock_now=shard.engine.clock.now,
        barrier_at=sc_barrier_time(shard),
        min_pending_commit=min_pending_commit(shard),
        pool_busy=pool is not None and pool.any_busy,
        has_next_event=shard.engine.next_event_time() is not None,
    )


def plan_round(
    statuses: dict[int, ShardStatus],
) -> tuple[list[int], list[int], int | None]:
    """One coordinator round decision from status snapshots.

    Returns ``(steps, holds, release)``: shard ids to ``STEP`` (every
    runnable shard, ordered by ``(virtual clock, shard id)`` — the
    concurrent generalization of min-clock stepping), shard ids held at
    the SC barrier, and the earliest-SC shard released when *every*
    active shard is deferred (circular wait), or ``None``.  Pure
    function of the statuses — the same rules
    :meth:`~repro.core.sharding.ShardedWarehouse.run` applies to live
    shards, unit-testable without processes.
    """
    active = [
        status for status in statuses.values() if not status.quiescent
    ]
    runnable: list[ShardStatus] = []
    deferred: list[ShardStatus] = []
    for status in active:
        barrier_at = status.barrier_at
        if barrier_at is not None and any(
            peer.blocks_barrier(barrier_at)
            for peer in statuses.values()
            if peer.shard_id != status.shard_id
        ):
            deferred.append(status)
        else:
            runnable.append(status)
    release: int | None = None
    if not runnable and deferred:
        released = min(
            deferred, key=lambda status: (status.barrier_at, status.shard_id)
        )
        deferred = [
            status for status in deferred if status is not released
        ]
        release = released.shard_id
    steps = [
        status.shard_id
        for status in sorted(
            runnable,
            key=lambda status: (status.clock_now, status.shard_id),
        )
    ]
    holds = sorted(status.shard_id for status in deferred)
    return steps, holds, release


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------


def _collect_state(shard) -> dict:
    """Ship one quiescent shard's results home (codec-encoded extents,
    committed refs, metrics, install log, virtual clock)."""
    from ..recovery.codec import table_to_json
    from ..views.consistency import check_convergence

    extents = {}
    consistent = True
    for manager in shard.view_managers():
        extents[manager.view.name] = table_to_json(manager.mv.extent)
        if not check_convergence(manager).consistent:
            consistent = False
    committed = {
        (message_source, seqno)
        for message_source, seqno in shard.scheduler.stats.processed_messages
    }
    if shard.recovery is not None:
        committed |= set(shard.recovery.installed_refs())
    return {
        "shard_id": shard.shard_id,
        "view_names": tuple(shard.view_names),
        "extents": extents,
        "committed": sorted(committed),
        "clock_now": shard.engine.clock.now,
        "metrics": shard.engine.metrics,
        "install_log": list(shard.engine.install_log),
        "consistent": consistent,
        "crash_reports": len(shard.crash_reports),
    }


def _worker_main(
    conn,
    specs: list[ShardWorldSpec],
    workloads: list[WorkloadSpec],
    executor: str | None,
) -> None:
    """One worker process: build assigned shard worlds, serve commands.

    Every command is answered with exactly one reply (FIFO per pipe),
    so the parent can batch a whole coordinator round per worker and
    read the replies back in order.
    """
    try:
        if executor is not None:
            from ..relational.executor import set_executor_mode

            set_executor_mode(executor)
        from ..experiments.testbed import (
            build_shard_world,
            make_du_workload,
            make_sc_workload,
        )
        from .sharding import step_shard

        shards: dict[int, Any] = {}
        ready: dict[int, tuple[dict, ShardStatus]] = {}
        for spec in specs:
            shard, initial_sizes = build_shard_world(spec)
            for workload in workloads:
                factory = (
                    make_du_workload
                    if workload.kind == "du"
                    else make_sc_workload
                )
                shard.engine.schedule_workload(factory(**workload.params))
            shards[spec.shard_id] = shard
            ready[spec.shard_id] = (initial_sizes, status_of(shard))
        conn.send(("READY", ready))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "SHUTDOWN":
                return
            shard_id = command[1]
            shard = shards[shard_id]
            if op == "STEP":
                step_shard(shard)
                conn.send(("STEPPED", shard_id, status_of(shard)))
            elif op == "BARRIER_HOLD":
                shard.engine.metrics.barrier_deferrals += 1
                conn.send(("HELD", shard_id, status_of(shard)))
            elif op == "BARRIER_RELEASE":
                shard.engine.metrics.barrier_releases += 1
                step_shard(shard)
                conn.send(("STEPPED", shard_id, status_of(shard)))
            elif op == "FINISH":
                shard.scheduler.finish()
                conn.send(("FINISHED", shard_id, status_of(shard)))
            elif op == "COLLECT":
                conn.send(("STATE", shard_id, _collect_state(shard)))
            elif op == "CRASH":
                # Hard process death (chaos hook / death-path tests):
                # no reply, no cleanup — the parent must detect the
                # closed pipe and fail cleanly.
                os._exit(_CRASH_EXIT_CODE)
            else:
                raise ValueError(f"unknown command {op!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away
        return
    except BaseException:
        try:
            conn.send(("ERROR", None, traceback.format_exc()))
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A shard worker process died mid-protocol (pipe closed)."""


@dataclass
class _Worker:
    index: int
    process: Any
    conn: Any
    shard_ids: tuple[int, ...]
    #: replies owed for the current round, in send order
    pending: int = 0


class ProcessShardRuntime:
    """Drives shard worlds across worker processes to quiescence.

    Bulk-synchronous coordinator: each round gathers the latest shard
    statuses (piggybacked on every reply), applies :func:`plan_round`
    — the inline coordinator's barrier + min-clock rules — and issues
    the round's command batch to every worker, which execute their
    shards' steps concurrently.  ``processes`` workers host
    ``len(specs)`` shards round-robin; ``processes`` is clamped to the
    shard count.

    The runtime is single-shot: :meth:`run` drives to quiescence,
    collects every shard's state and shuts the fleet down; the
    accessors then answer from the collected state.
    """

    def __init__(
        self,
        specs: list[ShardWorldSpec],
        processes: int,
        executor: str | None = None,
        reply_timeout: float = 600.0,
        kill_shard_after: tuple[int, int] | None = None,
    ) -> None:
        if not specs:
            raise ValueError("ProcessShardRuntime needs at least one shard")
        if processes < 1:
            raise ValueError(f"need at least one process, got {processes}")
        self.specs = sorted(specs, key=lambda spec: spec.shard_id)
        self.processes = min(processes, len(self.specs))
        if executor is None:
            from ..relational.executor import executor_mode

            executor = executor_mode()
        self.executor = executor
        self.reply_timeout = reply_timeout
        #: test/chaos knob: ``(shard_id, round_index)`` — at the start
        #: of that coordinator round the shard's worker is sent CRASH
        #: (hard ``os._exit``) instead of its command
        self.kill_shard_after = kill_shard_after
        self._workers: list[_Worker] = []
        self._worker_of: dict[int, _Worker] = {}
        self._workloads: list[WorkloadSpec] = []
        self._statuses: dict[int, ShardStatus] = {}
        self._initial_sizes: dict[str, int] = {}
        self._states: dict[int, dict] = {}
        self._launched = False
        self._finished = False
        self.rounds = 0
        self.commands_sent = 0
        #: wall-clock phase timings (``prepare`` = process launch +
        #: world builds, ``execute`` = coordinator rounds + FINISH,
        #: ``collect`` = state shipping + shutdown)
        self.timings: dict[str, float] = {}

    # ------------------------------------------------------------------
    # workload fan-out (before launch)
    # ------------------------------------------------------------------

    def add_workload_spec(self, workload: WorkloadSpec) -> None:
        """Queue one workload; every shard world replays its own
        identically-seeded copy (the sharded-warehouse contract)."""
        if self._launched:
            raise RuntimeError(
                "workloads must be added before the runtime launches"
            )
        self._workloads.append(workload)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Launch the fleet and build every shard world (not timed as
        execution: world construction happens once either way)."""
        if self._launched:
            return
        started = time.perf_counter()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        assignments: list[list[ShardWorldSpec]] = [
            [] for _ in range(self.processes)
        ]
        for index, spec in enumerate(self.specs):
            assignments[index % self.processes].append(spec)
        for index, assigned in enumerate(assignments):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, assigned, self._workloads, self.executor),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(
                index=index,
                process=process,
                conn=parent_conn,
                shard_ids=tuple(spec.shard_id for spec in assigned),
            )
            self._workers.append(worker)
            for spec in assigned:
                self._worker_of[spec.shard_id] = worker
        self._launched = True
        try:
            for worker in self._workers:
                reply = self._recv(worker)
                if reply[0] != "READY":
                    raise WorkerDied(
                        f"worker {worker.index} failed during world "
                        f"construction: {reply[-1]}"
                    )
                for shard_id, (sizes, status) in reply[1].items():
                    self._initial_sizes.update(sizes)
                    self._statuses[shard_id] = status
        except BaseException:
            self._terminate()
            raise
        self.timings["prepare"] = time.perf_counter() - started

    def run(self) -> None:
        """Drive every shard to quiescence; collect; shut down."""
        if self._finished:
            return
        self.prepare()
        try:
            started = time.perf_counter()
            self._drive()
            self._finish()
            self.timings["execute"] = time.perf_counter() - started
            started = time.perf_counter()
            self._collect()
            self.timings["collect"] = time.perf_counter() - started
        finally:
            self._shutdown()
        self._finished = True

    def _drive(self) -> None:
        while True:
            steps, holds, release = plan_round(self._statuses)
            if not steps and not holds and release is None:
                return
            if self.kill_shard_after is not None:
                victim, kill_round = self.kill_shard_after
                if self.rounds == kill_round:
                    self._send(self._worker_of[victim], ("CRASH", victim))
            for shard_id in holds:
                self._send(
                    self._worker_of[shard_id], ("BARRIER_HOLD", shard_id)
                )
            if release is not None:
                self._send(
                    self._worker_of[release], ("BARRIER_RELEASE", release)
                )
            for shard_id in steps:
                self._send(self._worker_of[shard_id], ("STEP", shard_id))
            self._drain_replies()
            self.rounds += 1

    def _finish(self) -> None:
        for spec in self.specs:
            self._send(self._worker_of[spec.shard_id], ("FINISH", spec.shard_id))
        self._drain_replies()

    def _collect(self) -> None:
        for spec in self.specs:
            self._send(
                self._worker_of[spec.shard_id], ("COLLECT", spec.shard_id)
            )
        for worker in self._workers:
            while worker.pending:
                reply = self._recv(worker)
                worker.pending -= 1
                if reply[0] == "ERROR":
                    raise WorkerDied(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                self._states[reply[1]] = reply[2]

    # ------------------------------------------------------------------
    # pipe plumbing
    # ------------------------------------------------------------------

    def _send(self, worker: _Worker, command: tuple) -> None:
        try:
            worker.conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            self._terminate()
            raise WorkerDied(
                f"worker {worker.index} (shards {list(worker.shard_ids)}) "
                f"died: pipe closed while sending {command[0]}"
            ) from exc
        if command[0] != "CRASH":  # CRASH is fire-and-forget
            worker.pending += 1
        self.commands_sent += 1

    def _recv(self, worker: _Worker):
        deadline = time.monotonic() + self.reply_timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, ConnectionResetError, OSError) as exc:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} (shards "
                    f"{list(worker.shard_ids)}) died mid-protocol "
                    f"(exit code {worker.process.exitcode})"
                ) from exc
            if not worker.process.is_alive() and not worker.conn.poll(0.05):
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} (shards "
                    f"{list(worker.shard_ids)}) died mid-protocol "
                    f"(exit code {worker.process.exitcode})"
                )
            if time.monotonic() > deadline:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} did not answer within "
                    f"{self.reply_timeout:g}s"
                )

    def _drain_replies(self) -> None:
        for worker in self._workers:
            while worker.pending:
                reply = self._recv(worker)
                worker.pending -= 1
                if reply[0] == "ERROR":
                    self._terminate()
                    raise WorkerDied(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                self._statuses[reply[1]] = reply[2]

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("SHUTDOWN",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
        self._terminate()

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # collected-state accessors (post-run)
    # ------------------------------------------------------------------

    def _state(self, shard_id: int) -> dict:
        if not self._states:
            raise RuntimeError("runtime has not run to completion yet")
        return self._states[shard_id]

    def view_names(self) -> tuple[str, ...]:
        return tuple(
            name for spec in self.specs for name in spec.view_names
        )

    def extent_rows(self) -> dict[str, tuple]:
        """Canonical extents, decoded from the shipped codec tables —
        byte-comparable against the inline coordinator's."""
        from ..recovery.codec import table_from_json

        extents: dict[str, tuple] = {}
        for spec in self.specs:
            state = self._state(spec.shard_id)
            for name in spec.view_names:
                table = table_from_json(state["extents"][name])
                extents[name] = tuple(sorted(map(tuple, table.rows())))
        return extents

    def committed_updates(self) -> frozenset:
        refs: set = set()
        for spec in self.specs:
            refs.update(
                (source, seqno)
                for source, seqno in self._state(spec.shard_id)["committed"]
            )
        return frozenset(refs)

    def shard_clocks(self) -> dict[int, float]:
        return {
            spec.shard_id: self._state(spec.shard_id)["clock_now"]
            for spec in self.specs
        }

    def aggregate_makespan(self) -> float:
        return max(
            self._state(spec.shard_id)["metrics"].elapsed
            for spec in self.specs
        )

    def aggregate_metrics(self) -> Metrics:
        merged = Metrics.merge(
            self._state(spec.shard_id)["metrics"] for spec in self.specs
        )
        merged.makespan = self.aggregate_makespan()
        return merged

    def shard_metrics(self) -> dict[int, Metrics]:
        """Per-shard metrics (kernel cache efficiency per shard etc.)."""
        return {
            spec.shard_id: self._state(spec.shard_id)["metrics"]
            for spec in self.specs
        }

    def horizon(self) -> float:
        return max(
            self._state(spec.shard_id)["clock_now"] for spec in self.specs
        )

    def install_logs(self) -> dict[int, list]:
        return {
            spec.shard_id: self._state(spec.shard_id)["install_log"]
            for spec in self.specs
        }

    def initial_sizes(self) -> dict[str, int]:
        if not self._launched:
            self.prepare()
        return dict(self._initial_sizes)

    def consistent(self) -> bool:
        return all(
            self._state(spec.shard_id)["consistent"] for spec in self.specs
        )

    def crash_report_count(self) -> int:
        return sum(
            self._state(spec.shard_id)["crash_reports"]
            for spec in self.specs
        )

    def cost_model(self) -> CostModel:
        spec = self.specs[0]
        return spec.cost_model or CostModel.calibrated(
            spec.tuples_per_relation
        )
