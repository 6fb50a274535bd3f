"""Ablation studies for Dyno's design choices.

* **Blind merge vs cycle-only merge** (Section 4.2's argument): the
  simplistic alternative merges the *whole* UMQ whenever a query breaks.
  The paper argues this loses intermediate view states and enlarges the
  abortable window.  We measure total cost, abort cost, and the number
  of view refreshes (a proxy for intermediate states preserved).
* **Dependency-graph construction scaling** (Section 4.1.1's O(mn)
  claim): wall-clock time of ``find_dependencies`` as the number of
  updates and schema changes grows.
"""

from __future__ import annotations

import random
import time

from ..core.dependencies import find_dependencies
from ..core.graph import DependencyGraph
from ..core.incremental import IncrementalDependencyGraph
from ..core.strategies import BLIND_MERGE, PESSIMISTIC
from ..relational.delta import Delta
from ..sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
    UpdateMessage,
)
from ..views.consistency import check_convergence
from ..views.umq import UpdateMessageQueue
from .runner import FigureResult
from .testbed import (
    build_multiview_testbed,
    build_testbed,
    relation_schema,
)


def run_blind_merge_ablation(
    du_count: int = 200,
    sc_count: int = 10,
    sc_interval: float = 17.0,
    tuples_per_relation: int = 2000,
    seed: int = 7,
) -> FigureResult:
    result = FigureResult(
        figure_id="ABL-1",
        title="Cycle-only merge (Dyno) vs blind whole-queue merge",
        x_label="strategy",
        series_names=["total_cost", "abort_cost", "view_refreshes"],
    )
    for label, strategy in (
        ("dyno_cycle_merge", PESSIMISTIC),
        ("blind_merge", BLIND_MERGE),
    ):
        testbed = build_testbed(
            strategy, tuples_per_relation=tuples_per_relation
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(
                du_count, start=0.0, interval=0.5, seed=seed
            )
        )
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(
                sc_count, start=0.0, interval=sc_interval, seed=seed + 4
            )
        )
        testbed.run()
        report = check_convergence(testbed.manager)
        if not report.consistent:
            result.consistent = False
            result.notes.append(f"{label}: {report.summary()}")
        result.add(
            label,
            total_cost=testbed.metrics.maintenance_cost,
            abort_cost=testbed.metrics.abort_cost,
            view_refreshes=float(testbed.metrics.view_refreshes),
        )
    dyno_refreshes = result.points[0].values["view_refreshes"]
    blind_refreshes = result.points[1].values["view_refreshes"]
    result.notes.append(
        "intermediate view states preserved: "
        f"Dyno {dyno_refreshes:.0f} vs blind merge {blind_refreshes:.0f}"
    )
    return result


def _synthetic_queue(
    n_updates: int, n_schema_changes: int, seed: int = 5
) -> list[UpdateMessage]:
    """A UMQ snapshot with the requested DU/SC mixture."""
    rng = random.Random(seed)
    messages: list[UpdateMessage] = []
    sc_positions = set(
        rng.sample(range(n_updates), min(n_schema_changes, n_updates))
    )
    for position in range(n_updates):
        relation_index = rng.randrange(6)
        schema = relation_schema(relation_index)
        source = f"src{relation_index // 2 + 1}"
        if position in sc_positions:
            payload = RenameRelation(
                schema.name, f"{schema.name}__v{position}"
            )
        else:
            delta = Delta.insertion(
                schema, [(position, "x", 1.0, position)]
            )
            payload = DataUpdate(schema.name, delta)
        messages.append(
            UpdateMessage(source, position + 1, float(position), payload)
        )
    return messages


def _du_heavy_queue(
    count: int,
    n_schema_changes: int,
    seed: int = 9,
    first_seqno: int = 1,
) -> list[UpdateMessage]:
    """A DU-heavy stream whose schema changes are *non-lineage* drops
    (the workload where incremental detection shines: no rename chains,
    so arrivals never force a resolver rebuild)."""
    rng = random.Random(seed)
    messages: list[UpdateMessage] = []
    sc_positions = set(
        rng.sample(range(count), min(n_schema_changes, count))
    )
    for position in range(count):
        relation_index = rng.randrange(6)
        schema = relation_schema(relation_index)
        source = f"src{relation_index // 2 + 1}"
        if position in sc_positions:
            payload = DropAttribute(schema.name, f"C{relation_index + 1}")
        else:
            delta = Delta.insertion(
                schema, [(position, "x", 1.0, position)]
            )
            payload = DataUpdate(schema.name, delta)
        seqno = first_seqno + position
        messages.append(
            UpdateMessage(source, seqno, float(seqno), payload)
        )
    return messages


def _edge_set(dependencies):
    return {
        (dep.before_index, dep.after_index, dep.kind)
        for dep in dependencies
    }


def run_incremental_detection_ablation(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    rounds: int = 40,
    sc_fraction: float = 0.05,
    seed: int = 9,
) -> FigureResult:
    """Per-round detection time: from-scratch rebuild vs the
    incremental substrate, on a DU-heavy stream.

    A *round* models one scheduler step at steady queue length ``n``:
    one arrival, a detection pass, one head removal, another detection
    pass.  The from-scratch arm runs :func:`find_dependencies` over the
    whole queue each pass (what every detection round cost before the
    substrate existed); the incremental arm reads the live
    :class:`~repro.core.incremental.IncrementalDependencyGraph`.  Both
    arms consume the identical stream, and the final edge sets and
    corrected orders are verified bit-identical.
    """
    view_query = build_testbed(
        PESSIMISTIC, tuples_per_relation=4
    ).manager.view.query

    result = FigureResult(
        figure_id="ABL-5",
        title="Incremental vs from-scratch detection (per-round ms)",
        x_label="n_updates",
        series_names=["full_ms", "incremental_ms", "speedup"],
    )
    for n_updates in sizes:
        n_schema_changes = max(1, int(n_updates * sc_fraction))
        prefill = _du_heavy_queue(n_updates, n_schema_changes, seed)
        arrivals = _du_heavy_queue(
            rounds,
            max(1, int(rounds * sc_fraction)),
            seed + 1,
            first_seqno=n_updates + 1,
        )

        # -- from-scratch arm ------------------------------------------
        queue: list[UpdateMessage] = list(prefill)
        started = time.perf_counter()
        for message in arrivals:
            queue.append(message)
            find_dependencies(queue, view_query)
            del queue[0]
            find_dependencies(queue, view_query)
        full_ms = (time.perf_counter() - started) * 1000 / (2 * rounds)

        # -- incremental arm -------------------------------------------
        umq = UpdateMessageQueue()
        incremental = IncrementalDependencyGraph(
            umq, lambda query=view_query: (query,)
        )
        for message in prefill:
            umq.receive(message)
        started = time.perf_counter()
        for message in arrivals:
            umq.receive(message)
            incremental.dependencies()
            umq.remove_head()
            incremental.dependencies()
        incremental_ms = (
            (time.perf_counter() - started) * 1000 / (2 * rounds)
        )

        # Both arms saw the same stream: outputs must be bit-identical.
        oracle = find_dependencies(umq.messages(), view_query)
        live = incremental.dependencies()
        if _edge_set(oracle) != _edge_set(live) or (
            DependencyGraph(len(queue), oracle).legal_order()
            != incremental.detection().graph.legal_order()
        ):
            result.consistent = False
            result.notes.append(
                f"n={n_updates}: incremental output diverged from oracle"
            )

        result.add(
            n_updates,
            full_ms=full_ms,
            incremental_ms=incremental_ms,
            speedup=full_ms / incremental_ms if incremental_ms else 0.0,
        )
    result.notes.append(
        "corrected orders verified identical between both arms"
    )
    return result


def run_graph_scaling_ablation(
    sizes: tuple[tuple[int, int], ...] = (
        (100, 5),
        (200, 10),
        (400, 20),
        (800, 40),
        (1600, 80),
    ),
) -> FigureResult:
    """Wall-clock scaling of dependency-graph construction (O(mn))."""
    view_query = build_testbed(
        PESSIMISTIC, tuples_per_relation=4
    ).manager.view.query

    result = FigureResult(
        figure_id="ABL-2",
        title="Dependency graph construction scaling (wall-clock ms)",
        x_label="n_updates",
        series_names=["m_schema_changes", "edges", "build_ms"],
    )
    for n_updates, n_schema_changes in sizes:
        messages = _synthetic_queue(n_updates, n_schema_changes)
        started = time.perf_counter()
        dependencies = find_dependencies(messages, view_query)
        elapsed_ms = (time.perf_counter() - started) * 1000
        result.add(
            n_updates,
            m_schema_changes=float(n_schema_changes),
            edges=float(len(dependencies)),
            build_ms=elapsed_ms,
        )
    return result


def _run_parallel_arm(
    strategy,
    workers: int | None,
    du_count: int,
    tuples_per_relation: int,
    fault_seed: int | None,
    seed: int,
):
    """One (strategy, worker-count) arm of ABL-6.

    Returns ``(makespan, extent, processed, metrics)`` where *extent*
    is the final view as a sorted row tuple (byte-comparable across
    arms) and *processed* is the set of (source, seqno) pairs the
    scheduler committed.
    """
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan

    testbed = build_testbed(
        strategy,
        tuples_per_relation=tuples_per_relation,
        parallel_workers=workers,
    )
    if fault_seed is not None:
        plan = FaultPlan.random(
            fault_seed,
            sources=list(testbed.engine.sources),
            horizon=3.0,
            max_crashes=1,
            crash_length=(0.2, 0.8),
        )
        testbed.engine.install_faults(FaultInjector(plan))
    workload = testbed.random_du_workload(
        du_count, start=0.05, interval=0.01, seed=seed
    )
    testbed.engine.schedule_workload(workload)
    testbed.run()
    metrics = testbed.metrics
    makespan = metrics.makespan if workers is not None else metrics.elapsed
    extent = tuple(
        sorted(map(tuple, testbed.manager.mv.extent.rows()))
    )
    processed = set(testbed.scheduler.stats.processed_messages)
    report = check_convergence(testbed.manager)
    return makespan, extent, processed, metrics, report


def run_parallel_ablation(
    workers: tuple[int, ...] = (1, 2, 4, 8),
    du_count: int = 40,
    tuples_per_relation: int = 200,
    fault_seed: int | None = 23,
    seed: int = 17,
) -> FigureResult:
    """ABL-6: multi-worker makespan on a DU-heavy multi-source stream.

    Sweeps the parallel executor's worker count under both conflict
    strategies, with a PR 1 fault plan injected (transients, one short
    crash window, link faults).  ``workers=1`` is the honest serial
    baseline: same dispatch overheads and event machinery, zero
    concurrency.  Every arm must end with a view extent byte-identical
    to its strategy's 1-worker arm *and* to the plain serial
    :class:`~repro.core.scheduler.DynoScheduler`, and must have
    committed exactly the same (source, seqno) set — Theorem 2's
    legal-order guarantee, observed end to end.
    """
    from ..core.strategies import OPTIMISTIC

    result = FigureResult(
        figure_id="ABL-6",
        title="Parallel executor makespan vs worker count",
        x_label="workers",
        series_names=[
            "pess_makespan",
            "pess_speedup",
            "opt_makespan",
            "opt_speedup",
            "batched_queries",
            "peak_parallelism",
        ],
    )
    arms = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}
    baselines: dict[str, tuple] = {}
    for label, strategy in arms.items():
        serial = _run_parallel_arm(
            strategy, None, du_count, tuples_per_relation, fault_seed, seed
        )
        baselines[label] = serial
        if not serial[4].consistent:
            result.consistent = False
            result.notes.append(f"{label}: serial arm failed convergence")
    rows: dict[int, dict[str, float]] = {}
    for label, strategy in arms.items():
        serial_extent = baselines[label][1]
        serial_processed = baselines[label][2]
        one_worker_makespan: float | None = None
        for count in workers:
            makespan, extent, processed, metrics, report = (
                _run_parallel_arm(
                    strategy,
                    count,
                    du_count,
                    tuples_per_relation,
                    fault_seed,
                    seed,
                )
            )
            if one_worker_makespan is None:
                one_worker_makespan = makespan
            if extent != serial_extent or processed != serial_processed:
                result.consistent = False
                result.notes.append(
                    f"{label} workers={count}: diverged from serial oracle"
                )
            if not report.consistent:
                result.consistent = False
                result.notes.append(
                    f"{label} workers={count}: failed convergence check"
                )
            row = rows.setdefault(count, {})
            row[f"{label}_makespan"] = makespan
            row[f"{label}_speedup"] = (
                one_worker_makespan / makespan if makespan else 0.0
            )
            if label == "pess":
                row["batched_queries"] = float(metrics.batched_queries)
                row["peak_parallelism"] = float(metrics.peak_parallelism)
    for count in workers:
        result.add(count, **rows[count])
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "to the serial scheduler in every arm"
    )
    if fault_seed is not None:
        result.notes.append(f"fault plan seed={fault_seed}")
    return result


def _run_cache_arm(
    strategy,
    snapshot_cache: bool,
    du_count: int,
    tuples_per_relation: int,
    seed: int,
    key_domain: int,
    workers: int | None = None,
    fault_seed: int | None = None,
    self_maintenance: bool = False,
):
    """One (strategy, cache on/off) arm of ABL-7 (and, with
    ``self_maintenance``, of ABL-10).

    Returns ``(cost, trips, extent, processed, metrics, report)`` where
    *cost* is the virtual-clock total (makespan under the parallel
    executor, summed busy time serially), *trips* the number of
    maintenance queries that actually travelled, *extent* the final view
    as a sorted row tuple and *processed* the committed (source, seqno)
    set — the latter two byte-comparable across arms.
    """
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan

    testbed = build_testbed(
        strategy,
        tuples_per_relation=tuples_per_relation,
        parallel_workers=workers,
        snapshot_cache=snapshot_cache,
        self_maintenance=self_maintenance,
    )
    if fault_seed is not None:
        plan = FaultPlan.random(
            fault_seed,
            sources=list(testbed.engine.sources),
            horizon=3.0,
            max_crashes=1,
            crash_length=(0.2, 0.8),
        )
        testbed.engine.install_faults(FaultInjector(plan))
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            du_count,
            start=0.05,
            interval=0.01,
            seed=seed,
            key_domain=key_domain,
        )
    )
    testbed.run()
    metrics = testbed.metrics
    cost = metrics.elapsed
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    processed = set(testbed.scheduler.stats.processed_messages)
    report = check_convergence(testbed.manager)
    return (
        cost,
        metrics.source_round_trips,
        extent,
        processed,
        metrics,
        report,
    )


def run_snapshot_cache_ablation(
    du_counts: tuple[int, ...] = (60, 120, 240),
    tuples_per_relation: int = 200,
    key_domain: int = 40,
    seed: int = 5,
) -> FigureResult:
    """ABL-7: snapshot cache with local delta patching, on vs off.

    A DU-heavy hot-key stream (keys drawn from a small domain, so
    adjacent maintenance passes probe the same join keys) under both
    conflict strategies.  The cache-on arm must produce a view extent
    and a committed (source, seqno) set byte-identical to the cache-off
    arm — the cache is a pure fast path — while cutting total source
    round trips by >= 1.5x and lowering the virtual-clock total.  A
    4-worker parallel arm rides along to show hits composing with the
    executor (zero-channel-occupancy answers).
    """
    from ..core.strategies import OPTIMISTIC

    result = FigureResult(
        figure_id="ABL-7",
        title="Snapshot cache: source round trips and cost, on vs off",
        x_label="data updates",
        series_names=[
            "pess_trips_off",
            "pess_trips_on",
            "pess_trip_speedup",
            "pess_cost_speedup",
            "opt_trip_speedup",
            "opt_cost_speedup",
            "parallel_trip_speedup",
            "cache_hits",
            "patched_answers",
        ],
    )
    arms = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}
    for du_count in du_counts:
        row: dict[str, float] = {}
        for label, strategy in arms.items():
            off = _run_cache_arm(
                strategy, False, du_count, tuples_per_relation, seed,
                key_domain,
            )
            on = _run_cache_arm(
                strategy, True, du_count, tuples_per_relation, seed,
                key_domain,
            )
            for name, arm in (("off", off), ("on", on)):
                if not arm[5].consistent:
                    result.consistent = False
                    result.notes.append(
                        f"{label} cache={name} du={du_count}: "
                        "failed convergence check"
                    )
            if off[2] != on[2] or off[3] != on[3]:
                result.consistent = False
                result.notes.append(
                    f"{label} du={du_count}: cache-on arm diverged from "
                    "cache-off arm"
                )
            row[f"{label}_trip_speedup"] = (
                off[1] / on[1] if on[1] else 0.0
            )
            row[f"{label}_cost_speedup"] = off[0] / on[0] if on[0] else 0.0
            if label == "pess":
                row["pess_trips_off"] = float(off[1])
                row["pess_trips_on"] = float(on[1])
                row["cache_hits"] = float(on[4].cache_hits)
                row["patched_answers"] = float(on[4].patched_answers)
        par_off = _run_cache_arm(
            PESSIMISTIC, False, du_count, tuples_per_relation, seed,
            key_domain, workers=4,
        )
        par_on = _run_cache_arm(
            PESSIMISTIC, True, du_count, tuples_per_relation, seed,
            key_domain, workers=4,
        )
        if par_off[2] != par_on[2]:
            result.consistent = False
            result.notes.append(
                f"parallel du={du_count}: cache-on arm diverged"
            )
        row["parallel_trip_speedup"] = (
            par_off[1] / par_on[1] if par_on[1] else 0.0
        )
        result.add(du_count, **row)
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between cache-on and cache-off arms in every row"
    )
    result.notes.append(
        f"hot-key stream: keys drawn from 1..{key_domain} over "
        f"{tuples_per_relation}-tuple relations"
    )
    return result


def run_self_maintenance_ablation(
    du_counts: tuple[int, ...] = (60, 120, 240),
    tuples_per_relation: int = 200,
    key_domain: int = 40,
    seed: int = 5,
) -> FigureResult:
    """ABL-10: auxiliary self-maintenance store vs cache-only vs bare.

    The same DU-heavy hot-key stream as ABL-7, three arms per strategy:

    * **off** — no local answering at all (the oracle);
    * **cache** — the PR 4 snapshot cache alone (the arm to beat);
    * **aux** — the self-maintenance store alone: per-relation
      projections of the view's needed columns, seeded free from the
      initial load and synced from committed deltas, answer every
      covered probe with **zero** source round trips.

    The aux arm must produce a view extent and a committed
    (source, seqno) set byte-identical to the off arm — replica-served
    answers are exact because projection commutes with the probe's
    select/project and is linear in deltas — while self-maintaining
    >= 80% of data-update units (zero wire trips from dispatch to
    install) and beating the cache-only arm on total virtual-clock
    cost.  A 4-worker parallel aux arm rides along (aux hits occupy no
    source channel, like cache hits).
    """
    from ..core.strategies import OPTIMISTIC

    result = FigureResult(
        figure_id="ABL-10",
        title="Self-maintenance: zero-trip fraction and cost vs cache",
        x_label="data updates",
        series_names=[
            "pess_trips_off",
            "pess_trips_aux",
            "pess_selfmaint_fraction",
            "pess_cost_speedup",
            "pess_cost_speedup_vs_cache",
            "opt_selfmaint_fraction",
            "opt_cost_speedup",
            "parallel_selfmaint_fraction",
            "aux_hits",
        ],
    )
    arms = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}
    for du_count in du_counts:
        row: dict[str, float] = {}
        for label, strategy in arms.items():
            off = _run_cache_arm(
                strategy, False, du_count, tuples_per_relation, seed,
                key_domain,
            )
            cache = _run_cache_arm(
                strategy, True, du_count, tuples_per_relation, seed,
                key_domain,
            )
            aux = _run_cache_arm(
                strategy, False, du_count, tuples_per_relation, seed,
                key_domain, self_maintenance=True,
            )
            for name, arm in (("off", off), ("cache", cache), ("aux", aux)):
                if not arm[5].consistent:
                    result.consistent = False
                    result.notes.append(
                        f"{label} arm={name} du={du_count}: "
                        "failed convergence check"
                    )
            for name, arm in (("cache", cache), ("aux", aux)):
                if off[2] != arm[2] or off[3] != arm[3]:
                    result.consistent = False
                    result.notes.append(
                        f"{label} du={du_count}: {name} arm diverged "
                        "from the off oracle"
                    )
            metrics = aux[4]
            fraction = (
                metrics.self_maintained_units / metrics.data_unit_rounds
                if metrics.data_unit_rounds
                else 0.0
            )
            row[f"{label}_selfmaint_fraction"] = fraction
            row[f"{label}_cost_speedup"] = (
                off[0] / aux[0] if aux[0] else 0.0
            )
            if label == "pess":
                row["pess_trips_off"] = float(off[1])
                row["pess_trips_aux"] = float(aux[1])
                row["pess_cost_speedup_vs_cache"] = (
                    cache[0] / aux[0] if aux[0] else 0.0
                )
                row["aux_hits"] = float(metrics.aux_hits)
        par_off = _run_cache_arm(
            PESSIMISTIC, False, du_count, tuples_per_relation, seed,
            key_domain, workers=4,
        )
        par_aux = _run_cache_arm(
            PESSIMISTIC, False, du_count, tuples_per_relation, seed,
            key_domain, workers=4, self_maintenance=True,
        )
        if par_off[2] != par_aux[2] or par_off[3] != par_aux[3]:
            result.consistent = False
            result.notes.append(
                f"parallel du={du_count}: aux arm diverged from oracle"
            )
        par_metrics = par_aux[4]
        row["parallel_selfmaint_fraction"] = (
            par_metrics.self_maintained_units / par_metrics.data_unit_rounds
            if par_metrics.data_unit_rounds
            else 0.0
        )
        result.add(du_count, **row)
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between the aux, cache-only and off arms in every row "
        "(serial both strategies, plus a 4-worker aux arm)"
    )
    result.notes.append(
        f"hot-key stream: keys drawn from 1..{key_domain} over "
        f"{tuples_per_relation}-tuple relations"
    )
    return result


def _run_group_arm(
    strategy,
    batching: bool,
    du_count: int,
    tuples_per_relation: int,
    seed: int,
    workers: int | None = None,
):
    """One (strategy, batching on/off) arm of ABL-8.

    Returns ``(cost, trips, rounds, extents, processed, metrics,
    consistent)`` where *rounds* is the number of maintenance rounds
    actually paid, *extents* the per-view final extents as sorted row
    tuples and *processed* the committed (source, seqno) set — the
    latter two byte-comparable across arms.
    """
    from ..maintenance.grouping import BatchPolicy

    testbed = build_multiview_testbed(
        strategy,
        tuples_per_relation=tuples_per_relation,
        parallel_workers=workers,
        batch_policy=BatchPolicy(max_batch_size=24) if batching else None,
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            du_count, start=0.05, interval=0.01, seed=seed
        )
    )
    testbed.run()
    metrics = testbed.metrics
    extents = tuple(
        tuple(sorted(map(tuple, manager.mv.extent.rows())))
        for manager in testbed.manager.managers
    )
    processed = set(testbed.scheduler.stats.processed_messages)
    consistent = all(
        check_convergence(manager).consistent
        for manager in testbed.manager.managers
    )
    return (
        metrics.elapsed,
        metrics.source_round_trips,
        metrics.maintenance_rounds,
        extents,
        processed,
        metrics,
        consistent,
    )


def run_group_maintenance_ablation(
    du_counts: tuple[int, ...] = (60, 120, 240),
    tuples_per_relation: int = 200,
    seed: int = 5,
) -> FigureResult:
    """ABL-8: adaptive group maintenance, batching on vs off.

    A DU-heavy stream against the two-subview multi-view testbed (every
    update fans out to the views that join its relation).  The
    batching-on arm merges safe runs of the corrected UMQ into single
    batched maintenance rounds — one coalesced delta per touched
    relation, one probe set per source per batch — and must produce
    per-view extents and a committed (source, seqno) set byte-identical
    to the off arm, while cutting both maintenance rounds and source
    round trips by >= 2x at the heaviest stream.  A 4-worker parallel
    arm rides along to show DU-only batches staying leapfrog-eligible
    (no barrier) under the parallel executor.
    """
    from ..core.strategies import OPTIMISTIC

    result = FigureResult(
        figure_id="ABL-8",
        title="Group maintenance: rounds and round trips, on vs off",
        x_label="data updates",
        series_names=[
            "pess_rounds_off",
            "pess_rounds_on",
            "pess_round_speedup",
            "pess_trips_off",
            "pess_trips_on",
            "pess_trip_speedup",
            "pess_cost_speedup",
            "opt_round_speedup",
            "opt_trip_speedup",
            "par_round_speedup",
            "par_trip_speedup",
            "batches_formed",
            "grouped_messages",
        ],
    )
    arms = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}
    for du_count in du_counts:
        row: dict[str, float] = {}
        for label, strategy in arms.items():
            off = _run_group_arm(
                strategy, False, du_count, tuples_per_relation, seed
            )
            on = _run_group_arm(
                strategy, True, du_count, tuples_per_relation, seed
            )
            for name, arm in (("off", off), ("on", on)):
                if not arm[6]:
                    result.consistent = False
                    result.notes.append(
                        f"{label} batching={name} du={du_count}: "
                        "failed convergence check"
                    )
            if off[3] != on[3] or off[4] != on[4]:
                result.consistent = False
                result.notes.append(
                    f"{label} du={du_count}: batching-on arm diverged "
                    "from batching-off arm"
                )
            row[f"{label}_round_speedup"] = (
                off[2] / on[2] if on[2] else 0.0
            )
            row[f"{label}_trip_speedup"] = off[1] / on[1] if on[1] else 0.0
            if label == "pess":
                row["pess_rounds_off"] = float(off[2])
                row["pess_rounds_on"] = float(on[2])
                row["pess_trips_off"] = float(off[1])
                row["pess_trips_on"] = float(on[1])
                row["pess_cost_speedup"] = (
                    off[0] / on[0] if on[0] else 0.0
                )
                row["batches_formed"] = float(on[5].batches_formed)
                row["grouped_messages"] = float(on[5].grouped_messages)
        par_off = _run_group_arm(
            PESSIMISTIC, False, du_count, tuples_per_relation, seed,
            workers=4,
        )
        par_on = _run_group_arm(
            PESSIMISTIC, True, du_count, tuples_per_relation, seed,
            workers=4,
        )
        if par_off[3] != par_on[3] or par_off[4] != par_on[4]:
            result.consistent = False
            result.notes.append(
                f"parallel du={du_count}: batching-on arm diverged"
            )
        row["par_round_speedup"] = (
            par_off[2] / par_on[2] if par_on[2] else 0.0
        )
        row["par_trip_speedup"] = (
            par_off[1] / par_on[1] if par_on[1] else 0.0
        )
        result.add(du_count, **row)
    result.notes.append(
        "per-view extents and committed (source, seqno) sets verified "
        "identical between batching-on and batching-off arms in every "
        "row, serial and 4-worker parallel"
    )
    result.notes.append(
        "policy: BatchPolicy(max_batch_size=24), du_only — SC-bearing "
        "units are never voluntarily batched"
    )
    return result


def _run_recovery_arm(
    du_count: int,
    sc_count: int,
    tuples_per_relation: int,
    seed: int,
    journal: bool,
    checkpoint_every: int = 8,
    crash_plan=None,
):
    """One fig12-style run; returns (testbed, extent, committed, ok)."""
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=tuples_per_relation,
        journal=journal,
        checkpoint_every=checkpoint_every,
        crash_plan=crash_plan,
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            du_count, start=0.0, interval=0.5, seed=seed
        )
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(
            sc_count, start=0.0, interval=25.0, seed=seed + 4
        )
    )
    testbed.run()
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    committed = testbed.committed_updates()
    ok = check_convergence(testbed.manager).consistent
    return testbed, extent, committed, ok


def run_recovery_ablation(
    checkpoint_intervals: tuple[int, ...] = (2, 8, 16),
    du_count: int = 48,
    sc_count: int = 3,
    tuples_per_relation: int = 300,
    seed: int = 5,
    crash_hit: int | None = None,
) -> FigureResult:
    """ABL-9: recovery overhead vs checkpoint interval.

    A fig12-style mixed workload (DUs at 0.5 s plus a short
    schema-change train) runs three ways per checkpoint interval:

    * **oracle** — journal off: the no-overhead, no-crash reference;
    * **journaled** — journal + checkpoints on, no crash: measures the
      write amplification (journal bytes per data update), checkpoint
      count, and the busy-time cost of both.  Durability charges busy
      time only, never the virtual clock, so this arm must land on the
      *same* virtual clock and extent as the oracle;
    * **crashed** — same, plus a crash at a fixed mid-run point
      (``serial.pre_maintain`` hit ``crash_hit``, default half the
      stream): measures replayed entries and replay cost.  The
      recovered extent and committed (source, seqno) set must equal
      the oracle's.

    Expected shape: checkpoints grow and replay shrinks as the interval
    tightens — a checkpoint bounds the journal suffix a crash replays —
    while journal traffic itself is interval-independent.
    """
    from ..recovery import CrashPlan

    hit = crash_hit if crash_hit is not None else max(du_count // 2, 1)
    result = FigureResult(
        figure_id="ABL-9",
        title="Recovery overhead vs checkpoint interval",
        x_label="checkpoint_every",
        series_names=[
            "journal_entries",
            "journal_kb",
            "kb_per_du",
            "journal_cost",
            "checkpoints_taken",
            "checkpoint_cost",
            "recoveries",
            "replayed_entries",
            "replay_cost",
        ],
    )
    oracle, oracle_extent, oracle_committed, oracle_ok = _run_recovery_arm(
        du_count, sc_count, tuples_per_relation, seed, journal=False
    )
    if not oracle_ok:
        result.consistent = False
        result.notes.append("oracle arm failed convergence check")
    for interval in checkpoint_intervals:
        journaled, extent, committed, ok = _run_recovery_arm(
            du_count,
            sc_count,
            tuples_per_relation,
            seed,
            journal=True,
            checkpoint_every=interval,
        )
        if not ok or extent != oracle_extent:
            result.consistent = False
            result.notes.append(
                f"ckpt={interval}: journaled arm diverged from oracle"
            )
        if journaled.engine.clock.now != oracle.engine.clock.now:
            result.consistent = False
            result.notes.append(
                f"ckpt={interval}: durability advanced the virtual "
                "clock (must charge busy time only)"
            )
        crashed, crashed_extent, crashed_committed, crashed_ok = (
            _run_recovery_arm(
                du_count,
                sc_count,
                tuples_per_relation,
                seed,
                journal=True,
                checkpoint_every=interval,
                crash_plan=CrashPlan("serial.pre_maintain", hit),
            )
        )
        if (
            not crashed_ok
            or crashed_extent != oracle_extent
            or crashed_committed != oracle_committed
        ):
            result.consistent = False
            result.notes.append(
                f"ckpt={interval}: crashed arm diverged from oracle"
            )
        if crashed.metrics.recoveries < 1:
            result.consistent = False
            result.notes.append(f"ckpt={interval}: crash never fired")
        metrics = journaled.metrics
        busy = metrics.busy_time
        result.add(
            interval,
            journal_entries=float(metrics.journal_entries),
            journal_kb=metrics.journal_bytes / 1024.0,
            kb_per_du=metrics.journal_bytes / 1024.0 / du_count,
            journal_cost=busy.get("journal", 0.0),
            checkpoints_taken=float(metrics.checkpoints_taken),
            checkpoint_cost=busy.get("checkpoint", 0.0),
            recoveries=float(crashed.metrics.recoveries),
            replayed_entries=float(crashed.metrics.replayed_entries),
            replay_cost=crashed.metrics.busy_time.get("replay", 0.0),
        )
    result.notes.append(
        "journaled and crashed extents (and committed update sets) "
        "verified identical to the journal-off oracle in every row; "
        f"crash plan: serial.pre_maintain hit {hit}"
    )
    return result


def _run_shard_arm(
    strategy,
    shards: int,
    du_count: int,
    tuples_per_relation: int,
    seed: int,
    sc_count: int = 0,
    workers: int | None = None,
    fault_plan=None,
    crash_plan=None,
):
    """One sharded-warehouse arm of ABL-11.

    Returns ``(testbed, extents, committed, consistent)`` with extents
    as a view-name -> sorted-row-tuples dict, byte-comparable across
    shard counts.
    """
    from .testbed import build_sharded_testbed

    testbed = build_sharded_testbed(
        strategy,
        shards=shards,
        tuples_per_relation=tuples_per_relation,
        parallel_workers=workers,
        fault_plan=fault_plan,
        crash_plan=crash_plan,
    )
    testbed.schedule_du_workload(
        du_count, start=0.05, interval=0.05, seed=seed
    )
    if sc_count:
        testbed.schedule_sc_workload(
            sc_count, start=1.0, interval=9.0, seed=seed + 4
        )
    testbed.run()
    return (
        testbed,
        testbed.extent_rows(),
        testbed.committed_updates(),
        testbed.check_consistency(),
    )


def run_sharding_ablation(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    du_count: int = 160,
    tuples_per_relation: int = 160,
    seed: int = 5,
    reads: int = 1_000_000,
    crash_seed: int = 1,
    fault_seed: int = 9,
) -> FigureResult:
    """ABL-11: sharded multi-scheduler warehouse + read front end.

    The four-subview workload of ``SHARDED_SPANS`` (every relation in at
    most two views) under a DU-heavy stream, swept over shard counts.
    Each shard owns its own scheduler/UMQ/substrate world; the footprint
    router delivers each update only to shards whose views reference the
    touched relation; the aggregate makespan is the completion time of
    the slowest shard.  Acceptance bar: >= 2x aggregate-makespan
    improvement at 4 shards, with per-view extents and committed
    (source, seqno) sets byte-identical to the 1-shard oracle — also
    under the optimistic strategy, a seeded fault plan, a seeded crash
    plan (per-shard journals + recovery), a 2-worker parallel executor,
    and an SC-bearing stream exercising the cross-shard barrier.

    On top, ``reads`` point/scan reads (split over the two consistency
    levels) are replayed per shard count against the recorded install
    timelines, reporting p50/p99 latency and staleness.
    """
    from ..core.strategies import OPTIMISTIC
    from ..frontend.reads import (
        READ_COMMITTED_VERSION,
        READ_LATEST,
        ReadWorkload,
    )

    result = FigureResult(
        figure_id="ABL-11",
        title="Sharded warehouse: aggregate makespan + read latency",
        x_label="shards",
        series_names=[
            "pess_makespan_speedup",
            "opt_makespan_speedup",
            "pess_makespan",
            "pess_busy_time",
            "router_delivered",
            "router_dropped",
            "barrier_deferrals",
            "reads_served",
            "read_p50_latest",
            "read_p99_latest",
            "read_p99_committed",
            "staleness_latest",
            "staleness_committed",
            "stale_fraction_latest",
        ],
    )
    oracles: dict = {}
    for label, strategy in (("pess", PESSIMISTIC), ("opt", OPTIMISTIC)):
        oracles[label] = _run_shard_arm(
            strategy, 1, du_count, tuples_per_relation, seed
        )
    for shards in shard_counts:
        row: dict[str, float] = {}
        arms = {}
        for label, strategy in (("pess", PESSIMISTIC), ("opt", OPTIMISTIC)):
            arm = _run_shard_arm(
                strategy, shards, du_count, tuples_per_relation, seed
            )
            arms[label] = arm
            testbed, extents, committed, consistent = arm
            oracle = oracles[label]
            if not consistent:
                result.consistent = False
                result.notes.append(
                    f"{label} shards={shards}: failed convergence check"
                )
            if extents != oracle[1] or committed != oracle[2]:
                result.consistent = False
                result.notes.append(
                    f"{label} shards={shards}: diverged from 1-shard oracle"
                )
            metrics = testbed.metrics
            row[f"{label}_makespan_speedup"] = (
                oracle[0].metrics.makespan / metrics.makespan
                if metrics.makespan
                else 0.0
            )
            if label == "pess":
                row["pess_makespan"] = metrics.makespan
                row["pess_busy_time"] = metrics.total_busy_time
                row["router_delivered"] = float(metrics.router_delivered)
                row["router_dropped"] = float(metrics.router_dropped)
                row["barrier_deferrals"] = float(metrics.barrier_deferrals)
        # Read front end: half the budget per consistency level against
        # the pessimistic arm's install timelines.
        front_end = arms["pess"][0].read_front_end()
        per_level = max(1, reads // 2)
        latest = front_end.serve(
            ReadWorkload(count=per_level, seed=17), READ_LATEST
        )
        committed_level = front_end.serve(
            ReadWorkload(count=per_level, seed=17), READ_COMMITTED_VERSION
        )
        row["reads_served"] = float(latest.count + committed_level.count)
        row["read_p50_latest"] = latest.p50_latency
        row["read_p99_latest"] = latest.p99_latency
        row["read_p99_committed"] = committed_level.p99_latency
        row["staleness_latest"] = latest.mean_staleness
        row["staleness_committed"] = committed_level.mean_staleness
        row["stale_fraction_latest"] = latest.stale_fraction
        result.add(shards, **row)
    # Equivalence cross-product at the widest shard count: every knob
    # that could break determinism runs against a matching 1-shard
    # oracle and must reproduce its extents + committed sets exactly.
    widest = max(shard_counts)
    from ..faults.plan import FaultPlan
    from ..recovery import CrashPlan
    from .testbed import SOURCE_COUNT, source_name

    fault_plan = FaultPlan.random(
        fault_seed,
        sources=tuple(source_name(i) for i in range(SOURCE_COUNT)),
    )
    crash_plan = CrashPlan.random(crash_seed)
    hardened = (
        ("faults", {"fault_plan": fault_plan}),
        ("crash", {"crash_plan": crash_plan}),
        ("workers", {"workers": 2}),
        ("sc_barrier", {"sc_count": 3}),
    )
    for name, knobs in hardened:
        oracle = _run_shard_arm(
            PESSIMISTIC, 1, du_count, tuples_per_relation, seed, **knobs
        )
        arm = _run_shard_arm(
            PESSIMISTIC, widest, du_count, tuples_per_relation, seed, **knobs
        )
        if not (oracle[3] and arm[3]):
            result.consistent = False
            result.notes.append(f"{name}: failed convergence check")
        if arm[1] != oracle[1] or arm[2] != oracle[2]:
            result.consistent = False
            result.notes.append(
                f"{name}: {widest}-shard arm diverged from oracle"
            )
        if name == "crash" and arm[0].metrics.recoveries < 1:
            result.consistent = False
            result.notes.append("crash: plan never fired")
        if name == "sc_barrier" and arm[0].metrics.barrier_deferrals < 1:
            result.notes.append("sc_barrier: barrier never deferred")
    result.notes.append(
        "per-view extents and committed (source, seqno) sets verified "
        "byte-identical to the 1-shard oracle at every shard count, and "
        "again at the widest count under optimistic strategy, fault "
        "plan, crash plan (per-shard journals), 2-worker parallel "
        "executor, and an SC stream crossing the shard barrier"
    )
    result.notes.append(
        "reads are replayed post hoc against recorded install "
        "timelines: read-latest serves each shard's freshest version, "
        "read-committed-version the newest version within the global "
        "min-across-shards commit watermark"
    )
    return result
