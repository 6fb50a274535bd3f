"""Crash simulation, the recovery harness, and ``recover()``.

Crash model
-----------

Only the *warehouse* dies.  The engine world — virtual clock, sources
with their full update logs, scheduled workload commits, fault
machinery — survives.  :func:`simulate_crash` models the death: it
purges every warehouse-owned event from the engine queue (in-flight
wrapper deliveries, worker resumptions, round trips), severs all source
subscriptions (the dead warehouse's wrappers), and drops the volatile
snapshot cache.  What remains durable is exactly the journal sink and
the checkpoint store.

Recovery
--------

:func:`recover` rebuilds a live warehouse from durable state:

1. load the latest checkpoint; replay journal entries with
   ``seq > checkpoint.journal_seq`` over its view extents (write-ahead
   install entries carry the per-view effects);
2. the union of checkpointed + replayed install/skip refs is the
   **resolved set**; every source-log message outside it is re-enqueued
   (covering units lost from the UMQ, units orphaned on dead workers,
   and deliveries purged in flight) — correction re-derives any legal
   order, so re-enqueueing sorted by commit time is sound (Theorem 2);
3. schema history is re-derived from the resolved install units' own
   messages (the logs survive), so translation of old pending updates
   behaves exactly as live;
4. snapshot-cache entries are restored only up to the committed-update
   watermark; anything newer is invalidated;
5. a fresh scheduler + journal + checkpoint are installed; the recovery
   checkpoint truncates the journal.

Replay mutates nothing durable until that final checkpoint, and the
``seq`` filter makes re-replay a no-op — so a crash *during* recovery
(injected at ``recover.replay`` or the checkpoint points) is handled by
simply crashing the half-built warehouse and running ``recover`` again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checkpoint import CheckpointStore
from .codec import (
    Ref,
    definition_from_json,
    definition_to_json,
    delta_from_json,
    table_from_json,
    table_to_json,
)
from .crash import SchedulerCrash  # noqa: F401  (re-export convenience)
from .journal import JournalSink, MaintenanceJournal


class RecoveryError(Exception):
    """Recovery is impossible (e.g. no checkpoint was ever taken)."""


def simulate_crash(engine) -> int:
    """Kill the warehouse: purge its events, subscriptions, and cache.

    Idempotent — crashing an already-dead warehouse changes nothing.
    Returns the number of purged in-flight events.
    """
    from ..sim.engine import WAREHOUSE_OWNER

    purged = engine.purge_owned_events(WAREHOUSE_OWNER)
    for source in engine.sources.values():
        source.clear_subscribers()
    if engine.snapshot_cache is not None:
        engine.snapshot_cache.clear()
    if engine.selfmaint is not None:
        engine.selfmaint.clear()
    return purged


def _contiguous_watermark(resolved: set[Ref], sources) -> dict[str, int]:
    """Largest per-source n with 1..n all resolved."""
    by_source: dict[str, set[int]] = {}
    for source, seqno in resolved:
        by_source.setdefault(source, set()).add(seqno)
    marks = {}
    for name in sources:
        seen = by_source.get(name, set())
        mark = 0
        while mark + 1 in seen:
            mark += 1
        marks[name] = mark
    return marks


@dataclass
class RecoveryReport:
    """What one ``recover()`` call did."""

    at: float
    crash_point: str | None
    checkpoint_seq: int
    replayed_entries: int
    replayed_installs: int
    replayed_skips: int
    reenqueued: int
    cache_restored: int
    cache_dropped: int
    watermark: dict[str, int] = field(default_factory=dict)
    #: auxiliary self-maintenance replicas restored / dropped (stamped
    #: past the committed watermark) at recovery
    aux_restored: int = 0
    aux_dropped: int = 0

    def describe(self) -> str:
        return (
            f"recovered@{self.at:g} from ckpt#{self.checkpoint_seq} "
            f"(+{self.replayed_installs} installs, "
            f"+{self.replayed_skips} skips replayed, "
            f"{self.reenqueued} re-enqueued)"
        )


@dataclass
class RecoveredWarehouse:
    """The live replacement stack handed back by ``recover()``."""

    manager: object
    scheduler: object
    harness: "RecoveryHarness"
    report: RecoveryReport


class RecoveryHarness:
    """Owns the journal + checkpoint lifecycle for one warehouse epoch.

    One harness serves one (manager, scheduler) incarnation; each
    ``recover()`` builds a successor harness whose journal continues the
    sequence numbering and whose base unit lists accumulate everything
    resolved in previous epochs.
    """

    def __init__(
        self,
        engine,
        manager,
        scheduler,
        sink: JournalSink,
        store: CheckpointStore,
        *,
        checkpoint_every: int = 8,
        strategy=None,
        parallel_workers: int | None = None,
        batch_policy=None,
        mkb=None,
        start_seq: int = 1,
        base_installed_units: list[list[Ref]] | None = None,
        base_skipped_units: list[list[Ref]] | None = None,
    ):
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.engine = engine
        self.manager = manager
        self.scheduler = scheduler
        self.sink = sink
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.strategy = strategy
        self.parallel_workers = parallel_workers
        self.batch_policy = batch_policy
        self.mkb = mkb
        self.base_installed_units = list(base_installed_units or [])
        self.base_skipped_units = list(base_skipped_units or [])
        resolved = [
            ref
            for unit in self.base_installed_units + self.base_skipped_units
            for ref in unit
        ]
        self.journal = MaintenanceJournal(
            sink, engine, start_seq=start_seq, resolved=resolved
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, force_checkpoint: bool = False) -> None:
        """Wire the journal into the live stack.

        Writes a genesis checkpoint if the store is empty (so recovery
        is possible from the very first crash), or unconditionally when
        ``force_checkpoint`` (the recovery checkpoint, which truncates
        the replayed journal)."""
        self.manager.umq.add_listener(self.journal)
        self.manager.journal = self.journal
        self.scheduler.recovery = self
        if force_checkpoint or self.store.load() is None:
            self.checkpoint()

    def detach(self) -> None:
        self.manager.umq.remove_listener(self.journal)
        self.manager.journal = None
        self.scheduler.recovery = None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def _managers(self) -> list:
        return getattr(self.manager, "managers", None) or [self.manager]

    def installed_refs(self) -> frozenset[Ref]:
        """Every (source, seqno) installed across all epochs so far."""
        units = self.base_installed_units + self.journal.installed_units_since
        return frozenset(ref for unit in units for ref in unit)

    def skipped_refs(self) -> frozenset[Ref]:
        units = self.base_skipped_units + self.journal.skipped_units_since
        return frozenset(ref for unit in units for ref in unit)

    def maybe_checkpoint(self) -> None:
        if self.journal.installs_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def _build_state(self) -> tuple[dict, int]:
        """The checkpoint document and its billable tuple count."""
        views = []
        tuples = 0
        for manager in self._managers():
            views.append(
                {
                    "definition": definition_to_json(manager.view),
                    "extent": table_to_json(manager.mv.extent),
                }
            )
            tuples += len(manager.mv.extent)
        cache = []
        if self.engine.snapshot_cache is not None:
            for entry in self.engine.snapshot_cache.export_entries():
                source, key, version, table = entry
                cache.append([source, key, version, table_to_json(table)])
                tuples += len(table)
        aux = []
        if self.engine.selfmaint is not None:
            for entry in self.engine.selfmaint.export_entries():
                source, relation, version, columns, table = entry
                aux.append(
                    [source, relation, version, list(columns),
                     table_to_json(table)]
                )
                tuples += len(table)
        installed = (
            self.base_installed_units + self.journal.installed_units_since
        )
        skipped = self.base_skipped_units + self.journal.skipped_units_since
        state = {
            "journal_seq": self.journal.last_seq,
            "at": self.engine.clock.now,
            "multi": len(self._managers()) > 1
            or hasattr(self.manager, "managers"),
            "views": views,
            "installed_units": [
                [list(ref) for ref in unit] for unit in installed
            ],
            "skipped_units": [
                [list(ref) for ref in unit] for unit in skipped
            ],
            "umq": [
                [[m.source, m.seqno] for m in unit.messages]
                for unit in self.manager.umq.units
            ],
            "cache": cache,
            "aux": aux,
        }
        return state, tuples

    def checkpoint(self) -> None:
        """Snapshot durable state, then truncate the journal.

        Crash-window analysis: a crash before ``save`` loses nothing; a
        crash between ``save`` and ``truncate`` leaves stale journal
        entries whose ``seq <= journal_seq`` replay skips; a crash after
        ``truncate`` is a clean checkpoint."""
        engine = self.engine
        engine.crash_point("checkpoint.pre")
        state, tuples = self._build_state()
        self.store.save(state)
        engine.crash_point("checkpoint.mid")
        self.sink.truncate()
        installed, skipped = self.journal.roll_since()
        self.base_installed_units.extend(installed)
        self.base_skipped_units.extend(skipped)
        engine.metrics.checkpoints_taken += 1
        engine.metrics.charge(
            "checkpoint", engine.cost_model.checkpoint(tuples)
        )
        engine.crash_point("checkpoint.post")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredWarehouse:
        return recover(self)


def recover(harness: RecoveryHarness) -> RecoveredWarehouse:
    """Rebuild a live warehouse from checkpoint + journal replay."""
    from ..core.parallel import ParallelScheduler
    from ..core.scheduler import DynoScheduler
    from ..core.strategies import PESSIMISTIC
    from ..maintenance.batch import combine_schema_changes, schema_changes_of
    from ..views.manager import ViewManager
    from ..views.multi import MultiViewManager
    from ..views.umq import MaintenanceUnit

    engine = harness.engine
    state = harness.store.load()
    if state is None:
        raise RecoveryError("no checkpoint to recover from")

    # ------------------------------------------------------------- replay
    base_seq = state["journal_seq"]
    all_entries = harness.sink.entries()
    max_seq = max([base_seq] + [entry["seq"] for entry in all_entries])
    fresh = [entry for entry in all_entries if entry["seq"] > base_seq]

    view_states = [
        [definition_from_json(v["definition"]), table_from_json(v["extent"])]
        for v in state["views"]
    ]
    installed_units: list[list[Ref]] = [
        [tuple(ref) for ref in unit] for unit in state["installed_units"]
    ]
    skipped_units: list[list[Ref]] = [
        [tuple(ref) for ref in unit] for unit in state["skipped_units"]
    ]
    replayed_installs = replayed_skips = 0
    for entry in fresh:
        kind = entry["kind"]
        if kind not in ("install", "skip"):
            continue
        engine.crash_point("recover.replay")
        refs = [tuple(ref) for ref in entry["refs"]]
        if kind == "install":
            for view_state, effect in zip(view_states, entry["effects"]):
                if effect["kind"] == "replace":
                    view_state[0] = definition_from_json(
                        effect["definition"]
                    )
                    view_state[1] = table_from_json(effect["extent"])
                elif effect["kind"] == "delta":
                    view_state[1].apply_delta(
                        delta_from_json(effect["delta"])
                    )
            installed_units.append(refs)
            replayed_installs += 1
        else:
            skipped_units.append(refs)
            replayed_skips += 1

    metrics = engine.metrics
    metrics.recoveries += 1
    metrics.replayed_entries += len(fresh)
    metrics.charge("replay", engine.cost_model.replay(len(fresh)))

    resolved: set[Ref] = {
        ref for unit in installed_units for ref in unit
    } | {ref for unit in skipped_units for ref in unit}

    # ------------------------------------------------- rebuild warehouse
    definitions = [vs[0] for vs in view_states]
    extents = [vs[1] for vs in view_states]
    if state["multi"]:
        manager = MultiViewManager(
            engine,
            definitions,
            mkb=harness.mkb,
            initial_extents={
                definition.name: extent
                for definition, extent in zip(definitions, extents)
            },
        )
    else:
        manager = ViewManager(
            engine,
            definitions[0],
            mkb=harness.mkb,
            initial_extent=extents[0],
        )
    managers = getattr(manager, "managers", None) or [manager]

    # Schema lineage: re-derive each installed unit's combined changes
    # from its own messages (still in the surviving source logs) — the
    # identical pure computation the live install ran.
    for unit_refs in installed_units:
        messages = [
            engine.sources[source].log[seqno - 1]
            for source, seqno in unit_refs
        ]
        unit = MaintenanceUnit(list(messages))
        if not unit.has_schema_change:
            continue
        combined = combine_schema_changes(schema_changes_of(unit))
        for view_manager in managers:
            for source, change in combined:
                view_manager.schema_history.record(source, change)

    # Re-enqueue everything unresolved, in commit order: lost UMQ units,
    # units orphaned on dead workers, deliveries purged in flight.
    pending = [
        message
        for source in engine.sources.values()
        for message in source.log
        if (message.source, message.seqno) not in resolved
    ]
    pending.sort(key=lambda m: (m.committed_at, m.seqno, m.source))
    for message in pending:
        manager.umq.receive(message)

    # Snapshot cache: only entries at or below the committed watermark
    # survive; newer stamps may outrun what the recovered warehouse has
    # maintained, so they are invalidated.
    watermark = _contiguous_watermark(resolved, engine.sources)
    cache_restored = cache_dropped = 0
    if engine.snapshot_cache is not None and state.get("cache"):
        keep = []
        for source, key, version, table_json in state["cache"]:
            if version <= watermark.get(source, 0):
                keep.append(
                    (source, key, version, table_from_json(table_json))
                )
                cache_restored += 1
            else:
                cache_dropped += 1
        engine.snapshot_cache.restore_entries(keep)

    # Auxiliary self-maintenance replicas: same watermark rule as the
    # cache.  Requirements are re-registered from the *recovered* view
    # definitions first, so restore_entries drops any replica whose
    # columns no longer cover the (possibly rewritten) view's needs.
    aux_restored = aux_dropped = 0
    if engine.selfmaint is not None:
        for view_manager in managers:
            engine.selfmaint.register_view(view_manager.view.query)
        keep = []
        for source, relation, version, columns, table_json in state.get(
            "aux", []
        ):
            if version <= watermark.get(source, 0):
                keep.append(
                    (
                        source,
                        relation,
                        version,
                        tuple(columns),
                        table_from_json(table_json),
                    )
                )
            else:
                aux_dropped += 1
        aux_restored = engine.selfmaint.restore_entries(keep)
        aux_dropped += len(keep) - aux_restored

    strategy = harness.strategy or PESSIMISTIC
    if harness.parallel_workers:
        scheduler = ParallelScheduler(
            manager,
            strategy,
            workers=harness.parallel_workers,
            batch_policy=harness.batch_policy,
        )
    else:
        scheduler = DynoScheduler(
            manager, strategy, batch_policy=harness.batch_policy
        )

    successor = RecoveryHarness(
        engine,
        manager,
        scheduler,
        harness.sink,
        harness.store,
        checkpoint_every=harness.checkpoint_every,
        strategy=harness.strategy,
        parallel_workers=harness.parallel_workers,
        batch_policy=harness.batch_policy,
        mkb=harness.mkb,
        start_seq=max_seq + 1,
        base_installed_units=installed_units,
        base_skipped_units=skipped_units,
    )
    # The recovery checkpoint: persists the rebuilt state and truncates
    # the replayed journal.  Crash points inside fire like any other —
    # a crash here is recovered by running recover() again.
    successor.attach(force_checkpoint=True)

    injector = engine.crash_injector
    crash_point = (
        injector.fired.point
        if injector is not None and injector.fired is not None
        else None
    )
    report = RecoveryReport(
        at=engine.clock.now,
        crash_point=crash_point,
        checkpoint_seq=base_seq,
        replayed_entries=len(fresh),
        replayed_installs=replayed_installs,
        replayed_skips=replayed_skips,
        reenqueued=len(pending),
        cache_restored=cache_restored,
        cache_dropped=cache_dropped,
        watermark=watermark,
        aux_restored=aux_restored,
        aux_dropped=aux_dropped,
    )
    return RecoveredWarehouse(manager, scheduler, successor, report)
