"""The experimental testbed of Section 6.1, scaled.

Six relations ``R1..R6`` with four attributes each, evenly distributed
over three source servers (two relations per server); the materialized
view is a one-to-one equi-join of all six relations projecting all 24
attributes.  The paper loads 100 000 tuples per relation on Oracle8i;
we default to a configurable 2 000 tuples with per-tuple costs
calibrated so virtual times land in the paper's regime (see
:meth:`repro.sim.costs.CostModel.calibrated`).

The one-to-one join is realized by a shared key domain ``1..n`` on the
first attribute ``K`` of every relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.scheduler import DynoScheduler
from ..core.strategies import Strategy
from ..maintenance.grouping import BatchPolicy
from ..relational.predicate import AttrRef
from ..relational.query import JoinCondition, RelationRef, SPJQuery
from ..relational.schema import RelationSchema
from ..relational.types import AttributeType
from ..sim.costs import CostModel
from ..sim.engine import SimEngine
from ..sources.source import DataSource
from ..sources.workload import (
    DeleteRandomRow,
    DropRandomAttribute,
    FixedUpdate,
    InsertRandomRow,
    RenameRandomRelation,
    Workload,
)
from ..sources.messages import DropAttribute, RenameRelation
from ..views.definition import ViewDefinition
from ..views.manager import ViewManager
from ..views.multi import MultiViewManager

RELATION_COUNT = 6
SOURCE_COUNT = 3


def make_du_workload(
    tuples_per_relation: int,
    count: int,
    start: float,
    interval: float,
    insert_fraction: float = 0.8,
    seed: int = 7,
    key_domain: int | None = None,
) -> Workload:
    """Standalone flavour of :meth:`Testbed.random_du_workload`.

    Builds a FRESH workload (own RNG) on every call, which is what the
    sharded warehouse needs: each shard world replays its own
    identically-seeded copy, because workload intents hold mutable RNGs
    and materialize against live source state at fire time.
    """
    rng = random.Random(seed)
    n = key_domain or tuples_per_relation
    key_filter = (
        None
        if key_domain is None
        else (lambda key, n=n: isinstance(key, int) and 1 <= key <= n)
    )
    workload = Workload()
    for index in range(count):
        at = start + index * interval
        source_index = rng.randrange(SOURCE_COUNT)
        source = source_name(source_index)
        if rng.random() < insert_fraction:
            intent = InsertRandomRow(
                rng, key_factory=lambda r, n=n: r.randrange(1, n + 1)
            )
        else:
            intent = DeleteRandomRow(rng, key_filter=key_filter)
        workload.add(at, source, intent)
    return workload


def make_sc_workload(
    count: int,
    start: float,
    interval: float,
    seed: int = 11,
    drop_first: bool = True,
) -> Workload:
    """Standalone flavour of :meth:`Testbed.schema_change_workload`."""
    rng = random.Random(seed)
    workload = Workload()
    for index in range(count):
        at = start + index * interval
        source = source_name(rng.randrange(SOURCE_COUNT))
        if index == 0 and drop_first:
            intent = DropRandomAttribute(rng)
        else:
            intent = RenameRandomRelation(rng)
        workload.add(at, source, intent)
    return workload


def relation_name(index: int) -> str:
    return f"R{index + 1}"


def source_name(index: int) -> str:
    return f"src{index + 1}"


def source_of_relation(index: int) -> str:
    """Relations are distributed round-robin two per server."""
    return source_name(index // (RELATION_COUNT // SOURCE_COUNT))


def relation_schema(index: int) -> RelationSchema:
    name = relation_name(index)
    return RelationSchema.of(
        name,
        [
            ("K", AttributeType.INT),
            (f"A{index + 1}", AttributeType.STRING),
            (f"B{index + 1}", AttributeType.FLOAT),
            (f"C{index + 1}", AttributeType.INT),
        ],
    )


@dataclass
class Testbed:
    """One instantiated experimental environment."""

    engine: SimEngine
    manager: ViewManager
    scheduler: DynoScheduler
    tuples_per_relation: int
    rng: random.Random = field(repr=False, default_factory=random.Random)
    #: construction parameters recovery needs to rebuild the scheduler
    strategy: Strategy | None = None
    parallel_workers: int | None = None
    batch_policy: BatchPolicy | None = None
    #: crash-recovery harness (``None`` unless ``journal`` was armed)
    recovery: object | None = None
    #: one report per recovery performed during :meth:`run`
    crash_reports: list = field(default_factory=list)
    #: requested shard count (``build_testbed(shards=...)``); 1 keeps
    #: the classic single-scheduler path byte-identical
    shards: int = 1
    #: the :class:`~repro.core.sharding.ShardedWarehouse` driving the
    #: run when ``shards > 1`` (a single view yields one effective
    #: shard, but the run then still goes through the coordinator +
    #: router so the flag exercises the sharded code path end to end)
    warehouse: object | None = None

    @property
    def metrics(self):
        return self.engine.metrics

    # ------------------------------------------------------------------
    # workload helpers
    # ------------------------------------------------------------------

    def current_source_of(self, base_relation: str) -> str:
        """Which source hosts (a possibly renamed version of) R_i."""
        for source in self.engine.sources.values():
            for name in source.catalog.relation_names:
                if name == base_relation or name.startswith(
                    base_relation + "__v"
                ):
                    return source.name
        raise KeyError(base_relation)

    def random_du_workload(
        self,
        count: int,
        start: float,
        interval: float,
        insert_fraction: float = 0.8,
        seed: int = 7,
        key_domain: int | None = None,
    ) -> Workload:
        """Mixed insert/delete data updates, keys drawn from the live
        key domain so most updates touch the view.

        ``key_domain`` narrows *every* operation's keys to
        ``1..key_domain`` (default: the full ``1..tuples_per_relation``
        range): inserts draw their key from the domain and deletes pick
        among rows whose key lies in it.  A small domain makes updates
        collide on join keys — the hot-key regime where adjacent
        maintenance passes probe for the same keys and the snapshot
        cache / auxiliary store pay off — without deletes silently
        degenerating into no-ops outside the hot set.
        """
        return make_du_workload(
            self.tuples_per_relation,
            count,
            start,
            interval,
            insert_fraction=insert_fraction,
            seed=seed,
            key_domain=key_domain,
        )

    def schema_change_workload(
        self,
        count: int,
        start: float,
        interval: float,
        seed: int = 11,
        drop_first: bool = True,
    ) -> Workload:
        """``count`` schema changes: one drop-attribute followed by
        rename-relation operations, randomly placed over the six
        relations (the Section 6.4 mixture)."""
        return make_sc_workload(
            count, start, interval, seed=seed, drop_first=drop_first
        )

    def run(self) -> None:
        """Schedule nothing more; drive the scheduler to quiescence.

        With a recovery harness armed, crashes injected mid-run are
        survived: the dead warehouse is torn down, ``recover()`` rebuilds
        it from checkpoint + journal, and the run resumes — including
        crashes injected during recovery itself."""
        if self.warehouse is not None:
            # The coordinator recovers crashed shards internally; after
            # the run, re-point at the (possibly rebuilt) primary world.
            self.warehouse.run()
            primary = self.warehouse.shards[0]
            self.manager = primary.manager
            self.scheduler = primary.scheduler
            self.recovery = primary.recovery
            return
        if self.recovery is None:
            self.scheduler.run()
            return
        self.run_recovering()

    def run_recovering(self) -> list:
        """Crash-surviving run loop; returns the recovery reports."""
        from ..recovery import SchedulerCrash, simulate_crash

        while True:
            try:
                self.scheduler.run()
                return self.crash_reports
            except SchedulerCrash:
                while True:
                    simulate_crash(self.engine)
                    try:
                        recovered = self.recovery.recover()
                        break
                    except SchedulerCrash:
                        # Crashed during recovery: idempotent replay
                        # makes a second attempt from the same durable
                        # state safe.
                        continue
                self.manager = recovered.manager
                self.scheduler = recovered.scheduler
                self.recovery = recovered.harness
                self.crash_reports.append(recovered.report)

    def committed_updates(self) -> frozenset:
        """Every (source, seqno) whose maintenance committed, across
        crashes: journal-installed units from all epochs plus the live
        scheduler's processed messages."""
        if self.warehouse is not None:
            return self.warehouse.committed_updates()
        refs = set(self.scheduler.stats.processed_messages)
        if self.recovery is not None:
            refs |= self.recovery.installed_refs()
        return frozenset(refs)


def _populated_engine(
    tuples_per_relation: int,
    cost_model: CostModel | None,
    seed: int,
    backend: str,
    snapshot_cache: bool,
) -> tuple[SimEngine, random.Random]:
    """Engine with the three populated sources, no view yet."""
    cost = cost_model or CostModel.calibrated(tuples_per_relation)
    engine = SimEngine(cost)
    if snapshot_cache:
        engine.install_snapshot_cache()
    rng = random.Random(seed)

    if backend == "memory":
        make_source = DataSource
    elif backend == "sqlite":
        from ..sources.sqlite_source import SqliteDataSource

        make_source = SqliteDataSource
    else:
        raise ValueError(f"unknown backend {backend!r}")
    sources = [
        engine.add_source(make_source(source_name(i)))
        for i in range(SOURCE_COUNT)
    ]
    for index in range(RELATION_COUNT):
        schema = relation_schema(index)
        owner = sources[index // (RELATION_COUNT // SOURCE_COUNT)]
        rows = [
            (
                key,
                f"a{index}-{key}",
                round(rng.uniform(0, 1000), 2),
                rng.randrange(10_000),
            )
            for key in range(1, tuples_per_relation + 1)
        ]
        owner.create_relation(schema, rows)
    return engine, rng


def _make_scheduler(
    manager,
    strategy: Strategy,
    parallel_workers: int | None,
    batch_policy: BatchPolicy | None,
) -> DynoScheduler:
    if parallel_workers is not None:
        from ..core.parallel import ParallelScheduler

        return ParallelScheduler(
            manager,
            strategy,
            workers=parallel_workers,
            batch_policy=batch_policy,
        )
    return DynoScheduler(manager, strategy, batch_policy=batch_policy)


def _arm_recovery(
    engine: SimEngine,
    manager,
    scheduler,
    strategy: Strategy,
    parallel_workers: int | None,
    batch_policy: BatchPolicy | None,
    checkpoint_every: int,
    crash_plan,
    journal_dir,
):
    """Attach a journal + checkpoint harness (and a crash injector)."""
    from ..recovery import (
        CrashInjector,
        FileCheckpointStore,
        FileJournalSink,
        MemoryCheckpointStore,
        MemoryJournalSink,
        RecoveryHarness,
    )

    if journal_dir is not None:
        from pathlib import Path

        directory = Path(journal_dir)
        sink = FileJournalSink(directory / "journal.jsonl")
        store = FileCheckpointStore(directory / "checkpoint.json")
    else:
        sink = MemoryJournalSink()
        store = MemoryCheckpointStore()
    harness = RecoveryHarness(
        engine,
        manager,
        scheduler,
        sink,
        store,
        checkpoint_every=checkpoint_every,
        strategy=strategy,
        parallel_workers=parallel_workers,
        batch_policy=batch_policy,
        mkb=getattr(manager, "mkb", None),
    )
    # Attach (genesis checkpoint) before arming the injector: the plan
    # starts counting when the scheduler does.
    harness.attach()
    if crash_plan is not None:
        engine.crash_injector = CrashInjector(crash_plan)
    return harness


def recovery_knobs(
    journal: bool, checkpoint_every: int, crash_seed: int | None
) -> dict:
    """``build_testbed`` kwargs for the figure runners' recovery flags.

    ``crash_seed`` draws one seeded :class:`~repro.recovery.crash
    .CrashPlan` (the same plan for every testbed the figure builds, so a
    sweep compares like against like) and implies ``journal``."""
    crash_plan = None
    if crash_seed is not None:
        from ..recovery import CrashPlan

        crash_plan = CrashPlan.random(crash_seed)
    return {
        "journal": journal or crash_plan is not None,
        "checkpoint_every": checkpoint_every,
        "crash_plan": crash_plan,
    }


def build_testbed(
    strategy: Strategy,
    tuples_per_relation: int = 2000,
    cost_model: CostModel | None = None,
    seed: int = 3,
    backend: str = "memory",
    parallel_workers: int | None = None,
    snapshot_cache: bool = False,
    self_maintenance: bool = False,
    batch_policy: BatchPolicy | None = None,
    journal: bool = False,
    checkpoint_every: int = 8,
    crash_plan=None,
    journal_dir=None,
    shards: int = 1,
) -> Testbed:
    """Create sources, load data, define the 6-way join view.

    ``backend`` selects the source implementation: ``"memory"`` (the
    default in-process engine) or ``"sqlite"`` (stdlib ``sqlite3``
    storage and SQL query answering) — the whole evaluation runs on
    either.

    ``parallel_workers`` switches the Dyno loop for the parallel
    executor (:class:`~repro.core.parallel.ParallelScheduler`) with that
    many workers; ``None`` keeps the serial scheduler.  ``1`` is the
    serial *arm* of the parallel model — same dispatch overheads and
    event machinery, no concurrency — which is the honest baseline for
    makespan comparisons.

    ``snapshot_cache`` arms the version-stamped snapshot cache
    (:mod:`repro.cache`): maintenance probes repeated across units are
    answered locally, patched forward through the committed deltas in
    the version gap, instead of paying a source round trip.

    ``self_maintenance`` arms the auxiliary self-maintenance store
    (:mod:`repro.maintenance.selfmaint`): per-relation projections of
    the view's needed columns, seeded free from the initial load and
    kept current from committed deltas, answer covered maintenance
    probes with **zero** source round trips.  It composes with
    ``snapshot_cache`` (aux is consulted first; the cache backstops
    uncovered probes).

    ``batch_policy`` arms adaptive group maintenance
    (:mod:`repro.maintenance.grouping`): safe runs of queued units are
    merged into single batched maintenance rounds before dispatch.

    ``journal`` arms the crash-recovery subsystem
    (:mod:`repro.recovery`): a write-ahead maintenance journal plus a
    checkpoint every ``checkpoint_every`` installed units, written to
    in-memory stores (or JSONL/JSON files under ``journal_dir``).
    ``crash_plan`` additionally installs a
    :class:`~repro.recovery.crash.CrashInjector` killing the warehouse
    per the plan; :meth:`Testbed.run` then recovers and resumes
    (``crash_plan`` implies ``journal``).

    ``shards`` routes the run through the sharded warehouse coordinator
    (:mod:`repro.core.sharding`).  The single 6-way view cannot split,
    so any ``shards > 1`` yields one *effective* shard — but the run
    then exercises the footprint router and coordinator end to end,
    which is exactly what the fig08–fig12 ``--shards`` flag wants;
    multi-shard speedups come from :func:`build_sharded_testbed`'s
    multi-view workloads.  The default 1 keeps the classic path
    untouched.
    """
    journal = journal or crash_plan is not None
    engine, rng = _populated_engine(
        tuples_per_relation, cost_model, seed, backend, snapshot_cache
    )

    relations = tuple(
        RelationRef(
            source_of_relation(index), relation_name(index), f"T{index + 1}"
        )
        for index in range(RELATION_COUNT)
    )
    projection = tuple(
        AttrRef(f"T{index + 1}", attribute)
        for index in range(RELATION_COUNT)
        for attribute in relation_schema(index).attribute_names
    )
    joins = tuple(
        JoinCondition(
            AttrRef(f"T{index + 1}", "K"), AttrRef(f"T{index + 2}", "K")
        )
        for index in range(RELATION_COUNT - 1)
    )
    view = ViewDefinition("V", SPJQuery(relations, projection, joins))
    router = None
    message_filter = None
    if shards > 1:
        from ..core.sharding import ShardRouter

        router = ShardRouter()
        router.register_view(0, view)
        message_filter = router.delivery_filter(0, engine.metrics)
    manager = ViewManager(engine, view, message_filter=message_filter)
    if self_maintenance:
        store = manager.install_self_maintenance()
        for source in engine.sources.values():
            store.seed_from_source(source)
    scheduler = _make_scheduler(
        manager, strategy, parallel_workers, batch_policy
    )
    recovery = None
    if journal:
        recovery = _arm_recovery(
            engine,
            manager,
            scheduler,
            strategy,
            parallel_workers,
            batch_policy,
            checkpoint_every,
            crash_plan,
            journal_dir,
        )
    warehouse = None
    if shards > 1:
        from ..core.sharding import Shard, ShardedWarehouse

        warehouse = ShardedWarehouse(
            [
                Shard(
                    0,
                    engine,
                    manager,
                    scheduler,
                    (view.name,),
                    recovery=recovery,
                )
            ],
            router,
        )
    testbed = Testbed(
        engine,
        manager,
        scheduler,
        tuples_per_relation,
        rng,
        strategy=strategy,
        parallel_workers=parallel_workers,
        batch_policy=batch_policy,
        recovery=recovery,
        shards=shards,
        warehouse=warehouse,
    )
    if warehouse is not None:
        # Per-shard recovery reports surface through the testbed list.
        warehouse.shards[0].crash_reports = testbed.crash_reports
    return testbed


def subview_query(first: int, last: int) -> SPJQuery:
    """An equi-join of testbed relations ``R{first+1}..R{last}``,
    projecting each relation's ``A`` attribute."""
    relations = tuple(
        RelationRef(
            source_of_relation(index), relation_name(index), f"T{index + 1}"
        )
        for index in range(first, last)
    )
    projection = tuple(
        AttrRef(f"T{index + 1}", f"A{index + 1}")
        for index in range(first, last)
    )
    joins = tuple(
        JoinCondition(
            AttrRef(f"T{index + 1}", "K"), AttrRef(f"T{index + 2}", "K")
        )
        for index in range(first, last - 1)
    )
    return SPJQuery(relations, projection, joins)


def build_multiview_testbed(
    strategy: Strategy,
    tuples_per_relation: int = 200,
    cost_model: CostModel | None = None,
    seed: int = 3,
    backend: str = "memory",
    parallel_workers: int | None = None,
    snapshot_cache: bool = False,
    self_maintenance: bool = False,
    batch_policy: BatchPolicy | None = None,
    spans: tuple[tuple[int, int], ...] = ((0, 3), (2, RELATION_COUNT)),
    journal: bool = False,
    checkpoint_every: int = 8,
    crash_plan=None,
    journal_dir=None,
) -> Testbed:
    """Like :func:`build_testbed` but with several overlapping subviews
    maintained by one :class:`~repro.views.multi.MultiViewManager`.

    Each ``(first, last)`` span becomes a subview joining
    ``R{first+1}..R{last}``; the defaults give the two-view split used
    by the multi-view convergence tests (relations R3 shared).  This is
    the testbed for the ABL-8 group-maintenance ablation: several views
    touched per update amplify the per-round savings of batching.
    """
    engine, rng = _populated_engine(
        tuples_per_relation, cost_model, seed, backend, snapshot_cache
    )
    views = [
        ViewDefinition(f"V{index + 1}", subview_query(first, last))
        for index, (first, last) in enumerate(spans)
    ]
    manager = MultiViewManager(engine, views)
    if self_maintenance:
        store = manager.install_self_maintenance()
        for source in engine.sources.values():
            store.seed_from_source(source)
    scheduler = _make_scheduler(
        manager, strategy, parallel_workers, batch_policy
    )
    recovery = None
    if journal or crash_plan is not None:
        recovery = _arm_recovery(
            engine,
            manager,
            scheduler,
            strategy,
            parallel_workers,
            batch_policy,
            checkpoint_every,
            crash_plan,
            journal_dir,
        )
    return Testbed(
        engine,
        manager,
        scheduler,
        tuples_per_relation,
        rng,
        strategy=strategy,
        parallel_workers=parallel_workers,
        batch_policy=batch_policy,
        recovery=recovery,
    )


#: four overlapping subviews covering R1..R6 with every relation in at
#: most two views — the balanced multi-view workload the sharding
#: ablation (ABL-11) scales across shards
SHARDED_SPANS: tuple[tuple[int, int], ...] = (
    (0, 2),
    (1, 3),
    (3, 5),
    (4, 6),
)


def sharded_world_specs(
    strategy: Strategy,
    shards: int = 1,
    tuples_per_relation: int = 200,
    cost_model: CostModel | None = None,
    seed: int = 3,
    backend: str = "memory",
    parallel_workers: int | None = None,
    snapshot_cache: bool = False,
    self_maintenance: bool = False,
    batch_policy: BatchPolicy | None = None,
    spans: tuple[tuple[int, int], ...] = SHARDED_SPANS,
    journal: bool = False,
    checkpoint_every: int = 8,
    crash_plan=None,
    journal_dir=None,
    fault_plan=None,
) -> list:
    """Plan the sharded warehouse as picklable per-shard world specs.

    Runs the same LPT view placement as :func:`build_sharded_testbed`
    and captures, per effective shard, everything needed to rebuild its
    world — spans, seeds, knobs.  Both the inline build and the
    process-parallel runtime's workers consume these specs through
    :func:`build_shard_world`, so the worlds are identical **by
    construction**, not by careful duplication.
    """
    from ..core.runtime import ShardWorldSpec
    from ..core.sharding import assign_views

    views = [
        ViewDefinition(f"V{index + 1}", subview_query(first, last))
        for index, (first, last) in enumerate(spans)
    ]
    span_of = {
        f"V{index + 1}": span for index, span in enumerate(spans)
    }
    buckets = assign_views(views, shards)
    specs = []
    for shard_id, bucket in enumerate(buckets):
        shard_dir = None
        if journal_dir is not None:
            from pathlib import Path

            shard_dir = str(Path(journal_dir) / f"shard-{shard_id}")
        specs.append(
            ShardWorldSpec(
                shard_id=shard_id,
                view_names=tuple(view.name for view in bucket),
                spans=tuple(span_of[view.name] for view in bucket),
                strategy=strategy,
                tuples_per_relation=tuples_per_relation,
                cost_model=cost_model,
                seed=seed,
                backend=backend,
                parallel_workers=parallel_workers,
                snapshot_cache=snapshot_cache,
                self_maintenance=self_maintenance,
                batch_policy=batch_policy,
                journal=journal or crash_plan is not None,
                checkpoint_every=checkpoint_every,
                crash_plan=crash_plan,
                journal_dir=shard_dir,
                fault_plan=fault_plan,
            )
        )
    return specs


def build_shard_world(spec, router=None):
    """Build ONE shard world from its spec; returns ``(shard,
    initial_sizes)``.

    ``router`` is the shared :class:`~repro.core.sharding.ShardRouter`
    when building inline; ``None`` (the worker-process case) creates a
    fresh worker-local router holding only this shard — behaviorally
    identical for the shard itself, because ``delivery_filter`` reads
    only its own shard's footprints.
    """
    from ..core.sharding import Shard, ShardRouter

    views = [
        ViewDefinition(name, subview_query(first, last))
        for name, (first, last) in zip(spec.view_names, spec.spans)
    ]
    engine, _ = _populated_engine(
        spec.tuples_per_relation,
        spec.cost_model,
        spec.seed,
        spec.backend,
        spec.snapshot_cache,
    )
    if spec.fault_plan is not None:
        from ..faults.injector import FaultInjector

        engine.install_faults(FaultInjector(spec.fault_plan))
    if router is None:
        router = ShardRouter()
    for view in views:
        router.register_view(spec.shard_id, view)
    message_filter = router.delivery_filter(spec.shard_id, engine.metrics)
    if len(views) == 1:
        manager = ViewManager(engine, views[0], message_filter=message_filter)
    else:
        manager = MultiViewManager(
            engine, list(views), message_filter=message_filter
        )
    if spec.self_maintenance:
        store = manager.install_self_maintenance()
        for source in engine.sources.values():
            store.seed_from_source(source)
    scheduler = _make_scheduler(
        manager, spec.strategy, spec.parallel_workers, spec.batch_policy
    )
    recovery = None
    if spec.journal:
        if spec.journal_dir is not None:
            from pathlib import Path

            Path(spec.journal_dir).mkdir(parents=True, exist_ok=True)
        recovery = _arm_recovery(
            engine,
            manager,
            scheduler,
            spec.strategy,
            spec.parallel_workers,
            spec.batch_policy,
            spec.checkpoint_every,
            spec.crash_plan,
            spec.journal_dir,
        )
    initial_sizes: dict[str, int] = {}
    for view in views:
        mv = (
            manager.manager_for(view.name).mv
            if hasattr(manager, "manager_for")
            else manager.mv
        )
        initial_sizes[view.name] = len(mv.extent)
    shard = Shard(
        spec.shard_id,
        engine,
        manager,
        scheduler,
        tuple(view.name for view in views),
        recovery=recovery,
    )
    return shard, initial_sizes


@dataclass
class ShardedTestbed:
    """A sharded multi-view warehouse plus its read front end.

    Exactly one of ``warehouse`` (inline coordinator, the oracle) or
    ``runtime`` (:class:`~repro.core.runtime.ProcessShardRuntime`,
    multi-core execution) drives the run; every accessor branches on
    which one is armed and answers identically — that equivalence *is*
    the runtime's acceptance criterion.
    """

    warehouse: object  # ShardedWarehouse | None
    tuples_per_relation: int
    shards: int
    #: view name -> extent cardinality right after the initial load
    #: (the read front end's version-0 sizes); resolved post-launch in
    #: process mode
    initial_sizes: dict[str, int]
    strategy: Strategy | None = None
    parallel_workers: int | None = None
    #: process-parallel runtime when ``shard_processes > 0``
    runtime: object | None = None

    @property
    def metrics(self):
        """Aggregated metrics; ``metrics.makespan`` is the aggregate
        makespan (completion time of the slowest shard)."""
        if self.runtime is not None:
            return self.runtime.aggregate_metrics()
        return self.warehouse.aggregate_metrics()

    def schedule_du_workload(
        self,
        count: int,
        start: float,
        interval: float,
        insert_fraction: float = 0.8,
        seed: int = 7,
        key_domain: int | None = None,
    ) -> None:
        """Fan the DU stream out: one identically-seeded copy per shard
        world (sources evolve identically; the router filters only the
        wrapper -> UMQ delivery)."""
        if self.runtime is not None:
            from ..core.runtime import WorkloadSpec

            self.runtime.add_workload_spec(
                WorkloadSpec(
                    "du",
                    {
                        "tuples_per_relation": self.tuples_per_relation,
                        "count": count,
                        "start": start,
                        "interval": interval,
                        "insert_fraction": insert_fraction,
                        "seed": seed,
                        "key_domain": key_domain,
                    },
                )
            )
            return
        self.warehouse.schedule_workload(
            lambda: make_du_workload(
                self.tuples_per_relation,
                count,
                start,
                interval,
                insert_fraction=insert_fraction,
                seed=seed,
                key_domain=key_domain,
            )
        )

    def schedule_sc_workload(
        self,
        count: int,
        start: float,
        interval: float,
        seed: int = 11,
        drop_first: bool = True,
    ) -> None:
        if self.runtime is not None:
            from ..core.runtime import WorkloadSpec

            self.runtime.add_workload_spec(
                WorkloadSpec(
                    "sc",
                    {
                        "count": count,
                        "start": start,
                        "interval": interval,
                        "seed": seed,
                        "drop_first": drop_first,
                    },
                )
            )
            return
        self.warehouse.schedule_workload(
            lambda: make_sc_workload(
                count, start, interval, seed=seed, drop_first=drop_first
            )
        )

    def run(self) -> None:
        if self.runtime is not None:
            self.runtime.run()
            self.initial_sizes = self.runtime.initial_sizes()
            return
        self.warehouse.run()

    def committed_updates(self) -> frozenset:
        if self.runtime is not None:
            return self.runtime.committed_updates()
        return self.warehouse.committed_updates()

    def extent_rows(self) -> dict[str, tuple]:
        if self.runtime is not None:
            return self.runtime.extent_rows()
        return self.warehouse.extent_rows()

    def shard_clocks(self) -> dict[int, float]:
        """Per-shard virtual clocks after the run (identity checks)."""
        if self.runtime is not None:
            return self.runtime.shard_clocks()
        return self.warehouse.shard_clocks()

    def check_consistency(self) -> bool:
        """Every shard's views converge to the fresh-recompute oracle.

        Process mode: convergence was checked *inside* each worker at
        COLLECT time, against the worker's own live sources.
        """
        if self.runtime is not None:
            return self.runtime.consistent()
        from ..views.consistency import check_convergence

        return all(
            check_convergence(manager).consistent
            for shard in self.warehouse.shards
            for manager in shard.view_managers()
        )

    def read_front_end(self):
        """Build the post-run read front end over the install logs."""
        from ..frontend.reads import ReadFrontEnd

        if self.runtime is not None:
            view_shard = {
                name: spec.shard_id
                for spec in self.runtime.specs
                for name in spec.view_names
            }
            return ReadFrontEnd.from_install_logs(
                self.runtime.install_logs(),
                view_shard,
                self.runtime.initial_sizes(),
                self.runtime.cost_model(),
                self.runtime.horizon(),
            )
        return ReadFrontEnd.for_warehouse(self.warehouse, self.initial_sizes)


def build_sharded_testbed(
    strategy: Strategy,
    shards: int = 1,
    tuples_per_relation: int = 200,
    cost_model: CostModel | None = None,
    seed: int = 3,
    backend: str = "memory",
    parallel_workers: int | None = None,
    snapshot_cache: bool = False,
    self_maintenance: bool = False,
    batch_policy: BatchPolicy | None = None,
    spans: tuple[tuple[int, int], ...] = SHARDED_SPANS,
    journal: bool = False,
    checkpoint_every: int = 8,
    crash_plan=None,
    journal_dir=None,
    fault_plan=None,
    shard_processes: int = 0,
) -> ShardedTestbed:
    """The sharded analogue of :func:`build_multiview_testbed`.

    Builds one full warehouse *world* per effective shard — its own
    engine, identically-seeded source replicas, snapshot cache,
    self-maintenance store, journal (under ``journal_dir/shard-N``) and
    fault injector — assigns the span subviews across shards with
    :func:`~repro.core.sharding.assign_views`, and wires every shard's
    wrappers through the footprint router.  ``shards=1`` is the oracle
    arm: one scheduler owning every view, still driven through the
    coordinator so the code path (not just the answer) is comparable.

    ``shard_processes=N`` (N >= 1) executes the shard worlds across N
    OS worker processes through
    :class:`~repro.core.runtime.ProcessShardRuntime` instead of the
    inline coordinator — bit-identical results on multiple cores; ``0``
    (the default) keeps the inline single-process oracle path.
    """
    from ..core.sharding import ShardedWarehouse, ShardRouter

    specs = sharded_world_specs(
        strategy,
        shards=shards,
        tuples_per_relation=tuples_per_relation,
        cost_model=cost_model,
        seed=seed,
        backend=backend,
        parallel_workers=parallel_workers,
        snapshot_cache=snapshot_cache,
        self_maintenance=self_maintenance,
        batch_policy=batch_policy,
        spans=spans,
        journal=journal,
        checkpoint_every=checkpoint_every,
        crash_plan=crash_plan,
        journal_dir=journal_dir,
        fault_plan=fault_plan,
    )
    if shard_processes:
        from ..core.runtime import ProcessShardRuntime

        runtime = ProcessShardRuntime(specs, shard_processes)
        return ShardedTestbed(
            None,
            tuples_per_relation,
            len(specs),
            {},
            strategy=strategy,
            parallel_workers=parallel_workers,
            runtime=runtime,
        )
    router = ShardRouter()
    shard_list = []
    initial_sizes: dict[str, int] = {}
    for spec in specs:
        shard, sizes = build_shard_world(spec, router=router)
        initial_sizes.update(sizes)
        shard_list.append(shard)
    warehouse = ShardedWarehouse(shard_list, router)
    return ShardedTestbed(
        warehouse,
        tuples_per_relation,
        len(specs),
        initial_sizes,
        strategy=strategy,
        parallel_workers=parallel_workers,
    )


def fixed_drop_attribute(
    relation_index: int, attribute: str | None = None
) -> FixedUpdate:
    """A deterministic drop of one non-key attribute of R_{i+1}."""
    name = relation_name(relation_index)
    target = attribute or f"B{relation_index + 1}"
    return FixedUpdate(DropAttribute(name, target))


def fixed_rename_relation(relation_index: int, version: int = 2) -> FixedUpdate:
    name = relation_name(relation_index)
    return FixedUpdate(RenameRelation(name, f"{name}__v{version}"))
