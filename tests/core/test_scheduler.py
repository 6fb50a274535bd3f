"""The Dyno scheduler loop under every strategy."""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import (
    BLIND_MERGE,
    NAIVE,
    OPTIMISTIC,
    PESSIMISTIC,
)
from repro.sim.costs import CostModel
from repro.sources.messages import DataUpdate, DropAttribute, RenameRelation
from repro.sources.workload import FixedUpdate, Workload
from repro.views.consistency import check_convergence
from tests.conftest import CATALOG_SCHEMA, ITEM_SCHEMA, build_bookstore


def schedule(engine, items):
    workload = Workload()
    for at, source, payload in items:
        workload.add(at, source, FixedUpdate(payload))
    engine.schedule_workload(workload)


def catalog_insert() -> DataUpdate:
    return DataUpdate.insert(
        CATALOG_SCHEMA,
        [("Data Integration Guide", "Adams", "Eng", "P", "new")],
    )


class TestQuiescence:
    def test_empty_run_terminates(self):
        engine, manager = build_bookstore(CostModel.free())
        stats = DynoScheduler(manager, PESSIMISTIC).run()
        assert stats.iterations == 0

    def test_processes_pending_events(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(engine, [(5.0, "library", catalog_insert())])
        DynoScheduler(manager, PESSIMISTIC).run()
        assert manager.umq.is_empty()
        assert engine.metrics.maintained_updates == 1


class TestPessimistic:
    def test_co_arrival_avoids_abort(self):
        """DU and conflicting SC flood in together: pre-exec detection
        reorders before any doomed query is sent (Figure 9's point)."""
        engine, manager = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(manager, PESSIMISTIC).run()
        assert engine.metrics.aborts == 0
        assert check_convergence(manager).consistent

    def test_detection_skipped_without_flag(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()),
             (0.0, "library", catalog_insert())],
        )
        DynoScheduler(manager, PESSIMISTIC).run()
        assert engine.metrics.detection_rounds == 0  # DU-only: O(1) path

    def test_flag_triggers_detection_once(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                # Catalog.Author is not referenced by the view (the view
                # projects I.Author), so this SC conflicts with nothing.
                (0.0, "library", DropAttribute("Catalog", "Author")),
            ],
        )
        DynoScheduler(manager, PESSIMISTIC).run()
        assert engine.metrics.detection_rounds == 1


class TestOptimistic:
    def test_broken_query_aborts_then_corrects(self):
        engine, manager = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(manager, OPTIMISTIC).run()
        assert engine.metrics.aborts >= 1
        assert engine.metrics.abort_cost > 0
        assert check_convergence(manager).consistent

    def test_never_checks_flag(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(engine, [(0.0, "library", catalog_insert())])
        DynoScheduler(manager, OPTIMISTIC).run()
        assert manager.umq.new_schema_change_flag is False
        assert engine.metrics.detection_rounds == 0


class TestNaive:
    def test_broken_query_skips_update(self):
        engine, manager = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        scheduler = DynoScheduler(manager, NAIVE)
        stats = scheduler.run()
        # The broken-query anomaly occurred and the update was lost —
        # the failure mode the paper sets out to fix.
        assert stats.skipped_updates >= 1
        assert engine.metrics.broken_queries >= 1


class TestBlindMerge:
    def test_merges_whole_queue_on_break(self):
        engine, manager = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DataUpdate.insert(ITEM_SCHEMA, [
                    (1, "Data Integration Guide", "Adams", 35.99)
                ])),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(manager, BLIND_MERGE).run()
        assert engine.metrics.cycle_merges >= 1
        assert check_convergence(manager).consistent


class TestForcedProgress:
    def test_repeat_breaking_head_gets_merged(self):
        """A schema change committing mid-maintenance repeatedly breaks
        the same head; the safety valve merges and converges."""
        engine, manager = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", DropAttribute("Catalog", "Review")),
                # lands mid-adaptation of the first SC
                (5.0, "retailer", RenameRelation("Item", "Item2")),
                (10.0, "retailer", RenameRelation("Item2", "Item3")),
            ],
        )
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        scheduler.run()
        assert check_convergence(manager).consistent

    def test_max_iterations_guard(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(engine, [(0.0, "library", catalog_insert())])
        scheduler = DynoScheduler(manager, PESSIMISTIC, max_iterations=0)
        stats = scheduler.run()
        assert stats.iterations == 0
        assert engine.metrics.maintained_updates == 0


class TestAccounting:
    def test_abort_cost_below_total(self):
        # query_base=1.0 stretches the adaptation scans so the rename
        # at t=3.5 lands inside the Item scan window and breaks it.
        engine, manager = build_bookstore(CostModel(query_base=1.0))
        schedule(
            engine,
            [
                (0.0, "library", DropAttribute("Catalog", "Review")),
                (3.5, "retailer", RenameRelation("Item", "Item2")),
            ],
        )
        scheduler = DynoScheduler(manager, OPTIMISTIC)
        scheduler.run()
        metrics = engine.metrics
        assert 0 < metrics.abort_cost < metrics.maintenance_cost
        assert metrics.aborts >= 1
        assert len(scheduler.stats.abort_events) == metrics.aborts

    def test_stats_iterations_counted(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()) for _ in range(3)],
        )
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        stats = scheduler.run()
        assert stats.iterations == 3


class TestStepAPI:
    def test_step_processes_one_unit(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()) for _ in range(3)],
        )
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        assert scheduler.step()  # fire the commits
        assert scheduler.step()  # maintain unit 1
        assert engine.metrics.maintained_updates == 1
        assert len(manager.umq) == 2

    def test_step_false_when_quiescent(self):
        engine, manager = build_bookstore(CostModel.free())
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        assert not scheduler.step()

    def test_stepping_to_completion_equals_run(self):
        results = []
        for mode in ("run", "step"):
            engine, manager = build_bookstore(CostModel.paper_default())
            schedule(
                engine,
                [
                    (0.0, "library", catalog_insert()),
                    (0.5, "retailer", DropAttribute("Item", "Price")),
                ],
            )
            scheduler = DynoScheduler(manager, PESSIMISTIC)
            if mode == "run":
                scheduler.run()
            else:
                while scheduler.step():
                    pass
            results.append(
                (
                    round(engine.metrics.maintenance_cost, 9),
                    engine.metrics.maintained_updates,
                    sorted(manager.mv.extent.rows()),
                )
            )
        assert results[0] == results[1]


class TestForceProgressPreservesQueue:
    def test_nothing_to_absorb_keeps_other_units(self):
        """The safety valve must never drop queued units when the
        breaking source has no queued schema changes."""
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "library", catalog_insert()),
                (0.0, "library", catalog_insert()),
            ],
        )
        engine.drain_events()
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        before = list(manager.umq.messages())
        scheduler._force_progress("retailer")  # no retailer SC queued
        assert manager.umq.messages() == before  # untouched

    def test_absorbing_keeps_unrelated_units(self):
        engine, manager = build_bookstore(CostModel.free())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
                (0.0, "library", catalog_insert()),
            ],
        )
        engine.drain_events()
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        before = set(id(m) for m in manager.umq.messages())
        scheduler._force_progress("retailer")
        after = set(id(m) for m in manager.umq.messages())
        assert before == after  # multiset preserved
        assert scheduler.stats.forced_merges == 1
        assert manager.umq.head().is_batch  # head absorbed the SC

    def test_absorbing_takes_earlier_updates_of_the_source(self):
        # The SC may not be maintained ahead of a DU its source committed
        # before it: the DU must ride along in the merged head unit.
        engine, manager = build_bookstore(CostModel.free())
        item = DataUpdate.insert(ITEM_SCHEMA, [(1, "B", "A", 9.5)])
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", item),
                (0.0, "retailer", DropAttribute("Item", "Price")),
                (0.0, "library", catalog_insert()),
            ],
        )
        engine.drain_events()
        scheduler = DynoScheduler(manager, PESSIMISTIC)
        scheduler._force_progress("retailer")
        head, *rest = manager.umq.units
        assert [m.source for m in head] == ["library", "retailer", "retailer"]
        assert [[m.source for m in unit] for unit in rest] == [["library"]]
