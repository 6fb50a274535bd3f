"""Outside-in layer spans for the traced benchmark run.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` replaces
each layer's public entry point (a module function or a class method)
with a wrapper that records one span per call, and puts the originals
back on :meth:`LayerTracer.uninstall`.  It is imported only by a traced
repetition, so untraced runs execute the unmodified program.

A span is ``(layer, start_ns, end_ns, parent)``; the run id is stored
once, in the spans file header.  Spans live in flat ``array`` columns
while the run executes and are written to disk after it ends.  Every
wrapped call is synchronous and single-threaded, so a span's children
never overlap one another and a layer's self time is its span minus the
sum of its direct children's spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

#: layer name -> (module, attribute path) of every wrapped entry point
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.scheduler.step": (("repro.core.scheduler", "DynoScheduler.step"),),
    "core.detect": (("repro.core.scheduler", "DynoScheduler.detect_and_correct"),),
    "core.correction": (("repro.core.scheduler", "correct"),),
    "maintenance.compensation": (
        ("repro.maintenance.vm", "compensate_answer"),
        ("repro.maintenance.va", "compensate_answer"),
    ),
    "maintenance.history": (
        ("repro.maintenance.history", "SchemaHistory.translate_data_update"),
    ),
    "relational.plan.lookup": (("repro.relational.plan", "PlanCache.plan_for"),),
    "relational.plan.exec": (("repro.relational.plan", "CompiledPlan.execute"),),
    "views.umq": (
        ("repro.views.umq", "UpdateMessageQueue.receive"),
        ("repro.views.umq", "UpdateMessageQueue.messages_behind"),
    ),
    "views.manager.install": (
        ("repro.views.manager", "ViewManager.install_unit"),
        ("repro.views.multi", "MultiViewManager.install_unit"),
    ),
    "sources.query": (("repro.sources.source", "DataSource.execute"),),
    "sources.commit": (("repro.sources.source", "DataSource.commit"),),
    "cache.snapshot": (("repro.cache.snapshot", "SnapshotCache.serve"),),
    "maintenance.selfmaint": (
        ("repro.maintenance.selfmaint", "SelfMaintenanceStore.serve"),
    ),
    "recovery.journal": (
        ("repro.recovery.journal", "MaintenanceJournal.record_install"),
    ),
    "recovery.checkpoint": (
        ("repro.recovery.recover", "RecoveryHarness.checkpoint"),
    ),
}

#: ``compensate_answer`` evaluates one probe per leaked delta through
#: this module-level helper; its calls are counted, not spanned
PROBE_ENTRY = ("repro.maintenance.compensation", "effect_on_answer")


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path inside a module."""
    import importlib

    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


class LayerTracer:
    """Span recorder over the layer entry points in :data:`SPANS`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.layers = list(SPANS)
        self.layer_of = array("B")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, layer_id: int, function, on_result=None):
        layer_of, starts, ends = self.layer_of, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            layer_of.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        counts = self.counts

        def count_graph(result) -> None:
            counts["core.correction.graph_nodes"] += result.node_count

        for layer_id, layer in enumerate(self.layers):
            for module_name, path in SPANS[layer]:
                owner, attribute = _resolve(module_name, path)
                on_result = count_graph if layer == "core.correction" else None
                self._patch(
                    owner,
                    attribute,
                    self._span_wrapper(
                        layer_id, getattr(owner, attribute), on_result
                    ),
                )
        owner, attribute = _resolve(*PROBE_ENTRY)
        probe = getattr(owner, attribute)

        def counted_probe(*args, **kwargs):
            counts["maintenance.compensation.probe_calls"] += 1
            return probe(*args, **kwargs)

        self._patch(owner, attribute, counted_probe)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``total_s`` and ``self_s``."""
        starts, ends, parents, layer_of = (
            self.starts,
            self.ends,
            self.parents,
            self.layer_of,
        )
        child_ns = [0] * len(starts)
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                child_ns[parent] += ends[index] - starts[index]
        calls = [0] * len(self.layers)
        total = [0] * len(self.layers)
        own = [0] * len(self.layers)
        for index in range(len(starts)):
            layer = layer_of[index]
            duration = ends[index] - starts[index]
            calls[layer] += 1
            total[layer] += duration
            own[layer] += duration - child_ns[index]
        return {
            layer: {
                "calls": calls[layer_id],
                "total_s": total[layer_id] / 1e9,
                "self_s": own[layer_id] / 1e9,
            }
            for layer_id, layer in enumerate(self.layers)
        }

    def write(self, directory: Path, stem: str) -> None:
        """Spans as raw native-endian columns plus a JSON header."""
        directory.mkdir(parents=True, exist_ok=True)
        header = {
            "run_id": self.run_id,
            "layers": self.layers,
            "spans": len(self.starts),
            "columns": [
                ["layer", self.layer_of.typecode],
                ["start_ns", self.starts.typecode],
                ["end_ns", self.ends.typecode],
                ["parent", self.parents.typecode],
            ],
            "counts": dict(self.counts),
        }
        (directory / f"{stem}.json").write_text(json.dumps(header, indent=1))
        with open(directory / f"{stem}.bin", "wb") as handle:
            for column in (self.layer_of, self.starts, self.ends, self.parents):
                column.tofile(handle)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer, counters: dict[str, float], committed: int
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``counters`` are run-phase deltas of the program's own ``Metrics``
    counters; ``committed`` is the number of committed updates.
    """
    totals = tracer.layer_totals()
    counts = tracer.counts

    def self_s(layer: str) -> float:
        return totals[layer]["self_s"]

    def calls(layer: str) -> int:
        return totals[layer]["calls"]

    step_total = totals["core.scheduler.step"]["total_s"]
    compensations = calls("maintenance.compensation")
    probes = counts["maintenance.compensation.probe_calls"]
    plan_lookups = calls("relational.plan.lookup")
    return {
        "maintenance.compensation.self_s": self_s("maintenance.compensation"),
        "maintenance.compensation.calls": compensations,
        "maintenance.compensation.probe_calls": probes,
        "maintenance.compensation.probes_per_call": _ratio(probes, compensations),
        "relational.plan.lookup_self_s": self_s("relational.plan.lookup"),
        "relational.plan.exec_self_s": self_s("relational.plan.exec"),
        "relational.plan.lookups_per_update": _ratio(plan_lookups, committed),
        "relational.plan.hit_ratio": _ratio(
            counters["plan_cache_hits"],
            counters["plan_cache_hits"] + counters["plan_cache_recompiles"],
        ),
        "maintenance.history.translate_self_s": self_s("maintenance.history"),
        "maintenance.history.translations_per_update": _ratio(
            calls("maintenance.history"), committed
        ),
        "core.detect.self_s": self_s("core.detect"),
        "core.detect.rounds": calls("core.detect"),
        "core.correction.self_s": self_s("core.correction"),
        "core.correction.graph_nodes": counts["core.correction.graph_nodes"],
        "views.umq.self_s": self_s("views.umq"),
        "views.umq.calls": calls("views.umq"),
        "sources.query_self_s": self_s("sources.query"),
        "sources.commit_self_s": self_s("sources.commit"),
        "sources.round_trips_per_update": _ratio(
            counters["source_round_trips"], committed
        ),
        "cache.snapshot.serve_self_s": self_s("cache.snapshot"),
        "cache.snapshot.hit_ratio": _ratio(
            counters["cache_hits"],
            counters["cache_hits"] + counters["cache_misses"],
        ),
        "maintenance.selfmaint.serve_self_s": self_s("maintenance.selfmaint"),
        "maintenance.selfmaint.hit_ratio": _ratio(
            counters["aux_hits"], counters["aux_hits"] + counters["aux_misses"]
        ),
        "views.manager.install_self_s": self_s("views.manager.install"),
        "recovery.journal_self_s": self_s("recovery.journal"),
        "recovery.checkpoint_self_s": self_s("recovery.checkpoint"),
        "recovery.checkpoints": calls("recovery.checkpoint"),
        "core.scheduler.step_self_s": self_s("core.scheduler.step"),
        "core.scheduler.steps": calls("core.scheduler.step"),
        "core.scheduler.aborts": counters["aborts"],
        "core.scheduler.abort_share": _ratio(
            counters["abort_cost"], counters["makespan"]
        ),
        "trace.unattributed_share": _ratio(
            self_s("core.scheduler.step"), step_total
        ),
    }
