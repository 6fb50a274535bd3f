"""One benchmark repetition, run in a fresh interpreter.

``run.py`` launches this script once per repetition, so process-global
state (the compiled-plan cache, row interning) starts cold every time
and the peak RSS belongs to this repetition alone.  It builds the
workload's world from the seed, drives it to quiescence, checks the
result (on ``shards_reads`` it also replays seeded reads), and prints
one JSON record as the last line of its standard output.

    python3 perfbench/rep.py --workload du_sc_journal --seed 1 --size 200 \
        [--arm inline|process] [--trace-out DIR --run-id ID]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every workload's fixed configuration; ``--size`` sets the DU count.
WORKLOADS: dict[str, dict] = {
    "du_stream": {
        "world": "single",
        "tuples_per_relation": 2000,
        "dus": 400,
        "scs": 0,
        "journal": False,
    },
    "du_sc_journal": {
        "world": "single",
        "tuples_per_relation": 2000,
        "dus": 200,
        "scs": 3,
        "journal": True,
        "checkpoint_every": 8,
    },
    "shards_reads": {
        "world": "sharded",
        "tuples_per_relation": 2000,
        "dus": 1600,
        "scs": 2,
        "shards": 4,
        "shard_processes": 2,
        "self_maintenance": True,
        "snapshot_cache": True,
    },
}

#: shared by every workload: a hot-key, insert-heavy DU stream with one
#: arrival every ``DU_INTERVAL`` virtual seconds, strategy PESSIMISTIC
KEY_DOMAIN = 40
INSERT_FRACTION = 0.8
DU_INTERVAL = 0.05
#: seeded reads ``shards_reads`` replays per consistency level after
#: quiescence
READS_PER_LEVEL = 100_000


def derive_seeds(seed: int) -> dict[str, int]:
    """Every input of a repetition comes from the one CLI seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(1, 2**31) for name in ("data", "du", "sc", "reads")}


def sc_schedule(config: dict, dus: int) -> tuple[float, float]:
    """``(start, interval)`` spreading the SCs evenly over the stream."""
    span = dus * DU_INTERVAL
    return span * 0.2, span * 0.6 / max(config["scs"] - 1, 1)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


COUNTER_FIELDS = (
    "plan_cache_hits",
    "plan_cache_recompiles",
    "source_round_trips",
    "cache_hits",
    "cache_misses",
    "aux_hits",
    "aux_misses",
    "aborts",
    "abort_cost",
)


def counters_of(metrics) -> dict[str, float]:
    return {name: getattr(metrics, name) for name in COUNTER_FIELDS}


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {name: after[name] - before[name] for name in COUNTER_FIELDS}


def serve_reads(front_end, read_seed: int) -> tuple[dict, list]:
    """Replay the seeded read workload at both consistency levels."""
    from repro.frontend.reads import (
        READ_COMMITTED_VERSION,
        READ_LATEST,
        ReadWorkload,
    )

    timings = {}
    summaries = []
    for label, level in (("latest", READ_LATEST), ("committed", READ_COMMITTED_VERSION)):
        workload = ReadWorkload(count=READS_PER_LEVEL, seed=read_seed)
        started = time.perf_counter()
        report = front_end.serve(workload, level)
        timings[label] = {
            "count": report.count,
            "seconds": time.perf_counter() - started,
        }
        summaries.append(report.summary())
    return timings, summaries


def committed_at_sources(engine) -> set[tuple[str, int]]:
    """Every ``(source, seqno)`` the world's sources committed."""
    return {
        (message.source, message.seqno)
        for source in engine.sources.values()
        for message in source.log
    }


def run_single(config: dict, seeds: dict, size: int, out: dict, tracer, started: float):
    """``du_stream`` / ``du_sc_journal``: one 6-way join view, serial
    Dyno; the benchmark drives ``step()``/``finish()`` itself, which is
    exactly what ``DynoScheduler.run`` does, to time each unit."""
    from repro.core.strategies import PESSIMISTIC
    from repro.experiments.testbed import build_testbed
    from repro.views.consistency import check_convergence

    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=config["tuples_per_relation"],
        seed=seeds["data"],
        journal=config["journal"],
        checkpoint_every=config.get("checkpoint_every", 8),
    )
    engine = testbed.engine
    engine.schedule_workload(
        testbed.random_du_workload(
            size,
            start=DU_INTERVAL,
            interval=DU_INTERVAL,
            insert_fraction=INSERT_FRACTION,
            seed=seeds["du"],
            key_domain=KEY_DOMAIN,
        )
    )
    if config["scs"]:
        start, interval = sc_schedule(config, size)
        engine.schedule_workload(
            testbed.schema_change_workload(
                config["scs"], start=start, interval=interval, seed=seeds["sc"]
            )
        )
    out["setup_s"] = time.perf_counter() - started

    scheduler = testbed.scheduler
    umq = scheduler.umq
    before = counters_of(testbed.metrics)
    unit_ns = []
    clock = time.perf_counter_ns
    if tracer is not None:
        tracer.install()
    cpu_started = time.process_time()
    run_started = time.perf_counter()
    while True:
        queued = not umq.is_empty()
        step_started = clock()
        more = scheduler.step()
        if queued:
            unit_ns.append(clock() - step_started)
        if not more:
            break
    scheduler.finish()
    out["run_s"] = time.perf_counter() - run_started
    out["cpu_s"] = time.process_time() - cpu_started
    if tracer is not None:
        tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    out["unit_ms"] = [value / 1e6 for value in unit_ns]
    counters = counter_delta(before, counters_of(testbed.metrics))
    counters["makespan"] = engine.clock.now

    committed = testbed.committed_updates()
    out["committed"] = len(committed)
    out["checks"]["converged"] = check_convergence(testbed.manager).consistent
    out["checks"]["committed_equals_submitted"] = committed == committed_at_sources(engine)

    extents = {
        testbed.manager.view.name: tuple(
            sorted(map(tuple, testbed.manager.mv.extent.rows()))
        )
    }
    out["fingerprint"] = {
        "virtual_clocks": [repr(engine.clock.now)],
        "extent_sha256": digest(extents),
    }
    return counters, len(committed)


def _time_shard_steps(unit_ns: list) -> None:
    """Time every shard step that found work queued into ``unit_ns``.

    The inline coordinator steps shards in this process; shard workers
    forked later inherit the hook and fill their own copy of the list.
    """
    import repro.core.sharding as sharding

    step_shard = sharding.step_shard

    def timed_step(shard):
        queued = not shard.scheduler.umq.is_empty()
        step_started = time.perf_counter_ns()
        step_shard(shard)
        if queued:
            unit_ns.append(time.perf_counter_ns() - step_started)

    sharding.step_shard = timed_step


def _install_process_probes(probe: dict, unit_ns: list) -> None:
    """Cheap parent- and worker-side hooks on the process runtime.

    The worker hooks are installed before the fork, so every shard
    worker inherits them: they mark the worker's CPU after its world is
    built and report, when the shard's state is collected, the CPU the
    worker spent between the two (maintenance only), its timed steps,
    its peak RSS so far, and the updates its sources committed.  The
    parent hooks count the steps each coordinator round issues and
    time the parent's waits for replies.
    """
    import repro.core.runtime as runtime
    import repro.experiments.testbed as testbed_module

    worker = {"built_cpu": None, "reported": False}
    build_world = testbed_module.build_shard_world
    collect_state = runtime._collect_state

    def build_and_mark(spec, router=None):
        result = build_world(spec, router)
        worker["built_cpu"] = time.process_time()
        return result

    def collect_with_usage(shard):
        cpu = time.process_time()
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        state = collect_state(shard)
        first = not worker["reported"]
        worker["reported"] = True
        state["perfbench"] = {
            "run_cpu_s": cpu - worker["built_cpu"] if first else 0.0,
            "unit_ns": unit_ns if first else [],
            "peak_rss_mb": rss,
            "submitted": sorted(committed_at_sources(shard.engine)),
        }
        return state

    plan_round = runtime.plan_round

    def counted_plan_round(statuses):
        result = plan_round(statuses)
        steps, _holds, release = result
        probe["steps"] += len(steps) + (release is not None)
        return result

    runtime_class = runtime.ProcessShardRuntime
    receive = runtime_class._recv
    collect = runtime_class._collect

    def timed_receive(self, worker_handle):
        waited = time.perf_counter()
        try:
            return receive(self, worker_handle)
        finally:
            probe["wait_s"] += time.perf_counter() - waited

    def marked_collect(self):
        probe["collect_cpu"] = time.process_time()
        probe["collect_wall"] = time.perf_counter()
        probe["collect_wait_s"] = probe["wait_s"]
        return collect(self)

    testbed_module.build_shard_world = build_and_mark
    runtime._collect_state = collect_with_usage
    runtime.plan_round = counted_plan_round
    runtime_class._recv = timed_receive
    runtime_class._collect = marked_collect


def run_sharded(config: dict, seeds: dict, size: int, arm: str, out: dict, tracer, started: float):
    """``shards_reads``: 4 subviews over 4 shards; ``arm`` is
    ``inline`` (the in-process coordinator: the measured and the traced
    arm) or ``process`` (2 shard worker processes, timed for the
    ``core.runtime`` layer)."""
    from repro.core.strategies import PESSIMISTIC
    from repro.experiments.testbed import build_sharded_testbed

    probe = {"steps": 0, "wait_s": 0.0}
    unit_ns: list[int] = []
    _time_shard_steps(unit_ns)
    processes = config["shard_processes"] if arm == "process" else 0
    if processes:
        _install_process_probes(probe, unit_ns)
    testbed = build_sharded_testbed(
        PESSIMISTIC,
        shards=config["shards"],
        tuples_per_relation=config["tuples_per_relation"],
        seed=seeds["data"],
        self_maintenance=config["self_maintenance"],
        snapshot_cache=config["snapshot_cache"],
        shard_processes=processes,
    )
    testbed.schedule_du_workload(
        size,
        start=DU_INTERVAL,
        interval=DU_INTERVAL,
        insert_fraction=INSERT_FRACTION,
        seed=seeds["du"],
        key_domain=KEY_DOMAIN,
    )
    start, interval = sc_schedule(config, size)
    testbed.schedule_sc_workload(
        config["scs"], start=start, interval=interval, seed=seeds["sc"]
    )
    runtime = testbed.runtime
    if runtime is not None:
        runtime.prepare()
        probe["wait_s"] = 0.0
    out["setup_s"] = time.perf_counter() - started

    before = None if runtime is not None else counters_of(testbed.metrics)
    if tracer is not None:
        tracer.install()
    cpu_started = time.process_time()
    run_started = time.perf_counter()
    testbed.run()
    wall = time.perf_counter() - run_started
    cpu = time.process_time() - cpu_started
    if tracer is not None:
        tracer.uninstall()

    if runtime is None:
        out["run_s"] = wall
        out["cpu_s"] = cpu
        out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        out["unit_ms"] = [value / 1e6 for value in unit_ns]
        counters = counter_delta(before, counters_of(testbed.metrics))
        submitted = committed_at_sources(testbed.warehouse.shards[0].engine)
        worlds_agree = True
    else:
        states = [runtime._states[spec.shard_id]["perfbench"] for spec in runtime.specs]
        out["run_s"] = runtime.timings["execute"]
        out["cpu_s"] = (probe["collect_cpu"] - cpu_started) + sum(
            state["run_cpu_s"] for state in states
        )
        out["peak_rss_mb"] = max(
            [peak_rss_mb(resource.RUSAGE_SELF)]
            + [state["peak_rss_mb"] for state in states]
        )
        out["unit_ms"] = [value / 1e6 for state in states for value in state["unit_ns"]]
        busy_wall = probe["collect_wall"] - run_started
        out["runtime"] = {
            "rounds": runtime.rounds,
            "steps": probe["steps"],
            "prepare_s": runtime.timings["prepare"],
            "parent_wait_s": probe["collect_wait_s"],
            "parent_busy_s": busy_wall - probe["collect_wait_s"],
        }
        counters = counters_of(testbed.metrics)
        submitted_sets = [tuple(map(tuple, state["submitted"])) for state in states]
        submitted = set(submitted_sets[0])
        worlds_agree = all(entry == submitted_sets[0] for entry in submitted_sets)
    clocks = testbed.shard_clocks()
    counters["makespan"] = max(clocks.values())

    committed = testbed.committed_updates()
    out["committed"] = len(committed)
    out["checks"]["converged"] = testbed.check_consistency()
    out["checks"]["committed_equals_submitted"] = committed == submitted and worlds_agree

    out["reads"], summaries = serve_reads(testbed.read_front_end(), seeds["reads"])
    out["fingerprint"] = {
        "virtual_clocks": [repr(clocks[shard]) for shard in sorted(clocks)],
        "extent_sha256": digest(testbed.extent_rows()),
        "reads_sha256": digest(summaries),
    }
    return counters, len(committed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True, help="DU count")
    parser.add_argument("--arm", choices=("inline", "process"), default="inline")
    parser.add_argument("--trace-out", type=Path, help="trace: spans directory")
    parser.add_argument("--run-id", default="untraced")
    args = parser.parse_args(argv)

    config = WORKLOADS[args.workload]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "arm": args.arm,
        "scheduled": args.size + config["scs"],
        "checks": {},
    }
    started = time.perf_counter()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        tracer = None
        if args.trace_out is not None:
            from layers import LayerTracer, layer_metrics

            tracer = LayerTracer(args.run_id)
        seeds = derive_seeds(args.seed)
        if config["world"] == "single":
            counters, committed = run_single(config, seeds, args.size, out, tracer, started)
        else:
            counters, committed = run_sharded(
                config, seeds, args.size, args.arm, out, tracer, started
            )
        out["checks"]["all_scheduled_committed"] = committed == out["scheduled"]
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, counters, committed)
            stem = f"spans-{args.workload}-seed{args.seed}-{args.run_id}"
            tracer.write(args.trace_out, stem)
    except Exception:
        out["error"] = traceback.format_exc()
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
