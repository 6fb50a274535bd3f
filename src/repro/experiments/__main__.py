"""Command-line runner for the figure reproductions.

Usage::

    python -m repro.experiments fig08 [--full]
    python -m repro.experiments fig09 fig10
    python -m repro.experiments all --full

Each figure prints the same series the paper charts; ``--full`` runs the
paper-scale sweeps (minutes), the default is a reduced configuration.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import (
    run_blind_merge_ablation,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_graph_scaling_ablation,
    run_group_maintenance_ablation,
    run_incremental_detection_ablation,
    run_parallel_ablation,
    run_recovery_ablation,
    run_self_maintenance_ablation,
    run_sharding_ablation,
    run_snapshot_cache_ablation,
    run_starvation_study,
)
from .fig08 import QUICK_DU_COUNTS as FIG8_QUICK
from .fig10 import QUICK_INTERVALS as FIG10_QUICK
from .fig11 import QUICK_SC_COUNTS as FIG11_QUICK
from .fig12 import QUICK_DU_COUNTS as FIG12_QUICK

_QUICK_TUPLES = 500
_FULL_TUPLES = 2000


def _runners(
    full: bool,
    seed: int | None = None,
    snapshot_cache: bool = False,
    self_maintenance: bool = False,
    group_maintenance: bool = False,
    journal: bool = False,
    checkpoint_every: int = 8,
    crash_seed: int | None = None,
    shards: int = 1,
) -> dict:
    tuples = _FULL_TUPLES if full else _QUICK_TUPLES
    # --seed overrides the workload seed of every runner that draws a
    # randomized stream (fig09's workload is deterministic); the value
    # threads through Testbed.random_du_workload and friends.
    seeded = {} if seed is None else {"seed": seed}
    # --cache turns the snapshot cache on for every figure runner, so
    # each chart can be produced in both arms; the ablations manage the
    # cache themselves (ABL-7 runs both arms internally).
    cached = {"snapshot_cache": snapshot_cache}
    # --self-maintenance likewise arms the auxiliary store for every
    # figure runner; ABL-10 runs its three arms internally.
    selfmaint = {"self_maintenance": self_maintenance}
    # --batch likewise arms adaptive group maintenance for every figure
    # runner; ABL-8 runs both arms internally.
    batched = {"group_maintenance": group_maintenance}
    # --journal / --checkpoint-every / --crash-seed arm the crash-
    # recovery subsystem on every fig08..fig12 testbed; a crash seed
    # draws one CrashPlan that kills and recovers each run mid-flight.
    # Crash-anywhere equivalence guarantees the recovered extent and
    # committed update set match the uncrashed run; the cost series
    # additionally charge the maintenance work redone after recovery.
    recovered = {
        "journal": journal or crash_seed is not None,
        "checkpoint_every": checkpoint_every,
        "crash_seed": crash_seed,
    }
    # --shards routes every fig08..fig12 testbed through the sharded
    # warehouse coordinator (single view => one effective shard, same
    # numbers, exercising the router + coordinator machinery end to
    # end); ABL-11 runs the real multi-view shard sweep internally.
    sharded = {"shards": shards}
    return {
        "fig08": lambda: run_fig08(
            tuples_per_relation=tuples,
            **({} if full else {"du_counts": FIG8_QUICK}),
            **seeded,
            **cached,
            **selfmaint,
            **batched,
            **recovered,
            **sharded,
        ),
        "fig09": lambda: run_fig09(
            tuples_per_relation=tuples,
            **cached,
            **selfmaint,
            **batched,
            **recovered,
            **sharded,
        ),
        "fig10": lambda: run_fig10(
            tuples_per_relation=tuples,
            **({} if full else {"intervals": FIG10_QUICK, "du_count": 60}),
            **seeded,
            **cached,
            **selfmaint,
            **batched,
            **recovered,
            **sharded,
        ),
        "fig11": lambda: run_fig11(
            tuples_per_relation=tuples,
            **({} if full else {"sc_counts": FIG11_QUICK, "du_count": 60}),
            **seeded,
            **cached,
            **selfmaint,
            **batched,
            **recovered,
            **sharded,
        ),
        "fig12": lambda: run_fig12(
            tuples_per_relation=tuples,
            **({} if full else {"du_counts": FIG12_QUICK}),
            **seeded,
            **cached,
            **selfmaint,
            **batched,
            **recovered,
            **sharded,
        ),
        "abl-blind-merge": lambda: run_blind_merge_ablation(
            tuples_per_relation=tuples,
            **({} if full else {"du_count": 60}),
            **seeded,
        ),
        "abl-graph-scaling": lambda: run_graph_scaling_ablation(),
        "abl-incremental-detection": lambda: (
            run_incremental_detection_ablation(
                **({} if full else {"sizes": (50, 100, 200)}),
                **seeded,
            )
        ),
        "abl-starvation": lambda: run_starvation_study(
            tuples_per_relation=min(tuples, 1000),
            **seeded,
        ),
        "abl-parallel": lambda: run_parallel_ablation(
            **(
                {"du_count": 80, "tuples_per_relation": 400}
                if full
                else {}
            ),
            **seeded,
        ),
        "abl-snapshot-cache": lambda: run_snapshot_cache_ablation(
            **(
                {"du_counts": (120, 240, 480), "tuples_per_relation": 400}
                if full
                else {}
            ),
            **seeded,
        ),
        "abl-self-maintenance": lambda: run_self_maintenance_ablation(
            **(
                {"du_counts": (120, 240, 480), "tuples_per_relation": 400}
                if full
                else {}
            ),
            **seeded,
        ),
        "abl-recovery": lambda: run_recovery_ablation(
            **(
                {"du_count": 96, "tuples_per_relation": 600}
                if full
                else {}
            ),
            **seeded,
        ),
        "abl-group-maintenance": lambda: run_group_maintenance_ablation(
            **(
                {"du_counts": (120, 240, 480), "tuples_per_relation": 400}
                if full
                else {}
            ),
            **seeded,
        ),
        "abl-sharding": lambda: run_sharding_ablation(
            **(
                {}
                if full
                else {
                    "du_count": 96,
                    "tuples_per_relation": 120,
                    "reads": 200_000,
                }
            ),
            **seeded,
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help="figure ids (fig08..fig12, abl-*) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweeps (minutes) instead of the quick defaults",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the workload seed of every randomized runner",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache",
        dest="snapshot_cache",
        action="store_true",
        help="run every figure with the snapshot cache enabled",
    )
    cache_group.add_argument(
        "--no-cache",
        dest="snapshot_cache",
        action="store_false",
        help="run without the snapshot cache (the default)",
    )
    parser.set_defaults(snapshot_cache=False)
    selfmaint_group = parser.add_mutually_exclusive_group()
    selfmaint_group.add_argument(
        "--self-maintenance",
        dest="self_maintenance",
        action="store_true",
        help="run every figure with the auxiliary self-maintenance "
        "store enabled (covered probes answered with zero round trips)",
    )
    selfmaint_group.add_argument(
        "--no-self-maintenance",
        dest="self_maintenance",
        action="store_false",
        help="run without the auxiliary store (the default)",
    )
    parser.set_defaults(self_maintenance=False)
    batch_group = parser.add_mutually_exclusive_group()
    batch_group.add_argument(
        "--batch",
        dest="group_maintenance",
        action="store_true",
        help="run every figure with adaptive group maintenance enabled",
    )
    batch_group.add_argument(
        "--no-batch",
        dest="group_maintenance",
        action="store_false",
        help="run without group maintenance (the default)",
    )
    parser.set_defaults(group_maintenance=False)
    parser.add_argument(
        "--journal",
        action="store_true",
        help="arm the write-ahead maintenance journal + checkpoints on "
        "every fig08..fig12 testbed (measures recovery overhead)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        metavar="N",
        help="checkpoint every N installed units when the journal is "
        "armed (default 8)",
    )
    parser.add_argument(
        "--crash-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="draw a seeded CrashPlan and kill + recover the warehouse "
        "mid-run in every fig08..fig12 testbed (implies --journal); "
        "every run must still converge to the uncrashed view state, "
        "with the redone work showing up in the cost series",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run every fig08..fig12 testbed through the sharded "
        "warehouse coordinator with N requested scheduler shards "
        "(single-view figures collapse to one effective shard; the "
        "baselines are unchanged at the default of 1 — the multi-view "
        "shard sweep is the abl-sharding runner)",
    )
    arguments = parser.parse_args(argv)
    if arguments.shards < 1:
        parser.error("--shards must be >= 1")
    if arguments.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")

    runners = _runners(
        arguments.full,
        arguments.seed,
        arguments.snapshot_cache,
        arguments.self_maintenance,
        arguments.group_maintenance,
        arguments.journal,
        arguments.checkpoint_every,
        arguments.crash_seed,
        arguments.shards,
    )
    requested = (
        list(runners) if "all" in arguments.figures else arguments.figures
    )
    unknown = [name for name in requested if name not in runners]
    if unknown:
        parser.error(
            f"unknown figure(s) {unknown}; choose from {list(runners)}"
        )

    for name in requested:
        started = time.time()
        result = runners[name]()
        print(result.table())
        print(f"({name} ran in {time.time() - started:.1f}s wall)\n")
        if not result.consistent:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
