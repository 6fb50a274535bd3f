"""End-to-end and per-layer benchmark of Dyno view maintenance.

    python3 perfbench/run.py --workload du_sc_journal --seed 1 --seconds 50 --trace 0

Each repetition builds its world from scratch in a fresh interpreter
(``rep.py``); this script repeats the workload for ``--seconds``,
checks every repetition, and reports medians.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` re-runs the
workload with outside-in layer spans (``layers.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is nonzero when any check failed.  A manifest of the run is written to
``perfbench/results/``.

Other modes (not used by automated runs; see README.md):

* ``--workload all`` runs every workload of ``BENCHMARK.json`` in turn
  and prints one table each;
* ``--steadiness N`` runs each workload N times with seeds
  ``seed..seed+N-1`` and reports each metric's median and quartile
  spread against its bound;
* ``--record-golden A-B`` records the virtual fingerprints of seeds
  ``A..B`` into ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: a run must end within 180 s; leave room for the last repetition
DEADLINE_S = 165.0

sys.path.insert(0, str(BENCH_DIR))
from rep import DU_INTERVAL, INSERT_FRACTION, KEY_DOMAIN, READS_PER_LEVEL, WORKLOADS  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------


def run_rep(workload, seed, size, arm="inline", trace_dir=None, run_id="untraced", timeout=150.0):
    """One repetition in a fresh interpreter; returns its JSON record."""
    command = [
        sys.executable,
        str(BENCH_DIR / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", str(size),
        "--arm", arm,
    ]
    if trace_dir is not None:
        command += ["--trace-out", str(trace_dir), "--run-id", run_id]
    base = {"workload": workload, "seed": seed, "size": size, "arm": arm,
            "scheduled": size + WORKLOADS[workload]["scs"], "traced": trace_dir is not None}
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return dict(base, error=f"repetition timed out after {timeout:.0f}s")
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return dict(base, error=f"exit {done.returncode}: {done.stderr[-2000:]}")
    record["traced"] = base["traced"]
    if done.returncode and "error" not in record:
        record["error"] = f"exit {done.returncode}: {done.stderr[-2000:]}"
    return record


def verify(reps: list[dict], workload: str, seed: int, golden: dict) -> None:
    """Mark each repetition ``ok`` or give the reason it is not.

    Beyond the per-repetition checks (convergence to the recompute
    oracle, committed set = submitted set), every full-size repetition
    of a run must carry the same virtual fingerprint — virtual clocks,
    extent digest and read-summary digest — and, when this seed's
    fingerprint was recorded, that one.
    """
    expected = golden.get(f"{workload}:{seed}")
    first_of_size: dict[int, dict] = {}
    full = WORKLOADS[workload]["dus"]
    for rep in reps:
        if "error" in rep:
            rep["ok"], rep["why"] = False, rep["error"].strip().splitlines()[-1]
            continue
        failed = [name for name, passed in rep["checks"].items() if not passed]
        fingerprint = rep["fingerprint"]
        reference = first_of_size.setdefault(rep["size"], fingerprint)
        if fingerprint != reference:
            failed.append("fingerprint differs between repetitions")
        if rep["size"] == full and expected is not None and fingerprint != expected:
            failed.append("fingerprint differs from golden.json")
        rep["ok"] = not failed
        rep["why"] = "; ".join(failed)
    for rep in reps:
        rep["golden"] = (
            "unrecorded" if expected is None
            else "match" if rep.get("fingerprint") == expected
            else "n/a" if rep["size"] != full
            else "MISMATCH"
        )


def repeat(plan, workload, seed, seconds, started, trace_dir=None):
    """Run the ``plan`` cycle of ``(size, arm, traced)`` repetitions
    until ``seconds`` have passed (at least one full cycle)."""
    reps = []
    deadline = started + DEADLINE_S
    longest = 0.0
    cycle = 0
    while True:
        for size, arm, traced in plan:
            now = time.perf_counter()
            if reps and now + longest > deadline:
                return reps
            rep_started = now
            run_id = f"c{cycle}"
            reps.append(
                run_rep(workload, seed, size, arm,
                        trace_dir if traced else None, run_id,
                        timeout=deadline + 10.0 - now)
            )
            longest = max(longest, time.perf_counter() - rep_started)
        cycle += 1
        if time.perf_counter() - started >= seconds:
            return reps


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def tail_of(values: list[float], better: str) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or
    the worst sample when there are too few for any."""
    for label, q in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(values) * (1 - q) >= 10:
            return label, percentile(values, q)
    return "worst", (max(values) if better == "lower" else min(values))


def summarize(unit, better, samples, value=None) -> dict:
    if not samples:
        return {"unit": unit, "value": 0.0, "median": 0.0, "tail": ["none", 0.0], "n": 0}
    median = statistics.median(samples)
    label, tail = tail_of(samples, better)
    return {
        "unit": unit,
        "value": median if value is None else value,
        "median": median,
        "tail": [label, tail],
        "n": len(samples),
    }


def end_to_end(reps: list[dict], spec: dict) -> dict[str, dict]:
    """Every end-to-end metric over the run's good full-size repetitions."""
    per_rep = {
        "setup_s": lambda r: r["setup_s"],
        "updates_per_s": lambda r: r["committed"] / r["run_s"],
        "cpu_ms_per_update": lambda r: 1000.0 * r["cpu_s"] / r["committed"],
        "peak_rss_mb": lambda r: r["peak_rss_mb"],
    }
    good = [r for r in reps if r["ok"]]
    units = [u for r in good for u in r["unit_ms"]]
    metrics = {}
    for entry in spec["end_to_end"]:
        name, unit, better = entry["name"], entry["unit"], entry["better"]
        if name == "unit_ms_p50":
            metrics[name] = summarize(unit, better, units)
        elif name == "unit_ms_p95":
            metrics[name] = summarize(unit, better, units,
                                      percentile(units, 0.95) if units else 0.0)
        else:
            metrics[name] = summarize(unit, better, [per_rep[name](r) for r in good])
    return metrics


def median_of(reps, key) -> float:
    values = [key(r) for r in reps]
    return statistics.median(values) if values else 0.0


def per_layer(reps: list[dict], workload: str, spec: dict) -> dict[str, dict]:
    """Per-layer metrics: medians over traced repetitions, plus the
    figures that compare traced and untraced, full and half size."""
    full = WORKLOADS[workload]["dus"]
    good = [r for r in reps if r["ok"]]
    traced = [r for r in good if r["traced"]]
    measured = [r for r in good if r["arm"] == "inline" and not r["traced"]]
    at_full = [r for r in measured if r["size"] == full]
    at_half = [r for r in measured if r["size"] != full]
    cpu_per_update = lambda r: r["cpu_s"] / r["committed"]  # noqa: E731
    runtime = [r["runtime"] for r in good if r["arm"] == "process"]

    values: dict[str, float] = {}
    layer_names = traced[0]["layers"] if traced else {}
    for name in layer_names:
        values[name] = median_of(traced, lambda r: r["layers"][name])
    untraced_wall = median_of(at_full, lambda r: r["run_s"])
    values["trace.overhead"] = (
        median_of(traced, lambda r: r["run_s"]) / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    half = median_of(at_half, cpu_per_update)
    values["cpu_per_update_exponent"] = (
        math.log2(median_of(at_full, cpu_per_update) / half) if half else 0.0
    )
    values["core.runtime.rounds"] = median_of(runtime, lambda x: x["rounds"])
    values["core.runtime.steps_per_round"] = median_of(
        runtime, lambda x: x["steps"] / x["rounds"] if x["rounds"] else 0.0
    )
    for key in ("parent_busy_s", "parent_wait_s", "prepare_s"):
        values[f"core.runtime.{key}"] = median_of(runtime, lambda x: x[key])
    if runtime:
        values["core.sharding.inline_maintain_s"] = untraced_wall
    for level in ("latest", "committed"):
        values[f"frontend.reads.{level}_serve_s"] = median_of(
            [r for r in good if r["size"] == full and "reads" in r],
            lambda r: r["reads"][level]["seconds"],
        )
    return {
        entry["name"]: {"unit": entry["unit"], "value": values.get(entry["name"], 0.0)}
        for entry in spec["per_layer"]
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def commit_id() -> str:
    """The checkout's git commit, or ``unknown`` outside a git tree
    (the search for ``.git`` stops at the checkout root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def configuration(workload: str) -> dict:
    config = dict(
        WORKLOADS[workload],
        strategy="PESSIMISTIC",
        backend="memory",
        key_domain=KEY_DOMAIN,
        insert_fraction=INSERT_FRACTION,
        du_interval=DU_INTERVAL,
    )
    if config["world"] == "sharded":
        config["reads_per_level"] = READS_PER_LEVEL
    return config


def write_manifest(args, metrics, reps, kind) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {
        "commit": commit_id(),
        "python": sys.version,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": configuration(args.workload),
        kind: metrics,
        "repetitions": [
            {key: value for key, value in rep.items() if key != "unit_ms"}
            | {"units_timed": len(rep.get("unit_ms", []))}
            for rep in reps
        ],
    }
    path = RESULTS_DIR / f"manifest-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


def print_table(title, metrics, error_rate=None) -> None:
    print(title)
    print(f"  {'metric':44} {'unit':6} {'value':>14} {'median':>14} {'tail':>20} {'n':>6}")
    for name, entry in metrics.items():
        if "median" in entry:
            label, tail = entry["tail"]
            print(f"  {name:44} {entry['unit']:6} {entry['value']:14.6g} "
                  f"{entry['median']:14.6g} {label:>5} {tail:14.6g} {entry['n']:6d}")
        else:
            print(f"  {name:44} {entry['unit']:6} {entry['value']:14.6g}")
    if error_rate is not None:
        print(f"  {'error_rate':44} {'ratio':6} {error_rate:14.6g}")


def measure(args) -> int:
    spec = load_spec()
    golden = load_golden()
    started = time.perf_counter()
    full = WORKLOADS[args.workload]["dus"]
    plan = [(full, "inline", False)]
    if args.trace:
        plan.append((full // 2, "inline", False))
        if WORKLOADS[args.workload]["world"] == "sharded":
            plan.append((full, "process", False))
        plan.append((full, "inline", True))
    trace_dir = RESULTS_DIR / "spans" if args.trace else None
    reps = repeat(plan, args.workload, args.seed, args.seconds, started, trace_dir)
    verify(reps, args.workload, args.seed, golden)

    attempted = sum(rep["scheduled"] for rep in reps)
    failed = sum(rep["scheduled"] for rep in reps if not rep["ok"])
    correct = failed == 0
    if args.trace:
        metrics = per_layer(reps, args.workload, spec)
        kind = "per_layer"
    else:
        metrics = end_to_end(reps, spec)
        kind = "end_to_end"
    path = write_manifest(args, metrics, reps, kind)
    for rep in reps:
        if not rep["ok"]:
            print(f"FAILED {rep['workload']} seed={rep['seed']} size={rep['size']} "
                  f"arm={rep['arm']}: {rep['why']}", file=sys.stderr)
    print_table(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reps)} golden={reps[0]['golden']} manifest={path.relative_to(ROOT)}",
        metrics,
        error_rate=failed / attempted if attempted else 1.0,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the other modes
# ----------------------------------------------------------------------


def invoke_self(workload, seed, seconds, trace) -> tuple[int, dict | None, str]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    except subprocess.TimeoutExpired:
        return 1, None, f"{workload} seed={seed}: timed out"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, result, "\n".join(lines[:-1]) + done.stderr


def benchmark_workloads() -> list[str]:
    return [entry["name"] for entry in load_spec()["workloads"]]


def run_all(args) -> int:
    status = 0
    for workload in benchmark_workloads():
        code, result, text = invoke_self(workload, args.seed, args.seconds, args.trace)
        print(text)
        if code or result is None or not result["correct"]:
            status = 1
    return status


def steadiness(args) -> int:
    """Repeat workloads over seeds; report median and IQR per metric."""
    spec = load_spec()
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    workloads = benchmark_workloads() if args.workload == "all" else [args.workload]
    status = 0
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(args.seed, args.seed + args.steadiness):
            code, result, text = invoke_self(workload, seed, args.seconds, 0)
            if code or result is None or not result["correct"]:
                print(f"{workload} seed={seed}: FAILED\n{text}", file=sys.stderr)
                status = 1
                continue
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        rows = {}
        print(f"{workload}: {args.steadiness} runs, seeds {args.seed}..{args.seed + args.steadiness - 1}")
        print(f"  {'metric':24} {'median':>12} {'iqr/median':>11} {'bound':>7}  verdict")
        for name, samples in values.items():
            if len(samples) < 2:
                continue
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds[name]
            verdict = ("steady" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "unresolved")
            if name == "setup_s" and verdict == "unresolved":
                verdict = "unresolved (setup spread is not gated)"
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "verdict": verdict, "values": samples}
            print(f"  {name:24} {median:12.6g} {spread:11.4f} {bound:7.3f}  {verdict}")
        report[workload] = rows
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"steadiness-{args.workload}-seed{args.seed}x{args.steadiness}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    return status


def record_golden(args) -> int:
    """Record (or confirm) the virtual fingerprints of a seed range."""
    first, _, last = args.record_golden.partition("-")
    golden = load_golden()
    status = 0
    for workload, config in WORKLOADS.items():
        for seed in range(int(first), int(last or first) + 1):
            rep = run_rep(workload, seed, config["dus"])
            key = f"{workload}:{seed}"
            if "error" in rep or not all(rep["checks"].values()):
                print(f"{key}: run failed, not recorded", file=sys.stderr)
                status = 1
            elif key in golden and golden[key] != rep["fingerprint"]:
                print(f"{key}: differs from the recorded fingerprint", file=sys.stderr)
                status = 1
            else:
                golden[key] = rep["fingerprint"]
                print(f"{key}: {rep['fingerprint']['virtual_clocks']}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat over N seeds and report spreads")
    parser.add_argument("--record-golden", metavar="A-B",
                        help="record virtual fingerprints of seeds A..B")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test ({ROOT / 'src' / 'repro'}) is missing",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args)
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
