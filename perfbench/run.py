#!/usr/bin/env python3
"""The sdnsim benchmark.

    python3 perfbench/run.py --workload {reference,fabric,flood,all} --seed N --seconds S --trace {0,1}

Generates the workload's scenario from the seed, then runs sdnsim from this
checkout's ``src`` in fresh processes, one at a time, for about S seconds:
first a few runs that stop at ``simnet.run`` entry (set-up time only), then
whole runs. Every whole run must pass the correctness gate (``gate.py``) and
produce the same artifacts and counts as the others. With ``--trace 1``
whole runs alternate between untraced and traced (``child.py`` wraps each
layer's public functions in spans).

Prints the environment record, then as its last line one JSON object:
``correct``, ``attempted`` and ``failed`` count whole runs and set-up runs,
and ``metrics`` holds the medians of the end-to-end metrics (``--trace 0``)
or of the per-layer metrics (``--trace 1``). ``--workload all`` measures
each workload for S seconds in turn. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
# Every run of the benchmark must end within 180 s.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pkt_per_s": "pkt/s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
    "detect_delay_s": "sim_s",
    "legit_delivered_frac": "frac",
}

# Trace counts that must repeat exactly across traced runs.
TRACE_COUNTS = (
    "routing.packet_in.calls", "routing.rules_installed", "simnet.steps",
    "simnet.link.entered_pkts", "simnet.link.passed_pkts", "simnet.link.dropped_pkts",
    "simnet.link.queue_peak", "telemetry.polls", "telemetry.samples",
    "analytics.kmeans_iters", "mitigation.rule_edits", "topology.nodes", "topology.ports",
)
# Trace count -> gate fact it must equal: tracing must not change behaviour.
TRACE_VS_REPORT = {
    "routing.packet_in.calls": "packet_ins",
    "telemetry.polls": "polls",
    "telemetry.samples": "samples",
    "simnet.link.entered_pkts": "link_entered",
    "simnet.link.passed_pkts": "link_passed",
    "simnet.link.dropped_pkts": "link_dropped",
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "%" if name.endswith("tail_pct") else "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("us_per_hop"):
        return "us"
    return "count"


def spawn(work: Path, cfg_path: Path, trace: bool, setup_only: bool, timeout: float) -> dict:
    """One sdnsim process in ``work``: start it, wait with a kill deadline,
    collect its timings, CPU time and peak RSS."""
    shutil.rmtree(work / "out", ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--src", str(SRC),
        "--config", str(cfg_path), "--out", "out", "--result", str(result_path),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    with open(work / "child.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.monotonic()
    run = {
        "elapsed_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "errors": [],
    }
    if proc.returncode != 0 or not result_path.is_file():
        tail = (work / "child.err").read_text(errors="replace")[-500:]
        run["errors"].append(f"exit code {proc.returncode}: {tail.strip()}")
        return run
    result = json.loads(result_path.read_text())
    run.update(
        setup_s=result["run_entry"] - start,
        wall_s=result["done"] - start,
        spans=result["spans"],
        numpy=result["numpy"],
    )
    return run


def check_artifacts(run: dict, work: Path, cfg: dict) -> None:
    """Gate one whole run; adds facts, digest and sizes to ``run``."""
    out = work / "out"
    report_bytes = (out / "report.json").read_bytes()
    csv_bytes = (out / "stats.csv").read_bytes()
    run["digest"] = gate.artifact_digest(report_bytes, csv_bytes, "out")
    run["report_bytes"] = len(report_bytes)
    run["csv_bytes"] = len(csv_bytes)
    errors, facts = gate.check(json.loads(report_bytes), cfg)
    run["errors"] += errors
    run["facts"] = facts
    if run["spans"]:
        run["layers"] = layers.layer_metrics(run["spans"])
        for count, fact in TRACE_VS_REPORT.items():
            if run["layers"][count] != facts[fact]:
                run["errors"].append(
                    f"trace {count} = {run['layers'][count]} but report {fact} = {facts[fact]}"
                )


def check_repeats(runs: list[dict]) -> None:
    """Every whole run must match the first passing one exactly."""
    first = next((r for r in runs if not r["errors"]), None)
    if first is None:
        return
    first_traced = next((r for r in runs if not r["errors"] and "layers" in r), None)
    for run in runs:
        if run["errors"]:
            continue
        if run["digest"] != first["digest"]:
            run["errors"].append("artifacts differ from the first run")
        if run["facts"] != first["facts"]:
            run["errors"].append("deterministic counts differ from the first run")
        if "layers" in run and any(
            run["layers"][c] != first_traced["layers"][c] for c in TRACE_COUNTS
        ):
            run["errors"].append("trace counts differ from the first traced run")


def end_to_end(untraced: list[dict], setups: list[float]) -> dict[str, float]:
    facts = untraced[0]["facts"]
    median = statistics.median
    return {
        "wall_s": median(r["wall_s"] for r in untraced),
        "setup_s": median(setups),
        "pkt_per_s": median(facts["pkts_emitted"] / r["wall_s"] for r in untraced),
        "peak_rss_mb": median(r["rss_mb"] for r in untraced),
        "artifact_bytes": untraced[0]["report_bytes"] + untraced[0]["csv_bytes"],
        "detect_delay_s": facts["detect_delay_s"],
        "legit_delivered_frac": facts["legit_delivered_frac"],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    median = statistics.median
    out = {
        name: median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    for series, span in (("routing.packet_in_ms", "routing.packet_in"),
                         ("simnet.step_ms", "simnet.step")):
        pooled = [d for r in traced for d in layers.durations_ms(r["spans"], span)]
        tail = layers.tail_percentile(len(pooled))
        out[f"{series}.p50"] = layers.percentile(pooled, 50.0) if pooled else 0.0
        out[f"{series}.tail"] = layers.percentile(pooled, tail) if pooled else 0.0
        out[f"{series}.tail_pct"] = tail
    facts = traced[0]["facts"]
    out["simnet.pkts_emitted"] = facts["pkts_emitted"]
    out["simnet.rule_hits"] = facts["rule_hits"]
    out["simnet.pkts_missed"] = facts["pkts_missed"]
    out["simnet.us_per_hop"] = 1e6 * out["simnet.step_self_s"] / max(facts["rule_hits"], 1)
    out["telemetry.csv_bytes"] = traced[0]["csv_bytes"]
    out["cli.report_bytes"] = traced[0]["report_bytes"]
    out["trace.wall_s"] = median(r["wall_s"] for r in traced)
    out["trace.overhead_frac"] = out["trace.wall_s"] / median(r["wall_s"] for r in untraced) - 1.0
    return out


def predictions(workload: str, m: dict[str, float]) -> list[str]:
    """The trace predictions the benchmark notes make, checked at this run."""
    lines = []
    if workload == "fabric":
        parts = {
            "routing.packet_in_s": m["routing.packet_in_s"],
            "simnet.step_self_s": m["simnet.step_self_s"],
            "telemetry.poll_s": m["telemetry.poll_s"],
            "analytics.on_poll_s": m["analytics.on_poll_s"],
            "telemetry.csv_write_s": m["telemetry.csv_write_s"],
            "cli.report_write_s": m["cli.report_write_s"],
            "setup": m["trace.wall_s"] - m["simnet.run_s"] - m["cli.report_write_s"],
        }
        top = max(parts, key=parts.get)
        share = parts["routing.packet_in_s"] / m["trace.wall_s"]
        lines.append(("holds" if top == "routing.packet_in_s" else f"MISMATCH (largest: {top})")
                     + f": routing.packet_in_s is the largest share of wall_s ({share:.3f})")
        link = [k for k in m if k.startswith("simnet.link.") and m[k] != 0]
        lines.append(("holds" if not link else f"MISMATCH ({', '.join(link)})")
                     + ": simnet.link.* is zero")
    if workload == "flood":
        share = m["simnet.step_self_s"] / m["trace.wall_s"]
        lines.append(("holds" if share > 0.9 else "MISMATCH")
                     + f": simnet.step_self_s is more than 0.9 of wall_s ({share:.3f})")
    return [f"prediction {workload}: {line}" for line in lines]


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the environment record and the result."""
    started = time.monotonic()
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
    }
    cfg = make_config(workload, seed)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path = work / "scenario.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))

        def budget() -> float:
            return max(5.0, HARD_LIMIT_S - (time.monotonic() - started))

        setup_runs = [spawn(work, cfg_path, False, True, budget()) for _ in range(SETUP_RUNS)]
        modes = [False, True] if trace else [False]
        deadline = started + seconds
        runs: list[dict] = []
        longest = 0.0
        # Start another whole run only if one as long as the longest so far
        # still ends before the deadline.
        while len(runs) < len(modes) or time.monotonic() + longest <= deadline:
            if time.monotonic() - started > HARD_LIMIT_S - longest:
                break
            traced = modes[len(runs) % len(modes)]
            run = spawn(work, cfg_path, traced, False, budget())
            run["traced"] = traced
            if not run["errors"]:
                try:
                    check_artifacts(run, work, cfg)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    run["errors"].append(f"unreadable artifacts: {exc!r}")
            runs.append(run)
            longest = max(longest, run["elapsed_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    check_repeats(runs)
    passed = [r for r in runs if not r["errors"]]
    untraced = [r for r in passed if not r["traced"]]
    traced_runs = [r for r in passed if r["traced"]]
    setups = [r["setup_s"] for r in setup_runs + untraced if not r["errors"]]
    failed = sum(1 for r in setup_runs + runs if r["errors"])

    env.update(
        numpy=next((r["numpy"] for r in passed), None),
        runs=[
            {"traced": r["traced"], "wall_s": r.get("wall_s"), "cpu_s": r["cpu_s"],
             "errors": r["errors"]}
            for r in runs
        ],
        setup_runs=[{"setup_s": r.get("setup_s"), "cpu_s": r["cpu_s"], "errors": r["errors"]}
                    for r in setup_runs],
    )
    metrics: dict[str, float] = {}
    if trace and traced_runs and untraced:
        metrics = per_layer(traced_runs, untraced)
        env["trace.overhead_frac"] = metrics["trace.overhead_frac"]
        env["predictions"] = predictions(workload, metrics)
    elif not trace and untraced and setups:
        metrics = end_to_end(untraced, setups)
    units = {} if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(setup_runs) + len(runs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }
    return env, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sdnsim" / "__init__.py").is_file():
        print(f"no sdnsim package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        env, results[name] = bench(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"env": env}))
        for line in env.get("predictions", []):
            print(line)
    if len(names) > 1:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
    # With --workload all, the last line carries every workload's metrics
    # under "<workload>.<metric>".
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if len(names) > 1 else metric): value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
