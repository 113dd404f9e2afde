"""Per-layer metrics from the spans of one traced run.

A span is ``[name, start, end, parent index, counts]`` as ``child.py``
records it. A span's self time is its duration minus the durations of its
direct children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import math
from collections import defaultdict

# Percentiles tried for ``.tail``, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _rank(pct: float, n: int) -> int:
    # Rounding first keeps 90 % of 100 at rank 90, not 91.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile of ``TAIL_LADDER`` with at least ten of ``n``
    samples beyond it; the median when the sample is too small for any."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            best = pct
    return best


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Times (s) and counts per layer for one traced run."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, list] = defaultdict(list)
    for (name, start, end, _, extra), self_s in zip(spans, own):
        total[name] += end - start
        self_total[name] += self_s
        calls[name] += 1
        if extra is not None:
            counts[name].append(extra)

    def summed(name: str, field: int = 0) -> int:
        return sum(c[field] for c in counts[name])

    links = counts["simnet.step"][-1] if counts["simnet.step"] else [0, 0, 0, 0]
    entered, passed, dropped, _ = links
    topo = counts["topology.build"][0] if counts["topology.build"] else [0, 0]
    return {
        "routing.packet_in.calls": calls["routing.packet_in"],
        "routing.packet_in_s": total["routing.packet_in"],
        "routing.shortest_path_s": total["routing.shortest_path"],
        "routing.install_self_s": self_total["routing.packet_in"],
        "routing.rules_installed": summed("routing.packet_in"),
        "simnet.run_s": total["simnet.run"],
        "simnet.steps": calls["simnet.step"],
        "simnet.step_self_s": self_total["simnet.step"],
        "simnet.link.entered_pkts": entered,
        "simnet.link.passed_pkts": passed,
        "simnet.link.dropped_pkts": dropped,
        "simnet.link.queue_peak": max((c[3] for c in counts["simnet.step"]), default=0),
        "simnet.link.pass_frac": passed / entered if entered else 0.0,
        "telemetry.polls": calls["telemetry.poll"],
        "telemetry.poll_s": total["telemetry.poll"],
        "telemetry.samples": summed("telemetry.poll"),
        "telemetry.delta_s": total["telemetry.delta"],
        "telemetry.csv_write_s": total["telemetry.csv_write"],
        "analytics.on_poll_s": total["analytics.on_poll"],
        "analytics.on_poll_self_s": self_total["analytics.on_poll"],
        "analytics.features_s": total["analytics.features"],
        "analytics.kmeans_s": total["analytics.kmeans"],
        "analytics.kmeans_iters": summed("analytics.kmeans"),
        "analytics.gaussian_s": total["analytics.gaussian"],
        "analytics.detect_s": total["analytics.detect"],
        "analytics.compare_s": total["analytics.compare"],
        "mitigation.plan_s": total["mitigation.plan"],
        "mitigation.apply_s": total["mitigation.apply"],
        "mitigation.rule_edits": summed("mitigation.plan"),
        "cli.validate_s": total["cli.validate"],
        "cli.build_scenario_s": total["cli.build_scenario"],
        "topology.build_s": total["topology.build"],
        "topology.nodes": topo[0],
        "topology.ports": topo[1],
        "cli.report_write_s": self_total["cli.run_scenario"],
    }


def durations_ms(spans: list[list], name: str) -> list[float]:
    return [1e3 * (end - start) for n, start, end, _, _ in spans if n == name]
