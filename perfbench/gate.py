"""Correctness gate and deterministic counts for one sdnsim run.

``check`` reads ``report.json`` and returns the violations it finds plus the
run's deterministic facts. A run with any violation is failed and its
timings are discarded.
"""

from __future__ import annotations

import hashlib
import json

from workloads import host_ip

# Sustained rate of the scrubber's throttled return link, in bytes/s.
SCRUBBER_BYTES_PER_S = 12_500.0


def artifact_digest(report_bytes: bytes, csv_bytes: bytes, out_dir: str) -> str:
    """sha256 over stats.csv and report.json, with report.json's echo of the
    output directory normalized, since every run writes to its own."""
    echo = b'"output_dir": ' + json.dumps(out_dir).encode()
    if report_bytes.count(echo) != 1:
        raise ValueError("report.json does not echo the output directory once")
    h = hashlib.sha256(csv_bytes)
    h.update(report_bytes.replace(echo, b'"output_dir": "<out>"'))
    return h.hexdigest()


def check(report: dict, cfg: dict) -> tuple[list[str], dict]:
    """Violations of the run's invariants, and its deterministic facts."""
    errors: list[str] = []
    run = report["run"]
    flows = run["flows"]
    links = run["links"]
    attackers = {host_ip(name) for name in cfg["attackers"]}
    plan = report["mitigation"]
    scrubbed = set(plan["suspicious_sources"]) if plan else set()

    queued = 0
    for link in links:
        queued += link["queued_packets"]
        if link["entered_packets"] != (
            link["passed_packets"] + link["dropped_packets"] + link["queued_packets"]
        ):
            errors.append(f"link {link['link']} does not balance")

    emitted = delivered = dropped = missed = 0
    legit_emitted = legit_delivered = 0
    for pair, tally in flows.items():
        src, dst = pair.split("->")
        accounted = tally["delivered_packets"] + tally["dropped_packets"] + tally["missed_packets"]
        if src not in scrubbed and tally["emitted_packets"] != accounted:
            errors.append(f"flow {pair} does not conserve packets")
        emitted += tally["emitted_packets"]
        delivered += tally["delivered_packets"]
        dropped += tally["dropped_packets"]
        missed += tally["missed_packets"]
        if src not in attackers and dst not in attackers:
            legit_emitted += tally["emitted_packets"]
            legit_delivered += tally["delivered_packets"]
    if emitted != delivered + dropped + missed + queued:
        errors.append(
            f"flows do not conserve packets: emitted {emitted} != delivered {delivered}"
            f" + dropped {dropped} + missed {missed} + queued {queued}"
        )
    legit_frac = legit_delivered / legit_emitted if legit_emitted else 0.0
    if legit_frac != 1.0:
        errors.append(f"legitimate delivery fraction is {legit_frac}, not 1.0")

    events = {e["event"]: e["t"] for e in reversed(run["events"])}
    attack_t = events.get("attack_active", cfg["attack_start"])
    mitigated_t = events.get("mitigation_applied")
    if mitigated_t is None:
        detect_delay = cfg["duration"] - cfg["attack_start"]
    else:
        detect_delay = mitigated_t - attack_t

    if attackers:
        if plan is None:
            errors.append("the attack was never mitigated")
        else:
            if scrubbed != attackers:
                errors.append(
                    f"suspicious set {sorted(scrubbed)} != attackers {sorted(attackers)}"
                )
            errors += _throttle_errors(report, plan, cfg)

    counters = run["counters"].values()
    facts = {
        "pkts_emitted": emitted,
        "pkts_missed": missed,
        "rule_hits": sum(packets for packets, _ in counters),
        "packet_ins": sum(1 for e in run["events"] if e["event"] == "packet_in"),
        "rules_final": len(report["rules_final"]),
        "polls": len(run["poll_times"]),
        "samples": len(run["samples"]),
        "link_entered": sum(l["entered_packets"] for l in links),
        "link_passed": sum(l["passed_packets"] for l in links),
        "link_dropped": sum(l["dropped_packets"] for l in links),
        "link_queued": queued,
        "detect_delay_s": detect_delay,
        "legit_delivered_frac": legit_frac,
    }
    return errors, facts


def _throttle_errors(report: dict, plan: dict, cfg: dict) -> list[str]:
    """Each scrubbed flow delivers at most the scrubber's rate after mitigation."""
    run = report["run"]
    t_mit = report["mitigation_time"]
    span = cfg["duration"] - t_mit
    if span <= 0:
        return ["mitigation applied with no simulated time left to check it"]
    before = run["flow_snapshots"][run["poll_times"].index(t_mit)]
    errors = []
    for src in plan["suspicious_sources"]:
        pair = f"{src}->{plan['target']}"
        rate = (run["flows"][pair]["delivered_bytes"] - before[pair][1]) / span
        if rate > SCRUBBER_BYTES_PER_S:
            errors.append(f"scrubbed flow {pair} delivered {rate:.0f} B/s")
    return errors
