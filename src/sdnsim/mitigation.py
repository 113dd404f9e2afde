"""Scrubber detour: throttle suspicious flows through an added switch.

The scrubber hangs off the target server's edge switch behind two links:
edge port 200 feeds the scrubber (its port 1), and the scrubber's port 201
returns into edge port 201 over the throttled link (0.1 Mbit/s = 12 500
bytes/s, queue of 1000 packets). Per suspicious flow, the edge switch's
per-flow rule toward the server is deleted and replaced by a redirect to
port 200 at priority 30001; the scrubber loops the flow back at 30002; a
shared ingress-qualified rule (in from port 201, priority 40003) hands the
returning traffic to the server's port. The replacing redirect inherits the
deleted rule's counters, so polled totals never step backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .routing import BASE_PRIORITY, FlowRule, RuleTable
from .topology import (
    SCRUBBER_OUT_PORT,
    SCRUBBER_RETURN_PORT,
    Link,
    NodeId,
    Topology,
    TopologyError,
    attach_switch,
    ip_key,
)

SCRUBBER_CAPACITY_BPS = 12_500.0  # 0.1 Mbit/s
SCRUBBER_QUEUE_CAP = 1000
REDIRECT_PRIORITY = 30001
LOOP_PRIORITY = 30002
RETURN_PRIORITY = 40003
MAX_SCRUBBERS = 100


class MitigationError(RuntimeError):
    pass


@dataclass(frozen=True)
class RuleEdit:
    op: str  # "delete" | "add"
    rule: FlowRule


@dataclass
class MitigationPlan:
    scrubber: NodeId
    attach_to: NodeId
    links: list[Link]
    rule_edits: list[RuleEdit]
    target: str
    suspicious_sources: list[str] = field(default_factory=list)


def plan_scrubber(
    target: str, suspicious_sources: list[str], topology: Topology, rules: RuleTable
) -> MitigationPlan:
    """Plan the detour toward ``target`` for every suspicious source's flow."""
    if not suspicious_sources:
        raise MitigationError("no suspicious sources to mitigate")

    serial = len(topology.scrubbers())
    if serial >= MAX_SCRUBBERS:
        raise MitigationError("scrubber serial numbers exhausted")
    scrubber = NodeId.scrubber(serial)

    server_host = topology.host_of_ip.get(target)
    if server_host is None:
        raise MitigationError(f"unknown target {target}")
    edge = topology.edge_of_host(server_host)
    used = topology.used_ports(edge)
    if SCRUBBER_OUT_PORT in used or SCRUBBER_RETURN_PORT in used:
        raise MitigationError(f"{edge} already has a scrubber attached")

    links = [
        Link(edge, SCRUBBER_OUT_PORT, scrubber, 1),
        Link(
            scrubber,
            SCRUBBER_RETURN_PORT,
            edge,
            SCRUBBER_RETURN_PORT,
            capacity=SCRUBBER_CAPACITY_BPS,
            queue_cap=SCRUBBER_QUEUE_CAP,
        ),
    ]

    server_port = topology.port_toward(edge, server_host)
    edits: list[RuleEdit] = []
    for src in sorted(suspicious_sources, key=ip_key):
        existing = rules.find(edge, src, target, BASE_PRIORITY)
        if existing is None:
            raise MitigationError(
                f"no rule for suspicious flow {src}->{target} on {edge}"
            )
        edits.append(RuleEdit("delete", FlowRule(edge, src, target, existing.out_port,
                                                 BASE_PRIORITY, existing.in_port)))
        edits.append(
            RuleEdit(
                "add",
                FlowRule(edge, src, target, SCRUBBER_OUT_PORT, REDIRECT_PRIORITY),
            )
        )
        if len(edits) == 2:
            # One shared return rule per plan: traffic re-entering on the
            # scrubber port goes out the server's original port.
            edits.append(
                RuleEdit(
                    "add",
                    FlowRule(
                        edge,
                        None,
                        target,
                        server_port,
                        RETURN_PRIORITY,
                        in_port=SCRUBBER_RETURN_PORT,
                    ),
                )
            )
        edits.append(
            RuleEdit(
                "add",
                FlowRule(
                    scrubber, src, target, SCRUBBER_RETURN_PORT, LOOP_PRIORITY
                ),
            )
        )

    return MitigationPlan(
        scrubber,
        edge,
        links,
        edits,
        target,
        sorted(suspicious_sources, key=ip_key),
    )


def apply(plan: MitigationPlan, topology: Topology, rules: RuleTable) -> None:
    """Apply a plan atomically: everything is validated before any mutation.

    The rule edits are dry-run first; :func:`attach_switch` then validates
    the scrubber and its links before it changes the topology.
    """
    pending: dict[tuple, bool] = {}
    for edit in plan.rule_edits:
        r = edit.rule
        ident = (r.switch, r.match_src, r.match_dst, r.priority)
        exists = pending.get(ident, rules.find(*ident) is not None)
        if exists == (edit.op == "add"):
            problem = "duplicate" if exists else "missing"
            raise MitigationError(f"cannot {edit.op} {problem} rule ({r.match_src}, "
                                  f"{r.match_dst}, prio {r.priority}) on {r.switch}")
        pending[ident] = edit.op == "add"

    try:
        attach_switch(topology, plan.scrubber, plan.links)
    except TopologyError as exc:
        raise MitigationError(str(exc)) from exc
    removed: dict[tuple[NodeId, str | None, str], tuple[int, int]] = {}
    for edit in plan.rule_edits:
        r = edit.rule
        if edit.op == "delete":
            entry = rules.delete(r.switch, r.match_src, r.match_dst, r.priority)
            removed[(r.switch, r.match_src, r.match_dst)] = (entry.packets, entry.bytes)
        else:
            entry = rules.install(r)
            inherited = removed.pop((r.switch, r.match_src, r.match_dst), None)
            if inherited is not None:
                entry.packets, entry.bytes = inherited

