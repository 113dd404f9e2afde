"""The embedded controller: shortest paths and flow-rule installation.

A first packet for an unknown flow raises a packet-in; the controller computes
a minimum-hop path, installs a per-flow (src+dst) rule at both edge switches,
dst-only rules at the core switches along the path, and mirrors the whole set
for the reverse direction. Core dst-only rules are shared between flows, so
all traffic toward one destination follows a tree rooted at its edge switch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .topology import NodeId, NodeKind, Topology

BASE_PRIORITY = 20001


class RoutingError(ValueError):
    pass


class _Miss:
    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: Sentinel returned by :func:`forward` when no rule matches.
MISS = _Miss()


@dataclass(frozen=True)
class FlowKey:
    src: str
    dst: str

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise RoutingError("flow source and destination must differ")

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src)


@dataclass(frozen=True)
class FlowRule:
    """Match-action entry: (src?, dst, in_port?) -> out_port at a priority.

    ``match_src`` is set on edge-switch per-flow rules and absent on core
    dst-only rules; ``in_port`` qualifies the mitigation return rules only.
    """

    switch: NodeId
    match_src: str | None
    match_dst: str
    out_port: int
    priority: int
    in_port: int | None = None

    def matches(self, src: str, dst: str, in_port: int | None) -> bool:
        if self.match_dst != dst:
            return False
        if self.match_src is not None and self.match_src != src:
            return False
        if self.in_port is not None and self.in_port != in_port:
            return False
        return True

    def dump(self) -> dict:
        return {
            "switch": self.switch.name,
            "match_src": self.match_src,
            "match_dst": self.match_dst,
            "in_port": self.in_port,
            "out_port": self.out_port,
            "priority": self.priority,
        }


@dataclass
class RuleEntry:
    """An installed rule plus its cumulative counters."""

    rule: FlowRule
    seq: int
    packets: int = 0
    bytes: int = 0


@dataclass
class RuleTable:
    """Per-switch rule lists; the controller's entire state.

    Lookup picks the highest-priority matching rule, ties broken by
    installation order (older first).
    """

    _by_switch: dict[NodeId, list[RuleEntry]] = field(default_factory=dict)
    _index: dict[tuple[NodeId, str | None, str], list[RuleEntry]] = field(
        default_factory=dict
    )
    _next_seq: int = 0

    def install(self, rule: FlowRule) -> RuleEntry:
        if self.find(rule.switch, rule.match_src, rule.match_dst, rule.priority):
            raise RoutingError(f"duplicate rule on {rule.switch}: {rule.dump()}")
        entry = RuleEntry(rule, self._next_seq)
        self._next_seq += 1
        self._by_switch.setdefault(rule.switch, []).append(entry)
        self._index.setdefault(
            (rule.switch, rule.match_src, rule.match_dst), []
        ).append(entry)
        return entry

    def delete(
        self, switch: NodeId, match_src: str | None, match_dst: str, priority: int
    ) -> RuleEntry:
        entry = self.find(switch, match_src, match_dst, priority)
        if entry is None:
            raise RoutingError(
                f"no rule ({match_src}, {match_dst}, prio {priority}) on {switch}"
            )
        self._by_switch[switch].remove(entry)
        self._index[(switch, match_src, match_dst)].remove(entry)
        return entry

    def find(
        self, switch: NodeId, match_src: str | None, match_dst: str, priority: int
    ) -> RuleEntry | None:
        for entry in self._index.get((switch, match_src, match_dst), ()):
            if entry.rule.priority == priority:
                return entry
        return None

    def lookup(
        self, switch: NodeId, src: str, dst: str, in_port: int | None = None
    ) -> RuleEntry | None:
        """Highest-priority matching entry, or None."""
        best: RuleEntry | None = None
        for bucket in (
            self._index.get((switch, src, dst), ()),
            self._index.get((switch, None, dst), ()),
        ):
            for entry in bucket:
                if not entry.rule.matches(src, dst, in_port):
                    continue
                if (
                    best is None
                    or entry.rule.priority > best.rule.priority
                    or (entry.rule.priority == best.rule.priority and entry.seq < best.seq)
                ):
                    best = entry
        return best

    def has_dst_rule(self, switch: NodeId, dst: str) -> bool:
        return bool(self._index.get((switch, None, dst)))

    def entries_at(self, switch: NodeId) -> list[RuleEntry]:
        return list(self._by_switch.get(switch, ()))

    def all_entries(self) -> list[RuleEntry]:
        out: list[RuleEntry] = []
        for switch in sorted(self._by_switch):
            out.extend(self._by_switch[switch])
        return out

    def dump(self) -> list[dict]:
        """Rule lines sorted by (switch, priority desc, install order)."""
        entries = self.all_entries()
        entries.sort(key=lambda e: (e.rule.switch, -e.rule.priority, e.seq))
        return [dict(e.rule.dump(), packets=e.packets, bytes=e.bytes) for e in entries]


def shortest_path(topology: Topology, a: NodeId, b: NodeId) -> list[NodeId]:
    """Minimum-hop path from a to b over unit-weight links.

    Equal-cost choices are resolved deterministically: nodes are expanded in
    (distance, canonical id) order and a node keeps the first predecessor that
    reaches it, so every hop comes from the smallest eligible neighbor.
    """
    if a not in topology.nodes or b not in topology.nodes:
        raise RoutingError("path endpoints must exist in the topology")
    if a == b:
        return [a]

    dist: dict[NodeId, int] = {a: 0}
    pred: dict[NodeId, NodeId] = {}
    frontier: list[tuple[int, NodeId]] = [(0, a)]
    done: set[NodeId] = set()
    while frontier:
        d, node = heapq.heappop(frontier)
        if node in done:
            continue
        done.add(node)
        if node == b:
            break
        for peer, _ in sorted(topology.neighbors(node)):
            if d + 1 < dist.get(peer, 1 << 30):
                dist[peer] = d + 1
                pred[peer] = node
                heapq.heappush(frontier, (d + 1, peer))

    if b not in dist:
        raise RoutingError(f"{b} unreachable from {a}")
    path = [b]
    while path[-1] != a:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def _install_one_direction(
    rules: RuleTable, topology: Topology, key: FlowKey, path: list[NodeId]
) -> list[FlowRule]:
    """Install rules along ``path`` (host, edge, cores..., edge, host)."""
    written: list[FlowRule] = []
    switches = path[1:-1]
    for pos, switch in enumerate(switches):
        next_node = path[pos + 2]
        out_port = topology.port_toward(switch, next_node)
        if switch.kind is NodeKind.EDGE:
            rule = FlowRule(switch, key.src, key.dst, out_port, BASE_PRIORITY)
            # Source and destination edge coincide for same-edge flows.
            if rules.find(switch, key.src, key.dst, BASE_PRIORITY):
                continue
        else:
            # Core switches route on destination only; an existing rule for
            # this destination is part of its tree and must not be doubled.
            if rules.has_dst_rule(switch, key.dst):
                continue
            rule = FlowRule(switch, None, key.dst, out_port, BASE_PRIORITY)
        rules.install(rule)
        written.append(rule)
    return written


def handle_packet_in(
    rules: RuleTable, topology: Topology, key: FlowKey
) -> list[FlowRule]:
    """Answer a packet-in: install forward and reverse rules for ``key``.

    Returns the rules written; an already-programmed flow is a no-op and
    returns an empty list.
    """
    src_host = topology.host_of_ip.get(key.src)
    dst_host = topology.host_of_ip.get(key.dst)
    if src_host is None or dst_host is None:
        raise RoutingError(f"unknown address in flow {key.src} -> {key.dst}")

    src_edge = topology.edge_of_host(src_host)
    if rules.find(src_edge, key.src, key.dst, BASE_PRIORITY):
        return []

    path = shortest_path(topology, src_host, dst_host)
    written = _install_one_direction(rules, topology, key, path)
    written += _install_one_direction(
        rules, topology, key.reversed(), list(reversed(path))
    )
    return written


def forward(
    rules: RuleTable, at: NodeId, key: FlowKey, in_port: int | None = None
):
    """Datapath lookup: out port of the best matching rule, or MISS."""
    entry = rules.lookup(at, key.src, key.dst, in_port)
    if entry is None:
        return MISS
    return entry.rule.out_port
