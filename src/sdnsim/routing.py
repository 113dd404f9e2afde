"""The embedded controller: shortest paths and flow-rule installation.

A first packet for an unknown flow raises a packet-in; the controller computes
a minimum-hop path, installs a per-flow (src+dst) rule at both edge switches,
dst-only rules at the core switches along the path, and mirrors the whole set
for the reverse direction. Core dst-only rules are shared between flows, so
all traffic toward one destination follows a tree rooted at its edge switch.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .topology import NodeId, NodeKind, Topology, ip_key

BASE_PRIORITY = 20001


class RoutingError(ValueError):
    pass


class FlowKey(NamedTuple):
    """A flow's source and destination addresses: a plain tuple, equal to
    ``(src, dst)``."""

    src: str
    dst: str

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src)


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class RuleEntry:
    """An installed rule: its match-action fields, its install order
    ``seq`` and its cumulative counters, in one record.

    ``next`` links the next rule installed under the same (switch,
    match_src, match_dst) key, so a key's rules form one chain in install
    order. Iterating a rule walks the chain from it, and equality compares
    the rest of the chain too.
    """

    switch: NodeId
    match_src: str | None
    match_dst: str
    out_port: int
    priority: int
    in_port: int | None
    seq: int
    packets: int = 0
    bytes: int = 0
    next: RuleEntry | None = None

    def __iter__(self) -> Iterator[RuleEntry]:
        entry: RuleEntry | None = self
        while entry is not None:
            yield entry
            entry = entry.next


def _is_polled(switch: NodeId, match_src: str | None) -> bool:
    """Whether a rule's counters are polled: a per-flow rule on an edge switch."""
    return match_src is not None and switch.kind is NodeKind.EDGE


@dataclass
class RuleTable:
    """The controller's entire state: one index of installed rules, keyed
    by (switch, match_src, match_dst). Each key maps to its oldest rule,
    and the key's later rules follow through ``RuleEntry.next`` in
    installation order. A key whose last rule is deleted leaves the index.

    Lookup picks the highest-priority matching rule, ties broken by
    installation order (older first). A lookup for ``src``/``dst`` reads
    only the rules whose ``(match_dst, match_src)`` is ``(dst, src)`` or
    ``(dst, None)``, and ``versions[match_dst, match_src]`` changes with
    every install and delete of such a rule, so a caller can tell from
    those two versions when lookups for a flow it remembers may have
    changed.

    The polled keys, those of per-flow rules (``match_src`` set) on edge
    switches, are also kept in a list that ``install`` and ``delete``
    maintain; :meth:`polled` puts it in sample order, (switch name, source
    address, destination address), only when keys were added since.
    """

    _index: dict[tuple[NodeId, str | None, str], RuleEntry] = field(default_factory=dict)
    _next_seq: int = 0
    versions: Counter[tuple[str, str | None]] = field(default_factory=Counter, compare=False)
    _polled: list[tuple[NodeId, str, str]] = field(default_factory=list, compare=False)
    _polled_sorted: bool = field(default=True, compare=False)

    def install(self, rule: FlowRule) -> RuleEntry:
        if self.find(rule.switch, rule.match_src, rule.match_dst, rule.priority):
            raise RoutingError(f"duplicate rule ({rule.match_src}, {rule.match_dst}, "
                               f"prio {rule.priority}) on {rule.switch}")
        entry = RuleEntry(rule.switch, rule.match_src, rule.match_dst, rule.out_port,
                          rule.priority, rule.in_port, self._next_seq)
        self._next_seq += 1
        self.versions[rule.match_dst, rule.match_src] += 1
        key = (rule.switch, rule.match_src, rule.match_dst)
        head = self._index.get(key)
        if head is None:
            self._index[key] = entry
            if _is_polled(rule.switch, rule.match_src):
                self._polled.append(key)
                self._polled_sorted = False
        else:
            *_, last = head
            last.next = entry
        return entry

    def delete(
        self, switch: NodeId, match_src: str | None, match_dst: str, priority: int
    ) -> RuleEntry:
        key = (switch, match_src, match_dst)
        before = None
        entry = self._index.get(key)
        while entry is not None and entry.priority != priority:
            before, entry = entry, entry.next
        if entry is None:
            raise RoutingError(
                f"no rule ({match_src}, {match_dst}, prio {priority}) on {switch}"
            )
        if before is not None:
            before.next = entry.next
        elif entry.next is not None:
            self._index[key] = entry.next
        else:
            del self._index[key]
            if _is_polled(switch, match_src):
                self._polled.remove(key)
        entry.next = None
        self.versions[match_dst, match_src] += 1
        return entry

    def find(
        self, switch: NodeId, match_src: str | None, match_dst: str, priority: int
    ) -> RuleEntry | None:
        for entry in self._index.get((switch, match_src, match_dst), ()):
            if entry.priority == priority:
                return entry
        return None

    def lookup(
        self, switch: NodeId, src: str, dst: str, in_port: int | None = None
    ) -> RuleEntry | None:
        """Highest-priority matching entry, or None."""
        best: RuleEntry | None = None
        for chain in (
            self._index.get((switch, src, dst), ()),
            self._index.get((switch, None, dst), ()),
        ):
            for entry in chain:
                # The chain's key fixed switch, src and dst; in_port is left.
                if entry.in_port is not None and entry.in_port != in_port:
                    continue
                if (
                    best is None
                    or entry.priority > best.priority
                    or (entry.priority == best.priority and entry.seq < best.seq)
                ):
                    best = entry
        return best

    def has_dst_rule(self, switch: NodeId, dst: str) -> bool:
        return (switch, None, dst) in self._index

    def all_entries(self) -> list[RuleEntry]:
        """Every installed entry: each key's rules in install order, the
        keys in no promised order."""
        return [entry for chain in self._index.values() for entry in chain]

    def polled(self) -> Iterator[tuple[tuple[NodeId, str, str], RuleEntry]]:
        """Each polled key with its oldest rule, the head of its chain, in
        sample order."""
        if not self._polled_sorted:
            self._polled.sort(key=lambda k: (k[0].name, ip_key(k[1]), ip_key(k[2])))
            self._polled_sorted = True
        index = self._index
        for key in self._polled:
            yield key, index[key]


def walk_rules(
    topology: Topology, rules: RuleTable, key: FlowKey, node: NodeId, in_port: int
) -> Iterator[tuple[RuleEntry, NodeId, int]]:
    """The rule-table walk of ``key`` from ``node``/``in_port``, moving no
    packet: for each switch hop, the matched entry and the next node with
    its in_port. It stops at a host or at a switch with no matching rule (a
    miss), and sets no bound: a caller that may meet a loop must stop it.
    """
    while node.is_switch:
        entry = rules.lookup(node, key.src, key.dst, in_port)
        if entry is None:
            return
        node, in_port = topology.peer(node, entry.out_port)
        yield entry, node, in_port


def shortest_path(topology: Topology, a: NodeId, b: NodeId) -> list[NodeId]:
    """Minimum-hop path from a to b over unit-weight links.

    Equal-cost choices are resolved deterministically: walking back from b,
    each hop comes from the smallest-id neighbor one hop closer to a. This
    is the path a search that expands nodes in (distance, id) order and
    keeps each node's first predecessor would find.

    When all of a's links go to one peer p (a host or a scrubber), a's path
    is p's with a in front, so every host of an edge switch shares that
    switch's memoised path to b (``Topology.path_memo``). Each call returns
    a fresh list.
    """
    if a not in topology.nodes or b not in topology.nodes:
        raise RoutingError("path endpoints must exist in the topology")
    if a == b:
        return [a]

    peers = {peer for peer, _ in topology.neighbors(a)}
    root = peers.pop() if len(peers) == 1 else a
    memo = topology.path_memo()
    walked = memo.get((root, b))
    if walked is None:
        dist = topology.distances(root)
        if b not in dist:
            raise RoutingError(f"{b} unreachable from {a}")
        path = [b]
        node = b
        while node != root:
            closer = dist[node] - 1
            node = min(peer for peer, _ in topology.neighbors(node) if dist[peer] == closer)
            path.append(node)
        path.reverse()
        walked = memo[root, b] = tuple(path)
    return list(walked) if root == a else [a, *walked]


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
    if key.src == key.dst:
        raise RoutingError("flow source and destination must differ")
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

