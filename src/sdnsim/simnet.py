"""Discrete-time traffic engine.

Each tick, hosts emit whole request packets (fractional per-tick request
counts accumulate in a per-host residue, so rates below 1/tick still emit
deterministically), switches forward along the rule table, counters
accumulate on every matched rule, and the server answers each delivered
request with one response in the same tick.

Constrained links model the scrubber throttle: a link passes at most
``capacity * tick`` bytes per tick, holds up to ``queue_cap`` packets in a
FIFO queue, and drops the excess. Queued packets resume their walk when the
link's budget readmits them on a later tick. Unused budget does not carry
over, and a packet larger than one tick's budget never passes. Every tick,
per-link accounting must balance exactly: entered = passed + queued + dropped.

A packet that crosses more than ``Topology.hop_limit`` switches is a
forwarding loop and raises :class:`SimulationError`. Mitigation changes the
topology only between ticks, so the bound and the index of constrained links
are refreshed once per tick rather than per packet.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from . import telemetry
from .routing import FlowKey, RuleTable, handle_packet_in
from .topology import HOST_PORT, Link, NodeId, Topology


class SimulationError(RuntimeError):
    """An engine invariant was violated (forwarding loop, accounting leak...)."""


class TrafficKind(Enum):
    LEGIT = "legit"
    ATTACKER = "attacker"
    SERVER = "server"


@dataclass(frozen=True)
class TrafficProfile:
    kind: TrafficKind
    request_rate: float = 0.0
    request_size: int = 200
    response_size: int = 1000

    def __post_init__(self) -> None:
        if self.request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        if self.request_size <= 0 or self.response_size <= 0:
            raise ValueError("packet sizes must be positive")


@dataclass(frozen=True)
class SimConfig:
    tick: float = 1.0
    duration: float = 60.0
    seed: int = 0
    attack_start: float = 20.0
    poll_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        for name, value in (("duration", self.duration), ("poll_interval", self.poll_interval)):
            ratio = value / self.tick
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of tick")

    @property
    def steps(self) -> int:
        return round(self.duration / self.tick)

    @property
    def poll_every(self) -> int:
        return round(self.poll_interval / self.tick)


def legit_rate(i: int, j: int, k: int, base: float) -> float:
    """Request rate for matrix position (i, j): base * (i + j + 1).

    Over a K x K matrix the rate multipliers form a triangular distribution
    peaking in the middle.
    """
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError("matrix indices out of range")
    if base <= 0:
        raise ValueError("base rate must be positive")
    return base * (i + j + 1)


class CounterSet(dict):
    """Snapshot of cumulative per-rule counters.

    Keys are (switch name, match_src, match_dst, priority); values are
    (packets, bytes). Counters are monotone non-decreasing across snapshots
    of a running simulation.
    """

    @classmethod
    def snapshot(cls, rules: RuleTable) -> "CounterSet":
        out = cls()
        for entry in rules.all_entries():
            r = entry.rule
            out[(r.switch.name, r.match_src, r.match_dst, r.priority)] = (
                entry.packets,
                entry.bytes,
            )
        return out


@dataclass
class _QueuedPacket:
    key: FlowKey
    tally: FlowTally
    size: int
    node: NodeId   # where the packet resumes (far end of the link)
    in_port: int


@dataclass
class LinkState:
    """Per constrained link: FIFO queue, per-tick budget, tallies."""

    link: Link
    queue: deque = field(default_factory=deque)
    budget: float = 0.0
    entered_packets: int = 0
    entered_bytes: int = 0
    passed_packets: int = 0
    passed_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    # tick-local accounting, reset each tick
    t_entered: int = 0
    t_passed: int = 0
    t_dropped: int = 0
    t_queue_start: int = 0

    def start_tick(self, tick: float) -> None:
        self.budget = self.link.capacity * tick
        self.t_entered = 0
        self.t_passed = 0
        self.t_dropped = 0
        self.t_queue_start = len(self.queue)

    def to_dict(self) -> dict:
        return {
            "link": f"{self.link.a.name}:{self.link.a_port}-{self.link.b.name}:{self.link.b_port}",
            "entered_packets": self.entered_packets,
            "entered_bytes": self.entered_bytes,
            "passed_packets": self.passed_packets,
            "passed_bytes": self.passed_bytes,
            "dropped_packets": self.dropped_packets,
            "dropped_bytes": self.dropped_bytes,
            "queued_packets": len(self.queue),
        }


@dataclass
class FlowTally:
    emitted_packets: int = 0
    emitted_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    missed_packets: int = 0
    missed_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "emitted_packets": self.emitted_packets,
            "emitted_bytes": self.emitted_bytes,
            "delivered_packets": self.delivered_packets,
            "delivered_bytes": self.delivered_bytes,
            "dropped_packets": self.dropped_packets,
            "dropped_bytes": self.dropped_bytes,
            "missed_packets": self.missed_packets,
            "missed_bytes": self.missed_bytes,
        }


@dataclass
class RunRecord:
    """Everything a run produced: sample timeline, events, final tallies."""

    samples: list = field(default_factory=list)
    poll_times: list[float] = field(default_factory=list)
    flow_snapshots: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    flows: dict[tuple[str, str], FlowTally] = field(default_factory=dict)
    counters: CounterSet = field(default_factory=CounterSet)
    link_stats: list[dict] = field(default_factory=list)

    def tally(self, key: FlowKey) -> FlowTally:
        pair = (key.src, key.dst)
        if pair not in self.flows:
            self.flows[pair] = FlowTally()
        return self.flows[pair]

    def to_dict(self) -> dict:
        return {
            "poll_times": self.poll_times,
            "samples": [s.to_dict() for s in self.samples],
            "flow_snapshots": self.flow_snapshots,
            "events": self.events,
            "flows": {
                f"{src}->{dst}": tally.to_dict()
                for (src, dst), tally in sorted(
                    self.flows.items(),
                    key=lambda kv: (telemetry.ip_key(kv[0][0]), telemetry.ip_key(kv[0][1])),
                )
            },
            "counters": {
                f"{sw}|{src}|{dst}|{prio}": list(v)
                for (sw, src, dst, prio), v in sorted(
                    self.counters.items(), key=lambda kv: str(kv[0])
                )
            },
            "links": self.link_stats,
        }


@dataclass
class SimState:
    topology: Topology
    rules: RuleTable
    profiles: dict[NodeId, TrafficProfile]
    cfg: SimConfig
    record: RunRecord = field(default_factory=RunRecord)
    step_index: int = 0
    residues: dict[NodeId, float] = field(default_factory=dict)
    link_states: dict[Link, LinkState] = field(default_factory=dict)
    attack_logged: bool = False
    hop_limit: int = 0
    # node -> {local port: state of the constrained link on that port}
    _constrained: dict[NodeId, dict[int, LinkState]] = field(default_factory=dict)

    @property
    def time(self) -> float:
        return self.step_index * self.cfg.tick

    def link_state(self, link: Link) -> LinkState:
        if link not in self.link_states:
            self.link_states[link] = LinkState(link)
        return self.link_states[link]

    def refresh_links(self) -> None:
        """Re-index constrained links and the hop limit; mitigation may
        change the topology between ticks."""
        self._constrained = {}
        for link in self.topology.links:
            if link.constrained:
                ls = self.link_state(link)
                self._constrained.setdefault(link.a, {})[link.a_port] = ls
                self._constrained.setdefault(link.b, {})[link.b_port] = ls
        self.hop_limit = self.topology.hop_limit


def _deliver(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, host: NodeId
) -> None:
    if state.topology.ip_of.get(host) != key.dst:
        raise SimulationError(f"packet for {key.dst} delivered to {host}")
    tally.delivered_packets += 1
    tally.delivered_bytes += size
    if host == state.topology.server:
        profile = state.profiles.get(host)
        if profile is not None:
            _emit(state, host, key.src, profile.response_size)


def _walk(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, node: NodeId, in_port: int
) -> None:
    """Forward one packet hop by hop until a host, a queue, or a drop."""
    hops = 0
    while True:
        if not node.is_switch:
            _deliver(state, key, tally, size, node)
            return
        entry = state.rules.lookup(node, key.src, key.dst, in_port)
        if entry is None:
            tally.missed_packets += 1
            tally.missed_bytes += size
            return
        entry.packets += 1
        entry.bytes += size
        out_port = entry.rule.out_port
        peer, peer_in = state.topology.peer(node, out_port)
        constrained = state._constrained.get(node)
        ls = constrained.get(out_port) if constrained else None
        if ls is not None:
            ls.entered_packets += 1
            ls.entered_bytes += size
            ls.t_entered += 1
            if ls.queue or ls.budget < size:
                if len(ls.queue) < ls.link.queue_cap:
                    ls.queue.append(_QueuedPacket(key, tally, size, peer, peer_in))
                else:
                    ls.dropped_packets += 1
                    ls.dropped_bytes += size
                    ls.t_dropped += 1
                    tally.dropped_packets += 1
                    tally.dropped_bytes += size
                return
            ls.budget -= size
            ls.passed_packets += 1
            ls.passed_bytes += size
            ls.t_passed += 1
        node, in_port = peer, peer_in
        hops += 1
        if hops > state.hop_limit:
            raise SimulationError(f"forwarding loop for {key.src}->{key.dst}")


def _emit(state: SimState, src_host: NodeId, dst_ip: str, size: int) -> None:
    key = FlowKey(state.topology.ip_of[src_host], dst_ip)
    tally = state.record.tally(key)
    tally.emitted_packets += 1
    tally.emitted_bytes += size
    edge, edge_in = state.topology.peer(src_host, HOST_PORT)
    if state.rules.lookup(edge, key.src, key.dst, edge_in) is None:
        handle_packet_in(state.rules, state.topology, key)
        state.record.events.append(
            {"t": state.time, "event": "packet_in", "src": key.src, "dst": key.dst}
        )
    _walk(state, key, tally, size, edge, edge_in)


def step(state: SimState) -> SimState:
    """Advance the simulation by one tick."""
    t = state.time
    cfg = state.cfg
    state.refresh_links()

    # Queued traffic goes first; it competes for this tick's budget with
    # anything newly forwarded onto the link. All budgets are refreshed
    # before any drain, since a drained packet may cross another link.
    ordered_links = sorted(state.link_states, key=lambda l: (l.a, l.a_port))
    for link in ordered_links:
        state.link_states[link].start_tick(cfg.tick)
    for link in ordered_links:
        ls = state.link_states[link]
        while ls.queue and ls.queue[0].size <= ls.budget:
            pkt = ls.queue.popleft()
            ls.budget -= pkt.size
            ls.passed_packets += 1
            ls.passed_bytes += pkt.size
            ls.t_passed += 1
            _walk(state, pkt.key, pkt.tally, pkt.size, pkt.node, pkt.in_port)

    server = state.topology.server
    server_ip = state.topology.ip_of.get(server) if server else None
    for host in sorted(state.profiles):
        profile = state.profiles[host]
        if profile.kind is TrafficKind.SERVER:
            continue
        if profile.kind is TrafficKind.ATTACKER and t < cfg.attack_start - 1e-9:
            continue
        if profile.kind is TrafficKind.ATTACKER and not state.attack_logged:
            state.record.events.append({"t": t, "event": "attack_active"})
            state.attack_logged = True
        acc = state.residues.get(host, 0.0) + profile.request_rate * cfg.tick
        count = math.floor(acc + 1e-9)
        state.residues[host] = acc - count
        for _ in range(count):
            _emit(state, host, server_ip, profile.request_size)

    # Exact per-tick conservation: drained packets count as passed, so
    # entered = passed + dropped + growth of the queue.
    for ls in state.link_states.values():
        queued_delta = len(ls.queue) - ls.t_queue_start
        if ls.t_entered != ls.t_passed + ls.t_dropped + queued_delta:
            raise SimulationError(
                f"link accounting leak on {ls.link.a.name}:{ls.link.a_port}"
            )

    state.step_index += 1
    return state


def run(
    topology: Topology,
    rules: RuleTable,
    profiles: dict[NodeId, TrafficProfile],
    cfg: SimConfig,
    on_poll=None,
) -> RunRecord:
    """Run the full scenario; polls fire every poll_interval ticks.

    ``on_poll(state, t, samples)`` runs synchronously at each poll boundary,
    after the samples for that boundary were recorded; mitigation applied
    there takes effect from the next tick.
    """
    server = topology.server
    if server is None or server not in topology.nodes:
        raise SimulationError("no server designated")
    server_profile = profiles.get(server)
    if server_profile is None or server_profile.kind is not TrafficKind.SERVER:
        raise SimulationError("server host needs a server profile")
    for host, profile in profiles.items():
        if host not in topology.nodes:
            raise SimulationError(f"profile for unknown host {host}")
        if profile.kind is TrafficKind.ATTACKER and host == server:
            raise SimulationError("the server cannot be an attacker")

    state = SimState(topology, rules, profiles, cfg)
    for i in range(cfg.steps):
        step(state)
        if (i + 1) % cfg.poll_every == 0:
            t = (i + 1) * cfg.tick
            samples = telemetry.poll(state, t)
            state.record.samples.extend(samples)
            state.record.poll_times.append(t)
            state.record.flow_snapshots.append(
                {
                    f"{src}->{dst}": [tally.delivered_packets, tally.delivered_bytes]
                    for (src, dst), tally in sorted(state.record.flows.items())
                }
            )
            if on_poll is not None:
                on_poll(state, t, samples)

    state.record.counters = CounterSet.snapshot(rules)
    state.record.link_stats = [
        state.link_states[link].to_dict()
        for link in sorted(state.link_states, key=lambda l: (l.a, l.a_port))
    ]
    return state.record
