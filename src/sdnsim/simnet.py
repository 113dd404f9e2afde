"""Discrete-time traffic engine.

Each tick, every host with a request rate emits whole request packets to
the topology's server (fractional per-tick request counts accumulate in a
per-host residue, so rates below 1/tick still emit deterministically; the
topology's attackers start at ``attack_start``), switches forward along the
rule table, counters accumulate on every matched rule, and the server
answers each delivered request with one response in the same tick. Every
request and every response has the size that ``SimConfig`` sets.

Constrained links model the scrubber throttle: a link passes at most
``capacity * tick`` bytes per tick, holds up to ``queue_cap`` packets in a
FIFO queue, and drops the excess. Queued packets resume their walk when the
link's budget readmits them on a later tick. Unused budget does not carry
over, and a packet larger than one tick's budget never passes. Each link
keeps one set of cumulative counters, and at the end of every tick they must
balance exactly: entered = passed + dropped + queued.

Packets travel in runs. Within a tick, every packet a host emits has the
same flow, size and rule path, so the engine forwards them as one
``(flow, count)`` run: counters and tallies grown by ``count`` and
``count * size`` at each hop, one response run per request run delivered to
the server. At a throttled link a run splits: the packets this tick's budget
admits go on (the budget is still spent packet by packet, so float budgets
decide exactly as one packet at a time would), the rest queue as one run up
to ``queue_cap`` and the excess drops. The queue is
a run-length FIFO that still counts and pops single packets.

The split rule keeps runs exact. The first packet of each host's tick, and
of each run drained from a queue, walks alone. The rest go as one run only
if that walk raised no packet-in (so the rule table and the event list are
unchanged) and entered no throttled link twice (its request and response
together); otherwise the next packet walks alone by the same rule. The
packets behind a clean walk meet the same rules and each throttled link once,
in the same order, run or not. A link that carries both a flow's requests and
its responses therefore sees them interleaved packet by packet, as it would
without runs. A drained packet may re-enter the link it was drained from:
the rest of its run is still queued there, so it queues at the tail,
untouched by the budget, as each packet behind it will.

In-tick order: every throttled link's budget is refreshed, then the links'
queues drain in link order (a drained run may cross another link, or be
answered by a response that does), then hosts emit in host order, each
host's run (and its response run) forwarded to its end before the next host
emits. Per-tick cost therefore scales with flows x hops, not with packets.

Runs follow compiled paths. The walk of a flow from a switch port,
:func:`~sdnsim.routing.walk_rules`, is compiled once into the rule entries it
matches and its end: a host to deliver to, a miss, or a
throttled link with the port where packets resume beyond it. Each entry is
the installed rule's one record, holding its out port and its counters.
Every run that enters there replays it: it grows the entries' counters and
settles the end, and what a throttled link passes goes on along the
compiled path from the far side. A compiled path, keyed by (source,
destination, switch, in_port), reads only the rules toward its destination
that match its source or any source, so it is valid for one pair of
``RuleTable.versions[destination, None]`` and
``RuleTable.versions[destination, source]`` (an install or delete of a
dst-only rule toward the destination changes the first, one of a rule
qualified by this source the second) and one ``Topology.version`` (every
``add_node`` and ``add_link``, which drops them all). A packet-in
therefore recompiles the paths of its own two flows, and every path toward
a destination it installs a dst-only rule for, but no other. Rule lookups
happen only after such a change, not every tick. A flow whose path from its
first switch matches no rule raises a packet-in.

A packet that crosses more than ``Topology.hop_limit`` switches, counted
across throttled links, is a forwarding loop and raises
:class:`SimulationError`; the bound is read from the topology, where it costs
O(1). Mitigation changes the topology only between ticks, so the index of
constrained links is refreshed once per tick rather than per packet.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import telemetry
from .routing import FlowKey, RuleEntry, RuleTable, handle_packet_in, walk_rules
from .topology import HOST_PORT, Link, NodeId, Topology


class SimulationError(RuntimeError):
    """An engine invariant was violated (forwarding loop, accounting leak...)."""


def tick_errors(tick: float, duration: float | None, poll_interval: float | None) -> list[str]:
    """Violations of the tick rule for a positive ``tick``: ``duration`` and
    ``poll_interval`` are whole multiples of it, and ``poll_interval`` is at
    least one tick. A ``None`` value is not checked."""
    errors = []
    for name, value in (("duration", duration), ("poll_interval", poll_interval)):
        if value is None:
            continue
        ratio = value / tick
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            errors.append(f"{name} must be a multiple of tick")
        elif name == "poll_interval" and round(ratio) < 1:
            errors.append("poll_interval must be at least one tick")
    return errors


@dataclass(frozen=True)
class SimConfig:
    tick: float = 1.0
    duration: float = 60.0
    attack_start: float = 20.0
    poll_interval: float = 5.0
    request_size: int = 200
    response_size: int = 1000

    def __post_init__(self) -> None:
        if self.request_size <= 0 or self.response_size <= 0:
            raise ValueError("packet sizes must be positive")
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        errors = tick_errors(self.tick, self.duration, self.poll_interval)
        if errors:
            raise ValueError(errors[0])

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


@dataclass
class QueuedRun:
    """``count`` identical queued packets of one flow."""

    key: FlowKey
    tally: FlowTally
    size: int
    node: NodeId   # where the packets resume (far end of the link)
    in_port: int
    count: int


class RunQueue:
    """A FIFO of packets, stored as runs of identical packets.

    ``len()`` is the number of queued packets, and ``popleft()`` removes
    packets from the head run.
    """

    def __init__(self) -> None:
        self._runs: deque[QueuedRun] = deque()
        self._packets = 0

    def __len__(self) -> int:
        return self._packets

    def head(self) -> QueuedRun:
        return self._runs[0]

    def append(self, run: QueuedRun) -> None:
        self._runs.append(run)
        self._packets += run.count

    def popleft(self, count: int = 1) -> QueuedRun:
        """Remove ``count`` packets (at most the head run's) from the head
        and return them as a run. The head run's ``count`` keeps what is
        left of it, 0 once it has left the queue."""
        head = self._runs[0]
        if not 0 < count <= head.count:
            raise ValueError(f"cannot pop {count} of a run of {head.count}")
        head.count -= count
        if not head.count:
            self._runs.popleft()
        self._packets -= count
        return replace(head, count=count)


@dataclass
class LinkState:
    """Per constrained link: FIFO queue, per-tick budget, cumulative tallies."""

    link: Link
    queue: RunQueue = field(default_factory=RunQueue)
    budget: float = 0.0
    entered_packets: int = 0
    entered_bytes: int = 0
    passed_packets: int = 0
    passed_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0

    def spend(self, size: int, count: int) -> int:
        """Pass up to ``count`` packets of ``size`` bytes on this tick's
        budget and return how many passed. The budget is spent packet by
        packet (at most ``capacity * tick / size`` per tick), so a float
        budget decides exactly as it would one packet at a time."""
        passed = 0
        while passed < count and self.budget >= size:
            self.budget -= size
            passed += 1
        self.passed_packets += passed
        self.passed_bytes += passed * size
        return passed

    def admit(
        self, key: FlowKey, tally: FlowTally, size: int, count: int,
        node: NodeId, in_port: int,
    ) -> int:
        """Enter ``count`` packets onto the link: those this tick's budget
        admits pass (their number is returned), the rest queue, to resume at
        ``node``/``in_port``, up to ``queue_cap`` behind anything already
        queued, and the excess drops."""
        self.entered_packets += count
        self.entered_bytes += count * size
        rest = count - (0 if self.queue else self.spend(size, count))
        queued = min(rest, self.link.queue_cap - len(self.queue))
        if queued:
            self.queue.append(QueuedRun(key, tally, size, node, in_port, queued))
        dropped = rest - queued
        self.dropped_packets += dropped
        self.dropped_bytes += dropped * size
        tally.dropped_packets += dropped
        tally.dropped_bytes += dropped * size
        return count - rest


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


@dataclass
class RunRecord:
    """What a run produced besides the rule table and the samples: poll
    times, flow snapshots, events, flow tallies and the engine's own
    ``LinkState`` of each throttled link, ordered by its first endpoint and
    port. The samples go to ``on_poll`` and are not kept. Nothing here is a
    copy made for the report: ``cli.run_section`` formats it as it writes.

    ``flow_snapshots`` holds one ``array('q')`` per poll (a list if a count
    outgrows 64 bits): the delivered packets and bytes of each flow then
    known, two values per flow, in the insertion order of ``flows`` (flows
    are only ever added).
    """

    poll_times: list[float] = field(default_factory=list)
    flow_snapshots: list[array | list[int]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    flows: dict[FlowKey, FlowTally] = field(default_factory=dict)
    link_states: list[LinkState] = field(default_factory=list)

    def tally(self, key: FlowKey) -> FlowTally:
        if key not in self.flows:
            self.flows[key] = FlowTally()
        return self.flows[key]


@dataclass
class SimState:
    topology: Topology
    rules: RuleTable
    rates: dict[NodeId, float]
    cfg: SimConfig
    record: RunRecord = field(default_factory=RunRecord)
    step_index: int = 0
    residues: dict[NodeId, float] = field(default_factory=dict)
    link_states: dict[Link, LinkState] = field(default_factory=dict)
    attack_logged: bool = False
    # Emitting order: every host with a rate, sorted once per run.
    hosts: list[NodeId] = field(init=False, repr=False)
    # node -> {local port: state of the constrained link on that port}
    _constrained: dict[NodeId, dict[int, LinkState]] = field(default_factory=dict)
    # (topology version, {(src, dst, node, in_port): (rule-table versions
    #  of (dst, None) and (dst, src), compiled path from that node and port)})
    _paths: tuple[int, dict[tuple, tuple[tuple[int, int], Path]]] = field(
        default_factory=lambda: (-1, {}), repr=False
    )

    def __post_init__(self) -> None:
        self.hosts = sorted(self.rates)

    @property
    def time(self) -> float:
        return self.step_index * self.cfg.tick

    def refresh_links(self) -> None:
        """Re-index constrained links; mitigation may change the topology
        between ticks."""
        self._constrained = {}
        for link in self.topology.links:
            if link.constrained:
                ls = self.link_states.get(link)
                if ls is None:
                    ls = self.link_states[link] = LinkState(link)
                self._constrained.setdefault(link.a, {})[link.a_port] = ls
                self._constrained.setdefault(link.b, {})[link.b_port] = ls


def _deliver(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, count: int, host: NodeId
) -> None:
    if state.topology.ip_of.get(host) != key.dst:
        raise SimulationError(f"packet for {key.dst} delivered to {host}")
    tally.delivered_packets += count
    tally.delivered_bytes += count * size
    if host == state.topology.server:
        _emit(state, host, key.src, state.cfg.response_size, count)


class Path(NamedTuple):
    """A flow's compiled walk from one switch port: the rule entries it
    matches, hop by hop, and where it ends. ``link`` is the throttled link
    the last entry sends onto, and ``node``/``in_port`` is where packets
    resume beyond it. Without a link, ``node`` is the host the walk delivers
    to, None for a miss, or the switch it reached past the hop limit."""

    entries: tuple[RuleEntry, ...]
    link: LinkState | None
    node: NodeId | None
    in_port: int | None


def _compile(state: SimState, key: FlowKey, node: NodeId, in_port: int) -> Path:
    """Walk the rule table from ``node``/``in_port`` for ``key`` up to a
    host, a miss, a throttled link, or one hop past the hop limit."""
    entries = []
    limit = state.topology.hop_limit
    for entry, node, in_port in walk_rules(state.topology, state.rules, key, node, in_port):
        entries.append(entry)
        ls = state._constrained.get(entry.switch, {}).get(entry.out_port)
        if ls is not None:
            return Path(tuple(entries), ls, node, in_port)
        if len(entries) > limit:
            return Path(tuple(entries), None, node, None)
    # The walk ended on a host, or on a switch with no matching rule.
    return Path(tuple(entries), None, None if node.is_switch else node, None)


def _path(state: SimState, key: FlowKey, node: NodeId, in_port: int) -> Path:
    """The compiled path of ``key`` from ``node``/``in_port``, compiled at
    most once per topology version and pair of versions of the rules that
    its lookups read."""
    topology_version, paths = state._paths
    if topology_version != state.topology.version:
        paths = {}
        state._paths = (state.topology.version, paths)
    ident = (key.src, key.dst, node, in_port)
    versions = state.rules.versions
    version = (versions[key.dst, None], versions[key.dst, key.src])
    compiled = paths.get(ident)
    if compiled is None or compiled[0] != version:
        compiled = paths[ident] = (version, _compile(state, key, node, in_port))
    return compiled[1]


def _walk(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, count: int, path: Path
) -> None:
    """Forward a run of ``count`` packets along its compiled path until a
    host, a miss, or a throttled link that admits none of them. A walk of
    more than ``hop_limit`` switch hops, counted across throttled links, is
    a forwarding loop."""
    limit = state.topology.hop_limit
    hops = 0
    while True:
        entries, ls, node, in_port = path
        run_bytes = count * size
        for entry in entries:
            entry.packets += count
            entry.bytes += run_bytes
        hops += len(entries)
        # The hop onto a throttled link counts once the link passed packets.
        if hops - (ls is not None) > limit:
            raise SimulationError(f"forwarding loop for {key.src}->{key.dst}")
        if ls is None:
            if node is None:
                tally.missed_packets += count
                tally.missed_bytes += run_bytes
            else:
                _deliver(state, key, tally, size, count, node)
            return
        count = ls.admit(key, tally, size, count, node, in_port)
        if not count:
            return
        if hops > limit:
            raise SimulationError(f"forwarding loop for {key.src}->{key.dst}")
        path = _path(state, key, node, in_port)


def _emit(state: SimState, src_host: NodeId, dst_ip: str, size: int, count: int) -> None:
    key = FlowKey(state.topology.ip_of[src_host], dst_ip)
    tally = state.record.tally(key)
    tally.emitted_packets += count
    tally.emitted_bytes += count * size
    edge, edge_in = state.topology.peer(src_host, HOST_PORT)
    path = _path(state, key, edge, edge_in)
    if not path.entries:  # no rule for the flow at its first switch
        handle_packet_in(state.rules, state.topology, key)
        state.record.events.append(
            {"t": state.time, "event": "packet_in", "src": key.src, "dst": key.dst}
        )
        path = _path(state, key, edge, edge_in)
    _walk(state, key, tally, size, count, path)


def _runs(state: SimState, count: int) -> Iterator[int]:
    """The sizes of the runs that ``count`` identical packets go in, by the
    split rule of the module docstring. The caller sends each run before
    asking for the next, which depends on what that send did."""
    while count:
        events = len(state.record.events)
        entered = [(ls, ls.entered_packets) for ls in state.link_states.values()]
        yield 1
        count -= 1
        if count and len(state.record.events) == events and all(
            ls.entered_packets - before <= 1 for ls, before in entered
        ):
            yield count
            return


def step(state: SimState) -> None:
    """Advance the simulation by one tick."""
    t = state.time
    cfg = state.cfg
    state.refresh_links()

    # Queued traffic goes first; it competes for this tick's budget with
    # anything newly forwarded onto the link. All budgets are refreshed
    # before any drain, since a drained packet may cross another link.
    ordered_links = sorted(state.link_states, key=lambda l: (l.a, l.a_port))
    for link in ordered_links:
        state.link_states[link].budget = link.capacity * cfg.tick
    for link in ordered_links:
        ls = state.link_states[link]
        queue = ls.queue
        while queue and queue.head().size <= ls.budget:
            head = queue.head()
            for count in _runs(state, head.count):
                passed = ls.spend(head.size, count)
                if not passed:
                    break
                run = queue.popleft(passed)
                path = _path(state, run.key, run.node, run.in_port)
                _walk(state, run.key, run.tally, run.size, passed, path)

    server = state.topology.server
    server_ip = state.topology.ip_of.get(server) if server else None
    for host in state.hosts:
        if host in state.topology.attackers:
            if t < cfg.attack_start - 1e-9:
                continue
            if not state.attack_logged:
                state.record.events.append({"t": t, "event": "attack_active"})
                state.attack_logged = True
        acc = state.residues.get(host, 0.0) + state.rates[host] * cfg.tick
        count = math.floor(acc + 1e-9)
        state.residues[host] = acc - count
        for run in _runs(state, count):
            _emit(state, host, server_ip, cfg.request_size, run)

    # Exact conservation, checked every tick from an empty start: every
    # packet that entered has passed, been dropped, or is still queued.
    for ls in state.link_states.values():
        if ls.entered_packets != ls.passed_packets + ls.dropped_packets + len(ls.queue):
            raise SimulationError(
                f"link accounting leak on {ls.link.a.name}:{ls.link.a_port}"
            )

    state.step_index += 1


def run(
    topology: Topology,
    rules: RuleTable,
    rates: dict[NodeId, float],
    cfg: SimConfig,
    on_poll=None,
) -> RunRecord:
    """Run the full scenario; polls fire every poll_interval ticks.

    ``rates`` holds the request rate of each sending host, in requests per
    second toward ``topology.server``; the hosts in ``topology.attackers``
    start sending at ``cfg.attack_start``. The server sends only responses,
    so it has no rate and is no attacker.

    ``on_poll(state, t, samples)`` runs synchronously at each poll boundary,
    with the samples taken there, after the poll time and flow snapshot were
    recorded; mitigation applied there takes effect from the next tick. The
    record keeps no samples: ``on_poll`` is their only reader.
    """
    server = topology.server
    if server is None or server not in topology.nodes:
        raise SimulationError("no server designated")
    if server in rates or server in topology.attackers:
        raise SimulationError("the server sends no requests and cannot be an attacker")
    for host, rate in rates.items():
        if host not in topology.nodes:
            raise SimulationError(f"rate for unknown host {host}")
        if rate < 0:
            raise ValueError("request rate must be >= 0")

    state = SimState(topology, rules, rates, cfg)
    for i in range(cfg.steps):
        step(state)
        if (i + 1) % cfg.poll_every == 0:
            t = (i + 1) * cfg.tick
            samples = telemetry.poll(state, t)
            state.record.poll_times.append(t)
            counts = [n for tally in state.record.flows.values()
                      for n in (tally.delivered_packets, tally.delivered_bytes)]
            try:
                state.record.flow_snapshots.append(array("q", counts))
            except OverflowError:  # a byte count beyond 64 bits
                state.record.flow_snapshots.append(counts)
            if on_poll is not None:
                on_poll(state, t, samples)

    state.record.link_states = sorted(
        state.link_states.values(), key=lambda ls: (ls.link.a, ls.link.a_port))
    return state.record
