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
``(flow, count)`` run: tallies and carried counts grown by ``count`` and
``count * size`` once per compiled path, one response run per request run
delivered to the server. At a throttled link a run splits: the packets
this tick's budget admits go on (the budget is still spent packet by
packet, so float budgets decide exactly as one packet at a time would), the
rest queue as one run up to ``queue_cap`` and the excess drops. The queue
is a run-length FIFO that still counts and pops single packets.

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
emits. Per-tick cost therefore scales with flows, not with packets.

Runs follow compiled paths. The walk of a flow from a switch port,
:func:`~sdnsim.routing.walk_rules`, is compiled once into the rule entries it
matches and its end: a host to deliver to, a miss, or a
throttled link with the port where packets resume beyond it. Each entry is
the installed rule's one record, holding its out port and its counters.
Every run that enters there follows it: it adds its packets and bytes to
the path's carried counts and meets its end, and what a throttled link
passes goes on along the compiled path from the far side. A compiled path,
keyed by (source, destination, switch, in_port), reads only the rules
toward its destination that match its source or any source, so it is valid
for one pair of
``RuleTable.versions[destination, None]`` and
``RuleTable.versions[destination, source]`` (an install or delete of a
dst-only rule toward the destination changes the first, one of a rule
qualified by this source the second) and one ``Topology.version`` (every
``add_node`` and ``add_link``, which drops them all). A packet-in
therefore recompiles the paths of its own two flows, and every path toward
a destination it installs a dst-only rule for, but no other. Rule lookups
happen only after such a change, not every tick. A flow whose path from its
first switch matches no rule raises a packet-in.

Rule counters grow in one place. Between two polls nothing reads them, so
a compiled path carries the packets and bytes that walked it since the last
settle, and :func:`_settle` adds them to its entries' counters at the end
of each tick that a poll follows and at the run's last tick. A path
recompiled meanwhile still settles into the entries its packets matched.
So a host's tick need not be walked when its outcome is known: its
compiled request path ends at the server and the server's response path
ends at the host, each within the hop limit and across no throttled link.
Such a steady tick takes the request tally, then the response tally (the
order a walk makes them in), and adds its count to each tally's emitted
and delivered counts and to each path's carried counts. Flow tallies, link
counters, queues and events are exact after every tick, and rule counters
at every poll and after the last tick; throttled flows, queue drains,
packet-ins, attack gating and residues stay per tick.

A packet that crosses more than ``Topology.hop_limit`` switches, counted
across throttled links, is a forwarding loop and raises
:class:`SimulationError`; the bound is read from the topology, where it costs
O(1). Mitigation changes the topology only between ticks, so what the engine
derives from it (the link states in link order, the index of throttled
links, the compiled paths) is rebuilt at the start of a tick, and only when
``Topology.version`` has moved since the last rebuild.

A run is one object: ``run`` returns the :class:`SimState` it ran, its
live state and all it recorded.
"""

from __future__ import annotations

import math
from array import array
from collections import deque, namedtuple
from collections.abc import Iterator

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


class SimConfig(namedtuple(
        "SimConfig", "tick duration attack_start poll_interval request_bytes response_bytes",
        defaults=(1.0, 60.0, 20.0, 5.0, 200, 1000))):
    """The engine's settings. The guards below run on every construction,
    ``_replace`` and ``_make`` included."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        """Check the fields that ``__new__`` has set."""
        if self.request_bytes <= 0 or self.response_bytes <= 0:
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

    @classmethod
    def _make(cls, iterable) -> SimConfig:
        return cls(*iterable)

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


class QueuedRun:
    """``count`` identical queued packets of one flow, to resume at
    ``node``/``in_port``, the far end of the link."""

    def __init__(self, key: FlowKey, tally: FlowTally, size: int, node: NodeId, in_port: int,
                 count: int) -> None:
        self.key = key
        self.tally = tally
        self.size = size
        self.node = node
        self.in_port = in_port
        self.count = count


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

    def popleft(self, count: int = 1) -> None:
        """Remove ``count`` packets (at most the head run's) from the head.
        The head run's ``count`` keeps what is left of it, 0 once it has
        left the queue; read the head before popping to see what left."""
        head = self._runs[0]
        if not 0 < count <= head.count:
            raise ValueError(f"cannot pop {count} of a run of {head.count}")
        head.count -= count
        if not head.count:
            self._runs.popleft()
        self._packets -= count


class LinkState:
    """Per constrained link: FIFO queue, per-tick budget, cumulative tallies."""

    def __init__(self, link: Link) -> None:
        self.link = link
        self.queue = RunQueue()
        self.budget = 0.0
        self.entered_packets = self.entered_bytes = 0
        self.passed_packets = self.passed_bytes = 0
        self.dropped_packets = self.dropped_bytes = 0

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


class FlowTally:
    def __init__(self) -> None:
        self.emitted_packets = self.emitted_bytes = 0
        self.delivered_packets = self.delivered_bytes = 0
        self.dropped_packets = self.dropped_bytes = 0
        self.missed_packets = self.missed_bytes = 0

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other)


class SimState:
    """One run: the engine's state and everything the run produced besides
    the rule table and the samples, which go to ``on_poll`` and are not
    kept. ``run`` returns it, and ``cli.run_section`` formats it as it
    writes; nothing here is a copy made for the report.

    ``link_states`` (in link order: first endpoint, then port), ``_ends``
    and ``_paths`` are derived from the topology by :func:`_rebuild`, for
    its version ``_topology_version``. ``flow_snapshots`` holds one
    ``array('q')`` per poll (a list if a count outgrows 64 bits): the
    delivered packets and bytes of each flow then known, two values per
    flow, in the insertion order of ``flows`` (flows are only ever added).
    """

    def __init__(self, topology: Topology, rules: RuleTable, rates: dict[NodeId, float],
                 cfg: SimConfig) -> None:
        self.topology = topology
        self.rules = rules
        self.rates = rates
        self.cfg = cfg
        self.poll_times: list[float] = []
        self.flow_snapshots: list[array | list[int]] = []
        self.events: list[dict] = []
        self.flows: dict[FlowKey, FlowTally] = {}
        self.step_index = 0
        self.residues: dict[NodeId, float] = {}
        self.link_states: dict[Link, LinkState] = {}
        self.attack_logged = False
        # Emitting order: every host with a rate, sorted once per run.
        self.hosts = sorted(rates)
        self._topology_version = -1
        # (node, local port) -> state of the throttled link on that port
        self._ends: dict[tuple[NodeId, int], LinkState] = {}
        # {(src, dst, node, in_port): (rule-table versions of (dst, None) and
        #  (dst, src), compiled path from that node and port)}
        self._paths: dict[tuple, tuple[tuple[int, int], Path]] = {}
        # The compiled paths that carry packets not yet added to rule counters
        self._carried: list[Path] = []

    @property
    def time(self) -> float:
        return self.step_index * self.cfg.tick

    def tally(self, key: FlowKey) -> FlowTally:
        if key not in self.flows:
            self.flows[key] = FlowTally()
        return self.flows[key]


def _rebuild(state: SimState) -> None:
    """Derive the link states, the throttled-link index and an empty path
    memo from the topology, if its version moved since the last rebuild.
    A link keeps its ``LinkState``, counters and queue included."""
    if state._topology_version == state.topology.version:
        return
    state._topology_version = state.topology.version
    links = sorted((link for link in state.topology.links if link.constrained),
                   key=lambda link: (link.a, link.a_port))
    state.link_states = {link: state.link_states.get(link) or LinkState(link) for link in links}
    state._ends = {end: ls for link, ls in state.link_states.items() for end in link.endpoints()}
    state._paths = {}


def _deliver(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, count: int, host: NodeId
) -> None:
    if state.topology.ip_of.get(host) != key.dst:
        raise SimulationError(f"packet for {key.dst} delivered to {host}")
    tally.delivered_packets += count
    tally.delivered_bytes += count * size
    if host == state.topology.server:
        _emit(state, host, key.src, state.cfg.response_bytes, count)


class Path:
    """A flow's compiled walk from one switch port: the rule entries it
    matches, hop by hop, and where it ends. ``link`` is the throttled link
    the last entry sends onto, and ``node``/``in_port`` is where packets
    resume beyond it. Without a link, ``node`` is the host the walk delivers
    to, None for a miss, or the node it reached past the hop limit (a host,
    if the loop's last hop happens to deliver). ``packets`` and ``bytes``
    walked it since the last :func:`_settle`."""

    __slots__ = ("entries", "link", "node", "in_port", "packets", "bytes")

    def __init__(self, entries: tuple[RuleEntry, ...], link: LinkState | None,
                 node: NodeId | None, in_port: int | None) -> None:
        self.entries = entries
        self.link = link
        self.node = node
        self.in_port = in_port
        self.packets = self.bytes = 0


def _compile(state: SimState, key: FlowKey, node: NodeId, in_port: int) -> Path:
    """Walk the rule table from ``node``/``in_port`` for ``key`` up to a
    host, a miss, a throttled link, or one hop past the hop limit."""
    entries = []
    limit = state.topology.hop_limit
    for entry, node, in_port in walk_rules(state.topology, state.rules, key, node, in_port):
        entries.append(entry)
        ls = state._ends.get((entry.switch, entry.out_port))
        if ls is not None:
            return Path(tuple(entries), ls, node, in_port)
        if len(entries) > limit:
            return Path(tuple(entries), None, node, None)
    # The walk ended on a host, or on a switch with no matching rule.
    return Path(tuple(entries), None, None if node.is_switch else node, None)


def _path(state: SimState, key: FlowKey, node: NodeId, in_port: int) -> Path:
    """The compiled path of ``key`` from ``node``/``in_port``, compiled at
    most once per pair of versions of the rules that its lookups read (and
    per topology version, as :func:`_rebuild` empties the memo)."""
    ident = (key.src, key.dst, node, in_port)
    versions = state.rules.versions
    version = (versions[key.dst, None], versions[key.dst, key.src])
    compiled = state._paths.get(ident)
    if compiled is None or compiled[0] != version:
        compiled = state._paths[ident] = (version, _compile(state, key, node, in_port))
    return compiled[1]


def _walk(
    state: SimState, key: FlowKey, tally: FlowTally, size: int, count: int, path: Path
) -> None:
    """Forward a run of ``count`` packets along its compiled path until a
    host, a miss, or a throttled link that admits none of them, carrying the
    run on each path it takes. A walk of more than ``hop_limit`` switch
    hops, counted across throttled links, is a forwarding loop."""
    limit = state.topology.hop_limit
    hops = 0
    while True:
        if not path.packets:
            state._carried.append(path)
        run_bytes = count * size
        path.packets += count
        path.bytes += run_bytes
        hops += len(path.entries)
        ls, node = path.link, path.node
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
        count = ls.admit(key, tally, size, count, node, path.in_port)
        if not count:
            return
        if hops > limit:
            raise SimulationError(f"forwarding loop for {key.src}->{key.dst}")
        path = _path(state, key, node, path.in_port)


def _emit(state: SimState, src_host: NodeId, dst_ip: str, size: int, count: int) -> None:
    key = FlowKey(state.topology.ip_of[src_host], dst_ip)
    tally = state.tally(key)
    tally.emitted_packets += count
    tally.emitted_bytes += count * size
    edge, edge_in = state.topology.peer(src_host, HOST_PORT)
    path = _path(state, key, edge, edge_in)
    if not path.entries:  # no rule for the flow at its first switch
        handle_packet_in(state.rules, state.topology, key)
        state.events.append(
            {"t": state.time, "event": "packet_in", "src": key.src, "dst": key.dst}
        )
        path = _path(state, key, edge, edge_in)
    _walk(state, key, tally, size, count, path)


def _defer(state: SimState, host: NodeId, server_ip: str, count: int) -> bool:
    """Count a host's tick of ``count`` requests without walking it, if
    the tick is steady (see the module docstring); return whether it was."""
    topo = state.topology
    key = FlowKey(topo.ip_of[host], server_ip)
    back = key.reversed()
    limit = topo.hop_limit
    out = _path(state, key, *topo.peer(host, HOST_PORT))
    if out.link is not None or out.node != topo.server or len(out.entries) > limit:
        return False
    ret = _path(state, back, *topo.peer(topo.server, HOST_PORT))
    if ret.link is not None or ret.node != host or len(ret.entries) > limit:
        return False
    cfg = state.cfg
    for path, flow, size in ((out, key, cfg.request_bytes), (ret, back, cfg.response_bytes)):
        tally = state.tally(flow)
        run_bytes = count * size
        tally.emitted_packets += count
        tally.emitted_bytes += run_bytes
        tally.delivered_packets += count
        tally.delivered_bytes += run_bytes
        if not path.packets:
            state._carried.append(path)
        path.packets += count
        path.bytes += run_bytes
    return True


def _settle(state: SimState) -> None:
    """Add each carried path's counts to its rule entries and zero them."""
    for path in state._carried:
        packets, run_bytes = path.packets, path.bytes
        for entry in path.entries:
            entry.packets += packets
            entry.bytes += run_bytes
        path.packets = path.bytes = 0
    state._carried.clear()


def _runs(state: SimState, count: int) -> Iterator[int]:
    """The sizes of the runs that ``count`` identical packets go in, by the
    split rule of the module docstring. The caller sends each run before
    asking for the next, which depends on what that send did."""
    while count:
        events = len(state.events)
        entered = [(ls, ls.entered_packets) for ls in state.link_states.values()]
        yield 1
        count -= 1
        if count and len(state.events) == events and all(
            ls.entered_packets - before <= 1 for ls, before in entered
        ):
            yield count
            return


def step(state: SimState) -> None:
    """Advance the simulation by one tick.

    Flow tallies, throttled links and events are current after every tick;
    rule counters at every poll boundary and after the run's last tick,
    when :func:`_settle` adds what the compiled paths carried."""
    t = state.time
    cfg = state.cfg
    _rebuild(state)

    # Queued traffic goes first; it competes for this tick's budget with
    # anything newly forwarded onto the link. All budgets are refreshed
    # before any drain, since a drained packet may cross another link.
    for ls in state.link_states.values():
        ls.budget = ls.link.capacity * cfg.tick
    for ls in state.link_states.values():
        queue = ls.queue
        while queue and queue.head().size <= ls.budget:
            head = queue.head()
            for count in _runs(state, head.count):
                passed = ls.spend(head.size, count)
                if not passed:
                    break
                queue.popleft(passed)
                path = _path(state, head.key, head.node, head.in_port)
                _walk(state, head.key, head.tally, head.size, passed, path)

    server = state.topology.server
    server_ip = state.topology.ip_of.get(server) if server else None
    for host in state.hosts:
        if host in state.topology.attackers:
            if t < cfg.attack_start - 1e-9:
                continue
            if not state.attack_logged:
                state.events.append({"t": t, "event": "attack_active"})
                state.attack_logged = True
        acc = state.residues.get(host, 0.0) + state.rates[host] * cfg.tick
        count = math.floor(acc + 1e-9)
        state.residues[host] = acc - count
        if count and _defer(state, host, server_ip, count):
            continue
        for run in _runs(state, count):
            _emit(state, host, server_ip, cfg.request_bytes, run)

    ticks = state.step_index + 1
    if ticks % cfg.poll_every == 0 or ticks >= cfg.steps:
        _settle(state)

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
) -> SimState:
    """Run the full scenario; polls fire every poll_interval ticks.

    ``rates`` holds the request rate of each sending host, in requests per
    second toward ``topology.server``; the hosts in ``topology.attackers``
    start sending at ``cfg.attack_start``. The server sends only responses,
    so it has no rate and is no attacker.

    ``on_poll(state, t, samples)`` runs synchronously at each poll boundary,
    with the samples taken there, after the poll time and flow snapshot were
    recorded; mitigation applied there takes effect from the next tick. The
    state keeps no samples: ``on_poll`` is their only reader.
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
            state.poll_times.append(t)
            counts = [n for tally in state.flows.values()
                      for n in (tally.delivered_packets, tally.delivered_bytes)]
            try:
                state.flow_snapshots.append(array("q", counts))
            except OverflowError:  # a byte count beyond 64 bits
                state.flow_snapshots.append(counts)
            if on_poll is not None:
                on_poll(state, t, samples)

    return state
