"""Network graph model: core grid, perimeter edge switches, hosts, scrubbers.

The grid layout is an N x M orthogonal (4-neighbor) mesh of core switches.
Every perimeter core switch carries exactly one edge switch, giving
2N + 2M - 4 edge switches, and every edge switch carries K hosts. Hosts sit
on edge ports 80, 81, ... (their own side is always port 1); an edge switch's
port 1 is its uplink into the core. Scrubber switches are attached later
through :func:`attach_switch`. A node's identity, :class:`NodeId`, is a
plain ``(kind, index)`` named tuple: its hash, equality and order are the
tuple's.

:class:`Topology` keeps an adjacency index, ``node -> {local port: (peer,
peer port)}``, that :meth:`Topology.add_link` fills, and a switch count that
:meth:`Topology.add_node` keeps. Port, neighbor and peer queries therefore
cost O(degree) rather than O(links), and the forwarding hop limit
(:attr:`Topology.hop_limit`) costs O(1). Add nodes and links only through
those two methods; anything else leaves the index and the count stale.

Both methods bump :attr:`Topology.version`; they are the only mutators, and
:func:`attach_switch` goes through them. Anything memoised from the graph is
valid for one version: :meth:`Topology.distances` keeps one breadth-first
distance map per root node for the current version, and the engine keeps its
compiled forwarding paths the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple


class TopologyError(ValueError):
    """Raised when a construction or mutation would break a graph invariant."""


class NodeKind(IntEnum):
    CORE = 0
    EDGE = 1
    HOST = 2
    SCRUBBER = 3


# Port-numbering conventions.
HOST_PORT = 1              # a host's single NIC
HOST_FACING_BASE = 80      # edge port for host slot i is 80 + i
SCRUBBER_OUT_PORT = 200    # edge port feeding the scrubber
SCRUBBER_RETURN_PORT = 201 # edge port receiving scrubbed traffic back
MAX_HOSTS_PER_EDGE = 100   # keeps host-facing ports clear of 200/201


class NodeId(NamedTuple):
    """Identity of a node: a kind plus small-integer coordinates.

    A plain tuple ``(kind, index)``: hash, equality and order are the
    tuple's. Ordering (kind rank, then coordinates) is the canonical order
    used for every deterministic tie-break in the package.
    """

    kind: NodeKind
    index: tuple[int, ...]

    @staticmethod
    def core(i: int, j: int) -> "NodeId":
        return NodeId(NodeKind.CORE, (i, j))

    @staticmethod
    def edge(u: int) -> "NodeId":
        return NodeId(NodeKind.EDGE, (u,))

    @staticmethod
    def host(u: int, slot: int) -> "NodeId":
        return NodeId(NodeKind.HOST, (u, slot))

    @staticmethod
    def scrubber(serial: int) -> "NodeId":
        return NodeId(NodeKind.SCRUBBER, (serial,))

    @property
    def name(self) -> str:
        if self.kind is NodeKind.CORE:
            return f"c{self.index[0]}_{self.index[1]}"
        if self.kind is NodeKind.EDGE:
            return f"e{self.index[0]}"
        if self.kind is NodeKind.HOST:
            return f"h{self.index[1]}s{self.index[0]}"
        return f"s{200 + self.index[0]}"

    @property
    def is_switch(self) -> bool:
        return self.kind is not NodeKind.HOST

    def __str__(self) -> str:
        return self.name


def parse_host_name(name: str) -> NodeId:
    """Parse a host name of the form ``h<slot>s<edge>``."""
    if not name.startswith("h") or "s" not in name[1:]:
        raise TopologyError(f"not a host name: {name!r}")
    slot_text, _, edge_text = name[1:].partition("s")
    try:
        return NodeId.host(int(edge_text), int(slot_text))
    except ValueError as exc:
        raise TopologyError(f"not a host name: {name!r}") from exc


@dataclass(frozen=True)
class Link:
    """An undirected link between two (node, port) endpoints.

    ``capacity`` (bytes/second) and ``queue_cap`` (packets) are either both
    present (a throttled link) or both absent (unconstrained).
    """

    a: NodeId
    a_port: int
    b: NodeId
    b_port: int
    capacity: float | None = None
    queue_cap: int | None = None

    def __post_init__(self) -> None:
        if self.a_port < 1 or self.b_port < 1:
            raise TopologyError("port numbers must be positive")
        if (self.capacity is None) != (self.queue_cap is None):
            raise TopologyError("capacity and queue_cap must be set together")
        if self.capacity is not None and (self.capacity <= 0 or self.queue_cap <= 0):
            raise TopologyError("capacity and queue_cap must be positive")

    @property
    def constrained(self) -> bool:
        return self.capacity is not None

    def endpoints(self) -> tuple[tuple[NodeId, int], tuple[NodeId, int]]:
        return (self.a, self.a_port), (self.b, self.b_port)

    def to_dict(self) -> dict:
        """The fields, with node ids replaced by their names."""
        return {**vars(self), "a": self.a.name, "b": self.b.name}


@dataclass
class Topology:
    """The simulated network graph plus host addressing and role markers."""

    nodes: set[NodeId] = field(default_factory=set)
    links: list[Link] = field(default_factory=list)
    ip_of: dict[NodeId, str] = field(default_factory=dict)
    host_of_ip: dict[str, NodeId] = field(default_factory=dict)
    server: NodeId | None = None
    attackers: set[NodeId] = field(default_factory=set)
    switch_count: int = 0
    # Bumped by add_node and add_link.
    version: int = field(default=0, compare=False)
    # node -> {local port: (peer, peer port)}, one entry per link end.
    _ports: dict[NodeId, dict[int, tuple[NodeId, int]]] = field(default_factory=dict)
    # (version, {root: {node: hop count from root}}).
    _distances: tuple[int, dict[NodeId, dict[NodeId, int]]] = field(
        default_factory=lambda: (0, {}), repr=False, compare=False
    )

    # -- construction -----------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        if node in self.nodes:
            raise TopologyError(f"duplicate node {node}")
        self.version += 1
        self.nodes.add(node)
        if node.is_switch:
            self.switch_count += 1

    def add_link(self, link: Link) -> None:
        (na, pa), (nb, pb) = ends = link.endpoints()
        for node, port in ends:
            if node not in self.nodes:
                raise TopologyError(f"link endpoint {node} not in topology")
            if port in self._ports.get(node, ()):
                raise TopologyError(f"port {port} already in use on {node}")
        self.version += 1
        self.links.append(link)
        self._ports.setdefault(na, {})[pa] = (nb, pb)
        self._ports.setdefault(nb, {})[pb] = (na, pa)

    def register_host(self, host: NodeId, ip: str) -> None:
        if ip in self.host_of_ip:
            raise TopologyError(f"duplicate address {ip}")
        self.ip_of[host] = ip
        self.host_of_ip[ip] = host

    # -- queries ----------------------------------------------------------

    @property
    def hop_limit(self) -> int:
        """Switch hops past which a forwarding walk counts as a loop.

        A loop-free walk visits each switch at most once, except the edge
        switch that a scrubber detour enters twice.
        """
        return self.switch_count + 2

    def peer(self, node: NodeId, port: int) -> tuple[NodeId, int]:
        try:
            return self._ports[node][port]
        except KeyError:
            raise TopologyError(f"no link on {node} port {port}") from None

    def neighbors(self, node: NodeId) -> list[tuple[NodeId, int]]:
        """Adjacent (peer, local_port) pairs, sorted by local port."""
        ports = self._ports.get(node, {})
        return [(ports[port][0], port) for port in sorted(ports)]

    def distances(self, root: NodeId) -> dict[NodeId, int]:
        """Hop count from ``root`` to every node it reaches.

        Memoised per root for the current version; callers must not
        mutate the returned map.
        """
        version, memo = self._distances
        if version != self.version:
            memo = {}
            self._distances = (self.version, memo)
        dist = memo.get(root)
        if dist is None:
            dist = {root: 0}
            queue = deque([root])
            while queue:
                node = queue.popleft()
                step = dist[node] + 1
                for peer, _ in self._ports.get(node, {}).values():
                    if peer not in dist:
                        dist[peer] = step
                        queue.append(peer)
            memo[root] = dist
        return dist

    def port_toward(self, node: NodeId, other: NodeId) -> int:
        """Lowest-numbered local port whose link reaches ``other``."""
        for peer, port in self.neighbors(node):
            if peer == other:
                return port
        raise TopologyError(f"{node} has no link toward {other}")

    def used_ports(self, node: NodeId) -> set[int]:
        return set(self._ports.get(node, ()))

    def by_kind(self, kind: NodeKind) -> list[NodeId]:
        return sorted(n for n in self.nodes if n.kind is kind)

    def core_switches(self) -> list[NodeId]:
        return self.by_kind(NodeKind.CORE)

    def edge_switches(self) -> list[NodeId]:
        return self.by_kind(NodeKind.EDGE)

    def hosts(self) -> list[NodeId]:
        return self.by_kind(NodeKind.HOST)

    def scrubbers(self) -> list[NodeId]:
        return self.by_kind(NodeKind.SCRUBBER)

    def edge_of_host(self, host: NodeId) -> NodeId:
        edge, _ = self.peer(host, HOST_PORT)
        return edge

    def to_dict(self) -> dict:
        """Stable serializable form (nodes, links, roles) for reports."""
        return {
            "nodes": [
                {"name": n.name, "kind": n.kind.name.lower()}
                for n in sorted(self.nodes)
            ],
            "links": [link.to_dict() for link in self.links],
            "roles": {
                "server": self.server.name if self.server else None,
                "attackers": sorted(a.name for a in self.attackers),
                "addresses": {
                    n.name: self.ip_of[n] for n in sorted(self.ip_of)
                },
            },
        }


def perimeter_positions(n: int, m: int) -> list[tuple[int, int]]:
    """Grid boundary positions, clockwise from (0, 0). Length is 2n+2m-4."""
    top = [(0, j) for j in range(m)]
    right = [(i, m - 1) for i in range(1, n)]
    bottom = [(n - 1, j) for j in range(m - 2, -1, -1)]
    left = [(i, 0) for i in range(n - 2, 0, -1)]
    return top + right + bottom + left


def build_grid(n: int, m: int, k: int) -> Topology:
    """Build the N x M core grid with perimeter edge switches and K hosts each.

    Deterministic: nodes, ports and links are created in a fixed order
    ((i, j) over the core grid, then perimeter index u, then host slot).
    """
    if n < 2 or m < 2:
        raise TopologyError("grid dimensions must be at least 2x2")
    if k < 1:
        raise TopologyError("need at least one host per edge switch")
    if k > MAX_HOSTS_PER_EDGE:
        raise TopologyError(f"at most {MAX_HOSTS_PER_EDGE} hosts per edge switch")

    topo = Topology()
    next_port: dict[NodeId, int] = {}

    def take_port(node: NodeId) -> int:
        port = next_port.get(node, 1)
        next_port[node] = port + 1
        return port

    cores = {(i, j): NodeId.core(i, j) for i in range(n) for j in range(m)}
    for core in cores.values():
        topo.add_node(core)

    # 4-neighbor mesh: link each core to its right and down neighbor.
    for i in range(n):
        for j in range(m):
            here = cores[(i, j)]
            if j + 1 < m:
                right = cores[(i, j + 1)]
                topo.add_link(Link(here, take_port(here), right, take_port(right)))
            if i + 1 < n:
                down = cores[(i + 1, j)]
                topo.add_link(Link(here, take_port(here), down, take_port(down)))

    for u, (i, j) in enumerate(perimeter_positions(n, m)):
        edge = NodeId.edge(u)
        topo.add_node(edge)
        core = cores[(i, j)]
        # Edge port 1 is the uplink; the core side takes its next free port.
        topo.add_link(Link(edge, take_port(edge), core, take_port(core)))
        for slot in range(k):
            host = NodeId.host(u, slot)
            topo.add_node(host)
            topo.add_link(Link(host, HOST_PORT, edge, HOST_FACING_BASE + slot))
            topo.register_host(host, f"10.0.{u}.{slot}")

    topo.server = NodeId.host(0, 0)
    return topo


def attach_switch(topology: Topology, new_node: NodeId, links: list[Link]) -> None:
    """Attach a new switch with the given links; validates before mutating.

    Each link must join ``new_node`` to one existing node on unused ports.
    On any violation the topology is left untouched.
    """
    if new_node in topology.nodes:
        raise TopologyError(f"duplicate node {new_node}")
    if not links:
        raise TopologyError("a new switch needs at least one link")

    claimed: set[tuple[NodeId, int]] = set()
    for link in links:
        ends = link.endpoints()
        new_sides = [e for e in ends if e[0] == new_node]
        old_sides = [e for e in ends if e[0] != new_node]
        if len(new_sides) != 1:
            raise TopologyError(f"link {link} must join {new_node} to an existing node")
        if old_sides[0][0] not in topology.nodes:
            raise TopologyError(f"dangling endpoint {old_sides[0][0]}")
        for node, port in ends:
            existing = topology.used_ports(node) if node != new_node else set()
            if (node, port) in claimed or port in existing:
                raise TopologyError(f"port {port} already in use on {node}")
            claimed.add((node, port))

    topology.add_node(new_node)
    for link in links:
        topology.add_link(link)
