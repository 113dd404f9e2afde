import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnsim.mitigation import apply, plan_scrubber
from sdnsim.routing import FlowKey, RuleTable, handle_packet_in
from sdnsim.topology import (
    HOST_FACING_BASE,
    MAX_HOSTS_PER_EDGE,
    Link,
    NodeId,
    NodeKind,
    Topology,
    TopologyError,
    attach_switch,
    build_grid,
    parse_host_name,
    perimeter_positions,
)

from conftest import bfs_distances, is_connected, link_ends


def test_reference_grid_counts():
    topo = build_grid(3, 4, 3)
    assert len(topo.by_kind(NodeKind.CORE)) == 12
    assert len(topo.by_kind(NodeKind.EDGE)) == 10
    assert len(topo.hosts()) == 30


def test_smallest_grid_counts():
    topo = build_grid(2, 2, 1)
    assert len(topo.by_kind(NodeKind.CORE)) == 4
    assert len(topo.by_kind(NodeKind.EDGE)) == 4  # 2*2 + 2*2 - 4
    assert len(topo.hosts()) == 4


def test_grid_connected_by_bfs_oracle():
    topo = build_grid(3, 3, 2)
    assert len(topo.by_kind(NodeKind.CORE)) == 9
    assert len(topo.by_kind(NodeKind.EDGE)) == 8
    assert len(topo.hosts()) == 16
    assert is_connected(topo)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("k", range(1, 5))
def test_edge_and_host_formula(n, m, k):
    topo = build_grid(n, m, k)
    edges = 2 * n + 2 * m - 4
    assert len(topo.by_kind(NodeKind.EDGE)) == edges
    assert len(topo.hosts()) == k * edges
    assert is_connected(topo)


def test_perimeter_order_is_clockwise_and_complete():
    positions = perimeter_positions(3, 4)
    assert len(positions) == len(set(positions)) == 2 * 3 + 2 * 4 - 4
    assert positions[0] == (0, 0)
    assert positions[1] == (0, 1)
    # every position is on the boundary
    assert all(i in (0, 2) or j in (0, 3) for i, j in positions)


def test_build_grid_is_deterministic():
    assert build_grid(3, 4, 3) == build_grid(3, 4, 3)


def test_ip_map_is_a_bijection_with_expected_format():
    topo = build_grid(3, 4, 2)
    assert len(topo.ip_of) == len(topo.host_of_ip) == len(topo.hosts())
    for host in topo.hosts():
        u, slot = host.index
        assert topo.ip_of[host] == f"10.0.{u}.{slot}"
        assert topo.host_of_ip[topo.ip_of[host]] == host


def test_host_ports_follow_the_80_plus_slot_convention():
    topo = build_grid(2, 3, 3)
    edge = NodeId.edge(0)
    for slot in range(3):
        peer, peer_port = topo.peer(edge, HOST_FACING_BASE + slot)
        assert peer == NodeId.host(0, slot)
        assert peer_port == 1
    # port 1 on an edge switch is the core uplink
    uplink, _ = topo.peer(edge, 1)
    assert uplink.kind is NodeKind.CORE


@pytest.mark.parametrize("n,m,k", [(1, 4, 1), (3, 1, 1), (2, 2, 0)])
def test_degenerate_grids_rejected(n, m, k):
    with pytest.raises(TopologyError):
        build_grid(n, m, k)


def test_default_server_is_slot_zero_of_edge_zero():
    topo = build_grid(2, 2, 2)
    assert topo.server == NodeId.host(0, 0)


def _scrubber_links(topo, edge, scrub):
    return [
        Link(edge, 200, scrub, 1),
        Link(scrub, 201, edge, 201, capacity=12500.0, queue_cap=1000),
    ]


def test_attach_scrubber_adds_one_node_two_links():
    topo = build_grid(2, 2, 1)
    edge = NodeId.edge(3)
    scrub = NodeId.scrubber(0)
    nodes_before = len(topo.nodes)
    links_before = len(topo.links)
    attach_switch(topo, scrub, _scrubber_links(topo, edge, scrub))
    assert len(topo.nodes) == nodes_before + 1
    assert len(topo.links) == links_before + 2
    # one hop from the edge switch per the BFS oracle
    assert bfs_distances(topo, edge)[scrub] == 1


def test_attach_with_used_port_is_rejected_and_rolled_back():
    topo = build_grid(2, 2, 1)
    edge = NodeId.edge(0)
    scrub = NodeId.scrubber(0)
    before = copy.deepcopy(topo)
    with pytest.raises(TopologyError):
        attach_switch(topo, scrub, [Link(edge, 1, scrub, 1)])  # port 1 is the uplink
    assert topo == before
    assert topo.version == before.version


def test_attach_duplicate_node_rejected():
    topo = build_grid(2, 2, 1)
    with pytest.raises(TopologyError):
        attach_switch(topo, NodeId.edge(0), [Link(NodeId.edge(0), 50, NodeId.core(0, 0), 50)])


def test_attach_dangling_endpoint_rejected():
    topo = build_grid(2, 2, 1)
    scrub = NodeId.scrubber(0)
    ghost = NodeId.edge(99)
    with pytest.raises(TopologyError):
        attach_switch(topo, scrub, [Link(ghost, 200, scrub, 1)])


def test_link_constraint_fields_must_pair():
    with pytest.raises(TopologyError):
        Link(NodeId.edge(0), 200, NodeId.scrubber(0), 1, capacity=100.0)


# Each guard of the topology API, with a call that trips it on a 2x2 grid
# and a fragment of its message.
GUARDS = {
    "link-port-not-positive": (
        lambda topo: Link(NodeId.core(0, 0), 0, NodeId.core(0, 1), 1),
        "port numbers must be positive"),
    "link-capacity-not-positive": (
        lambda topo: Link(NodeId.edge(0), 200, NodeId.scrubber(0), 1, capacity=0.0, queue_cap=5),
        "capacity and queue_cap must be positive"),
    "link-queue-not-positive": (
        lambda topo: Link(NodeId.edge(0), 200, NodeId.scrubber(0), 1, capacity=9.0, queue_cap=0),
        "capacity and queue_cap must be positive"),
    "add-node-duplicate": (
        lambda topo: topo.add_node(NodeId.core(0, 0)),
        "duplicate node"),
    "add-link-unknown-endpoint": (
        lambda topo: topo.add_link(Link(NodeId.core(0, 0), 50, NodeId.edge(99), 1)),
        "not in topology"),
    "add-link-port-in-use": (
        lambda topo: topo.add_link(Link(NodeId.core(0, 0), 1, NodeId.core(1, 1), 50)),
        "port 1 already in use"),
    "register-host-duplicate-address": (
        lambda topo: topo.register_host(NodeId.host(0, 5), "10.0.1.0"),
        "duplicate address 10.0.1.0"),
    "peer-of-an-unlinked-port": (
        lambda topo: topo.peer(NodeId.core(0, 0), 99),
        "port 99"),
    "grid-too-many-hosts-per-edge": (
        lambda topo: build_grid(2, 2, MAX_HOSTS_PER_EDGE + 1),
        f"at most {MAX_HOSTS_PER_EDGE} hosts per edge switch"),
    "attach-without-links": (
        lambda topo: attach_switch(topo, NodeId.scrubber(0), []),
        "a new switch needs at least one link"),
    "attach-link-not-joining-the-new-switch": (
        lambda topo: attach_switch(topo, NodeId.scrubber(0),
                                   [Link(NodeId.edge(0), 200, NodeId.core(0, 0), 50)]),
        "to an existing node"),
}


@pytest.mark.parametrize("guard", list(GUARDS))
def test_each_topology_guard_raises_and_changes_nothing(guard):
    topo = build_grid(2, 2, 1)
    before = copy.deepcopy(topo)
    call, message = GUARDS[guard]
    with pytest.raises(TopologyError, match=message):
        call(topo)
    assert topo == before
    assert topo.version == before.version


@pytest.mark.parametrize("name", [
    "h-1s2", "h1s-2", "h01s2", "h1s02", "h+1s2", "h 1s2", "h1s2 ", "h0_1s2", "h\uff11s2",
    "hs2", "h1s", "h1s2s3", "H1s2",
])
def test_parse_host_name_takes_only_canonical_names(name):
    with pytest.raises(TopologyError):
        parse_host_name(name)


def test_parse_host_name_roundtrip():
    assert parse_host_name("h2s7") == NodeId.host(7, 2)
    for node in (NodeId.host(3, 1), NodeId.host(0, 0), NodeId.host(10, 0), NodeId.host(0, 10)):
        assert parse_host_name(node.name) == node
    with pytest.raises(TopologyError):
        parse_host_name("c0_0")


def test_node_names_are_pinned_per_kind():
    # Nodes of different kinds share coordinates: the name depends on both.
    assert [NodeId.core(1, 2).name, NodeId.host(1, 2).name] == ["c1_2", "h2s1"]
    assert [NodeId.edge(0).name, NodeId.scrubber(0).name] == ["e0", "s200"]
    assert [NodeId.edge(3).name, NodeId.host(7, 2).name] == ["e3", "h2s7"]
    assert [str(NodeId.core(1, 2)), str(NodeId.scrubber(1))] == ["c1_2", "s201"]


def test_node_names_are_unique():
    topo = build_grid(3, 4, 3)
    names = [n.name for n in topo.nodes]
    assert len(names) == len(set(names))


# -- adjacency index -------------------------------------------------------

def _attach_scrubber_for(topo, client):
    """Detour one client's flow through a scrubber via mitigation.apply."""
    rules = RuleTable()
    client_ip, server_ip = topo.ip_of[client], topo.ip_of[topo.server]
    handle_packet_in(rules, topo, FlowKey(client_ip, server_ip))
    apply(plan_scrubber(server_ip, [client_ip], topo, rules), topo, rules)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(2, 6),
    k=st.integers(1, 4),
    client=st.none() | st.integers(min_value=1),
)
def test_adjacency_index_matches_link_list(n, m, k, client):
    topo = build_grid(n, m, k)
    if client is not None:
        hosts = [h for h in topo.hosts() if h != topo.server]
        _attach_scrubber_for(topo, hosts[client % len(hosts)])
        assert len(topo.by_kind(NodeKind.SCRUBBER)) == 1

    ends = link_ends(topo)
    for node in topo.nodes:
        own = sorted((port, peer) for (at, port), (peer, _) in ends.items() if at == node)
        assert topo.neighbors(node) == [(peer, port) for port, peer in own]
        assert topo.used_ports(node) == {port for port, _ in own}
        for port, peer in own:
            assert topo.peer(node, port) == ends[(node, port)]
            assert topo.port_toward(node, peer) == min(p for p, q in own if q == peer)
        assert topo.distances(node) == bfs_distances(topo, node)
    # A host's only link goes to its edge switch, never to a core.
    with pytest.raises(TopologyError):
        topo.port_toward(topo.hosts()[0], topo.by_kind(NodeKind.CORE)[0])

    switches = sum(1 for node in topo.nodes if node.kind is not NodeKind.HOST)
    assert topo.switch_count == switches
    assert topo.hop_limit == switches + 2


@settings(max_examples=50, deadline=None)
@given(
    a=st.tuples(st.sampled_from(NodeKind), st.tuples(st.integers(0, 9), st.integers(0, 9))),
    b=st.tuples(st.sampled_from(NodeKind), st.tuples(st.integers(0, 9), st.integers(0, 9))),
)
def test_node_id_hash_equality_and_order_follow_the_fields(a, b):
    x, y = NodeId(*a), NodeId(*b)
    assert hash(x) == hash(a)
    assert hash(NodeId(*a)) == hash(x)
    assert NodeId(*a) == x and NodeId(*a) is not x
    assert (x == y) == (a == b)
    assert (x < y) == (a < b)
