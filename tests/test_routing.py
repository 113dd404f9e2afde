import copy
import gc
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnsim.routing import (
    BASE_PRIORITY,
    FlowKey,
    FlowRule,
    RoutingError,
    RuleEntry,
    RuleTable,
    handle_packet_in,
    shortest_path,
)
from sdnsim.telemetry import poll
from sdnsim.topology import Link, NodeId, NodeKind, attach_switch, build_grid

import heap_paths
import scan_poll
from conftest import bfs_distances, destination_tree_ok
from test_topology import _scrubber_links


@pytest.fixture()
def grid():
    return build_grid(3, 4, 3)


def flow(topo, src_host, dst_host):
    return FlowKey(topo.ip_of[src_host], topo.ip_of[dst_host])


# -- shortest_path ---------------------------------------------------------

def test_adjacent_nodes_path_length_one(grid):
    host = NodeId.host(0, 0)
    edge = grid.edge_of_host(host)
    assert shortest_path(grid, host, edge) == [host, edge]


def test_same_edge_hosts_two_hops(grid):
    a, b = NodeId.host(2, 0), NodeId.host(2, 1)
    path = shortest_path(grid, a, b)
    assert path == [a, NodeId.edge(2), b]


def test_random_host_pairs_match_bfs_oracle(grid):
    rng = random.Random(7)
    hosts = grid.hosts()
    for _ in range(100):
        a, b = rng.sample(hosts, 2)
        path = shortest_path(grid, a, b)
        assert path[0] == a and path[-1] == b
        # consecutive nodes really are linked
        for x, y in zip(path, path[1:]):
            grid.port_toward(x, y)
        assert len(path) - 1 == bfs_distances(grid, a)[b]


def test_shortest_path_deterministic(grid):
    a, b = NodeId.host(0, 0), NodeId.host(5, 2)
    assert shortest_path(grid, a, b) == shortest_path(grid, a, b)


def test_unknown_endpoint_rejected(grid):
    with pytest.raises(RoutingError):
        shortest_path(grid, NodeId.host(0, 0), NodeId.host(42, 0))


def attach_scrubber(topo, edge):
    scrub = NodeId.scrubber(0)
    attach_switch(topo, scrub, _scrubber_links(topo, edge, scrub))
    return scrub


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    m=st.integers(2, 6),
    k=st.integers(1, 4),
    scrub_edge=st.none() | st.integers(min_value=0),
    seed=st.integers(0, 2**32),
)
def test_shortest_path_matches_the_heap_search(n, m, k, scrub_edge, seed):
    topo = build_grid(n, m, k)
    if scrub_edge is not None:
        edges = topo.edge_switches()
        attach_scrubber(topo, edges[scrub_edge % len(edges)])
    nodes = sorted(topo.nodes)
    if len(nodes) <= 40:
        pairs = list(itertools.product(nodes, nodes))
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(150)]
    for a, b in pairs:
        assert shortest_path(topo, a, b) == heap_paths.shortest_path(topo, a, b)


def test_path_memo_is_cleared_by_topology_changes():
    topo = build_grid(3, 4, 2)
    a, b = NodeId.host(0, 0), NodeId.host(5, 1)
    before = shortest_path(topo, a, b)
    assert before == heap_paths.shortest_path(topo, a, b)

    # attach_switch adds a node reachable only through the new links.
    scrub = attach_scrubber(topo, NodeId.edge(5))
    for x, y in ((a, scrub), (scrub, a), (b, scrub)):
        assert shortest_path(topo, x, y) == heap_paths.shortest_path(topo, x, y)

    # A core shortcut between a's and b's cores shortens the path.
    core_a = topo.peer(NodeId.edge(0), 1)[0]
    core_b = topo.peer(NodeId.edge(5), 1)[0]
    topo.add_link(Link(core_a, 50, core_b, 50))
    after = shortest_path(topo, a, b)
    assert after == heap_paths.shortest_path(topo, a, b)
    assert len(after) < len(before)

    # A second link to b's edge switch gives a two peers and a 2-hop path.
    topo.add_link(Link(a, 2, NodeId.edge(5), 150))
    assert shortest_path(topo, a, b) == [a, NodeId.edge(5), b]
    for x, y in ((b, a), (a, scrub), (NodeId.host(0, 1), b)):
        assert shortest_path(topo, x, y) == heap_paths.shortest_path(topo, x, y)


def test_a_caller_that_edits_a_returned_path_leaves_the_memo_alone(grid):
    a, b = NodeId.host(0, 0), NodeId.host(5, 1)
    edge = grid.edge_of_host(a)
    for x in (a, edge, a):  # a host's path is its edge switch's with a in front
        path = shortest_path(grid, x, b)
        expected = heap_paths.shortest_path(grid, x, b)
        assert path == expected
        path.append(a)
        path.reverse()
        assert shortest_path(grid, x, b) == expected


def test_unreachable_node_rejected(grid):
    island = NodeId.core(9, 9)
    grid.add_node(island)
    with pytest.raises(RoutingError, match="unreachable"):
        shortest_path(grid, NodeId.host(0, 0), island)
    with pytest.raises(RoutingError, match="unreachable"):
        shortest_path(grid, island, NodeId.host(0, 0))


# -- handle_packet_in ------------------------------------------------------

def test_first_flow_installs_both_directions(grid):
    rules = RuleTable()
    server = NodeId.host(5, 0)
    client = NodeId.host(0, 1)
    key = flow(grid, client, server)
    written = handle_packet_in(rules, grid, key)
    assert written, "fresh flow must install rules"

    path = shortest_path(grid, client, server)
    # lookup succeeds on every switch of the path, both directions
    for node in path[1:-1]:
        assert rules.lookup(node, key.src, key.dst) is not None
        assert rules.lookup(node, key.dst, key.src) is not None
    # per-flow rules on both edge switches, both directions
    for edge, fkey in (
        (path[1], key),
        (path[-2], key),
        (path[1], key.reversed()),
        (path[-2], key.reversed()),
    ):
        assert rules.find(edge, fkey.src, fkey.dst) is not None


def test_flow_to_itself_is_rejected(grid):
    rules = RuleTable()
    ip = grid.ip_of[NodeId.host(0, 1)]
    key = FlowKey(ip, ip)
    assert key == (ip, ip)
    with pytest.raises(RoutingError, match="must differ"):
        handle_packet_in(rules, grid, key)
    assert rules.all_entries() == []


def test_core_rules_match_destination_only(grid):
    rules = RuleTable()
    key = flow(grid, NodeId.host(0, 0), NodeId.host(5, 1))
    handle_packet_in(rules, grid, key)
    for entry in rules.all_entries():
        if entry.switch.kind is NodeKind.CORE:
            assert entry.match_src is None
        else:
            assert entry.match_src is not None


def test_shared_core_suffix_adds_no_duplicate_dst_rules(grid):
    # Two clients of one edge share the core path to the server: the second
    # packet-in finds the first one's core rules toward the server in place
    # and writes none of its own.
    rules = RuleTable()
    server = NodeId.host(5, 0)
    server_ip = grid.ip_of[server]

    def core_rules_to_server(written):
        return [r for r in written if r.switch.kind is NodeKind.CORE
                and r.match_src is None and r.match_dst == server_ip]

    first = handle_packet_in(rules, grid, flow(grid, NodeId.host(0, 1), server))
    second = handle_packet_in(rules, grid, flow(grid, NodeId.host(0, 2), server))
    assert core_rules_to_server(first)
    assert second and core_rules_to_server(second) == []


def test_destination_tree_invariant_after_many_flows(grid):
    rules = RuleTable()
    rng = random.Random(21)
    hosts = grid.hosts()
    for _ in range(100):
        a, b = rng.sample(hosts, 2)
        handle_packet_in(rules, grid, flow(grid, a, b))
    for dst in {grid.ip_of[h] for h in hosts}:
        assert destination_tree_ok(grid, rules, dst)


def test_installed_flows_walk_at_bfs_distance(grid):
    rules = RuleTable()
    rng = random.Random(3)
    hosts = grid.hosts()
    pairs = [tuple(rng.sample(hosts, 2)) for _ in range(50)]
    for a, b in pairs:
        handle_packet_in(rules, grid, flow(grid, a, b))

    def walk_length(key, src, dst):
        node, in_port = grid.peer(src, 1)
        hops = 1
        while node.is_switch:
            entry = rules.lookup(node, key.src, key.dst, in_port)
            assert entry is not None
            node, in_port = grid.peer(node, entry.out_port)
            hops += 1
        assert node == dst
        return hops

    # both directions of every installed flow are minimum-hop, even where
    # they merged into pre-existing destination trees
    for a, b in pairs:
        key = flow(grid, a, b)
        assert walk_length(key, a, b) == bfs_distances(grid, a)[b]
        assert walk_length(key.reversed(), b, a) == bfs_distances(grid, b)[a]


def test_reinstall_is_noop(grid):
    rules = RuleTable()
    key = flow(grid, NodeId.host(1, 0), NodeId.host(6, 1))
    handle_packet_in(rules, grid, key)
    snapshot = copy.deepcopy(rules)
    assert handle_packet_in(rules, grid, key) == []
    assert rules == snapshot


def test_reverse_install_is_noop(grid):
    rules = RuleTable()
    key = flow(grid, NodeId.host(1, 0), NodeId.host(6, 1))
    handle_packet_in(rules, grid, key)
    snapshot = copy.deepcopy(rules)
    assert handle_packet_in(rules, grid, key.reversed()) == []
    assert rules == snapshot


def test_identical_sequences_build_identical_tables(grid):
    keys = [
        flow(grid, NodeId.host(0, 0), NodeId.host(4, 1)),
        flow(grid, NodeId.host(2, 2), NodeId.host(4, 1)),
        flow(grid, NodeId.host(7, 0), NodeId.host(0, 0)),
    ]
    tables = []
    for _ in range(2):
        rules = RuleTable()
        for key in keys:
            handle_packet_in(rules, grid, key)
        tables.append(rules)
    assert tables[0] == tables[1]


# -- lookup ----------------------------------------------------------------

def test_forward_empty_table_misses(grid):
    rules = RuleTable()
    key = flow(grid, NodeId.host(0, 0), NodeId.host(1, 0))
    assert rules.lookup(NodeId.edge(0), key.src, key.dst) is None


def test_forward_single_dst_rule(grid):
    rules = RuleTable()
    rule = FlowRule(NodeId.edge(0), None, "10.0.1.0", 1, BASE_PRIORITY)
    rules.install(rule)
    assert rules.lookup(NodeId.edge(0), "10.0.0.0", "10.0.1.0").out_port == 1


def test_higher_priority_wins(grid):
    # A per-flow rule against the dst-only rule toward the same destination,
    # whichever of the two is older.
    rules = RuleTable()
    edge = NodeId.edge(0)
    rules.install(FlowRule(edge, "10.0.0.0", "10.0.1.0", 1, 20001))
    rules.install(FlowRule(edge, None, "10.0.1.0", 200, 30001))
    assert rules.lookup(edge, "10.0.0.0", "10.0.1.0").out_port == 200
    rules.install(FlowRule(edge, None, "10.0.2.0", 3, 20001))
    rules.install(FlowRule(edge, "10.0.0.0", "10.0.2.0", 7, 30001))
    assert rules.lookup(edge, "10.0.0.0", "10.0.2.0").out_port == 7


def test_priority_tie_older_rule_wins(grid):
    rules = RuleTable()
    edge = NodeId.edge(0)
    rules.install(FlowRule(edge, None, "10.0.1.0", 3, BASE_PRIORITY))
    rules.install(FlowRule(edge, "10.0.0.0", "10.0.1.0", 7, BASE_PRIORITY))
    assert rules.lookup(edge, "10.0.0.0", "10.0.1.0").out_port == 3


def test_in_port_qualified_rule_only_matches_that_port(grid):
    rules = RuleTable()
    edge = NodeId.edge(0)
    rules.install(FlowRule(edge, None, "10.0.1.0", 80, 40003, in_port=201))
    assert rules.lookup(edge, "10.0.0.0", "10.0.1.0", in_port=201).out_port == 80
    assert rules.lookup(edge, "10.0.0.0", "10.0.1.0", in_port=1) is None
    assert rules.lookup(edge, "10.0.0.0", "10.0.1.0") is None


ORACLE_SWITCHES = [NodeId.edge(0), NodeId.edge(1), NodeId.scrubber(0)]
ORACLE_ADDRS = ["10.0.0.0", "10.0.0.1", "10.0.1.0"]
ORACLE_PORTS = [None, 1, 201]
ORACLE_PRIORITIES = [BASE_PRIORITY, 30001, 40003]

oracle_rules = st.builds(
    FlowRule,
    switch=st.sampled_from(ORACLE_SWITCHES),
    match_src=st.sampled_from([None] + ORACLE_ADDRS),
    match_dst=st.sampled_from(ORACLE_ADDRS),
    out_port=st.integers(1, 4),
    priority=st.sampled_from(ORACLE_PRIORITIES),
    in_port=st.sampled_from(ORACLE_PORTS),
)


def brute_force_lookup(entries, switch, src, dst, in_port):
    """Highest priority wins, then the older install; an in_port rule
    matches only that port."""
    hits = [
        e for e in entries
        if e.switch == switch
        and e.match_dst == dst
        and e.match_src in (None, src)
        and e.in_port in (None, in_port)
    ]
    return min(hits, key=lambda e: (-e.priority, e.seq), default=None)


def six_fields(rule):
    return (rule.switch, rule.match_src, rule.match_dst, rule.out_port, rule.priority,
            rule.in_port)


def check_table(rules, installed):
    """``rules`` against the rules ``installed``, oldest first: ``find`` on
    every match, ``lookup``, ``all_entries``, the poll, and equality down to
    each entry's counters."""
    entries = rules.all_entries()
    assert [six_fields(e) for e in sorted(entries, key=lambda e: e.seq)] == [
        six_fields(r) for r in installed]
    for match in itertools.product(ORACLE_SWITCHES, [None] + ORACLE_ADDRS, ORACLE_ADDRS):
        expected = [e for e in entries if (e.switch, e.match_src, e.match_dst) == match]
        assert len(expected) <= 1
        assert rules.find(*match) is (expected[0] if expected else None)
    for switch, src, dst, in_port in itertools.product(
        ORACLE_SWITCHES, ORACLE_ADDRS, ORACLE_ADDRS, ORACLE_PORTS
    ):
        assert rules.lookup(switch, src, dst, in_port) is brute_force_lookup(
            entries, switch, src, dst, in_port
        )
    state = SimpleNamespace(rules=rules)
    assert poll(state, 1.0) == scan_poll.poll(state, 1.0)

    copied = copy.deepcopy(rules)
    assert copied == rules
    for entry in copied.all_entries():
        entry.packets += 1
        assert copied != rules
        entry.packets -= 1
    assert copied == rules


# Three rules on one match at different priorities: while one of them holds
# the match the others are refused. Then a dst-only rule toward the same
# destination, which the match's lookups also read.
TAKEN = [FlowRule(NodeId.edge(0), "10.0.0.0", "10.0.1.0", 1, BASE_PRIORITY),
          FlowRule(NodeId.edge(0), "10.0.0.0", "10.0.1.0", 2, 40003),
          FlowRule(NodeId.edge(0), "10.0.0.0", "10.0.1.0", 3, 30001, in_port=201)]
DST_ONLY = FlowRule(NodeId.edge(0), None, "10.0.1.0", 4, 30001)
A, B, C = TAKEN


@settings(max_examples=100, deadline=None)
@example(ops=[A, B, C,     # A holds the match: B and C are refused
              0,           # A goes and frees the match
              B, C, A, 0,  # B holds it, the others are refused; B goes
              C, A, 0, A])  # C, then A again once C is gone
@example(ops=[DST_ONLY, A, B, 1, B, C, 0, 0, A])
@given(ops=st.lists(
    st.one_of(oracle_rules, st.integers(0, 63)),  # install a rule / delete one
    max_size=20,
))
def test_lookup_matches_a_brute_force_scan(ops):
    rules = RuleTable()
    installed: list[FlowRule] = []  # in installation order
    for op in ops:
        if isinstance(op, FlowRule):
            match = (op.switch, op.match_src, op.match_dst)
            if any((r.switch, r.match_src, r.match_dst) == match for r in installed):
                # A taken match refuses a rule at any priority, and the
                # refused install changes nothing.
                before = copy.deepcopy(rules)
                with pytest.raises(RoutingError, match="^duplicate rule"):
                    rules.install(op)
                assert rules == before and rules.versions == before.versions
                continue
            entry = rules.install(op)
            entry.packets, entry.bytes = entry.seq + 1, 100 * entry.seq + 7
            installed.append(op)
        elif installed:
            gone = installed.pop(op % len(installed))
            entry = rules.delete(gone.switch, gone.match_src, gone.match_dst, gone.priority)
            assert six_fields(entry) == six_fields(gone)
        check_table(rules, installed)


def test_duplicate_rule_install_rejected(grid):
    rules = RuleTable()
    rule = FlowRule(NodeId.edge(0), "10.0.0.0", "10.0.1.0", 1, BASE_PRIORITY)
    rules.install(rule)
    # The message names the rule: its switch, its match and its priority.
    with pytest.raises(RoutingError, match=(
            r"^duplicate rule \(10\.0\.0\.0, 10\.0\.1\.0, prio 20001\) on e0$")):
        rules.install(FlowRule(NodeId.edge(0), "10.0.0.0", "10.0.1.0", 2, BASE_PRIORITY))


def test_delete_names_the_rule_its_match_holds():
    # A delete names its rule's priority, as a mitigation plan does; a
    # match that holds the rule at another priority keeps it.
    rules = RuleTable()
    edge = NodeId.edge(0)
    rules.install(FlowRule(edge, "10.0.0.0", "10.0.1.0", 1, BASE_PRIORITY))
    before = copy.deepcopy(rules)
    with pytest.raises(RoutingError, match=(
            r"^no rule \(10\.0\.0\.0, 10\.0\.1\.0, prio 30001\) on e0$")):
        rules.delete(edge, "10.0.0.0", "10.0.1.0", 30001)
    assert rules == before and rules.versions == before.versions
    assert rules.delete(edge, "10.0.0.0", "10.0.1.0", BASE_PRIORITY).out_port == 1
    assert rules.find(edge, "10.0.0.0", "10.0.1.0") is None


def test_all_entries_keep_install_order_across_a_delete_and_a_reinstall():
    # The report's rule dump orders rules of one switch and priority by
    # this list alone, with no sort on seq.
    rules = RuleTable()
    edge, core = NodeId.edge(0), NodeId.core(1, 1)
    specs = [FlowRule(core, None, "10.0.1.0", 2, BASE_PRIORITY),
             FlowRule(edge, "10.0.0.0", "10.0.1.0", 1, BASE_PRIORITY),
             FlowRule(core, None, "10.0.0.0", 3, BASE_PRIORITY)]
    for spec in specs:
        rules.install(spec)
    rules.delete(core, None, "10.0.1.0", BASE_PRIORITY)
    rules.install(FlowRule(core, None, "10.0.1.0", 4, BASE_PRIORITY))
    entries = rules.all_entries()
    assert [(e.switch, e.match_dst, e.out_port) for e in entries] == [
        (edge, "10.0.1.0", 1), (core, "10.0.0.0", 3), (core, "10.0.1.0", 4)]
    assert [e.seq for e in entries] == [1, 2, 3]


def test_rule_records_keep_no_instance_dict():
    # A run's state is mostly its rule table: `fabric` holds 1 610 records.
    entry = RuleTable().install(FlowRule(NodeId.edge(0), None, "10.0.1.0", 1, BASE_PRIORITY))
    assert type(entry) is RuleEntry
    assert not hasattr(entry, "__dict__")


def test_rule_table_and_path_memo_hold_little_per_installed_rule():
    # fabric's packet-ins: every host of a 6x6 grid with 8 hosts per edge
    # toward one server, then a poll. Traced bytes still held, per rule,
    # by the table, its polled index and the topology's path memo (1 610
    # rules): 275 B with one record per match, 283 B with one record per
    # rule chained by key, 363 B with a rule, its entry and a tuple bucket
    # each, 477 B with a memo of distance maps instead of paths, 513 B with
    # list buckets as well.
    def install_all(topo):
        rules = RuleTable()
        server = NodeId.host(0, 0)
        for host in topo.hosts():
            if host != server:
                handle_packet_in(rules, topo, flow(topo, host, server))
        poll(SimpleNamespace(rules=rules), 1.0)
        return rules

    install_all(build_grid(6, 6, 8))  # fills the name and address caches
    topo = build_grid(6, 6, 8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rules = install_all(topo)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    installed = len(rules.all_entries())
    assert installed == 1610
    assert held / installed < 300


def test_packet_in_for_an_unknown_address_installs_nothing():
    topo = build_grid(2, 2, 1)
    rules = RuleTable()
    server_ip = topo.ip_of[topo.server]
    for key in (FlowKey("10.9.9.9", server_ip), FlowKey(server_ip, "10.9.9.9")):
        with pytest.raises(RoutingError, match=f"unknown address in flow {key.src} -> {key.dst}"):
            handle_packet_in(rules, topo, key)
    assert rules.all_entries() == []
