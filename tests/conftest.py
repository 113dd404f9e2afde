"""Shared test oracles, kept independent of the code under test."""

import time
from collections import deque

import pytest

from sdnsim.topology import NodeKind

SESSION_START = time.monotonic()


def bfs_distances(topology, start):
    """Hop counts from start over the raw link list (independent of routing)."""
    adjacency = {}
    for link in topology.links:
        adjacency.setdefault(link.a, set()).add(link.b)
        adjacency.setdefault(link.b, set()).add(link.a)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for peer in adjacency.get(node, ()):
            if peer not in dist:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


def link_ends(topology):
    """(node, port) -> (peer, peer port) over the raw link list."""
    ends = {}
    for link in topology.links:
        ends[(link.a, link.a_port)] = (link.b, link.b_port)
        ends[(link.b, link.b_port)] = (link.a, link.a_port)
    return ends


def is_connected(topology):
    some_node = next(iter(topology.nodes))
    return len(bfs_distances(topology, some_node)) == len(topology.nodes)


def destination_tree_ok(topology, rules, dst_ip):
    """Oracle: dst-only core rules for dst_ip are acyclic. The rule table
    holds one rule per match, so each core switch has at most one."""
    next_hop = {}
    for core in topology.by_kind(NodeKind.CORE):
        dst_rules = [
            e for e in rules.all_entries()
            if e.switch == core
            and e.match_src is None and e.match_dst == dst_ip
        ]
        if dst_rules:
            peer, _ = topology.peer(core, dst_rules[0].out_port)
            next_hop[core] = peer
    for start in next_hop:
        seen = {start}
        node = start
        while node in next_hop:
            node = next_hop[node]
            if node in seen:
                return False
            seen.add(node)
    return True


def assignment(clustering):
    """client -> index of its cluster, from ``clustering.members``."""
    return {client: i for i, members in enumerate(clustering.members) for client in members}


class SampleLog:
    """An ``on_poll`` that keeps every poll's samples, in poll order, both
    as one list and as ``(t, samples)`` per poll, then calls ``then`` if
    given: a run keeps no samples of its own."""

    def __init__(self, then=None):
        self.samples = []
        self.polls = []
        self.then = then

    def __call__(self, state, t, samples):
        self.samples.extend(samples)
        self.polls.append((t, samples))
        if self.then is not None:
            self.then(state, t, samples)


@pytest.fixture(scope="session")
def session_start():
    return SESSION_START


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "session_last: run after every other collected test"
    )


def pytest_collection_modifyitems(items):
    """Move ``session_last`` tests to the end of the run, so that a check on
    elapsed time since SESSION_START covers the whole session."""
    last = [item for item in items if item.get_closest_marker("session_last")]
    items[:] = [item for item in items if item not in last] + last
