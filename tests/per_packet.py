"""The per-packet engine, kept as the oracle for the batched one.

``sdnsim.simnet`` forwards each host's tick of packets as runs. This module
keeps the engine as it was before runs: every packet walks alone, hop by
hop, and a throttled link queues, passes or drops it on its own. It works on
the same ``SimState`` and ``LinkState``, using the queue only packet by
packet, so ``run`` here must end in the same ``SimState`` as ``simnet.run``.
It finds the throttled links on its own, from ``topology.links``, rather
than through the engine's index.
"""

import math
from unittest import mock

from sdnsim import simnet
from sdnsim.routing import FlowKey, handle_packet_in
from sdnsim.simnet import LinkState, QueuedRun, SimulationError
from sdnsim.topology import HOST_PORT


def _pass(ls, size):
    ls.budget -= size
    ls.passed_packets += 1
    ls.passed_bytes += size


def _throttled(state):
    """node -> {local port: LinkState} over the throttled links in
    ``topology.links``. ``state.link_states`` is rebuilt in the engine's
    link order, by first endpoint and port; a link seen for the first time
    gets a fresh ``LinkState``."""
    links = sorted((link for link in state.topology.links if link.constrained),
                   key=lambda link: (link.a, link.a_port))
    state.link_states = {link: state.link_states.get(link) or LinkState(link)
                         for link in links}
    index = {}
    for link, ls in state.link_states.items():
        index.setdefault(link.a, {})[link.a_port] = ls
        index.setdefault(link.b, {})[link.b_port] = ls
    return index


def _deliver(state, throttled, key, tally, size, host):
    if state.topology.ip_of.get(host) != key.dst:
        raise SimulationError(f"packet for {key.dst} delivered to {host}")
    tally.delivered_packets += 1
    tally.delivered_bytes += size
    if host == state.topology.server:
        _emit(state, throttled, host, key.src, state.cfg.response_bytes)


def _walk(state, throttled, key, tally, size, node, in_port):
    """Forward one packet hop by hop until a host, a queue, or a drop."""
    hops = 0
    while True:
        if not node.is_switch:
            _deliver(state, throttled, key, tally, size, node)
            return
        entry = state.rules.lookup(node, key.src, key.dst, in_port)
        if entry is None:
            tally.missed_packets += 1
            tally.missed_bytes += size
            return
        entry.packets += 1
        entry.bytes += size
        out_port = entry.out_port
        peer, peer_in = state.topology.peer(node, out_port)
        ls = throttled.get(node, {}).get(out_port)
        if ls is not None:
            ls.entered_packets += 1
            ls.entered_bytes += size
            if ls.queue or ls.budget < size:
                if len(ls.queue) < ls.link.queue_cap:
                    ls.queue.append(QueuedRun(key, tally, size, peer, peer_in, 1))
                else:
                    ls.dropped_packets += 1
                    ls.dropped_bytes += size
                    tally.dropped_packets += 1
                    tally.dropped_bytes += size
                return
            _pass(ls, size)
        node, in_port = peer, peer_in
        hops += 1
        if hops > state.topology.hop_limit:
            raise SimulationError(f"forwarding loop for {key.src}->{key.dst}")


def _emit(state, throttled, src_host, dst_ip, size):
    key = FlowKey(state.topology.ip_of[src_host], dst_ip)
    tally = state.tally(key)
    tally.emitted_packets += 1
    tally.emitted_bytes += size
    edge, edge_in = state.topology.peer(src_host, HOST_PORT)
    if state.rules.lookup(edge, key.src, key.dst, edge_in) is None:
        handle_packet_in(state.rules, state.topology, key)
        state.events.append(
            {"t": state.time, "event": "packet_in", "src": key.src, "dst": key.dst}
        )
    _walk(state, throttled, key, tally, size, edge, edge_in)


def step(state):
    """Advance the simulation by one tick, one packet at a time."""
    t = state.time
    cfg = state.cfg
    # Mitigation may add a throttled link between ticks.
    throttled = _throttled(state)

    for ls in state.link_states.values():
        ls.budget = ls.link.capacity * cfg.tick
    for ls in state.link_states.values():
        while ls.queue and ls.queue.head().size <= ls.budget:
            pkt = ls.queue.head()
            ls.queue.popleft()
            _pass(ls, pkt.size)
            _walk(state, throttled, pkt.key, pkt.tally, pkt.size, pkt.node, pkt.in_port)

    server = state.topology.server
    server_ip = state.topology.ip_of.get(server) if server else None
    for host in sorted(state.rates):
        if host in state.topology.attackers:
            if t < cfg.attack_start - 1e-9:
                continue
            if not state.attack_logged:
                state.events.append({"t": t, "event": "attack_active"})
                state.attack_logged = True
        acc = state.residues.get(host, 0.0) + state.rates[host] * cfg.tick
        count = math.floor(acc + 1e-9)
        state.residues[host] = acc - count
        for _ in range(count):
            _emit(state, throttled, host, server_ip, cfg.request_bytes)

    for ls in state.link_states.values():
        if ls.entered_packets != ls.passed_packets + ls.dropped_packets + len(ls.queue):
            raise SimulationError(
                f"link accounting leak on {ls.link.a.name}:{ls.link.a_port}"
            )

    state.step_index += 1


def run(*args, **kwargs):
    """``simnet.run`` with this module's per-packet ``step``."""
    with mock.patch.object(simnet, "step", step):
        return simnet.run(*args, **kwargs)
