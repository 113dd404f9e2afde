"""The per-packet engine, kept as the oracle for the batched one.

``sdnsim.simnet`` forwards each host's tick of packets as runs. This module
keeps the engine as it was before runs: every packet walks alone, hop by
hop, and a throttled link queues, passes or drops it on its own. It works on
the same ``SimState`` and ``LinkState``, using the queue only packet by
packet, so ``run`` here must give the same ``RunRecord`` as ``simnet.run``.
"""

import math
from unittest import mock

from sdnsim import simnet
from sdnsim.routing import FlowKey, handle_packet_in
from sdnsim.simnet import QueuedRun, SimulationError, TrafficKind
from sdnsim.topology import HOST_PORT


def _pass(ls, size):
    ls.budget -= size
    ls.passed_packets += 1
    ls.passed_bytes += size


def _deliver(state, key, tally, size, host):
    if state.topology.ip_of.get(host) != key.dst:
        raise SimulationError(f"packet for {key.dst} delivered to {host}")
    tally.delivered_packets += 1
    tally.delivered_bytes += size
    if host == state.topology.server:
        profile = state.profiles.get(host)
        if profile is not None:
            _emit(state, host, key.src, profile.response_size)


def _walk(state, key, tally, size, node, in_port):
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


def _emit(state, src_host, dst_ip, size):
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


def step(state):
    """Advance the simulation by one tick, one packet at a time."""
    t = state.time
    cfg = state.cfg
    state.refresh_links()

    ordered_links = sorted(state.link_states, key=lambda l: (l.a, l.a_port))
    for link in ordered_links:
        state.link_states[link].budget = link.capacity * cfg.tick
    for link in ordered_links:
        ls = state.link_states[link]
        while ls.queue and ls.queue.head().size <= ls.budget:
            pkt = ls.queue.popleft()
            _pass(ls, pkt.size)
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

    for ls in state.link_states.values():
        if ls.entered_packets != ls.passed_packets + ls.dropped_packets + len(ls.queue):
            raise SimulationError(
                f"link accounting leak on {ls.link.a.name}:{ls.link.a_port}"
            )

    state.step_index += 1
    return state


def run(*args, **kwargs):
    """``simnet.run`` with this module's per-packet ``step``."""
    with mock.patch.object(simnet, "step", step):
        return simnet.run(*args, **kwargs)
