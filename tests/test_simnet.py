import json

import pytest

from sdnsim.routing import BASE_PRIORITY, FlowKey, FlowRule, RuleTable, handle_packet_in
from sdnsim.mitigation import MitigationError, trace_path
from sdnsim.simnet import (
    SimConfig,
    SimState,
    SimulationError,
    TrafficKind,
    TrafficProfile,
    legit_rate,
    run,
    step,
)
from sdnsim.topology import Link, NodeId, attach_switch, build_grid


# -- legit_rate ------------------------------------------------------------

def test_legit_rate_smallest_indices():
    assert legit_rate(0, 0, 5, 2.0) == 2.0


def test_legit_rate_largest_indices():
    k, base = 4, 1.5
    assert legit_rate(k - 1, k - 1, k, base) == base * (2 * k - 1)


def test_legit_rate_triangular_multiset_for_k3():
    multipliers = sorted(
        legit_rate(i, j, 3, 1.0) for i in range(3) for j in range(3)
    )
    assert multipliers == [1, 2, 2, 3, 3, 3, 4, 4, 5]


def test_legit_rate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        legit_rate(3, 0, 3, 1.0)
    with pytest.raises(ValueError):
        legit_rate(0, 0, 3, 0.0)


# -- scenario helpers ------------------------------------------------------

def simple_scenario(rate=2.0, duration=10.0, request=200, response=1000):
    topo = build_grid(2, 2, 1)
    server = NodeId.host(0, 0)
    client = NodeId.host(2, 0)
    topo.server = server
    profiles = {
        server: TrafficProfile(TrafficKind.SERVER, request_size=request, response_size=response),
        client: TrafficProfile(TrafficKind.LEGIT, rate, request, response),
    }
    cfg = SimConfig(duration=duration, poll_interval=5.0, attack_start=0.0)
    return topo, RuleTable(), profiles, cfg, server, client


def test_lossless_counters_for_steady_client():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    record = run(topo, rules, profiles, cfg)
    c_ip, s_ip = topo.ip_of[client], topo.ip_of[server]
    source_edge = topo.edge_of_host(client).name
    server_edge = topo.edge_of_host(server).name
    # 2 req/s * 10 s = 20 requests of 200 B; 20 responses of 1000 B
    assert record.counters[(source_edge, c_ip, s_ip, BASE_PRIORITY)] == (20, 20 * 200)
    assert record.counters[(server_edge, s_ip, c_ip, BASE_PRIORITY)] == (20, 20 * 1000)
    assert record.flows[(c_ip, s_ip)].emitted_packets == 20
    assert record.flows[(c_ip, s_ip)].delivered_packets == 20
    assert record.flows[(s_ip, c_ip)].delivered_bytes == 20 * 1000


def test_fractional_rate_dithers_deterministically():
    topo, rules, profiles, cfg, server, client = simple_scenario(rate=0.6)
    record = run(topo, rules, profiles, cfg)
    key = (topo.ip_of[client], topo.ip_of[server])
    # floor of the running 0.6/s accumulation over 10 ticks
    assert record.flows[key].emitted_packets == 6


def test_zero_rate_client_creates_nothing():
    topo, rules, profiles, cfg, server, client = simple_scenario(rate=0.0)
    record = run(topo, rules, profiles, cfg)
    assert record.flows == {}
    assert rules.dump() == []
    assert not [e for e in record.events if e["event"] == "packet_in"]


def test_first_emission_raises_exactly_one_packet_in():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    record = run(topo, rules, profiles, cfg)
    packet_ins = [e for e in record.events if e["event"] == "packet_in"]
    assert len(packet_ins) == 1
    assert packet_ins[0]["t"] == 0.0


def test_run_polls_every_five_seconds():
    topo, rules, profiles, cfg, server, client = simple_scenario(duration=60.0)
    record = run(topo, rules, profiles, cfg)
    assert record.poll_times == [5.0 * i for i in range(1, 13)]


def test_zero_duration_produces_empty_record():
    topo, rules, profiles, cfg, server, client = simple_scenario(duration=0.0)
    record = run(topo, rules, profiles, cfg)
    assert record.poll_times == []
    assert record.samples == []
    assert record.events == []


def test_identical_runs_serialize_identically():
    records = []
    for _ in range(2):
        topo, rules, profiles, cfg, _, _ = simple_scenario(duration=20.0)
        records.append(json.dumps(run(topo, rules, profiles, cfg).to_dict()))
    assert records[0] == records[1]


def test_run_requires_a_server():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    topo.server = None
    with pytest.raises(SimulationError):
        run(topo, rules, profiles, cfg)


def test_run_rejects_attacking_server():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    profiles[server] = TrafficProfile(TrafficKind.ATTACKER, 1.0)
    with pytest.raises(SimulationError):
        run(topo, rules, profiles, cfg)


def test_attackers_idle_until_attack_start():
    topo, rules, profiles, cfg, server, client = simple_scenario(rate=0.0, duration=10.0)
    attacker = NodeId.host(1, 0)
    profiles[attacker] = TrafficProfile(TrafficKind.ATTACKER, 4.0, 200, 1000)
    cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=6.0)
    record = run(topo, rules, profiles, cfg)
    key = (topo.ip_of[attacker], topo.ip_of[server])
    # active for ticks starting at t=6,7,8,9
    assert record.flows[key].emitted_packets == 16
    assert [e for e in record.events if e["event"] == "attack_active"][0]["t"] == 6.0


# -- throttled link --------------------------------------------------------

def throttled_scenario(capacity=12_500.0, queue_cap=1000):
    """One attacker flow detoured through a throttled scrubber link by hand."""
    topo = build_grid(2, 2, 1)
    server, attacker = NodeId.host(0, 0), NodeId.host(1, 0)
    topo.server = server
    rules = RuleTable()
    s_ip, a_ip = topo.ip_of[server], topo.ip_of[attacker]
    handle_packet_in(rules, topo, FlowKey(a_ip, s_ip))

    scrub = NodeId.scrubber(0)
    edge = topo.edge_of_host(server)
    attach_switch(
        topo,
        scrub,
        [
            Link(edge, 200, scrub, 1),
            Link(scrub, 201, edge, 201, capacity=capacity, queue_cap=queue_cap),
        ],
    )
    rules.delete(edge, a_ip, s_ip, BASE_PRIORITY)
    rules.install(FlowRule(edge, a_ip, s_ip, 200, 30001))
    rules.install(
        FlowRule(edge, None, s_ip, topo.port_toward(edge, server), 40003, in_port=201)
    )
    rules.install(FlowRule(scrub, a_ip, s_ip, 201, 30002))

    profiles = {
        server: TrafficProfile(TrafficKind.SERVER, request_size=1000, response_size=1000),
        attacker: TrafficProfile(TrafficKind.ATTACKER, 1000.0, 1000, 1000),
    }
    cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0)
    return topo, rules, profiles, cfg, (a_ip, s_ip)


def test_throttled_link_caps_delivery_and_conserves_packets():
    topo, rules, profiles, cfg, key = throttled_scenario()
    record = run(topo, rules, profiles, cfg)
    tally = record.flows[key]
    assert tally.emitted_packets == 10_000
    # never faster than the link: 12.5 kB/s over 10 s
    assert tally.delivered_bytes <= 12_500 * 10
    assert tally.delivered_packets == 120  # 12 x 1000 B per tick fit the budget
    (link_stats,) = record.link_stats
    assert link_stats["queued_packets"] <= 1000
    # emitted = delivered + dropped + still queued, exactly
    assert tally.emitted_packets == (
        tally.delivered_packets + tally.dropped_packets + link_stats["queued_packets"]
    )
    assert link_stats["entered_packets"] == (
        link_stats["passed_packets"]
        + link_stats["dropped_packets"]
        + link_stats["queued_packets"]
    )


def test_throttled_run_is_deterministic():
    outputs = []
    for _ in range(2):
        topo, rules, profiles, cfg, _ = throttled_scenario()
        outputs.append(json.dumps(run(topo, rules, profiles, cfg).to_dict()))
    assert outputs[0] == outputs[1]


def test_run_rejects_profiles_for_unknown_hosts():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    profiles[NodeId.host(9, 9)] = TrafficProfile(TrafficKind.LEGIT, 1.0)
    with pytest.raises(SimulationError):
        run(topo, rules, profiles, cfg)


def test_packets_without_a_scrubber_rule_drop_as_misses():
    # redirect to the scrubber but leave its table empty: MISS accounting
    topo, rules, profiles, cfg, key = throttled_scenario()
    rules.delete(NodeId.scrubber(0), key[0], key[1], 30002)
    record = run(topo, rules, profiles, cfg)
    tally = record.flows[key]
    assert tally.delivered_packets == 0
    assert tally.missed_packets == tally.emitted_packets


def test_fractional_tick_keeps_poll_boundaries_and_totals():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    cfg = SimConfig(duration=10.0, tick=0.5, poll_interval=5.0, attack_start=0.0)
    record = run(topo, rules, profiles, cfg)
    assert record.poll_times == [5.0, 10.0]
    key = (topo.ip_of[client], topo.ip_of[server])
    # 2 req/s over 10 s regardless of tick granularity
    assert record.flows[key].emitted_packets == 20
    assert record.flows[key].delivered_packets == 20


def test_queued_packets_deliver_on_later_ticks():
    # capacity passes exactly one packet per tick; the queue carries the rest
    topo, rules, profiles, cfg, key = throttled_scenario(capacity=1000.0)
    profiles[topo.host_of_ip[key[0]]] = TrafficProfile(
        TrafficKind.ATTACKER, 3.0, 1000, 1000
    )
    cfg = SimConfig(duration=4.0, poll_interval=2.0, attack_start=0.0)
    record = run(topo, rules, profiles, cfg)
    tally = record.flows[key]
    assert tally.emitted_packets == 12
    # tick 0 passes 1 fresh packet, each later tick drains 1 from the queue
    assert tally.delivered_packets == 4
    (link_stats,) = record.link_stats
    assert link_stats["queued_packets"] == 8


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(TrafficKind.LEGIT, -1.0)
    with pytest.raises(ValueError):
        TrafficProfile(TrafficKind.LEGIT, 1.0, request_size=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(tick=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration=7.0, poll_interval=5.0, tick=2.0)
    with pytest.raises(ValueError):
        SimConfig(poll_interval=3.0, tick=2.0)


# -- forwarding-loop check -------------------------------------------------

def test_two_switch_rule_cycle_is_a_forwarding_loop():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    c_ip, s_ip = topo.ip_of[client], topo.ip_of[server]
    edge = topo.edge_of_host(client)
    core, _ = topo.peer(edge, 1)
    # edge -> core -> edge -> ... : the request never reaches the server.
    rules.install(FlowRule(edge, c_ip, s_ip, topo.port_toward(edge, core), BASE_PRIORITY))
    rules.install(FlowRule(core, None, s_ip, topo.port_toward(core, edge), BASE_PRIORITY))
    state = SimState(topo, rules, profiles, cfg)
    with pytest.raises(SimulationError, match="forwarding loop"):
        step(state)
    # The rule-table walker applies the same bound.
    with pytest.raises(MitigationError, match="forwarding loop"):
        trace_path(topo, rules, FlowKey(c_ip, s_ip))


def test_hop_limit_follows_an_attached_scrubber():
    topo, rules, profiles, cfg, server, client = simple_scenario()
    state = step(SimState(topo, rules, profiles, cfg))
    before = state.hop_limit
    assert before == topo.switch_count + 2
    scrub, edge = NodeId.scrubber(0), topo.edge_of_host(server)
    attach_switch(topo, scrub, [Link(edge, 200, scrub, 1)])
    step(state)
    assert state.hop_limit == before + 1
