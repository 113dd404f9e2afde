import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnsim import mitigation, simnet
from sdnsim.cli import rule_order, run_section, write_json
from sdnsim.routing import BASE_PRIORITY, FlowKey, FlowRule, RuleTable, handle_packet_in
from sdnsim.mitigation import MitigationError
from sdnsim.simnet import (
    FlowTally,
    QueuedRun,
    RunQueue,
    SimConfig,
    SimState,
    SimulationError,
    legit_rate,
    run,
    step,
)
from sdnsim.topology import Link, NodeId, TopologyError, attach_switch, build_grid

from conftest import SampleLog
from rule_paths import trace_path


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
    rates = {client: rate}
    cfg = SimConfig(duration=duration, poll_interval=5.0, attack_start=0.0,
                    request_bytes=request, response_bytes=response)
    return topo, RuleTable(), rates, cfg, server, client


def test_lossless_counters_for_steady_client():
    topo, rules, rates, cfg, server, client = simple_scenario()
    record = run(topo, rules, rates, cfg)
    c_ip, s_ip = topo.ip_of[client], topo.ip_of[server]
    source_rule = rules.find(topo.edge_of_host(client), c_ip, s_ip)
    server_rule = rules.find(topo.edge_of_host(server), s_ip, c_ip)
    # 2 req/s * 10 s = 20 requests of 200 B; 20 responses of 1000 B
    assert (source_rule.packets, source_rule.bytes) == (20, 20 * 200)
    assert (server_rule.packets, server_rule.bytes) == (20, 20 * 1000)
    assert record.flows[(c_ip, s_ip)].emitted_packets == 20
    assert record.flows[(c_ip, s_ip)].delivered_packets == 20
    assert record.flows[(s_ip, c_ip)].delivered_bytes == 20 * 1000


def test_fractional_rate_dithers_deterministically():
    topo, rules, rates, cfg, server, client = simple_scenario(rate=0.6)
    record = run(topo, rules, rates, cfg)
    key = (topo.ip_of[client], topo.ip_of[server])
    # floor of the running 0.6/s accumulation over 10 ticks
    assert record.flows[key].emitted_packets == 6


def test_zero_rate_client_creates_nothing():
    topo, rules, rates, cfg, server, client = simple_scenario(rate=0.0)
    log = SampleLog()
    record = run(topo, rules, rates, cfg, on_poll=log)
    assert record.flows == {}
    assert log.samples == []
    # Every poll still records a snapshot, of no flow.
    assert len(record.poll_times) == 2
    assert [list(snapshot) for snapshot in record.flow_snapshots] == [[], []]
    assert run_json(record, log.samples).startswith(
        '{"poll_times": [5.0, 10.0], "samples": [], "flow_snapshots": [{}, {}], ')
    assert rules.all_entries() == []
    assert not [e for e in record.events if e["event"] == "packet_in"]


def test_first_emission_raises_exactly_one_packet_in():
    topo, rules, rates, cfg, server, client = simple_scenario()
    record = run(topo, rules, rates, cfg)
    packet_ins = [e for e in record.events if e["event"] == "packet_in"]
    assert len(packet_ins) == 1
    assert packet_ins[0]["t"] == 0.0


def test_packet_ins_return_exactly_the_installed_rules(monkeypatch):
    # A fabric-shaped run with no mitigation: every other host of the grid
    # sends to one server. The rules each packet-in returns (what a traced
    # run counts as routing.rules_installed) are the table's rules, field
    # for field.
    topo = build_grid(4, 4, 3)
    topo.server = NodeId.host(0, 0)
    rates = {h: 0.5 for h in topo.hosts() if h != topo.server}
    returned = []

    def counting(rules, topology, key):
        written = handle_packet_in(rules, topology, key)
        returned.extend(written)
        return written

    monkeypatch.setattr(simnet, "handle_packet_in", counting)
    rules = RuleTable()
    record = run(topo, rules, rates, SimConfig(duration=4.0, poll_interval=1.0))
    assert len([e for e in record.events if e["event"] == "packet_in"]) == len(rates)
    assert len(returned) == len(rules.all_entries()) > 2 * len(rates)
    for rule in returned:
        entry = rules.find(rule.switch, rule.match_src, rule.match_dst)
        assert (entry.switch, entry.match_src, entry.match_dst, entry.out_port,
                entry.priority, entry.in_port) == (rule.switch, rule.match_src, rule.match_dst,
                                                   rule.out_port, rule.priority, rule.in_port)


def test_run_polls_every_five_seconds():
    topo, rules, rates, cfg, server, client = simple_scenario(duration=60.0)
    record = run(topo, rules, rates, cfg)
    assert record.poll_times == [5.0 * i for i in range(1, 13)]


def test_zero_duration_produces_empty_record():
    topo, rules, rates, cfg, server, client = simple_scenario(duration=0.0)
    log = SampleLog()
    record = run(topo, rules, rates, cfg, on_poll=log)
    assert record.poll_times == []
    assert log.samples == []
    assert record.flow_snapshots == []
    assert record.events == []


def run_json(state, samples) -> str:
    """The report's ``run`` section for a run and the samples its polls
    took, as report.json holds it."""
    fh = io.StringIO()
    write_json(fh, run_section(state, samples, rule_order(state.rules)))
    return fh.getvalue()


def test_identical_runs_serialize_identically():
    records = []
    for _ in range(2):
        topo, rules, rates, cfg, _, _ = simple_scenario(duration=20.0)
        log = SampleLog()
        records.append(run_json(run(topo, rules, rates, cfg, on_poll=log), log.samples))
    assert records[0] == records[1]


def test_run_requires_a_server():
    topo, rules, rates, cfg, server, client = simple_scenario()
    topo.server = None
    with pytest.raises(SimulationError):
        run(topo, rules, rates, cfg)


def test_run_rejects_attacking_server():
    # The server sends only responses: it has no request rate...
    topo, rules, rates, cfg, server, client = simple_scenario()
    rates[server] = 1.0
    with pytest.raises(SimulationError, match="the server sends no requests"):
        run(topo, rules, rates, cfg)
    # ...and is no attacker, even without one.
    topo, rules, rates, cfg, server, client = simple_scenario()
    topo.attackers = {server}
    with pytest.raises(SimulationError, match="cannot be an attacker"):
        run(topo, rules, rates, cfg)


def test_attackers_idle_until_attack_start():
    topo, rules, rates, cfg, server, client = simple_scenario(rate=0.0, duration=10.0)
    attacker = NodeId.host(1, 0)
    topo.attackers = {attacker}
    rates[attacker] = 4.0
    cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=6.0)
    record = run(topo, rules, rates, cfg)
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
    topo.attackers = {attacker}
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

    rates = {attacker: 1000.0}
    cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0,
                    request_bytes=1000, response_bytes=1000)
    return topo, rules, rates, cfg, (a_ip, s_ip)


def test_throttled_link_caps_delivery_and_conserves_packets():
    topo, rules, rates, cfg, key = throttled_scenario()
    record = run(topo, rules, rates, cfg)
    tally = record.flows[key]
    assert tally.emitted_packets == 10_000
    # never faster than the link: 12.5 kB/s over 10 s
    assert tally.delivered_bytes <= 12_500 * 10
    assert tally.delivered_packets == 120  # 12 x 1000 B per tick fit the budget
    (ls,) = record.link_states.values()
    assert len(ls.queue) <= 1000
    # emitted = delivered + dropped + still queued, exactly
    assert tally.emitted_packets == (
        tally.delivered_packets + tally.dropped_packets + len(ls.queue)
    )
    assert ls.entered_packets == ls.passed_packets + ls.dropped_packets + len(ls.queue)


def test_throttled_run_is_deterministic():
    outputs = []
    for _ in range(2):
        topo, rules, rates, cfg, _ = throttled_scenario()
        log = SampleLog()
        outputs.append(run_json(run(topo, rules, rates, cfg, on_poll=log), log.samples))
    assert outputs[0] == outputs[1]


def test_run_rejects_rates_for_unknown_hosts():
    topo, rules, rates, cfg, server, client = simple_scenario()
    rates[NodeId.host(9, 9)] = 1.0
    with pytest.raises(SimulationError, match="unknown host"):
        run(topo, rules, rates, cfg)


def test_packets_without_a_scrubber_rule_drop_as_misses():
    # redirect to the scrubber but leave its table empty: MISS accounting
    topo, rules, rates, cfg, key = throttled_scenario()
    rules.delete(NodeId.scrubber(0), key[0], key[1], 30002)
    record = run(topo, rules, rates, cfg)
    tally = record.flows[key]
    assert tally.delivered_packets == 0
    assert tally.missed_packets == tally.emitted_packets


def test_fractional_tick_keeps_poll_boundaries_and_totals():
    topo, rules, rates, cfg, server, client = simple_scenario()
    cfg = SimConfig(duration=10.0, tick=0.5, poll_interval=5.0, attack_start=0.0)
    record = run(topo, rules, rates, cfg)
    assert record.poll_times == [5.0, 10.0]
    key = (topo.ip_of[client], topo.ip_of[server])
    # 2 req/s over 10 s regardless of tick granularity
    assert record.flows[key].emitted_packets == 20
    assert record.flows[key].delivered_packets == 20


def test_queued_packets_deliver_on_later_ticks():
    # capacity passes exactly one packet per tick; the queue carries the rest
    topo, rules, rates, cfg, key = throttled_scenario(capacity=1000.0)
    rates[topo.host_of_ip[key[0]]] = 3.0
    cfg = cfg._replace(duration=4.0, poll_interval=2.0)
    record = run(topo, rules, rates, cfg)
    tally = record.flows[key]
    assert tally.emitted_packets == 12
    # tick 0 passes 1 fresh packet, each later tick drains 1 from the queue
    assert tally.delivered_packets == 4
    (ls,) = record.link_states.values()
    assert len(ls.queue) == 8


def test_link_gate_catches_a_packet_lost_from_the_queue():
    topo, rules, rates, cfg, key = throttled_scenario(capacity=1000.0)
    state = SimState(topo, rules, rates, cfg)
    step(state)
    step(state)
    (ls,) = state.link_states.values()
    assert ls.queue
    ls.queue.popleft()  # lost between ticks, never counted as passed or dropped
    with pytest.raises(SimulationError, match="link accounting leak"):
        step(state)


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.floats(100.0, 20_000.0),
    queue_cap=st.integers(1, 40),
    rate=st.floats(0.5, 40.0),
    size=st.integers(1, 3000),
)
def test_throttled_link_conserves_every_tick(capacity, queue_cap, rate, size):
    topo, rules, rates, cfg, key = throttled_scenario(capacity, queue_cap)
    rates[topo.host_of_ip[key[0]]] = rate
    state = SimState(topo, rules, rates, cfg._replace(request_bytes=size))
    before = (0, 0, 0, 0)
    for ticks in range(1, cfg.steps + 1):
        step(state)
        (ls,) = state.link_states.values()
        now = (ls.entered_packets, ls.passed_packets, ls.dropped_packets, len(ls.queue))
        entered, passed, dropped, queued = (b - a for a, b in zip(before, now))
        assert entered == passed + dropped + queued  # this tick's balance
        before = now

        queued_by_flow = Counter()
        for run in ls.queue._runs:
            queued_by_flow[run.key.src, run.key.dst] += run.count
        for pair, tally in state.flows.items():
            assert tally.emitted_packets == (
                tally.delivered_packets + tally.dropped_packets
                + tally.missed_packets + queued_by_flow[pair]
            )
        scrubbed = state.flows.get(key)
        if scrubbed is not None:
            assert scrubbed.delivered_bytes <= capacity * cfg.tick * ticks


def test_rate_and_size_validation():
    topo, rules, rates, cfg, server, client = simple_scenario(rate=-1.0)
    with pytest.raises(ValueError, match="request rate"):
        run(topo, rules, rates, cfg)
    with pytest.raises(ValueError, match="packet sizes"):
        SimConfig(request_bytes=0)
    with pytest.raises(ValueError, match="packet sizes"):
        SimConfig(response_bytes=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(tick=0.0)
    with pytest.raises(ValueError):
        SimConfig(duration=7.0, poll_interval=5.0, tick=2.0)
    with pytest.raises(ValueError):
        SimConfig(poll_interval=3.0, tick=2.0)
    # 1e-9 ticks is a whole multiple within the tolerance, but zero ticks
    with pytest.raises(ValueError, match="at least one tick"):
        SimConfig(tick=1.0, poll_interval=1e-9)


# A valid record, the change that breaks it, and the error its guard raises.
LINK = Link(NodeId.edge(0), 200, NodeId.scrubber(0), 1)
BROKEN_RECORDS = {
    "link-port": (LINK, {"b_port": 0}, TopologyError, "port numbers must be positive"),
    "link-capacity-alone": (LINK, {"capacity": 5.0}, TopologyError,
                            "capacity and queue_cap must be set together"),
    "link-queue": (LINK._replace(capacity=5.0, queue_cap=5), {"queue_cap": 0}, TopologyError,
                   "capacity and queue_cap must be positive"),
    "sim-packet-size": (SimConfig(), {"response_bytes": 0}, ValueError,
                        "packet sizes must be positive"),
    "sim-tick": (SimConfig(), {"tick": 0.0}, ValueError, "tick must be positive"),
    "sim-duration": (SimConfig(), {"duration": -1.0}, ValueError, "duration must be >= 0"),
    "sim-poll-interval": (SimConfig(), {"poll_interval": 0.0}, ValueError,
                          "poll_interval must be positive"),
    "sim-off-the-tick": (SimConfig(), {"duration": 1.5}, ValueError,
                         "duration must be a multiple of tick"),
    "sim-poll-below-a-tick": (SimConfig(), {"poll_interval": 1e-9}, ValueError,
                              "poll_interval must be at least one tick"),
}


@pytest.mark.parametrize("case", list(BROKEN_RECORDS))
def test_record_guards_raise_on_every_construction_path(case):
    # Positional and keyword construction, _make and _replace all check.
    valid, change, error, message = BROKEN_RECORDS[case]
    fields = {**valid._asdict(), **change}
    cls = type(valid)
    for build in (lambda: cls(*fields.values()), lambda: cls(**fields),
                  lambda: cls._make(fields.values()), lambda: valid._replace(**change)):
        with pytest.raises(error, match=f"^{message}$"):
            build()


# -- forwarding-loop check -------------------------------------------------

def test_two_switch_rule_cycle_is_a_forwarding_loop():
    topo, rules, rates, cfg, server, client = simple_scenario()
    c_ip, s_ip = topo.ip_of[client], topo.ip_of[server]
    edge = topo.edge_of_host(client)
    core, _ = topo.peer(edge, 1)
    # edge -> core -> edge -> ... : the request never reaches the server.
    rules.install(FlowRule(edge, c_ip, s_ip, topo.port_toward(edge, core), BASE_PRIORITY))
    rules.install(FlowRule(core, None, s_ip, topo.port_toward(core, edge), BASE_PRIORITY))
    state = SimState(topo, rules, rates, cfg)
    with pytest.raises(SimulationError, match="forwarding loop"):
        step(state)
    # The rule-table walker applies the same bound.
    with pytest.raises(MitigationError, match="forwarding loop"):
        trace_path(topo, rules, FlowKey(c_ip, s_ip))


# The requests of simple_scenario's client through the 2x2 core on a walk
# of 11 switch visits, one more than the grid's hop limit, ending at the
# server.
LOOP = "e2 c1_1 c1_0 e3 c1_0 c0_0 c0_1 c1_1 c0_1 c0_0 e0".split()


def install_walk(topo, rules, key, names):
    """One rule for ``key`` per switch visit of ``names``, each at a higher
    priority than the last, and in_port-qualified on a switch the walk
    visits twice. A match holds one rule, so a switch's first visit takes
    the src-qualified match and its second the dst-only one."""
    by_name = {node.name: node for node in topo.nodes}
    walk = [topo.host_of_ip[key.src], *(by_name[n] for n in names), topo.host_of_ip[key.dst]]
    for i in range(1, len(walk) - 1):
        switch = walk[i]
        in_port = topo.port_toward(switch, walk[i - 1]) if names.count(switch.name) > 1 else None
        out_port = topo.port_toward(switch, walk[i + 1])
        match_src = None if switch in walk[1:i] else key.src
        rules.install(FlowRule(switch, match_src, key.dst, out_port, BASE_PRIORITY + i, in_port))


def test_engine_and_trace_path_share_the_loop_bound():
    # Requests loop through the 2x2 core on LOOP; responses take the
    # shortest way back.
    topo, rules, rates, cfg, server, client = simple_scenario()
    key = FlowKey(topo.ip_of[client], topo.ip_of[server])
    by_name = {node.name: node for node in topo.nodes}
    install_walk(topo, rules, key, LOOP)
    install_walk(topo, rules, key.reversed(), ["e0", "c0_0", "c0_1", "c1_1", "e2"])

    # 8 switches: a walk of more than 10 switch visits is a loop.
    assert topo.hop_limit == 10
    with pytest.raises(SimulationError, match="forwarding loop"):
        run(topo, rules, rates, cfg)
    with pytest.raises(MitigationError) as caught:
        trace_path(topo, rules, key)
    walk = " -> ".join(["h0s2", *LOOP])
    assert str(caught.value) == f"forwarding loop for {key.src}->{key.dst}: {walk}"

    scrub = NodeId.scrubber(0)
    attach_switch(topo, scrub, [Link(by_name["e0"], 200, scrub, 1)])
    assert topo.hop_limit == 11
    record = run(topo, rules, rates, cfg)
    requests = record.flows[(key.src, key.dst)]
    assert requests.delivered_packets == requests.emitted_packets == 20
    assert record.flows[(key.dst, key.src)].delivered_packets == 20
    path = trace_path(topo, rules, key)
    assert [node.name for node in path] == ["h0s2", *LOOP, "h0s0"]


def test_a_loop_through_a_throttled_link_ends_once_the_link_passed_it():
    # The scrubber detour of a flow on the server's own edge, less its
    # return rule: e0 sends what comes back over the throttled link to the
    # scrubber again, two switch hops a lap.
    topo = build_grid(2, 2, 2)
    server, client = NodeId.host(0, 0), NodeId.host(0, 1)
    topo.server = server
    rules = RuleTable()
    key = FlowKey(topo.ip_of[client], topo.ip_of[server])
    handle_packet_in(rules, topo, key)
    plan = mitigation.plan_scrubber(key.dst, [key.src], topo, rules)
    mitigation.apply(plan, topo, rules)
    (back,) = [edit.rule for edit in plan.rule_edits if edit.rule.in_port is not None]
    assert back.in_port == 201
    rules.delete(back.switch, back.match_src, back.match_dst, back.priority)
    assert topo.hop_limit == 11

    state = SimState(topo, rules, {client: 1.0}, SimConfig(attack_start=0.0))
    with pytest.raises(SimulationError, match="forwarding loop"):
        step(state)
    # The 12th hop is the one onto the throttled link: the walk stops once
    # the link has passed the packet, not a lap later. Rule counters are
    # settled at polls, which a raising tick never reaches.
    simnet._settle(state)
    (ls,) = state.link_states.values()
    assert (ls.entered_packets, ls.passed_packets) == (6, 6)
    redirect = rules.find(plan.attach_to, key.src, key.dst)
    loop = rules.find(plan.scrubber, key.src, key.dst)
    assert redirect.packets == loop.packets == 6


def test_a_run_queue_pops_only_from_its_head_run():
    queue = RunQueue()
    head = QueuedRun(FlowKey("10.0.1.0", "10.0.0.0"), FlowTally(), 200, NodeId.edge(0), 201, 2)
    queue.append(head)
    for count in (0, 3):
        with pytest.raises(ValueError, match=f"cannot pop {count} of a run of 2"):
            queue.popleft(count)
    assert len(queue) == 2 and queue.head() is head and head.count == 2
    queue.popleft(2)
    assert not queue and head.count == 0
