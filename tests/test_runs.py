"""The batched engine against the per-packet oracle (``per_packet.py``), and
north-star invariants on the same random scenarios."""

import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from sdnsim import routing, simnet
from sdnsim.cli import EXIT_OK, ScenarioPipeline, build_scenario, run_scenario, validate_config
from sdnsim.mitigation import SCRUBBER_CAPACITY_BPS, MitigationError
from sdnsim.routing import (
    BASE_PRIORITY, FlowKey, FlowRule, RoutingError, RuleTable, handle_packet_in,
)
from sdnsim.simnet import SimConfig, SimulationError
from sdnsim.telemetry import CounterRegressionError, delta
from sdnsim.topology import (
    HOST_FACING_BASE, HOST_PORT, Link, NodeId, NodeKind, attach_switch, build_grid,
)

import heap_paths
import per_packet
from rule_paths import trace_path
from conftest import SampleLog, destination_tree_ok
from test_cli import POLL_KEYS, replayed_polls, small_raw
from test_simnet import LOOP, install_walk, run_json, simple_scenario

# The per-packet differential tests report a failing example without
# shrinking it: a broken engine or writer fails every example, and
# shrinking those took over a minute.
FAIL_FAST = [Phase.explicit, Phase.reuse, Phase.generate]


@st.composite
def cli_scenarios(draw):
    """Valid config documents on small grids, short enough for the
    per-packet oracle. Low thresholds make some of them detect and mitigate;
    request sizes above a tick's scrubber budget never pass it."""
    n, m, k = draw(st.integers(2, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    edges = 2 * n + 2 * m - 4
    server = (draw(st.integers(0, edges - 1)), draw(st.integers(0, k - 1)))
    hosts = [(u, s) for u in range(edges) for s in range(k) if (u, s) != server]
    attackers = draw(st.lists(st.sampled_from(hosts), unique=True, max_size=4))
    tick = draw(st.sampled_from([0.5, 1.0, 2.0]))
    ticks = draw(st.integers(1, 12))
    return {
        "grid_n": n,
        "grid_m": m,
        "hosts_per_edge": k,
        "server_edge": server[0],
        "server_slot": server[1],
        "client_matrix": draw(st.integers(1, 4)),
        "base_rate": draw(st.floats(0.1, 4.0)),
        "request_bytes": draw(st.integers(1, 20_000)),
        "response_bytes": draw(st.integers(1, 20_000)),
        "attackers": [f"h{s}s{u}" for u, s in attackers],
        "attacker_rate": draw(st.none() | st.floats(1.0, 150.0)),
        "attack_start": draw(st.integers(0, ticks)) * tick,
        "tick": tick,
        "duration": ticks * tick,
        "poll_interval": draw(st.integers(1, 3)) * tick,
        "threshold": draw(st.none() | st.floats(1.0, 50_000.0)),
        "k_clusters": draw(st.integers(1, 5)),
    }


def build(doc):
    cfg, errors = validate_config(doc)
    assert errors == []
    topo, rules, rates, sim_cfg = build_scenario(cfg)
    return topo, rules, rates, sim_cfg, ScenarioPipeline(cfg, topo)


# The errors a run may end with; both engines must end alike. Anything
# else, and any error in writing the report section, fails the test.
ENGINE_ERRORS = (SimulationError, RoutingError, MitigationError, CounterRegressionError,
                 ValueError)


def outcome(engine_run, topo, rules, *args, on_poll=None, **kwargs):
    """The run's report section, or the engine error it ended with."""
    log = SampleLog(on_poll)
    try:
        record = engine_run(topo, rules, *args, on_poll=log, **kwargs)
    except ENGINE_ERRORS as exc:
        return type(exc).__name__, str(exc)
    return run_json(record, log.samples)


@settings(max_examples=40, deadline=None, phases=FAIL_FAST)
@given(doc=cli_scenarios())
def test_runs_match_the_per_packet_engine_on_cli_scenarios(doc):
    records = []
    for engine_run in (simnet.run, per_packet.run):
        topo, rules, rates, sim_cfg, pipeline = build(doc)
        records.append(outcome(engine_run, topo, rules, rates, sim_cfg,
                               on_poll=pipeline.on_poll))
    assert records[0] == records[1]


def throttle(rng):
    """Link keywords: unconstrained, or a random capacity and queue."""
    if rng.random() < 0.5:
        return {}
    return {"capacity": rng.uniform(100.0, 20_000.0), "queue_cap": rng.randint(1, 40)}


def edit_rules(rng, topo, rules):
    """One to three random edits, as a controller might make between ticks:

    - install a rule that is src-qualified or dst-only, maybe
      in_port-qualified, at a priority that may tie with installed rules,
      mostly on a switch and destination that already carry a rule, if its
      match holds no rule yet;
    - delete an installed rule (an edge switch's per-flow rule raises a new
      packet-in);
    - ``add_link`` a shortcut from the server's core switch to a core
      switch that is not its neighbour, and delete one client's per-flow
      rule toward the server at the client's edge switch, so that its next
      packet-in may route over the shortcut;
    - ``attach_switch`` a new switch to any switch, and loop one of that
      switch's per-flow rules through it and back: the rule is replaced by
      a redirect on its match, as ``mitigation.apply`` does, and the loop's
      other rules go where their match is free.

    New links are throttled at random. Every edit is valid, so any error
    comes from the run itself."""
    ips = sorted(topo.host_of_ip)
    for _ in range(rng.randint(1, 3)):
        entries = sorted(rules.all_entries(), key=lambda e: (e.switch, -e.priority, e.seq))
        op = rng.choice(["install", "install", "delete", "delete", "shortcut", "attach"])
        if op in ("install", "delete", "attach") and not entries:
            continue
        near = rng.choice(entries) if entries else None
        if op == "install":
            switch = near.switch if rng.random() < 0.7 else rng.choice(
                sorted(n for n in topo.nodes if n.is_switch))
            ports = sorted(topo.used_ports(switch))
            dst = near.match_dst if rng.random() < 0.7 else rng.choice(ips)
            src = rng.choice([None, near.match_src, rng.choice(ips)])
            in_port = rng.choice([None, None, rng.choice(ports)])
            priority = rng.choice([BASE_PRIORITY, BASE_PRIORITY + 1, near.priority])
            if rules.find(switch, src, dst) is None:
                rules.install(FlowRule(switch, src, dst, rng.choice(ports), priority, in_port))
        elif op == "delete":
            rules.delete(near.switch, near.match_src, near.match_dst, near.priority)
        elif op == "shortcut":
            a = topo.peer(topo.edge_of_host(topo.server), 1)[0]
            b = rng.choice(topo.by_kind(NodeKind.CORE))
            if b != a and b not in {peer for peer, _ in topo.neighbors(a)}:
                topo.add_link(Link(a, max(topo.used_ports(a)) + 1,
                                   b, max(topo.used_ports(b)) + 1, **throttle(rng)))
            server_ip = topo.ip_of[topo.server]
            firsts = [e for e in entries
                      if e.match_dst == server_ip and e.match_src is not None
                      and e.switch == topo.edge_of_host(topo.host_of_ip[e.match_src])]
            if firsts:
                r = rng.choice(firsts)
                rules.delete(r.switch, r.match_src, r.match_dst, r.priority)
        else:
            # A dst-only rule's match is the return rule's.
            per_flow = [e for e in entries if e.match_src is not None]
            if not per_flow:
                continue
            near = rng.choice(per_flow)
            switch, new = near.switch, NodeId.scrubber(len(topo.by_kind(NodeKind.SCRUBBER)))
            out = max(topo.used_ports(switch)) + 1
            attach_switch(topo, new, [Link(switch, out, new, 1),
                                      Link(new, 2, switch, out + 1, **throttle(rng))])
            loop = [FlowRule(switch, near.match_src, near.match_dst, out, near.priority + 1),
                    FlowRule(new, near.match_src, near.match_dst, 2, near.priority),
                    FlowRule(switch, None, near.match_dst, near.out_port, 40003, in_port=out + 1)]
            rules.delete(near.switch, near.match_src, near.match_dst, near.priority)
            for rule in loop:
                if rules.find(rule.switch, rule.match_src, rule.match_dst) is None:
                    rules.install(rule)


@settings(max_examples=60, deadline=None, phases=FAIL_FAST)
@given(doc=cli_scenarios(), seed=st.integers(0, 2**32 - 1))
# a shortcut, then packet-ins whose shortest paths take it
@example(doc={"grid_n": 2, "grid_m": 2, "hosts_per_edge": 3, "server_edge": 0,
              "server_slot": 0, "client_matrix": 2, "base_rate": 0.125,
              "request_bytes": 1, "response_bytes": 1, "attackers": [],
              "attacker_rate": None, "attack_start": 0.0, "tick": 0.5, "duration": 4.0,
              "poll_interval": 0.5, "threshold": None, "k_clusters": 1},
         seed=1)
def test_runs_match_the_per_packet_engine_under_rule_edits(doc, seed):
    # The oracle side also finds packet-in paths by the heap search, so a
    # memo kept past a topology change shows as well as a stale walk.
    records = []
    for engine_run, search in ((simnet.run, routing.shortest_path),
                               (per_packet.run, heap_paths.shortest_path)):
        topo, rules, rates, sim_cfg, _ = build(doc)
        rng = random.Random(seed)

        def on_poll(state, t, samples):
            edit_rules(rng, state.topology, state.rules)

        with mock.patch.object(routing, "shortest_path", search):
            records.append(outcome(engine_run, topo, rules, rates, sim_cfg, on_poll=on_poll))
    assert records[0] == records[1]


def after_each_step(module, edit):
    """Patch ``module.step`` to call ``edit(state)`` after every tick.
    ``per_packet.run`` installs ``per_packet.step`` as ``simnet.step`` when
    it starts, so patching either module's ``step`` reaches its run."""
    inner = module.step

    def step(state):
        inner(state)
        edit(state)

    return mock.patch.object(module, "step", step)


@settings(max_examples=60, deadline=None, phases=FAIL_FAST)
@given(doc=cli_scenarios(), seed=st.integers(0, 2**32 - 1),
       poll_ticks=st.integers(3, 6), ticks=st.integers(6, 14))
# two clients' first-switch rules are deleted mid-epoch and reinstalled by
# their next packet-ins: their next ticks go over the new rules
@example(doc={"grid_n": 2, "grid_m": 2, "hosts_per_edge": 2, "server_edge": 0,
              "server_slot": 0, "client_matrix": 1, "base_rate": 2.0,
              "request_bytes": 100, "response_bytes": 300, "attackers": [],
              "attacker_rate": None, "attack_start": 0.0, "tick": 1.0, "duration": 1.0,
              "poll_interval": 1.0, "threshold": None, "k_clusters": 1},
         seed=4, poll_ticks=6, ticks=12)
def test_runs_match_the_per_packet_engine_under_rule_edits_between_polls(
    doc, seed, poll_ticks, ticks
):
    # Polls are several ticks apart, and the rules change after any tick,
    # so steady flows meet rule edits inside an epoch. Only rule counters
    # wait for a poll: every flow tally and throttled link is current after
    # every tick.
    doc = dict(doc, poll_interval=poll_ticks * doc["tick"], duration=ticks * doc["tick"])
    records, ticks_seen = [], []
    for module in (simnet, per_packet):
        topo, rules, rates, sim_cfg, _ = build(doc)
        rng = random.Random(seed)
        seen = []
        ticks_seen.append(seen)

        def edit(state):
            seen.append((
                [(key, vars(tally).copy()) for key, tally in state.flows.items()],
                [(vars(ls) | {"queue": len(ls.queue)}) for ls in state.link_states.values()],
            ))
            if rng.random() < 0.4:
                edit_rules(rng, state.topology, state.rules)

        with after_each_step(module, edit):
            records.append(outcome(module.run, topo, rules, rates, sim_cfg))
    assert records[0] == records[1]
    assert ticks_seen[0] == ticks_seen[1]


def test_a_packet_in_inside_an_epoch_restarts_a_steady_flows_segment():
    # The packet-in of test_packet_in_keeps_compiled_paths_toward_other_
    # destinations, three ticks into a six-tick epoch: the server's
    # responses to a compile to a new path, and each of the old and the new
    # path carries its own ticks until the last tick settles both.
    doc = small_raw(attackers=[], base_rate=1.0, client_matrix=1,
                    duration=6.0, poll_interval=6.0)
    records, seen, carried = [], [], []
    for module in (simnet, per_packet):
        topo, rules, rates, sim_cfg, _ = build(doc)
        server_ip = topo.ip_of[topo.server]
        a, b = sorted(ip for ip in topo.host_of_ip if ip != server_ip)[:2]

        def edit(state):
            if module is simnet:
                # what each response path to a has carried after each tick
                path = simnet._path(state, FlowKey(server_ip, a),
                                    *topo.peer(topo.server, HOST_PORT))
                if path not in seen:
                    seen.append(path)
                carried.append([(p.packets, p in state._carried) for p in seen])
            if state.step_index == 3:
                assert handle_packet_in(rules, topo, FlowKey(a, b))

        with after_each_step(module, edit):
            records.append(outcome(module.run, topo, rules, rates, sim_cfg))
    assert records[0] == records[1]
    # a's first tick is walked and the next two are steady on its path; the
    # packet-in moves the last three onto a new path, and the last tick
    # settles both.
    assert carried == [
        [(1, True)], [(2, True)], [(3, True)],
        [(3, True), (1, True)], [(3, True), (2, True)], [(0, False), (0, False)],
    ]


def test_a_loop_installed_inside_an_epoch_raises_as_per_packet_does():
    # The client's requests are steady from their second tick. After two
    # ticks their rules are replaced by LOOP, which still ends at the
    # server but one switch visit past the hop limit: the next tick raises.
    records = []
    for module in (simnet, per_packet):
        topo, rules, rates, cfg, server, client = simple_scenario()
        key = FlowKey(topo.ip_of[client], topo.ip_of[server])

        def edit(state):
            if state.step_index == 2:
                for entry in list(rules.all_entries()):
                    if entry.match_dst == key.dst:
                        rules.delete(entry.switch, entry.match_src, entry.match_dst,
                                     entry.priority)
                install_walk(topo, rules, key, LOOP)

        with after_each_step(module, edit):
            records.append(outcome(module.run, topo, rules, rates, cfg))
    assert records[0] == records[1] == (
        "SimulationError", f"forwarding loop for {key.src}->{key.dst}")


@pytest.mark.parametrize("throttled", ["server", "client"])
def test_runs_match_the_per_packet_engine_over_a_throttled_host_link(throttled):
    # The server, or one client, hangs off its edge switch by a throttled
    # link: every request path, or that client's response path, ends by
    # crossing it onto the host, so no such tick is steady. The link's
    # budget passes fewer packets a tick than arrive.
    records, entered = [], []
    for engine_run in (simnet.run, per_packet.run):
        topo = build_grid(2, 2, 1)
        server, client = NodeId.host(0, 1), NodeId.host(1, 1)
        for host, name in ((server, "server"), (client, "client")):
            u = host.index[0]
            topo.add_node(host)
            topo.add_link(Link(host, HOST_PORT, NodeId.edge(u), HOST_FACING_BASE + 1,
                               **({"capacity": 2_500.0, "queue_cap": 20}
                                  if name == throttled else {})))
            topo.register_host(host, f"10.0.{u}.1")
        topo.server = server
        rates = {host: 5.0 for host in topo.hosts() if host != server}
        cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0,
                        request_bytes=200, response_bytes=1000)
        records.append(outcome(engine_run, topo, RuleTable(), rates, cfg))
        (link,) = json.loads(records[-1])["links"]
        entered.append((link["entered_packets"], link["passed_packets"]))
    assert records[0] == records[1]
    # 25 requests a tick toward the server, of which 12 pass; or a response
    # to each of the client's 5 requests a tick, of which 2 pass.
    assert entered[0] == {"server": (250, 120), "client": (50, 20)}[throttled]


def detour_scenario(capacity, queue_cap, responses, feed_capacity):
    """One attacker flow detoured through a scrubber by hand, as in
    ``test_simnet.throttled_scenario``, with two more shapes:

    - ``responses``: ``"direct"`` leaves the responses on their path;
      ``"same"`` sends them over the scrubber too, so they cross the
      throttled link in the direction the requests do; ``"reverse"`` sends
      them over it the other way.
    - ``feed_capacity``: also throttle the edge -> scrubber link, so every
      request crosses two throttled links in turn.
    """
    topo = build_grid(2, 2, 1)
    server, attacker = NodeId.host(0, 0), NodeId.host(1, 0)
    topo.server = server
    topo.attackers = {attacker}
    rules = RuleTable()
    s_ip, a_ip = topo.ip_of[server], topo.ip_of[attacker]
    handle_packet_in(rules, topo, FlowKey(a_ip, s_ip))

    scrub = NodeId.scrubber(0)
    edge = topo.edge_of_host(server)
    feed = {} if feed_capacity is None else {"capacity": feed_capacity, "queue_cap": queue_cap}
    attach_switch(topo, scrub, [
        Link(edge, 200, scrub, 1, **feed),
        Link(scrub, 201, edge, 201, capacity=capacity, queue_cap=queue_cap),
    ])
    rules.delete(edge, a_ip, s_ip, BASE_PRIORITY)
    rules.install(FlowRule(edge, a_ip, s_ip, 200, 30001))
    rules.install(FlowRule(edge, None, s_ip, topo.port_toward(edge, server), 40003, in_port=201))
    rules.install(FlowRule(scrub, a_ip, s_ip, 201, 30002))

    if responses != "direct":
        # As mitigation.apply does, the response rule goes before a redirect
        # takes its match.
        toward_attacker = rules.delete(edge, s_ip, a_ip, BASE_PRIORITY).out_port
    if responses == "same":
        rules.install(FlowRule(edge, s_ip, a_ip, 200, 30001))
        rules.install(FlowRule(scrub, s_ip, a_ip, 201, 30002))
        rules.install(FlowRule(edge, None, a_ip, toward_attacker, 40004, in_port=201))
    elif responses == "reverse":
        rules.install(FlowRule(edge, s_ip, a_ip, 201, 30001))
        rules.install(FlowRule(scrub, s_ip, a_ip, 1, 30002))
        rules.install(FlowRule(edge, None, a_ip, toward_attacker, 40004, in_port=200))
    return topo, rules, server, attacker


@settings(max_examples=60, deadline=None, phases=FAIL_FAST)
@given(
    capacity=st.floats(100.0, 20_000.0),
    queue_cap=st.integers(1, 40),
    rate=st.floats(0.5, 40.0),
    request=st.integers(1, 3000),
    response=st.integers(1, 3000),
    responses=st.sampled_from(["direct", "same", "reverse"]),
    feed_capacity=st.none() | st.floats(100.0, 20_000.0),
    tick=st.sampled_from([0.5, 1.0]),
)
def test_runs_match_the_per_packet_engine_on_throttled_links(
    capacity, queue_cap, rate, request, response, responses, feed_capacity, tick
):
    records = []
    for engine_run in (simnet.run, per_packet.run):
        topo, rules, server, attacker = detour_scenario(
            capacity, queue_cap, responses, feed_capacity
        )
        cfg = SimConfig(tick=tick, duration=10.0, poll_interval=5.0, attack_start=0.0,
                        request_bytes=request, response_bytes=response)
        records.append(outcome(engine_run, topo, rules, {attacker: rate}, cfg))
    assert records[0] == records[1]


def test_two_way_link_sends_packets_one_at_a_time():
    # Requests and responses share the throttled link. On tick 0 six
    # requests pass, each followed by its response; from then on the queue
    # holds requests, and each response queues behind them. A run of all
    # the tick's requests would spend the whole budget before any response.
    records = []
    for engine_run in (simnet.run, per_packet.run):
        topo, rules, server, attacker = detour_scenario(12_500.0, 1000, "same", None)
        cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0,
                        request_bytes=1000, response_bytes=1000)
        log = SampleLog()
        records.append(run_json(engine_run(topo, rules, {attacker: 1000.0}, cfg, on_poll=log),
                                log.samples))
    assert records[0] == records[1]
    a_ip, s_ip = topo.ip_of[attacker], topo.ip_of[server]
    flows = json.loads(records[0])["flows"]
    assert flows[f"{a_ip}->{s_ip}"]["delivered_packets"] == 114
    assert flows[f"{s_ip}->{a_ip}"]["delivered_packets"] == 6


def lookups_at(monkeypatch, **overrides):
    calls = 0
    inner = RuleTable.lookup

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(RuleTable, "lookup", counted)
    # The threshold is never reached, so no scrubber throttles the attack.
    topo, rules, rates, sim_cfg, pipeline = build(small_raw(
        **{"attack_start": 0.0, "duration": 5.0, "threshold": 1e30, **overrides}
    ))
    record = simnet.run(topo, rules, rates, sim_cfg, on_poll=pipeline.on_poll)
    emitted = sum(t.emitted_packets for t in record.flows.values())
    return calls, emitted


def test_rule_lookups_do_not_grow_with_the_attack_rate(monkeypatch):
    slow_calls, slow_emitted = lookups_at(monkeypatch, attacker_rate=20.0)
    fast_calls, fast_emitted = lookups_at(monkeypatch, attacker_rate=20_000.0)
    assert fast_emitted > 100 * slow_emitted
    assert fast_calls == slow_calls


def test_rule_lookups_do_not_grow_with_duration(monkeypatch):
    # Every host sends from the first tick, so the last packet-in is in it;
    # from then on the rule table and the topology stay as they are.
    short_calls, short_emitted = lookups_at(monkeypatch, duration=20.0)
    long_calls, long_emitted = lookups_at(monkeypatch, duration=80.0)
    assert long_emitted > 3 * short_emitted
    assert long_calls == short_calls


def test_packet_in_keeps_compiled_paths_toward_other_destinations(monkeypatch):
    # Every client sends at least one request each tick from the first.
    topo, rules, rates, sim_cfg, _ = build(small_raw(
        attackers=[], base_rate=1.0, client_matrix=1, duration=5.0))
    state = simnet.SimState(topo, rules, rates, sim_cfg)
    simnet.step(state)  # every client's packet-in
    simnet.step(state)  # paths compiled before a later packet-in recompile
    compiled = []
    inner = simnet._compile
    monkeypatch.setattr(simnet, "_compile",
                        lambda *args: compiled.append(args[1]) or inner(*args))
    simnet.step(state)
    assert compiled == []

    server_ip = topo.ip_of[topo.server]
    a, b = sorted(ip for ip in topo.host_of_ip if ip != server_ip)[:2]
    assert topo.edge_of_host(topo.host_of_ip[a]) == topo.edge_of_host(topo.server)
    assert handle_packet_in(rules, topo, FlowKey(a, b))
    simnet.step(state)
    # a shares the server's edge switch, so the reverse flow b -> a gets the
    # first dst-only rules toward a, and the server's responses to a
    # recompile. Its responses to b read none of the new rules (those
    # toward b match a or were already there) and keep their paths.
    assert set(compiled) == {FlowKey(server_ip, a)}


# -- north-star invariants on random grids ---------------------------------

def server_keys(topo):
    """Every client's flow to the server and back."""
    server_ip = topo.ip_of[topo.server]
    keys = []
    for host in topo.hosts():
        if host != topo.server:
            keys += [FlowKey(topo.ip_of[host], server_ip), FlowKey(server_ip, topo.ip_of[host])]
    return keys


def traced(topo, rules, keys):
    """trace_path of every key that has rules installed."""
    paths = {}
    for key in keys:
        try:
            paths[key] = trace_path(topo, rules, key)
        except MitigationError:  # not installed yet
            pass
    return paths


@settings(max_examples=40, deadline=None)
@given(doc=cli_scenarios())
def test_random_grids_keep_one_tree_per_destination_and_legit_paths(doc):
    topo, rules, rates, sim_cfg, pipeline = build(doc)

    def on_poll(state, t, samples):
        before = traced(topo, rules, server_keys(topo))
        planned = pipeline.plan is not None
        pipeline.on_poll(state, t, samples)
        if pipeline.plan is not None and not planned:
            # Only the suspicious sources' requests may change path.
            suspicious = set(pipeline.plan.suspicious_sources)
            for key, path in before.items():
                if key.src not in suspicious:
                    assert trace_path(topo, rules, key) == path

    simnet.run(topo, rules, rates, sim_cfg, on_poll=on_poll)
    for dst in {e.match_dst for e in rules.all_entries()}:
        assert destination_tree_ok(topo, rules, dst)


@settings(max_examples=40, deadline=None)
@given(doc=cli_scenarios())
def test_random_grids_poll_monotone_counters_whose_deltas_telescope(doc):
    topo, rules, rates, sim_cfg, pipeline = build(doc)
    log = SampleLog(pipeline.on_poll)
    record = simnet.run(topo, rules, rates, sim_cfg, on_poll=log)

    # Samples arrive poll by poll; no flow's totals ever go down.
    totals = {}
    for sample in log.samples:
        key = (sample.switch, sample.src, sample.dst)
        packets, size = totals.get(key, (0, 0))
        assert sample.packets_total >= packets and sample.bytes_total >= size
        totals[key] = (sample.packets_total, sample.bytes_total)

    # The deltas replayed from the samples, poll by poll, sum for each flow
    # to its last polled totals.
    assert [t for t, _ in log.polls] == record.poll_times
    last_seen = {}
    summed = {}
    for _, batch in log.polls:
        for d in delta(last_seen, batch):
            packets, size = summed.get((d.switch, d.src, d.dst), (0, 0))
            summed[(d.switch, d.src, d.dst)] = (packets + d.d_packets, size + d.d_bytes)
    assert summed == totals
    assert all(list(poll) == POLL_KEYS for poll in pipeline.polls)


@settings(max_examples=20, deadline=None)
@given(doc=cli_scenarios())
def test_random_grids_repeat_byte_identical_artifacts(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, errors = validate_config(dict(doc, output_dir=tmp))
        assert errors == []
        artifacts = []
        for _ in range(2):
            assert run_scenario(cfg) == EXIT_OK
            artifacts.append([(Path(tmp) / name).read_bytes()
                              for name in ("stats.csv", "report.json")])
        # Each poll entry, of mitigating runs too, follows from stats.csv.
        report = json.loads(artifacts[0][1])
        assert report["polls"] == replayed_polls(
            cfg, Path(tmp) / "stats.csv", report["run"]["poll_times"])
    assert artifacts[0] == artifacts[1]


@settings(max_examples=40, deadline=None)
@given(doc=cli_scenarios())
# two attackers at 15 kB/s each, detected and scrubbed at the first poll
@example(doc={"grid_n": 2, "grid_m": 2, "hosts_per_edge": 2, "server_edge": 0,
              "server_slot": 0, "client_matrix": 1, "base_rate": 1.0,
              "request_bytes": 100, "response_bytes": 100,
              "attackers": ["h1s1", "h0s2"], "attacker_rate": 150.0, "attack_start": 0.0,
              "tick": 1.0, "duration": 12.0, "poll_interval": 1.0,
              "threshold": 1000.0, "k_clusters": 2})
def test_random_grids_cap_scrubbed_flows_after_mitigation(doc):
    topo, rules, rates, sim_cfg, pipeline = build(doc)
    record = simnet.run(topo, rules, rates, sim_cfg, on_poll=pipeline.on_poll)
    if pipeline.plan is None:
        return
    # Delivered bytes at each poll after mitigation and at the end, as
    # {"src->dst": bytes}; the scrubbed requests all share the throttled link.
    t0 = next(e["t"] for e in record.events if e["event"] == "mitigation_applied")
    snapshots = json.loads(run_json(record, []))["flow_snapshots"]
    delivered = {t: {flow: n for flow, (_, n) in snapshot.items()}
                 for t, snapshot in zip(record.poll_times, snapshots)}
    delivered[sim_cfg.duration] = {f"{src}->{dst}": tally.delivered_bytes
                                   for (src, dst), tally in record.flows.items()}
    scrubbed = [f"{src}->{pipeline.plan.target}" for src in pipeline.plan.suspicious_sources]
    for t, flows in delivered.items():
        if t > t0:
            sent = sum(flows.get(f, 0) - delivered[t0].get(f, 0) for f in scrubbed)
            assert sent <= SCRUBBER_CAPACITY_BPS * (t - t0)
