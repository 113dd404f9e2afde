"""The batched engine against the per-packet oracle (``per_packet.py``), and
north-star invariants on the same random scenarios."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sdnsim import simnet
from sdnsim.cli import EXIT_OK, ScenarioPipeline, build_scenario, run_scenario, validate_config
from sdnsim.mitigation import MitigationError, trace_path
from sdnsim.routing import BASE_PRIORITY, FlowKey, FlowRule, RuleTable, handle_packet_in
from sdnsim.simnet import SimConfig, TrafficKind, TrafficProfile
from sdnsim.topology import Link, NodeId, attach_switch, build_grid

import per_packet
from conftest import destination_tree_ok
from test_cli import small_raw


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
    topo, rules, profiles, sim_cfg = build_scenario(cfg)
    return topo, rules, profiles, sim_cfg, ScenarioPipeline(cfg, topo)


def outcome(engine_run, *args, **kwargs):
    """The run's record, or the error it ended with."""
    try:
        return engine_run(*args, **kwargs).to_dict()
    except Exception as exc:  # both engines must fail alike
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None)
@given(doc=cli_scenarios())
def test_runs_match_the_per_packet_engine_on_cli_scenarios(doc):
    records = []
    for engine_run in (simnet.run, per_packet.run):
        topo, rules, profiles, sim_cfg, pipeline = build(doc)
        records.append(outcome(engine_run, topo, rules, profiles, sim_cfg,
                               on_poll=pipeline.on_poll))
    assert records[0] == records[1]


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

    toward_attacker = rules.find(edge, s_ip, a_ip, BASE_PRIORITY).rule.out_port
    if responses == "same":
        rules.install(FlowRule(edge, s_ip, a_ip, 200, 30001))
        rules.install(FlowRule(scrub, s_ip, a_ip, 201, 30002))
        rules.install(FlowRule(edge, None, a_ip, toward_attacker, 40004, in_port=201))
    elif responses == "reverse":
        rules.install(FlowRule(edge, s_ip, a_ip, 201, 30001))
        rules.install(FlowRule(scrub, s_ip, a_ip, 1, 30002))
        rules.install(FlowRule(edge, None, a_ip, toward_attacker, 40004, in_port=200))
    return topo, rules, server, attacker


@settings(max_examples=60, deadline=None)
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
        profiles = {
            server: TrafficProfile(TrafficKind.SERVER, request_size=request,
                                   response_size=response),
            attacker: TrafficProfile(TrafficKind.ATTACKER, rate, request, response),
        }
        cfg = SimConfig(tick=tick, duration=10.0, poll_interval=5.0, attack_start=0.0)
        records.append(outcome(engine_run, topo, rules, profiles, cfg))
    assert records[0] == records[1]


def test_two_way_link_sends_packets_one_at_a_time():
    # Requests and responses share the throttled link. On tick 0 six
    # requests pass, each followed by its response; from then on the queue
    # holds requests, and each response queues behind them. A run of all
    # the tick's requests would spend the whole budget before any response.
    records = []
    for engine_run in (simnet.run, per_packet.run):
        topo, rules, server, attacker = detour_scenario(12_500.0, 1000, "same", None)
        profiles = {
            server: TrafficProfile(TrafficKind.SERVER, request_size=1000, response_size=1000),
            attacker: TrafficProfile(TrafficKind.ATTACKER, 1000.0, 1000, 1000),
        }
        cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0)
        records.append(engine_run(topo, rules, profiles, cfg).to_dict())
    assert records[0] == records[1]
    a_ip, s_ip = topo.ip_of[attacker], topo.ip_of[server]
    assert records[0]["flows"][f"{a_ip}->{s_ip}"]["delivered_packets"] == 114
    assert records[0]["flows"][f"{s_ip}->{a_ip}"]["delivered_packets"] == 6


def lookups_at(monkeypatch, attacker_rate):
    calls = 0
    inner = RuleTable.lookup

    def counted(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(RuleTable, "lookup", counted)
    # The threshold is never reached, so no scrubber throttles the attack.
    topo, rules, profiles, sim_cfg, pipeline = build(small_raw(
        attacker_rate=attacker_rate, attack_start=0.0, duration=5.0, threshold=1e30
    ))
    record = simnet.run(topo, rules, profiles, sim_cfg, on_poll=pipeline.on_poll)
    emitted = sum(t.emitted_packets for t in record.flows.values())
    return calls, emitted


def test_rule_lookups_do_not_grow_with_the_attack_rate(monkeypatch):
    slow_calls, slow_emitted = lookups_at(monkeypatch, 20.0)
    fast_calls, fast_emitted = lookups_at(monkeypatch, 20_000.0)
    assert fast_emitted > 100 * slow_emitted
    assert fast_calls == slow_calls


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
    topo, rules, profiles, sim_cfg, pipeline = build(doc)

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

    simnet.run(topo, rules, profiles, sim_cfg, on_poll=on_poll)
    for dst in {e.rule.match_dst for e in rules.all_entries()}:
        assert destination_tree_ok(topo, rules, dst)


@settings(max_examples=40, deadline=None)
@given(doc=cli_scenarios())
def test_random_grids_poll_monotone_counters_whose_deltas_telescope(doc):
    topo, rules, profiles, sim_cfg, pipeline = build(doc)
    record = simnet.run(topo, rules, profiles, sim_cfg, on_poll=pipeline.on_poll)

    # Samples arrive poll by poll; no flow's totals ever go down.
    totals = {}
    for sample in record.samples:
        key = (sample.switch, sample.src, sample.dst)
        packets, size = totals.get(key, (0, 0))
        assert sample.packets_total >= packets and sample.bytes_total >= size
        totals[key] = (sample.packets_total, sample.bytes_total)

    # The reported deltas of each flow sum to its last polled totals.
    summed = {}
    for poll in pipeline.polls:
        for d in poll["deltas"]:
            packets, size = summed.get((d["switch"], d["src"], d["dst"]), (0, 0))
            summed[(d["switch"], d["src"], d["dst"])] = (packets + d["d_packets"],
                                                          size + d["d_bytes"])
    assert summed == totals


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
    assert artifacts[0] == artifacts[1]
