import random

import pytest

from sdnsim.routing import FlowKey, RuleTable, handle_packet_in
from sdnsim.simnet import SimConfig, TrafficKind, TrafficProfile, run
from sdnsim.telemetry import (
    CounterRegressionError,
    DeltaRecord,
    StatSample,
    aggregate_by_destination,
    delta,
    poll,
    read_stats_csv,
    write_stats_csv,
)
from sdnsim.topology import NodeId, build_grid


class FakeState:
    def __init__(self, topology, rules):
        self.topology = topology
        self.rules = rules


def bidirectional_flow_state():
    topo = build_grid(2, 2, 1)
    rules = RuleTable()
    key = FlowKey(topo.ip_of[NodeId.host(1, 0)], topo.ip_of[NodeId.host(3, 0)])
    handle_packet_in(rules, topo, key)
    return FakeState(topo, rules), key


def test_poll_with_no_flows_is_empty():
    topo = build_grid(2, 2, 1)
    assert poll(FakeState(topo, RuleTable()), 5.0) == []


def test_one_bidirectional_flow_yields_four_samples():
    state, key = bidirectional_flow_state()
    samples = poll(state, 5.0)
    assert len(samples) == 4
    combos = {(s.switch, s.src, s.dst) for s in samples}
    e_src = state.topology.edge_of_host(state.topology.host_of_ip[key.src]).name
    e_dst = state.topology.edge_of_host(state.topology.host_of_ip[key.dst]).name
    assert combos == {
        (e_src, key.src, key.dst),
        (e_src, key.dst, key.src),
        (e_dst, key.src, key.dst),
        (e_dst, key.dst, key.src),
    }


def test_core_and_dst_only_rules_are_not_polled():
    state, _ = bidirectional_flow_state()
    for sample in poll(state, 5.0):
        assert sample.switch.startswith("e")


def run_simple_scenario(duration=20.0):
    topo = build_grid(2, 2, 1)
    server, client = NodeId.host(0, 0), NodeId.host(2, 0)
    topo.server = server
    profiles = {
        server: TrafficProfile(TrafficKind.SERVER),
        client: TrafficProfile(TrafficKind.LEGIT, 3.0, 200, 1000),
    }
    cfg = SimConfig(duration=duration, poll_interval=5.0, attack_start=0.0)
    record = run(topo, RuleTable(), profiles, cfg)
    return record


def test_totals_are_monotone_across_polls():
    record = run_simple_scenario()
    seen: dict[tuple, tuple] = {}
    for sample in record.samples:
        key = (sample.switch, sample.src, sample.dst)
        last = seen.get(key, (0, 0))
        assert (sample.packets_total, sample.bytes_total) >= last
        seen[key] = (sample.packets_total, sample.bytes_total)


def test_delta_subtracts_last_seen():
    last_seen = {}
    first = [StatSample(5.0, "e0", "10.0.1.0", "10.0.0.0", 100, 20_000)]
    (record,) = delta(last_seen, first)
    assert (record.d_packets, record.d_bytes) == (100, 20_000)
    second = [StatSample(10.0, "e0", "10.0.1.0", "10.0.0.0", 150, 30_000)]
    (record,) = delta(last_seen, second)
    assert (record.d_packets, record.d_bytes) == (50, 10_000)


def test_first_observation_uses_zero_baseline():
    last_seen = {}
    (record,) = delta(last_seen, [StatSample(5.0, "e0", "10.0.1.0", "10.0.0.0", 230, 999)])
    assert record.d_packets == 230


def test_counter_regression_is_a_hard_error():
    last_seen = {}
    delta(last_seen, [StatSample(5.0, "e0", "10.0.1.0", "10.0.0.0", 100, 100)])
    with pytest.raises(CounterRegressionError):
        delta(last_seen, [StatSample(10.0, "e0", "10.0.1.0", "10.0.0.0", 90, 100)])


def test_deltas_telescope_to_final_totals():
    record = run_simple_scenario()
    last_seen = {}
    sums: dict[tuple, list[int]] = {}
    for t in record.poll_times:
        batch = [s for s in record.samples if s.timestamp == t]
        for d in delta(last_seen, batch):
            bucket = sums.setdefault((d.switch, d.src, d.dst), [0, 0])
            bucket[0] += d.d_packets
            bucket[1] += d.d_bytes
    finals = {
        (s.switch, s.src, s.dst): (s.packets_total, s.bytes_total)
        for s in record.samples
        if s.timestamp == record.poll_times[-1]
    }
    assert {k: tuple(v) for k, v in sums.items()} == finals


def test_replaying_the_sample_log_reproduces_deltas():
    record = run_simple_scenario()

    def replay():
        last_seen = {}
        out = []
        for t in record.poll_times:
            out.extend(delta(last_seen, [s for s in record.samples if s.timestamp == t]))
        return out

    assert replay() == replay()


def test_aggregate_sums_by_destination():
    deltas = [
        DeltaRecord("e0", "10.0.1.0", "10.0.0.0", 30, 3000),
        DeltaRecord("e0", "10.0.2.0", "10.0.0.0", 70, 7000),
    ]
    assert aggregate_by_destination(deltas) == {"10.0.0.0": (100, 10_000)}


def test_aggregate_empty_input():
    assert aggregate_by_destination([]) == {}


def test_aggregate_matches_nested_loop_oracle():
    rng = random.Random(11)
    addresses = [f"10.0.{u}.{i}" for u in range(4) for i in range(3)]
    deltas = [
        DeltaRecord(
            "e0",
            rng.choice(addresses),
            rng.choice(addresses),
            rng.randrange(100),
            rng.randrange(10_000),
        )
        for _ in range(50)
    ]
    got = aggregate_by_destination(deltas)
    # brute-force independent grouping
    expected = {}
    for dst in {d.dst for d in deltas}:
        p = sum(d.d_packets for d in deltas if d.dst == dst)
        b = sum(d.d_bytes for d in deltas if d.dst == dst)
        expected[dst] = (p, b)
    assert got == expected
    total = (sum(v[0] for v in got.values()), sum(v[1] for v in got.values()))
    assert total == (
        sum(d.d_packets for d in deltas),
        sum(d.d_bytes for d in deltas),
    )


def test_csv_round_trip(tmp_path):
    record = run_simple_scenario()
    path = tmp_path / "stats.csv"
    write_stats_csv(record.samples, path)
    header = path.read_text().splitlines()[0]
    assert header == "timestamp,switch,src_ip,dst_ip,packets_total,bytes_total"
    assert read_stats_csv(path) == record.samples
