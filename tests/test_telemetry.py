import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnsim.routing import BASE_PRIORITY, FlowKey, FlowRule, RuleTable, handle_packet_in
from sdnsim.simnet import SimConfig, run
from sdnsim.telemetry import (
    CounterRegressionError,
    StatSample,
    delta,
    open_stats_csv,
    poll,
    read_stats_csv,
    write_stats_csv,
)
from sdnsim.topology import NodeId, build_grid

import scan_poll
from conftest import SampleLog


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


# e10 sorts before e2 by name, and 10.0.10.0 after 10.0.2.0 by address.
INDEX_SWITCHES = [NodeId.edge(2), NodeId.edge(10), NodeId.core(0, 0), NodeId.scrubber(0)]
INDEX_ADDRS = ["10.0.2.0", "10.0.10.0", "10.0.2.1"]
INDEX_PRIORITIES = [BASE_PRIORITY, 30001, 40003]

index_ops = st.lists(st.one_of(
    st.tuples(st.just("install"), st.sampled_from(INDEX_SWITCHES),
              st.sampled_from([None] + INDEX_ADDRS), st.sampled_from(INDEX_ADDRS),
              st.sampled_from(INDEX_PRIORITIES)),
    st.tuples(st.just("delete"), st.integers(0, 63)),
    st.tuples(st.just("redirect"), st.integers(0, 63), st.sampled_from(INDEX_PRIORITIES)),
    st.tuples(st.just("count"), st.integers(0, 63), st.integers(1, 9)),
), max_size=30)


def apply_index_op(rules, op):
    """One install (skipped on a taken match), delete, mitigation redirect
    (delete, then install the same match at another priority with the
    deleted rule's counters, as ``mitigation.apply`` does) or counter bump
    on ``rules``."""
    kind, *args = op
    entries = sorted(rules.all_entries(), key=lambda e: e.seq)
    if kind == "install":
        switch, src, dst, priority = args
        if rules.find(switch, src, dst) is None:
            rules.install(FlowRule(switch, src, dst, 1, priority))
    elif not entries:
        return
    elif kind == "delete":
        r = entries[args[0] % len(entries)]
        rules.delete(r.switch, r.match_src, r.match_dst, r.priority)
    elif kind == "redirect":
        r = entries[args[0] % len(entries)]
        if r.priority != args[1]:
            gone = rules.delete(r.switch, r.match_src, r.match_dst, r.priority)
            entry = rules.install(FlowRule(r.switch, r.match_src, r.match_dst, 200, args[1]))
            entry.packets, entry.bytes = gone.packets, gone.bytes
    else:
        entry = entries[args[0] % len(entries)]
        entry.packets += args[1]
        entry.bytes += 100 * args[1]


@settings(max_examples=150, deadline=None)
@example(ops=[("install", NodeId.edge(2), "10.0.2.0", "10.0.10.0", BASE_PRIORITY),
              ("count", 0, 3), ("delete", 0),
              ("install", NodeId.edge(2), "10.0.2.0", "10.0.10.0", BASE_PRIORITY)])
@given(ops=index_ops)
def test_indexed_poll_matches_the_whole_table_scan(ops):
    state = FakeState(None, RuleTable())
    for step, op in enumerate(ops):
        apply_index_op(state.rules, op)
        assert poll(state, float(step)) == scan_poll.poll(state, float(step))


def test_a_key_deleted_to_empty_and_installed_again_is_polled_again():
    state = FakeState(None, RuleTable())
    edge, src, dst = NodeId.edge(2), "10.0.2.0", "10.0.10.0"
    state.rules.install(FlowRule(edge, src, dst, 1, BASE_PRIORITY)).packets = 5
    assert [s.packets_total for s in poll(state, 1.0)] == [5]
    state.rules.delete(edge, src, dst, BASE_PRIORITY)
    assert poll(state, 2.0) == []
    state.rules.install(FlowRule(edge, src, dst, 1, BASE_PRIORITY)).packets = 2
    assert poll(state, 3.0) == [StatSample(3.0, "e2", src, dst, 2, 0)]


def run_simple_scenario(duration=20.0):
    topo = build_grid(2, 2, 1)
    server, client = NodeId.host(0, 0), NodeId.host(2, 0)
    topo.server = server
    cfg = SimConfig(duration=duration, poll_interval=5.0, attack_start=0.0)
    log = SampleLog()
    run(topo, RuleTable(), {client: 3.0}, cfg, on_poll=log)
    return log


def test_totals_are_monotone_across_polls():
    seen: dict[tuple, tuple] = {}
    for sample in run_simple_scenario().samples:
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
    log = run_simple_scenario()
    last_seen = {}
    sums: dict[tuple, list[int]] = {}
    for _, batch in log.polls:
        for d in delta(last_seen, batch):
            bucket = sums.setdefault((d.switch, d.src, d.dst), [0, 0])
            bucket[0] += d.d_packets
            bucket[1] += d.d_bytes
    finals = {
        (s.switch, s.src, s.dst): (s.packets_total, s.bytes_total)
        for s in log.polls[-1][1]
    }
    assert {k: tuple(v) for k, v in sums.items()} == finals


def test_replaying_the_sample_log_reproduces_deltas():
    log = run_simple_scenario()

    def replay():
        last_seen = {}
        out = []
        for _, batch in log.polls:
            out.extend(delta(last_seen, batch))
        return out

    assert replay() == replay()


def test_csv_round_trip(tmp_path):
    log = run_simple_scenario()
    assert log.samples
    path = tmp_path / "stats.csv"
    with open_stats_csv(path) as fh:
        # Appended poll by poll, as a run writes them.
        for _, batch in log.polls:
            write_stats_csv(batch, fh)
    header = path.read_text().splitlines()[0]
    assert header == "timestamp,switch,src_ip,dst_ip,packets_total,bytes_total"
    assert list(read_stats_csv(path)) == log.samples


def test_stats_file_is_read_one_sample_at_a_time(tmp_path):
    path = tmp_path / "stats.csv"
    with open_stats_csv(path):
        pass
    assert path.read_bytes() == b"timestamp,switch,src_ip,dst_ip,packets_total,bytes_total\r\n"
    assert list(read_stats_csv(path)) == []
    sample = StatSample(5.0, "e0", "10.0.1.0", "10.0.0.0", 100, 20_000)
    with open(path, "a", newline="") as fh:
        write_stats_csv([sample], fh)
    samples = read_stats_csv(path)
    assert next(samples) == sample
    assert list(samples) == []


def test_bad_stats_header_is_rejected(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text("t,switch\n")
    with pytest.raises(ValueError, match="unexpected stats header"):
        next(read_stats_csv(path))
