"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the test
verdicts themselves carry the same information under plain ``pytest -v``.
"""

import functools
import json
import random
import time

import numpy as np
import pytest

from sdnsim.analytics import FeatureVector, decompose_gaussian_1d, kmeans, silverman_bandwidth
from sdnsim.cli import build_scenario, reference_template, run_scenario, validate_config
from sdnsim.mitigation import SCRUBBER_CAPACITY_BPS
from sdnsim.routing import FlowKey, RuleTable, handle_packet_in, shortest_path
from sdnsim.simnet import run as run_sim
from sdnsim.telemetry import delta, read_stats_csv
from sdnsim.topology import build_grid

from conftest import SESSION_START, bfs_distances, destination_tree_ok
from rule_paths import trace_path


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({label}): PASS")

        return wrapper

    return decorate


# -- shared scenario runs (computed once) -----------------------------------

@pytest.fixture(scope="module")
def reference_attack(tmp_path_factory):
    """The stock attack scenario: artifacts on disk plus the parsed report."""
    out = tmp_path_factory.mktemp("reference")
    raw = reference_template()
    raw["output_dir"] = str(out)
    cfg, errors = validate_config(raw)
    assert errors == []
    assert run_scenario(cfg) == 0
    report = json.loads((out / "report.json").read_text())
    samples = read_stats_csv(out / "stats.csv")
    return cfg, out, report, samples


@pytest.fixture(scope="module")
def reference_control(tmp_path_factory):
    """Same scenario with an unreachable threshold: attack runs unmitigated."""
    out = tmp_path_factory.mktemp("control")
    raw = reference_template()
    raw["output_dir"] = str(out)
    raw["threshold"] = 1e18
    cfg, errors = validate_config(raw)
    assert errors == []
    assert run_scenario(cfg) == 0
    return cfg, json.loads((out / "report.json").read_text())


# -- criteria ----------------------------------------------------------------

@criterion(1, "topology exactness")
def test_criterion_1_topology_exactness():
    started = time.monotonic()
    topo = build_grid(3, 4, 3)
    assert len(topo.core_switches()) == 12
    assert len(topo.edge_switches()) == 10
    assert len(topo.hosts()) == 30
    for n in range(2, 7):
        for m in range(2, 7):
            for k in range(1, 5):
                t = build_grid(n, m, k)
                assert len(t.edge_switches()) == 2 * n + 2 * m - 4
                assert len(t.hosts()) == k * (2 * n + 2 * m - 4)
    assert time.monotonic() - started < 1.0


@criterion(2, "routing optimality")
def test_criterion_2_routing_optimality():
    started = time.monotonic()
    topo = build_grid(4, 4, 2)
    hosts = topo.hosts()
    rng = random.Random(2024)

    mismatches = 0
    oracle_cache = {}
    for _ in range(200):
        a, b = rng.sample(hosts, 2)
        if a not in oracle_cache:
            oracle_cache[a] = bfs_distances(topo, a)
        path = shortest_path(topo, a, b)
        if len(path) - 1 != oracle_cache[a][b]:
            mismatches += 1
    assert mismatches == 0

    rules = RuleTable()
    for _ in range(100):
        a, b = rng.sample(hosts, 2)
        handle_packet_in(rules, topo, FlowKey(topo.ip_of[a], topo.ip_of[b]))
    for dst in {topo.ip_of[h] for h in hosts}:
        assert destination_tree_ok(topo, rules, dst)
    assert time.monotonic() - started < 1.0


@criterion(3, "counter conservation")
def test_criterion_3_counter_conservation():
    raw = reference_template()
    raw["attackers"] = []
    cfg, errors = validate_config(raw)
    assert errors == []
    topo, rules, profiles, sim_cfg = build_scenario(cfg)
    record = run_sim(topo, rules, profiles, sim_cfg)

    # telescoping: summed deltas equal the final cumulative totals, exactly
    last_seen = {}
    sums = {}
    for t in record.poll_times:
        for d in delta(last_seen, [s for s in record.samples if s.timestamp == t]):
            bucket = sums.setdefault((d.switch, d.src, d.dst), [0, 0])
            bucket[0] += d.d_packets
            bucket[1] += d.d_bytes
    finals = {
        (s.switch, s.src, s.dst): (s.packets_total, s.bytes_total)
        for s in record.samples
        if s.timestamp == record.poll_times[-1]
    }
    assert {k: tuple(v) for k, v in sums.items()} == finals

    # lossless paths: every emitted packet arrives, nothing drops or queues
    assert record.flows, "scenario must generate traffic"
    for tally in record.flows.values():
        assert tally.emitted_packets == tally.delivered_packets
        assert tally.emitted_bytes == tally.delivered_bytes
        assert tally.dropped_packets == 0
        assert tally.missed_packets == 0


@criterion(4, "clustering recovery")
def test_criterion_4_clustering_recovery():
    within_std = 5.0
    offset = 6.5 * within_std  # centroid separation 13 sigma in 4-D
    base = np.array([80.0, 80.0, 8000.0, 40_000.0])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        big = rng.normal(base, within_std, size=(20, 4))
        small = rng.normal(base + offset, within_std, size=(10, 4))
        features = [
            FeatureVector(f"10.0.0.{i}", *np.abs(row)) for i, row in enumerate(big)
        ] + [
            FeatureVector(f"10.0.1.{i}", *np.abs(row)) for i, row in enumerate(small)
        ]
        clustering = kmeans(features, 2)
        assert clustering.k == 2
        big_label = clustering.assignment["10.0.0.0"]
        small_label = clustering.assignment["10.0.1.0"]
        assert big_label != small_label
        for f in features:
            expected = big_label if f.client.startswith("10.0.0.") else small_label
            assert clustering.assignment[f.client] == expected
        history = clustering.wcss_history
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


@criterion(5, "gaussian decomposition")
def test_criterion_5_gaussian_decomposition():
    rng = np.random.default_rng(1000)
    values = np.concatenate(
        [rng.normal(10.0, 1.0, size=500), rng.normal(30.0, 2.0, size=500)]
    )
    components = decompose_gaussian_1d(values)
    assert len(components) == 2
    lo, hi = components
    assert abs(lo.mean - 10.0) <= 1.0   # within 10%
    assert abs(hi.mean - 30.0) <= 3.0   # within 10%

    # derived oracle: brute-force scan of an independently summed density
    bw = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 3 * bw, values.max() + 3 * bw, 256)
    density = np.zeros_like(grid)
    for v in values:
        density += np.exp(-0.5 * ((grid - v) / bw) ** 2)
    minima = [
        float(grid[i])
        for i in range(1, len(grid) - 1)
        if density[i] < density[i - 1] and density[i] < density[i + 1]
    ]
    assert len(minima) == 1
    assert 15.0 < minima[0] < 25.0

    single = decompose_gaussian_1d(rng.normal(20.0, 2.0, size=500))
    assert len(single) == 1


@criterion(6, "end-to-end detection")
def test_criterion_6_end_to_end_detection(reference_attack):
    cfg, out, report, samples = reference_attack
    polls = report["polls"]

    exceeding = [p["t"] for p in polls if p["aggregate"]["byte_rate"] > cfg.threshold]
    assert exceeding, "attack must push the aggregate past the threshold"
    first_exceed = exceeding[0]
    verdicts = [p["t"] for p in polls if p["detection"] and p["detection"]["attack"]]
    assert verdicts, "attack verdict expected"
    assert verdicts[0] - first_exceed <= 2 * cfg.poll_interval

    attacker_ips = sorted(
        f"10.0.{name.partition('s')[2]}.{name[1 : name.index('s')]}"
        for name in cfg.attackers
    )
    first_verdict = next(p for p in polls if p["t"] == verdicts[0])
    suspicious = sorted(first_verdict["detection"]["suspicious_sources"])
    assert suspicious == attacker_ips  # precision and recall 1.0


@criterion(7, "mitigation effectiveness")
def test_criterion_7_mitigation_effectiveness(reference_attack, reference_control):
    cfg, out, report, samples = reference_attack
    _, control = reference_control
    assert report["mitigation"] is not None
    mitigation_time = report["mitigation_time"]
    server_ip = "10.0.0.0"

    # throttle: per scrubbed flow, post-apply delivered rate <= link capacity
    snapshots = report["run"]["flow_snapshots"]
    snap = snapshots[report["run"]["poll_times"].index(mitigation_time)]
    elapsed = cfg.duration - mitigation_time
    for src in report["mitigation"]["suspicious_sources"]:
        key = f"{src}->{server_ip}"
        final_bytes = report["run"]["flows"][key]["delivered_bytes"]
        at_mitigation = snap.get(key, [0, 0])[1]
        assert (final_bytes - at_mitigation) / elapsed <= SCRUBBER_CAPACITY_BPS

    # non-interference: legitimate deliveries identical to the control run
    scrubbed = set(report["mitigation"]["suspicious_sources"])
    for key, tally in control["run"]["flows"].items():
        src, _, dst = key.partition("->")
        if src in scrubbed or dst in scrubbed:
            continue
        mitigated_tally = report["run"]["flows"][key]
        assert mitigated_tally["delivered_packets"] == tally["delivered_packets"]
        assert mitigated_tally["delivered_bytes"] == tally["delivered_bytes"]

    # no forwarding loops: every flow's path walk terminates at a host
    topo, rules, profiles, sim_cfg = build_scenario(cfg)
    from sdnsim import mitigation as mit
    from sdnsim.analytics import DetectionReport

    verdict = DetectionReport(
        server_ip, 1e9, cfg.threshold, True,
        suspicious_sources=sorted(scrubbed),
    )
    for src in sorted(scrubbed):
        handle_packet_in(rules, topo, FlowKey(src, server_ip))
    legit_ips = [
        topo.ip_of[h]
        for h in topo.hosts()
        if topo.ip_of[h] not in scrubbed and h != topo.server
    ]
    for ip in legit_ips:
        handle_packet_in(rules, topo, FlowKey(ip, server_ip))
    mit.apply(mit.plan_scrubber(verdict, topo, rules), topo, rules)
    for ip in sorted(scrubbed) + legit_ips:
        path = trace_path(topo, rules, FlowKey(ip, server_ip))
        assert not path[-1].is_switch
        path = trace_path(topo, rules, FlowKey(server_ip, ip))
        assert not path[-1].is_switch


@criterion(8, "determinism")
def test_criterion_8_determinism(reference_attack):
    cfg, out, report, samples = reference_attack
    first = ((out / "stats.csv").read_bytes(), (out / "report.json").read_bytes())
    assert run_scenario(cfg) == 0
    second = ((out / "stats.csv").read_bytes(), (out / "report.json").read_bytes())
    assert first[0] == second[0]
    assert first[1] == second[1]


@pytest.mark.session_last
@criterion(9, "suite runtime")
def test_criterion_9_suite_runtime():
    # Runs after every other test of the session (see conftest), so this is
    # the whole suite's time from collection on, not just this module's.
    assert time.monotonic() - SESSION_START < 60.0
