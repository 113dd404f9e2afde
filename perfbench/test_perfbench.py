"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

import gate
import layers
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def span(name, start, end, parent=-1, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("simnet.step", 0.0, 10.0),
        span("routing.packet_in", 1.0, 4.0, 0, [6]),
        span("routing.shortest_path", 1.5, 3.5, 1),
        span("routing.packet_in", 5.0, 6.0, 0, [0]),
    ]
    assert layers.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])
    m = layers.layer_metrics(spans)
    assert m["simnet.step_self_s"] == pytest.approx(6.0)
    assert m["routing.packet_in_s"] == pytest.approx(4.0)
    assert m["routing.install_self_s"] == pytest.approx(2.0)
    assert m["routing.shortest_path_s"] == pytest.approx(2.0)
    assert m["routing.packet_in.calls"] == 2
    assert m["routing.rules_installed"] == 6


def test_link_metrics_read_last_step_and_peak_queue():
    spans = [
        span("simnet.step", 0.0, 1.0, counts=[10, 4, 0, 6]),
        span("simnet.step", 1.0, 2.0, counts=[20, 8, 5, 7]),
    ]
    m = layers.layer_metrics(spans)
    assert (m["simnet.link.entered_pkts"], m["simnet.link.passed_pkts"]) == (20, 8)
    assert (m["simnet.link.dropped_pkts"], m["simnet.link.queue_peak"]) == (5, 7)
    assert m["simnet.link.pass_frac"] == pytest.approx(0.4)
    assert layers.layer_metrics([])["simnet.link.pass_frac"] == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert layers.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert layers.percentile(values, 50.0) == 50
    assert layers.percentile(values, 90.0) == 90
    assert layers.percentile(values, 99.9) == 100
    assert layers.percentile([7.0], 99.0) == 7.0


def test_default_seed_is_the_stock_template():
    sys.path.insert(0, str(SRC))
    from sdnsim.cli import reference_template

    stock = reference_template()
    del stock["output_dir"]
    assert workloads.make_config("reference", workloads.DEFAULT_SEED) == stock


@pytest.mark.parametrize("name", ["reference", "flood"])
def test_seeds_draw_one_attacker_per_edge_never_the_server(name):
    stock = workloads.make_config(name, workloads.DEFAULT_SEED)
    server = f"h{stock['server_slot']}s{stock['server_edge']}"
    layouts = set()
    for seed in range(2, 30):
        cfg = workloads.make_config(name, seed)
        assert cfg == workloads.make_config(name, seed)
        assert server not in cfg["attackers"]
        edges = sorted(int(a.split("s")[1]) for a in cfg["attackers"])
        assert edges == list(range(workloads.edge_count(cfg)))
        layouts.add(tuple(cfg["attackers"]))
    assert len(layouts) > 20


def test_fabric_seeds_draw_the_server_slot_on_edge_zero():
    slots = set()
    for seed in range(2, 30):
        cfg = workloads.make_config("fabric", seed)
        assert cfg["server_edge"] == 0
        slots.add(cfg["server_slot"])
    assert slots == set(range(workloads.FABRIC["hosts_per_edge"]))


def test_host_ip():
    assert workloads.host_ip("h2s5") == "10.0.5.2"
    assert workloads.host_ip("h0s12") == "10.0.12.0"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 30 s reference run: detection at t=25, five scrubbed ticks."""
    sys.path.insert(0, str(SRC))
    from sdnsim import cli

    cfg = dict(workloads.REFERENCE, duration=30.0)
    out = tmp_path_factory.mktemp("run")
    assert cli.run_scenario(cli.validate_config(dict(cfg, output_dir=str(out)))[0]) == 0
    return cfg, out


def test_gate_passes_a_clean_run(small_run):
    cfg, out = small_run
    errors, facts = gate.check(json.loads((out / "report.json").read_text()), cfg)
    assert errors == []
    assert facts["detect_delay_s"] == 5.0
    assert facts["legit_delivered_frac"] == 1.0
    assert facts["link_entered"] == (
        facts["link_passed"] + facts["link_dropped"] + facts["link_queued"]
    )


def _doctor_flow(report, pick, field, delta):
    pair = next(p for p in report["run"]["flows"] if pick(p))
    report["run"]["flows"][pair][field] += delta


@pytest.mark.parametrize(
    "doctor, message",
    [
        (lambda r: _doctor_flow(r, lambda p: p.startswith("10.0.1.0"), "emitted_packets", 1),
         "conserve"),
        (lambda r: r["run"]["links"][0].__setitem__("dropped_packets", 0), "balance"),
        (lambda r: _doctor_flow(r, lambda p: p.startswith("10.0.1.0"), "delivered_packets", -1),
         "legitimate delivery"),
        (lambda r: r["mitigation"]["suspicious_sources"].pop(), "suspicious set"),
        (lambda r: _doctor_flow(r, lambda p: p.startswith("10.0.3.2"), "delivered_bytes", 70_000),
         "scrubbed flow"),
        (lambda r: r.__setitem__("mitigation", None), "never mitigated"),
    ],
)
def test_gate_fails_a_doctored_report(small_run, doctor, message):
    cfg, out = small_run
    report = json.loads((out / "report.json").read_text())
    doctored = copy.deepcopy(report)
    doctor(doctored)
    errors, _ = gate.check(doctored, cfg)
    assert any(message in e for e in errors), errors


def test_digest_ignores_only_the_output_dir_echo(small_run):
    _, out = small_run
    report = (out / "report.json").read_bytes()
    csv = (out / "stats.csv").read_bytes()
    moved = report.replace(json.dumps(str(out)).encode(), b'"elsewhere/x"')
    base = gate.artifact_digest(report, csv, str(out))
    assert gate.artifact_digest(moved, csv, "elsewhere/x") == base
    assert gate.artifact_digest(report, csv + b"\n", str(out)) != base
    with pytest.raises(ValueError):
        gate.artifact_digest(report, csv, "not/the/dir")
