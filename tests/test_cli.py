import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from enum import IntEnum
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sdnsim import analytics, cli, simnet, telemetry
from sdnsim.analytics import FeatureVector, build_features, decompose_gaussian_1d, kmeans
from sdnsim.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    TABLE_CHUNK,
    ScenarioPipeline,
    Table,
    build_scenario,
    main,
    matrix_rates,
    reference_template,
    run_scenario,
    topology_row,
    validate_config,
    write_json,
)
from sdnsim.routing import BASE_PRIORITY, FlowRule, RuleTable
from sdnsim.simnet import SimConfig, SimulationError
from sdnsim.telemetry import (
    StatSample,
    open_stats_csv,
    read_stats_csv,
    read_stats_rows,
    write_stats_csv,
)
from sdnsim.topology import MAX_HOSTS_PER_EDGE, NodeId, build_grid

from test_simnet import run_json, simple_scenario
from test_telemetry import STAT_SAMPLES


def small_raw(**overrides):
    # legit aggregate is 10.8 kB/s; two attackers add 40 kB/s from t=20
    raw = {
        "grid_n": 2,
        "grid_m": 3,
        "hosts_per_edge": 2,
        "attackers": ["h1s2", "h0s3"],
        "duration": 30.0,
        "client_matrix": 3,
        "threshold": 30_000.0,
    }
    raw.update(overrides)
    return raw


# -- validate_config -------------------------------------------------------

def test_empty_document_yields_valid_defaults():
    cfg, errors = validate_config({})
    assert errors == []
    assert cfg.grid_n == DEFAULTS["grid_n"]
    assert cfg.attackers == []
    assert cfg.threshold == 10.0 * cfg.designed_legit_aggregate
    assert cfg.attacker_rate == 10.0 * cfg.base_rate * (2 * cfg.client_matrix - 1)


def test_engine_defaults_are_the_config_defaults():
    # SimConfig and CONFIG_FIELDS each hold a default for the engine's fields.
    def typed(values):
        return {name: (value, type(value)) for name, value in values.items()}

    assert typed(SimConfig._field_defaults) == typed(
        {name: DEFAULTS[name] for name in cli.SIM_FIELDS})


def test_small_grid_dimension_rejected():
    cfg, errors = validate_config({"grid_n": 1})
    assert cfg is None
    assert any("grid_n" in e for e in errors)


def test_three_violations_three_diagnostics():
    cfg, errors = validate_config(
        {"grid_n": 1, "base_rate": -2.0, "k_clusters": 0}
    )
    assert cfg is None
    assert len(errors) == 3


def test_unknown_field_rejected():
    cfg, errors = validate_config({"grid_size": 3})
    assert cfg is None
    assert errors == ["unknown field: grid_size"]


def test_attacker_equal_to_server_rejected():
    cfg, errors = validate_config({"attackers": ["h0s0"]})
    assert cfg is None
    assert any("is the server" in e for e in errors)


def test_attacker_outside_grid_rejected():
    cfg, errors = validate_config(small_raw(attackers=["h0s9"]))
    assert cfg is None
    assert any("outside the grid" in e for e in errors)


def test_duplicate_attackers_rejected():
    cfg, errors = validate_config(small_raw(attackers=["h1s2", "h1s2"]))
    assert cfg is None
    assert any("duplicate" in e for e in errors)


@pytest.mark.parametrize("attackers", [
    ["h-1s2"], ["h1s-2"], ["h1s2", "h01s2"], ["h+1s2"], ["h 1s2"], ["h0_1s2"],
    ["h1s2\n"], ["h\uff11s2"],
])
def test_attacker_names_that_are_not_canonical_exit_2(tmp_path, attackers):
    # Each name reads as a host to int(); only NodeId.name's own form is one.
    code, err = run_document(small_raw(attackers=attackers), tmp_path / "out")
    assert code == EXIT_CONFIG
    assert f"bad attacker host name: {attackers[-1]}" in err


def test_duration_must_align_with_tick():
    cfg, errors = validate_config({"duration": 7.5, "tick": 2.0, "poll_interval": 2.0})
    assert cfg is None
    assert any("multiple of tick" in e for e in errors)


def test_matrix_rates_wrap_beyond_the_matrix():
    rates = matrix_rates(10, 3, 1.0)
    assert rates[:9] == [1, 2, 3, 2, 3, 4, 3, 4, 5]
    assert rates[9] == rates[0]


def test_build_scenario_assigns_roles():
    cfg, errors = validate_config(small_raw())
    topo, rules, rates, sim_cfg = build_scenario(cfg)
    assert topo.server == topo.host_of_ip["10.0.0.0"]
    assert topo.server not in rates
    assert len(topo.attackers) == 2 and topo.attackers <= rates.keys()
    # 2*(2*2+2*3-4) hosts = 12; minus server and 2 attackers
    assert len(rates) - len(topo.attackers) == 9
    assert (sim_cfg.request_bytes, sim_cfg.response_bytes) == (200, 1000)


# -- ScenarioPipeline ------------------------------------------------------

def test_analyse_builds_each_poll_entry_from_its_samples_alone():
    cfg, _ = validate_config({"grid_n": 2, "grid_m": 2, "hosts_per_edge": 1,
                              "threshold": 1000.0, "k_clusters": 2})
    topo = build_scenario(cfg)[0]
    server, a, b, c = (topo.ip_of[NodeId.host(u, 0)] for u in range(4))
    edge, a_edge = (topo.edge_of_host(NodeId.host(u, 0)).name for u in (0, 1))

    def totals(t, n):
        # Each poll, A sends 10 packets of 200 B, B 10 of 250 B and, from
        # the second poll, C 100 of 1000 B; the server answers each packet
        # with 1000 B. The server's edge sees every flow both ways, and A's
        # edge sees A's.
        sent = {a: (10 * n, 2_000 * n), b: (10 * n, 2_500 * n)}
        if n > 1:
            sent[c] = (100 * (n - 1), 100_000 * (n - 1))
        return [sample
                for client, (packets, size) in sent.items()
                for switch in ([edge, a_edge] if client == a else [edge])
                for sample in (StatSample(t, switch, client, server, packets, size),
                               StatSample(t, switch, server, client, packets, 1_000 * packets))]

    pipeline = ScenarioPipeline(cfg, topo)
    entries = [pipeline.analyse(5.0 * n, totals(5.0 * n, n)) for n in (1, 2, 3)]
    assert [e["t"] for e in entries] == [5.0, 10.0, 15.0]
    # Requests into the server's edge only.
    assert [e["aggregate"] for e in entries] == [
        {"packets": 20, "bytes": 4_500, "byte_rate": 900.0},
        {"packets": 120, "bytes": 104_500, "byte_rate": 20_900.0},
        {"packets": 120, "bytes": 104_500, "byte_rate": 20_900.0},
    ]
    assert [e["clustering"]["members"] for e in entries] == [
        [[a], [b]], [[a, b], [c]], [[a, b], [c]]]
    # C's cluster is new against the poll before it, and only there.
    assert [e["new_clusters"] for e in entries] == [None, [1], []]
    assert [(e["detection"]["attack"], e["detection"]["suspicious_sources"])
            for e in entries] == [(False, []), (True, [c]), (True, [c])]
    # Analysis acts on nothing.
    assert pipeline.polls == [] and pipeline.plan is None


# Near 2**52 consecutive integers are consecutive floats: with a 1 s poll
# interval, one byte more in a poll is a byte rate one ulp higher.
ULP_BASE = 2**52


@settings(max_examples=60, deadline=None)
@given(clients=st.integers(1, 4), k_clusters=st.integers(1, 3),
       polls=st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                               min_size=4, max_size=4), min_size=2, max_size=6))
# a repeat of the first poll, then one byte more from the second client
@example(clients=2, k_clusters=3, polls=[[(0, 0), (1, 0)] * 2, [(0, 0), (1, 0)] * 2,
                                         [(0, 0), (2, 0)] * 2])
def test_analyse_reuses_results_only_for_an_equal_input(clients, k_clusters, polls):
    # Each poll, client i sends ULP_BASE + up bytes and gets down kB back,
    # for the (up, down) of its column. A pipeline that keeps its last
    # k-means and Gaussian results must build the entries that a fresh one
    # builds from the same history.
    cfg, _ = validate_config({"grid_n": 2, "grid_m": 2, "hosts_per_edge": 2,
                              "poll_interval": 1.0, "k_clusters": k_clusters})
    topo = build_scenario(cfg)[0]
    server = topo.ip_of[topo.server]
    edge = topo.edge_of_host(topo.server).name
    ips = sorted(ip for ip in topo.host_of_ip if ip != server)[:clients]
    memoised = ScenarioPipeline(cfg, topo)
    totals = {}
    for n, poll in enumerate(polls, 1):
        samples = []
        for ip, (up, down) in zip(ips, poll):
            for key, size in (((ip, server), ULP_BASE + up), ((server, ip), 1_000 * down)):
                packets, total = totals.get(key, (0, 0))
                totals[key] = packets + 1, total + size
                samples.append(StatSample(float(n), edge, *key, *totals[key]))
        fresh = ScenarioPipeline(cfg, topo)
        fresh.last_seen = dict(memoised.last_seen)
        fresh.prev_clustering = memoised.prev_clustering
        expected = json.dumps(fresh.analyse(float(n), samples))
        assert json.dumps(memoised.analyse(float(n), samples)) == expected


def test_an_attack_verdict_that_flags_no_cluster_mitigates_nothing():
    # The cluster at least as intense as the mean is sharper than the
    # median, so detect flags no cluster.
    clustering = analytics.Clustering(
        2, [(1.0, 1.0, 100.0, 100.0), (10.0, 10.0, 1e4, 1e4)],
        [["10.0.1.0"], ["10.0.2.0", "10.0.3.0"]],
        [(0.0, 0.0, 0.0, 0.0), (5.0, 5.0, 5e3, 5e3)])
    verdict = analytics.detect(2e4, 1e3, clustering)
    assert (verdict.attack, verdict.suspicious_sources) == (True, [])

    # Such a verdict is logged and plans nothing; a later one that names
    # sources mitigates, once.
    cfg, _ = validate_config(small_raw(duration=15.0, attack_start=0.0))
    topo, rules, rates, sim_cfg = build_scenario(cfg)
    pipeline = ScenarioPipeline(cfg, topo)
    attacker = topo.ip_of[min(topo.attackers)]
    named = iter([[], [attacker], [attacker]])
    plans = []

    def analyse(t, samples):
        plans.append(pipeline.plan)
        return {"t": t, "detection": {"attack": True, "suspicious_sources": next(named)}}

    pipeline.analyse = analyse
    state = simnet.run(topo, rules, rates, sim_cfg, on_poll=pipeline.on_poll)
    assert [(e["t"], e["event"]) for e in state.events
            if e["event"] in ("attack_detected", "mitigation_applied")] == [
        (5.0, "attack_detected"), (10.0, "attack_detected"), (10.0, "mitigation_applied")]
    assert plans[:2] == [None, None] and plans[2] is pipeline.plan
    assert pipeline.plan.suspicious_sources == [attacker]


# -- run_scenario ----------------------------------------------------------

def test_small_scenario_artifacts(tmp_path):
    cfg, errors = validate_config(small_raw(output_dir=str(tmp_path / "out")))
    assert errors == []
    assert run_scenario(cfg) == EXIT_OK

    samples = list(read_stats_csv(tmp_path / "out" / "stats.csv"))
    times = sorted({s.timestamp for s in samples})
    assert times == [5.0 * i for i in range(1, 7)]
    seen = {}
    for s in samples:
        key = (s.switch, s.src, s.dst)
        assert (s.packets_total, s.bytes_total) >= seen.get(key, (0, 0))
        seen[key] = (s.packets_total, s.bytes_total)

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["polls"]) == 6
    assert report["config"]["grid_n"] == 2


POLL_KEYS = ["t", "aggregate", "gaussian", "new_clusters", "clustering", "detection"]


def as_json(value):
    """``value`` as report.json holds it: tuples become lists."""
    return json.loads(json.dumps(value))


def replayed_polls(cfg, stats_path, poll_times):
    """The poll entries that a fresh pipeline's ``analyse`` rebuilds from a
    run's stats file, as report.json holds them. A poll with no rows there
    took no samples."""
    pipeline = ScenarioPipeline(cfg, build_scenario(cfg)[0])
    batches = {t: list(rows)
               for t, rows in groupby(read_stats_csv(stats_path), attrgetter("timestamp"))}
    assert set(batches) <= set(poll_times)
    return as_json([pipeline.analyse(t, batches.get(t, [])) for t in poll_times])


def test_csv_replay_rebuilds_report_aggregates_and_analytics(tmp_path):
    # The report keeps neither per-flow deltas nor feature vectors: stats.csv
    # is their one record, and each poll entry follows from it.
    cfg, _ = validate_config(small_raw(output_dir=str(tmp_path / "out")))
    assert run_scenario(cfg) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["polls"] == replayed_polls(
        cfg, tmp_path / "out" / "stats.csv", report["run"]["poll_times"])
    assert all(list(poll) == POLL_KEYS for poll in report["polls"])
    assert any(p["aggregate"]["packets"] for p in report["polls"])
    assert any(p["detection"] and p["detection"]["attack"] for p in report["polls"])


def test_identical_config_and_seed_identical_bytes(tmp_path):
    out = tmp_path / "out"
    outputs = []
    for _ in range(2):
        cfg, _ = validate_config(small_raw(output_dir=str(out), seed=7))
        assert run_scenario(cfg) == EXIT_OK
        outputs.append(
            (
                (out / "stats.csv").read_bytes(),
                (out / "report.json").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_a_float_field_written_as_an_integer_gives_the_same_report(tmp_path):
    # base_rate 2 and 2.0 validate alike, the aggregate derived from it too.
    reports = []
    for base_rate in (2, 2.0):
        cfg, errors = validate_config(small_raw(base_rate=base_rate, output_dir=str(tmp_path)))
        assert errors == []
        assert run_scenario(cfg) == EXIT_OK
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["designed_legit_aggregate"] == 10_800.0
    # A grid with no legitimate client designs the integer 0.
    cfg, _ = validate_config({"grid_n": 2, "grid_m": 2, "hosts_per_edge": 1,
                              "attackers": ["h0s1", "h0s2", "h0s3"]})
    assert type(cfg.designed_legit_aggregate) is int and cfg.designed_legit_aggregate == 0


def test_cluster_count_clamps_to_client_count(tmp_path):
    cfg, errors = validate_config(
        {
            "grid_n": 2,
            "grid_m": 2,
            "hosts_per_edge": 1,
            "duration": 10.0,
            "output_dir": str(tmp_path / "out"),
        }
    )
    assert errors == []
    assert run_scenario(cfg) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    clusterings = [p["clustering"] for p in report["polls"] if p["clustering"]]
    assert clusterings, "three clients must produce clusterings"
    assert all(c["k"] <= 3 for c in clusterings)


@pytest.mark.parametrize("duration", [30.0, 300.0])
def test_mitigation_fires_once_in_attack_scenario(tmp_path, duration):
    cfg, _ = validate_config(small_raw(output_dir=str(tmp_path / "out"), duration=duration))
    run_scenario(cfg)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # Each event is logged once, with no field that the report holds
    # elsewhere; the verdicts after mitigation are in the polls alone.
    events = [e for e in report["run"]["events"] if e["event"] != "packet_in"]
    assert events == [{"t": 20.0, "event": "attack_active"},
                      {"t": 25.0, "event": "attack_detected"},
                      {"t": 25.0, "event": "mitigation_applied"}]
    assert report["mitigation"]["scrubber"] == "s200"
    assert report["mitigation_time"] == 25.0
    assert all(p["detection"]["attack"] for p in report["polls"] if p["t"] > 25.0)


def twelve_edge_report(tmp_path) -> dict:
    """The report of a mitigating run on 12 edges, whose addresses
    10.0.10.* and 10.0.11.* sort apart by number and by string."""
    cfg, _ = validate_config(small_raw(grid_n=3, grid_m=5, output_dir=str(tmp_path / "out")))
    assert run_scenario(cfg) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mitigation"] is not None
    return report


def test_counters_hold_the_rule_dump_in_its_order(tmp_path):
    report = twelve_edge_report(tmp_path)
    rules = report["rules_final"]
    # The redirects and return rules of the mitigation outrank the base rules.
    assert len({rule["priority"] for rule in rules}) > 1
    assert list(report["run"]["counters"].items()) == [
        ("|".join(str(rule[k]) for k in ("switch", "match_src", "match_dst", "priority")),
         [rule["packets"], rule["bytes"]])
        for rule in rules]


def test_flow_snapshots_follow_the_flows_order(tmp_path):
    run = twelve_edge_report(tmp_path)["run"]
    flows = list(run["flows"])
    assert flows != sorted(flows)
    snapshots = run["flow_snapshots"]
    # The attackers' flows, which start at t = 20, join the later snapshots.
    assert len(snapshots[0]) < len(snapshots[-1]) == len(flows)
    for snapshot in snapshots:
        assert list(snapshot) == [flow for flow in flows if flow in snapshot]


# -- command line ----------------------------------------------------------

def test_init_config_template_is_valid(tmp_path, capsys):
    assert main(["init-config", "--template", "reference"]) == EXIT_OK
    raw = json.loads(capsys.readouterr().out)
    cfg, errors = validate_config(raw)
    assert errors == []
    assert cfg.grid_n == 3 and cfg.grid_m == 4 and cfg.hosts_per_edge == 3
    assert len(cfg.attackers) == 10


def test_run_command_happy_path(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(small_raw()))
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert (out / "stats.csv").exists()
    assert (out / "report.json").exists()


def test_run_command_reports_all_config_errors(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"grid_n": 1, "base_rate": -1.0}))
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("config error:") == 2


def test_run_command_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_run_command_rejects_bad_json(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG


def test_run_command_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    config_path = tmp_path / "latin1.json"
    config_path.write_bytes('{"output_dir": "d\xe9j\xe0"}'.encode("latin-1"))
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot read config:") and err.count("\n") == 1


def test_run_command_rejects_json_nested_too_deeply(tmp_path, capsys):
    config_path = tmp_path / "deep.json"
    config_path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config is not valid JSON:") and err.count("\n") == 1


def test_init_config_into_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "scenario.json"
    assert main(["init-config", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot write config:") and err.count("\n") == 1
    assert not out.parent.exists()


def test_empty_config_file_means_defaults(tmp_path):
    config_path = tmp_path / "empty.json"
    config_path.write_text("")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK


def test_seed_override_recorded(tmp_path):
    # The config's seed is recorded; `sdnsim run` has no option to set it.
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(small_raw(seed=99)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main(["run", "--config", str(config_path), "--out", str(out), "--seed", "99"])


# -- bad documents end with exit 2, never a traceback ----------------------

def run_document(doc, out) -> tuple[int, str]:
    """``sdnsim run`` on a raw JSON document; returns (exit code, stderr)."""
    config_path = Path(out).parent / "scenario.json"
    config_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config_path), "--out", str(out)])
    return code, err.getvalue()


def test_poll_interval_below_tick_exits_2(tmp_path):
    code, err = run_document({"poll_interval": 1e-9}, tmp_path / "out")
    assert code == EXIT_CONFIG
    assert "poll_interval must be at least one tick" in err


@pytest.mark.parametrize("doc, message", [
    ({"output_dir": ""}, "output_dir must be a non-empty string"),
    ({"output_dir": 5}, "output_dir must be a non-empty string"),
    ({"grid_n": 2, "grid_m": 2, "server_edge": 4}, "server_edge must be < 4"),
    ({"hosts_per_edge": 2, "server_slot": 2}, "server_slot must be < 2"),
    ({"attackers": "h1s2"}, "attackers must be a list of host names"),
    ({"attackers": ["h1s2", 7]}, "attackers must be a list of host names"),
])
def test_each_config_error_exits_2_with_its_message(tmp_path, doc, message):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **doc}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config_path)])
    assert code == EXIT_CONFIG
    assert err.getvalue() == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_an_output_dir_under_a_regular_file_exits_2(tmp_path):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(small_raw(duration=5.0)))
    (tmp_path / "file").write_text("kept")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "file" / "out")])
    assert code == EXIT_CONFIG
    assert err.getvalue().startswith("cannot create output directory:")
    assert err.getvalue().count("\n") == 1
    assert (tmp_path / "file").read_text() == "kept"


def test_hosts_per_edge_capped_at_topology_limit(tmp_path):
    assert validate_config({"hosts_per_edge": MAX_HOSTS_PER_EDGE})[1] == []
    cfg, errors = validate_config({"hosts_per_edge": MAX_HOSTS_PER_EDGE + 1})
    assert cfg is None
    assert errors == [f"hosts_per_edge must be <= {MAX_HOSTS_PER_EDGE}"]
    code, err = run_document({"hosts_per_edge": MAX_HOSTS_PER_EDGE + 1}, tmp_path / "out")
    assert code == EXIT_CONFIG
    assert "hosts_per_edge must be <=" in err


@pytest.mark.parametrize("name", ["stats.csv", "report.json"])
def test_artifact_write_error_exits_2(tmp_path, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # moving the artifact onto it fails
    code, err = run_document(small_raw(duration=5.0), out)
    assert code == EXIT_CONFIG
    assert "cannot write artifacts:" in err
    assert not list(out.glob("*.tmp"))


class DiskFull:
    """A text file that takes writes until it holds one chunk of
    ``run.samples`` rows, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh
        self.rows = 0

    def write(self, text):
        if self.rows >= TABLE_CHUNK:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.rows += text.count('"packets_total"')
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("previous", [False, True])
def test_failed_report_write_leaves_no_partial_artifact(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}
    files = []

    def open_full(*args, **kwargs):
        files.append(DiskFull(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli, "open", open_full, raising=False)
    # 60 s: more than one chunk of samples
    code, err = run_document(small_raw(duration=60.0), out)
    assert code == EXIT_CONFIG
    assert "No space left on device" in err
    assert [f.rows for f in files] == [TABLE_CHUNK]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("previous", [False, True])
def test_failed_report_move_keeps_the_previous_pair(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}
    replace = os.replace

    def replace_all_but_the_report(src, dst):
        if Path(dst).name == "report.json":
            raise OSError(errno.EIO, "Input/output error")
        return replace(src, dst)

    # stats.csv is already in place when report.json fails to move.
    monkeypatch.setattr(os, "replace", replace_all_but_the_report)
    # A longer run: its stats.csv differs from the previous one.
    code, err = run_document(small_raw(duration=60.0), out)
    assert code == EXIT_CONFIG
    assert "Input/output error" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # A good run over the previous pair leaves no backup behind either.
    monkeypatch.undo()
    assert run_document(small_raw(duration=60.0), out)[0] == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "stats.csv"]


@pytest.mark.parametrize("previous", [False, True])
def test_failed_stats_move_keeps_the_previous_pair(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}
    replace = os.replace

    def replace_all_but_the_new_stats(src, dst):
        if Path(src).name == "stats.csv.tmp":
            raise OSError(errno.EIO, "Input/output error")
        return replace(src, dst)

    # The previous stats.csv is already moved aside when the new one fails to move.
    monkeypatch.setattr(os, "replace", replace_all_but_the_new_stats)
    code, err = run_document(small_raw(duration=60.0), out)
    assert code == EXIT_CONFIG
    assert "Input/output error" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("moving", ["stats.csv.tmp", "report.json.tmp"])
def test_interrupted_commit_keeps_the_previous_pair(tmp_path, monkeypatch, moving):
    out = tmp_path / "out"
    assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    replace = os.replace

    def interrupted(src, dst):
        if Path(src).name == moving:
            raise KeyboardInterrupt
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_document(small_raw(duration=60.0), out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("previous", [False, True])
def test_run_without_hard_links_commits_the_new_pair(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK

    def no_hard_links(*args, **kwargs):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "link", no_hard_links)
    assert run_document(small_raw(duration=60.0), out) == (EXIT_OK, "")
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "stats.csv"]
    # The pair is the new run's, as a run into an empty directory writes it.
    fresh = tmp_path / "fresh" / "out"
    fresh.parent.mkdir()
    assert run_document(small_raw(duration=60.0), fresh)[0] == EXIT_OK
    assert (out / "stats.csv").read_bytes() == (fresh / "stats.csv").read_bytes()
    reports = [json.loads((d / "report.json").read_text()) for d in (out, fresh)]
    for report in reports:
        del report["config"]["output_dir"]
    assert reports[0] == reports[1]


# A run whose process dies right after its n-th artifact move, as SIGKILL
# would end it: no handler runs.
KILLED_RUN = """\
import os, sys
from sdnsim import cli
replace, moves = os.replace, []

def replace_then_die(src, dst):
    replace(src, dst)
    moves.append(dst)
    if len(moves) == {moves}:
        os._exit(9)

os.replace = replace_then_die
cli.main(["run", "--config", {config!r}, "--out", {out!r}])
"""


@pytest.mark.parametrize("moves, left", [
    # the previous stats.csv moved aside
    (1, ["report.json", "report.json.tmp", "stats.csv.bak", "stats.csv.tmp"]),
    # the new stats.csv moved in, the previous report.json still in place
    (2, ["report.json", "report.json.tmp", "stats.csv", "stats.csv.bak"]),
    # the new report.json moved in: committed, but the backup is left
    (3, ["report.json", "stats.csv", "stats.csv.bak"]),
    # a first run, into an empty directory: its stats.csv moved in
    (1, ["report.json.tmp", "stats.csv"]),
])
def test_next_run_recovers_from_a_kill_inside_the_commit(tmp_path, monkeypatch, moves, left):
    out = tmp_path / "out"
    previous = {}
    if "report.json" in left:  # there is a previous pair
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
        previous = {p.name: p.read_bytes() for p in out.iterdir()}
    config = tmp_path / "killed.json"
    config.write_text(json.dumps(small_raw(duration=60.0)))
    code = KILLED_RUN.format(moves=moves, config=str(config), out=str(out))
    src = str(Path(cli.__file__).resolve().parents[1])
    killed = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert killed.returncode == 9, killed.stderr
    assert sorted(p.name for p in out.iterdir()) == left
    # The pair that stands: the killed run's once its report moved in.
    standing = previous if "report.json.tmp" in left else {
        name: (out / name).read_bytes() for name in ("report.json", "stats.csv")}

    def broken(*args):
        raise SimulationError("broken mid-run")

    # A run that fails mid-run leaves that pair, byte for byte.
    monkeypatch.setattr(cli.ScenarioPipeline, "on_poll", broken)
    assert run_document(small_raw(duration=30.0), out)[0] == EXIT_INVARIANT
    assert {p.name: p.read_bytes() for p in out.iterdir()} == standing
    # A good run leaves its own pair alone, as it writes it into an empty
    # directory.
    monkeypatch.undo()
    assert run_document(small_raw(duration=40.0), out)[0] == EXIT_OK
    fresh = tmp_path / "fresh" / "out"
    fresh.parent.mkdir()
    assert run_document(small_raw(duration=40.0), fresh)[0] == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "stats.csv"]
    assert (out / "stats.csv").read_bytes() == (fresh / "stats.csv").read_bytes()
    reports = [json.loads((d / "report.json").read_text()) for d in (out, fresh)]
    for report in reports:
        del report["config"]["output_dir"]
    assert reports[0] == reports[1]


class Stop(Exception):
    """Raised at ``simnet.run`` entry, as a set-up-only benchmark run does."""


@pytest.mark.parametrize("previous", [False, True])
def test_run_stopped_at_entry_leaves_no_partial_artifact(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}

    def stop(*args, **kwargs):
        # The stats file is open before the run starts.
        assert (out / "stats.csv.tmp").exists()
        raise Stop

    monkeypatch.setattr(simnet, "run", stop)
    with pytest.raises(Stop):
        run_document(small_raw(duration=60.0), out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("previous", [False, True])
def test_invariant_violation_mid_run_leaves_no_partial_artifact(tmp_path, monkeypatch, previous):
    out = tmp_path / "out"
    if previous:
        assert run_document(small_raw(seed=2), out)[0] == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()} if previous else {}
    on_poll = cli.ScenarioPipeline.on_poll
    write_stats_csv = telemetry.write_stats_csv
    polled = []

    def write_and_flush(samples, fh):
        write_stats_csv(samples, fh)
        fh.flush()

    def broken_at_the_second_poll(pipeline, state, t, samples):
        if polled:
            # Each poll's rows went to the stats file as they were taken,
            # before the analytics saw them.
            rows = (out / "stats.csv.tmp").read_text().splitlines()
            assert len(rows) == 1 + len(polled[0]) + len(samples)
            raise SimulationError("broken at the second poll")
        polled.append(samples)
        on_poll(pipeline, state, t, samples)

    monkeypatch.setattr(telemetry, "write_stats_csv", write_and_flush)
    monkeypatch.setattr(cli.ScenarioPipeline, "on_poll", broken_at_the_second_poll)
    code, err = run_document(small_raw(duration=60.0), out)
    assert code == EXIT_INVARIANT
    assert err == "invariant violation: broken at the second poll\n"
    assert len(polled) == 1 and polled[0]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_sample_rows_hold_each_field_in_order():
    samples = [StatSample(5.0, "e0", "10.0.1.0", "10.0.0.0", 100, 20_000),
               StatSample(10.0, "e1", "10.0.2.0", "10.0.0.0", 7, 1_400)]
    topo, rules, rates, cfg, _, _ = simple_scenario()
    rows = json.loads(run_json(simnet.SimState(topo, rules, rates, cfg), samples))["samples"]
    assert rows == [s._asdict() for s in samples]
    assert [list(row) for row in rows] == [list(StatSample._fields)] * 2


def test_flow_rows_hold_every_counter_of_a_tally_in_its_order():
    assert cli.FLOW_FIELDS == tuple(vars(simnet.FlowTally()))


def sample_rows_text(samples) -> str:
    """report.json's ``run.samples`` for these samples, as written."""
    fh = io.StringIO()
    state = simnet.SimState(build_grid(2, 2, 1), RuleTable(), {}, SimConfig())
    write_json(fh, cli.run_section(state, samples, [])["samples"])
    return fh.getvalue()


ANY_SAMPLES = st.lists(st.builds(StatSample, st.floats(allow_nan=False, allow_infinity=False),
                                 st.text(), st.text(), st.text(), st.integers(), st.integers()),
                       max_size=40)


@settings(max_examples=100, deadline=None)
@given(samples=ANY_SAMPLES)
@example(samples=[StatSample(-0.0, 'e"0', "10.0.1.0\\", "h\u00e9\n\u2028\U0001f600", -1, 2**70)])
def test_sample_rows_are_json_dumps_of_each_sample(samples):
    # Any strings, quoted as the C encoder quotes them; more than a chunk
    # of rows.
    assert sample_rows_text(samples) == json.dumps([s._asdict() for s in samples])


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=STAT_SAMPLES)
def test_sample_rows_from_the_stats_file_text_are_json_dumps_of_each_sample(tmp_path, samples):
    # A run writes run.samples from the stats file's own text fields.
    path = tmp_path / "stats.csv"
    with open_stats_csv(path) as fh:
        write_stats_csv(samples, fh)
    written = [s._replace(timestamp=float(s.timestamp)) for s in samples]
    assert sample_rows_text(read_stats_rows(path)) == json.dumps([s._asdict() for s in written])


def test_counts_beyond_64_bits_are_written_exactly(tmp_path):
    # Validation admits request sizes whose byte counts outgrow 64 bits.
    doc = small_raw(duration=10.0, request_bytes=10**30, response_bytes=10**30)
    code, err = run_document(doc, tmp_path / "out")
    assert code == EXIT_OK, err
    run = json.loads((tmp_path / "out" / "report.json").read_text())["run"]
    final = {key: [flow["delivered_packets"], flow["delivered_bytes"]]
             for key, flow in run["flows"].items()}
    # The last poll falls on the last tick.
    assert run["poll_times"][-1] == 10.0
    assert run["flow_snapshots"][-1] == final
    assert max(size for _, size in final.values()) >= 2**63


def test_memory_at_ten_times_the_length_stays_near_the_short_run(tmp_path):
    def peak(duration):
        cfg, _ = validate_config(small_raw(duration=duration, output_dir=str(tmp_path)))
        tracemalloc.start()
        try:
            assert run_scenario(cfg) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(30.0)  # fills the process-wide name and address caches
    short, long = peak(30.0), peak(300.0)
    extra_polls = (300.0 - 30.0) / DEFAULTS["poll_interval"]
    # The long run still holds its poll entries, so bound what each extra
    # poll adds: 8.0 kB measured, 9.9 with the report's tables written 256
    # rows per encode call. A ratio of the two peaks would rise as the short
    # run's write transients shrink; 11.4 kB is what a ratio bound of 2.3
    # allowed over the 474 kB short run of 256-row tables.
    assert (long - short) / extra_polls <= 11_400


# -- ValueError audit -----------------------------------------------------

def run_one_client(rate, attacker=False):
    topo, rules, rates, cfg, server, client = simple_scenario(rate=rate)
    if attacker:
        topo.attackers = {client}
    simnet.run(topo, rules, rates, cfg)


# Each ValueError that the engine's rates, its config or an analytics step
# raises on a bad value, with a config document that would carry that value
# to it.
VALUE_ERRORS = {
    "negative legit rate": (lambda: run_one_client(-1.0), {"base_rate": -1.0}),
    "negative attacker rate": (lambda: run_one_client(-1.0, attacker=True),
                               {"attackers": ["h1s1"], "attacker_rate": -1.0}),
    "empty request": (lambda: SimConfig(request_bytes=0), {"request_bytes": 0}),
    "empty response": (lambda: SimConfig(response_bytes=0), {"response_bytes": 0}),
    "zero tick": (lambda: SimConfig(tick=0.0), {"tick": 0.0}),
    "negative duration": (lambda: SimConfig(duration=-1.0), {"duration": -1.0}),
    "zero poll interval": (lambda: SimConfig(poll_interval=0.0), {"poll_interval": 0.0}),
    "duration off the tick": (lambda: SimConfig(duration=1.5), {"duration": 1.5}),
    "poll interval off the tick": (lambda: SimConfig(poll_interval=0.5),
                                   {"poll_interval": 0.5}),
    "zero feature interval": (lambda: build_features([], "10.0.0.0", 0.0),
                              {"poll_interval": 0.0}),
    "zero clusters": (lambda: kmeans([FeatureVector("10.0.0.1", 1.0, 1.0, 1.0, 1.0)], 0),
                      {"k_clusters": 0}),
    "zero bandwidth": (lambda: decompose_gaussian_1d([1.0, 2.0], 0.0), {"bandwidth": 0.0}),
}


@pytest.mark.parametrize("raise_it, doc", VALUE_ERRORS.values(), ids=VALUE_ERRORS)
def test_validation_rules_out_each_value_error(raise_it, doc):
    with pytest.raises(ValueError):
        raise_it()
    cfg, errors = validate_config(doc)
    assert cfg is None
    assert any(field in error for error in errors for field in doc)


# The other ValueErrors (k-means on no features or on more clusters than
# points, a Gaussian split of fewer than two values, a derived bandwidth of 0)
# guard calls that the pipeline never makes.
# Should one still happen, the run ends as a broken invariant.
@pytest.mark.parametrize("owner, name", [
    (analytics, "kmeans"),
    (analytics, "decompose_gaussian_1d"),
    (cli, "build_grid"),
    (cli, "SimConfig"),
])
def test_value_error_in_a_run_exits_3(tmp_path, monkeypatch, owner, name):
    def broken(*args, **kwargs):
        raise ValueError("need at least two values")

    monkeypatch.setattr(owner, name, broken)
    code, err = run_document(small_raw(duration=5.0), tmp_path / "out")
    assert code == EXIT_INVARIANT
    assert err == "invariant violation: need at least two values\n"
    assert not list((tmp_path / "out").iterdir())


BAD_VALUES = st.sampled_from([None, True, "1", [1], {"a": 1}]) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf")]
)
# Every config key but output_dir, which `--out` always sets.
TYPED_KEYS = [key for key in DEFAULTS if key != "output_dir"]


@st.composite
def small_documents(draw):
    """A valid scenario on a small grid that runs one to three ticks."""
    tick = draw(st.sampled_from([1.0, 0.5, 1e-9]))
    return {
        "grid_n": draw(st.integers(2, 3)),
        "grid_m": draw(st.integers(2, 3)),
        "hosts_per_edge": draw(st.integers(2, 3)),
        "attackers": draw(st.sampled_from([[], ["h1s1"]])),
        "attack_start": 0.0,
        "tick": tick,
        "duration": draw(st.integers(1, 3)) * tick,
        "poll_interval": draw(st.integers(1, 2)) * tick,
    }


# One field out of range; duration and poll_interval are given in ticks.
# None of these lengthens a run past three ticks.
OUT_OF_RANGE = st.sampled_from([
    ("grid_n", 1),
    ("hosts_per_edge", 0),
    ("hosts_per_edge", MAX_HOSTS_PER_EDGE + 1),
    ("hosts_per_edge", 150),
    ("attackers", ["h0s0"]),
    ("attackers", ["h9s9"]),
    ("attackers", ["x"]),
    ("attackers", ["h1s1", "h1s1"]),
    ("tick", 1e-12),
    ("tick", 0.0),
    ("tick", -1.0),
    ("duration", -1.0),
    ("duration", 1.5),
    ("poll_interval", 1e-9),  # under one tick
    ("poll_interval", 0.5),
    ("poll_interval", 0.0),
    ("poll_interval", -1.0),
])


@st.composite
def config_documents(draw):
    """Valid small scenarios, the same with one field out of range or with
    badly typed fields, and top-level values that are not objects."""
    doc = draw(small_documents())
    branch = draw(st.sampled_from(["valid", "range", "type", "not an object"]))
    if branch == "range":
        key, value = draw(OUT_OF_RANGE)
        doc[key] = value * doc["tick"] if key in ("duration", "poll_interval") else value
    elif branch == "type":
        for key in draw(st.lists(st.sampled_from(TYPED_KEYS), min_size=1, max_size=3)):
            doc[key] = draw(BAD_VALUES)
    elif branch == "not an object":
        return draw(st.sampled_from([[], [doc], "doc", 3, None]))
    return doc


def reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=200, deadline=None)
@given(doc=config_documents())
@example(doc={"poll_interval": 1e-9})
@example(doc={"hosts_per_edge": MAX_HOSTS_PER_EDGE + 1})
@example(doc={"base_rate": float("inf"), "duration": 1.0})
# finite, in-range inputs whose derived rates overflow
@example(doc={"base_rate": 1e307, "duration": 0})
@example(doc={"grid_n": 2, "grid_m": 2, "hosts_per_edge": 1,
              "attackers": ["h0s1", "h0s2", "h0s3"], "base_rate": 1e307,
              "attack_start": 0, "duration": 1})
@example(doc={"base_rate": 10**308, "duration": 0})
@example(doc={"client_matrix": 10**308, "duration": 0})
@example(doc={"base_rate": 1e300, "tick": 1e10, "duration": 1e10, "poll_interval": 1e10})
# in range, but the analytics square per-flow byte rates past the float range
@example(doc={"request_bytes": 10**304, "duration": 5})
def test_no_traceback_on_any_config_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_document(doc, Path(tmp) / "out")
        if code == EXIT_OK:
            # strict JSON: NaN and Infinity are not JSON values
            json.loads((Path(tmp) / "out" / "report.json").read_text(),
                       parse_constant=reject_constant)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT)
    if code != EXIT_OK:
        assert err


def test_request_rate_does_not_drive_run_time(tmp_path):
    # 1e9 to 9e9 requests per second from each client: the engine forwards
    # each client's tick of requests as one run, so this runs in well under
    # a second instead of never finishing.
    code, err = run_document({"base_rate": 1e9, "duration": 5}, tmp_path / "out")
    assert code == EXIT_OK, err
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=reject_constant)
    emitted = sum(flow["emitted_packets"] for flow in report["run"]["flows"].values())
    assert emitted > 5 * 1e9 * 29  # 29 clients, each at 1e9 req/s or more


# -- artifacts pinned across commits ----------------------------------------

# sha256 of stats.csv + report.json (report's output_dir echo normalized)
# for small_raw(), and of `sdnsim init-config --template reference`. Any
# change to these artifacts must update the constants and say why.
SMALL_RAW_DIGEST = "52860188bdb84962ee103a774f0697be2b7cea1e8f6c3e67ab7f4788b022debb"
REFERENCE_TEMPLATE_DIGEST = "6fabaca1e4c5a2b8f59b8bdcc651f5da1a87a121a6c70476358c0d1939b8bb1f"


def artifact_digest(out) -> str:
    echo = b'"output_dir": ' + json.dumps(str(out)).encode()
    report = (out / "report.json").read_bytes()
    assert report.count(echo) == 1
    digest = hashlib.sha256((out / "stats.csv").read_bytes())
    digest.update(report.replace(echo, b'"output_dir": "<out>"'))
    return digest.hexdigest()


def test_artifacts_match_pinned_digests(tmp_path, capsys):
    out = tmp_path / "out"
    cfg, _ = validate_config(small_raw(output_dir=str(out)))
    assert run_scenario(cfg) == EXIT_OK
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report) + "\n"
    assert report["mitigation"] is not None
    assert any(p["detection"] and p["gaussian"] and p["new_clusters"] is not None
               for p in report["polls"])
    assert artifact_digest(out) == SMALL_RAW_DIGEST

    assert main(["init-config", "--template", "reference"]) == EXIT_OK
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_TEMPLATE_DIGEST


PYENV_VERSIONS = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_artifacts_match_the_pinned_digest_under_each_interpreter(tmp_path, minor):
    # Every installed CPython 3.<minor> runs each scenario from this tree and
    # writes the in-process run's artifacts (small_raw()'s are pinned above).
    # At base_rate 0.3 the client rates added in order give a designed
    # aggregate of 1620.0000000000002, where sum() gives 1620.0 from 3.12 on. Its
    # binaries are called directly: a `python3.12`-style shim fails without
    # a pyenv selection.
    pythons = sorted(PYENV_VERSIONS.glob(f"3.{minor}.*/bin/python3"))
    if not pythons:
        pytest.skip(f"no CPython 3.{minor} under {PYENV_VERSIONS}")
    src = str(Path(cli.__file__).resolve().parents[1])
    for name, raw in (("small", small_raw()), ("base-0.3", small_raw(base_rate=0.3))):
        out = tmp_path / name / "in-process"
        cfg, _ = validate_config(dict(raw, output_dir=str(out)))
        assert run_scenario(cfg) == EXIT_OK
        expected = artifact_digest(out)
        config = tmp_path / name / "scenario.json"
        config.write_text(json.dumps(raw))
        for python in pythons:
            out = tmp_path / name / python.parts[-3] / "out"
            proc = subprocess.run(
                [str(python), "-m", "sdnsim.cli", "run", "--config", str(config),
                 "--out", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == EXIT_OK, proc.stderr
            assert artifact_digest(out) == expected, (name, python)


# -- report writer ----------------------------------------------------------

class Level(IntEnum):
    LOW = 1
    HIGH = 2


@dataclass
class Record:
    t: float
    name: str
    count: int
    level: Level


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf, "é\u2028\x00\x1f\"\\"])
    | st.sampled_from(Level)
)
KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none() | st.sampled_from(Level)
RECORDS = st.builds(Record, st.floats(), st.text(), st.integers(), st.sampled_from(Level)).map(vars)
JSON_VALUES = st.recursive(
    SCALARS | RECORDS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=25,
)

# Strings built from fragments of JSON's own layout: a writer that patches
# encoded text outside its strings mangles some of them.
HOSTILE = st.lists(
    st.sampled_from(["},\n", '": {', ":\n", "[", "]", '"', "\\", "\n", "\n  ", ",", "x"]),
    max_size=4,
).map("".join)
FLAT = st.none() | st.booleans() | st.integers() | st.floats() | HOSTILE
DICT_ROWS = st.dictionaries(HOSTILE | st.integers(), FLAT, min_size=1, max_size=3)
LIST_ROWS = st.lists(FLAT, min_size=1, max_size=3)


# Rows per encode call of the drawn Tables. Small chunks cross a chunk
# boundary in a few rows, so a failing example is small and shrinks fast.
CHUNKS = st.integers(1, 4)


@st.composite
def tables(draw):
    """A list or dict of non-empty flat rows of one type, plain or as a
    Table, often longer than one chunk: a few drawn rows repeated."""
    rows = draw(st.lists(DICT_ROWS, min_size=1, max_size=4)
                | st.lists(LIST_ROWS, min_size=1, max_size=4))
    chunk = draw(CHUNKS)
    n = draw(st.integers(1, 2 * chunk + 3))
    table = [rows[i % len(rows)] for i in range(n)]
    keyed = draw(st.booleans())
    if keyed:
        key = draw(HOSTILE)
        table = {f"{key}{i}": row for i, row in enumerate(table)}
    if draw(st.booleans()):
        return Table(list(table.items()) if keyed else table, keyed, chunk)
    return table


TABLES = tables()


class LazyRows:
    """``n`` rows cycled from ``rows`` (as ``(key, row)`` pairs if
    ``keyed``), each built only as it is drawn; every iteration starts
    afresh."""

    def __init__(self, n, rows, keyed, key=""):
        self.n, self.rows, self.keyed, self.key = n, rows, keyed, key
        self.drawn = 0

    def __iter__(self):
        for i in range(self.n):
            row = self.rows[i % len(self.rows)]
            self.drawn += 1
            yield (f"{self.key}{i}", row) if self.keyed else row


def materialised(value):
    """``value`` with every ``Table`` replaced by the list or dict of its rows."""
    if isinstance(value, Table):
        return (dict if value.keyed else list)(map(materialised, value.rows))
    if isinstance(value, dict):
        return {k: materialised(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [materialised(v) for v in value]
    return value


def lazy_sizes(chunk):
    """No rows, one, one chunk, and just past one and two chunks."""
    return [0, 1, chunk, chunk + 1, 2 * chunk + 1]


# Also many chunks: 256 rows (a whole number of chunks), 257 and 513.
LAZY_SIZES = sorted({*lazy_sizes(TABLE_CHUNK), *lazy_sizes(256)})


@st.composite
def lazy_tables(draw):
    chunk = draw(CHUNKS)
    n = draw(st.sampled_from(lazy_sizes(chunk)))
    rows = draw(st.lists(DICT_ROWS | LIST_ROWS, min_size=1, max_size=4))
    keyed = draw(st.booleans())
    return Table(LazyRows(n, rows, keyed, draw(HOSTILE)), keyed, chunk)


LAZY_TABLES = lazy_tables()


# Where the report holds its Tables: at the top, or as values of dicts at
# any depth, beside plain values.
REPORTS = st.recursive(
    JSON_VALUES | TABLES | LAZY_TABLES,
    lambda inner: st.dictionaries(KEYS | HOSTILE, inner, min_size=1, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(value=REPORTS)
@example(value={"polls": [{"t": 1.0, "deltas": [], "gaussian": None}], "run": {}})
@example(value=[[], {}, (), [[]], {"a": {}}, -0.0, 1e300, math.nan, math.inf, -math.inf])
@example(value={1: "int", 2.5: "float", True: "bool", None: "none", Level.HIGH: [Level.LOW]})
@example(value={1: Table([1]), None: {2.5: Table([], keyed=True)}, Level.HIGH: Table([{}])})
@example(value={"a": {"k": 'x": {y'}, "b": {"k": 1}})
@example(value=[["],\n    [", 1], [{}], [[1]]])
def test_report_writer_matches_json_dump(value):
    fh = io.StringIO()
    write_json(fh, value)
    assert fh.getvalue() == json.dumps(materialised(value))


@pytest.mark.parametrize("keyed", [False, True])
@pytest.mark.parametrize("n", LAZY_SIZES)
def test_lazy_table_writer_matches_json_dump(n, keyed):
    table = Table(LazyRows(n, [{"a": 1.5, "b": "x"}, [None, True]], keyed), keyed)
    for value in (table, {"run": {"table": table, "t": [1.0]}}):
        fh = io.StringIO()
        write_json(fh, value)
        assert fh.getvalue() == json.dumps(materialised(value))


@pytest.mark.parametrize("keyed", [False, True])
def test_table_rows_are_drawn_one_chunk_ahead_of_the_text(keyed):
    rows = LazyRows(3 * TABLE_CHUNK + 1, [{"row": 1}], keyed)
    value = {"run": {"table": Table(rows, keyed)}, "polls": [{"t": 1.0}]}
    written = []

    def write(text):
        # Rows the text written so far holds, against rows drawn.
        assert rows.drawn <= "".join(written).count('"row"') + TABLE_CHUNK
        written.append(text)

    write_json(type("Recorder", (), {"write": staticmethod(write)}), value)
    assert rows.drawn == rows.n
    assert "".join(written) == json.dumps(materialised(value))


def test_table_writer_holds_one_chunk_at_a_time():
    rows = [{"switch": "e1", "src": "10.0.0.1", "packets": 12345, "bytes": 0.5}] * 10_000
    # The same table inside small containers, where the report holds its tables.
    report = {"run": {"samples": Table(rows)},
              "polls": Table([{"t": 1.0, "clustering": {"labels": [0, 1]}}] * 3)}
    # A Table's rows may be scalars.
    verdict = {"detection": {"attack": True, "suspicious": Table(["10.0.0.255"] * 10_000)}}
    for value in (Table(rows), report, verdict):
        writes = []
        fh = type("Recorder", (), {"write": staticmethod(writes.append)})
        write_json(fh, value)
        assert "".join(writes) == json.dumps(materialised(value))
        assert max(map(len, writes)) <= len(json.dumps(rows[:TABLE_CHUNK]))


def test_topology_rows_are_drawn_one_chunk_ahead_of_the_text(monkeypatch):
    topo = build_grid(12, 12, 10)
    assert min(len(topo.nodes), len(topo.links)) > 2 * TABLE_CHUNK
    # Every row reads the names of its nodes: one for a node, two for a link.
    names = []
    name = NodeId.name
    monkeypatch.setattr(NodeId, "name", property(lambda n: names.append(n) or name.fget(n)))
    section = topology_row(topo)
    for key, marker, names_per_row in (("nodes", '"kind": ', 1), ("links", '"a_port": ', 2)):
        names.clear()
        written = []

        def write(text):
            rows = "".join(written).count(marker)
            assert len(names) <= (rows + TABLE_CHUNK) * names_per_row
            written.append(text)

        write_json(type("Recorder", (), {"write": staticmethod(write)}), section[key])
        # Every row was built while its table was written, none before.
        rows = len(getattr(topo, key))
        assert len(names) == rows * names_per_row
        assert "".join(written).count(marker) == rows


def test_rule_table_write_holds_little_per_installed_rule():
    rules = RuleTable()
    n = 3_000
    for i in range(n):
        rules.install(FlowRule(NodeId.core(i % 7, i % 11),
                               f"10.0.{i // 200}.{i % 200}" if i % 3 else None,
                               f"10.1.{i % 13}.{i}", i % 5, BASE_PRIORITY + i % 2))
    sink = type("Sink", (), {"write": staticmethod(len)})
    state = simnet.SimState(build_grid(2, 2, 1), rules, {}, SimConfig())

    def write():
        # As run_scenario writes them: one sort for the dump and the counters.
        entries = cli.rule_order(rules)
        write_json(sink, {"rules_final": Table(cli.rule_rows(entries)),
                          "run": cli.run_section(state, [], entries)})

    write()  # fills the process-wide name cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 25.7 B measured: the one sorted entry list and a chunk of rows. The
    # counters' own string sort keys made it 115; a key tuple per rule for
    # the rules' sort, a dict of key tuples for the counters and 256 rows
    # per encode call made it 202.
    assert peak / n <= 28


class Recorder:
    """A text file that keeps each write's text besides writing it."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_long_run_writes_no_more_than_a_chunk_of_any_growing_section(tmp_path, monkeypatch):
    files = []

    def open_recorded(*args, **kwargs):
        files.append(Recorder(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli, "open", open_recorded, raising=False)
    out = tmp_path / "out"
    # Four hosts per edge: 46 flows, so a flow snapshot holds more than a chunk.
    code, err = run_document(small_raw(hosts_per_edge=4, poll_interval=1.0, duration=300.0), out)
    assert code == EXIT_OK, err
    [recorded] = files
    text = (out / "report.json").read_text()
    assert "".join(recorded.writes) == text
    report = json.loads(text)
    snapshots = report["run"]["flow_snapshots"]
    assert len(snapshots[-1]) > TABLE_CHUNK
    # One marker per poll entry, flow snapshot pair and sample row.
    markers = {
        re.compile('"new_clusters": '): len(report["polls"]),
        re.compile(r'->[0-9.]+": \['): sum(map(len, snapshots)),
        re.compile('"packets_total": '): len(report["run"]["samples"]),
    }
    for marker, entries in markers.items():
        assert entries > TABLE_CHUNK
        counts = [len(marker.findall(w)) for w in recorded.writes]
        assert sum(counts) == entries
        assert max(counts) <= TABLE_CHUNK


# perfbench's fabric workload at its default seed: a 6x6 grid with 8 hosts
# per edge and no attackers, polled every second for 10 s.
FABRIC = {"grid_n": 6, "grid_m": 6, "hosts_per_edge": 8, "base_rate": 0.2,
          "poll_interval": 1.0, "attack_start": 0.0, "duration": 10.0}


def test_report_write_holds_little_over_the_run_state(tmp_path, monkeypatch):
    cfg, _ = validate_config(dict(FABRIC, output_dir=str(tmp_path)))
    assert run_scenario(cfg) == EXIT_OK  # fills the process-wide caches
    held = []

    def open_marked(*args, **kwargs):
        # Opened once the run is done and the report assembled: the run
        # state is what is traced now.
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", open_marked, raising=False)
    tracemalloc.start()
    try:
        assert run_scenario(cfg) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 82.5 kB measured (Python 3.11). A flow snapshot written whole, a
    # StatSample and a dict per stats row read back through the csv module,
    # and vars() of each flow tally made it 165 kB.
    assert len(held) == 1
    assert peak - held[0] <= 91_000
