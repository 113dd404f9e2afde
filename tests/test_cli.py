import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdnsim import analytics, cli, simnet, telemetry
from sdnsim.analytics import FeatureVector, build_features, decompose_gaussian_1d, kmeans
from sdnsim.cli import (
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    TABLE_CHUNK,
    Table,
    build_scenario,
    clustering_row,
    main,
    matrix_rates,
    reference_template,
    run_scenario,
    sample_rows,
    validate_config,
    write_json,
)
from sdnsim.simnet import SimConfig, SimulationError, TrafficKind, TrafficProfile
from sdnsim.telemetry import StatSample, aggregate_by_destination, delta, read_stats_csv
from sdnsim.topology import MAX_HOSTS_PER_EDGE


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
    topo, rules, profiles, sim_cfg = build_scenario(cfg)
    kinds = {}
    for host, profile in profiles.items():
        kinds[profile.kind] = kinds.get(profile.kind, 0) + 1
    assert kinds[TrafficKind.SERVER] == 1
    assert kinds[TrafficKind.ATTACKER] == 2
    # 2*(2*2+2*3-4) hosts = 12; minus server and 2 attackers
    assert kinds[TrafficKind.LEGIT] == 9
    assert topo.server == topo.host_of_ip["10.0.0.0"]


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


def test_csv_replay_rebuilds_report_aggregates_and_analytics(tmp_path):
    # The report keeps neither per-flow deltas nor feature vectors: stats.csv
    # is their one record, and the analytics' outputs follow from it.
    cfg, _ = validate_config(small_raw(output_dir=str(tmp_path / "out")))
    assert run_scenario(cfg) == EXIT_OK
    samples = list(read_stats_csv(tmp_path / "out" / "stats.csv"))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    topo = build_scenario(cfg)[0]
    server_ip = topo.ip_of[topo.server]
    server_edge = topo.edge_of_host(topo.server).name

    last_seen = {}
    previous = None
    assert sorted({s.timestamp for s in samples}) == [p["t"] for p in report["polls"]]
    for poll in report["polls"]:
        assert list(poll) == POLL_KEYS
        batch = [s for s in samples if s.timestamp == poll["t"]]
        local = [d for d in delta(last_seen, batch) if d.switch == server_edge]
        packets, size = aggregate_by_destination(local).get(server_ip, (0, 0))
        byte_rate = size / cfg.poll_interval
        assert poll["aggregate"] == {"packets": packets, "bytes": size, "byte_rate": byte_rate}
        vectors = build_features(local, server_ip, cfg.poll_interval)
        if not vectors:
            assert (poll["clustering"], poll["detection"], poll["gaussian"]) == (None,) * 3
            continue
        clustering = kmeans(vectors, min(cfg.k_clusters, len(vectors)))
        assert poll["clustering"] == as_json(clustering_row(clustering))
        verdict = analytics.detect(byte_rate, cfg.threshold, clustering, server_ip)
        assert poll["detection"] == as_json(vars(verdict))
        up_rates = [v.byte_rate_up for v in vectors]
        assert poll["gaussian"] == (
            as_json([vars(c) for c in decompose_gaussian_1d(up_rates, cfg.bandwidth)])
            if len(up_rates) >= 2 else None)
        if previous is not None:
            radius = max([1.0] + [0.1 * math.hypot(*c) for c in previous.centroids])
            assert poll["new_clusters"] == analytics.compare_clusterings(
                previous, clustering, radius)
        previous = clustering
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


def test_mitigation_fires_once_in_attack_scenario(tmp_path):
    cfg, _ = validate_config(small_raw(output_dir=str(tmp_path / "out")))
    run_scenario(cfg)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    events = [e["event"] for e in report["run"]["events"]]
    assert events.count("mitigation_applied") == 1
    assert report["mitigation"]["scrubber"] == "s200"
    assert report["mitigation_time"] == 25.0


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
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(small_raw()))
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out), "--seed", "99"])
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99


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
])
def test_next_run_recovers_from_a_kill_inside_the_commit(tmp_path, monkeypatch, moves, left):
    out = tmp_path / "out"
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
    rows = list(sample_rows(samples))
    assert rows == [s._asdict() for s in samples]
    assert [list(row) for row in rows] == [list(StatSample._fields)] * 2


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
    # The long run still holds its poll entries (about 8 kB each here). The
    # ratio measured 2.06; it was 2.76 with the run's samples kept, 2.54
    # with each flow snapshot a dict, and 4.22 with both and the poll
    # entries written 256 per encode call.
    assert long < 2.3 * short


# -- ValueError audit -----------------------------------------------------

# Each ValueError that a traffic profile, the tick rule or an analytics step
# raises on a bad value, with a config document that would carry that value
# to it.
VALUE_ERRORS = {
    "negative legit rate": (lambda: TrafficProfile(TrafficKind.LEGIT, -1.0),
                            {"base_rate": -1.0}),
    "negative attacker rate": (lambda: TrafficProfile(TrafficKind.ATTACKER, -1.0),
                               {"attackers": ["h1s1"], "attacker_rate": -1.0}),
    "empty request": (lambda: TrafficProfile(TrafficKind.LEGIT, 1.0, request_size=0),
                      {"request_bytes": 0}),
    "empty response": (lambda: TrafficProfile(TrafficKind.SERVER, response_size=0),
                       {"response_bytes": 0}),
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
    (cli, "TrafficProfile"),
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
SMALL_RAW_DIGEST = "2e1f2e7eea5abbf0f90331b21d2a70bf1a1f21c92a70e7ea6e2d23a2d5241c5e"
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


LAZY_SIZES = lazy_sizes(TABLE_CHUNK)


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
    code, err = run_document(small_raw(poll_interval=1.0, duration=300.0), out)
    assert code == EXIT_OK, err
    [recorded] = files
    text = (out / "report.json").read_text()
    assert "".join(recorded.writes) == text
    report = json.loads(text)
    # One marker per poll entry, flow snapshot and sample row.
    markers = {
        '"new_clusters": ': len(report["polls"]),
        '{"10.0.': len(report["run"]["flow_snapshots"]),
        '"packets_total": ': len(report["run"]["samples"]),
    }
    for marker, entries in markers.items():
        assert entries > TABLE_CHUNK
        assert sum(w.count(marker) for w in recorded.writes) == entries
        assert max(w.count(marker) for w in recorded.writes) <= TABLE_CHUNK
    # A flow snapshot grows with the flows, not with the run: one per write.
    assert max(w.count('{"10.0.') for w in recorded.writes) == 1
