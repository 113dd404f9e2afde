"""The benchmark's tracer (``perfbench/child.py --trace``) wraps sdnsim
functions by name and reads the engine's link state on every tick. This
checks that a refactor keeps what it relies on."""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import small_raw

REPO = Path(__file__).resolve().parents[1]

# Every span that ``install_spans`` installs; ``small_raw()`` reaches each
# one. A call that bypasses the wrapped module attribute (say, ``cli``
# importing ``kmeans`` by name) would drop its layer from the trace.
SPANS = {
    "cli.validate", "cli.run_scenario", "cli.build_scenario", "topology.build",
    "analytics.on_poll", "simnet.run", "simnet.step", "routing.packet_in",
    "routing.shortest_path", "telemetry.poll", "telemetry.delta", "telemetry.csv_write",
    "analytics.features", "analytics.kmeans", "analytics.gaussian", "analytics.detect",
    "analytics.compare", "mitigation.plan", "mitigation.apply",
}


def test_traced_child_run_keeps_its_spans_and_link_tallies(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(small_raw()))  # detects, then throttles
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"),
         "--src", str(REPO / "src"), "--config", str(config),
         "--out", str(tmp_path / "out"), "--result", str(result), "--trace"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    spans = json.loads(result.read_text())["spans"]
    assert SPANS - {span[0] for span in spans} == set()

    counts = [span[4] for span in spans if span[0] == "simnet.step"][-1]
    assert len(counts) == 4 and all(type(c) is int for c in counts)
    entered, passed, dropped, queued = counts
    assert entered > 0
    assert entered == passed + dropped + queued
    # The queue counts packets, not runs: the tracer's queue depth (and so
    # the benchmark's simnet.link.queue_peak) agrees with the report.
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert queued == sum(link["queued_packets"] for link in report["run"]["links"])
    assert queued > 0
