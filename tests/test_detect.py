import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdnsim.analytics import Clustering, cluster_sharpness, detect, median

REPO = Path(__file__).resolve().parents[1]


def make_clustering(clusters):
    """clusters: list of (centroid, std, members)."""
    centroids = [c[0] for c in clusters]
    stds = [c[1] for c in clusters]
    members = [list(c[2]) for c in clusters]
    assignment = {m: i for i, ms in enumerate(members) for m in ms}
    return Clustering(len(clusters), centroids, assignment, members, stds)


LEGIT = (
    (10.0, 10.0, 2000.0, 10_000.0),
    (4.0, 4.0, 800.0, 4000.0),  # cv 0.4 per dimension
    ["10.0.1.0", "10.0.1.1", "10.0.2.0"],
)
ATTACK = (
    (250.0, 250.0, 50_000.0, 250_000.0),
    (5.0, 5.0, 1000.0, 5000.0),  # cv 0.02 per dimension
    ["10.0.3.0", "10.0.3.1"],
)


def test_below_threshold_is_not_an_attack():
    report = detect(1e4, 1e6, make_clustering([LEGIT, ATTACK]), target="10.0.0.0")
    assert report.attack is False
    assert report.suspicious_clusters == []
    assert report.suspicious_sources == []


def test_rate_exactly_at_threshold_is_not_an_attack():
    report = detect(1e6, 1e6, make_clustering([LEGIT, ATTACK]))
    assert report.attack is False


def test_intense_sharp_cluster_is_flagged_and_dispersed_one_is_not():
    clustering = make_clustering([LEGIT, ATTACK])
    report = detect(300_000.0, 50_000.0, clustering, target="10.0.0.0")
    assert report.attack is True
    assert report.suspicious_clusters == [1]
    assert report.suspicious_sources == sorted(ATTACK[2])
    flags = [c["flagged"] for c in report.rationale["clusters"]]
    assert flags == [False, True]
    assert report.rationale["low_confidence"] is False


def test_sharpness_is_mean_cv_with_zero_dimensions_skipped():
    assert cluster_sharpness((10.0, 0.0, 100.0, 0.0), (1.0, 0.0, 20.0, 0.0)) == (
        (0.1 + 0.2) / 2
    )
    assert cluster_sharpness((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)) == 0.0


def test_identical_clusters_all_flagged_deterministically():
    twin = (
        (100.0, 100.0, 9000.0, 9000.0),
        (1.0, 1.0, 90.0, 90.0),
        ["10.0.1.0"],
    )
    twin2 = (twin[0], twin[1], ["10.0.2.0"])
    twin3 = (twin[0], twin[1], ["10.0.3.0"])
    reports = [
        detect(1e6, 1e3, make_clustering([twin, twin2, twin3])) for _ in range(2)
    ]
    for report in reports:
        # all clusters sit exactly at the mean intensity and median sharpness
        assert report.suspicious_clusters == [0, 1, 2]
    assert reports[0] == reports[1]


def test_single_cluster_flagged_with_low_confidence():
    report = detect(1e6, 1e3, make_clustering([ATTACK]))
    assert report.attack is True
    assert report.suspicious_clusters == [0]
    assert report.rationale["low_confidence"] is True


def test_suspicious_sources_union_over_flagged_clusters():
    second_attack = (ATTACK[0], ATTACK[1], ["10.0.4.0"])
    clustering = make_clustering([LEGIT, ATTACK, second_attack])
    report = detect(1e6, 1e3, clustering)
    assert report.suspicious_clusters == [1, 2]
    assert report.suspicious_sources == sorted(ATTACK[2] + second_attack[2])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0]),
                min_size=1, max_size=12))
def test_median_matches_numpy(values):
    with np.errstate(invalid="ignore", over="ignore"):
        expected = float(np.median(values))
    # repr tells -0.0 from 0.0 and compares NaN equal to itself.
    assert repr(median(values)) == repr(expected)


def test_detecting_run_does_not_import_numpy_ma(tmp_path):
    code = (
        "import sys\n"
        "from sdnsim import cli\n"
        f"cfg, _ = cli.validate_config(dict(cli.reference_template(), output_dir={str(tmp_path)!r}))\n"
        "assert cli.run_scenario(cfg) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    # The run took the k > 1 path, the one that takes a median.
    polls = json.loads((tmp_path / "report.json").read_text())["polls"]
    assert any(p["detection"] and p["detection"]["attack"] and p["clustering"]["k"] > 1
               for p in polls)
