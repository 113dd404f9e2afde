#!/usr/bin/env python3
"""Compare the artifacts of two sdnsim source trees over a fixed ladder of
scenarios.

    python tests/ladder.py OLD_SRC NEW_SRC [SCENARIO ...]

Each ``src`` tree is copied into a temporary directory and byte-compiled
there with ``compileall``, so a run's peak RSS and wall time hold no
compilation and nothing is written into the given trees. For each scenario
(all of them unless some are named), runs ``python -m sdnsim.cli run`` from
each copy in turn with the same ``--out`` directory, and compares the exit
codes and the sha256 of ``stats.csv`` and ``report.json``. Prints one line
per scenario, naming what differs (``DIFFERENT (report.json)``), with each
tree's peak RSS and wall time, and exits 1 if any of them differs or fails.

The named scenarios are ``perfbench/workloads.py``'s, some with fields
changed, and one written out. Five of them each reach a branch that no
other scenario runs (``python tests/unreached.py --cli`` lists what none
reaches). The ``generated-<i>`` ones are drawn from a fixed seed over
small grids, server slots, attacker sets (some on the server's edge),
ticks, rates, thresholds and cluster counts; the summary line counts how
many of them mitigate, and when all of them run, a third of them at least
must.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

ARTIFACTS = ("stats.csv", "report.json")
# The artifacts are hashed in a child: hashlib loads OpenSSL (about 3.5 MB
# resident), and a child's peak RSS from wait4 is never below that of the
# process that started it, so this process stays smaller than any run.
# It also prints whether the last artifact, the report, logs a mitigation.
DIGESTS = """import hashlib, pathlib, sys
for path in map(pathlib.Path, sys.argv[1:]):
    print(hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "-")
print(path.is_file() and b'"mitigation_applied"' in path.read_bytes())"""


def _big(**overrides) -> dict:
    """The stock template on a 10x10 grid with 10 hosts per edge, 30 s."""
    return dict(make_config("reference", 1), grid_n=10, grid_m=10, hosts_per_edge=10,
                duration=30.0, **overrides)


def _generated(count: int, seed: int = 30) -> dict[str, dict]:
    """``count`` valid scenarios drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    scenarios = {}
    for i in range(count):
        n, m, k = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 4)
        edges = 2 * n + 2 * m - 4
        server = (rng.randrange(edges), rng.randrange(k))
        hosts = [(u, s) for u in range(edges) for s in range(k) if (u, s) != server]
        attackers = rng.sample(hosts, min(rng.randint(0, 6), len(hosts)))
        beside = [(server[0], s) for s in range(k) if s != server[1]]
        if attackers and beside and rng.random() < 0.4:
            attackers[0] = rng.choice(beside)  # an attacker on the server's edge
            attackers = list(dict.fromkeys(attackers))
        tick = rng.choice([0.25, 0.5, 1.0, 2.0])
        poll = tick * rng.randint(1, 4)
        polls = rng.randint(3, max(3, round(24 / poll)))
        scenarios[f"generated-{i}"] = {
            "grid_n": n, "grid_m": m, "hosts_per_edge": k,
            "server_edge": server[0], "server_slot": server[1],
            "client_matrix": rng.randint(1, 6),
            "base_rate": round(rng.uniform(0.2, 4.0), 3),
            "request_bytes": rng.choice([64, 200, 1000, 1500]),
            "response_bytes": rng.choice([64, 500, 1000, 1500]),
            "attackers": [f"h{s}s{u}" for u, s in attackers],
            "attacker_rate": rng.choice([None, round(rng.uniform(20.0, 400.0), 2)]),
            "attack_start": tick * rng.randint(0, round(polls * poll / tick) // 2),
            "tick": tick,
            "poll_interval": poll,
            "duration": poll * polls,
            "threshold": rng.choice([None, round(rng.uniform(300.0, 6_000.0), 1)]),
            "k_clusters": rng.randint(1, 6),
        }
    return scenarios


GENERATED = _generated(24)
SCENARIOS = {
    **{f"{workload}-s{seed}": make_config(workload, seed)
       for workload in ("reference", "flood") for seed in (1, 3, 7)},
    **{f"fabric-s{seed}": make_config("fabric", seed) for seed in (1, 3)},
    "template-10x10x10": _big(),
    "template-10x10x10-attack-1e5": _big(attacker_rate=1e5),
    "reference-600s": dict(make_config("reference", 1), duration=600.0),
    "reference-3600s": dict(make_config("reference", 1), duration=3600.0),
    # Each of these five reaches a branch that no scenario above runs.
    # The Gaussian split merges an undersized highest segment:
    "template-10x10x10-one-attacker-1e3": _big(attackers=["h2s5"], attacker_rate=1e3),
    # ... and an undersized middle, then lowest one: three clients, at 2, 4
    # and 4 requests/s, and 104 attackers at 3/s from two ticks before a poll:
    "template-10x10x3-slow-attackers": dict(
        make_config("reference", 1), grid_n=10, grid_m=10, client_matrix=2,
        attackers=[f"h{s}s{u}" for u in range(1, 36) for s in range(3) if (u, s) != (1, 0)],
        attacker_rate=3.0, attack_start=18.0, duration=30.0),
    # A flow snapshot's byte count goes beyond 64 bits:
    "reference-request-1e19": dict(make_config("reference", 1), request_bytes=10**19),
    # A tick's budget drains a queued run only in part:
    "reference-10kB": dict(make_config("reference", 1),
                           request_bytes=10_000, response_bytes=10_000),
    # An attack verdict flags no cluster, so it names no source to scrub
    # (drawn as _generated(300, seed=31)["generated-199"]):
    "verdict-without-source": {
        "grid_n": 3, "grid_m": 4, "hosts_per_edge": 2, "server_edge": 3, "server_slot": 1,
        "client_matrix": 6, "base_rate": 1.262, "request_bytes": 200, "response_bytes": 1500,
        "attackers": ["h0s3", "h0s5", "h0s1", "h1s4", "h1s9", "h0s7"],
        "attacker_rate": 397.04, "attack_start": 1.5, "tick": 0.5, "poll_interval": 1.5,
        "duration": 4.5, "threshold": 3618.5, "k_clusters": 4,
    },
    **GENERATED,
}


def compiled_copy(src: Path, dest: Path) -> Path:
    """``dest``, made a byte-compiled copy of the ``src`` tree."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True)
    return dest


def run_tree(src: Path, config: Path, out: Path) -> tuple[tuple, float, float, bool]:
    """The exit code and the artifacts' digests of one run from ``src``,
    with the run's peak RSS in MB, its wall time in seconds and whether it
    mitigated."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdnsim.cli", "run", "--config", str(config), "--out", str(out)],
        cwd=out.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    *digests, mitigated = subprocess.run(
        [sys.executable, "-c", DIGESTS, *(str(out / name) for name in ARTIFACTS)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return ((os.waitstatus_to_exitcode(status), tuple(digests)), usage.ru_maxrss / 1024, wall,
            mitigated == "True")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv[:2]]
    names = argv[2:] or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; known: {', '.join(SCENARIOS)}",
              file=sys.stderr)
        return 2
    differ = 0
    mitigated = 0
    with tempfile.TemporaryDirectory(prefix="sdnsim-ladder-") as work:
        work = Path(work)
        trees = [compiled_copy(tree, work / f"src{i}") for i, tree in enumerate(trees)]
        for name in names:
            config = work / f"{name}.json"
            config.write_text(json.dumps(SCENARIOS[name]))
            (old, *old_cost), (new, *new_cost) = (
                run_tree(src, config, work / "out") for src in trees)
            changed = [part for part, a, b in zip(("exit code", *ARTIFACTS),
                                                  (old[0], *old[1]), (new[0], *new[1])) if a != b]
            verdict = (f"DIFFERENT ({', '.join(changed)})" if changed
                       else "FAILED" if old[0] else "identical")
            differ += verdict != "identical"
            mitigated += name in GENERATED and new_cost[2]
            code, digests = new
            print(f"{verdict}  {name}: exit {old[0]} -> {code}, "
                  + ", ".join(f"{a} {d[:12]}" for a, d in zip(ARTIFACTS, digests))
                  + ", peak RSS {:.2f} -> {:.2f} MB, wall {:.3f} -> {:.3f} s".format(
                      old_cost[0], new_cost[0], old_cost[1], new_cost[1])
                  + (", mitigates" if new_cost[2] else ""),
                  flush=True)
    print(f"{len(names) - differ} of {len(names)} scenarios identical")
    generated = sum(name in GENERATED for name in names)
    if generated:
        print(f"{mitigated} of {generated} generated scenarios mitigate")
    # The whole generated set must reach mitigation, not only the poll.
    too_few = generated == len(GENERATED) and 3 * mitigated < generated
    return 1 if differ or too_few else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
