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
per scenario, with each tree's peak RSS and wall time, and exits 1 if any
of them differs or fails. The scenario configs come from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import json
import os
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
DIGESTS = """import hashlib, pathlib, sys
for path in map(pathlib.Path, sys.argv[1:]):
    print(hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "-")"""


def _big(**overrides) -> dict:
    """The stock template on a 10x10 grid with 10 hosts per edge, 30 s."""
    return dict(make_config("reference", 1), grid_n=10, grid_m=10, hosts_per_edge=10,
                duration=30.0, **overrides)


SCENARIOS = {
    **{f"{workload}-s{seed}": make_config(workload, seed)
       for workload in ("reference", "flood") for seed in (1, 3, 7)},
    **{f"fabric-s{seed}": make_config("fabric", seed) for seed in (1, 3)},
    "template-10x10x10": _big(),
    "template-10x10x10-attack-1e5": _big(attacker_rate=1e5),
    "reference-600s": dict(make_config("reference", 1), duration=600.0),
    "reference-3600s": dict(make_config("reference", 1), duration=3600.0),
}


def compiled_copy(src: Path, dest: Path) -> Path:
    """``dest``, made a byte-compiled copy of the ``src`` tree."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True)
    return dest


def run_tree(src: Path, config: Path, out: Path) -> tuple[tuple, float, float]:
    """The exit code and the artifacts' digests of one run from ``src``,
    with the run's peak RSS in MB and its wall time in seconds."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "sdnsim.cli", "run", "--config", str(config), "--out", str(out)],
        cwd=out.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    digests = tuple(subprocess.run(
        [sys.executable, "-c", DIGESTS, *(str(out / name) for name in ARTIFACTS)],
        capture_output=True, text=True, check=True,
    ).stdout.split())
    return (os.waitstatus_to_exitcode(status), digests), usage.ru_maxrss / 1024, wall


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
    with tempfile.TemporaryDirectory(prefix="sdnsim-ladder-") as work:
        work = Path(work)
        trees = [compiled_copy(tree, work / f"src{i}") for i, tree in enumerate(trees)]
        for name in names:
            config = work / f"{name}.json"
            config.write_text(json.dumps(SCENARIOS[name]))
            (old, *old_cost), (new, *new_cost) = (
                run_tree(src, config, work / "out") for src in trees)
            verdict = "DIFFERENT" if old != new else "FAILED" if old[0] else "identical"
            differ += verdict != "identical"
            code, digests = new
            print(f"{verdict}  {name}: exit {old[0]} -> {code}, "
                  + ", ".join(f"{a} {d[:12]}" for a, d in zip(ARTIFACTS, digests))
                  + ", peak RSS {:.2f} -> {:.2f} MB, wall {:.3f} -> {:.3f} s".format(
                      old_cost[0], new_cost[0], old_cost[1], new_cost[1]),
                  flush=True)
    print(f"{len(names) - differ} of {len(names)} scenarios identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
