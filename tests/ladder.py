#!/usr/bin/env python3
"""Compare the artifacts of two sdnsim source trees over a fixed ladder of
scenarios.

    python tests/ladder.py OLD_SRC NEW_SRC [SCENARIO ...]

For each scenario (all of them unless some are named), runs ``python -m
sdnsim.cli run`` from each ``src`` tree in turn with the same ``--out``
directory, and compares the exit codes and the sha256 of ``stats.csv`` and
``report.json``. Prints one line per scenario and exits 1 if any of them
differs or fails. The scenario configs come from ``perfbench/workloads.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_config  # noqa: E402

ARTIFACTS = ("stats.csv", "report.json")


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


def run_tree(src: Path, config: Path, out: Path) -> tuple:
    """The exit code and the artifacts' digests of one run from ``src``."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "sdnsim.cli", "run", "--config", str(config), "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True,
    )
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).is_file() else None
        for name in ARTIFACTS
    )
    return proc.returncode, digests


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
        for name in names:
            config = work / f"{name}.json"
            config.write_text(json.dumps(SCENARIOS[name]))
            old, new = (run_tree(src, config, work / "out") for src in trees)
            verdict = "DIFFERENT" if old != new else "FAILED" if old[0] else "identical"
            differ += verdict != "identical"
            code, digests = new
            print(f"{verdict}  {name}: exit {old[0]} -> {code}, "
                  + ", ".join(f"{a} {d[:12] if d else '-'}" for a, d in zip(ARTIFACTS, digests)),
                  flush=True)
    print(f"{len(names) - differ} of {len(names)} scenarios identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
