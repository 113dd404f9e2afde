#!/usr/bin/env python3
"""Check that the tests still kill a catalogue of known mutants.

    python tests/mutants.py [NAME ...]

Each mutant is one exact text substitution in one ``src`` file, with the
tests expected to kill it. For each mutant (all of them unless some are
named), the ``src`` and ``tests`` trees are copied into a temporary
directory, the substitution is applied to the copy, and the named tests run
there under pytest with a fixed hypothesis seed. The unmutated copy must
pass the same tests first. Prints one line per mutant, "killed" or
"survived", and exits 1 if a mutant survives, if its text no longer occurs
exactly once, or if the unmutated copy fails its tests.

This is not part of the tier-1 suite: each mutant is one pytest run. Add
the mutant a change's fence was proven with here, with the tests that kill
it, rather than describing it in prose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str    # relative to the repository root
    old: str     # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "epoch-merges-other-paths",
        "src/sdnsim/simnet.py",
        "if segment is not None and segment[0] is out and segment[1] is ret:",
        "if segment is not None:",
        ("tests/test_runs.py::test_runs_match_the_per_packet_engine_under_rule_edits_between_polls",),
    ),
    Mutant(
        "epoch-defers-throttled-requests",
        "src/sdnsim/simnet.py",
        "if out.link is not None or out.node != topo.server",
        "if out.node != topo.server",
        ("tests/test_runs.py::test_runs_match_the_per_packet_engine_over_a_throttled_host_link",),
    ),
    Mutant(
        "epoch-defers-throttled-responses",
        "src/sdnsim/simnet.py",
        "if ret.link is not None or ret.node != host",
        "if ret.node != host",
        ("tests/test_runs.py::test_runs_match_the_per_packet_engine_over_a_throttled_host_link",),
    ),
    Mutant(
        "epoch-hides-a-loop-to-the-server",
        "src/sdnsim/simnet.py",
        "or out.node != topo.server or len(out.entries) > limit:",
        "or out.node != topo.server:",
        ("tests/test_runs.py::test_a_loop_installed_inside_an_epoch_raises_as_per_packet_does",),
    ),
    Mutant(
        "epoch-creates-missing-tallies",
        "src/sdnsim/simnet.py",
        "request, response = state.flows.get(key), state.flows.get(back)",
        "request, response = state.tally(key), state.tally(back)",
        ("tests/test_runs.py::test_runs_match_the_per_packet_engine_on_throttled_links",),
    ),
    Mutant(
        "epoch-flushes-only-at-the-end",
        "src/sdnsim/simnet.py",
        "if ticks % cfg.poll_every == 0 or ticks >= cfg.steps:",
        "if ticks >= cfg.steps:",
        ("tests/test_cli.py::test_artifacts_match_pinned_digests",),
    ),
    Mutant(
        "kmeans-memo-keyed-on-clients",
        "src/sdnsim/cli.py",
        "if self._clustered[0] != vectors:",
        "if [v.client for v in self._clustered[0]] != [v.client for v in vectors]:",
        ("tests/test_cli.py::test_analyse_reuses_results_only_for_an_equal_input",),
    ),
    Mutant(
        "gaussian-memo-keyed-on-length",
        "src/sdnsim/cli.py",
        "if len(up_rates) >= 2 and self._split[0] != up_rates:",
        "if len(up_rates) >= 2 and len(self._split[0]) != len(up_rates):",
        ("tests/test_cli.py::test_analyse_reuses_results_only_for_an_equal_input",),
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "pyproject.toml"):
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        elif source.exists():
            shutil.copy2(source, dest / name)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(mutant: Mutant) -> str:
    """``killed``, ``survived``, or why the mutant could not be checked."""
    with tempfile.TemporaryDirectory(prefix="sdnsim-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"not applied ({text.count(mutant.old)} matches)"
        if run_tests(tree, mutant.tests) != 0:
            return "baseline fails"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = run_tests(tree, mutant.tests)
    # pytest exits 1 when a test failed; anything else is no verdict.
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")


def main(argv: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] if argv else MUTANTS
    failures = 0
    for mutant in chosen:
        verdict = check(mutant)
        failures += verdict != "killed"
        print(f"{verdict:10}  {mutant.name}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
