#!/usr/bin/env python3
"""Check that the tests still kill a catalogue of known mutants.

    python tests/mutants.py [NAME ...]

Each mutant is one exact text substitution in one ``src`` file, with the
tests expected to kill it. For each mutant (all of them unless some are
named), the ``src`` and ``tests`` trees are copied into a temporary
directory, the substitution is applied to the copy, and the named tests run
there under pytest with a fixed hypothesis seed. The unmutated copy must
pass the same tests first; each distinct set of tests is run unmutated once,
in the first copy that needs it, since many mutants name the same tests.
Prints one line per mutant, "killed" or "survived", and exits 1 if a mutant
survives, if its text no longer occurs exactly once, or if the unmutated
copy fails its tests.

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


SIMNET, CLI = "src/sdnsim/simnet.py", "src/sdnsim/cli.py"
MITIGATION, ROUTING = "src/sdnsim/mitigation.py", "src/sdnsim/routing.py"
ANALYTICS, TOPOLOGY = "src/sdnsim/analytics.py", "src/sdnsim/topology.py"
RUNS = "tests/test_runs.py::"
DIGESTS = "tests/test_cli.py::test_artifacts_match_pinned_digests"
ORACLE = "tests/test_cli.py::test_analyse_builds_each_poll_entry_from_its_samples_alone"
NO_CLUSTER = "tests/test_cli.py::test_an_attack_verdict_that_flags_no_cluster_mitigates_nothing"
GUARDS = "tests/test_simnet.py::test_record_guards_raise_on_every_construction_path"

MUTANTS = [
    # Steady ticks and carried rule counts (simnet)
    Mutant(
        "walked-path-never-carried",
        SIMNET,
        "            state._carried.append(path)\n        run_bytes = count * size\n",
        "            pass\n        run_bytes = count * size\n",
        (DIGESTS,),
    ),
    Mutant(
        "steady-path-never-carried",
        SIMNET,
        "        tally.delivered_bytes += run_bytes\n        if not path.packets:\n"
        "            state._carried.append(path)\n",
        "        tally.delivered_bytes += run_bytes\n",
        (DIGESTS,),
    ),
    Mutant(
        "settle-keeps-the-carried-counts",
        SIMNET,
        "        path.packets = path.bytes = 0\n",
        "",
        (DIGESTS,),
    ),
    Mutant(
        "steady-tallies-before-the-path-checks",
        SIMNET,
        "    back = key.reversed()\n    limit = topo.hop_limit\n",
        "    back = key.reversed()\n    state.tally(key), state.tally(back)\n"
        "    limit = topo.hop_limit\n",
        (RUNS + "test_runs_match_the_per_packet_engine_on_throttled_links",),
    ),
    Mutant(
        "epoch-defers-throttled-requests",
        SIMNET,
        "if out.link is not None or out.node != topo.server",
        "if out.node != topo.server",
        (RUNS + "test_runs_match_the_per_packet_engine_over_a_throttled_host_link",),
    ),
    Mutant(
        "epoch-defers-throttled-responses",
        SIMNET,
        "if ret.link is not None or ret.node != host",
        "if ret.node != host",
        (RUNS + "test_runs_match_the_per_packet_engine_over_a_throttled_host_link",),
    ),
    Mutant(
        "epoch-hides-a-loop-to-the-server",
        SIMNET,
        "or out.node != topo.server or len(out.entries) > limit:",
        "or out.node != topo.server:",
        (RUNS + "test_a_loop_installed_inside_an_epoch_raises_as_per_packet_does",),
    ),
    Mutant(
        "epoch-flushes-only-at-the-end",
        SIMNET,
        "if ticks % cfg.poll_every == 0 or ticks >= cfg.steps:",
        "if ticks >= cfg.steps:",
        (DIGESTS,),
    ),
    # Derived engine state (simnet._rebuild)
    Mutant(
        "rebuild-never-reruns",
        SIMNET,
        "if state._topology_version == state.topology.version:",
        "if state._topology_version != -1:",
        (DIGESTS,),
    ),
    Mutant(
        "rebuild-gives-links-fresh-states",
        SIMNET,
        "{link: state.link_states.get(link) or LinkState(link) for link in links}",
        "{link: LinkState(link) for link in links}",
        (RUNS + "test_runs_match_the_per_packet_engine_under_rule_edits",),
    ),
    # The forwarding-loop raise after a throttled link passed packets
    Mutant(
        "loop-raises-a-lap-later",
        SIMNET,
        "        if hops > limit:\n"
        "            raise SimulationError(f\"forwarding loop for {key.src}->{key.dst}\")\n"
        "        path = _path(",
        "        path = _path(",
        ("tests/test_simnet.py::test_a_loop_through_a_throttled_link_ends_once_the_link_passed_it",),
    ),
    # The report writer (cli)
    Mutant(
        "links-written-as-fresh-states",
        CLI,
        "[link_state_row(ls) for ls in state.link_states.values()]",
        "[link_state_row(simnet.LinkState(ls.link)) for ls in state.link_states.values()]",
        (DIGESTS,),
    ),
    Mutant(
        "counters-in-destination-order",
        CLI,
        "[e.packets, e.bytes]) for e in entries), keyed=True),",
        "[e.packets, e.bytes]) for e in sorted(entries, key=lambda e: e.match_dst)), keyed=True),",
        ("tests/test_cli.py::test_counters_hold_the_rule_dump_in_its_order",),
    ),
    Mutant(
        "snapshot-keys-in-string-order",
        CLI,
        "for i, key in order if i < known}",
        "for i, key in sorted(order, key=lambda item: \"%s->%s\" % item[1]) if i < known}",
        ("tests/test_cli.py::test_flow_snapshots_follow_the_flows_order",),
    ),
    # The analysis and its one-shot mitigation (cli.ScenarioPipeline)
    Mutant(
        "new-clusters-against-the-poll-before-last",
        CLI,
        "            self.prev_clustering = clustering\n",
        "            self.prev_clustering, self._last = getattr(self, \"_last\", clustering), "
        "clustering\n",
        (ORACLE,),
    ),
    Mutant(
        "aggregate-over-every-edge",
        CLI,
        "if d.switch == self.server_edge]",
        "if True]",
        (ORACLE,),
    ),
    Mutant(
        "aggregate-bytes-toward-any-destination",
        CLI,
        "size = sum(d.d_bytes for d in local if d.dst == self.server_ip)",
        "size = sum(d.d_bytes for d in local)",
        (ORACLE,),
    ),
    Mutant(
        "analyse-at-a-later-time",
        CLI,
        "self.polls.append(self.analyse(t, samples))",
        "self.polls.append(self.analyse(t + 1.0, samples))",
        ("tests/test_cli.py::test_csv_replay_rebuilds_report_aggregates_and_analytics",),
    ),
    Mutant(
        "mitigate-with-no-source",
        CLI,
        "        if not verdict[\"suspicious_sources\"]:\n            return\n",
        "",
        (NO_CLUSTER,),
    ),
    Mutant(
        "mitigate-more-than-once",
        CLI,
        "if verdict is None or not verdict[\"attack\"] or self.plan is not None:",
        "if verdict is None or not verdict[\"attack\"]:",
        (NO_CLUSTER,),
    ),
    Mutant(
        "kmeans-memo-keyed-on-clients",
        CLI,
        "if self._clustered[0] != vectors:",
        "if [v.client for v in self._clustered[0]] != [v.client for v in vectors]:",
        ("tests/test_cli.py::test_analyse_reuses_results_only_for_an_equal_input",),
    ),
    Mutant(
        "gaussian-memo-keyed-on-length",
        CLI,
        "if len(up_rates) >= 2 and self._split[0] != up_rates:",
        "if len(up_rates) >= 2 and len(self._split[0]) != len(up_rates):",
        ("tests/test_cli.py::test_analyse_reuses_results_only_for_an_equal_input",),
    ),
    # The rule table and mitigation's edits of it
    Mutant(
        "apply-dry-run-keyed-by-priority",
        MITIGATION,
        "if edit.op == \"add\" and held[match] is not None:",
        "if edit.op == \"add\" and held[match] == r.priority:",
        ("tests/test_mitigation.py::"
         "test_apply_rejects_an_add_onto_a_match_taken_at_another_priority",),
    ),
    Mutant(
        "plan-takes-any-rule-on-the-match",
        MITIGATION,
        "if existing is None or existing.priority != BASE_PRIORITY:",
        "if existing is None:",
        ("tests/test_mitigation.py::test_plan_refuses_a_flow_whose_match_holds_a_redirect",),
    ),
    Mutant(
        "install-onto-a-taken-match",
        ROUTING,
        "        if rules.find(switch, match_src, key.dst):\n            continue\n",
        "",
        ("tests/test_routing.py::test_shared_core_suffix_adds_no_duplicate_dst_rules",),
    ),
    Mutant(
        "all-entries-in-destination-order",
        ROUTING,
        "return list(self._index.values())",
        "return sorted(self._index.values(), key=lambda e: e.match_dst)",
        ("tests/test_routing.py::test_all_entries_keep_install_order_across_a_delete_and_a_reinstall",),
    ),
    # The Gaussian split's merge of an undersized segment
    Mutant(
        "merge-the-lowest-segment-upward",
        ANALYTICS,
        "        if s == 0:\n            cut = 0\n",
        "        if s == 0:\n            cut = len(boundaries) - 1\n",
        ("tests/test_numpy_oracle.py::"
         "test_gaussian_split_merges_an_undersized_lowest_segment_as_numpy_does",),
    ),
    # The records: key order in the report, value equality, guards
    Mutant(
        "flow-tally-counters-swapped",
        SIMNET,
        "self.emitted_packets = self.emitted_bytes = 0",
        "self.emitted_bytes = self.emitted_packets = 0",
        (DIGESTS,),
    ),
    Mutant(
        "config-derived-aggregate-first",
        CLI,
        "        vars(self).update(values)\n        self.designed_legit_aggregate = "
        "designed_legit_aggregate\n",
        "        self.designed_legit_aggregate = designed_legit_aggregate\n"
        "        vars(self).update(values)\n",
        (DIGESTS,),
    ),
    Mutant(
        "feature-vectors-equal-by-client",
        ANALYTICS,
        "    __slots__ = ()\n\n    def as_tuple",
        "    __slots__ = ()\n\n    def __eq__(self, other):\n"
        "        return self.client == other.client\n\n    def as_tuple",
        ("tests/test_cli.py::test_analyse_reuses_results_only_for_an_equal_input",),
    ),
    Mutant(
        "link-port-guard-dropped",
        TOPOLOGY,
        "        if self.a_port < 1 or self.b_port < 1:\n"
        "            raise TopologyError(\"port numbers must be positive\")\n",
        "",
        ("tests/test_topology.py::test_each_topology_guard_raises_and_changes_nothing",),
    ),
    Mutant(
        "link-replace-skips-the-guards",
        TOPOLOGY,
        "    @classmethod\n    def _make(cls, iterable) -> Link:\n        return cls(*iterable)\n",
        "",
        (GUARDS,),
    ),
    Mutant(
        "sim-config-replace-skips-the-guards",
        SIMNET,
        "    @classmethod\n    def _make(cls, iterable) -> SimConfig:\n        return cls(*iterable)\n",
        "",
        (GUARDS,),
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


def check(mutant: Mutant, baselines: dict[tuple[str, ...], int]) -> str:
    """``killed``, ``survived``, or why the mutant could not be checked.
    ``baselines`` holds the unmutated exit code of each set of tests run so
    far, and gains this mutant's if it is new."""
    with tempfile.TemporaryDirectory(prefix="sdnsim-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"not applied ({text.count(mutant.old)} matches)"
        if mutant.tests not in baselines:
            baselines[mutant.tests] = run_tests(tree, mutant.tests)
        if baselines[mutant.tests] != 0:
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
    baselines: dict[tuple[str, ...], int] = {}
    for mutant in chosen:
        verdict = check(mutant, baselines)
        failures += verdict != "killed"
        print(f"{verdict:10}  {mutant.name}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
