"""Scenario runner: config validation, orchestration, artifact output.

A scenario is a flat JSON document (unknown keys are rejected so typos in
sweep scripts fail loudly). ``run`` executes it and writes two artifacts
into the output directory: ``stats.csv`` (the raw poll samples, appended
poll by poll as the run goes) and ``report.json`` (rule dumps, per-poll
analytics, mitigation plan, final tallies). Both are byte-stable for a
fixed config; its ``seed`` is recorded metadata, since the simulation draws
no random numbers. The per-poll, per-flow deltas and the feature vectors
built from them are not stored. A poll entry is a function of the poll's
samples and the polls before it: ``ScenarioPipeline.analyse`` builds it in
the run, and the same method on a fresh pipeline, fed the samples of
``telemetry.read_stats_csv`` poll by poll, rebuilds each entry from
``stats.csv``.

This module alone knows the report's format. Config and flow tallies are
written as ``vars(record)``, Gaussian components and verdicts as
``record._asdict()``, and events as they were logged; every other row is
built from the live object by one ``*_row`` or ``*_rows`` function here as
it is written, and the classes they read carry no report form of their own.

``report.json`` is written from the live run state and never exists in
memory as a whole. Each section that grows with the run's length, and each
per-node, per-link, per-flow or per-rule table, is named as a ``Table``
where the report is assembled. ``write_json`` encodes a ``Table``
``TABLE_CHUNK`` rows per call (poll entries and flow snapshots, whose size
follows the network, one per call), building the rows of nodes, links,
samples, snapshots, flows and rules as it goes, and anything else in one
call. The rule table's entries are sorted once, for ``rules_final`` and
``run.counters`` alike, and the flows once, for ``run.flows`` and each flow
snapshot's keys alike. The run keeps no samples: ``run.samples`` is read
back from the stats file written during the run, and each flow snapshot is
a compact array until its row is written.

Exit codes: 0 clean run, 2 configuration problems, 3 internal invariant
violations.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import reduce
from operator import add, attrgetter
from pathlib import Path

from . import analytics, mitigation, simnet, telemetry, topology
from .routing import FlowKey, FlowRule, RuleEntry, RuleTable
from .simnet import SimConfig, SimulationError, legit_rate, tick_errors
from .telemetry import CounterRegressionError
from .topology import MAX_HOSTS_PER_EDGE, NodeId, TopologyError, build_grid, parse_host_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


# The config document's fields, in order: each one's default and, for a
# number, its valid range (minimum, then maximum or None). A number whose
# default is an int takes integers only; one defaulting to None may be left
# null, and validation then derives its value.
CONFIG_FIELDS = {
    "grid_n": (3, 2, None),
    "grid_m": (4, 2, None),
    "hosts_per_edge": (3, 1, MAX_HOSTS_PER_EDGE),
    "server_edge": (0, 0, None),
    "server_slot": (0, 0, None),
    "client_matrix": (5, 1, None),
    "base_rate": (2.0, 1e-9, None),
    "request_bytes": (200, 1, None),
    "response_bytes": (1000, 1, None),
    "attackers": ([], None, None),
    "attacker_rate": (None, 1e-9, None),
    "attack_start": (20.0, 0, None),
    "duration": (60.0, 0, None),
    "tick": (1.0, 1e-9, None),
    "poll_interval": (5.0, 1e-9, None),
    "seed": (1, 0, None),  # recorded in the report; nothing draws from it
    "threshold": (None, 1e-9, None),
    "k_clusters": (5, 1, None),
    "bandwidth": (None, 1e-9, None),
    "output_dir": ("out", None, None),
}
DEFAULTS = {name: default for name, (default, _, _) in CONFIG_FIELDS.items()}
# The engine's values, which the config holds under the same names.
SIM_FIELDS = SimConfig._fields


class ScenarioConfig:
    """A validated config: every field of ``CONFIG_FIELDS``, in its order,
    then the designed legitimate aggregate that validation derives."""

    def __init__(self, values: dict, designed_legit_aggregate: float) -> None:
        vars(self).update(values)
        self.designed_legit_aggregate = designed_legit_aggregate


def matrix_rates(n_clients: int, k_matrix: int, base: float) -> list[float]:
    """Rates for n clients laid over the K x K triangular matrix, in order.

    Clients beyond K*K wrap around to the start of the matrix.
    """
    rates = []
    for t in range(n_clients):
        pos = t % (k_matrix * k_matrix)
        rates.append(legit_rate(pos // k_matrix, pos % k_matrix, k_matrix, base))
    return rates


def _is_number(value) -> bool:
    # NaN, the infinities and integers beyond the float range are rejected.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _as_float(value) -> float:
    """``float(value)``, or infinity for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def validate_config(raw: dict) -> tuple[ScenarioConfig | None, list[str]]:
    """Validate and fully default a raw config document.

    Returns either a resolved config and no errors, or None plus the
    complete list of violations.
    """
    errors: list[str] = []
    if not isinstance(raw, dict):
        return None, ["config document must be a JSON object"]
    for key in raw:
        if key not in DEFAULTS:
            errors.append(f"unknown field: {key}")

    values = dict(DEFAULTS)
    values.update({k: v for k, v in raw.items() if k in DEFAULTS})

    for name, (default, minimum, maximum) in CONFIG_FIELDS.items():
        if minimum is None:
            continue
        v = values[name]
        integer = isinstance(default, int)
        if v is None:
            if default is not None:
                errors.append(f"{name} must be set")
        elif not _is_number(v) or (integer and not isinstance(v, int)):
            errors.append(f"{name} must be {'an integer' if integer else 'a number'}")
            values[name] = None
        elif v < minimum:
            errors.append(f"{name} must be >= {minimum}")
            values[name] = None
        elif maximum is not None and v > maximum:
            errors.append(f"{name} must be <= {maximum}")
            values[name] = None

    output_dir = values["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir must be a non-empty string")

    tick = values["tick"]
    if tick is not None:
        errors += tick_errors(tick, values["duration"], values["poll_interval"])

    n, m, k = values["grid_n"], values["grid_m"], values["hosts_per_edge"]
    server_edge, server_slot = values["server_edge"], values["server_slot"]
    edge_count = 2 * n + 2 * m - 4 if n is not None and m is not None else None
    if edge_count is not None and server_edge is not None and server_edge >= edge_count:
        errors.append(f"server_edge must be < {edge_count}")
    if k is not None and server_slot is not None and server_slot >= k:
        errors.append(f"server_slot must be < {k}")

    attackers = values["attackers"]
    if not isinstance(attackers, list) or not all(isinstance(a, str) for a in attackers):
        errors.append("attackers must be a list of host names")
        attackers = []
    else:
        seen = set()
        for name in attackers:
            if name in seen:
                errors.append(f"duplicate attacker: {name}")
            seen.add(name)
            try:
                host = parse_host_name(name)
            except TopologyError:
                errors.append(f"bad attacker host name: {name}")
                continue
            u, slot = host.index
            if edge_count is not None and (u >= edge_count or (k is not None and slot >= k)):
                errors.append(f"attacker {name} outside the grid")
            elif (
                server_edge is not None
                and server_slot is not None
                and (u, slot) == (server_edge, server_slot)
            ):
                errors.append(f"attacker {name} is the server")

    if errors:
        return None, errors

    n_legit = k * edge_count - 1 - len(attackers)
    rates = matrix_rates(n_legit, values["client_matrix"], values["base_rate"])
    # Added in order, as sum() did before Python 3.12 (see analytics).
    designed = reduce(add, rates, 0) * values["request_bytes"]
    if values["attacker_rate"] is None:
        # Default: 10x the triangular profile's top rate.
        top = _as_float(2 * values["client_matrix"] - 1)
        values["attacker_rate"] = 10.0 * values["base_rate"] * top
    if values["threshold"] is None:
        values["threshold"] = 10.0 * _as_float(designed)
    # In-range inputs can still multiply past the float range.
    peak_rate = max(rates + ([values["attacker_rate"]] if attackers else []), default=0)
    # A flow's poll interval holds at most rate * interval + 1 packets each
    # way; k-means and the Gaussian split sum squares of four such byte
    # rates per client.
    peak_bytes = (_as_float(peak_rate) + 1.0 / values["poll_interval"]) * _as_float(
        max(values["request_bytes"], values["response_bytes"])
    )
    derived = {
        "attacker_rate": values["attacker_rate"],
        "threshold": values["threshold"],
        "designed_legit_aggregate": designed,
        "peak requests per tick": _as_float(peak_rate) * values["tick"],
        "peak per-flow byte rate": peak_bytes,
        "sum of squared per-flow byte rates": 4.0 * (k * edge_count - 1) * peak_bytes * peak_bytes,
    }
    errors = [f"{name} derived from this config is not finite"
              for name, value in derived.items() if not _is_number(value)]
    if errors:
        return None, errors
    for name, (default, minimum, _) in CONFIG_FIELDS.items():
        if minimum is not None and not isinstance(default, int) and values[name] is not None:
            values[name] = float(values[name])
    values["attackers"] = list(attackers)
    return ScenarioConfig(values, designed), []


def build_scenario(cfg: ScenarioConfig):
    """Materialize topology, rule table, request rates and engine config
    from a config."""
    topo = build_grid(cfg.grid_n, cfg.grid_m, cfg.hosts_per_edge)
    server = NodeId.host(cfg.server_edge, cfg.server_slot)
    topo.server = server
    topo.attackers = {parse_host_name(name) for name in cfg.attackers}

    legit = [h for h in topo.hosts() if h != server and h not in topo.attackers]
    rates = dict(zip(legit, matrix_rates(len(legit), cfg.client_matrix, cfg.base_rate)))
    rates.update(dict.fromkeys(topo.attackers, cfg.attacker_rate))
    sim_cfg = SimConfig(**{name: getattr(cfg, name) for name in SIM_FIELDS})
    return topo, RuleTable(), rates, sim_cfg


class ScenarioPipeline:
    """Per-poll analysis, detection and one-shot mitigation.

    ``analyse`` builds a poll's ``report.json`` entry from that poll's
    samples alone, given the analysis of the polls before it, which it keeps
    in ``last_seen`` and ``prev_clustering``. It reads no run state, so it
    is the one way to build a poll entry, in a run and in a replay of
    ``stats.csv``. ``on_poll`` analyses each poll, then acts on the verdict.

    k-means and the Gaussian split are pure functions of their input, which
    on steady traffic repeats from poll to poll. The pipeline keeps the last
    input of each with its result, and reuses the result when the next input
    compares equal (``FeatureVector``, a named tuple, compares by value).
    ``detect`` and ``compare_clusterings`` run on every poll.
    """

    def __init__(self, cfg: ScenarioConfig, topo):
        self.cfg = cfg
        self.server_ip = topo.ip_of[topo.server]
        self.server_edge = topo.edge_of_host(topo.server).name
        self.last_seen: dict[tuple[str, str, str], tuple[int, int]] = {}
        self.prev_clustering: analytics.Clustering | None = None
        # The last input of k-means and of the Gaussian split, with its result.
        self._clustered: tuple[list, analytics.Clustering | None] = ([], None)
        self._split: tuple[list, list] = ([], [])
        self.polls: list[dict] = []
        self.plan: mitigation.MitigationPlan | None = None

    def analyse(self, t: float, samples) -> dict:
        """The poll entry of the samples taken at ``t``; its ``detection``
        is the verdict."""
        # Detection looks at the target's own edge switch so the two polled
        # edges of a flow are not double-counted.
        local = [d for d in telemetry.delta(self.last_seen, samples)
                 if d.switch == self.server_edge]
        packets = sum(d.d_packets for d in local if d.dst == self.server_ip)
        size = sum(d.d_bytes for d in local if d.dst == self.server_ip)
        byte_rate = size / self.cfg.poll_interval
        vectors = analytics.build_features(local, self.server_ip, self.cfg.poll_interval)
        clustering = report = None
        if vectors:
            if self._clustered[0] != vectors:
                self._clustered = (vectors, analytics.kmeans(
                    vectors, min(self.cfg.k_clusters, len(vectors))))
            clustering = self._clustered[1]
            report = analytics.detect(byte_rate, self.cfg.threshold, clustering)
        up_rates = [v.byte_rate_up for v in vectors]
        if len(up_rates) >= 2 and self._split[0] != up_rates:
            self._split = (up_rates, analytics.decompose_gaussian_1d(up_rates, self.cfg.bandwidth))
        entry = {
            "t": t,
            "aggregate": {"packets": packets, "bytes": size, "byte_rate": byte_rate},
            "gaussian": [c._asdict() for c in self._split[1]] if len(up_rates) >= 2 else None,
            # Cluster-history matching within a tenth of the largest known
            # centroid magnitude, floored at 1 to survive all-idle polls.
            "new_clusters": analytics.compare_clusterings(
                self.prev_clustering, clustering,
                max([1.0] + [0.1 * math.hypot(*c) for c in self.prev_clustering.centroids]),
            ) if clustering is not None and self.prev_clustering is not None else None,
            "clustering": clustering_row(clustering) if clustering is not None else None,
            "detection": report._asdict() if report is not None else None,
        }
        if clustering is not None:
            self.prev_clustering = clustering
        return entry

    def on_poll(self, state, t: float, samples) -> None:
        self.polls.append(self.analyse(t, samples))
        verdict = self.polls[-1]["detection"]
        # A verdict after mitigation is in its poll's detection alone.
        if verdict is None or not verdict["attack"] or self.plan is not None:
            return
        state.events.append({"t": t, "event": "attack_detected"})
        if not verdict["suspicious_sources"]:
            return
        self.plan = mitigation.plan_scrubber(
            self.server_ip, verdict["suspicious_sources"], state.topology, state.rules)
        mitigation.apply(self.plan, state.topology, state.rules)
        state.events.append({"t": t, "event": "mitigation_applied"})


# Rows per encode call of a Table: memory holds one chunk's rows and text at
# a time. On `fabric`, 32 rows peaked 0.14 MB below 64 and 0.38 MB below 256,
# and 16 did no better, at about the same write time.
TABLE_CHUNK = 32
# The report is a tree of fresh rows and run state, with no cycle to look
# for; skipping the check takes about an eighth off each encode call.
_encode = json.JSONEncoder(check_circular=False).encode


# A JSON list, or with ``keyed`` a JSON object, whose items (or ``(key,
# value)`` pairs) ``write_json`` draws from ``rows`` ``chunk`` at a time, as
# it writes them. A generator as ``rows`` is spent by one write.
Table = namedtuple("Table", "rows keyed chunk", defaults=(False, TABLE_CHUNK))


def write_json(fh, obj) -> None:
    """Write ``obj`` as ``json.dump(obj, fh)`` does, with the C encoder; a
    ``Table`` is written as the list or dict of its rows.

    A ``Table`` is encoded ``chunk`` rows per call, and a dict is written
    key by key. Anything else is encoded in one call, so a list that grows
    with the run belongs in a ``Table``.
    """
    if isinstance(obj, Table):
        rows = iter(obj.rows)
        fh.write("{" if obj.keyed else "[")
        separator = ""
        while chunk := (dict if obj.keyed else list)(itertools.islice(rows, obj.chunk)):
            fh.write(separator + _encode(chunk)[1:-1])
            separator = ", "
        fh.write("}" if obj.keyed else "]")
    elif isinstance(obj, dict):
        fh.write("{")
        separator = ""
        for key, value in obj.items():
            # '"key": ', with the encoder's own quoting of non-str keys.
            fh.write(separator + _encode({key: 0})[1:-2])
            write_json(fh, value)
            separator = ", "
        fh.write("}")
    else:
        fh.write(_encode(obj))


def link_row(link: topology.Link) -> dict:
    """A link's fields, with node ids replaced by their names."""
    return {**link._asdict(), "a": link.a.name, "b": link.b.name}


def topology_row(topo: topology.Topology) -> dict:
    """The nodes in canonical order, the links in the order they were
    added, and the roles."""
    return {
        "nodes": Table({"name": n.name, "kind": n.kind.name.lower()} for n in sorted(topo.nodes)),
        "links": Table(map(link_row, topo.links)),
        "roles": {
            "server": topo.server.name if topo.server else None,
            "attackers": sorted(a.name for a in topo.attackers),
            "addresses": {n.name: topo.ip_of[n] for n in sorted(topo.ip_of)},
        },
    }


def rule_row(rule: FlowRule | RuleEntry) -> dict:
    return {"switch": rule.switch.name, "match_src": rule.match_src,
            "match_dst": rule.match_dst, "in_port": rule.in_port,
            "out_port": rule.out_port, "priority": rule.priority}


def rule_order(rules: RuleTable) -> list[RuleEntry]:
    """The table's entries by (switch, priority desc, install order): the
    one order of ``rules_final`` and ``run.counters``."""
    entries = rules.all_entries()  # in install order
    # Two stable sorts, with no key tuple per entry.
    entries.sort(key=attrgetter("priority"), reverse=True)
    entries.sort(key=attrgetter("switch"))
    return entries


def rule_rows(entries: list[RuleEntry]) -> Iterator[dict]:
    """Rule lines with their counters, each built as it is drawn."""
    for e in entries:
        yield dict(rule_row(e), packets=e.packets, bytes=e.bytes)


def plan_row(plan: mitigation.MitigationPlan) -> dict:
    return {
        "scrubber": plan.scrubber.name,
        "attach_to": plan.attach_to.name,
        "links": [link_row(link) for link in plan.links],
        "rule_edits": [{"op": edit.op, **rule_row(edit.rule)} for edit in plan.rule_edits],
        "target": plan.target,
        "suspicious_sources": plan.suspicious_sources,
    }


def clustering_row(clustering: analytics.Clustering) -> dict:
    return {
        "k": clustering.k,
        "centroids": [list(c) for c in clustering.centroids],
        "stds": [list(s) for s in clustering.stds],
        "members": clustering.members,
    }


def link_state_row(ls: simnet.LinkState) -> dict:
    """A throttled link's cumulative counters and its queue at the end."""
    link = ls.link
    return {
        "link": f"{link.a.name}:{link.a_port}-{link.b.name}:{link.b_port}",
        "entered_packets": ls.entered_packets, "entered_bytes": ls.entered_bytes,
        "passed_packets": ls.passed_packets, "passed_bytes": ls.passed_bytes,
        "dropped_packets": ls.dropped_packets, "dropped_bytes": ls.dropped_bytes,
        "queued_packets": len(ls.queue),
    }


def _flow_rows(flows: dict[FlowKey, simnet.FlowTally], order) -> Iterator[tuple[str, dict]]:
    for _, key in order:
        yield "%s->%s" % key, vars(flows[key])


def _snapshot_rows(state: simnet.SimState, order) -> Iterator[dict[str, list[int]]]:
    # Each snapshot as {"src->dst": [packets, bytes]} over the first len/2
    # flows of state.flows, whose counts it holds.
    for counts in state.flow_snapshots:
        known = len(counts) // 2
        yield {"%s->%s" % key: [counts[2 * i], counts[2 * i + 1]]
               for i, key in order if i < known}


def run_section(state: simnet.SimState, samples: Iterable[telemetry.StatSample],
                entries: list[RuleEntry]) -> dict:
    """report.json's ``run`` section of a finished run, with the run's
    ``samples`` in poll order and the rule table's ``entries`` in
    ``rules_final`` order. Each list that grows with the run's length is a
    ``Table``, and so are the flow tallies and the rules' final counters;
    the rows of samples, flow snapshots (one per encode call), flows and
    counters are built as they are written."""
    # Each flow with its index in state.flows, by numeric (src, dst)
    # address: the order of run.flows and of each snapshot's keys.
    order = sorted(enumerate(state.flows), key=lambda item: (topology.ip_key(item[1].src),
                                                             topology.ip_key(item[1].dst)))
    return {
        "poll_times": Table(state.poll_times),
        "samples": Table(map(telemetry.StatSample._asdict, samples)),
        "flow_snapshots": Table(_snapshot_rows(state, order), chunk=1),
        "events": Table(state.events),
        "flows": Table(_flow_rows(state.flows, order), keyed=True),
        "counters": Table(((f"{e.switch.name}|{e.match_src}|{e.match_dst}|{e.priority}",
                            [e.packets, e.bytes]) for e in entries), keyed=True),
        "links": [link_state_row(ls) for ls in state.link_states.values()],
    }


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario and write stats.csv and report.json.

    Each artifact is written under a temporary name beside it: stats.csv's
    rows poll by poll during the run, report.json after it. Both are moved
    into place only once both are complete. If either move fails, the
    previous stats.csv (moved aside to stats.csv.bak before the first) is
    moved back, so a failed run or write leaves the previous artifacts as
    they were. A process killed between the moves can neither move it back
    nor take a first run's stats.csv away; the next run does, before it
    starts.
    """
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    artifacts = [out_dir / "stats.csv", out_dir / "report.json"]
    temporaries = [path.with_name(path.name + ".tmp") for path in artifacts]
    # The previous stats.csv, kept until the new report.json is in place.
    backup = out_dir / "stats.csv.bak"
    try:
        # A run killed inside the commit below leaves the backup behind.
        # With report.json.tmp still there, the report (moved last) is the
        # previous one, so its stats.csv goes back; without it, the new
        # pair was committed and the backup is stale.
        if backup.exists():
            if temporaries[1].exists():
                os.replace(backup, artifacts[0])
            else:
                backup.unlink()
        # A first run killed between its moves leaves its stats.csv beside
        # report.json.tmp with no report.json: there is no previous pair.
        elif (temporaries[1].exists() and artifacts[0].is_file()
              and not temporaries[0].exists() and not artifacts[1].exists()):
            artifacts[0].unlink()
        # Validation rules out every ValueError that the rates, the packet
        # sizes, the tick rule and the analytics raise on bad values; one
        # that still arrives (with RoutingError and TopologyError) is a
        # broken invariant.
        try:
            topo, rules, rates, sim_cfg = build_scenario(cfg)
            pipeline = ScenarioPipeline(cfg, topo)
            with telemetry.open_stats_csv(temporaries[0]) as stats:
                def on_poll(state, t: float, samples) -> None:
                    # Each poll's rows go to the stats file as they are taken.
                    telemetry.write_stats_csv(samples, stats)
                    pipeline.on_poll(state, t, samples)

                state = simnet.run(topo, rules, rates, sim_cfg, on_poll=on_poll)
        except (SimulationError, CounterRegressionError, ValueError,
                mitigation.MitigationError) as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT

        # Live run state and Tables. One json.dumps of the whole report
        # raised the in-process peak RSS of a `fabric` run by 3.8 MB
        # (36.0 -> 39.8). A poll entry grows with the network, so each is
        # encoded on its own.
        entries = rule_order(rules)
        report = {
            "config": vars(cfg),
            "topology": topology_row(topo),
            "polls": Table(pipeline.polls, chunk=1),
            "mitigation": plan_row(pipeline.plan) if pipeline.plan else None,
            "mitigation_time": next((e["t"] for e in state.events
                                     if e["event"] == "mitigation_applied"), None),
            "rules_final": Table(rule_rows(entries)),
            "run": run_section(state, telemetry.read_stats_csv(temporaries[0]), entries),
        }
        with open(temporaries[1], "w") as fh:
            write_json(fh, report)
            fh.write("\n")
        # Anything but a file in stats.csv's place stays, failing the move.
        if artifacts[0].is_file():
            os.replace(artifacts[0], backup)
        try:
            os.replace(temporaries[0], artifacts[0])
            os.replace(temporaries[1], artifacts[1])
        except BaseException:
            # Two moves are not one atomic swap: put the previous stats.csv
            # back, or take a new one away, so the previous pair stands,
            # also when the run is interrupted between them.
            if backup.exists():
                os.replace(backup, artifacts[0])
            elif artifacts[0].is_file():
                artifacts[0].unlink()
            raise
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        for temporary in (*temporaries, backup):
            with contextlib.suppress(OSError):
                temporary.unlink(missing_ok=True)
    return EXIT_OK


def reference_template() -> dict:
    """The stock scenario: 3x4 grid, 3 hosts per edge, 10 attackers at t=20."""
    template = dict(DEFAULTS)
    template["attackers"] = [f"h2s{u}" for u in range(10)]
    return template


TEMPLATES = {"reference": reference_template}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdnsim",
        description="Deterministic SDN volumetric-attack simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("--config", required=True, help="path to a JSON scenario")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, help="seed to record in the report (overrides config)")

    init_p = sub.add_parser("init-config", help="emit a scenario template")
    init_p.add_argument("--template", default="reference", choices=sorted(TEMPLATES))
    init_p.add_argument("--out", help="write to a file instead of stdout")

    args = parser.parse_args(argv)

    if args.command == "init-config":
        text = json.dumps(TEMPLATES[args.template](), indent=2) + "\n"
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                print(f"cannot write config: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        else:
            sys.stdout.write(text)
        return EXIT_OK

    try:
        text = Path(args.config).read_text(encoding="utf-8")
        raw = json.loads(text) if text.strip() else {}
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # Overrides apply to a JSON object only; validation rejects anything else.
    if isinstance(raw, dict):
        if args.out is not None:
            raw["output_dir"] = args.out
        if args.seed is not None:
            raw["seed"] = args.seed

    cfg, errors = validate_config(raw)
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return run_scenario(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
