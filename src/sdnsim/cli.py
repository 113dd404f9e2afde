"""Scenario runner: config validation, orchestration, artifact output.

A scenario is a flat JSON document (unknown keys are rejected so typos in
sweep scripts fail loudly). ``run`` executes it and writes two artifacts
into the output directory: ``stats.csv`` (the raw poll samples, appended
poll by poll as the run goes) and ``report.json`` (rule dumps, per-poll
analytics, mitigation plan, final tallies). Both are byte-stable for a
fixed config; its ``seed`` is recorded metadata, since the simulation draws
no random numbers. The per-poll, per-flow deltas and the feature vectors
built from them are not stored: ``telemetry.read_stats_csv`` followed by
``telemetry.delta``, poll by poll, rebuilds the deltas from ``stats.csv``,
and ``analytics.build_features`` on the server edge's deltas rebuilds the
features.

This module alone knows the report's format. Config, Gaussian components,
verdicts and flow tallies are written as ``vars(record)`` and events as
they were logged; every other row is built from the live object by one
``*_row`` or ``*_rows`` function here as it is written, and the classes
they read carry no report form of their own.

``report.json`` is written from the live run state and never exists in
memory as a whole. Each section that grows with the run's length, and each
per-node, per-link, per-flow or per-rule table, is named as a ``Table``
where the report is assembled. ``write_json`` encodes a ``Table``
``TABLE_CHUNK`` rows per call (poll entries and flow snapshots, whose size
follows the network, one per call), building the rows of nodes, links,
samples, snapshots, flows and rules as it goes, and anything else in one
call. The rule dump and the counters sort the table's entry list in place.
The run keeps no samples: ``run.samples`` is read back from the stats file
written during the run, and each flow snapshot is a compact array until its
row is written.

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
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path

from . import analytics, mitigation, simnet, telemetry, topology
from .routing import FlowKey, FlowRule, RuleEntry, RuleTable
from .simnet import SimConfig, SimulationError, legit_rate, tick_errors
from .telemetry import CounterRegressionError
from .topology import MAX_HOSTS_PER_EDGE, NodeId, TopologyError, build_grid, parse_host_name

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _bounded(default, minimum, maximum=None):
    """A numeric config field: its default and its valid range."""
    return field(default=default, metadata={"range": (minimum, maximum)})


@dataclass
class ScenarioConfig:
    """The config document's fields with their defaults and ranges, plus
    the designed legitimate aggregate that validation derives.

    A field typed ``int`` takes integers only; a field defaulting to None
    may be left null, and validation then derives its value.
    """

    grid_n: int = _bounded(3, 2)
    grid_m: int = _bounded(4, 2)
    hosts_per_edge: int = _bounded(3, 1, MAX_HOSTS_PER_EDGE)
    server_edge: int = _bounded(0, 0)
    server_slot: int = _bounded(0, 0)
    client_matrix: int = _bounded(5, 1)
    base_rate: float = _bounded(2.0, 1e-9)
    request_bytes: int = _bounded(200, 1)
    response_bytes: int = _bounded(1000, 1)
    attackers: list[str] = field(default_factory=list)
    attacker_rate: float | None = _bounded(None, 1e-9)
    attack_start: float = _bounded(20.0, 0)
    duration: float = _bounded(60.0, 0)
    tick: float = _bounded(1.0, 1e-9)
    poll_interval: float = _bounded(5.0, 1e-9)
    seed: int = _bounded(1, 0)  # recorded in the report; nothing draws from it
    threshold: float | None = _bounded(None, 1e-9)
    k_clusters: int = _bounded(5, 1)
    bandwidth: float | None = _bounded(None, 1e-9)
    output_dir: str = "out"
    designed_legit_aggregate: float = field(default=0.0, init=False)


DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(ScenarioConfig)
    if f.init
}


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

    for f in fields(ScenarioConfig):
        if "range" not in f.metadata:
            continue
        name, v = f.name, values[f.name]
        minimum, maximum = f.metadata["range"]
        integer = f.type == "int"  # annotations are strings in this module
        if v is None:
            if f.default is not None:
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
    designed = sum(rates) * values["request_bytes"]
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
    for f in fields(ScenarioConfig):
        if f.init and f.type.startswith("float") and values[f.name] is not None:
            values[f.name] = float(values[f.name])
    values["attackers"] = list(attackers)
    cfg = ScenarioConfig(**values)
    cfg.designed_legit_aggregate = designed
    return cfg, []


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
    sim_cfg = SimConfig(
        tick=cfg.tick,
        duration=cfg.duration,
        attack_start=cfg.attack_start,
        poll_interval=cfg.poll_interval,
        request_size=cfg.request_bytes,
        response_size=cfg.response_bytes,
    )
    return topo, RuleTable(), rates, sim_cfg


class ScenarioPipeline:
    """Per-poll analytics, detection and one-shot mitigation."""

    def __init__(self, cfg: ScenarioConfig, topo):
        self.cfg = cfg
        self.server_ip = topo.ip_of[topo.server]
        self.server_edge = topo.edge_of_host(topo.server).name
        self.last_seen: dict[tuple[str, str, str], tuple[int, int]] = {}
        self.prev_clustering: analytics.Clustering | None = None
        self.polls: list[dict] = []
        self.plan: mitigation.MitigationPlan | None = None
        self.mitigation_time: float | None = None

    def match_radius(self) -> float:
        # Cluster-history matching: a tenth of the largest known centroid
        # magnitude, floored at 1 to survive all-idle polls.
        radius = 1.0
        if self.prev_clustering is not None:
            for centroid in self.prev_clustering.centroids:
                radius = max(radius, 0.1 * math.hypot(*centroid))
        return radius

    def on_poll(self, state, t: float, samples) -> None:
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
            clustering = analytics.kmeans(vectors, min(self.cfg.k_clusters, len(vectors)))
            report = analytics.detect(byte_rate, self.cfg.threshold, clustering, self.server_ip)
        up_rates = [v.byte_rate_up for v in vectors]
        self.polls.append({
            "t": t,
            "aggregate": {"packets": packets, "bytes": size, "byte_rate": byte_rate},
            "gaussian": [
                vars(c) for c in analytics.decompose_gaussian_1d(up_rates, self.cfg.bandwidth)
            ] if len(up_rates) >= 2 else None,
            "new_clusters": analytics.compare_clusterings(
                self.prev_clustering, clustering, self.match_radius()
            ) if clustering is not None and self.prev_clustering is not None else None,
            "clustering": clustering_row(clustering) if clustering is not None else None,
            "detection": vars(report) if report is not None else None,
        })
        if clustering is not None:
            self.prev_clustering = clustering

        if report is None or not report.attack:
            return
        if self.plan is not None:
            state.record.events.append(
                {"t": t, "event": "attack_verdict_repeated", "target": self.server_ip}
            )
            return
        state.record.events.append(
            {"t": t, "event": "attack_detected", "target": self.server_ip,
             "suspicious": report.suspicious_sources}
        )
        if not report.suspicious_sources:
            return
        self.plan = mitigation.plan_scrubber(
            report.target, report.suspicious_sources, state.topology, state.rules)
        mitigation.apply(self.plan, state.topology, state.rules)
        self.mitigation_time = t
        state.record.events.append(
            {"t": t, "event": "mitigation_applied", "scrubber": self.plan.scrubber.name}
        )


# Rows per encode call of a Table: memory holds one chunk's rows and text at
# a time. On `fabric`, 32 rows peaked 0.14 MB below 64 and 0.38 MB below 256,
# and 16 did no better, at about the same write time.
TABLE_CHUNK = 32
# The report is a tree of fresh rows and run state, with no cycle to look
# for; skipping the check takes about an eighth off each encode call.
_encode = json.JSONEncoder(check_circular=False).encode


@dataclass(frozen=True)
class Table:
    """A JSON list, or with ``keyed`` a JSON object, whose items (or
    ``(key, value)`` pairs) ``write_json`` draws from ``rows`` ``chunk``
    at a time, as it writes them. A generator as ``rows`` is spent by one
    write."""

    rows: Iterable
    keyed: bool = False
    chunk: int = TABLE_CHUNK


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
    return {**vars(link), "a": link.a.name, "b": link.b.name}


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


def rule_rows(rules: RuleTable) -> Iterator[dict]:
    """Rule lines with their counters, sorted by (switch, priority desc,
    install order). Each line is built as it is drawn, from the table as it
    stands when the first is drawn."""
    entries = rules.all_entries()
    # Three stable sorts, with no key tuple per entry.
    entries.sort(key=attrgetter("seq"))
    entries.sort(key=attrgetter("priority"), reverse=True)
    entries.sort(key=attrgetter("switch"))
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
        "sizes": [len(m) for m in clustering.members],
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


def sample_rows(samples: Iterable[telemetry.StatSample]) -> Iterator[dict]:
    """Each sample as a dict of its fields, built as it is drawn."""
    for t, switch, src, dst, packets, bytes_ in samples:
        yield {"timestamp": t, "switch": switch, "src": src, "dst": dst,
               "packets_total": packets, "bytes_total": bytes_}


def _flow_rows(flows: dict[FlowKey, simnet.FlowTally]) -> Iterator[tuple[str, dict]]:
    for src, dst in sorted(flows, key=lambda pair: (topology.ip_key(pair[0]),
                                                     topology.ip_key(pair[1]))):
        yield f"{src}->{dst}", vars(flows[src, dst])


def _counter_rows(rules: RuleTable) -> Iterator[tuple[str, list[int]]]:
    # Ordered by the string of the (switch, src, dst, priority) tuple, which
    # install keeps unique.
    def key(e):
        return e.switch.name, e.match_src, e.match_dst, e.priority

    entries = rules.all_entries()
    entries.sort(key=lambda e: str(key(e)))
    for e in entries:
        yield "|".join(map(str, key(e))), [e.packets, e.bytes]


def _snapshot_rows(record: simnet.RunRecord) -> Iterator[dict[str, list[int]]]:
    # Each snapshot as {"src->dst": [packets, bytes]} in (src, dst) order,
    # over the first len/2 flows of record.flows, whose counts it holds.
    pairs = list(record.flows)
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    for counts in record.flow_snapshots:
        known = len(counts) // 2
        yield {"%s->%s" % pairs[i]: [counts[2 * i], counts[2 * i + 1]]
               for i in order if i < known}


def run_section(record: simnet.RunRecord, rules: RuleTable,
                samples: Iterable[telemetry.StatSample]) -> dict:
    """report.json's ``run`` section, with the run's ``samples`` in poll
    order. Each list that grows with the run's length is a ``Table``, and so
    are the flow tallies and the rule table's final counters; the rows of
    samples, flow snapshots (one per encode call), flows and counters are
    built as they are written."""
    return {
        "poll_times": Table(record.poll_times),
        "samples": Table(sample_rows(samples)),
        "flow_snapshots": Table(_snapshot_rows(record), chunk=1),
        "events": Table(record.events),
        "flows": Table(_flow_rows(record.flows), keyed=True),
        "counters": Table(_counter_rows(rules), keyed=True),
        "links": [link_state_row(ls) for ls in record.link_states],
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

                record = simnet.run(topo, rules, rates, sim_cfg, on_poll=on_poll)
        except (SimulationError, CounterRegressionError, ValueError,
                mitigation.MitigationError) as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return EXIT_INVARIANT

        # Live run state and Tables. One json.dumps of the whole report
        # raised the in-process peak RSS of a `fabric` run by 3.8 MB
        # (36.0 -> 39.8). A poll entry grows with the network, so each is
        # encoded on its own.
        report = {
            "config": vars(cfg),
            "topology": topology_row(topo),
            "polls": Table(pipeline.polls, chunk=1),
            "mitigation": plan_row(pipeline.plan) if pipeline.plan else None,
            "mitigation_time": pipeline.mitigation_time,
            "rules_final": Table(rule_rows(rules)),
            "run": run_section(record, rules, telemetry.read_stats_csv(temporaries[0])),
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
