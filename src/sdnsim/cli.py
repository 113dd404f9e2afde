"""Scenario runner: config validation, orchestration, artifact output.

A scenario is a flat JSON document (unknown keys are rejected so typos in
sweep scripts fail loudly). ``run`` executes it and writes two artifacts
into the output directory: ``stats.csv`` (the raw poll samples) and
``report.json`` (rule dumps, per-poll analytics, mitigation plan, final
tallies). Both are byte-stable for a fixed config; its ``seed`` is recorded
metadata, since the simulation draws no random numbers. The per-poll,
per-flow deltas and the feature vectors built from them are not stored:
``telemetry.read_stats_csv`` followed by ``telemetry.delta``, poll by poll,
rebuilds the deltas from ``stats.csv``, and ``analytics.build_features`` on
the server edge's deltas rebuilds the features.

Report records whose serialized form is exactly their dataclass fields
(config, samples, Gaussian components, verdicts, flow tallies)
are written as ``vars(record)``; classes whose report form differs from
their fields keep a ``to_dict``.

Exit codes: 0 clean run, 2 configuration problems, 3 internal invariant
violations.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from . import analytics, mitigation, simnet, telemetry
from .routing import RuleTable
from .simnet import SimConfig, SimulationError, TrafficKind, TrafficProfile, legit_rate, tick_errors
from .telemetry import CounterRegressionError, StatStore
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
    """Materialize topology, rule table and traffic profiles from a config."""
    topo = build_grid(cfg.grid_n, cfg.grid_m, cfg.hosts_per_edge)
    server = NodeId.host(cfg.server_edge, cfg.server_slot)
    topo.server = server
    attackers = {parse_host_name(name) for name in cfg.attackers}
    topo.attackers = attackers

    profiles: dict[NodeId, TrafficProfile] = {
        server: TrafficProfile(
            TrafficKind.SERVER,
            request_size=cfg.request_bytes,
            response_size=cfg.response_bytes,
        )
    }
    legit = [h for h in topo.hosts() if h != server and h not in attackers]
    for rate, host in zip(matrix_rates(len(legit), cfg.client_matrix, cfg.base_rate), legit):
        profiles[host] = TrafficProfile(
            TrafficKind.LEGIT, rate, cfg.request_bytes, cfg.response_bytes
        )
    for host in sorted(attackers):
        profiles[host] = TrafficProfile(
            TrafficKind.ATTACKER, cfg.attacker_rate, cfg.request_bytes, cfg.response_bytes
        )

    sim_cfg = SimConfig(
        tick=cfg.tick,
        duration=cfg.duration,
        attack_start=cfg.attack_start,
        poll_interval=cfg.poll_interval,
    )
    return topo, RuleTable(), profiles, sim_cfg


class ScenarioPipeline:
    """Per-poll analytics, detection and one-shot mitigation."""

    def __init__(self, cfg: ScenarioConfig, topo):
        self.cfg = cfg
        self.server_ip = topo.ip_of[topo.server]
        self.server_edge = topo.edge_of_host(topo.server).name
        self.store = StatStore()
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
        deltas = telemetry.delta(self.store, samples)
        entry: dict = {"t": t}

        # Detection looks at the target's own edge switch so the two polled
        # edges of a flow are not double-counted.
        local = [d for d in deltas if d.switch == self.server_edge]
        agg = telemetry.aggregate_by_destination(local).get(self.server_ip, (0, 0))
        byte_rate = agg[1] / self.cfg.poll_interval
        entry["aggregate"] = {
            "packets": agg[0],
            "bytes": agg[1],
            "byte_rate": byte_rate,
        }

        vectors = analytics.build_features(local, self.server_ip, self.cfg.poll_interval)
        clustering = None
        report = None
        if vectors:
            k = min(self.cfg.k_clusters, len(vectors))
            clustering = analytics.kmeans(vectors, k)
            report = analytics.detect(
                byte_rate, self.cfg.threshold, clustering, self.server_ip
            )
            up_rates = [v.byte_rate_up for v in vectors]
            if len(up_rates) >= 2:
                entry["gaussian"] = [
                    vars(c)
                    for c in analytics.decompose_gaussian_1d(up_rates, self.cfg.bandwidth)
                ]
            else:
                entry["gaussian"] = None
            if self.prev_clustering is not None:
                entry["new_clusters"] = analytics.compare_clusterings(
                    self.prev_clustering, clustering, self.match_radius()
                )
            else:
                entry["new_clusters"] = None
            self.prev_clustering = clustering
        else:
            entry["gaussian"] = None
            entry["new_clusters"] = None
        entry["clustering"] = clustering.to_dict() if clustering else None
        entry["detection"] = vars(report) if report else None
        self.polls.append(entry)

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
        self.plan = mitigation.plan_scrubber(report, state.topology, state.rules)
        mitigation.apply(self.plan, state.topology, state.rules)
        self.mitigation_time = t
        state.record.events.append(
            {"t": t, "event": "mitigation_applied", "scrubber": self.plan.scrubber.name}
        )


_FLAT_ITEM_TYPES = {str, int, float, bool, type(None)}
# Rows per encode call of a table: memory holds one chunk's text at a time.
TABLE_CHUNK = 256


@functools.cache
def _encoder(depth: int, key_separator: str = ": "):
    """One-line JSON encoding whose item separator opens a line at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, key_separator)).encode


def _write_rows(fh, table, row_type, depth: int) -> None:
    """Write the rows of a table (see :func:`write_json`) at ``depth + 1``,
    ``TABLE_CHUNK`` rows per encode call.

    The encoder puts every row on one line, its items separated by a line
    at the items' depth. Each ``str.replace`` below then gives the rows'
    brackets their own lines. Every pattern holds a raw newline, which only
    a separator can write (strings escape theirs), and a row's items are
    scalars, none of which starts with a bracket or ends with one outside a
    string. In a dict table a row opens after its key, so keys are
    separated by ``":\n"`` there and by ``": "`` once the rows are open.
    """
    is_dict = type(table) is dict
    opener, closer = ("{", "}") if row_type is dict else ("[", "]")
    row_line, item_line = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    if is_dict:
        encode = _encoder(depth + 2, ":\n")
        replacements = [(closer + "," + item_line, row_line + closer + "," + row_line),
                        (":\n" + opener, ": " + opener + item_line), (":\n", ": ")]
    else:
        encode = _encoder(depth + 2)
        replacements = [(closer + "," + item_line + opener,
                         row_line + closer + "," + row_line + opener + item_line)]
    rows = iter(table.items() if is_dict else table)
    separator = row_line
    while chunk := (dict if is_dict else list)(itertools.islice(rows, TABLE_CHUNK)):
        # Without the table's brackets and the last row's closer.
        text = encode(chunk)[1:-2]
        for old, new in replacements:
            text = text.replace(old, new)
        if not is_dict:
            text = opener + item_line + text[1:]
        fh.write(separator + text + row_line + closer)
        separator = "," + row_line


def write_json(fh, obj, depth: int = 0) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, indent=2)`` does.

    A dict or list whose values are all exactly str, int, float, bool or
    None is encoded in one call and written at once. A table, a dict or list
    whose values are all non-empty such flat containers of one type (all
    dicts or all lists), is encoded ``TABLE_CHUNK`` rows per call and
    written a chunk at a time (see :func:`_write_rows`). Any other
    container is written item by item, so memory holds the text of one flat
    container or one chunk at a time.
    """
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        fh.write(_encoder(0)(obj))
        return
    opener, closer = "{}" if is_dict else "[]"
    if not obj:
        fh.write(opener + closer)
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    values = obj.values() if is_dict else obj
    types = set(map(type, values)) if type(obj) in (dict, list) else None
    if types and types <= _FLAT_ITEM_TYPES:
        fh.write(opener + inner + _encoder(depth + 1)(obj)[1:-1] + outer + closer)
        return
    if types in ({dict}, {list}) and all(values):
        row_type = types.pop()
        items = itertools.chain.from_iterable(
            map(dict.values, values) if row_type is dict else values)
        if _FLAT_ITEM_TYPES.issuperset(map(type, items)):
            fh.write(opener)
            _write_rows(fh, obj, row_type, depth)
            fh.write(outer + closer)
            return
    fh.write(opener)
    for i, value in enumerate(obj.items() if is_dict else obj):
        fh.write("," + inner if i else inner)
        if is_dict:
            key, value = value
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _encoder(0)(key)
            fh.write(_encoder(0)(key) + ": ")
        write_json(fh, value, depth + 1)
    fh.write(outer + closer)


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario and write stats.csv and report.json."""
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # Validation rules out every ValueError that the profiles, the tick rule
    # and the analytics raise on bad values; one that still arrives (with
    # RoutingError and TopologyError) is a broken invariant.
    try:
        topo, rules, profiles, sim_cfg = build_scenario(cfg)
        pipeline = ScenarioPipeline(cfg, topo)
        record = simnet.run(topo, rules, profiles, sim_cfg, on_poll=pipeline.on_poll)
    except (SimulationError, CounterRegressionError, ValueError,
            mitigation.MitigationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    report = {
        "config": vars(cfg),
        "topology": topo.to_dict(),
        "polls": pipeline.polls,
        "mitigation": pipeline.plan.to_dict() if pipeline.plan else None,
        "mitigation_time": pipeline.mitigation_time,
        "rules_final": rules.dump(),
        "run": record.to_dict(),
    }
    try:
        telemetry.write_stats_csv(record.samples, out_dir / "stats.csv")
        with open(out_dir / "report.json", "w") as fh:
            # One write per flat container or table chunk: json.dump makes a
            # write per token, and encoding the whole report at once raised
            # peak RSS by 62 %.
            write_json(fh, report)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
