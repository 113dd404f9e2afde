"""One sdnsim run in a fresh process, as the benchmark's child.

    python3 child.py --src SRC --config CFG --out OUT --result RESULT [--trace] [--setup-only]

Runs ``sdnsim run --config CFG --out OUT`` in process, with the package
imported from SRC, and writes RESULT as JSON: the
``time.monotonic()`` stamps of ``simnet.run`` entry and of artifacts written,
and, with ``--trace``, every span. ``time.monotonic`` is system wide, so the
parent can subtract the stamp it took before starting this process.

Without ``--trace`` only ``simnet.run`` is wrapped, to stamp its entry. With
``--trace`` the names that callers look up are wrapped in spans (name,
start, end, parent and a few counts read at the boundary). Per-packet
functions are never wrapped. ``--setup-only`` stops at ``simnet.run`` entry.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at ``simnet.run`` entry to end a ``--setup-only`` run."""


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``counts(args, result)``
        runs after the span has closed."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.monotonic

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        setattr(owner, attr, spanned)


def _link_tallies(args, _result):
    # simnet.step(state): cumulative tallies and queue depth over every
    # constrained link, read once per tick.
    entered = passed = dropped = queued = 0
    for ls in args[0].link_states.values():
        entered += ls.entered_packets
        passed += ls.passed_packets
        dropped += ls.dropped_packets
        queued += len(ls.queue)
    return [entered, passed, dropped, queued]


def install_spans(tracer: Tracer, sdnsim) -> None:
    cli, simnet, routing = sdnsim.cli, sdnsim.simnet, sdnsim.routing
    telemetry, analytics, mitigation = sdnsim.telemetry, sdnsim.analytics, sdnsim.mitigation
    wrap = tracer.wrap
    wrap(cli, "validate_config", "cli.validate")
    wrap(cli, "run_scenario", "cli.run_scenario")
    wrap(cli, "build_scenario", "cli.build_scenario")
    wrap(cli, "build_grid", "topology.build",
         lambda a, topo: [len(topo.nodes), 2 * len(topo.links)])
    wrap(cli.ScenarioPipeline, "on_poll", "analytics.on_poll")
    wrap(simnet, "run", "simnet.run")
    wrap(simnet, "step", "simnet.step", _link_tallies)
    wrap(simnet, "handle_packet_in", "routing.packet_in", lambda a, rules: [len(rules)])
    wrap(routing, "shortest_path", "routing.shortest_path")
    wrap(telemetry, "poll", "telemetry.poll", lambda a, samples: [len(samples)])
    wrap(telemetry, "delta", "telemetry.delta")
    wrap(telemetry, "write_stats_csv", "telemetry.csv_write")
    wrap(analytics, "build_features", "analytics.features")
    wrap(analytics, "kmeans", "analytics.kmeans", lambda a, c: [len(c.wcss_history)])
    wrap(analytics, "decompose_gaussian_1d", "analytics.gaussian")
    wrap(analytics, "detect", "analytics.detect")
    wrap(analytics, "compare_clusterings", "analytics.compare")
    wrap(mitigation, "plan_scrubber", "mitigation.plan", lambda a, plan: [len(plan.rule_edits)])
    wrap(mitigation, "apply", "mitigation.apply")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import sdnsim.cli
    import numpy

    if not Path(sdnsim.__file__).resolve().is_relative_to(src):
        print(f"sdnsim imported from {sdnsim.__file__}, not {src}", file=sys.stderr)
        return 1

    tracer = Tracer()
    if args.trace:
        install_spans(tracer, sdnsim)
    run_entry = []
    inner_run = sdnsim.simnet.run

    def stamped_run(*a, **kw):
        run_entry.append(time.monotonic())
        if args.setup_only:
            raise SetupDone
        return inner_run(*a, **kw)

    sdnsim.simnet.run = stamped_run
    try:
        code = sdnsim.cli.main(["run", "--config", args.config, "--out", args.out])
    except SetupDone:
        code = 0
    done = time.monotonic()

    result = {
        "run_entry": run_entry[0] if run_entry else None,
        "done": done,
        "spans": tracer.spans,
        "numpy": numpy.__version__,
    }
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
