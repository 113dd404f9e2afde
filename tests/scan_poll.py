"""The whole-table poll, kept as the oracle for ``telemetry.poll``.

``sdnsim.telemetry.poll`` reads the rule table's standing index of polled
keys, kept in sample order. This module keeps the poll it replaced: scan
every installed entry, core rules included, merge the counters of the
per-flow edge rules by (switch name, src, dst), and sort the merged keys,
so ``poll`` here must return the same samples.
"""

from sdnsim.telemetry import StatSample
from sdnsim.topology import NodeKind, ip_key


def poll(state, t):
    merged = {}
    for entry in state.rules.all_entries():
        if entry.match_src is None or entry.switch.kind is not NodeKind.EDGE:
            continue
        bucket = merged.setdefault((entry.switch.name, entry.match_src, entry.match_dst), [0, 0])
        bucket[0] += entry.packets
        bucket[1] += entry.bytes
    ordered = sorted(merged, key=lambda k: (k[0], ip_key(k[1]), ip_key(k[2])))
    return [StatSample(t, sw, src, dst, *merged[(sw, src, dst)]) for (sw, src, dst) in ordered]
