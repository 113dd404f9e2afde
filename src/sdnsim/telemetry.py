"""Per-flow statistics: polling, deltas, aggregation, CSV persistence.

Only edge switches are polled, and only their per-flow (src+dst match)
rules; the cumulative totals become per-interval deltas by subtracting the
last-seen totals per (switch, src, dst). Aggregation by destination is the
classic map-then-reduce fold over delta records.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path

from .topology import NodeId, NodeKind


class CounterRegressionError(RuntimeError):
    """A cumulative counter went backwards; cannot occur in a correct run."""


@functools.cache
def ip_key(addr: str) -> tuple[int, ...]:
    """Numeric sort key for dotted-quad addresses, memoised: a run sorts
    the same few thousand addresses at every poll."""
    return tuple(int(part) for part in addr.split("."))


@dataclass(frozen=True)
class StatSample:
    timestamp: float
    switch: str
    src: str
    dst: str
    packets_total: int
    bytes_total: int


@dataclass(frozen=True)
class DeltaRecord:
    interval_end: float
    switch: str
    src: str
    dst: str
    d_packets: int
    d_bytes: int
    interval: float


@dataclass
class StatStore:
    """Last-seen totals per (switch, src, dst) and the time of the last poll."""

    last_seen: dict[tuple[str, str, str], tuple[int, int]] = field(default_factory=dict)
    last_poll_time: float = 0.0


def poll(state, t: float) -> list[StatSample]:
    """Sample every per-flow rule on every edge switch at time ``t``.

    Counters from rules sharing a (switch, src, dst) key are summed, so a
    flow yields exactly one sample per switch per poll. Each switch is
    named once per poll, and its samples share that one name string.
    """
    merged: dict[tuple[str, str, str], list[int]] = {}
    names: dict[NodeId, str] = {}
    for entry in state.rules.all_entries():
        rule = entry.rule
        switch = rule.switch
        if rule.match_src is None or switch.kind is not NodeKind.EDGE:
            continue
        name = names.get(switch)
        if name is None:
            name = names[switch] = switch.name
        key = (name, rule.match_src, rule.match_dst)
        bucket = merged.setdefault(key, [0, 0])
        bucket[0] += entry.packets
        bucket[1] += entry.bytes
    ordered = sorted(merged, key=lambda k: (k[0], ip_key(k[1]), ip_key(k[2])))
    return [
        StatSample(t, sw, src, dst, merged[(sw, src, dst)][0], merged[(sw, src, dst)][1])
        for (sw, src, dst) in ordered
    ]


def delta(store: StatStore, samples: list[StatSample]) -> list[DeltaRecord]:
    """Per-interval differences against the store's last-seen totals.

    A flow's first sample is measured against zero. A total lower than the
    last-seen value is counter corruption and raises hard.
    """
    if not samples:
        return []
    t = samples[0].timestamp
    interval = t - store.last_poll_time
    records: list[DeltaRecord] = []
    for sample in samples:
        key = (sample.switch, sample.src, sample.dst)
        last_p, last_b = store.last_seen.get(key, (0, 0))
        d_p = sample.packets_total - last_p
        d_b = sample.bytes_total - last_b
        if d_p < 0 or d_b < 0:
            raise CounterRegressionError(
                f"counters went backwards for {key}: "
                f"({sample.packets_total}, {sample.bytes_total}) < ({last_p}, {last_b})"
            )
        store.last_seen[key] = (sample.packets_total, sample.bytes_total)
        records.append(
            DeltaRecord(t, sample.switch, sample.src, sample.dst, d_p, d_b, interval)
        )
    store.last_poll_time = t
    return records


def aggregate_by_destination(deltas: list[DeltaRecord]) -> dict[str, tuple[int, int]]:
    """Sum (d_packets, d_bytes) per destination address.

    Map phase emits (dst, counts) pairs; the reduce phase folds them. Keys
    come back in canonical address order.
    """
    pairs = [(record.dst, (record.d_packets, record.d_bytes)) for record in deltas]
    sums: dict[str, list[int]] = {}
    for dst, (d_p, d_b) in pairs:
        bucket = sums.setdefault(dst, [0, 0])
        bucket[0] += d_p
        bucket[1] += d_b
    return {dst: (sums[dst][0], sums[dst][1]) for dst in sorted(sums, key=ip_key)}


CSV_HEADER = ["timestamp", "switch", "src_ip", "dst_ip", "packets_total", "bytes_total"]


def write_stats_csv(samples: list[StatSample], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in samples:
            writer.writerow(
                [str(float(s.timestamp)), s.switch, s.src, s.dst, s.packets_total, s.bytes_total]
            )


def read_stats_csv(path: str | Path) -> list[StatSample]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected stats header: {header}")
        return [
            StatSample(float(t), sw, src, dst, int(p), int(b))
            for t, sw, src, dst, p, b in reader
        ]
