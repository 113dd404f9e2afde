"""Per-flow statistics: polling, deltas, CSV persistence.

Only edge switches are polled, and only their per-flow (src+dst match)
rules; the cumulative totals become per-interval deltas by subtracting the
last-seen totals per (switch, src, dst).

A run keeps no sample history: each poll's samples are appended to the
stats file as they are taken, and ``read_stats_csv`` draws them back one
at a time.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple, TextIO


class CounterRegressionError(RuntimeError):
    """A cumulative counter went backwards; cannot occur in a correct run."""


class StatSample(NamedTuple):
    timestamp: float
    switch: str
    src: str
    dst: str
    packets_total: int
    bytes_total: int


class DeltaRecord(NamedTuple):
    switch: str
    src: str
    dst: str
    d_packets: int
    d_bytes: int


def poll(state, t: float) -> list[StatSample]:
    """Sample every per-flow rule on every edge switch at time ``t``.

    Reads the rule table's polled keys, already in sample order, and sums
    the counters along each key's chain of rules, so a flow yields exactly
    one sample per switch per poll. All samples of a switch share its one
    name string.
    """
    samples = []
    for (switch, src, dst), chain in state.rules.polled():
        packets = bytes_ = 0
        for entry in chain:
            packets += entry.packets
            bytes_ += entry.bytes
        samples.append(StatSample(t, switch.name, src, dst, packets, bytes_))
    return samples


def delta(
    last_seen: dict[tuple[str, str, str], tuple[int, int]], samples: list[StatSample]
) -> list[DeltaRecord]:
    """Per-interval differences against the last-seen totals per
    (switch, src, dst), which this updates.

    A flow's first sample is measured against zero. A total lower than the
    last-seen value is counter corruption and raises hard.
    """
    records: list[DeltaRecord] = []
    for sample in samples:
        key = (sample.switch, sample.src, sample.dst)
        last_p, last_b = last_seen.get(key, (0, 0))
        d_p = sample.packets_total - last_p
        d_b = sample.bytes_total - last_b
        if d_p < 0 or d_b < 0:
            raise CounterRegressionError(
                f"counters went backwards for {key}: "
                f"({sample.packets_total}, {sample.bytes_total}) < ({last_p}, {last_b})"
            )
        last_seen[key] = (sample.packets_total, sample.bytes_total)
        records.append(DeltaRecord(sample.switch, sample.src, sample.dst, d_p, d_b))
    return records


CSV_HEADER = ["timestamp", "switch", "src_ip", "dst_ip", "packets_total", "bytes_total"]


def open_stats_csv(path: str | Path) -> TextIO:
    """Create a stats file holding just the header; ``write_stats_csv``
    appends each poll's rows to it."""
    fh = open(path, "w", newline="")
    csv.writer(fh).writerow(CSV_HEADER)
    return fh


def write_stats_csv(samples: Iterable[StatSample], fh: TextIO) -> None:
    """Append one poll's samples to a stats file from ``open_stats_csv``."""
    csv.writer(fh).writerows(
        [str(float(s.timestamp)), s.switch, s.src, s.dst, s.packets_total, s.bytes_total]
        for s in samples
    )


def read_stats_csv(path: str | Path) -> Iterator[StatSample]:
    """The samples of a stats file, one at a time, as they are read."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected stats header: {header}")
        for t, sw, src, dst, p, b in reader:
            yield StatSample(float(t), sw, src, dst, int(p), int(b))
