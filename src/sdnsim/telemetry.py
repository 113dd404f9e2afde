"""Per-flow statistics: polling, deltas, CSV persistence.

Only edge switches are polled, and only their per-flow (src+dst match)
rules; the cumulative totals become per-interval deltas by subtracting the
last-seen totals per (switch, src, dst).

A run keeps no sample history: each poll's samples are appended to the
stats file as they are taken, and ``read_stats_rows`` draws them back one
at a time as their text fields (``read_stats_csv`` as samples).

The stats file holds the bytes that ``csv.writer``'s default dialect
writes, with no ``csv`` module: each sample is one ``CSV_LINE``, ending in
``\r\n``. A timestamp is written as ``repr(float)``, which is what
``str`` gives, and no switch name or address holds a character that CSV
quotes.
"""

from __future__ import annotations

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

    Reads the counters of the rule table's polled rules, already in sample
    order; a match holds one rule, so a flow yields exactly one sample per
    switch per poll. All samples of a switch share its one name string.
    """
    return [StatSample(t, e.switch.name, e.match_src, e.match_dst, e.packets, e.bytes)
            for e in state.rules.polled()]


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
CSV_LINE = "%r,%s,%s,%s,%d,%d\r\n"


def open_stats_csv(path: str | Path) -> TextIO:
    """Create a stats file holding just the header; ``write_stats_csv``
    appends each poll's rows to it."""
    fh = open(path, "w", newline="")
    fh.write(",".join(CSV_HEADER) + "\r\n")
    return fh


def write_stats_csv(samples: Iterable[StatSample], fh: TextIO) -> None:
    """Append one poll's samples to a stats file from ``open_stats_csv``."""
    fh.writelines(CSV_LINE % (float(t), sw, src, dst, p, b) for t, sw, src, dst, p, b in samples)


def read_stats_rows(path: str | Path) -> Iterator[list[str]]:
    """The rows of a stats file, one at a time as they are read, each as
    its text fields."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected stats header: {header}")
        for line in fh:
            yield line.rstrip("\n").split(",")


def read_stats_csv(path: str | Path) -> Iterator[StatSample]:
    """The samples of a stats file, one at a time, as they are read. A row
    that is not six fields raises ``ValueError``."""
    for t, sw, src, dst, p, b in read_stats_rows(path):
        yield StatSample(float(t), sw, src, dst, int(p), int(b))
