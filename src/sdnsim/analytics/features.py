"""Per-client traffic descriptors built from telemetry deltas.

Each client talking to the examined server gets a 4-dimensional vector:
packet and byte rates in both directions, all per-interval deltas divided by
the interval length. A direction with no traffic contributes zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import DeltaRecord, ip_key


@dataclass(frozen=True)
class FeatureVector:
    client: str
    pkt_rate_up: float
    pkt_rate_down: float
    byte_rate_up: float
    byte_rate_down: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.pkt_rate_up, self.pkt_rate_down, self.byte_rate_up, self.byte_rate_down)


def build_features(
    deltas: list[DeltaRecord], server: str, interval: float
) -> list[FeatureVector]:
    """One vector per client with any flow to or from ``server``."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    up: dict[str, list[int]] = {}
    down: dict[str, list[int]] = {}
    for record in deltas:
        if record.dst == server:
            bucket = up.setdefault(record.src, [0, 0])
        elif record.src == server:
            bucket = down.setdefault(record.dst, [0, 0])
        else:
            continue
        bucket[0] += record.d_packets
        bucket[1] += record.d_bytes
    clients = sorted(set(up) | set(down), key=ip_key)
    vectors = []
    for client in clients:
        u = up.get(client, (0, 0))
        d = down.get(client, (0, 0))
        vectors.append(
            FeatureVector(
                client,
                u[0] / interval,
                d[0] / interval,
                u[1] / interval,
                d[1] / interval,
            )
        )
    return vectors
