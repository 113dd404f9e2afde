import random

import pytest

from sdnsim.analytics import build_features
from sdnsim.telemetry import DeltaRecord

SERVER = "10.0.0.0"


def rec(src, dst, d_packets, d_bytes):
    return DeltaRecord("e0", src, dst, d_packets, d_bytes)


def test_rates_are_deltas_over_interval():
    deltas = [
        rec("10.0.1.0", SERVER, 50, 10_000),
        rec(SERVER, "10.0.1.0", 50, 50_000),
    ]
    (vector,) = build_features(deltas, SERVER, 5.0)
    assert vector.client == "10.0.1.0"
    assert vector.as_tuple() == (10.0, 10.0, 2000.0, 10_000.0)


def test_missing_direction_contributes_zeros():
    (vector,) = build_features([rec("10.0.1.0", SERVER, 10, 2000)], SERVER, 5.0)
    assert vector.pkt_rate_down == 0.0
    assert vector.byte_rate_down == 0.0
    assert vector.pkt_rate_up == 2.0


def test_unrelated_flows_are_ignored():
    deltas = [rec("10.0.1.0", "10.0.2.0", 10, 2000)]
    assert build_features(deltas, SERVER, 5.0) == []


def test_vector_count_equals_distinct_clients():
    rng = random.Random(5)
    clients = [f"10.0.{u}.{i}" for u in range(5) for i in range(4)]
    deltas = []
    involved = set()
    for _ in range(60):
        client = rng.choice(clients)
        involved.add(client)
        if rng.random() < 0.5:
            deltas.append(rec(client, SERVER, rng.randrange(100), rng.randrange(9999)))
        else:
            deltas.append(rec(SERVER, client, rng.randrange(100), rng.randrange(9999)))
    vectors = build_features(deltas, SERVER, 5.0)
    assert len(vectors) == len(involved)
    assert {v.client for v in vectors} == involved


def test_doubling_deltas_doubles_every_component():
    base = [
        rec("10.0.1.0", SERVER, 7, 700),
        rec(SERVER, "10.0.1.0", 3, 3000),
        rec("10.0.2.1", SERVER, 11, 1100),
    ]
    doubled = [
        DeltaRecord(d.switch, d.src, d.dst, 2 * d.d_packets, 2 * d.d_bytes)
        for d in base
    ]
    ones = build_features(base, SERVER, 5.0)
    twos = build_features(doubled, SERVER, 5.0)
    for v1, v2 in zip(ones, twos):
        assert v2.as_tuple() == tuple(2 * x for x in v1.as_tuple())


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        build_features([], SERVER, 0.0)
