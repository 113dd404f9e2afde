"""Scenario configs for the benchmark workloads, generated from a seed.

Seed ``DEFAULT_SEED`` reproduces the documented layouts exactly. Any other
seed moves the roles around without changing how much work the simulator
does, so that runs with different seeds measure the same workload:

- ``reference`` and ``flood`` keep one attacker on every edge switch, as
  the stock layout does, and draw which host slot on that edge attacks (never
  the server's). Every attack flow therefore crosses the same number of hops
  as in the stock layout.
- ``fabric`` draws the server's slot on edge switch 0. Each packet-in's
  search breaks distance ties by node id, so the server's position changes
  how many nodes every search expands. Across edge 0 that is up to 6 %;
  across the four symmetric corner edges it is up to 12 %.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

# The stock `sdnsim init-config --template reference` scenario.
REFERENCE = {
    "grid_n": 3,
    "grid_m": 4,
    "hosts_per_edge": 3,
    "server_edge": 0,
    "server_slot": 0,
    "client_matrix": 5,
    "base_rate": 2.0,
    "request_bytes": 200,
    "response_bytes": 1000,
    "attackers": [f"h2s{u}" for u in range(10)],
    "attacker_rate": None,
    "attack_start": 20.0,
    "duration": 60.0,
    "tick": 1.0,
    "poll_interval": 5.0,
    "seed": 1,
    "threshold": None,
    "k_clusters": 5,
    "bandwidth": None,
}

FABRIC = dict(
    REFERENCE,
    grid_n=6,
    grid_m=6,
    hosts_per_edge=8,
    attackers=[],
    base_rate=0.2,
    poll_interval=1.0,
    # No attackers: attack_start only sets the no-mitigation detect delay.
    attack_start=0.0,
    duration=10.0,
)

FLOOD = dict(REFERENCE, attacker_rate=2000.0, attack_start=9.0, duration=12.0)

WORKLOADS = {"reference": REFERENCE, "fabric": FABRIC, "flood": FLOOD}


def edge_count(cfg: dict) -> int:
    return 2 * cfg["grid_n"] + 2 * cfg["grid_m"] - 4


def host_ip(name: str) -> str:
    """Address of host ``h<slot>s<edge>``: 10.0.<edge>.<slot>."""
    slot, edge = name[1:].split("s")
    return f"10.0.{int(edge)}.{int(slot)}"


def make_config(workload: str, seed: int) -> dict:
    """The scenario for ``workload`` under ``seed``."""
    cfg = dict(WORKLOADS[workload])
    cfg["seed"] = seed
    if seed == DEFAULT_SEED:
        return cfg
    rng = random.Random(f"{workload}:{seed}")
    k = cfg["hosts_per_edge"]
    if cfg["attackers"]:
        attackers = []
        for u in range(edge_count(cfg)):
            slots = [s for s in range(k) if (u, s) != (cfg["server_edge"], cfg["server_slot"])]
            attackers.append(f"h{rng.choice(slots)}s{u}")
        cfg["attackers"] = attackers
    else:
        cfg["server_slot"] = rng.randrange(k)
    return cfg
