"""Deterministic SDN simulator with volumetric-attack detection and mitigation."""

from .routing import FlowKey, FlowRule, RuleTable, handle_packet_in, shortest_path
from .simnet import SimConfig, SimState, legit_rate, run, step
from .topology import Link, NodeId, NodeKind, Topology, attach_switch, build_grid

__version__ = "0.1.0"

__all__ = [
    "FlowKey",
    "FlowRule",
    "Link",
    "NodeId",
    "NodeKind",
    "RuleTable",
    "SimConfig",
    "SimState",
    "Topology",
    "attach_switch",
    "build_grid",
    "handle_packet_in",
    "legit_rate",
    "run",
    "shortest_path",
    "step",
]
