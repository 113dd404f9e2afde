"""The rule-table trace of one packet's path, kept as a test oracle.

``trace_path`` follows :func:`sdnsim.routing.walk_rules`, the walk the
engine compiles its paths from, from a flow's source host to its
destination, and applies the engine's loop bound. Tests use it to check
routing, destination trees and mitigation detours without running traffic.
"""

from sdnsim.mitigation import MitigationError
from sdnsim.routing import walk_rules
from sdnsim.topology import HOST_PORT


def trace_path(topology, rules, key):
    """Node sequence a packet for ``key`` takes, by the engine's rule-table
    walk and with its bound.

    Raises if a switch has no matching rule or the walk visits more than
    ``topology.hop_limit`` switches (a loop).
    """
    src_host = topology.host_of_ip.get(key.src)
    dst_host = topology.host_of_ip.get(key.dst)
    if src_host is None or dst_host is None:
        raise MitigationError(f"unknown endpoint in {key.src}->{key.dst}")
    node, in_port = topology.peer(src_host, HOST_PORT)
    path = [src_host]
    for entry, node, _ in walk_rules(topology, rules, key, node, in_port):
        path.append(entry.switch)
        if len(path) - 1 > topology.hop_limit:
            walk = " -> ".join(hop.name for hop in path)
            raise MitigationError(f"forwarding loop for {key.src}->{key.dst}: {walk}")
    if node.is_switch:
        raise MitigationError(f"no rule at {node} for {key.src}->{key.dst}")
    path.append(node)
    return path
