"""The heap search, kept as the oracle for ``routing.shortest_path``.

``sdnsim.routing`` walks back from the destination over the distances of
one breadth-first search, and memoises the walked path per attachment
switch and destination. This module keeps the search it replaced:
nodes expand in (distance, id) order and each node keeps the first
predecessor that reaches it, so ``shortest_path`` here must return the same
path.
"""

import heapq

from sdnsim.routing import RoutingError


def shortest_path(topology, a, b):
    if a not in topology.nodes or b not in topology.nodes:
        raise RoutingError("path endpoints must exist in the topology")
    if a == b:
        return [a]

    dist = {a: 0}
    pred = {}
    frontier = [(0, a)]
    done = set()
    while frontier:
        d, node = heapq.heappop(frontier)
        if node in done:
            continue
        done.add(node)
        if node == b:
            break
        for peer, _ in sorted(topology.neighbors(node)):
            if d + 1 < dist.get(peer, 1 << 30):
                dist[peer] = d + 1
                pred[peer] = node
                heapq.heappush(frontier, (d + 1, peer))

    if b not in dist:
        raise RoutingError(f"{b} unreachable from {a}")
    path = [b]
    while path[-1] != a:
        path.append(pred[path[-1]])
    path.reverse()
    return path
