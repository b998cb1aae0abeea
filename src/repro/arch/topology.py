"""Network-on-chip topologies: construction and the metrics questions use.

Builds ring, 2D mesh, 2D torus, hypercube and crossbar graphs with networkx
and computes diameter, average hop count, bisection width and link/router
counts.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import networkx as nx
import numpy as np


def ring(n: int) -> nx.Graph:
    """A bidirectional ring of ``n`` routers."""
    if n < 3:
        raise ValueError("ring needs >= 3 nodes")
    return nx.cycle_graph(n)


def mesh2d(rows: int, cols: int) -> nx.Graph:
    """A rows x cols 2-D mesh."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    return nx.grid_2d_graph(rows, cols)


def torus2d(rows: int, cols: int) -> nx.Graph:
    """A rows x cols 2-D torus (mesh with wraparound links)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be >= 3")
    return nx.grid_2d_graph(rows, cols, periodic=True)


def hypercube(dimension: int) -> nx.Graph:
    """A ``dimension``-dimensional binary hypercube."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return nx.hypercube_graph(dimension)


def crossbar(n: int) -> nx.Graph:
    """Fully connected (every pair one hop)."""
    if n < 2:
        raise ValueError("crossbar needs >= 2 nodes")
    return nx.complete_graph(n)


def diameter(graph: nx.Graph) -> int:
    """Longest shortest-path hop count."""
    return nx.diameter(graph)


def average_hops(graph: nx.Graph) -> float:
    """Mean shortest-path length over all router pairs."""
    return nx.average_shortest_path_length(graph)


def link_count(graph: nx.Graph) -> int:
    """Number of bidirectional links."""
    return graph.number_of_edges()


def bisection_width(graph: nx.Graph) -> int:
    """Minimum links cut when splitting nodes into two equal halves.

    Exact (exhaustive) for small graphs; exams only use small instances.
    The search runs on bitmasks: bit ``i`` puts ``nodes[i]`` on the far
    side, ``nodes[0]`` stays on the near side (halving the search), and
    every edge adds its crossing bit into one cut vector.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    if n % 2:
        raise ValueError("bisection needs an even node count")
    if n > 16:
        return _bisection_known(graph, nodes)
    free = np.arange(1 << (n - 1), dtype=np.uint32)
    ones = np.zeros(free.shape, dtype=np.uint8)
    for bit in range(n - 1):
        ones += ((free >> bit) & 1).astype(np.uint8)
    halves = free[ones == n // 2] << 1
    index = {node: i for i, node in enumerate(nodes)}
    cut = np.zeros(halves.shape, dtype=np.uint32)
    for u, v in graph.edges():
        cut += ((halves >> index[u]) ^ (halves >> index[v])) & 1
    return int(cut.min())


def _bisection_known(graph: nx.Graph, nodes) -> int:
    """Closed forms for the standard topologies at larger sizes."""
    n = len(nodes)
    degrees = {d for _, d in graph.degree()}
    edges = graph.number_of_edges()
    if edges == n * (n - 1) // 2:  # crossbar
        return (n // 2) ** 2
    if degrees == {2}:  # ring
        return 2
    # hypercube: n = 2^d, regular of degree d
    d = n.bit_length() - 1
    if 2 ** d == n and degrees == {d}:
        return n // 2
    raise ValueError("unknown large topology; use <= 16 nodes")


def mesh_diameter(rows: int, cols: int) -> int:
    """Closed form: (rows - 1) + (cols - 1)."""
    return (rows - 1) + (cols - 1)


def torus_diameter(rows: int, cols: int) -> int:
    """Closed form: floor(rows/2) + floor(cols/2)."""
    return rows // 2 + cols // 2


def hypercube_diameter(dimension: int) -> int:
    """Closed form: the dimension itself."""
    return dimension


def compare_topologies(n: int) -> Dict[str, Dict[str, float]]:
    """Metric table for the standard topologies at ``n`` nodes (n = k^2 =
    2^d for mesh/hypercube comparability)."""
    side = int(round(math.sqrt(n)))
    dim = n.bit_length() - 1
    table: Dict[str, Dict[str, float]] = {}
    entries = [("ring", ring(n)), ("crossbar", crossbar(n))]
    if side * side == n:
        entries.append(("mesh", mesh2d(side, side)))
        if side >= 3:
            entries.append(("torus", torus2d(side, side)))
    if 2 ** dim == n:
        entries.append(("hypercube", hypercube(dim)))
    for name, graph in entries:
        table[name] = {
            "diameter": float(diameter(graph)),
            "links": float(link_count(graph)),
            "avg_hops": round(average_hops(graph), 3),
        }
    return table


def dor_route(src: Tuple[int, int], dst: Tuple[int, int]) -> list:
    """Dimension-order (XY) route in a mesh; returns the hop list."""
    path = [src]
    x, y = src
    while x != dst[0]:
        x += 1 if dst[0] > x else -1
        path.append((x, y))
    while y != dst[1]:
        y += 1 if dst[1] > y else -1
        path.append((x, y))
    return path
