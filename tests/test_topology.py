"""Tests for NoC topology construction and metrics."""

import itertools
import math
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import topology as topo


def _brute_force_bisection(graph):
    """Reference: the original ``itertools.combinations`` search."""
    nodes = list(graph.nodes())
    n = len(nodes)
    best = math.inf
    for half in itertools.combinations(nodes, n // 2):
        if nodes[0] not in half:
            continue
        half_set = set(half)
        cut = sum(
            1 for u, v in graph.edges()
            if (u in half_set) != (v in half_set)
        )
        best = min(best, cut)
    return int(best)


@st.composite
def _even_order_graphs(draw):
    """Random even-order graphs with 2..16 nodes."""
    n = draw(st.sampled_from(range(2, 17, 2)))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(pair for pair, kept in zip(pairs, keep) if kept)
    return graph


class TestConstruction:
    def test_ring(self):
        graph = topo.ring(8)
        assert graph.number_of_nodes() == 8
        assert all(d == 2 for _, d in graph.degree())

    def test_mesh(self):
        graph = topo.mesh2d(3, 4)
        assert graph.number_of_nodes() == 12
        assert topo.link_count(graph) == 3 * 3 + 2 * 4

    def test_torus_regular_degree_four(self):
        graph = topo.torus2d(4, 4)
        assert all(d == 4 for _, d in graph.degree())

    def test_hypercube(self):
        graph = topo.hypercube(4)
        assert graph.number_of_nodes() == 16
        assert all(d == 4 for _, d in graph.degree())

    def test_crossbar_complete(self):
        graph = topo.crossbar(5)
        assert topo.link_count(graph) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            topo.ring(2)
        with pytest.raises(ValueError):
            topo.hypercube(0)


class TestMetrics:
    def test_mesh_diameter_closed_form(self):
        for rows, cols in ((2, 2), (3, 3), (4, 4), (3, 5)):
            graph = topo.mesh2d(rows, cols)
            assert topo.diameter(graph) == topo.mesh_diameter(rows, cols)

    def test_torus_diameter_closed_form(self):
        for side in (3, 4, 5):
            graph = topo.torus2d(side, side)
            assert topo.diameter(graph) == topo.torus_diameter(side, side)

    def test_hypercube_diameter(self):
        for dim in (2, 3, 4):
            assert topo.diameter(topo.hypercube(dim)) == dim

    def test_crossbar_diameter_one(self):
        assert topo.diameter(topo.crossbar(6)) == 1

    def test_average_hops_less_than_diameter(self):
        graph = topo.mesh2d(4, 4)
        assert topo.average_hops(graph) < topo.diameter(graph)


class TestBisection:
    def test_ring_bisection_two(self):
        assert topo.bisection_width(topo.ring(8)) == 2

    def test_hypercube_bisection(self):
        assert topo.bisection_width(topo.hypercube(3)) == 4
        assert topo.bisection_width(topo.hypercube(4)) == 8

    def test_mesh_bisection(self):
        assert topo.bisection_width(topo.mesh2d(4, 4)) == 4

    def test_crossbar_bisection(self):
        assert topo.bisection_width(topo.crossbar(4)) == 4

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            topo.bisection_width(topo.ring(5))

    @settings(max_examples=40, deadline=None)
    @given(_even_order_graphs())
    def test_bitmask_search_matches_brute_force(self, graph):
        assert (topo.bisection_width(graph)
                == _brute_force_bisection(graph))

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_edgeless_and_complete_graphs(self, n):
        edgeless = nx.empty_graph(n)
        complete = nx.complete_graph(n)
        assert topo.bisection_width(edgeless) == 0
        assert topo.bisection_width(complete) == (n // 2) ** 2
        assert (topo.bisection_width(complete)
                == _brute_force_bisection(complete))

    def test_tuple_labelled_nodes_match_brute_force(self):
        graph = topo.torus2d(4, 4)
        assert (topo.bisection_width(graph)
                == _brute_force_bisection(graph) == 8)

    def test_search_allocates_under_one_megabyte(self):
        graph = topo.hypercube(4)
        topo.bisection_width(graph)  # warm imports and lazy state
        tracemalloc.start()
        try:
            topo.bisection_width(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_large_known_topologies(self):
        assert topo.bisection_width(topo.ring(64)) == 2
        assert topo.bisection_width(topo.hypercube(5)) == 16
        assert topo.bisection_width(topo.crossbar(20)) == 100


class TestComparison:
    def test_compare_topologies_at_16(self):
        table = topo.compare_topologies(16)
        assert set(table) >= {"ring", "crossbar", "mesh", "hypercube"}
        assert table["crossbar"]["diameter"] == 1.0
        assert table["hypercube"]["diameter"] == 4.0
        assert table["ring"]["diameter"] == 8.0

    def test_dor_route_is_x_then_y(self):
        path = topo.dor_route((0, 0), (2, 2))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]

    def test_dor_route_length_is_manhattan(self):
        path = topo.dor_route((3, 1), (0, 4))
        assert len(path) - 1 == 3 + 3
