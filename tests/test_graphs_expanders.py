"""Tests for repro.graphs.expanders: regular expander construction and mixing lemma."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.expanders import (
    adjacency_matrix,
    expander_mixing_lower_bound,
    is_connected,
    neighbor_lists_of,
    neighbor_map,
    random_regular_expander,
    random_regular_graph,
    second_eigenvalue,
)

#: NetworkX 3.6.1's samples and expanders (tests/data/expander_graphs/generate.py)
FIXTURE = json.loads((Path(__file__).parent / "data" / "expander_graphs"
                      / "graphs.json").read_text())


def complete_lists(n):
    return [[v for v in range(n) if v != u] for u in range(n)]


class TestSecondEigenvalue:
    def test_complete_graph(self):
        # K_n has eigenvalues n-1 and -1 (n-1 times): second largest magnitude is 1.
        assert second_eigenvalue(complete_lists(6)) == pytest.approx(1.0, abs=1e-8)

    def test_disconnected_graph_has_large_lambda2(self):
        k4 = complete_lists(4)
        graph = k4 + [[v + 4 for v in nbrs] for nbrs in k4]
        # Two copies of K_4: eigenvalue 3 has multiplicity 2.
        assert second_eigenvalue(graph) == pytest.approx(3.0, abs=1e-8)
        assert not is_connected(graph)
        assert is_connected(k4)

    def test_single_vertex(self):
        assert second_eigenvalue([[]]) == 0.0

    def test_adjacency_matrix(self):
        path = [[1], [0, 2], [1]]
        assert np.array_equal(adjacency_matrix(path),
                              [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert adjacency_matrix(path).dtype == np.float64


class TestRegularGraphSampler:
    @pytest.mark.parametrize("case", FIXTURE["samples"],
                             ids=lambda c: f"d{c['degree']}-n{c['num_vertices']}"
                                           f"-s{c['seed']}")
    def test_matches_networkx(self, case):
        edges = random_regular_graph(case["degree"], case["num_vertices"],
                                     case["seed"])
        assert all(u < v for u, v in edges)
        lists = neighbor_lists_of(case["num_vertices"], edges)
        assert [list(nbrs) for nbrs in lists] == case["neighbor_lists"]

    def test_rejects_impossible_degrees(self):
        with pytest.raises(ValueError):
            random_regular_graph(3, 5, 0)
        with pytest.raises(ValueError):
            random_regular_graph(4, 4, 0)
        assert random_regular_graph(0, 4, 0) == set()


class TestRandomRegularExpander:
    @pytest.mark.parametrize("case", FIXTURE["expanders"],
                             ids=lambda c: f"M{c['num_vertices']}-d{c['degree']}"
                                           f"-s{c['seed']}")
    def test_matches_networkx_construction(self, case):
        expander = random_regular_expander(case["num_vertices"], case["degree"],
                                           rng=case["seed"])
        assert expander.degree == case["used_degree"]
        assert float.hex(expander.lambda2) == case["lambda2"]
        assert [list(nbrs) for nbrs in expander.neighbor_lists] \
            == case["neighbor_lists"]

    def test_regularity_and_spectral_bound(self):
        expander = random_regular_expander(64, 8, spectral_ratio=0.7, rng=0)
        assert expander.num_vertices == 64
        assert expander.degree == 8
        for m in range(64):
            assert len(expander.neighbors(m)) == 8
            assert m not in expander.neighbors(m)
        assert expander.lambda2 <= 0.7 * 8
        assert expander.spectral_ratio == pytest.approx(expander.lambda2 / 8)

    def test_symmetry_of_neighbor_lists(self):
        expander = random_regular_expander(32, 4, rng=1)
        for u in range(32):
            for v in expander.neighbors(u):
                assert u in expander.neighbors(v)

    def test_neighbor_index_round_trip(self):
        expander = random_regular_expander(20, 4, rng=2)
        for u in range(20):
            for v in expander.neighbors(u):
                assert expander.neighbors(u)[expander.neighbor_index(u, v)] == v
        with pytest.raises(ValueError):
            expander.neighbor_index(0, [v for v in range(20)
                                        if v != 0 and v not in expander.neighbors(0)][0])

    def test_small_vertex_count_falls_back_to_complete_graph(self):
        expander = random_regular_expander(4, 6, rng=0)
        assert expander.degree == 3
        for u in range(4):
            assert set(expander.neighbors(u)) == set(range(4)) - {u}

    def test_odd_degree_odd_vertices_adjusted(self):
        # n*d odd is impossible for a regular graph; the constructor bumps d.
        expander = random_regular_expander(15, 3, rng=0)
        assert expander.degree in (3, 4)
        assert expander.num_vertices == 15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            random_regular_expander(0, 3)
        with pytest.raises(ValueError):
            random_regular_expander(10, 0)


class TestEdgeBoundaryAndMixing:
    def test_edge_boundary_complete_graph(self):
        expander = random_regular_expander(6, 8, rng=0)  # complete graph K_6
        assert expander.edge_boundary_size([0, 1]) == 2 * 4

    def test_mixing_lemma_holds_empirically(self):
        expander = random_regular_expander(64, 8, spectral_ratio=0.7, rng=5)
        subset = list(range(16))
        bound = expander_mixing_lower_bound(expander.degree, expander.lambda2,
                                            len(subset), expander.num_vertices)
        assert expander.edge_boundary_size(subset) >= bound - 1e-9

    def test_mixing_lemma_edge_cases(self):
        assert expander_mixing_lower_bound(4, 1.0, 0, 10) == 0.0
        with pytest.raises(ValueError):
            expander_mixing_lower_bound(4, 1.0, 11, 10)

    def test_neighbor_map(self):
        expander = random_regular_expander(8, 2, rng=0)
        mapping = neighbor_map(expander)
        assert set(mapping) == set(range(8))
        assert all(len(v) == expander.degree for v in mapping.values())
