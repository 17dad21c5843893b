"""Tests for repro.graphs.spectral_cluster: cluster recovery in layered graphs."""

import pytest

from repro.graphs.expanders import random_regular_expander
from repro.graphs.spectral_cluster import (
    SpectralClusterer,
    adjacency_from_edges,
    volume,
)


def expander_copy_edges(expander, label):
    """Edges of a copy of the expander with vertices tagged by ``label``."""
    edges = []
    for u in range(expander.num_vertices):
        for v in expander.neighbors(u):
            if u < v:
                edges.append(((label, u), (label, v)))
    return edges


class TestAdjacencyHelpers:
    def test_adjacency_from_edges(self):
        adjacency = adjacency_from_edges([(1, 2), (2, 3), (3, 3)])
        assert adjacency[2] == {1, 3}
        assert 3 in adjacency and adjacency[3] == {2}

    def test_volume(self):
        adjacency = adjacency_from_edges([(1, 2), (2, 3)])
        assert volume([2], adjacency) == 2
        assert volume([1, 3], adjacency) == 2


class TestConnectedComponentClustering:
    def test_two_disjoint_clusters_found(self):
        expander = random_regular_expander(12, 4, rng=0)
        edges = expander_copy_edges(expander, "a") + expander_copy_edges(expander, "b")
        adjacency = adjacency_from_edges(edges)
        clusterer = SpectralClusterer(expected_cluster_size=12)
        clusters = clusterer.find_clusters(adjacency)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [12, 12]
        labels = [{v[0] for v in cluster} for cluster in clusters]
        assert all(len(label_set) == 1 for label_set in labels)

    def test_tiny_components_discarded(self):
        adjacency = adjacency_from_edges([(("noise", 0), ("noise", 1))])
        clusterer = SpectralClusterer(expected_cluster_size=8, min_cluster_size=4)
        assert clusterer.find_clusters(adjacency) == []

    def test_isolated_vertices_ignored(self):
        adjacency = {("x", 0): set()}
        clusterer = SpectralClusterer(expected_cluster_size=4, min_cluster_size=2)
        assert clusterer.find_clusters(adjacency) == []


class TestSpectralSplitting:
    def test_two_clusters_joined_by_one_edge_are_split(self):
        expander = random_regular_expander(12, 4, rng=1)
        edges = expander_copy_edges(expander, "a") + expander_copy_edges(expander, "b")
        # A single spurious bridge merges the two copies into one component.
        edges.append((("a", 0), ("b", 0)))
        adjacency = adjacency_from_edges(edges)
        clusterer = SpectralClusterer(expected_cluster_size=12)
        clusters = clusterer.find_clusters(adjacency)
        assert len(clusters) == 2
        for cluster in clusters:
            labels = {v[0] for v in cluster}
            assert len(labels) == 1
            assert len(cluster) == 12

    def test_single_expander_not_split(self):
        """A genuine expander has high conductance and must stay whole."""
        expander = random_regular_expander(16, 6, rng=2)
        adjacency = adjacency_from_edges(expander_copy_edges(expander, "a"))
        clusterer = SpectralClusterer(expected_cluster_size=8)  # undersized on purpose
        clusters = clusterer.find_clusters(adjacency)
        assert len(clusters) == 1
        assert len(clusters[0]) == 16

    def test_path_graph_is_split(self):
        """A long path (low conductance everywhere) is allowed to be split."""
        adjacency = {u: {v for v in (u - 1, u + 1) if 0 <= v < 40}
                     for u in range(40)}
        clusterer = SpectralClusterer(expected_cluster_size=10, min_cluster_size=3)
        clusters = clusterer.find_clusters(adjacency)
        assert len(clusters) >= 2
        recovered = sorted(v for cluster in clusters for v in cluster)
        assert len(recovered) == len(set(recovered))


class TestValidation:
    def test_rejects_bad_cluster_size(self):
        with pytest.raises(ValueError):
            SpectralClusterer(expected_cluster_size=0)
