"""Construction and verification of d-regular spectral expanders.

Appendix B of the paper uses a d-regular λ0-spectral expander F on M vertices
with λ0 = α·d for a small constant α.  Footnote 7 observes that because
spectral expansion is efficiently verifiable and random regular graphs are
expanders with high probability, a Las-Vegas construction (sample, verify,
retry) suffices.  That is exactly what :func:`random_regular_expander` does:
it samples random regular graphs with :func:`random_regular_graph` and
computes the second adjacency eigenvalue with numpy.

:func:`random_regular_graph` is a port of NetworkX 3.6.1's
``random_regular_graph`` (Steger–Wormald stub pairing driven by
``random.Random(seed)``): for every ``(d, n, seed)`` it returns the edge set
NetworkX builds, so expanders, and the public parameters built on them, are
the ones the NetworkX-based construction produced.  The committed fixture
``tests/data/expander_graphs/`` pins that.

For very small vertex counts (M <= d + 1) the complete graph is returned; it
is the best possible expander on those sizes and keeps the decoder working for
toy parameters used in tests.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

Edge = Tuple[int, int]


def random_regular_graph(degree: int, num_vertices: int, seed: int) -> Set[Edge]:
    """Edges ``(u, v)``, ``u < v``, of a random ``degree``-regular graph on
    ``0..num_vertices-1`` with no self-loops or parallel edges.

    Steger and Wormald's pairing: shuffle ``degree`` stubs per vertex, pair
    them off, keep the pairs that make a new edge, and re-pair the stubs of
    the rest; start over if no stub pair left can make an edge.  Every draw
    comes from ``random.Random(seed)`` in NetworkX 3.6.1's order.
    """
    if (num_vertices * degree) % 2 != 0:
        raise ValueError("num_vertices * degree must be even")
    if not 0 <= degree < num_vertices:
        raise ValueError("need 0 <= degree < num_vertices")
    if degree == 0:
        return set()
    rng = random.Random(seed)
    while True:
        edges = _pair_stubs(degree, num_vertices, rng)
        if edges is not None:
            return edges


def _pair_stubs(degree: int, num_vertices: int,
                rng: random.Random) -> Optional[Set[Edge]]:
    """One pairing attempt of :func:`random_regular_graph` (``None`` if it
    got stuck)."""
    edges: Set[Edge] = set()
    stubs = list(range(num_vertices)) * degree
    while stubs:
        # insertion-ordered: the next round's stubs are listed in this order
        leftover: Dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if leftover and not _can_pair(leftover, edges):
            return None
        stubs = [node for node, count in leftover.items()
                 for _ in range(count)]
    return edges


def _can_pair(leftover: Dict[int, int], edges: Set[Edge]) -> bool:
    """NetworkX's test that some leftover stub pair can still make an edge,
    kept literally: the swap rebinds ``s1`` for the rest of the inner loop,
    so it skips some pairs, and which it skips decides when a pairing
    starts over."""
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def neighbor_lists_of(num_vertices: int,
                      edges: Iterable[Edge]) -> Tuple[Tuple[int, ...], ...]:
    """Each vertex's sorted neighbours in an undirected edge set."""
    neighbors: List[List[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in neighbors)


def adjacency_matrix(neighbor_lists: Sequence[Sequence[int]]) -> np.ndarray:
    """The float64 0/1 adjacency matrix of a simple graph."""
    n = len(neighbor_lists)
    adjacency = np.zeros((n, n))
    rows = [u for u, nbrs in enumerate(neighbor_lists) for _ in nbrs]
    cols = [v for nbrs in neighbor_lists for v in nbrs]
    adjacency[rows, cols] = 1.0
    return adjacency


def is_connected(neighbor_lists: Sequence[Sequence[int]]) -> bool:
    """Whether a graph with at least one vertex is connected (BFS)."""
    seen = {0}
    queue = deque([0])
    while queue:
        for v in neighbor_lists[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(neighbor_lists)


def second_eigenvalue(neighbor_lists: Sequence[Sequence[int]]) -> float:
    """Second largest eigenvalue (in magnitude) of the unnormalised adjacency
    matrix of the graph with these neighbour lists."""
    if len(neighbor_lists) < 2:
        return 0.0
    eigenvalues = np.linalg.eigvalsh(adjacency_matrix(neighbor_lists))
    magnitudes = np.sort(np.abs(eigenvalues))[::-1]
    return float(magnitudes[1])


@dataclass(frozen=True)
class ExpanderGraph:
    """A d-regular graph on vertices ``0..num_vertices-1`` with a verified spectral bound.

    Attributes
    ----------
    neighbor_lists:
        ``neighbor_lists[m]`` is the ordered tuple of the d neighbours of m,
        i.e. ``Γ(m)_1, ..., Γ(m)_d`` in the paper's notation.  The ordering is
        fixed so that encoders and decoders agree on which neighbour index a
        hash value refers to.
    degree:
        The regular degree d.
    lambda2:
        The verified second adjacency eigenvalue (in magnitude).
    """

    neighbor_lists: Tuple[Tuple[int, ...], ...]
    degree: int
    lambda2: float

    @property
    def num_vertices(self) -> int:
        return len(self.neighbor_lists)

    @property
    def spectral_ratio(self) -> float:
        """λ2 / d — the α of an α·d-spectral expander."""
        return self.lambda2 / self.degree if self.degree else 0.0

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """The ordered neighbours Γ(vertex)."""
        return self.neighbor_lists[vertex]

    def neighbor_index(self, vertex: int, neighbor: int) -> int:
        """Position of ``neighbor`` within Γ(vertex); raises ValueError if absent."""
        return self.neighbor_lists[vertex].index(neighbor)

    def edge_boundary_size(self, subset: Sequence[int]) -> int:
        """Number of edges with exactly one endpoint in ``subset``."""
        inside = set(int(v) for v in subset)
        count = 0
        for u in inside:
            for v in self.neighbor_lists[u]:
                if v not in inside:
                    count += 1
        return count


def expander_mixing_lower_bound(degree: int, lambda2: float, subset_size: int,
                                num_vertices: int) -> float:
    """Lemma B.1: for any S with |S| = r|V|, ``|∂S| >= (d - λ)(1 - r)|S|``."""
    check_positive_int(degree, "degree")
    check_positive_int(num_vertices, "num_vertices")
    if not 0 <= subset_size <= num_vertices:
        raise ValueError("subset_size must lie in [0, num_vertices]")
    if subset_size == 0:
        return 0.0
    r = subset_size / num_vertices
    return (degree - lambda2) * (1.0 - r) * subset_size


def _complete_graph_expander(num_vertices: int) -> ExpanderGraph:
    """The complete graph K_M as an expander (used for tiny M)."""
    neighbor_lists = tuple(
        tuple(v for v in range(num_vertices) if v != u) for u in range(num_vertices)
    )
    return ExpanderGraph(neighbor_lists=neighbor_lists, degree=num_vertices - 1,
                         lambda2=second_eigenvalue(neighbor_lists))


def random_regular_expander(num_vertices: int, degree: int,
                            spectral_ratio: float = 0.5,
                            rng: RandomState = None,
                            max_attempts: int = 50) -> ExpanderGraph:
    """Sample a d-regular graph and verify it is a ``spectral_ratio * d``-expander.

    Parameters
    ----------
    num_vertices:
        Number of vertices M.
    degree:
        Regular degree d; if ``num_vertices * degree`` is odd, which no
        d-regular graph allows, d + 1 is used.  If ``num_vertices <= degree
        + 1`` the complete graph is returned instead.
    spectral_ratio:
        Acceptance threshold α: the graph is accepted when λ2 <= α·d.  Random
        regular graphs have λ2 ≈ 2·sqrt(d-1) with high probability, so α = 0.5
        is comfortably achievable for d >= 16 and still fine for d = 8.
    rng, max_attempts:
        Las-Vegas retry control.  If no accepted graph is found within the
        attempt budget the best candidate seen is returned (its λ2 is recorded,
        so callers can still reason about the actual expansion).
    """
    check_positive_int(num_vertices, "num_vertices")
    check_positive_int(degree, "degree")
    if num_vertices <= degree + 1:
        return _complete_graph_expander(num_vertices)
    gen = as_generator(rng)

    best: ExpanderGraph | None = None
    actual_degree = degree
    if (num_vertices * degree) % 2 != 0:
        actual_degree = degree + 1
        if num_vertices <= actual_degree + 1:
            return _complete_graph_expander(num_vertices)

    for _ in range(max_attempts):
        seed = int(gen.integers(0, 2**31 - 1))
        neighbor_lists = neighbor_lists_of(
            num_vertices, random_regular_graph(actual_degree, num_vertices, seed))
        lam = second_eigenvalue(neighbor_lists)
        candidate = ExpanderGraph(neighbor_lists=neighbor_lists,
                                  degree=actual_degree, lambda2=lam)
        if best is None or candidate.lambda2 < best.lambda2:
            best = candidate
        if lam <= spectral_ratio * actual_degree and is_connected(neighbor_lists):
            return candidate
    assert best is not None
    return best


def neighbor_map(expander: ExpanderGraph) -> Dict[int, List[int]]:
    """Convenience: neighbour lists as a plain dictionary."""
    return {u: list(nbrs) for u, nbrs in enumerate(expander.neighbor_lists)}
