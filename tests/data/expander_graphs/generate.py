"""Regenerate the committed expander-graph fixture (``graphs.json``).

The reference is NetworkX 3.6.1: ``samples`` holds the neighbour lists of
``networkx.random_regular_graph(d, n, seed)``, and ``expanders`` holds the
result of the NetworkX-based Las-Vegas construction that
``repro.graphs.expanders.random_regular_expander`` used before it carried
its own sampler, re-stated below (``_reference_expander``): the chosen
degree, ``float.hex`` of λ2 and the neighbour lists.  The cases cover the
production shape of the expander sketch (M=9, d=2, where no graph passes
the λ2 test and all 50 attempts run), an odd M·d (degree bump), M <= d+1
(complete graph), pairings that start over, and M up to 1024.  Running

    PYTHONPATH=src python tests/data/expander_graphs/generate.py

(with networkx 3.6.1 installed) rewrites ``graphs.json``;
``tests/test_graphs_expanders.py`` requires the in-repo sampler and
construction to reproduce every case exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import networkx as nx
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[3] / "src"))

from repro.utils.rng import as_generator  # noqa: E402

OUT = Path(__file__).parent / "graphs.json"

#: (d, n, seed) of raw samples, small and large graphs.  The pairings of
#: (3, 10, 1) and the last five before (4, 1024, 1) start over; those five
#: also depend on how NetworkX tests whether leftover stubs can still pair
SAMPLES = [(2, 9, 0), (3, 10, 1), (4, 32, 5), (8, 11, 2), (12, 15, 0),
           (16, 20, 0), (6, 9, 2), (5, 100, 7), (4, 1024, 1)]
#: (M, d, seed) of expanders
EXPANDERS = [(9, 2, 0), (9, 2, 1), (9, 2, 7), (15, 3, 0), (4, 6, 0),
             (6, 8, 0), (5, 3, 0), (12, 4, 0), (64, 8, 0), (100, 5, 1),
             (1024, 16, 0)]


def _lists(graph: nx.Graph):
    return [sorted(graph.neighbors(u)) for u in range(graph.number_of_nodes())]


def _lambda2(graph: nx.Graph) -> float:
    if graph.number_of_nodes() < 2:
        return 0.0
    eigenvalues = np.linalg.eigvalsh(nx.to_numpy_array(graph))
    return float(np.sort(np.abs(eigenvalues))[::-1][1])


def _reference_expander(num_vertices: int, degree: int, seed: int,
                        spectral_ratio: float = 0.5, max_attempts: int = 50):
    """``(degree, λ2, neighbour lists)`` of the NetworkX-based construction."""
    if num_vertices <= degree + 1:
        graph = nx.complete_graph(num_vertices)
        return num_vertices - 1, _lambda2(graph), _lists(graph)
    gen = as_generator(seed)
    if (num_vertices * degree) % 2 != 0:
        degree += 1
        if num_vertices <= degree + 1:
            graph = nx.complete_graph(num_vertices)
            return num_vertices - 1, _lambda2(graph), _lists(graph)
    best = None
    for _ in range(max_attempts):
        graph = nx.random_regular_graph(degree, num_vertices,
                                        seed=int(gen.integers(0, 2**31 - 1)))
        lam = _lambda2(graph)
        if best is None or lam < best[1]:
            best = (degree, lam, _lists(graph))
        if lam <= spectral_ratio * degree and nx.is_connected(graph):
            return degree, lam, _lists(graph)
    return best


def main() -> None:
    samples = [{"degree": d, "num_vertices": n, "seed": seed,
                "neighbor_lists": _lists(nx.random_regular_graph(d, n, seed))}
               for d, n, seed in SAMPLES]
    expanders = []
    for m, d, seed in EXPANDERS:
        used, lam, lists = _reference_expander(m, d, seed)
        expanders.append({"num_vertices": m, "degree": d, "seed": seed,
                          "used_degree": used, "lambda2": float.hex(lam),
                          "neighbor_lists": lists})
    payload = {"networkx": nx.__version__, "samples": samples,
               "expanders": expanders}
    OUT.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
