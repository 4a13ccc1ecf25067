"""The per-edge triangle pass against the scalar loop oracles in conftest.

`clustering_all` and `edge_similarity` both derive from
`Graph.triangle_sums`; clustering, Jaccard and cosine use the same integers
as the loops and must match them exactly, Adamic-Adar only up to summation
order.
"""

import itertools

import numpy as np
import pytest

from trustprop import graph as graph_module
from trustprop.classifier import SIMILARITY_METRICS, edge_similarity
from trustprop.features import clustering_all
from trustprop.graph import Graph

from conftest import (clustering_loop_oracle, edge_similarity_loop_oracle, graph_from_pairs,
                      random_graph)


def clique(nodes):
    return list(itertools.combinations(nodes, 2))


STRUCTURED = {
    "no-nodes": (0, []),
    "no-edges": (5, []),
    "isolated-and-pendants": (8, [(0, 1), (1, 2), (2, 0), (2, 3), (1, 4)]),
    "path": (4, [(0, 1), (1, 2), (2, 3)]),
    **{f"K{k}": (k, clique(range(k))) for k in range(3, 8)},
    # hub 0 joined to every leaf, and the leaves joined to each other
    "star-over-clique": (7, [(0, leaf) for leaf in range(1, 7)] + clique(range(1, 7))),
    "two-disjoint-triangles": (7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]),
}


def random_graphs():
    rng = np.random.default_rng(20261018)
    for i in range(120):
        n = int(rng.integers(2, 30))
        edge_prob = 0.02 + 0.96 * i / 119  # sparse to dense
        yield random_graph(n, edge_prob, rng)


def assert_matches_oracles(g: Graph):
    assert np.array_equal(clustering_all(g), clustering_loop_oracle(g))
    for metric in ("jaccard", "cosine"):
        assert np.array_equal(edge_similarity(g, metric), edge_similarity_loop_oracle(g, metric))
    np.testing.assert_allclose(edge_similarity(g, "adamic-adar"),
                               edge_similarity_loop_oracle(g, "adamic-adar"), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_structured_graphs_match_oracles(name):
    n, pairs = STRUCTURED[name]
    assert_matches_oracles(graph_from_pairs(n, pairs))


def test_random_graphs_match_oracles():
    for g in random_graphs():
        assert_matches_oracles(g)


def test_clique_counts():
    # every edge of K_k lies on k - 2 triangles
    for k in range(3, 8):
        g = graph_from_pairs(k, clique(range(k)))
        assert g.triangle_sums().tolist() == [k - 2] * g.edge_count


def test_weights_sum_over_common_neighbors():
    # edge (0, 1) has common neighbors 2 and 3; edge (2, 3) has none
    g = graph_from_pairs(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    weights = np.array([1.0, 2.0, 10.0, 100.0, 1000.0])
    sums = dict(zip(zip(g.edge_u.tolist(), g.edge_v.tolist()), g.triangle_sums(weights).tolist()))
    assert sums[(0, 1)] == 110.0
    assert sums[(2, 3)] == 3.0
    assert sums[(3, 4)] == 0.0


def test_count_is_cached_per_graph():
    g = random_graph(20, 0.4, np.random.default_rng(5))
    assert g.triangle_sums() is g.triangle_sums()


@pytest.mark.parametrize("budget", [1, 3])
def test_chunk_budget_does_not_change_results(monkeypatch, budget):
    graphs = [graph_from_pairs(n, pairs) for n, pairs in STRUCTURED.values()]
    graphs += list(itertools.islice(random_graphs(), 0, 120, 6))
    want = [(g.triangle_sums().copy(), [edge_similarity(g, m) for m in SIMILARITY_METRICS])
            for g in graphs]
    monkeypatch.setattr(graph_module, "_WEDGE_CHUNK", budget)
    for g, (counts, sims) in zip(graphs, want):
        fresh = Graph(g.node_count, g.edge_u, g.edge_v)
        assert np.array_equal(fresh.triangle_sums(), counts)
        for metric, expected in zip(SIMILARITY_METRICS, sims):
            got = edge_similarity(fresh, metric)
            if metric == "adamic-adar":  # summation order follows the chunks
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(got, expected)
