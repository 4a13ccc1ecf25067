import numpy as np
import pytest

from trustprop import features
from trustprop.features import clustering_all, feature_matrix, req_ratios
from trustprop.graph import BENIGN, SYBIL, mutualize

from conftest import (clustering_coefficient_oracle as clustering_coefficient, digraph_from_pairs,
                      graph_from_pairs, has_edge, random_graph, req_in_oracle as req_in,
                      req_out_oracle as req_out)


def triangle_oracle_cc(g, v):
    """Brute-force triple enumeration of connected ordered neighbor pairs."""
    nbrs = set(g.neighbors(v).tolist())
    k = len(nbrs)
    if k < 2:
        return 0.0
    ordered = 0
    for i in nbrs:
        for j in nbrs:
            if i != j and has_edge(g, i, j):
                ordered += 1
    return ordered / (k * (k - 1))


class TestRequestRatios:
    def test_req_in_half(self):
        # node 0: In = {1, 2}, Out = {2, 3}
        dg = digraph_from_pairs(4, [(1, 0), (2, 0), (0, 2), (0, 3)])
        assert req_in(dg, 0) == pytest.approx(0.5)

    def test_req_in_empty_inbound(self):
        dg = digraph_from_pairs(3, [(0, 1), (0, 2)])
        assert req_in(dg, 0) == 0.0

    def test_req_in_fully_reciprocal(self):
        dg = digraph_from_pairs(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
        assert req_in(dg, 0) == pytest.approx(1.0)

    def test_req_out_half(self):
        dg = digraph_from_pairs(4, [(1, 0), (2, 0), (0, 2), (0, 3)])
        assert req_out(dg, 0) == pytest.approx(0.5)

    def test_req_out_empty_outbound(self):
        dg = digraph_from_pairs(3, [(1, 0), (2, 0)])
        assert req_out(dg, 0) == 0.0

    def test_req_out_all_reciprocated(self):
        dg = digraph_from_pairs(3, [(0, 1), (1, 0), (2, 0)])
        assert req_out(dg, 0) == pytest.approx(1.0)

    def test_feature_matrix_mutualizes_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 25, size=(200, 2)) if a != b]
        dg = digraph_from_pairs(25, pairs)
        calls = []
        monkeypatch.setattr(features, "mutualize", lambda d: calls.append(d) or mutualize(d))
        feats = feature_matrix(dg)
        assert len(calls) == 1
        for v in range(25):
            assert feats[v, 0] == pytest.approx(req_in(dg, v), abs=1e-12)
            assert feats[v, 1] == pytest.approx(req_out(dg, v), abs=1e-12)

    def test_vectorized_matches_single_node(self):
        rng = np.random.default_rng(10)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 25, size=(200, 2)) if a != b]
        dg = digraph_from_pairs(25, pairs)
        rin, rout = req_ratios(dg, mutualize(dg))
        for v in range(25):
            assert rin[v] == pytest.approx(req_in(dg, v), abs=1e-12)
            assert rout[v] == pytest.approx(req_out(dg, v), abs=1e-12)


class TestClusteringCoefficient:
    def test_triangle_complete_neighborhood(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        assert clustering_coefficient(g, 0) == pytest.approx(1.0)

    def test_low_degree_zero(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert clustering_coefficient(g, 0) == 0.0
        assert clustering_coefficient(g, 2) == 0.0

    def test_against_triple_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        g = random_graph(20, 0.3, rng)
        cc = clustering_all(g)
        for v in range(20):
            assert cc[v] == pytest.approx(triangle_oracle_cc(g, v), abs=1e-12)
            assert clustering_coefficient(g, v) == pytest.approx(cc[v], abs=1e-12)


class TestFeatureMatrix:
    def test_columns_in_unit_interval(self, directed_social_scenario):
        dg, labels = directed_social_scenario
        feats = feature_matrix(dg)
        assert feats.shape == (dg.node_count, 3)
        assert np.all(feats >= 0.0)
        assert np.all(feats <= 1.0)
        assert np.all(np.isfinite(feats))

    def test_sybil_benign_separation_directions(self, directed_social_scenario):
        # Sybils: higher req_in, lower req_out, lower cc (population means).
        dg, labels = directed_social_scenario
        feats = feature_matrix(dg)
        benign = labels == BENIGN
        sybil = labels == SYBIL
        assert feats[sybil, 0].mean() > feats[benign, 0].mean()
        assert feats[sybil, 1].mean() < feats[benign, 1].mean()
        assert feats[sybil, 2].mean() < feats[benign, 2].mean()

    def test_undirected_fallback(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 0)])
        feats = feature_matrix(None, g)
        assert feats[0].tolist() == [1.0, 1.0, 1.0]
        assert feats[3].tolist() == [0.0, 0.0, 0.0]

    def test_cc_uses_mutualized_graph(self, directed_social_scenario):
        dg, _ = directed_social_scenario
        g = mutualize(dg)
        feats = feature_matrix(dg)
        assert np.allclose(feats[:, 2], clustering_all(g), atol=1e-12)

    def test_deterministic(self, directed_social_scenario):
        dg, _ = directed_social_scenario
        assert np.array_equal(feature_matrix(dg), feature_matrix(dg))
