"""Structural node features from the original directed graph.

Three features per node: incoming-requests-accepted ratio, outgoing-requests-
accepted ratio (both from the directed graph), and the local clustering
coefficient (from the triangle counts of the mutualized graph's edges). All
are ratios in [0, 1]; zero-denominator cases are 0 by convention.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph, Graph, mutualize
from .propagate import _scatter


def req_ratios(dg: DirectedGraph, mutual: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (req_in, req_out) for all nodes of `dg`, whose mutualization
    is `mutual`: |In(v) ∩ Out(v)| is v's degree there."""
    recip = mutual.degrees
    indeg = dg.in_degrees
    outdeg = dg.out_degrees
    rin = np.where(indeg > 0, recip / np.maximum(indeg, 1), 0.0)
    rout = np.where(outdeg > 0, recip / np.maximum(outdeg, 1), 0.0)
    return rin, rout


def clustering_all(g: Graph) -> np.ndarray:
    """Local clustering coefficient for every node: its linked ordered neighbor
    pairs (the triangle counts of its edges, summed) over k(k - 1)."""
    t, n, k = g.triangle_sums(), g.node_count, g.degrees
    links = _scatter(np.zeros(n), (g.edge_u, t.__getitem__)) + _scatter(np.zeros(n), (g.edge_v, t.__getitem__))
    return np.where(k >= 2, links / np.maximum(k * (k - 1), 1), 0.0)


def feature_matrix(dg: DirectedGraph | None, g: Graph | None = None) -> np.ndarray:
    """Per-node [req_in, req_out, cc] matrix.

    With a directed graph, the request ratios come from it and the clustering
    coefficient from its mutualization (or from `g` when already computed).
    Undirected-only inputs treat every edge as reciprocal, so both request
    ratios are 1 wherever the node has neighbors.
    """
    if dg is not None:
        if g is None:
            g = mutualize(dg)
        rin, rout = req_ratios(dg, g)
    elif g is not None:
        has_nbrs = (g.degrees > 0).astype(float)
        rin = rout = has_nbrs
    else:
        raise ValueError("feature_matrix needs a directed or undirected graph")
    return np.column_stack([rin, rout, clustering_all(g)])
