"""Structural node features from the original directed graph.

Three features per node: incoming-requests-accepted ratio, outgoing-requests-
accepted ratio (both from the directed graph), and the local clustering
coefficient (the triangle counts of the mutualized graph's edges, summed into
nodes by graph's `_scatter`). All are ratios in [0, 1]; zero-denominator cases
are 0 by convention.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph, Graph, _scatter


def req_ratios(dg: DirectedGraph, mutual: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (req_in, req_out) for all nodes of `dg`, whose mutualization
    is `mutual`: |In(v) ∩ Out(v)| is v's degree there."""
    recip = mutual.degrees
    return tuple(np.where(d > 0, recip / np.maximum(d, 1), 0.0) for d in (dg.in_degrees, dg.out_degrees))


def clustering_all(g: Graph) -> np.ndarray:
    """Local clustering coefficient for every node: its linked ordered neighbor
    pairs (the triangle counts of its edges, summed) over k(k - 1)."""
    t, n, k = g.triangle_sums(), g.node_count, g.degrees
    links = _scatter(np.zeros(n), (g.edge_u, t.__getitem__)) + _scatter(np.zeros(n), (g.edge_v, t.__getitem__))
    return np.where(k >= 2, links / np.maximum(k * (k - 1), 1), 0.0)


def feature_matrix(g: Graph, dg: DirectedGraph | None = None) -> np.ndarray:
    """Per-node [req_in, req_out, cc] matrix of the undirected graph `g`.

    With a directed graph `dg`, whose mutualization `g` must be, the request
    ratios come from `dg`. Undirected-only inputs treat every edge as
    reciprocal, so both request ratios are 1 wherever the node has neighbors.
    """
    if dg is not None:
        rin, rout = req_ratios(dg, g)
    else:
        rin = rout = (g.degrees > 0).astype(float)
    return np.column_stack([rin, rout, clustering_all(g)])
