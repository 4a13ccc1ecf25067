"""Structural node features from the original directed graph.

Three features per node: incoming-requests-accepted ratio, outgoing-requests-
accepted ratio (both from the directed graph), and the local clustering
coefficient (from the mutualized undirected graph). All are ratios in [0, 1];
zero-denominator cases are 0 by convention.
"""

from __future__ import annotations

import numpy as np

from .graph import DirectedGraph, Graph, mutualize


def req_in(dg: DirectedGraph, v: int) -> float:
    """Fraction of v's in-neighbors that v also follows: |In ∩ Out| / |In|."""
    inbound = dg.in_neighbors(v)
    if inbound.shape[0] == 0:
        return 0.0
    return np.intersect1d(inbound, dg.out_neighbors(v), assume_unique=True).shape[0] / inbound.shape[0]


def req_out(dg: DirectedGraph, v: int) -> float:
    """Fraction of v's out-neighbors that follow back: |In ∩ Out| / |Out|."""
    outbound = dg.out_neighbors(v)
    if outbound.shape[0] == 0:
        return 0.0
    return np.intersect1d(dg.in_neighbors(v), outbound, assume_unique=True).shape[0] / outbound.shape[0]


def clustering_coefficient(g: Graph, v: int) -> float:
    """Fraction of ordered neighbor pairs of v that are themselves connected."""
    nbrs = g.neighbors(v)
    k = nbrs.shape[0]
    if k < 2:
        return 0.0
    mark = np.zeros(g.node_count, dtype=bool)
    mark[nbrs] = True
    ordered_links = 0
    for u in nbrs.tolist():
        ordered_links += int(mark[g.neighbors(u)].sum())
    return ordered_links / (k * (k - 1))


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
    """Local clustering coefficient for every node."""
    n = g.node_count
    cc = np.zeros(n)
    mark = np.zeros(n, dtype=bool)
    for v in range(n):
        nbrs = g.neighbors(v)
        k = nbrs.shape[0]
        if k < 2:
            continue
        mark[nbrs] = True
        ordered_links = 0
        for u in nbrs.tolist():
            ordered_links += int(mark[g.neighbors(u)].sum())
        cc[v] = ordered_links / (k * (k - 1))
        mark[nbrs] = False
    return cc


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
