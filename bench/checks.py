"""Checkers that recompute trustprop's results without using trustprop.

Every function here works from plain numpy arrays or from the files on
disk. None imports trustprop, so a fault in the package cannot hide itself
by also breaking its own check. `selftest.py` tests these against
brute-force counts and exact enumeration.
"""

from __future__ import annotations

import numpy as np

BENIGN = 1
SYBIL = 0


def pair_auc(scores, labels, exclude=None) -> float:
    """Mann-Whitney pair count: P(Sybil score < benign score) + 0.5 P(tie).

    Nodes with a label other than 0/1 and the ids in `exclude` are left out.
    """
    scores = np.asarray(scores, dtype=float)
    keep = np.isin(np.asarray(labels), (BENIGN, SYBIL))
    if exclude is not None and len(exclude):
        keep[np.asarray(exclude, dtype=np.int64)] = False
    labels = np.asarray(labels)[keep]
    scores = scores[keep]
    benign = np.sort(scores[labels == BENIGN])
    sybil = scores[labels == SYBIL]
    if benign.size == 0 or sybil.size == 0:
        raise ValueError("AUC needs both classes")
    lo = np.searchsorted(benign, sybil, side="left")
    hi = np.searchsorted(benign, sybil, side="right")
    above = np.sum(benign.size - hi, dtype=np.float64)
    ties = np.sum(hi - lo, dtype=np.float64)
    return float((above + 0.5 * ties) / (benign.size * sybil.size))


def top_k_sybil_fraction(scores, labels, exclude, k: int) -> float:
    """Share of Sybils among the k evaluated nodes ranked lowest by (score, id)."""
    labels = np.asarray(labels)
    keep = np.isin(labels, (BENIGN, SYBIL))
    keep[np.asarray(exclude, dtype=np.int64)] = False
    ids = np.flatnonzero(keep)
    order = np.lexsort((ids, np.asarray(scores, dtype=float)[ids]))
    return float(np.mean(labels[ids[order[:k]]] == SYBIL))


class Adjacency:
    """Sorted neighbour lists built by this module from raw endpoint arrays."""

    def __init__(self, n: int, src, dst):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        order = np.lexsort((dst, src))
        self.targets = dst[order]
        self.start = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])

    def of(self, v: int) -> set[int]:
        return set(self.targets[self.start[v]:self.start[v + 1]].tolist())


def mutual_pairs(n: int, src, dst) -> np.ndarray:
    """Sorted keys u*n + v (u < v) of every pair joined by arcs both ways."""
    keys = np.unique(np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64))
    both = np.intersect1d(keys, (keys % n) * n + keys // n, assume_unique=True)
    return both[both // n < both % n]


def req_ratios_of(out_nbrs: set, in_nbrs: set) -> tuple[float, float]:
    """(|In ∩ Out| / |In|, |In ∩ Out| / |Out|), 0 where the denominator is 0."""
    both = len(out_nbrs & in_nbrs)
    return (both / len(in_nbrs) if in_nbrs else 0.0,
            both / len(out_nbrs) if out_nbrs else 0.0)


def clustering_of(v: int, mutual: Adjacency) -> float:
    """Share of ordered neighbour pairs of v that are themselves linked."""
    nbrs = mutual.of(v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = sum(len(mutual.of(a) & nbrs) for a in nbrs)
    return links / (k * (k - 1))


def jaccard_of(u: int, v: int, mutual: Adjacency) -> float:
    """Jaccard of N(u) - {v} and N(v) - {u}; 0 when both are empty."""
    a = mutual.of(u) - {v}
    b = mutual.of(v) - {u}
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lbp_log_odds(n: int, u, v, node_scores, edge_scores, iterations: int) -> np.ndarray:
    """Synchronous sum-product LBP on the binary pairwise MRF, one log-ratio per message.

    Node potentials are (s_v, 1 - s_v); edge potentials are s_e for equal
    labels and 1 - s_e otherwise. A message a -> b is
    logaddexp(log s_e + x, log(1 - s_e)) - logaddexp(log(1 - s_e) + x, log s_e)
    with x = logit(s_a) + (log-odds into a) - (message b -> a). Messages
    start at 0 (uniform). Returns the benign belief of every node.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    s = np.asarray(node_scores, dtype=float)
    se = np.asarray(edge_scores, dtype=float)
    prior = np.log(s) - np.log1p(-s)
    log_same, log_diff = np.log(se), np.log1p(-se)
    fwd = np.zeros(u.shape[0])  # u -> v
    bwd = np.zeros(u.shape[0])  # v -> u

    def send(x):
        return np.logaddexp(log_same + x, log_diff) - np.logaddexp(log_diff + x, log_same)

    for _ in range(iterations):
        into = np.bincount(v, weights=fwd, minlength=n) + np.bincount(u, weights=bwd, minlength=n)
        cav = prior + into
        fwd, bwd = send(cav[u] - bwd), send(cav[v] - fwd)
    into = np.bincount(v, weights=fwd, minlength=n) + np.bincount(u, weights=bwd, minlength=n)
    return _sigmoid(prior + into)


def lbp_enumeration(n: int, u, v, node_scores, edge_scores) -> np.ndarray:
    """Exact benign marginals of the same MRF by summing over all 2^n labelings."""
    states = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1  # 1 = benign
    s = np.asarray(node_scores, dtype=float)
    weight = np.prod(np.where(states == 1, s, 1.0 - s), axis=1)
    for a, b, se in zip(u, v, edge_scores):
        weight = weight * np.where(states[:, a] == states[:, b], se, 1.0 - se)
    return (weight @ states) / weight.sum()


def walk_reference(n: int, u, v, init, edge_scores, iterations: int) -> np.ndarray:
    """Weighted walk: each round v collects S(a) * S_av / (sum of a's edge scores).

    Isolated nodes keep their initial score.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(edge_scores, dtype=float)
    isolated = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)) == 0
    wdeg = weighted_degrees(n, u, v, w)
    safe = np.where(wdeg > 0, wdeg, np.inf)
    init = np.asarray(init, dtype=float)
    scores = init.copy()
    for _ in range(iterations):
        per = scores / safe
        nxt = np.bincount(v, weights=per[u] * w, minlength=n) + np.bincount(u, weights=per[v] * w, minlength=n)
        scores = np.where(isolated, init, nxt)
    return scores


def weighted_degrees(n: int, u, v, edge_scores) -> np.ndarray:
    """Sum of incident edge scores per node."""
    return np.bincount(u, weights=edge_scores, minlength=n) + np.bincount(v, weights=edge_scores, minlength=n)
