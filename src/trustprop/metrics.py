"""Ranking and classification metrics for final trust scores.

Nodes are ranked ascending by (score, node id); Sybils are expected at the
front. AUC is the probability that a random Sybil scores below a random
benign node (ties count half), computed rank-based in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tsvio
from .graph import (BENIGN, CLASS_ISOLATED, CLASS_LCC, CLASS_OTHERS, SYBIL, UNKNOWN, Graph,
                    component_classes, component_labels)

# Component class of ranked nodes that are not Sybils.
CLASS_BENIGN = "benign"


def _evaluation_mask(labels: np.ndarray, exclude) -> np.ndarray:
    mask = np.asarray(labels) != UNKNOWN  # a new array, so the exclusion writes to it alone
    if exclude is not None:
        mask[np.asarray(exclude, dtype=np.int64)] = False
    return mask


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def auc(scores: np.ndarray, labels: np.ndarray, exclude=None) -> float:
    """P(sybil score < benign score) + 0.5 P(equal) over evaluated nodes.

    Nodes listed in `exclude` (e.g. training seeds) and unknown-label nodes
    are left out. Errors if only one class remains.
    """
    mask = _evaluation_mask(labels, exclude)
    s = np.asarray(scores, dtype=float)[mask]
    y = np.asarray(labels)[mask]
    n_benign = int(np.count_nonzero(y == BENIGN))
    n_sybil = int(np.count_nonzero(y == SYBIL))
    if n_benign == 0 or n_sybil == 0:
        raise ValueError("AUC needs both classes among evaluated nodes")
    ranks = _average_ranks(s)
    benign_rank_sum = float(ranks[y == BENIGN].sum())
    pairs_below = benign_rank_sum - n_benign * (n_benign + 1) / 2.0
    return pairs_below / (n_sybil * n_benign)


def accuracy_at_threshold(scores: np.ndarray, labels: np.ndarray, threshold: float,
                          exclude=None) -> float:
    """Fraction of evaluated nodes whose sign(score - threshold) label is correct.

    A score exactly at the threshold classifies as Sybil.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    mask = _evaluation_mask(labels, exclude)
    if not mask.any():
        raise ValueError("empty evaluation set")
    s = np.asarray(scores, dtype=float)[mask]
    y = np.asarray(labels)[mask]
    return float(np.mean((s > threshold) == (y == BENIGN)))


def rank_nodes(scores: np.ndarray, node_ids: np.ndarray) -> np.ndarray:
    """Node ids ordered ascending by (score, node id); total and deterministic."""
    scores = np.asarray(scores, dtype=float)
    node_ids = np.asarray(node_ids, dtype=np.int64)
    order = np.lexsort((node_ids, scores))
    return node_ids[order]


def sybil_component_classes(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Per-node component class on the Sybil-induced subgraph: Sybil nodes take
    their component's `graph.component_classes` class, everything else is 'benign'."""
    index, sizes = component_labels(g, np.flatnonzero(np.asarray(labels) == SYBIL))
    return np.append(component_classes(sizes), CLASS_BENIGN).astype("U8")[index]


@dataclass
class RankingReport:
    """Ascending ranking of evaluated nodes with labels, classes and metrics."""

    node_ids: np.ndarray          # ranked ascending by (score, id)
    scores: np.ndarray            # aligned with node_ids
    labels: np.ndarray            # aligned true labels
    component_class: np.ndarray   # aligned class names
    metrics: dict[str, float] = field(default_factory=dict)


def build_ranking_report(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5,
                         exclude=None, graph: Graph | None = None) -> RankingReport:
    """Rank evaluated nodes and attach their classes and base metrics."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    ids = np.flatnonzero(_evaluation_mask(labels, exclude))
    ranked = rank_nodes(scores[ids], ids)
    if graph is not None:
        classes = sybil_component_classes(graph, labels)[ranked]
    else:
        classes = np.where(labels[ranked] == SYBIL, CLASS_OTHERS, CLASS_BENIGN).astype("U8")
    base = {"auc": auc(scores, labels, exclude=exclude),
            "accuracy": accuracy_at_threshold(scores, labels, threshold, exclude=exclude)}
    return RankingReport(node_ids=ranked, scores=scores[ranked], labels=labels[ranked],
                         component_class=classes, metrics=base)


def _head(ranked: np.ndarray, k: int) -> np.ndarray:
    """The first k entries of a report column, for 1 <= k <= its length."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > ranked.shape[0]:
        raise ValueError(f"k={k} exceeds the {ranked.shape[0]} evaluated nodes")
    return ranked[:k]


def top_k_sybil_fraction(report: RankingReport, k: int) -> float:
    """Fraction of true Sybils among the k lowest-ranked nodes."""
    return float(np.mean(_head(report.labels, k) == SYBIL))


def decompose_top_k(report: RankingReport, k: int) -> dict[str, int]:
    """Count top-k nodes per component class (isolated / lcc / others / benign),
    using the classes stored in the report."""
    head = _head(report.component_class, k)
    return {cls: int(np.count_nonzero(head == cls))
            for cls in (CLASS_ISOLATED, CLASS_LCC, CLASS_OTHERS, CLASS_BENIGN)}


def write_ranking(path, report: RankingReport) -> None:
    """Write `rank<TAB>node_id<TAB>score<TAB>true_label<TAB>class` rows."""
    tsvio.write_rows(path, range(1, report.node_ids.shape[0] + 1), report.node_ids,
                     report.scores, report.labels, report.component_class)
