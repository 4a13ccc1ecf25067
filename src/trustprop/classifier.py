"""Local probabilistic node classifier and edge trust scores.

An L2-regularized logistic discriminant is trained by full-batch gradient
descent on standardized features of labeled seed nodes. Predicted
probabilities are mapped affinely onto [0.1, 0.9] (score = 0.1 + 0.8 * p) so
that downstream propagation never sees a zero score. Edge trust scores come
either from a constant homophily default or from neighbor-set similarity,
which is derived from the graph's cached per-edge triangle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BENIGN, SYBIL, UNKNOWN, Graph

MODEL_FORMAT_VERSION = 1
_MODEL_ARRAYS = ("mean", "scale", "weights")  # the model file's array rows, in order

THRESHOLD_GRID = np.round(np.arange(1, 20) * 0.05, 2)
# Folds of the threshold's cross-validation unless a caller picks its own.
CV_FOLDS = 5

SIMILARITY_METRICS = ("jaccard", "cosine", "adamic-adar")


@dataclass(frozen=True)
class TrainingSet:
    """Labeled seed nodes: node ids of the benign and Sybil subsets."""

    benign: np.ndarray
    sybil: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "benign", np.asarray(self.benign, dtype=np.int64))
        object.__setattr__(self, "sybil", np.asarray(self.sybil, dtype=np.int64))

    def validate(self) -> None:
        if self.benign.shape[0] == 0 or self.sybil.shape[0] == 0:
            raise ValueError("training set needs at least one node of each class")
        # A search in the sorted benign ids, as np.intersect1d imports numpy.ma (+0.6 MiB).
        benign = np.sort(self.benign)
        at = np.minimum(np.searchsorted(benign, self.sybil), benign.shape[0] - 1)
        if np.any(benign[at] == self.sybil):
            raise ValueError("a node cannot be both benign and Sybil in the training set")

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "TrainingSet":
        """The benign and Sybil nodes of a label map (as in a seed file)."""
        return cls(benign=np.flatnonzero(labels == BENIGN), sybil=np.flatnonzero(labels == SYBIL))

    def label_map(self, node_count: int) -> np.ndarray:
        """Label array marking only these seeds (everything else unknown)."""
        labels = np.full(node_count, UNKNOWN, dtype=np.int8)
        labels[self.benign] = BENIGN
        labels[self.sybil] = SYBIL
        return labels

    @property
    def all_ids(self) -> np.ndarray:
        return np.concatenate([self.benign, self.sybil])


def sample_training_set(labels: np.ndarray, benign_count: int, sybil_count: int, seed) -> TrainingSet:
    """Sample labeled seeds uniformly without replacement from each class."""
    if benign_count < 1 or sybil_count < 1:
        raise ValueError("training sample sizes must be at least 1 per class")
    labels = np.asarray(labels)
    benign_pool = np.flatnonzero(labels == BENIGN)
    sybil_pool = np.flatnonzero(labels == SYBIL)
    if benign_pool.shape[0] < benign_count or sybil_pool.shape[0] < sybil_count:
        raise ValueError("not enough labeled nodes to sample the training set")
    rng = np.random.default_rng(seed)
    return TrainingSet(
        benign=np.sort(rng.choice(benign_pool, size=benign_count, replace=False)),
        sybil=np.sort(rng.choice(sybil_pool, size=sybil_count, replace=False)),
    )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2: float = 1e-3
    epochs: int = 500


@dataclass
class LocalModel:
    """Standardization parameters plus logistic weights/bias."""

    mean: np.ndarray
    scale: np.ndarray
    weights: np.ndarray
    bias: float
    loss_history: np.ndarray | None = None


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, without overflow for either sign."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loss_and_gradient(x: np.ndarray, y: np.ndarray, weights: np.ndarray, bias: float,
                      l2: float) -> tuple[float, np.ndarray, float]:
    """Mean cross-entropy + (l2/2)||w||^2 and its analytic gradient."""
    z = x @ weights + bias
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(weights, weights))
    residual = _sigmoid(z) - y
    grad_w = x.T @ residual / x.shape[0] + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def train(features: np.ndarray, training: TrainingSet, config: TrainConfig = TrainConfig()) -> LocalModel:
    """Fit the logistic discriminant on the training nodes' (standardized) features.

    Deterministic: zero initialization, fixed epoch count, full-batch updates.
    """
    training.validate()
    if not (config.epochs >= 0 and 0 < config.learning_rate < np.inf and 0 <= config.l2 < np.inf):
        raise ValueError("need epochs >= 0, a finite learning_rate > 0 and a finite l2 >= 0")
    features = np.asarray(features, dtype=float)
    ids = training.all_ids
    x_raw = features[ids]
    if not np.all(np.isfinite(x_raw)):
        raise ValueError("training features must be finite")
    y = np.concatenate([np.ones(training.benign.shape[0]), np.zeros(training.sybil.shape[0])])

    mean = x_raw.mean(axis=0)
    scale = x_raw.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    x = (x_raw - mean) / scale

    weights = np.zeros(x.shape[1])
    bias = 0.0
    losses = np.empty(config.epochs + 1)
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(x, y, weights, bias, config.l2)
        losses[epoch] = loss
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
    losses[config.epochs], _, _ = loss_and_gradient(x, y, weights, bias, config.l2)
    return LocalModel(mean=mean, scale=scale, weights=weights, bias=bias, loss_history=losses)


def predict_probabilities(model: LocalModel, features: np.ndarray) -> np.ndarray:
    """Raw logistic probabilities of being benign."""
    x = (np.asarray(features, dtype=float) - model.mean) / model.scale
    return _sigmoid(x @ model.weights + model.bias)


def predict_scores(model: LocalModel, features: np.ndarray) -> np.ndarray:
    """Local node trust scores: probabilities mapped affinely into [0.1, 0.9]."""
    return normalize_scores(predict_probabilities(model, features))


def normalize_scores(probabilities: np.ndarray) -> np.ndarray:
    """Order-preserving map of [0, 1] probabilities onto [0.1, 0.9]."""
    return 0.1 + 0.8 * np.asarray(probabilities, dtype=float)


def edge_scores(g: Graph, metric: str | None = None, value: float = 0.9) -> np.ndarray:
    """Per-edge trust scores: `metric` similarity rescaled onto [0.1, 0.9], or
    the constant `value` (0.9 models homophily) when no metric is given.

    The observed per-graph [min, max] similarity maps onto [0.1, 0.9];
    constant-similarity graphs map to 0.5 everywhere.
    """
    if metric is None:
        if not 0.1 <= value <= 0.9:
            raise ValueError("edge score must lie in [0.1, 0.9]")
        return np.full(g.edge_count, value)
    sims = edge_similarity(g, metric)
    if sims.shape[0] == 0:
        return sims
    lo, hi = float(sims.min()), float(sims.max())
    if hi == lo:
        return np.full(g.edge_count, 0.5)
    return 0.1 + 0.8 * (sims - lo) / (hi - lo)


def edge_similarity(g: Graph, metric: str = "jaccard") -> np.ndarray:
    """Raw neighbor-set similarity per edge, before rescaling.

    Endpoint nodes are excluded from each other's neighbor set so that twin
    endpoints reach similarity 1 and endpoints with no common neighbor get 0.
    The common neighbors of an edge are the third vertices of its triangles.
    """
    if metric not in SIMILARITY_METRICS:
        raise ValueError(f"unknown similarity metric {metric!r}; choose from {SIMILARITY_METRICS}")
    degrees = g.degrees
    if metric == "adamic-adar":  # common neighbors always have degree >= 2
        return g.triangle_sums(1.0 / np.log(np.maximum(degrees, 2)))
    common = g.triangle_sums()
    a, b = degrees[g.edge_u] - 1, degrees[g.edge_v] - 1
    denom = a + b - common if metric == "jaccard" else np.sqrt(a * b)
    return np.divide(common, denom, out=np.zeros(g.edge_count), where=denom > 0)


def select_threshold(scores: np.ndarray, training: TrainingSet, folds: int = CV_FOLDS) -> float:
    """Cross-validated decision threshold over the grid {0.05, 0.10, ..., 0.95}.

    Maximizes mean held-out accuracy over stratified folds; ties break toward
    0.5. A node scoring exactly at the threshold is classified Sybil.
    """
    training.validate()
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > min(training.benign.shape[0], training.sybil.shape[0]):
        raise ValueError("degenerate folds: fewer nodes than folds in a class")
    scores = np.asarray(scores, dtype=float)
    benign, sybil = np.sort(training.benign), np.sort(training.sybil)
    # Fold x threshold accuracy; a Sybil is right unless it scores above the
    # threshold, so a nan score counts as a right Sybil and a wrong benign node.
    mean_acc = np.mean([np.concatenate([scores[benign[f::folds], None] > THRESHOLD_GRID,
                                        ~(scores[sybil[f::folds], None] > THRESHOLD_GRID)]).mean(axis=0)
                        for f in range(folds)], axis=0)
    best = mean_acc.max()
    candidates = THRESHOLD_GRID[mean_acc >= best - 1e-12]
    order = np.lexsort((candidates, np.abs(candidates - 0.5)))
    return float(candidates[order[0]])


def save_model(path, model: LocalModel) -> None:
    """Write the versioned text model file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"format\t{MODEL_FORMAT_VERSION}\n")
        for name in _MODEL_ARRAYS:
            fh.write(name + "\t" + "\t".join(map(repr, getattr(model, name).tolist())) + "\n")
        fh.write(f"bias\t{model.bias!r}\n")


def load_model(path) -> LocalModel:
    fields: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if parts and parts[0]:
                fields[parts[0]] = parts[1:]
    if fields.get("format") != [str(MODEL_FORMAT_VERSION)]:
        raise ValueError(f"{path}: unsupported model format {fields.get('format')}")
    try:
        return LocalModel(**{name: np.array([float(x) for x in fields[name]]) for name in _MODEL_ARRAYS},
                          bias=float(fields["bias"][0]))
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
