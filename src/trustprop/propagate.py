"""Weighted trust propagation engines and baseline configurations.

Two engines spread local trust scores through the graph:

* a weighted random walk, where node u passes its previous-round score to
  neighbor v in proportion to the edge trust score S_{u,v} relative to u's
  total incident trust, for d = ceil(log2 n) rounds by default;
* weighted loopy belief propagation on a pairwise binary Markov random field
  whose node/edge potentials are (S_v, 1 - S_v) and (S_{u,v}, 1 - S_{u,v}),
  run synchronously with one log-odds message per edge direction for d = 8
  rounds by default.

Both engines run over the canonical edge list, never the CSR adjacency, in
blocks of edges whose temporaries fit in the L2 cache, so neither keeps a
per-round temporary as long as the graph. An LBP round (`update_messages`)
overwrites the one message array it reads; a walk round adds up each node's
CSR row in row order. Both give results identical to whole-array rounds.

Baselines (seed-only random walk with final degree normalization, a
walk that restarts at the Sybil seeds, seed-only belief propagation, and the
victim-probability edge weighting) are thin configurations of the same
engines. All updates are synchronous: a round reads only the scores and
messages of the round before, so results are bit-identical across runs and
worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import TrainingSet, _sigmoid
from .graph import Graph

SEED_BENIGN_SCORE = 0.9
SEED_SYBIL_SCORE = 0.1

DEFAULT_LBP_ITERATIONS = 8

# Engine name -> (label of its pipeline scores, engine function name); callers
# fetch the function from this module at call time, so wrappers on it apply.
ENGINES = {"random_walk": ("sf_rw", "weighted_random_walk"), "lbp": ("sf_lbp", "weighted_lbp")}
# Engine name -> the domain of its node and edge scores, as a test and the
# phrase of its error: LBP potentials lie strictly inside (0, 1); the walk
# needs only finite, non-negative scores and weights.
SCORE_DOMAINS = {"random_walk": (lambda x: (x >= 0) & (x < np.inf), "must be finite and non-negative"),
                 "lbp": (lambda x: (x > 0) & (x < 1), "must lie strictly inside (0, 1)")}


def get_engine(name: str):
    """(score label, engine function) of an ENGINES name."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}")
    return ENGINES[name][0], globals()[ENGINES[name][1]]


@dataclass(frozen=True)
class PropagationConfig:
    """Iteration count and seed handling shared by both engines."""

    engine: str = "lbp"  # read by no engine; bench/workload.py and tests/test_bench_api.py pass it
    iterations: int | None = None  # None: engine default (ceil(log2 n) / 8)
    seeds: TrainingSet | None = None
    pin_seeds: bool = False  # re-apply seed scores after every round
    # Divide final walk scores by the node's total incident edge trust before
    # ranking. Off by default (the raw update accumulates trust in proportion
    # to weighted degree); rankings across nodes of very different degree
    # want this on.
    degree_normalize: bool = False


def default_walk_iterations(n: int) -> int:
    """Early-termination round count for the random walk: ceil(log2 n)."""
    return max(1, math.ceil(math.log2(max(n, 2))))


def _apply_seeds(scores: np.ndarray, seeds: TrainingSet | None) -> np.ndarray:
    if seeds is None:
        return scores
    scores = scores.copy()
    scores[seeds.benign] = SEED_BENIGN_SCORE
    scores[seeds.sybil] = SEED_SYBIL_SCORE
    return scores


def _check_scores(values, count: int, what: str, engine: str) -> np.ndarray:
    """One finite score per node or edge, inside the `engine`'s SCORE_DOMAINS entry."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != count:
        raise ValueError(f"expected {count} {what}, got {values.shape[0]}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contain missing or non-finite values")
    inside, phrase = SCORE_DOMAINS[engine]
    if not np.all(inside(values)):
        raise ValueError(f"{what} {phrase}")
    return values


def _rounds(iterations: int | None, default: int) -> int:
    """The iteration count, `default` when None; at least 1."""
    if iterations is not None and iterations < 1:
        raise ValueError("iteration count must be at least 1")
    return default if iterations is None else iterations


def _engine_inputs(g: Graph, node_scores, edge_scores, cfg: PropagationConfig,
                   default_iterations: int, engine: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Validated (iterations, seeded node scores, edge scores) for either engine."""
    d = _rounds(cfg.iterations, default_iterations)
    node_scores = _check_scores(node_scores, g.node_count, "node scores", engine)
    edge_scores = _check_scores(edge_scores, g.edge_count, "edge scores", engine)
    return d, _apply_seeds(node_scores, cfg.seeds), edge_scores


def _walk(g: Graph, init: np.ndarray, weights: np.ndarray, iterations: int,
          restart: float = 0.0, pin: TrainingSet | None = None, hold_isolated: bool = False,
          per_weighted_degree: bool = False) -> np.ndarray:
    """Shared power-iteration core: scores <- column-normalized-weight update.

    `weights` holds one weight per canonical edge. Nodes with zero incident
    weight distribute nothing (their column is zero). A restart returns the
    fraction `restart` of the mass to `init` every round. With
    per_weighted_degree, the final scores are divided by each node's total
    incident weight; nodes with none keep theirs.

    Each node sums its CSR row from 0.0: the edges it ends (edge_v), then those
    it starts (edge_u), each in edge order, as one bincount over all CSR
    positions does, so the blocked sums are bit-identical to it.
    """
    n, edge_u, edge_v = g.node_count, g.edge_u, g.edge_v
    wsum = _scatter(np.zeros(n), (edge_v, weights.__getitem__), (edge_u, weights.__getitem__))
    # weight / sum at the sending end. The weight is one term of that sum, so a
    # sum of 0 has only 0 weights, whose share 0 / 1e-300 is 0.
    share_b, share_a = np.empty(g.edge_count), np.empty(g.edge_count)  # sent by edge_u, by edge_v
    for lo in range(0, g.edge_count, _EDGE_CHUNK):
        e = slice(lo, lo + _EDGE_CHUNK)
        share_b[e] = weights[e] / np.maximum(np.take(wsum, edge_u[e], mode="clip"), 1e-300)
        share_a[e] = weights[e] / np.maximum(np.take(wsum, edge_v[e], mode="clip"), 1e-300)
    isolated = g.degrees == 0
    scores = init.astype(float, copy=True)
    for _ in range(iterations):
        scores = _scatter(np.zeros(n), (edge_v, lambda e: np.take(scores, edge_u[e], mode="clip") * share_b[e]),
                          (edge_u, lambda e: np.take(scores, edge_v[e], mode="clip") * share_a[e]))
        if restart:
            scores = (1.0 - restart) * scores + restart * init
        if hold_isolated:
            scores[isolated] = init[isolated]
        scores = _apply_seeds(scores, pin)
    if per_weighted_degree:
        scores = np.where(wsum > 0, scores / np.maximum(wsum, 1e-300), scores)
    return scores


def weighted_random_walk(g: Graph, node_scores: np.ndarray, edge_scores: np.ndarray,
                         cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Propagate local node scores along edge-trust-weighted walks.

    Every node starts from its local score (seeds pinned to 0.9/0.1 at
    initialization only, unless cfg.pin_seeds); each round v collects
    S(u) * S_{u,v} / sum_w S_{u,w} from its neighbors. Isolated nodes keep
    their initial score.
    """
    d, init, edge_scores = _engine_inputs(g, node_scores, edge_scores, cfg,
                                          default_walk_iterations(g.node_count), "random_walk")
    # The walk's stationary background is proportional to the weighted degree,
    # so that is the right normalizer (raw degree would leave the mean incident
    # edge score as per-node noise).
    return _walk(g, init, edge_scores, d, pin=cfg.seeds if cfg.pin_seeds else None,
                 hold_isolated=True, per_weighted_degree=cfg.degree_normalize)


def weighted_lbp(g: Graph, node_scores: np.ndarray, edge_scores: np.ndarray,
                 cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Synchronous sum-product propagation on the score-derived pairwise MRF.

    Each edge carries one log-odds message per direction, starting at 0
    (uniform); the final score is the benign belief
    sigmoid(logit(S_v) + sum of incoming messages). Isolated nodes keep their
    local score.
    """
    d, s, edge_scores = _engine_inputs(g, node_scores, edge_scores, cfg,
                                       DEFAULT_LBP_ITERATIONS, "lbp")
    prior = _logit(s)
    coupling = _logit(edge_scores)
    messages = np.zeros((2, g.edge_count))
    for _ in range(d):
        update_messages(g, prior, coupling, messages)
    return _sigmoid(prior + _incoming(g, messages))


# Edges per block of a walk or LBP round: a block's float64 temporaries
# (256 KiB each) stay in a core's L2 cache.
_EDGE_CHUNK = 1 << 15


def update_messages(g: Graph, prior: np.ndarray, coupling: np.ndarray,
                    messages: np.ndarray) -> np.ndarray:
    """One synchronous round of log-odds messages over the canonical edges,
    written over `messages`, which is returned.

    messages[0] holds edge_u -> edge_v and messages[1] edge_v -> edge_u;
    prior and coupling hold logit(S_v) and logit(S_e). A sender whose cavity
    log-odds is x (its prior plus all it received except from the receiver)
    sends log((S_e e^x + 1 - S_e) / ((1 - S_e) e^x + S_e)).

    The cavities are summed over all nodes once; the messages are then sent
    _EDGE_CHUNK edges at a time, so _send's temporaries stay in L2 instead of
    streaming m-element arrays through memory. Each message goes through the
    same elementwise operations, so the result is bit-identical to an
    unblocked round. A block reads no message of another, so each block's
    messages are overwritten as soon as both directions are sent.
    """
    fwd, bwd = messages
    cavity = prior + _incoming(g, messages)
    for lo in range(0, g.edge_count, _EDGE_CHUNK):
        e = slice(lo, lo + _EDGE_CHUNK)
        forward = _send(np.take(cavity, g.edge_u[e], mode="clip") - bwd[e], coupling[e])
        bwd[e] = _send(np.take(cavity, g.edge_v[e], mode="clip") - fwd[e], coupling[e])
        fwd[e] = forward
    return messages


def _incoming(g: Graph, messages: np.ndarray) -> np.ndarray:
    """Sum of the log-odds messages into every node: each direction summed on its own."""
    into_v = _scatter(np.zeros(g.node_count), (g.edge_v, lambda e: messages[0, e]))
    into_v += _scatter(np.zeros(g.node_count), (g.edge_u, lambda e: messages[1, e]))
    return into_v


def _scatter(acc: np.ndarray, *sources) -> np.ndarray:
    """For each (ends, values) source in turn, add values(e) to acc at ends[e] over
    the blocks e of _EDGE_CHUNK edges; return acc. Each node's sum runs in source
    and edge order, as a whole-array bincount's does, but no m-sized temporary is
    made: bincount would first copy all int32 ids to intp (8 bytes per edge)."""
    for ends, values in sources:
        for lo in range(0, ends.shape[0], _EDGE_CHUNK):
            e = slice(lo, lo + _EDGE_CHUNK)
            np.add.at(acc, ends[e], values(e))
    return acc


def _send(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Message for cavity log-odds x over edges with c = logit(S_e): the log-ratio
    logaddexp(log S_e + x, log(1 - S_e)) - logaddexp(log(1 - S_e) + x, log S_e),
    as softplus(x + c) - softplus(x - c) - c on numpy's vectorized exp and log1p."""
    return _softplus(x + c) - _softplus(x - c) - c


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) without overflow."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _logit(p: np.ndarray) -> np.ndarray:
    """log(p) - log1p(-p), the difference taken in place in the log(p) array."""
    out = np.log(p)
    out -= np.log1p(-p)
    return out


def _seed_distribution(g: Graph, seeds, what: str) -> np.ndarray:
    """1/|seeds| on each seed node, 0 elsewhere."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.shape[0] == 0:
        raise ValueError(f"{what} needs at least one seed")
    dist = np.zeros(g.node_count)
    dist[seeds] = 1.0 / seeds.shape[0]
    return dist


def _seed_walk(g: Graph, benign_seeds, weights: np.ndarray, iterations: int | None,
               what: str) -> np.ndarray:
    """Walk from the benign seeds alone, each final score divided by the
    node's total incident weight (ceil(log2 n) rounds by default)."""
    init = _seed_distribution(g, benign_seeds, what)
    d = _rounds(iterations, default_walk_iterations(g.node_count))
    return _walk(g, init, weights, d, per_weighted_degree=True)


def baseline_sybilrank(g: Graph, benign_seeds: np.ndarray, iterations: int | None = None) -> np.ndarray:
    """The seed-only walk over unit weights, so final scores are divided by degree."""
    return _seed_walk(g, benign_seeds, np.ones(g.edge_count), iterations, "baseline_sybilrank")


def baseline_cia(g: Graph, sybil_seeds: np.ndarray, restart: float = 0.85,
                 iterations: int | None = None) -> np.ndarray:
    """Restart walk from Sybil seeds over uniform weights; returns badness.

    Higher scores mean more Sybil-like; negate for the ascending trust
    ranking used elsewhere.
    """
    dist = _seed_distribution(g, sybil_seeds, "baseline_cia")
    if not 0.0 < restart <= 1.0:
        raise ValueError("restart probability must lie in (0, 1]")
    d = _rounds(iterations, default_walk_iterations(g.node_count))
    return _walk(g, dist, np.ones(g.edge_count), d, restart=restart)


def baseline_sybilbelief(g: Graph, seeds: TrainingSet | None, homophily: float = 0.9,
                         iterations: int = DEFAULT_LBP_ITERATIONS) -> np.ndarray:
    """Seed-only belief propagation: node scores 0.5 except seeds, uniform edges."""
    node_scores = np.full(g.node_count, 0.5)
    edge_scores = np.full(g.edge_count, homophily)
    cfg = PropagationConfig(iterations=iterations, seeds=seeds)
    return weighted_lbp(g, node_scores, edge_scores, cfg)


def integro_edge_weights(g: Graph, victim_prob: np.ndarray, beta: float) -> np.ndarray:
    """Victim-probability edge weights: min{1, beta * (1 - max(p_u, p_v))}."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    victim_prob = np.asarray(victim_prob, dtype=float)
    if victim_prob.shape[0] != g.node_count:
        raise ValueError("victim probability array must cover every node")
    if not np.all((victim_prob >= 0.0) & (victim_prob <= 1.0)):
        raise ValueError("victim probabilities must lie in [0, 1]")
    pmax = np.maximum(np.take(victim_prob, g.edge_u, mode="clip"),
                      np.take(victim_prob, g.edge_v, mode="clip"))
    return np.minimum(1.0, beta * (1.0 - pmax))


def baseline_integro(g: Graph, benign_seeds: np.ndarray, victim_prob: np.ndarray,
                     beta: float = 2.0, iterations: int | None = None) -> np.ndarray:
    """Seed-only walk over victim-probability weights, normalized by weighted degree."""
    weights = integro_edge_weights(g, victim_prob, beta)
    return _seed_walk(g, benign_seeds, weights, iterations, "baseline_integro")
