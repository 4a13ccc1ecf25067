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
blocks of graph._EDGE_CHUNK edges that fit in the L2 cache, so no temporary
is as long as the graph. A walk round divides each node's score by its
weighted degree once and sums into nodes with graph's `_scatter`, each CSR
row in row order. An LBP round (`update_messages`) overwrites the two message
arrays it reads, one per edge direction, sends each message with one exp and
one log, and adds each block's messages into the next round's incoming sums
as soon as they are sent. Both match whole-array rounds exactly.

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
from . import graph
from .graph import Graph, _scatter

SEED_BENIGN_SCORE = 0.9
SEED_SYBIL_SCORE = 0.1

DEFAULT_LBP_ITERATIONS = 8
_SIGN_BIT = np.uint64(1 << 63)

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
          restart: float = 0.0, pin: TrainingSet | None = None,
          per_weighted_degree: bool = False) -> np.ndarray:
    """Shared power-iteration core: scores <- column-normalized-weight update.

    `weights` holds one weight per canonical edge. A round divides each node's
    score by its total incident weight once and sends that times each edge's
    weight; nodes with no incident weight send nothing. A restart returns the
    fraction `restart` of the mass to `init` every round. With
    per_weighted_degree, the final scores are divided by each node's total
    incident weight; nodes with none keep theirs. A non-finite result, from a
    score too large for its node's weight sum, raises ValueError.

    Each node sums its CSR row from 0.0: the edges it ends (edge_v), then those
    it starts (edge_u), each in edge order, as one bincount over all CSR
    positions does, so the blocked sums are bit-identical to it.
    """
    n, edge_u, edge_v = g.node_count, g.edge_u, g.edge_v
    wsum = _scatter(np.zeros(n), (edge_v, weights.__getitem__), (edge_u, weights.__getitem__))
    sends, floor = wsum > 0, np.maximum(wsum, 1e-300)
    scores = init.astype(float, copy=True)
    for _ in range(iterations):
        per_weight = np.divide(scores, floor, out=np.zeros(n), where=sends)
        scores = _scatter(np.zeros(n), (edge_v, lambda e: np.take(per_weight, edge_u[e], mode="clip") * weights[e]),
                          (edge_u, lambda e: np.take(per_weight, edge_v[e], mode="clip") * weights[e]))
        if restart:
            scores = (1.0 - restart) * scores + restart * init
        scores = _apply_seeds(scores, pin)
    if per_weighted_degree:
        scores = np.where(sends, scores / floor, scores)
    if not np.all(np.isfinite(scores)):
        raise ValueError("walk scores overflow: node scores too large for their incident weights")
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
    scores = _walk(g, init, edge_scores, d, pin=cfg.seeds if cfg.pin_seeds else None,
                   per_weighted_degree=cfg.degree_normalize)
    # An isolated node neither sends nor receives: restoring it once holds it every round.
    isolated = g.degrees == 0
    scores[isolated] = init[isolated]
    return scores


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
    fwd, bwd = np.zeros(g.edge_count), np.zeros(g.edge_count)
    scratch = np.empty((4, min(graph._EDGE_CHUNK, g.edge_count)))
    into = np.zeros((2, g.node_count))
    for _ in range(d):
        into = update_messages(g, prior, edge_scores, fwd, bwd, into, scratch)
    # Freed before the beliefs' node-sized temporaries, which would otherwise
    # be stacked on the messages and set the call's memory peak.
    del fwd, bwd, scratch
    return _sigmoid(prior + (into[0] + into[1]))


def update_messages(g: Graph, prior: np.ndarray, edge_scores: np.ndarray, fwd: np.ndarray,
                    bwd: np.ndarray, into: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """One synchronous round of log-odds messages over the canonical edges.

    fwd holds the messages edge_u -> edge_v and bwd edge_v -> edge_u; prior
    holds logit(S_v); into[0] and into[1] hold the sums of fwd into edge_v
    and of bwd into edge_u. The round overwrites fwd and bwd with the next
    messages and into with their sums, and returns into. A sender whose cavity
    log-odds is x (its prior plus all it received except from the receiver)
    sends log((k e^x + 1) / (e^x + k)) with k = S_e / (1 - S_e), computed as
    sign(x) log((k + a) / (1 + k a)) with a = e^-|x|: one exp and one log.

    The messages are sent graph._EDGE_CHUNK edges at a time through the
    (4, block) `scratch` rows (allocated when None), so no temporary streams
    an edge-sized array through memory, and each block's messages are added
    into the next sums as soon as they are sent. Each message goes through
    the same elementwise operations and each sum runs in edge order, so the
    result is bit-identical to an unblocked round. A block reads no message
    of another, so its messages are overwritten once both directions are sent.
    """
    if scratch is None:
        scratch = np.empty((4, min(graph._EDGE_CHUNK, g.edge_count)))
    cavity = into[0] + into[1]
    cavity += prior
    into.fill(0.0)
    for lo in range(0, g.edge_count, graph._EDGE_CHUNK):
        hi = min(lo + graph._EDGE_CHUNK, g.edge_count)
        e = slice(lo, hi)
        k, xb, a, t = scratch[:, :hi - lo]
        np.subtract(1.0, edge_scores[e], out=k)
        np.divide(edge_scores[e], k, out=k)
        np.take(cavity, g.edge_v[e], out=xb, mode="clip")
        xb -= fwd[e]
        np.take(cavity, g.edge_u[e], out=a, mode="clip")
        np.subtract(a, bwd[e], out=fwd[e])
        _message(fwd[e], k, a, t, fwd[e])
        _message(xb, k, a, t, bwd[e])
        np.add.at(into[0], g.edge_v[e], fwd[e])
        np.add.at(into[1], g.edge_u[e], bwd[e])
    return into


def _message(x: np.ndarray, k: np.ndarray, a: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Messages for cavity log-odds x over edges with k = S_e / (1 - S_e), into
    `out`; x, a and t are overwritten.

    The sign bit does both sign steps in one integer pass each: setting it
    gives -|x|, and XOR-ing x's sign bit onto the log multiplies it by
    sign(x), so m(-x) = -m(x) exactly. The ratio of two sums of positive terms
    never cancels, and a = e^-|x| never overflows."""
    bits = x.view(np.uint64)
    np.bitwise_or(bits, _SIGN_BIT, out=a.view(np.uint64))
    np.exp(a, out=a)
    np.add(k, a, out=t)
    a *= k
    a += 1.0
    t /= a
    np.log(t, out=t)
    np.bitwise_and(bits, _SIGN_BIT, out=bits)
    np.bitwise_xor(t.view(np.uint64), bits, out=out.view(np.uint64))


def _logit(p: np.ndarray) -> np.ndarray:
    """log(p) - log1p(-p), the difference taken in place in the log(p) array."""
    out = np.log(p)
    out -= np.log1p(-p)
    return out


def _seed_walk(g: Graph, seeds, weights: np.ndarray, iterations: int | None, what: str,
               restart: float = 0.0) -> np.ndarray:
    """Walk from 1/|seeds| on each seed node alone (ceil(log2 n) rounds by
    default). Without a restart each final score is divided by the node's
    total incident weight; a restart walk keeps its raw scores."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.shape[0] == 0:
        raise ValueError(f"{what} needs at least one seed")
    init = np.zeros(g.node_count)
    init[seeds] = 1.0 / seeds.shape[0]
    d = _rounds(iterations, default_walk_iterations(g.node_count))
    return _walk(g, init, weights, d, restart=restart, per_weighted_degree=not restart)


def baseline_sybilrank(g: Graph, benign_seeds: np.ndarray, iterations: int | None = None) -> np.ndarray:
    """The seed-only walk over unit weights, so final scores are divided by degree."""
    return _seed_walk(g, benign_seeds, np.ones(g.edge_count), iterations, "baseline_sybilrank")


def baseline_cia(g: Graph, sybil_seeds: np.ndarray, restart: float = 0.85,
                 iterations: int | None = None) -> np.ndarray:
    """Restart walk from Sybil seeds over uniform weights; returns badness.

    Higher scores mean more Sybil-like; negate for the ascending trust
    ranking used elsewhere.
    """
    if not 0.0 < restart <= 1.0:
        raise ValueError("restart probability must lie in (0, 1]")
    return _seed_walk(g, sybil_seeds, np.ones(g.edge_count), iterations, "baseline_cia", restart)


def baseline_sybilbelief(g: Graph, seeds: TrainingSet | None, homophily: float = 0.9,
                         iterations: int = DEFAULT_LBP_ITERATIONS) -> np.ndarray:
    """Seed-only belief propagation: node scores 0.5 except seeds, uniform edges."""
    node_scores = np.full(g.node_count, 0.5)
    edge_scores = np.full(g.edge_count, homophily)
    cfg = PropagationConfig(iterations=iterations, seeds=seeds)
    return weighted_lbp(g, node_scores, edge_scores, cfg)


def integro_edge_weights(g: Graph, victim_prob: np.ndarray, beta: float) -> np.ndarray:
    """Victim-probability edge weights: min{1, beta * (1 - max(p_u, p_v))}."""
    if not 0 < beta < np.inf:
        raise ValueError("beta must be finite and positive")
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
