"""Synthetic benign/Sybil scenarios and simulated noisy local trust scores.

Both regions are grown with preferential attachment and joined by uniformly
random attack edges. Local classifier outputs, node and edge scores alike,
are simulated by one draw from [0.1, 0.9] on the correct or wrong side of
the 0.5 threshold according to configured false positive / false negative
rates. Everything is deterministic given the configured seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import BENIGN, SYBIL, UNKNOWN, Graph


@dataclass(frozen=True)
class ScenarioConfig:
    """Two preferential-attachment regions joined by random attack edges."""

    benign_count: int = 1000
    sybil_count: int = 500
    avg_degree: int = 10
    attack_edge_count: int = 1000
    rng_seed: int = 0
    # Open choice: attack endpoints can favor high-degree benign nodes.
    degree_biased_attacks: bool = False

    def validate(self) -> None:
        if self.benign_count <= 0 or self.sybil_count <= 0:
            raise ValueError("region sizes must be positive")
        if self.avg_degree <= 0:
            raise ValueError("avg_degree must be positive")
        if min(self.benign_count, self.sybil_count) <= self.edges_per_node:
            raise ValueError(f"each region needs more than edges_per_node = {self.edges_per_node} nodes")
        if self.attack_edge_count < 0:
            raise ValueError("attack_edge_count must be non-negative")
        if self.attack_edge_count > self.benign_count * self.sybil_count:
            raise ValueError("attack_edge_count exceeds number of distinct cross pairs")

    @property
    def edges_per_node(self) -> int:
        return max(1, round(self.avg_degree / 2))


@dataclass(frozen=True)
class NoiseConfig:
    """Error rates of the simulated local classifier (0.5 decision threshold)."""

    fpr: float
    fnr: float
    rng_seed: int = 0

    def validate(self) -> None:
        if not (0.0 <= self.fpr <= 1.0 and 0.0 <= self.fnr <= 1.0):
            raise ValueError("fpr and fnr must lie in [0, 1]")


def _lemire_draws(rng: np.random.Generator):
    """`draw(high)` emulating `int(rng.integers(high))` on a fresh PCG64 generator.

    numpy draws an integer below high <= 2**32 by Lemire's method on 32-bit
    words, the low half of each 64-bit output and then its high half:
    m = x * high; while m % 2**32 < (2**32 - high) % high, take the next word;
    the result is m >> 32. Here the words come from bulk `random_raw` blocks.
    """
    def words():
        while True:
            # Little-endian 32-bit halves: the low half of each word, then its high half.
            yield from rng.bit_generator.random_raw(1024).astype("<u8").view("<u4").tolist()

    word = words().__next__

    def draw(high: int) -> int:
        if high == 1:
            return 0
        m = word() * high
        if m & 0xFFFFFFFF < high:
            threshold = (0x100000000 - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = word() * high
        return m >> 32

    return draw


# Highs of the self-check: the edges of the range, and highs near 2**31 and
# 3 * 2**30, whose draws are often rejected.
_CHECK_HIGHS = (1, 2, 3, 7, 10, 1000, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32)


@functools.cache
def _lemire_matches_numpy() -> bool:
    """Whether `_lemire_draws` reproduces `rng.integers` on the installed numpy."""
    draw = _lemire_draws(np.random.default_rng(12345))
    rng = np.random.default_rng(12345)
    return all(draw(high) == int(rng.integers(high)) for high in _CHECK_HIGHS * 64)


def _attachment_edges(n: int, edges_per_node: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of `preferential_attachment(n, edges_per_node, seed)`."""
    if edges_per_node < 1:
        raise ValueError("edges_per_node must be at least 1")
    if n <= edges_per_node:
        raise ValueError(f"need n > edges_per_node, got n={n}, edges_per_node={edges_per_node}")
    rng = np.random.default_rng(seed)
    # Bulk raw words read ahead, so a caller's generator (which must end in the state
    # per-draw calls leave) draws per call, as does a failed self-check.
    private = not isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    draw = _lemire_draws(rng) if private and _lemire_matches_numpy() else lambda high: int(rng.integers(high))
    m0 = edges_per_node + 1
    clique_u, clique_v = np.triu_indices(m0, 1)
    # Each clique node appears once per incident edge: degree m0 - 1 each.
    repeated = np.repeat(np.arange(m0), m0 - 1).tolist()
    chosen: list[int] = []
    for new in range(m0, n):
        targets: set[int] = set()
        size = len(repeated)
        while len(targets) < edges_per_node:
            targets.add(repeated[draw(size)])
        ordered = sorted(targets)
        chosen.extend(ordered)
        repeated.extend(ordered)
        repeated.extend([new] * edges_per_node)
    us = np.concatenate((clique_u, np.repeat(np.arange(m0, n), edges_per_node)))
    return us, np.concatenate((clique_v, np.array(chosen, dtype=np.int64)))


def preferential_attachment(n: int, edges_per_node: int, seed) -> Graph:
    """Grow a connected graph where arrivals attach to degree-proportional targets.

    The seed graph is a clique on edges_per_node + 1 nodes so degree-proportional
    sampling is well defined from the first arrival. Average degree approaches
    2 * edges_per_node.
    """
    return Graph.from_edges(n, *_attachment_edges(n, edges_per_node, seed))


def compose_attack_scenario(cfg: ScenarioConfig) -> tuple[Graph, np.ndarray]:
    """Build the joined benign+Sybil graph and its label map.

    Benign nodes occupy ids [0, benign_count), Sybil nodes the rest. Exactly
    attack_edge_count distinct cross-region edges are sampled (uniformly, or
    with the benign endpoint degree-biased when configured).
    """
    cfg.validate()
    seq = np.random.SeedSequence(cfg.rng_seed)
    seed_b, seed_s, seed_a = seq.spawn(3)
    bu, bv = _attachment_edges(cfg.benign_count, cfg.edges_per_node, seed_b)
    su, sv = _attachment_edges(cfg.sybil_count, cfg.edges_per_node, seed_s)
    n = cfg.benign_count + cfg.sybil_count
    us = [bu, su + cfg.benign_count]
    vs = [bv, sv + cfg.benign_count]

    rng = np.random.default_rng(seed_a)
    chosen: set[tuple[int, int]] = set()
    if cfg.degree_biased_attacks:
        degrees = np.bincount(np.concatenate((bu, bv)), minlength=cfg.benign_count)
        # The draw `rng.choice(benign_count, p=degrees / degrees.sum())` makes,
        # with its cumulative distribution built once instead of per call.
        cdf = (degrees / degrees.sum()).cumsum()
        cdf /= cdf[-1]
        while len(chosen) < cfg.attack_edge_count:
            chosen.add((int(cdf.searchsorted(rng.random(), side="right")),
                        cfg.benign_count + int(rng.integers(cfg.sybil_count))))
    else:
        # One call draws what per-pair calls would, in the same order: the set
        # can fill only on a batch's last pair, since each pair adds at most one.
        while need := cfg.attack_edge_count - len(chosen):
            pairs = rng.integers(np.tile([cfg.benign_count, cfg.sybil_count], need)).reshape(need, 2)
            pairs[:, 1] += cfg.benign_count
            chosen.update(map(tuple, pairs.tolist()))
    if chosen:
        attack = np.array(sorted(chosen), dtype=np.int64)
        us.append(attack[:, 0])
        vs.append(attack[:, 1])

    graph = Graph.from_edges(n, np.concatenate(us), np.concatenate(vs))
    labels = np.full(n, SYBIL, dtype=np.int8)
    labels[:cfg.benign_count] = BENIGN
    return graph, labels


def _draw_scores(rng: np.random.Generator, trusted: np.ndarray, trusted_miss: float,
                 other_miss: float) -> np.ndarray:
    """One score per `trusted` flag, in (0.5, 0.9] where set and in [0.1, 0.5)
    elsewhere, but on the wrong side with probability `trusted_miss` or
    `other_miss`: the misses are drawn first, then u for 0.9 - 0.4 u or 0.1 + 0.4 u."""
    flip = rng.random(trusted.shape[0])
    correct = np.where(trusted, flip >= trusted_miss, flip >= other_miss)
    del flip
    u = rng.random(trusted.shape[0])
    u *= 0.4
    scores = np.add(0.1, u)
    np.copyto(scores, np.subtract(0.9, u, out=u), where=trusted == correct)
    return scores


def simulate_trust_scores(labels: np.ndarray, noise: NoiseConfig) -> np.ndarray:
    """Simulate local node trust scores for fully labeled nodes.

    A benign node scores in (0.5, 0.9] with probability 1 - fpr and in
    [0.1, 0.5) otherwise; Sybil nodes are symmetric under fnr. No score is
    ever exactly 0.5.
    """
    noise.validate()
    labels = np.asarray(labels)
    if np.any(labels == UNKNOWN):
        raise ValueError("simulate_trust_scores requires every node to be labeled")
    return _draw_scores(np.random.default_rng(noise.rng_seed), labels == BENIGN, noise.fpr, noise.fnr)


def simulate_edge_trust_scores(g: Graph, labels: np.ndarray, noise: NoiseConfig) -> np.ndarray:
    """Simulate local edge trust scores; ground truth is "endpoints share a label".

    A same-label edge scores in (0.5, 0.9] with probability 1 - fnr; an attack
    edge scores in [0.1, 0.5) with probability 1 - fpr.
    """
    noise.validate()
    labels = np.asarray(labels)
    if np.any(labels == UNKNOWN):
        raise ValueError("simulate_edge_trust_scores requires every node to be labeled")
    same = np.take(labels, g.edge_u, mode="clip") == np.take(labels, g.edge_v, mode="clip")
    return _draw_scores(np.random.default_rng(noise.rng_seed), same, noise.fnr, noise.fpr)
