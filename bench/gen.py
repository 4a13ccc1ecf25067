"""Seeded input generators for the benchmark workloads.

Each input is a benign region and a Sybil region joined by a limited number
of attack edges. The same seed gives byte-identical inputs; sizes do not
depend on the seed, only the structure does. `run.py` calls this script in a
process of its own, so that the generator's memory never sets a workload's
peak RSS:

    python3 bench/gen.py --workload pipeline-directed --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 2

# pipeline-directed: labelled directed follower graph, about 340k arcs.
PIPE_BENIGN = 18_000
PIPE_SYBIL = 9_000
PIPE_BENIGN_RING = 3          # ring-lattice links per benign node (clustering)
PIPE_BENIGN_RANDOM = 2        # heavy-tailed random mutual links per benign node
PIPE_SYBIL_RANDOM = 3         # heavy-tailed random mutual links per Sybil node
PIPE_ATTACK_EDGES = 12_000    # reciprocated benign-Sybil links
PIPE_BENIGN_ONE_WAY = 12_000  # unreciprocated benign -> benign arcs
PIPE_SYBIL_REQUESTS = 18_000  # unreciprocated Sybil -> benign arcs

# propagate-large: undirected two-region graph, about 830k edges.
PROP_BENIGN = 48_000
PROP_SYBIL = 16_000
PROP_RANDOM = 9               # random links per node on top of a spanning tree
PROP_ATTACK_EDGES = 192_000   # 12 per Sybil: LBP relies on the edge scores

WORKLOAD_KEYS = {"pipeline-directed": 1, "propagate-large": 2}


def _keys_to_pairs(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return keys // n, keys % n


def _canonical_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct undirected keys min*n + max, self-loops dropped."""
    keep = u != v
    u, v = u[keep], v[keep]
    return np.unique(np.minimum(u, v) * n + np.maximum(u, v))


def _region(rng: np.random.Generator, n: int, ring: int, random_per_node: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected region on ids 0..n-1: random spanning tree, ring lattice, heavy-tailed links."""
    child = np.arange(1, n, dtype=np.int64)
    us = [child]
    vs = [(rng.random(n - 1) * child).astype(np.int64)]  # uniform earlier node: connected
    ids = np.arange(n, dtype=np.int64)
    for d in range(1, ring + 1):
        us.append(ids)
        vs.append((ids + d) % n)
    if random_per_node:
        # Chung-Lu endpoints with weight ~ 1/sqrt(rank) over a random order.
        weights = 1.0 / np.sqrt(np.arange(1, n + 1))
        weights = weights[rng.permutation(n)]
        p = weights / weights.sum()
        size = random_per_node * n
        us.append(rng.choice(n, size=size, p=p))
        vs.append(rng.choice(n, size=size, p=p))
    return np.concatenate(us), np.concatenate(vs)


def _cross(rng: np.random.Generator, count: int, n_benign: int, n_sybil: int) -> np.ndarray:
    """`count` distinct (benign, Sybil) id pairs as keys benign*n + sybil."""
    n = n_benign + n_sybil
    keys = np.empty(0, dtype=np.int64)
    while keys.shape[0] < count:
        b = rng.integers(n_benign, size=count)
        s = n_benign + rng.integers(n_sybil, size=count)
        keys = np.unique(np.concatenate([keys, b * n + s]))
    return rng.permutation(keys)[:count]


def two_region_edges(rng, n_benign, n_sybil, benign_ring, benign_random, sybil_random, attack):
    """Undirected edge keys (sorted, distinct) of the joined two-region graph."""
    n = n_benign + n_sybil
    bu, bv = _region(rng, n_benign, benign_ring, benign_random)
    su, sv = _region(rng, n_sybil, 0, sybil_random)
    ak = _cross(rng, attack, n_benign, n_sybil)
    au, av = _keys_to_pairs(ak, n)
    u = np.concatenate([bu, su + n_benign, au])
    v = np.concatenate([bv, sv + n_benign, av])
    return _canonical_keys(u, v, n)


def pipeline_directed(seed: int) -> dict:
    """Arcs and labels of the directed pipeline input, node ids shuffled."""
    rng = np.random.default_rng([seed, WORKLOAD_KEYS["pipeline-directed"]])
    nb, ns = PIPE_BENIGN, PIPE_SYBIL
    n = nb + ns
    mutual = two_region_edges(rng, nb, ns, PIPE_BENIGN_RING, PIPE_BENIGN_RANDOM,
                              PIPE_SYBIL_RANDOM, PIPE_ATTACK_EDGES)
    mu, mv = _keys_to_pairs(mutual, n)
    arcs = np.concatenate([mu * n + mv, mv * n + mu])
    # One-way arcs: drop any whose pair already carries an arc, so none is reciprocated.
    one_src = np.concatenate([rng.integers(nb, size=PIPE_BENIGN_ONE_WAY),
                              nb + rng.integers(ns, size=PIPE_SYBIL_REQUESTS)])
    one_dst = rng.integers(nb, size=one_src.shape[0])
    one = np.unique(one_src * n + one_dst)
    one = one[(one // n) != (one % n)]
    one = one[~np.isin(one, arcs) & ~np.isin((one % n) * n + one // n, arcs)]
    arcs = np.concatenate([arcs, one])
    perm = rng.permutation(n)  # shuffled ids: labels carry no id-order signal
    src, dst = perm[arcs // n], perm[arcs % n]
    order = rng.permutation(arcs.shape[0])
    labels = np.zeros(n, dtype=np.int8)
    labels[perm[:nb]] = 1
    return {"src": src[order], "dst": dst[order], "labels": labels,
            "counts": {"nodes": n, "benign": nb, "sybil": ns, "arcs": int(arcs.shape[0]),
                       "mutual_edges": int(mutual.shape[0]), "one_way_arcs": int(one.shape[0]),
                       "attack_edges": PIPE_ATTACK_EDGES}}


def propagate_large(seed: int) -> dict:
    """Undirected edge array and labels of the in-memory propagation input."""
    rng = np.random.default_rng([seed, WORKLOAD_KEYS["propagate-large"]])
    nb, ns = PROP_BENIGN, PROP_SYBIL
    n = nb + ns
    keys = two_region_edges(rng, nb, ns, 0, PROP_RANDOM, PROP_RANDOM, PROP_ATTACK_EDGES)
    perm = rng.permutation(n)
    u, v = _keys_to_pairs(keys, n)
    order = rng.permutation(keys.shape[0])
    edges = np.column_stack([perm[u], perm[v]])[order].astype(np.int32)
    labels = np.zeros(n, dtype=np.int8)
    labels[perm[:nb]] = 1
    return {"edges": edges, "labels": labels,
            "counts": {"nodes": n, "benign": nb, "sybil": ns, "edges": int(keys.shape[0]),
                       "attack_edges": PROP_ATTACK_EDGES}}


def _write_pairs(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    path.write_text("".join(f"{x}\t{y}\n" for x, y in zip(a.tolist(), b.tolist())), encoding="utf-8")


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Generate one workload's inputs into `out`; returns the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "pipeline-directed":
        data = pipeline_directed(seed)
        _write_pairs(out / "arcs.tsv", data["src"], data["dst"])
        _write_pairs(out / "labels.tsv", np.arange(data["labels"].shape[0]), data["labels"])
    elif workload == "propagate-large":
        data = propagate_large(seed)
        np.save(out / "edges.npy", data["edges"])
        np.save(out / "labels.npy", data["labels"])
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "generator": GENERATOR_VERSION,
                "counts": data["counts"]}
    (out / "inputs.json").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_KEYS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
