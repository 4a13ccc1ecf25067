"""Self-tests for the benchmark's independent checkers; they run in seconds.

    python3 bench/selftest.py

Each checker in `checks.py` is compared with a second computation that
shares no code with it: an O(n^2) pair loop for the AUC, dense adjacency
matrices for reciprocity, clustering and Jaccard, exact enumeration for LBP
on trees, and dense matrix powers for the walk. Exits non-zero on failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _random_tree(n, rng):
    child = np.arange(1, n)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    return parent, child


def test_pair_auc_matches_pair_loop():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(-1, 2, size=n)
        labels[:2] = (0, 1)
        scores = rng.integers(0, 6, size=n) / 5.0  # many ties
        exclude = rng.choice(np.arange(2, n), size=min(3, n - 2), replace=False) if n > 2 else []
        keep = np.ones(n, bool)
        keep[np.asarray(exclude, dtype=np.int64)] = False
        wins = pairs = 0.0
        for i in range(n):
            for j in range(n):
                if keep[i] and keep[j] and labels[i] == 0 and labels[j] == 1:
                    pairs += 1
                    wins += 1.0 if scores[i] < scores[j] else 0.5 if scores[i] == scores[j] else 0.0
        assert abs(checks.pair_auc(scores, labels, exclude) - wins / pairs) < 1e-12


def test_top_k_orders_by_score_then_id():
    scores = np.array([0.5, 0.1, 0.1, 0.9, 0.3])
    labels = np.array([0, 1, 0, 1, 0])
    # order by (score, id): 1, 2, 4, 0, 3; node 4 is excluded
    assert checks.top_k_sybil_fraction(scores, labels, [4], 2) == 0.5
    assert checks.top_k_sybil_fraction(scores, labels, [4], 3) == 2 / 3


def test_reciprocity_clustering_jaccard_match_dense_matrices():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        a = (rng.random((n, n)) < 0.35).astype(int)
        np.fill_diagonal(a, 0)
        src, dst = np.nonzero(a)
        m = a * a.T
        keys = checks.mutual_pairs(n, src, dst)
        iu, ju = np.nonzero(np.triu(m))
        assert keys.tolist() == sorted((iu * n + ju).tolist())
        out_adj = checks.Adjacency(n, src, dst)
        in_adj = checks.Adjacency(n, dst, src)
        mu, mv = keys // n, keys % n
        mutual = checks.Adjacency(n, np.concatenate([mu, mv]), np.concatenate([mv, mu]))
        paths = m @ m
        for v in range(n):
            rin, rout = checks.req_ratios_of(out_adj.of(v), in_adj.of(v))
            both = m[v].sum()
            assert rin == (both / a[:, v].sum() if a[:, v].sum() else 0.0)
            assert rout == (both / a[v].sum() if a[v].sum() else 0.0)
            k = both
            want = (paths * m)[v].sum() / (k * (k - 1)) if k >= 2 else 0.0
            assert abs(checks.clustering_of(v, mutual) - want) < 1e-12
        for x, y in zip(mu.tolist(), mv.tolist()):
            common = paths[x, y]
            union = (m[x].sum() - 1) + (m[y].sum() - 1) - common
            want = common / union if union else 0.0
            assert abs(checks.jaccard_of(x, y, mutual) - want) < 1e-12


def test_lbp_enumeration_two_nodes_by_hand():
    s = np.array([0.8, 0.3])
    se = 0.9
    joint = {(1, 1): 0.8 * 0.3 * se, (1, 0): 0.8 * 0.7 * (1 - se),
             (0, 1): 0.2 * 0.3 * (1 - se), (0, 0): 0.2 * 0.7 * se}
    z = sum(joint.values())
    want = [(joint[1, 1] + joint[1, 0]) / z, (joint[1, 1] + joint[0, 1]) / z]
    got = checks.lbp_enumeration(2, [0], [1], s, [se])
    assert np.max(np.abs(got - want)) < 1e-15


def test_lbp_log_odds_exact_on_trees():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        u, v = _random_tree(n, rng)
        s = 0.1 + 0.8 * rng.random(n)
        se = 0.1 + 0.8 * rng.random(n - 1)
        got = checks.lbp_log_odds(n, u, v, s, se, iterations=n)
        want = checks.lbp_enumeration(n, u, v, s, se)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-12, worst


def test_walk_reference_matches_dense_power():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        a = np.triu(rng.random((n, n)) < 0.3, 1)
        u, v = np.nonzero(a)
        w = 0.1 + 0.8 * rng.random(u.shape[0])
        dense = np.zeros((n, n))
        dense[u, v] = w
        dense[v, u] = w
        init = rng.random(n)
        wdeg = dense.sum(axis=0)
        trans = np.divide(dense, wdeg, out=np.zeros_like(dense), where=wdeg > 0)
        want = init.copy()
        for _ in range(6):
            want = np.where(wdeg > 0, trans @ want, init)
        got = checks.walk_reference(n, u, v, init, w, 6)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.allclose(checks.weighted_degrees(n, u, v, w), wdeg, rtol=0, atol=1e-12)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
