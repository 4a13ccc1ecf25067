import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import graph as graph_module
from trustprop import propagate
from trustprop.classifier import SIMILARITY_METRICS, TrainingSet, edge_similarity
from trustprop.cli import dispatch
from trustprop.features import feature_matrix
from trustprop.propagate import (PropagationConfig, baseline_cia, baseline_integro,
                                 baseline_sybilbelief, baseline_sybilrank,
                                 default_walk_iterations, integro_edge_weights,
                                 update_messages, weighted_lbp, weighted_random_walk)
from trustprop.synth import (NoiseConfig, ScenarioConfig, compose_attack_scenario,
                             simulate_edge_trust_scores, simulate_trust_scores)
from trustprop.tsvio import write_labels, write_rows

from conftest import (graph_from_pairs, lbp_enumeration_oracle, lbp_round_oracle,
                      lbp_two_vector_oracle, random_graph, random_tree, walk_matrix_oracle,
                      walk_oracle)


class TestWeightedRandomWalk:
    def test_two_node_swap(self):
        g = graph_from_pairs(2, [(0, 1)])
        scores = np.array([0.7, 0.3])
        out = weighted_random_walk(g, scores, np.array([0.5]),
                                   PropagationConfig(iterations=1))
        assert out.tolist() == [0.3, 0.7]
        out2 = weighted_random_walk(g, scores, np.array([0.5]),
                                    PropagationConfig(iterations=2))
        assert out2.tolist() == [0.7, 0.3]

    def test_three_node_path_hand_values(self):
        # path a(0)-b(1)-c(2), weights S_ab=0.9, S_bc=0.1, init (0.9, 0.5, 0.1)
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        weights = np.array([0.9, 0.1])
        init = np.array([0.9, 0.5, 0.1])
        out = weighted_random_walk(g, init, weights, PropagationConfig(iterations=1))
        assert out[1] == pytest.approx(1.0, abs=1e-15)
        assert out[0] == pytest.approx(0.45, abs=1e-15)
        assert out[2] == pytest.approx(0.05, abs=1e-15)

    def test_uniform_weights_match_dense_oracle(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            g = random_graph(10, 0.35, rng)
            init = rng.random(10)
            weights = np.full(g.edge_count, 0.5)
            mine = weighted_random_walk(g, init, weights, PropagationConfig(iterations=4))
            want = walk_matrix_oracle(g, weights, init, 4, hold_isolated=True)
            assert np.max(np.abs(mine - want)) < 1e-12

    def test_random_weights_match_dense_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            g = random_graph(12, 0.3, rng)
            init = rng.random(12)
            weights = 0.1 + 0.8 * rng.random(g.edge_count)
            d = int(rng.integers(1, 10))
            mine = weighted_random_walk(g, init, weights, PropagationConfig(iterations=d))
            want = walk_matrix_oracle(g, weights, init, d, hold_isolated=True)
            assert np.max(np.abs(mine - want)) < 1e-12

    def test_degree_normalized_matches_dense_oracle(self):
        # the oracle walk divided by each node's total incident edge score;
        # isolated nodes (weighted degree 0) keep their held initial score
        rng = np.random.default_rng(22)
        for trial in range(10):
            g = random_graph(12, 0.3, rng)
            init = rng.random(12)
            weights = 0.1 + 0.8 * rng.random(g.edge_count)
            d = int(rng.integers(1, 10))
            cfg = PropagationConfig(iterations=d, degree_normalize=True)
            mine = weighted_random_walk(g, init, weights, cfg)
            wdeg = np.zeros(12)
            np.add.at(wdeg, g.edge_u, weights)
            np.add.at(wdeg, g.edge_v, weights)
            want = walk_matrix_oracle(g, weights, init, d, hold_isolated=True)
            want = np.where(wdeg > 0, want / np.where(wdeg > 0, wdeg, 1.0), want)
            assert np.max(np.abs(mine - want)) < 1e-12

    def test_isolated_node_keeps_initial_score(self):
        g = graph_from_pairs(3, [(0, 1)])
        out = weighted_random_walk(g, np.array([0.6, 0.4, 0.77]), np.array([0.5]),
                                   PropagationConfig(iterations=5))
        assert out[2] == 0.77

    def test_seeds_pinned_at_init(self):
        g = graph_from_pairs(2, [(0, 1)])
        seeds = TrainingSet(benign=np.array([0]), sybil=np.array([], dtype=int))
        out = weighted_random_walk(g, np.array([0.5, 0.4]), np.array([0.5]),
                                   PropagationConfig(iterations=1, seeds=seeds))
        # node 1 receives the seed's 0.9, node 0 receives 0.4 (no re-pin)
        assert out.tolist() == [0.4, 0.9]
        pinned = weighted_random_walk(g, np.array([0.5, 0.4]), np.array([0.5]),
                                      PropagationConfig(iterations=1, seeds=seeds, pin_seeds=True))
        assert pinned.tolist() == [0.9, 0.9]

    def test_monotone_influence(self):
        rng = np.random.default_rng(22)
        for trial in range(5):
            g = random_graph(10, 0.3, rng)
            init = rng.random(10)
            weights = 0.1 + 0.8 * rng.random(g.edge_count)
            base = weighted_random_walk(g, init, weights, PropagationConfig(iterations=3))
            bumped = init.copy()
            bumped[int(rng.integers(10))] += 0.2
            out = weighted_random_walk(g, bumped, weights, PropagationConfig(iterations=3))
            assert np.all(out >= base - 1e-15)

    def test_zero_iterations_error(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            weighted_random_walk(g, np.array([0.5, 0.5]), np.array([0.5]),
                                 PropagationConfig(iterations=0))

    def test_missing_edge_score_error(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            weighted_random_walk(g, np.full(3, 0.5), np.array([0.5]))
        with pytest.raises(ValueError):
            weighted_random_walk(g, np.full(3, 0.5), np.array([0.5, np.nan]))

    def test_non_finite_or_negative_node_scores_error(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        for bad in ([np.inf, 0.5, 0.5], [0.5, np.nan, 0.5], [5.0, -3.0, 0.5]):
            with pytest.raises(ValueError):
                weighted_random_walk(g, np.array(bad), np.array([0.5, 0.5]))

    def test_default_iterations_log2(self):
        assert default_walk_iterations(1024) == 10
        assert default_walk_iterations(1500) == 11
        assert default_walk_iterations(1) == 1

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(23)
        g = random_graph(20, 0.2, rng)
        init = rng.random(20)
        weights = 0.1 + 0.8 * rng.random(g.edge_count)
        a = weighted_random_walk(g, init, weights)
        b = weighted_random_walk(g, init, weights)
        assert np.array_equal(a, b)


def _hub_graph() -> tuple:
    """160 nodes: node 5 joined to 100 others, random edges, and isolated nodes 3
    and 150-159; edge weights in [0, 1) with about a fifth of them 0.0 or -0.0."""
    rng = np.random.default_rng(61)
    pairs = {(5, j) for j in range(20, 120)}
    pairs |= {(i, j) for i in range(150) for j in range(i + 1, 150)
              if 3 not in (i, j) and rng.random() < 0.03}
    g = graph_from_pairs(160, sorted(pairs))
    weights = rng.random(g.edge_count) * (rng.random(g.edge_count) > 0.2)
    weights[::2] *= -1.0  # -0.0 is non-negative too
    np.abs(weights, out=weights, where=weights != 0)
    return g, weights, rng.random(160)


class TestBlockedWalk:
    """The walk's edge blocks give the whole-array walk bit for bit."""

    SETUPS = {
        "plain": {"hold_isolated": True},
        "restart": {"restart": 0.85},
        "pins": {"pin": TrainingSet(benign=np.array([5, 7]), sybil=np.array([3, 150])),
                 "hold_isolated": True},
        "per_weighted_degree": {"per_weighted_degree": True},
        "all": {"restart": 0.3, "pin": TrainingSet(benign=np.array([0]), sybil=np.array([9])),
                "hold_isolated": True, "per_weighted_degree": True},
    }

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_matches_whole_array_walk(self, chunk, setup, monkeypatch):
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", chunk)
        g, weights, init = _hub_graph()
        assert g.degrees.max() > 64 and np.any(g.degrees == 0)
        total = np.bincount(g.edge_u, weights, g.node_count) + np.bincount(g.edge_v, weights, g.node_count)
        assert np.any((total == 0) & (g.degrees > 0))  # columns that send nothing
        kwargs = self.SETUPS[setup]
        got = propagate._walk(g, init, weights, 7, **kwargs)
        want = walk_oracle(g, init, weights, 7, restart_dist=init, **kwargs)  # a restart returns to init
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless_graph(self, chunk, n, monkeypatch):
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", chunk)
        g = graph_from_pairs(n, [])
        init = np.linspace(0.1, 0.9, n)
        for kwargs in ({}, {"hold_isolated": True}, {"per_weighted_degree": True}):
            got = propagate._walk(g, init, np.zeros(0), 3, **kwargs)
            assert got.dtype == float
            assert got.tobytes() == walk_oracle(g, init, np.zeros(0), 3, **kwargs).tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_engines_match_whole_array_walk(self, chunk, monkeypatch):
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", chunk)
        g, weights, init = _hub_graph()
        d = default_walk_iterations(g.node_count)
        assert weighted_random_walk(g, init, weights).tobytes() == \
            walk_oracle(g, init, weights, d, hold_isolated=True).tobytes()
        seeds = np.array([5, 7])
        dist = np.zeros(g.node_count)
        dist[seeds] = 0.5
        ones = np.ones(g.edge_count)
        assert baseline_sybilrank(g, seeds).tobytes() == \
            walk_oracle(g, dist, ones, d, per_weighted_degree=True).tobytes()
        assert baseline_cia(g, seeds).tobytes() == \
            walk_oracle(g, dist, ones, d, restart=0.85, restart_dist=dist).tobytes()
        victim = np.linspace(0.0, 1.0, g.node_count)
        assert baseline_integro(g, seeds, victim).tobytes() == walk_oracle(
            g, dist, integro_edge_weights(g, victim, 2.0), d, per_weighted_degree=True).tobytes()


class TestWeightedLbp:
    def test_uninformative_fixed_point(self):
        rng = np.random.default_rng(24)
        g = random_graph(12, 0.3, rng)
        for d in (1, 4, 9):
            out = weighted_lbp(g, np.full(12, 0.5), np.full(g.edge_count, 0.5),
                               PropagationConfig(iterations=d))
            assert np.allclose(out, 0.5, atol=1e-15)

    def test_single_edge_exact_value(self):
        g = graph_from_pairs(2, [(0, 1)])
        out = weighted_lbp(g, np.array([0.9, 0.5]), np.array([0.9]),
                           PropagationConfig(iterations=1))
        # exact: bel_v(+) = 0.5*(0.9*0.9 + 0.1*0.1) = 0.41, bel_v(-) = 0.09
        assert out[1] == pytest.approx(0.82, abs=1e-12)
        # stable for any further iterations
        out8 = weighted_lbp(g, np.array([0.9, 0.5]), np.array([0.9]))
        assert out8[1] == pytest.approx(0.82, abs=1e-12)

    def test_exact_on_small_trees(self):
        rng = np.random.default_rng(25)
        for trial in range(20):
            n = int(rng.integers(2, 11))
            g = graph_from_pairs(n, random_tree(n, rng))
            node_scores = 0.1 + 0.8 * rng.random(n)
            edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
            got = weighted_lbp(g, node_scores, edge_scores, PropagationConfig(iterations=n))
            want = lbp_enumeration_oracle(g, node_scores, edge_scores)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_isolated_node_keeps_local_score(self):
        g = graph_from_pairs(3, [(0, 1)])
        out = weighted_lbp(g, np.array([0.5, 0.5, 0.73]), np.array([0.8]))
        assert out[2] == pytest.approx(0.73, abs=1e-12)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(26)
        g = random_graph(14, 0.3, rng)
        node_scores = 0.1 + 0.8 * rng.random(14)
        edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
        a = weighted_lbp(g, node_scores, edge_scores)
        b = weighted_lbp(g, 1.0 - node_scores, edge_scores)
        assert np.allclose(b, 1.0 - a, atol=1e-12)

    def test_label_flip_symmetry_with_seeds(self):
        rng = np.random.default_rng(29)
        g = random_graph(14, 0.3, rng)
        node_scores = 0.1 + 0.8 * rng.random(14)
        edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
        seeds = TrainingSet(benign=np.array([0, 3]), sybil=np.array([7]))
        flipped = TrainingSet(benign=seeds.sybil, sybil=seeds.benign)
        a = weighted_lbp(g, node_scores, edge_scores, PropagationConfig(seeds=seeds))
        b = weighted_lbp(g, 1.0 - node_scores, edge_scores, PropagationConfig(seeds=flipped))
        assert np.allclose(b, 1.0 - a, atol=1e-12)

    def test_matches_two_vector_messages_on_loopy_graphs(self):
        rng = np.random.default_rng(34)
        for trial in range(20):
            g = random_graph(16, 0.3, rng)
            node_scores = 0.1 + 0.8 * rng.random(16)
            edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
            for d in (1, 3, 8, 15):
                got = weighted_lbp(g, node_scores, edge_scores, PropagationConfig(iterations=d))
                want = lbp_two_vector_oracle(g, node_scores, edge_scores, d)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_two_vector_messages_with_seeds_and_extreme_scores(self):
        rng = np.random.default_rng(35)
        g = random_graph(14, 0.35, rng)
        node_scores = np.where(rng.random(14) < 0.5, 1e-6, 1.0 - 1e-6)
        edge_scores = np.where(rng.random(g.edge_count) < 0.5, 0.02, 0.98)
        seeds = TrainingSet(benign=np.array([0, 2]), sybil=np.array([9]))
        got = weighted_lbp(g, node_scores, edge_scores, PropagationConfig(seeds=seeds))
        seeded = node_scores.copy()
        seeded[[0, 2]], seeded[9] = 0.9, 0.1
        want = lbp_two_vector_oracle(g, seeded, edge_scores, 8)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("chunk", [propagate._EDGE_CHUNK, 3], ids=["default", "3"])
    def test_messages_stay_finite_and_bounded(self, chunk, monkeypatch):
        # A log-odds message can never exceed the log-odds of its edge
        # potential in magnitude: |m_e| <= |logit(S_e)|.
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", chunk)
        rng = np.random.default_rng(27)
        g = random_graph(15, 0.3, rng)
        node_scores = 0.1 + 0.8 * rng.random(15)
        edge_scores = 0.02 + 0.96 * rng.random(g.edge_count)
        prior = np.log(node_scores / (1.0 - node_scores))
        coupling = np.log(edge_scores / (1.0 - edge_scores))
        msgs = np.zeros((2, g.edge_count))
        for it in range(10):
            msgs = update_messages(g, prior, coupling, msgs)
            assert msgs.shape == (2, g.edge_count)
            assert np.all(np.isfinite(msgs))
            assert np.all(np.abs(msgs) <= np.abs(coupling) * (1 + 1e-12))

    @pytest.mark.parametrize("pairs", [
        [],
        [(0, 1)],
        [(0, 1), (1, 2), (2, 0)],  # exactly one block of 3
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)],  # partial last block
        None,  # random graph of a few hundred edges
    ])
    def test_blocked_round_matches_whole_array_round(self, pairs, monkeypatch):
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", 3)
        rng = np.random.default_rng(41)
        g = random_graph(40, 0.4, rng) if pairs is None else graph_from_pairs(6, pairs)
        prior = np.log(rng.random(g.node_count) / rng.random(g.node_count))
        coupling = 4.0 * rng.standard_normal(g.edge_count)
        got, want = np.zeros((2, g.edge_count)), np.zeros((2, g.edge_count))
        for _ in range(10):
            got = update_messages(g, prior, coupling, got)
            want = lbp_round_oracle(g, prior, coupling, want)
            assert got.shape == (2, g.edge_count)
            assert np.array_equal(got, want)

    def test_round_overwrites_its_input(self, monkeypatch):
        monkeypatch.setattr(propagate, "_EDGE_CHUNK", 3)
        rng = np.random.default_rng(43)
        g = random_graph(20, 0.4, rng)
        prior = rng.standard_normal(g.node_count)
        coupling = 4.0 * rng.standard_normal(g.edge_count)
        messages = rng.standard_normal((2, g.edge_count))
        before = messages.copy()
        assert update_messages(g, prior, coupling, messages) is messages
        assert np.array_equal(messages, lbp_round_oracle(g, prior, coupling, before))

    def test_potential_outside_unit_interval_error(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            weighted_lbp(g, np.array([1.0, 0.5]), np.array([0.9]))
        with pytest.raises(ValueError):
            weighted_lbp(g, np.array([0.9, 0.5]), np.array([1.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                weighted_lbp(g, np.array([bad, 0.5]), np.array([0.9]))
            with pytest.raises(ValueError):
                weighted_lbp(g, np.array([0.9, 0.5]), np.array([bad]))

    def test_high_degree_hub_no_underflow(self):
        # star with 3000 leaves: belief products span thousands of factors
        n = 3001
        g = graph_from_pairs(n, [(0, i) for i in range(1, n)])
        node_scores = np.full(n, 0.6)
        out = weighted_lbp(g, node_scores, np.full(g.edge_count, 0.9))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.99

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(28)
        g = random_graph(20, 0.25, rng)
        node_scores = 0.1 + 0.8 * rng.random(20)
        edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
        assert np.array_equal(weighted_lbp(g, node_scores, edge_scores),
                              weighted_lbp(g, node_scores, edge_scores))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_final_scores_are_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(10, 0.3, rng)
        node_scores = 0.1 + 0.8 * rng.random(10)
        edge_scores = 0.1 + 0.8 * rng.random(g.edge_count)
        out = weighted_lbp(g, node_scores, edge_scores)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.isfinite(out))


class TestBaselineSybilrank:
    def test_star_graph_one_step(self):
        # center 0 with 4 leaves, seeded at center, d=1
        g = graph_from_pairs(5, [(0, i) for i in range(1, 5)])
        out = baseline_sybilrank(g, np.array([0]), iterations=1)
        # each leaf holds 1/deg(center) before its own degree normalization (deg 1)
        assert np.allclose(out[1:], 0.25)
        assert out[0] == 0.0

    def test_unreachable_region_zero(self):
        g = graph_from_pairs(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        out = baseline_sybilrank(g, np.array([0, 1]), iterations=6)
        assert np.allclose(out[3:], 0.0)
        assert out[:3].sum() > 0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(30)
        for trial in range(5):
            g = random_graph(10, 0.35, rng)
            seeds = rng.choice(10, size=2, replace=False)
            d = int(rng.integers(1, 8))
            init = np.zeros(10)
            init[seeds] = 0.5
            want = walk_matrix_oracle(g, np.ones(g.edge_count), init, d)
            deg = g.degrees
            want = np.where(deg > 0, want / np.maximum(deg, 1), want)
            got = baseline_sybilrank(g, seeds, iterations=d)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_no_seeds_error(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            baseline_sybilrank(g, np.array([], dtype=int))


class TestBaselineCia:
    def test_full_restart_equals_seed_distribution(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        out = baseline_cia(g, np.array([2]), restart=1.0, iterations=3)
        assert out.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_converges_to_linear_system_solution(self):
        rng = np.random.default_rng(31)
        g = random_graph(9, 0.4, rng)
        seeds = np.array([0, 3])
        restart = 0.3
        got = baseline_cia(g, seeds, restart=restart, iterations=400)
        # fixed point: x = (1-r) M x + r dist
        n = g.node_count
        w = np.zeros((n, n))
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            w[u, v] = w[v, u] = 1.0
        colsum = w.sum(axis=0)
        m = np.divide(w, colsum[None, :], out=np.zeros((n, n)), where=colsum[None, :] > 0)
        dist = np.zeros(n)
        dist[seeds] = 0.5
        want = np.linalg.solve(np.eye(n) - (1 - restart) * m, restart * dist)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_disconnected_node_zero_badness(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2)])
        out = baseline_cia(g, np.array([0]), iterations=5)
        assert out[3] == 0.0

    def test_validation(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            baseline_cia(g, np.array([], dtype=int))
        with pytest.raises(ValueError):
            baseline_cia(g, np.array([0]), restart=0.0)


class TestBaselineSybilbelief:
    def test_no_seeds_all_half(self):
        rng = np.random.default_rng(32)
        g = random_graph(10, 0.3, rng)
        out = baseline_sybilbelief(g, None)
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_path_decay_toward_half_and_enumeration(self):
        # benign seed at node 0 of a 5-node path, homophily 0.9
        g = graph_from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        seeds = TrainingSet(benign=np.array([0]), sybil=np.array([], dtype=int))
        got = baseline_sybilbelief(g, seeds, homophily=0.9, iterations=5)
        node_scores = np.array([0.9, 0.5, 0.5, 0.5, 0.5])
        want = lbp_enumeration_oracle(g, node_scores, np.full(4, 0.9))
        assert np.max(np.abs(got - want)) < 1e-9
        assert got[0] > got[1] > got[2] > got[3] > got[4] > 0.5

    def test_reduces_to_weighted_lbp(self):
        rng = np.random.default_rng(33)
        g = random_graph(12, 0.3, rng)
        seeds = TrainingSet(benign=np.array([0, 1]), sybil=np.array([5]))
        got = baseline_sybilbelief(g, seeds, homophily=0.8, iterations=6)
        node_scores = np.full(12, 0.5)
        want = weighted_lbp(g, node_scores, np.full(g.edge_count, 0.8),
                            PropagationConfig(iterations=6, seeds=seeds))
        assert np.array_equal(got, want)


class TestIntegro:
    def test_victim_endpoint_forces_zero(self):
        g = graph_from_pairs(2, [(0, 1)])
        p = np.array([1.0, 0.0])
        assert integro_edge_weights(g, p, beta=2.0).tolist() == [0.0]
        assert integro_edge_weights(g, p, beta=100.0).tolist() == [0.0]

    def test_cap_at_one(self):
        g = graph_from_pairs(2, [(0, 1)])
        p = np.zeros(2)
        assert integro_edge_weights(g, p, beta=2.0).tolist() == [1.0]

    def test_direct_formula_value(self):
        g = graph_from_pairs(2, [(0, 1)])
        p = np.array([0.4, 0.7])
        got = integro_edge_weights(g, p, beta=1.0)
        assert got[0] == pytest.approx(0.3, abs=1e-15)

    def test_beta_validation(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            integro_edge_weights(g, np.zeros(2), beta=0.0)
        with pytest.raises(ValueError):
            integro_edge_weights(g, np.array([0.5, 1.2]), beta=1.0)

    def test_nan_victim_probability_rejected(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        p = np.array([np.nan, 0.2, 0.1])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            integro_edge_weights(g, p, beta=2.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            baseline_integro(g, np.array([1]), p)

    def test_baseline_runs_with_zero_weight_nodes(self):
        # victims cut off the seed: walk must tolerate zero weight sums
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        p = np.array([0.0, 1.0, 0.0, 0.0])
        out = baseline_integro(g, np.array([0]), p, beta=2.0, iterations=4)
        assert np.all(np.isfinite(out))
        assert out[3] == 0.0  # nothing flows past the victim

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_baseline_rejects_fewer_than_one_round(self, iterations):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="at least 1"):
            baseline_integro(g, np.array([0]), np.zeros(3), iterations=iterations)

    def test_unit_weights_give_sybilrank_bit_for_bit(self):
        # victim probability 0 and beta >= 1 make every Integro weight 1
        rng = np.random.default_rng(34)
        for trial in range(5):
            g = random_graph(15, 0.3, rng)
            seeds = rng.choice(15, size=3, replace=False)
            d = int(rng.integers(1, 9))
            got = baseline_integro(g, seeds, np.zeros(15), beta=1.5, iterations=d)
            assert np.array_equal(got, baseline_sybilrank(g, seeds, iterations=d))


class TestIndexWidth:
    @pytest.mark.parametrize("chunk", [None, 1000], ids=["default", "small-blocks"])
    def test_int64_storage_gives_the_same_bytes(self, chunk, monkeypatch):
        """Engines, baselines, simulated edge scores and triangle sums read the
        same from int64 ids, which graphs past 2**31 nodes or positions store."""
        if chunk:
            monkeypatch.setattr(propagate, "_EDGE_CHUNK", chunk)
        cfg = ScenarioConfig(benign_count=1500, sybil_count=700, attack_edge_count=900, rng_seed=9)
        narrow, labels = compose_attack_scenario(cfg)
        monkeypatch.setattr(graph_module, "index_dtype", lambda n, m: np.int64)
        wide, _ = compose_attack_scenario(cfg)
        assert narrow.edge_u.dtype == np.int32 and wide.edge_u.dtype == np.int64
        node_scores = simulate_trust_scores(labels, NoiseConfig(0.3, 0.3, 1))
        seeds = TrainingSet(benign=[0, 5, 9], sybil=[1600, 1700])

        def outputs(g):
            edge_scores = simulate_edge_trust_scores(g, labels, NoiseConfig(0.3, 0.3, 2))
            return [edge_scores,
                    weighted_random_walk(g, node_scores, edge_scores, PropagationConfig(seeds=seeds)),
                    weighted_lbp(g, node_scores, edge_scores, PropagationConfig(seeds=seeds)),
                    baseline_sybilrank(g, seeds.benign), baseline_cia(g, seeds.sybil),
                    baseline_sybilbelief(g, seeds), baseline_integro(g, seeds.benign, node_scores),
                    g.triangle_sums(), g.triangle_sums(node_scores)]

        for got, want in zip(outputs(wide), outputs(narrow)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLazyAdjacency:
    def test_engines_leave_the_adjacency_unbuilt(self):
        """Engines, baselines, simulated edge scores, features and all three
        similarity metrics read only the edge list; the CSR members build the
        adjacency, once."""
        cfg = ScenarioConfig(benign_count=300, sybil_count=150, attack_edge_count=100, rng_seed=3)
        g, labels = compose_attack_scenario(cfg)
        node_scores = simulate_trust_scores(labels, NoiseConfig(0.2, 0.2, 1))
        edge_scores = simulate_edge_trust_scores(g, labels, NoiseConfig(0.2, 0.2, 2))
        seeds = TrainingSet(benign=[0, 5], sybil=[310])
        weighted_random_walk(g, node_scores, edge_scores, PropagationConfig(seeds=seeds))
        weighted_lbp(g, node_scores, edge_scores, PropagationConfig(seeds=seeds))
        baseline_sybilrank(g, seeds.benign)
        baseline_cia(g, seeds.sybil)
        baseline_sybilbelief(g, seeds)
        baseline_integro(g, seeds.benign, node_scores)
        feature_matrix(g)
        for metric in SIMILARITY_METRICS:
            edge_similarity(g, metric)
        assert "_adjacency" not in vars(g)
        assert np.array_equal(g.indices[g.position_rows() == 7], np.sort(np.concatenate(
            [g.edge_u[g.edge_v == 7], g.edge_v[g.edge_u == 7]])))
        adjacency = vars(g)["_adjacency"]
        g.reverse_positions()
        assert vars(g)["_adjacency"] is adjacency
        assert g.indices is adjacency[0] and g.edge_ids is adjacency[1]

    def test_directed_pipeline_never_builds_the_adjacency(self, tmp_path, monkeypatch):
        cfg = ScenarioConfig(benign_count=120, sybil_count=60, attack_edge_count=90, rng_seed=4)
        g, labels = compose_attack_scenario(cfg)
        one_way = np.arange(g.edge_count) % 5 == 0
        write_rows(tmp_path / "arcs.tsv", np.concatenate([g.edge_u, g.edge_v[~one_way]]),
                   np.concatenate([g.edge_v, g.edge_u[~one_way]]))
        write_labels(tmp_path / "labels.tsv", labels)

        def unbuilt(self):
            raise AssertionError("the CSR adjacency was built")

        monkeypatch.setattr(graph_module.Graph, "_adjacency", property(unbuilt))
        assert dispatch([str(a) for a in [
            "pipeline", "--graph", tmp_path / "arcs.tsv", "--labels", tmp_path / "labels.tsv",
            "--directed", "--baselines", "--edge-metric", "jaccard", "--train-benign", "15",
            "--train-sybil", "15", "--seed", "6", "--out-dir", tmp_path / "out"]]) == 0
        assert (tmp_path / "out" / "final_scores_sf_lbp.tsv").exists()
