import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import compose_attack_scenario_oracle, preferential_attachment_oracle

from trustprop import synth
from trustprop.graph import BENIGN, SYBIL, UNKNOWN, modularity
from trustprop.harness import derive_seed
from trustprop.synth import (NoiseConfig, ScenarioConfig, compose_attack_scenario,
                             preferential_attachment, simulate_edge_trust_scores,
                             simulate_trust_scores)


def raw_words(*words):
    """Stand-in generator whose bit generator returns the given 64-bit words once;
    reading past them raises."""
    blocks = iter([np.array(words, dtype=np.uint64)])
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: next(blocks)))


def word_for(low, high):
    """The 32-bit word x with x * high % 2**32 == low (high odd)."""
    return low * pow(high, -1, 2**32) % 2**32


class TestBoundedDraws:
    @pytest.mark.parametrize("high", [3, 7, 1001, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1])
    def test_rejection_threshold_is_exclusive(self, high):
        # A word whose low product half sits just below (2**32 - high) % high
        # is rejected, one exactly at it accepted, then the next word is read.
        threshold = (2**32 - high) % high
        below, at = word_for(threshold - 1, high), word_for(threshold, high)
        draw = synth._lemire_draws(raw_words(below | at << 32, 12345))
        assert draw(high) == at * high >> 32
        assert draw(high) == 12345 * high >> 32

    def test_low_half_then_high_half(self):
        draw = synth._lemire_draws(raw_words(5 << 32 | 9, 7 << 32 | 8))
        assert [draw(2**32) for _ in range(4)] == [9, 5, 8, 7]

    def test_high_one_consumes_no_word(self):
        draw = synth._lemire_draws(raw_words(5 << 32 | 9))
        assert [draw(1) for _ in range(10)] == [0] * 10
        assert draw(2**32) == 9

    def test_matches_integers_on_installed_numpy(self):
        # Log-uniform highs over [1, 2**32], the powers of two and their
        # neighbours, interleaved with draws of 1: a numpy upgrade that
        # changes the stream fails here.
        rng = np.random.default_rng(7)
        highs = np.floor(2.0 ** rng.uniform(0.0, 32.0, 50_000)).astype(np.int64).tolist()
        for k in range(33):
            highs += [2**k - 1, 2**k, 2**k + 1] * 40
        highs = [h for h in highs if 1 <= h <= 2**32] + [1] * 2000
        rng.shuffle(highs)
        assert min(highs) == 1 and max(highs) == 2**32
        for seed in (0, 2**40 + 3):
            emulated = synth._lemire_draws(np.random.default_rng(seed))
            reference = np.random.default_rng(seed)
            for high in highs:
                assert emulated(high) == int(reference.integers(high)), high

    @pytest.mark.parametrize("bounds", [(1, 1), (7, 2**32), (2**31 + 1, 2**32), (1000, 1), (2**32, 2**32)])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_array_of_bounds_draws_as_scalar_draws(self, bounds, seed):
        # The premise of the batched attack edges: one call over k tiled bound
        # pairs gives the k alternating scalar draws and leaves the same state.
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched.integers(np.tile(bounds, 300)).tolist()
        assert got == [int(scalar.integers(high)) for _ in range(300) for high in bounds]
        assert batched.bit_generator.state == scalar.bit_generator.state


def digest_cases():
    """The seed-2 scenarios of the benchmark's sweep, a degree-biased, a large,
    a tiny scenario and four preferential-attachment shapes."""
    for value in (0.0, 0.1, 0.2, 0.3):
        for trial in range(10):
            yield ScenarioConfig(rng_seed=derive_seed(2, "fpr_fnr", value, trial))
    yield ScenarioConfig(rng_seed=7, degree_biased_attacks=True)
    yield ScenarioConfig(benign_count=2000, sybil_count=1000, attack_edge_count=5000, rng_seed=6)
    yield ScenarioConfig(benign_count=2, sybil_count=3, avg_degree=2, attack_edge_count=6, rng_seed=1)
    yield from ((3, 1, 2), (1000, 5, 1), (2000, 3, 4), (300, 12, 5))


def synth_digest() -> str:
    h = hashlib.sha256()
    for case in digest_cases():
        if isinstance(case, ScenarioConfig):
            g, labels = compose_attack_scenario(case)
        else:
            g, labels = preferential_attachment(*case), np.empty(0, np.int8)
        # Widened to int64, so the digest pins the values whatever width the graph stores.
        for a in (np.r_[0, np.cumsum(g.degrees)], g.indices, g.edge_u, g.edge_v):
            h.update(a.astype(np.int64).tobytes())
        h.update(labels.tobytes())
    return h.hexdigest()


# synth_digest() of the generator that drew every integer with rng.integers.
PER_DRAW_DIGEST = "4f16f4fc8f27a9bdb0c6043e150074f5a829ffce2c6819e6debe252160ea85ba"


def assert_same_graph(a, b):
    for name in ("degrees", "indices", "edge_u", "edge_v", "edge_ids"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestBitIdentity:
    def test_digest_bulk_draws(self):
        assert synth._lemire_matches_numpy()
        assert synth_digest() == PER_DRAW_DIGEST

    def test_digest_fallback(self, monkeypatch):
        monkeypatch.setattr(synth, "_lemire_matches_numpy", lambda: False)
        assert synth_digest() == PER_DRAW_DIGEST

    @pytest.mark.parametrize("n,k,seed", [(2, 1, 0), (3, 1, 2), (50, 1, 3), (200, 4, 5), (120, 30, 6)])
    def test_preferential_attachment_matches_oracle(self, n, k, seed):
        assert_same_graph(preferential_attachment(n, k, seed), preferential_attachment_oracle(n, k, seed))

    @pytest.mark.parametrize("make", [np.random.default_rng, np.random.MT19937])
    def test_caller_generator_left_as_per_draw(self, make):
        ours, theirs = make(8), make(8)
        assert_same_graph(preferential_attachment(80, 3, ours), preferential_attachment_oracle(80, 3, theirs))
        assert np.random.default_rng(ours).random() == np.random.default_rng(theirs).random()

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(benign_count=120, sybil_count=60, attack_edge_count=90, rng_seed=9),
        ScenarioConfig(benign_count=300, sybil_count=40, avg_degree=6, attack_edge_count=1000, rng_seed=4),
        ScenarioConfig(benign_count=2, sybil_count=2, avg_degree=1, attack_edge_count=4, rng_seed=3),
        ScenarioConfig(benign_count=90, sybil_count=50, attack_edge_count=0, rng_seed=5),
        ScenarioConfig(benign_count=150, sybil_count=70, attack_edge_count=120, rng_seed=2,
                       degree_biased_attacks=True),
        ScenarioConfig(benign_count=300, sybil_count=40, avg_degree=6, attack_edge_count=1000, rng_seed=4,
                       degree_biased_attacks=True),
        ScenarioConfig(benign_count=2, sybil_count=2, avg_degree=1, attack_edge_count=4, rng_seed=3,
                       degree_biased_attacks=True),
        # Every cross pair: the last batches redraw pairs the set already holds.
        ScenarioConfig(benign_count=3, sybil_count=4, avg_degree=2, attack_edge_count=12, rng_seed=8),
        ScenarioConfig(benign_count=3, sybil_count=4, avg_degree=2, attack_edge_count=12, rng_seed=8,
                       degree_biased_attacks=True),
        ScenarioConfig(benign_count=3, sybil_count=4, avg_degree=2, attack_edge_count=0, rng_seed=8),
    ])
    def test_compose_attack_scenario_matches_oracle(self, cfg):
        g, labels = compose_attack_scenario(cfg)
        want_g, want_labels = compose_attack_scenario_oracle(cfg)
        assert_same_graph(g, want_g)
        assert np.array_equal(labels, want_labels) and labels.dtype == want_labels.dtype


class TestPreferentialAttachment:
    def test_average_degree_near_ten(self):
        g = preferential_attachment(1000, 5, seed=1)
        avg = 2.0 * g.edge_count / g.node_count
        assert avg == pytest.approx(10.0, abs=0.2)

    def test_three_node_tree(self):
        g = preferential_attachment(3, 1, seed=2)
        assert g.edge_count == 2
        assert sorted(g.degrees.tolist()) == [1, 1, 2]

    def test_handshake_lemma(self):
        for seed in range(5):
            g = preferential_attachment(60, 3, seed=seed)
            assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_connected(self):
        from trustprop.graph import component_labels
        g = preferential_attachment(200, 2, seed=3)
        assert component_labels(g)[1].tolist() == [200]

    def test_size_check(self):
        with pytest.raises(ValueError):
            preferential_attachment(5, 5, seed=0)
        with pytest.raises(ValueError):
            preferential_attachment(10, 0, seed=0)

    def test_long_tail_max_degree_grows(self):
        small = [preferential_attachment(200, 3, seed=s).degrees.max() for s in range(5)]
        large = [preferential_attachment(2000, 3, seed=s).degrees.max() for s in range(5)]
        assert np.mean(large) > np.mean(small)


class TestComposeAttackScenario:
    def test_basic_setup_attack_edge_count(self):
        cfg = ScenarioConfig(rng_seed=42)
        g, labels = compose_attack_scenario(cfg)
        cross = np.count_nonzero(labels[g.edge_u] != labels[g.edge_v])
        assert cross == 1000
        assert np.count_nonzero(labels == BENIGN) == 1000
        assert np.count_nonzero(labels == SYBIL) == 500

    def test_no_attack_edges_high_modularity(self):
        cfg = ScenarioConfig(benign_count=300, sybil_count=150, attack_edge_count=0, rng_seed=5)
        g, labels = compose_attack_scenario(cfg)
        assert np.count_nonzero(labels[g.edge_u] != labels[g.edge_v]) == 0
        assert modularity(g, labels) > 0.3

    def test_deterministic(self):
        cfg = ScenarioConfig(benign_count=120, sybil_count=60, attack_edge_count=90, rng_seed=9)
        g1, l1 = compose_attack_scenario(cfg)
        g2, l2 = compose_attack_scenario(cfg)
        assert np.array_equal(g1.edge_u, g2.edge_u)
        assert np.array_equal(g1.edge_v, g2.edge_v)
        assert np.array_equal(l1, l2)

    def test_region_internal_edges_preserved(self):
        cfg = ScenarioConfig(benign_count=150, sybil_count=80, avg_degree=6, attack_edge_count=60, rng_seed=3)
        g, labels = compose_attack_scenario(cfg)
        m = cfg.edges_per_node
        expected_benign = m * (m + 1) // 2 + (cfg.benign_count - m - 1) * m
        expected_sybil = m * (m + 1) // 2 + (cfg.sybil_count - m - 1) * m
        benign_internal = np.count_nonzero((labels[g.edge_u] == BENIGN) & (labels[g.edge_v] == BENIGN))
        sybil_internal = np.count_nonzero((labels[g.edge_u] == SYBIL) & (labels[g.edge_v] == SYBIL))
        assert benign_internal == expected_benign
        assert sybil_internal == expected_sybil

    def test_attack_edges_span_regions(self):
        cfg = ScenarioConfig(benign_count=100, sybil_count=50, attack_edge_count=200, rng_seed=11)
        g, labels = compose_attack_scenario(cfg)
        # benign ids below 100, sybil at or above: every cross edge pairs one of each
        cross = labels[g.edge_u] != labels[g.edge_v]
        assert np.all(g.edge_u[cross] < 100)
        assert np.all(g.edge_v[cross] >= 100)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(benign_count=10, sybil_count=5, attack_edge_count=51).validate()

    @pytest.mark.parametrize("benign, sybil", [(5, 50), (50, 5), (3, 3)])
    def test_region_of_at_most_edges_per_node_rejected(self, benign, sybil):
        cfg = ScenarioConfig(benign_count=benign, sybil_count=sybil, attack_edge_count=1)
        with pytest.raises(ValueError, match="more than edges_per_node = 5 nodes"):
            cfg.validate()
        with pytest.raises(ValueError, match="more than edges_per_node = 5 nodes"):
            compose_attack_scenario(cfg)
        ScenarioConfig(benign_count=6, sybil_count=6, attack_edge_count=1).validate()

    def test_degree_biased_attack_flag(self):
        cfg = ScenarioConfig(benign_count=150, sybil_count=70, attack_edge_count=120,
                             rng_seed=2, degree_biased_attacks=True)
        g, labels = compose_attack_scenario(cfg)
        assert np.count_nonzero(labels[g.edge_u] != labels[g.edge_v]) == 120


class TestSimulateTrustScores:
    def test_zero_noise_perfect_sides(self):
        labels = np.array([BENIGN] * 50 + [SYBIL] * 50, dtype=np.int8)
        scores = simulate_trust_scores(labels, NoiseConfig(0.0, 0.0, rng_seed=1))
        assert np.all(scores[labels == BENIGN] > 0.5)
        assert np.all(scores[labels == SYBIL] < 0.5)

    def test_range_and_never_half(self):
        labels = np.array([BENIGN, SYBIL] * 500, dtype=np.int8)
        scores = simulate_trust_scores(labels, NoiseConfig(0.4, 0.4, rng_seed=2))
        assert scores.min() >= 0.1
        assert scores.max() <= 0.9
        assert not np.any(scores == 0.5)

    def test_empirical_error_rate(self):
        n = 100_000
        labels = np.array([BENIGN] * (n // 2) + [SYBIL] * (n // 2), dtype=np.int8)
        scores = simulate_trust_scores(labels, NoiseConfig(0.3, 0.3, rng_seed=3))
        predicted_benign = scores > 0.5
        err = np.mean(predicted_benign != (labels == BENIGN))
        assert err == pytest.approx(0.3, abs=0.01)

    def test_unknown_label_error(self):
        labels = np.array([BENIGN, UNKNOWN], dtype=np.int8)
        with pytest.raises(ValueError):
            simulate_trust_scores(labels, NoiseConfig(0.1, 0.1, rng_seed=0))

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(1.5, 0.0, rng_seed=0).validate()


class TestSimulateEdgeTrustScores:
    def test_zero_noise_sides(self):
        cfg = ScenarioConfig(benign_count=80, sybil_count=40, attack_edge_count=60, rng_seed=4)
        g, labels = compose_attack_scenario(cfg)
        values = simulate_edge_trust_scores(g, labels, NoiseConfig(0.0, 0.0, rng_seed=1))
        same = labels[g.edge_u] == labels[g.edge_v]
        assert np.all(values[same] > 0.5)
        assert np.all(values[~same] < 0.5)

    def test_range(self):
        cfg = ScenarioConfig(benign_count=80, sybil_count=40, attack_edge_count=60, rng_seed=4)
        g, labels = compose_attack_scenario(cfg)
        values = simulate_edge_trust_scores(g, labels, NoiseConfig(0.3, 0.3, rng_seed=1))
        assert values.min() >= 0.1
        assert values.max() <= 0.9
        assert not np.any(values == 0.5)

    def test_empirical_flip_rates(self):
        cfg = ScenarioConfig(benign_count=2000, sybil_count=1000, attack_edge_count=5000, rng_seed=6)
        g, labels = compose_attack_scenario(cfg)
        values = simulate_edge_trust_scores(g, labels, NoiseConfig(0.2, 0.2, rng_seed=2))
        same = labels[g.edge_u] == labels[g.edge_v]
        fnr = np.mean(values[same] < 0.5)
        fpr = np.mean(values[~same] > 0.5)
        assert fnr == pytest.approx(0.2, abs=0.02)
        assert fpr == pytest.approx(0.2, abs=0.02)
