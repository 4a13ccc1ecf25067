import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop.classifier import (THRESHOLD_GRID, LocalModel, TrainConfig, TrainingSet,
                                  edge_scores, edge_similarity, load_model, loss_and_gradient,
                                  normalize_scores, predict_probabilities, predict_scores,
                                  sample_training_set, save_model, select_threshold, train)
from trustprop.graph import BENIGN, SYBIL

from conftest import graph_from_pairs


def toy_training(seed=0, n=40, separation=3.0):
    """Linearly separable 2-feature set: benign ids first, then sybil."""
    rng = np.random.default_rng(seed)
    benign = rng.normal(loc=(separation, separation), scale=0.5, size=(n // 2, 2))
    sybil = rng.normal(loc=(0.0, 0.0), scale=0.5, size=(n // 2, 2))
    features = np.vstack([benign, sybil])
    training = TrainingSet(benign=np.arange(n // 2), sybil=np.arange(n // 2, n))
    return features, training


class TestTrain:
    def test_separable_perfect_training_accuracy(self):
        features, training = toy_training()
        model = train(features, training)
        scores = predict_scores(model, features)
        predicted_benign = scores > 0.5
        want = np.zeros(features.shape[0], dtype=bool)
        want[training.benign] = True
        assert np.array_equal(predicted_benign, want)

    def test_label_flip_negates_parameters(self):
        features, training = toy_training(seed=1)
        flipped = TrainingSet(benign=training.sybil, sybil=training.benign)
        m1 = train(features, training)
        m2 = train(features, flipped)
        # standardization stats differ only by row order, so they agree exactly
        assert np.allclose(m2.weights, -m1.weights, atol=1e-12)
        assert m2.bias == pytest.approx(-m1.bias, abs=1e-12)

    def test_loss_non_increasing(self):
        features, training = toy_training(seed=2)
        model = train(features, training)
        diffs = np.diff(model.loss_history)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("config", [
        TrainConfig(epochs=-1), TrainConfig(learning_rate=0.0), TrainConfig(learning_rate=-0.1),
        TrainConfig(learning_rate=float("nan")), TrainConfig(learning_rate=float("inf")),
        TrainConfig(l2=-5.0), TrainConfig(l2=float("nan")), TrainConfig(l2=float("inf")),
    ])
    def test_out_of_range_config_error(self, config):
        features, training = toy_training()
        with pytest.raises(ValueError, match="epochs >= 0"):
            train(features, training, config)

    def test_zero_epochs_and_l2_allowed(self):
        features, training = toy_training()
        model = train(features, training, TrainConfig(l2=0.0, epochs=0))
        assert np.array_equal(model.weights, np.zeros(2)) and model.loss_history.shape == (1,)

    def test_single_class_error(self):
        features, _ = toy_training()
        with pytest.raises(ValueError):
            train(features, TrainingSet(benign=np.arange(10), sybil=np.array([], dtype=int)))

    def test_overlapping_classes_error(self):
        for benign, sybil in [([1, 2], [2, 3]), ([9, 4, 4], [0, 4]), ([5], [7, 5]), ([3, 1], [1])]:
            with pytest.raises(ValueError, match="both benign and Sybil"):
                TrainingSet(benign=np.array(benign), sybil=np.array(sybil)).validate()
        for benign, sybil in [([1, 2], [3]), ([9, 4, 4], [0, 10, 0]), ([5], [7, 2])]:
            TrainingSet(benign=np.array(benign), sybil=np.array(sybil)).validate()

    def test_validate_does_not_import_numpy_ma(self):
        code = ("import sys; import trustprop.cli; from trustprop.classifier import TrainingSet; "
                "TrainingSet([4, 1], [3, 0]).validate(); print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_non_finite_features_error(self):
        features, training = toy_training()
        features[3, 0] = np.nan
        with pytest.raises(ValueError):
            train(features, training)

    def test_deterministic(self):
        features, training = toy_training(seed=3)
        m1 = train(features, training)
        m2 = train(features, training)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_standardization_scale_invariance(self):
        features, training = toy_training(seed=4)
        m1 = train(features, training)
        m2 = train(features * 37.5, training)
        s1 = predict_scores(m1, features)
        s2 = predict_scores(m2, features * 37.5)
        assert np.allclose(s1, s2, atol=1e-9)

    def test_constant_feature_is_ignored(self):
        features, training = toy_training(seed=5)
        features = np.column_stack([features, np.full(features.shape[0], 7.0)])
        model = train(features, training)
        assert model.scale[2] == 1.0
        assert model.weights[2] == pytest.approx(0.0, abs=1e-12)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30).astype(float)
        l2 = 1e-3
        h = 1e-5
        for point in range(10):
            w = rng.normal(size=3)
            b = float(rng.normal())
            _, grad_w, grad_b = loss_and_gradient(x, y, w, b, l2)
            numeric = np.empty(4)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                lp, _, _ = loss_and_gradient(x, y, w + e, b, l2)
                lm, _, _ = loss_and_gradient(x, y, w - e, b, l2)
                numeric[i] = (lp - lm) / (2 * h)
            lp, _, _ = loss_and_gradient(x, y, w, b + h, l2)
            lm, _, _ = loss_and_gradient(x, y, w, b - h, l2)
            numeric[3] = (lp - lm) / (2 * h)
            analytic = np.append(grad_w, grad_b)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() < 1e-5


class TestPredictScores:
    def test_affine_endpoints(self):
        assert normalize_scores(np.array([0.0, 0.5, 1.0])).tolist() == [0.1, 0.5, 0.9]

    def test_monotone(self):
        p = np.linspace(0, 1, 50)
        s = normalize_scores(p)
        assert np.all(np.diff(s) > 0)

    def test_scores_in_band(self):
        features, training = toy_training(seed=6)
        model = train(features, training)
        scores = predict_scores(model, features)
        assert scores.min() >= 0.1
        assert scores.max() <= 0.9

    def test_probability_midpoint_maps_to_half(self):
        model = LocalModel(mean=np.zeros(2), scale=np.ones(2),
                           weights=np.zeros(2), bias=0.0)
        scores = predict_scores(model, np.array([[5.0, -2.0]]))
        assert scores[0] == pytest.approx(0.5)


class TestEdgeScores:
    def test_default_all_point_nine(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert edge_scores(g).tolist() == [0.9, 0.9, 0.9]

    def test_neutral_value(self):
        g = graph_from_pairs(3, [(0, 1)])
        assert edge_scores(g, value=0.5).tolist() == [0.5]

    def test_empty_graph(self):
        g = graph_from_pairs(3, [])
        assert edge_scores(g).shape == (0,)

    def test_out_of_range_value(self):
        g = graph_from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError):
            edge_scores(g, value=0.95)

    def test_jaccard_twins_maximal(self):
        # 0 and 1 adjacent, both connected to exactly {2, 3}; edge 2-3 has
        # disjoint residual neighborhoods under jaccard after excluding (2,3).
        g = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        sims = edge_similarity(g, "jaccard")
        scores = edge_scores(g, "jaccard")
        e01 = np.flatnonzero((g.edge_u == 0) & (g.edge_v == 1))[0]
        assert sims[e01] == pytest.approx(1.0)
        assert scores[e01] == pytest.approx(0.9)

    def test_jaccard_disjoint_minimal(self):
        # edge (0,1) in the path tail has A = {}, B = {2} -> similarity 0
        g = graph_from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
        sims = edge_similarity(g, "jaccard")
        scores = edge_scores(g, "jaccard")
        e01 = np.flatnonzero((g.edge_u == 0) & (g.edge_v == 1))[0]
        assert sims[e01] == 0.0
        assert scores[e01] == pytest.approx(0.1)

    def test_handcrafted_six_node_jaccard(self):
        # edges: 0-1, 0-2, 1-2, 2-3, 3-4, 3-5, 4-5
        g = graph_from_pairs(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        sims = edge_similarity(g, "jaccard")
        want = {
            (0, 1): 1.0 / 1.0,   # A={2}, B={2}
            (0, 2): 1.0 / 2.0,   # A={1}, B={1,3}
            (1, 2): 1.0 / 2.0,   # A={0}, B={0,3}
            (2, 3): 0.0 / 4.0,   # A={0,1}, B={4,5}
            (3, 4): 1.0 / 2.0,   # A={2,5}, B={5}
            (3, 5): 1.0 / 2.0,   # A={2,4}, B={4}
            (4, 5): 1.0 / 1.0,   # A={3}, B={3}
        }
        for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
            assert sims[e] == pytest.approx(want[(u, v)], abs=1e-12), (u, v)

    def test_cosine_and_adamic_adar_run(self):
        g = graph_from_pairs(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        cos = edge_similarity(g, "cosine")
        aa = edge_similarity(g, "adamic-adar")
        assert cos.shape == aa.shape == (7,)
        # cosine of edge (0,1): 1/sqrt(1*1) = 1
        assert cos[0] == pytest.approx(1.0)
        # adamic-adar of edge (0,1): common neighbor 2 with degree 3
        assert aa[0] == pytest.approx(1.0 / np.log(3), abs=1e-12)

    def test_constant_similarity_maps_to_half(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        scores = edge_scores(g, "jaccard")
        assert np.allclose(scores, 0.5)

    def test_unknown_metric(self):
        g = graph_from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError):
            edge_similarity(g, "euclid")


class TestSelectThreshold:
    def test_separated_scores_tie_to_half(self):
        scores = np.zeros(20)
        scores[:10] = 0.8
        scores[10:] = 0.2
        training = TrainingSet(benign=np.arange(10), sybil=np.arange(10, 20))
        assert select_threshold(scores, training, folds=5) == pytest.approx(0.5)

    def test_identical_scores_balanced_tie_to_half(self):
        scores = np.full(20, 0.6)
        training = TrainingSet(benign=np.arange(10), sybil=np.arange(10, 20))
        assert select_threshold(scores, training, folds=5) == pytest.approx(0.5)

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(13)
        on_grid = rng.choice(THRESHOLD_GRID, 20)
        with_nan = rng.random(20)
        with_nan[[1, 4, 12, 17]] = np.nan
        ids = rng.permutation(40)
        cases = [
            (rng.random(20), np.arange(10), np.arange(10, 20), 5),
            (on_grid, np.arange(10), np.arange(10, 20), 5),  # scores at grid thresholds
            (with_nan, np.arange(10), np.arange(10, 20), 4),
            (rng.random(40), ids[:23], ids[23:], 3),  # unequal folds, unsorted and interleaved ids
        ]
        for scores, benign, sybil, folds in cases:
            got = select_threshold(scores, TrainingSet(benign=benign, sybil=sybil), folds)
            # brute force: same stratified folds, exhaustive grid evaluation
            accs = []
            for t in THRESHOLD_GRID:
                fold_accs = []
                for f in range(folds):
                    b, s = np.sort(benign)[f::folds], np.sort(sybil)[f::folds]
                    right = [scores[i] > t for i in b] + [not scores[i] > t for i in s]
                    fold_accs.append(sum(right) / len(right))
                accs.append(np.mean(fold_accs))
            best = max(accs)
            candidates = [t for t, a in zip(THRESHOLD_GRID, accs) if a >= best - 1e-12]
            want = min(candidates, key=lambda t: (abs(t - 0.5), t))
            assert got == pytest.approx(want)

    def test_degenerate_folds_error(self):
        scores = np.linspace(0.1, 0.9, 6)
        training = TrainingSet(benign=np.arange(3), sybil=np.arange(3, 6))
        with pytest.raises(ValueError):
            select_threshold(scores, training, folds=4)
        with pytest.raises(ValueError):
            select_threshold(scores, training, folds=1)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        features, training = toy_training(seed=7)
        model = train(features, training)
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.scale, model.scale)
        assert loaded.bias == model.bias
        assert np.array_equal(predict_scores(loaded, features), predict_scores(model, features))

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("format\t99\n")
        with pytest.raises(ValueError):
            load_model(path)


class TestSampleTrainingSet:
    def test_sizes_and_labels(self):
        labels = np.array([BENIGN] * 60 + [SYBIL] * 40, dtype=np.int8)
        training = sample_training_set(labels, 10, 5, seed=3)
        assert training.benign.shape == (10,)
        assert training.sybil.shape == (5,)
        assert np.all(labels[training.benign] == BENIGN)
        assert np.all(labels[training.sybil] == SYBIL)

    def test_zero_size_error(self):
        labels = np.array([BENIGN] * 5 + [SYBIL] * 5, dtype=np.int8)
        with pytest.raises(ValueError):
            sample_training_set(labels, 0, 5, seed=0)

    def test_insufficient_pool_error(self):
        labels = np.array([BENIGN] * 5 + [SYBIL] * 5, dtype=np.int8)
        with pytest.raises(ValueError):
            sample_training_set(labels, 6, 5, seed=0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_per_seed(self, seed):
        labels = np.array([BENIGN] * 30 + [SYBIL] * 30, dtype=np.int8)
        t1 = sample_training_set(labels, 5, 5, seed=seed)
        t2 = sample_training_set(labels, 5, 5, seed=seed)
        assert np.array_equal(t1.benign, t2.benign)
        assert np.array_equal(t1.sybil, t2.sybil)
