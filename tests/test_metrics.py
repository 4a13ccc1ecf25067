import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop.graph import BENIGN, SYBIL, UNKNOWN
from trustprop.metrics import (CLASS_BENIGN, CLASS_ISOLATED, CLASS_LCC, CLASS_OTHERS,
                               RankingReport, accuracy_at_threshold, auc,
                               build_ranking_report, decompose_top_k, rank_nodes,
                               sybil_component_classes, top_k_sybil_fraction,
                               write_ranking)

from conftest import auc_pair_oracle, graph_from_pairs


def labels_of(benign_ids, sybil_ids, n):
    labels = np.full(n, UNKNOWN, dtype=np.int8)
    labels[list(benign_ids)] = BENIGN
    labels[list(sybil_ids)] = SYBIL
    return labels


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = labels_of([2, 3], [0, 1], 4)
        assert auc(scores, labels) == 1.0

    def test_all_tied(self):
        scores = np.full(6, 0.4)
        labels = labels_of([0, 1, 2], [3, 4, 5], 6)
        assert auc(scores, labels) == 0.5

    def test_against_pair_oracle_with_ties(self):
        rng = np.random.default_rng(40)
        for trial in range(50):
            n = int(rng.integers(4, 30))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9], size=n)
            labels = rng.choice([BENIGN, SYBIL], size=n).astype(np.int8)
            if len(set(labels.tolist())) < 2:
                continue
            assert auc(scores, labels) == pytest.approx(
                auc_pair_oracle(scores, labels), abs=1e-12)

    def test_single_class_error(self):
        with pytest.raises(ValueError):
            auc(np.array([0.1, 0.2]), np.array([BENIGN, BENIGN], dtype=np.int8))

    def test_excluded_seeds_dropped(self):
        scores = np.array([0.9, 0.1, 0.2, 0.8])
        labels = labels_of([0, 3], [1, 2], 4)
        # excluding the perfect pair (0, 1) leaves (3 benign, 2 sybil) still perfect
        assert auc(scores, labels, exclude=[0, 1]) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(41)
        scores = rng.random(30)
        labels = rng.choice([BENIGN, SYBIL], size=30).astype(np.int8)
        labels[0] = BENIGN
        labels[1] = SYBIL
        a = auc(scores, labels)
        assert auc(np.exp(3.0 * scores) + 7, labels) == pytest.approx(a, abs=1e-12)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(42)
        scores = rng.permutation(np.linspace(0.05, 0.95, 24))
        labels = np.array([BENIGN, SYBIL] * 12, dtype=np.int8)
        assert auc(scores, labels) + auc(1.0 - scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestAccuracy:
    def test_perfect(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = labels_of([0, 1], [2, 3], 4)
        assert accuracy_at_threshold(scores, labels, 0.5) == 1.0

    def test_score_at_threshold_is_sybil(self):
        scores = np.array([0.5, 0.5])
        labels = labels_of([0], [1], 2)
        assert accuracy_at_threshold(scores, labels, 0.5) == 0.5

    def test_inverted_complement(self):
        rng = np.random.default_rng(43)
        scores = rng.choice(np.linspace(0.11, 0.93, 40), size=20, replace=False)
        labels = rng.choice([BENIGN, SYBIL], size=20).astype(np.int8)
        a = accuracy_at_threshold(scores, labels, 0.5)
        b = accuracy_at_threshold(1.0 - scores, labels, 0.5)
        assert a + b == pytest.approx(1.0)

    def test_hand_counted(self):
        scores = np.array([0.9, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8, 0.45, 0.55, 0.35])
        labels = labels_of([0, 2, 4, 6, 8], [1, 3, 5, 7, 9], 10)
        # benign > 0.5: 0,2,4,6,8 all correct; sybil <= 0.5: all correct
        assert accuracy_at_threshold(scores, labels, 0.5) == 1.0
        # at threshold 0.6: benign 0.55 flips wrong, and the benign at exactly
        # 0.6 classifies sybil (ties -> sybil) -> 8/10
        assert accuracy_at_threshold(scores, labels, 0.6) == pytest.approx(0.8)

    def test_empty_evaluation_error(self):
        labels = np.full(3, UNKNOWN, dtype=np.int8)
        with pytest.raises(ValueError):
            accuracy_at_threshold(np.full(3, 0.5), labels, 0.5)

    def test_threshold_range_error(self):
        labels = labels_of([0], [1], 2)
        with pytest.raises(ValueError):
            accuracy_at_threshold(np.array([0.4, 0.6]), labels, 1.0)


class TestRanking:
    def test_rank_ascending_with_id_tiebreak(self):
        scores = np.array([0.5, 0.2, 0.5, 0.1])
        ids = np.arange(4)
        assert rank_nodes(scores, ids).tolist() == [3, 1, 0, 2]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        scores = rng.choice([0.2, 0.5, 0.8], size=15)
        labels = labels_of(range(8), range(8, 15), 15)
        r1 = build_ranking_report(scores, labels)
        # feeding nodes in any order cannot matter: ranking is a function of arrays
        perm = rng.permutation(15)
        inv = np.empty(15, dtype=int)
        inv[perm] = np.arange(15)
        r2 = build_ranking_report(scores[perm][inv], labels[perm][inv])
        assert np.array_equal(r1.node_ids, r2.node_ids)

    def test_report_excludes_seeds_and_unknowns(self):
        scores = np.linspace(0.1, 0.9, 6)
        labels = labels_of([0, 1, 2], [3, 4], 6)  # node 5 unknown
        report = build_ranking_report(scores, labels, exclude=[0])
        assert set(report.node_ids.tolist()) == {1, 2, 3, 4}

    def test_predictions_sign_convention(self):
        scores = np.array([0.5, 0.7])
        labels = labels_of([1], [0], 2)
        report = build_ranking_report(scores, labels, threshold=0.5)
        by_node = dict(zip(report.node_ids.tolist(), report.predicted.tolist()))
        assert by_node[0] == -1  # exactly at threshold -> sybil
        assert by_node[1] == 1


class TestTopK:
    def test_perfect_detector(self):
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        labels = labels_of([3, 4], [0, 1, 2], 5)
        report = build_ranking_report(scores, labels)
        assert top_k_sybil_fraction(report, 3) == 1.0
        assert top_k_sybil_fraction(report, 5) == pytest.approx(3 / 5)

    def test_k_validation(self):
        scores = np.array([0.2, 0.8])
        labels = labels_of([1], [0], 2)
        report = build_ranking_report(scores, labels)
        with pytest.raises(ValueError):
            top_k_sybil_fraction(report, 0)
        with pytest.raises(ValueError):
            top_k_sybil_fraction(report, 3)

    def test_sybil_count_non_decreasing_in_k(self):
        rng = np.random.default_rng(45)
        scores = rng.random(40)
        labels = rng.choice([BENIGN, SYBIL], size=40).astype(np.int8)
        labels[:2] = [BENIGN, SYBIL]
        report = build_ranking_report(scores, labels)
        counts = [top_k_sybil_fraction(report, k) * k for k in range(1, 41)]
        assert np.all(np.diff(counts) >= -1e-9)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(46)
        fractions = []
        for trial in range(30):
            scores = rng.random(200)
            labels = np.array([BENIGN, SYBIL] * 100, dtype=np.int8)
            report = build_ranking_report(scores, labels)
            fractions.append(top_k_sybil_fraction(report, 100))
        assert np.mean(fractions) == pytest.approx(0.5, abs=0.05)


class TestDecomposition:
    def test_classes_and_counts(self):
        # sybil subgraph: {2,3,4} lcc, {5} isolated, {6,7} others
        pairs = [(0, 1), (2, 3), (3, 4), (6, 7), (0, 5), (1, 6), (0, 2)]
        g = graph_from_pairs(8, pairs)
        labels = labels_of([0, 1], [2, 3, 4, 5, 6, 7], 8)
        classes = sybil_component_classes(g, labels)
        assert classes[0] == classes[1] == CLASS_BENIGN
        assert list(classes[2:5]) == [CLASS_LCC] * 3
        assert classes[5] == CLASS_ISOLATED
        assert list(classes[6:8]) == [CLASS_OTHERS] * 2

    def test_all_isolated_scenario(self):
        g = graph_from_pairs(4, [(0, 2), (1, 3)])
        labels = labels_of([0, 1], [2, 3], 4)
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        report = build_ranking_report(scores, labels, graph=g)
        counts = decompose_top_k(report, 2)
        assert counts == {CLASS_ISOLATED: 2, CLASS_LCC: 0, CLASS_OTHERS: 0, CLASS_BENIGN: 0}

    def test_counts_sum_to_k(self):
        rng = np.random.default_rng(47)
        from conftest import random_graph
        g = random_graph(20, 0.15, rng)
        labels = rng.choice([BENIGN, SYBIL], size=20).astype(np.int8)
        labels[:2] = [BENIGN, SYBIL]
        scores = rng.random(20)
        report = build_ranking_report(scores, labels, graph=g)
        for k in (1, 5, 10, 20):
            assert sum(decompose_top_k(report, k).values()) == k

    def test_manual_twenty_node_fixture(self):
        # benign 0..9; sybils: component {10..15} (lcc), {16,17} (others),
        # {18}, {19} isolated. Scores put sybils first in a known order.
        pairs = [(i, i + 1) for i in range(9)]
        pairs += [(10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (16, 17)]
        pairs += [(0, 10), (1, 16), (2, 18), (3, 19)]
        g = graph_from_pairs(20, pairs)
        labels = labels_of(range(10), range(10, 20), 20)
        scores = np.full(20, 0.9)
        scores[10:16] = 0.10  # lcc first
        scores[16:18] = 0.20  # then others
        scores[18:20] = 0.30  # then isolated
        report = build_ranking_report(scores, labels, graph=g)
        assert decompose_top_k(report, 6) == {
            CLASS_ISOLATED: 0, CLASS_LCC: 6, CLASS_OTHERS: 0, CLASS_BENIGN: 0}
        assert decompose_top_k(report, 10) == {
            CLASS_ISOLATED: 2, CLASS_LCC: 6, CLASS_OTHERS: 2, CLASS_BENIGN: 0}
        assert decompose_top_k(report, 12) == {
            CLASS_ISOLATED: 2, CLASS_LCC: 6, CLASS_OTHERS: 2, CLASS_BENIGN: 2}

    def test_report_without_graph_defaults(self):
        scores = np.array([0.2, 0.8])
        labels = labels_of([1], [0], 2)
        report = build_ranking_report(scores, labels)
        assert report.component_class[0] == CLASS_OTHERS
        assert report.component_class[1] == CLASS_BENIGN


class TestRankingFile:
    def test_written_rows(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        labels = labels_of([0, 1], [2], 3)
        scores = np.array([0.8, 0.9, 0.1])
        report = build_ranking_report(scores, labels, graph=g)
        path = tmp_path / "ranking.tsv"
        write_ranking(path, report)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert rows[0][:2] == ["1", "2"]
        assert rows[0][4] == CLASS_ISOLATED
        assert [r[1] for r in rows] == ["2", "0", "1"]


@given(st.lists(st.tuples(st.sampled_from([0.1, 0.3, 0.5, 0.7]),
                          st.sampled_from([BENIGN, SYBIL])),
                min_size=4, max_size=40))
@settings(max_examples=60, deadline=None)
def test_auc_oracle_property(items):
    scores = np.array([s for s, _ in items])
    labels = np.array([l for _, l in items], dtype=np.int8)
    if len(set(labels.tolist())) < 2:
        return
    assert auc(scores, labels) == pytest.approx(auc_pair_oracle(scores, labels), abs=1e-12)
