from dataclasses import replace

import numpy as np
import pytest

from trustprop import metrics, synth, tsvio
from trustprop.graph import BENIGN, SYBIL
from trustprop.harness import (PipelineConfig, StageError, SweepSpec, derive_seed,
                               run_detection_pipeline, run_robustness_sweep)

from conftest import arcs

SMALL_BASE = synth.ScenarioConfig(benign_count=200, sybil_count=100, avg_degree=8,
                                  attack_edge_count=150, rng_seed=7)


def rows_by(rows, engine, metric):
    return {value: (mean, std) for value, eng, met, mean, std, _ in rows
            if eng == engine and met == metric}


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "stage", 1) == derive_seed(42, "stage", 1)

    def test_distinct_parts_differ(self):
        seeds = {derive_seed(42, part, i) for part in ("a", "b") for i in range(5)}
        assert len(seeds) == 10

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(2**63, "x") < 2**63


class TestSweep:
    def test_result_is_pure_function_of_spec(self):
        spec = SweepSpec(base=SMALL_BASE, values=(0.0, 0.2), trials=3)
        assert run_robustness_sweep(spec) == run_robustness_sweep(spec)

    def test_thread_count_invariance(self):
        spec1 = SweepSpec(base=SMALL_BASE, values=(0.1, 0.3), trials=4, threads=1)
        spec4 = SweepSpec(base=SMALL_BASE, values=(0.1, 0.3), trials=4, threads=4)
        assert run_robustness_sweep(spec1) == run_robustness_sweep(spec4)

    def test_rw_has_no_accuracy_rows(self):
        spec = SweepSpec(base=SMALL_BASE, values=(0.2,), trials=2)
        rows = run_robustness_sweep(spec)
        assert not [r for r in rows if r[1] == "random_walk" and r[2] == "accuracy"]
        assert [r for r in rows if r[1] == "lbp" and r[2] == "accuracy"]

    def test_invalid_grid_rejected_before_running(self):
        spec = SweepSpec(base=SMALL_BASE, variable="attack_edges",
                         values=(100, 10**9), trials=2)
        with pytest.raises(ValueError):
            run_robustness_sweep(spec)
        with pytest.raises(ValueError):
            run_robustness_sweep(SweepSpec(base=SMALL_BASE, variable="bogus"))
        with pytest.raises(ValueError):
            run_robustness_sweep(SweepSpec(base=SMALL_BASE, trials=0))

    @pytest.mark.parametrize("variable", ["attack_edges", "sybil_count"])
    def test_fractional_count_rejected(self, variable):
        with pytest.raises(ValueError, match="10.7"):
            SweepSpec(base=SMALL_BASE, variable=variable, values=(10.7,), trials=1).validate()

    @pytest.mark.parametrize("bad, message", [({"mode": "bogus"}, "unknown sweep mode 'bogus'"),
                                              ({"values": ()}, "empty value grid")])
    def test_unknown_mode_or_empty_grid_rejected(self, bad, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(base=SMALL_BASE, trials=1, **bad).validate()

    def test_no_engine_rejected(self):
        with pytest.raises(ValueError, match="no engine"):
            SweepSpec(base=SMALL_BASE, engines=()).validate()

    @pytest.mark.parametrize("repeated", [{"values": (0.1, 0.2, 0.1)}, {"engines": ("lbp", "lbp")},
                                          {"variable": "attack_edges", "values": (10, 10.0)}])
    def test_repeated_value_or_engine_rejected(self, repeated):
        with pytest.raises(ValueError, match="repeated value or engine"):
            SweepSpec(base=SMALL_BASE, trials=1, **repeated).validate()

    def test_rows_in_engine_order_with_accuracy_before_auc(self):
        rows = run_robustness_sweep(SweepSpec(base=SMALL_BASE, values=(0.2,), trials=1,
                                              engines=("lbp", "random_walk")))
        assert [r[1:3] for r in rows] == [("lbp", "accuracy"), ("lbp", "auc"), ("random_walk", "auc")]
        rows = run_robustness_sweep(SweepSpec(base=SMALL_BASE, values=(0.2,), trials=1,
                                              engines=("random_walk", "lbp")))
        assert [r[1:3] for r in rows] == [("random_walk", "auc"), ("lbp", "accuracy"), ("lbp", "auc")]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            SweepSpec(base=SMALL_BASE, threads=threads).validate()

    def test_more_attack_edges_do_not_help(self):
        spec = SweepSpec(base=SMALL_BASE, variable="attack_edges",
                         values=(50, 400), trials=10, noise=0.3)
        rows = run_robustness_sweep(spec)
        for engine in ("random_walk", "lbp"):
            table = rows_by(rows, engine, "auc")
            mean_lo, std_lo = table[50]
            mean_hi, std_hi = table[400]
            pooled = np.sqrt((std_lo**2 + std_hi**2) / 2.0)
            assert mean_hi <= mean_lo + pooled

    def test_no_signal_noise_gives_chance_auc(self):
        # fpr=fnr=0.5 scores carry no label signal: their own AUC sits at
        # chance (0.5 +- 0.03 over ten basic-setup trials).
        aucs = []
        for t in range(10):
            cfg = synth.ScenarioConfig(rng_seed=derive_seed(7, "nosignal", t))
            graph, labels = synth.compose_attack_scenario(cfg)
            scores = synth.simulate_trust_scores(labels, synth.NoiseConfig(0.5, 0.5, rng_seed=t))
            aucs.append(metrics.auc(scores, labels))
        assert np.mean(aucs) == pytest.approx(0.5, abs=0.03)

    def test_no_signal_noise_downstream_consensus_variance(self):
        # Downstream of LBP the no-signal case is bimodal: homophily forms a
        # region consensus from coin-flip score majorities, so per-trial AUC
        # swings widely while the mean stays near chance.
        spec = SweepSpec(base=SMALL_BASE, values=(0.5,), trials=40)
        rows = run_robustness_sweep(spec)
        mean, std = rows_by(rows, "lbp", "auc")[0.5]
        assert 0.35 <= mean <= 0.65
        assert std > 0.1

    def test_edge_mode_runs_and_excludes_seeds(self):
        spec = SweepSpec(base=SMALL_BASE, values=(0.0,), trials=3, mode="edge_scores")
        rows = run_robustness_sweep(spec)
        mean, std = rows_by(rows, "random_walk", "auc")[0.0]
        assert mean > 0.95

    def test_sybil_count_sweep(self):
        spec = SweepSpec(base=SMALL_BASE, variable="sybil_count",
                         values=(60, 120), trials=3, noise=0.3)
        rows = run_robustness_sweep(spec)
        table = rows_by(rows, "lbp", "auc")
        assert set(table) == {60, 120}
        # more Sybils help (paper trend); generous slack for 3 trials
        assert table[120][0] >= table[60][0] - 0.05

    def test_table_writer_round_trip(self, tmp_path):
        spec = SweepSpec(base=SMALL_BASE, values=(0.1,), trials=2)
        rows = run_robustness_sweep(spec)
        tsvio.write_sweep_table(tmp_path / "sweep.tsv", rows)
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(lines) == len(rows)
        assert lines[0].split("\t")[1] in ("random_walk", "lbp")


def _write_scenario(tmp_path, cfg=SMALL_BASE):
    graph, labels = synth.compose_attack_scenario(cfg)
    tsvio.write_edge_list(tmp_path / "graph.tsv", graph)
    tsvio.write_labels(tmp_path / "labels.tsv", labels)
    return graph, labels


class TestPipeline:
    def test_matches_manual_stage_composition(self, tmp_path):
        from trustprop import classifier, features, propagate
        from trustprop.tsvio import load_edge_list

        graph, labels = _write_scenario(tmp_path)
        cfg = PipelineConfig(engine="lbp", train_benign=20, train_sybil=20, seed=5)
        result = run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                                        cfg, out_dir=tmp_path / "out")

        g = load_edge_list(tmp_path / "graph.tsv")
        feats = features.feature_matrix(g)
        training = classifier.sample_training_set(labels, 20, 20, derive_seed(5, "train-sample"))
        model = classifier.train(feats, training)
        node_scores = classifier.predict_scores(model, feats)
        edge_scores = classifier.edge_scores(g, value=0.9)
        final = propagate.weighted_lbp(g, node_scores, edge_scores,
                                       propagate.PropagationConfig(seeds=training))
        want_auc = metrics.auc(final, labels, exclude=training.all_ids)
        assert result.metrics["auc"] == want_auc
        assert np.array_equal(result.final_scores["sf_lbp"], final)

    def test_zero_training_tagged_classifier_stage(self, tmp_path):
        _write_scenario(tmp_path)
        cfg = PipelineConfig(train_benign=0, train_sybil=20)
        with pytest.raises(StageError) as err:
            run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv", cfg,
                                   out_dir=tmp_path / "out")
        assert err.value.stage == "classifier"

    def test_rerun_produces_identical_files(self, tmp_path):
        _write_scenario(tmp_path)
        cfg = PipelineConfig(train_benign=15, train_sybil=15, seed=3, baselines=True)
        run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                               cfg, out_dir=tmp_path / "a")
        run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                               cfg, out_dir=tmp_path / "b")
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_artifact_files_written(self, tmp_path):
        _write_scenario(tmp_path)
        cfg = PipelineConfig(train_benign=10, train_sybil=10, seed=1, baselines=True)
        run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                               cfg, out_dir=tmp_path / "out")
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert {"features.tsv", "model.txt", "local_scores.tsv", "edge_scores.tsv",
                "train_seeds.tsv", "final_scores_sf_lbp.tsv", "final_scores_sybilrank.tsv",
                "final_scores_cia.tsv", "final_scores_sybilbelief.tsv",
                "ranking.tsv", "metrics.tsv"} <= names

    def test_directed_input_runs_feature_stage(self, tmp_path, directed_social_scenario):
        dg, labels = directed_social_scenario
        tsvio.write_rows(tmp_path / "digraph.tsv", *arcs(dg))
        tsvio.write_labels(tmp_path / "labels.tsv", labels)
        cfg = PipelineConfig(train_benign=25, train_sybil=25, seed=11)
        result = run_detection_pipeline(tmp_path / "digraph.tsv", tmp_path / "labels.tsv",
                                        cfg, directed=True, out_dir=tmp_path / "out")
        # features separate on this fixture, so the pipeline should rank well
        assert result.metrics["auc"] > 0.8
        assert (tmp_path / "out" / "mutual_graph.tsv").exists()

    def test_directed_run_mutualizes_once_and_scores_each_engine_once(
            self, tmp_path, directed_social_scenario, monkeypatch):
        from trustprop import harness
        dg, labels = directed_social_scenario
        tsvio.write_rows(tmp_path / "digraph.tsv", *arcs(dg))
        tsvio.write_labels(tmp_path / "labels.tsv", labels)
        calls = {"mutualize": 0, "auc": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "mutualize", counted("mutualize", harness.mutualize))
        monkeypatch.setattr(metrics, "auc", counted("auc", metrics.auc))
        cfg = PipelineConfig(train_benign=25, train_sybil=25, seed=11, baselines=True)
        result = run_detection_pipeline(tmp_path / "digraph.tsv", tmp_path / "labels.tsv",
                                        cfg, directed=True, out_dir=tmp_path / "out")
        assert calls["mutualize"] == 1
        # one AUC per engine; the main engine's is the ranking report's own
        assert calls["auc"] == len(result.final_scores)
        rows = [line.split("\t") for line in (tmp_path / "out" / "metrics.tsv").read_text().splitlines()]
        written = {r[1]: float(r[2]) for r in rows if r[0] == "auc"}
        assert written == {name: result.metrics[f"auc_{name}"] for name in result.final_scores}

    def test_directed_jaccard_run_counts_triangles_once(
            self, tmp_path, directed_social_scenario, monkeypatch):
        from trustprop import graph as graph_module
        dg, labels = directed_social_scenario
        tsvio.write_rows(tmp_path / "digraph.tsv", *arcs(dg))
        tsvio.write_labels(tmp_path / "labels.tsv", labels)
        unweighted = []
        real_pass = graph_module._triangle_pass

        def counted(g, weights):
            if weights is None:
                unweighted.append(g)
            return real_pass(g, weights)

        monkeypatch.setattr(graph_module, "_triangle_pass", counted)
        cfg = PipelineConfig(train_benign=25, train_sybil=25, seed=11, edge_metric="jaccard")
        run_detection_pipeline(tmp_path / "digraph.tsv", tmp_path / "labels.tsv",
                               cfg, directed=True, out_dir=tmp_path / "out")
        # clustering (features stage) and Jaccard (edge-scores stage) share one pass
        assert len(unweighted) == 1

    def test_walk_engine_and_victim_probs(self, tmp_path):
        graph, labels = _write_scenario(tmp_path)
        victims = np.zeros(graph.node_count)
        victims[labels == BENIGN] = 0.25
        tsvio.write_node_scores(tmp_path / "victims.tsv", victims)
        cfg = PipelineConfig(engine="random_walk", train_benign=10, train_sybil=10,
                             baselines=True, seed=2)
        result = run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                                        cfg, out_dir=tmp_path / "out",
                                        victim_prob_path=tmp_path / "victims.tsv")
        assert "integro" in result.final_scores
        assert "sf_rw" in result.final_scores
        assert (tmp_path / "out" / "final_scores_integro.tsv").exists()

    def test_victim_probs_without_baselines_rejected_before_any_write(self, tmp_path):
        cfg = PipelineConfig(train_benign=10, train_sybil=10)
        with pytest.raises(ValueError, match="read only with baselines"):
            run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv", cfg,
                                   out_dir=tmp_path / "out", victim_prob_path="/nonexistent.tsv")
        assert not (tmp_path / "out").exists()

    def test_fixed_threshold_respected(self, tmp_path):
        _write_scenario(tmp_path)
        cfg = PipelineConfig(train_benign=10, train_sybil=10, threshold=0.42)
        result = run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv", cfg,
                                        out_dir=tmp_path / "out")
        assert result.threshold == 0.42

    def test_remap_maps_victim_probs_through_the_id_map(self, tmp_path):
        # the x1000 ids of test_remap_sparse_ids, in the victim file too
        graph, labels = synth.compose_attack_scenario(SMALL_BASE)
        victims = np.where(labels == BENIGN, 0.25, 0.0)
        victims[::7] = 0.6
        with open(tmp_path / "graph.tsv", "w") as fh:
            for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
                fh.write(f"{u * 1000}\t{v * 1000}\n")
        with open(tmp_path / "labels.tsv", "w") as fh:
            for node, lab in enumerate(labels.tolist()):
                fh.write(f"{node * 1000}\t{lab}\n")
        with open(tmp_path / "victims.tsv", "w") as fh:
            for node, p in enumerate(victims.tolist()):
                fh.write(f"{node * 1000}\t{p!r}\n")
        tsvio.write_edge_list(tmp_path / "dense_graph.tsv", graph)
        tsvio.write_labels(tmp_path / "dense_labels.tsv", labels)
        tsvio.write_node_scores(tmp_path / "dense_victims.tsv", victims)
        cfg = PipelineConfig(train_benign=15, train_sybil=15, seed=3, baselines=True)
        sparse = run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                                        replace(cfg, remap_ids=True), out_dir=tmp_path / "sparse",
                                        victim_prob_path=tmp_path / "victims.tsv")
        dense = run_detection_pipeline(tmp_path / "dense_graph.tsv", tmp_path / "dense_labels.tsv",
                                       cfg, out_dir=tmp_path / "dense",
                                       victim_prob_path=tmp_path / "dense_victims.tsv")
        assert np.array_equal(sparse.final_scores["integro"], dense.final_scores["integro"])

    @pytest.mark.parametrize("remap", [False, True])
    def test_label_row_off_the_graph_is_a_load_error(self, tmp_path, remap):
        (tmp_path / "graph.tsv").write_text("0\t2000\n2000\t4000\n")
        (tmp_path / "labels.tsv").write_text("0\t1\n4000\t0\n7000\t0\n")
        cfg = PipelineConfig(train_benign=1, train_sybil=1, remap_ids=remap)
        with pytest.raises(StageError, match="labels.tsv:3: unknown node id") as err:
            run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv", cfg,
                                   out_dir=tmp_path / "out")
        assert err.value.stage == "load"

    def test_remap_sparse_ids(self, tmp_path):
        # same scenario, node ids multiplied by 1000 (sparse)
        graph, labels = synth.compose_attack_scenario(SMALL_BASE)
        with open(tmp_path / "graph.tsv", "w") as fh:
            for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
                fh.write(f"{u * 1000}\t{v * 1000}\n")
        with open(tmp_path / "labels.tsv", "w") as fh:
            for node, lab in enumerate(labels.tolist()):
                fh.write(f"{node * 1000}\t{lab}\n")
        cfg = PipelineConfig(train_benign=15, train_sybil=15, seed=3, remap_ids=True)
        result = run_detection_pipeline(tmp_path / "graph.tsv", tmp_path / "labels.tsv",
                                        cfg, out_dir=tmp_path / "out")
        # identical graph after densification: same AUC as the dense run
        tsvio.write_edge_list(tmp_path / "dense_graph.tsv", graph)
        tsvio.write_labels(tmp_path / "dense_labels.tsv", labels)
        dense_cfg = PipelineConfig(train_benign=15, train_sybil=15, seed=3)
        dense = run_detection_pipeline(tmp_path / "dense_graph.tsv", tmp_path / "dense_labels.tsv",
                                       dense_cfg, out_dir=tmp_path / "dense")
        assert result.metrics["auc"] == dense.metrics["auc"]
        id_map = (tmp_path / "out" / "id_map.tsv").read_text().splitlines()
        assert id_map[0] == "0\t0"
        assert id_map[1] == "1\t1000"
