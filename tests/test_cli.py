import numpy as np
import pytest

from trustprop import tsvio
from trustprop.cli import VERSION_LINE, dispatch
from trustprop.graph import load_edge_list


def run(*args):
    return dispatch([str(a) for a in args])


@pytest.fixture()
def scenario_dir(tmp_path):
    assert run("generate", "--benign", 120, "--sybil", 60, "--avg-degree", 8,
               "--attack-edges", 90, "--seed", 42, "--out-dir", tmp_path) == 0
    return tmp_path


class TestGenerate:
    def test_files_and_counts(self, scenario_dir):
        g = load_edge_list(scenario_dir / "graph.tsv")
        labels = tsvio.read_labels(scenario_dir / "labels.tsv", g.node_count)
        assert g.node_count == 180
        cross = np.count_nonzero(labels[g.edge_u] != labels[g.edge_v])
        assert cross == 90

    def test_optional_scores(self, tmp_path):
        assert run("generate", "--benign", 50, "--sybil", 25, "--attack-edges", 30,
                   "--fpr", 0.2, "--fnr", 0.2, "--seed", 1, "--out-dir", tmp_path) == 0
        g = load_edge_list(tmp_path / "graph.tsv")
        scores = tsvio.read_node_scores(tmp_path / "node_scores.tsv", g.node_count)
        assert np.all((scores >= 0.1) & (scores <= 0.9))

    def test_determinism(self, tmp_path):
        run("generate", "--benign", 40, "--sybil", 20, "--attack-edges", 10,
            "--seed", 9, "--out-dir", tmp_path / "a")
        run("generate", "--benign", 40, "--sybil", 20, "--attack-edges", 10,
            "--seed", 9, "--out-dir", tmp_path / "b")
        assert (tmp_path / "a" / "graph.tsv").read_bytes() == (tmp_path / "b" / "graph.tsv").read_bytes()

    def test_capacity_error_is_data_error(self, tmp_path):
        assert run("generate", "--benign", 5, "--sybil", 2, "--attack-edges", 100,
                   "--out-dir", tmp_path) == 2


class TestUsageErrors:
    def test_missing_required_flag(self, tmp_path, capsys):
        assert run("propagate", "--engine", "lbp") == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_version(self, capsys):
        assert run("--version") == 0
        assert VERSION_LINE in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("components", "--graph", tmp_path / "nope.tsv", "--out-dir", tmp_path) == 2


class TestConfigFile:
    def test_overrides_defaults_but_not_flags(self, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("benign = 30\nsybil = 15\nattack-edges = 20\n")
        assert run("generate", "--config", cfg, "--sybil", 10, "--seed", 3,
                   "--out-dir", tmp_path) == 0
        g = load_edge_list(tmp_path / "graph.tsv")
        assert g.node_count == 40  # 30 from config + 10 from explicit flag

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("bogus = 1\n")
        assert run("generate", "--config", cfg, "--out-dir", tmp_path) == 1

    def test_bad_syntax_rejected(self, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("just words\n")
        assert run("generate", "--config", cfg, "--out-dir", tmp_path) == 1

    def test_boolean_key(self, tmp_path):
        cfg = tmp_path / "conf"
        cfg.write_text("degree-biased-attacks = true\n")
        assert run("generate", "--benign", 40, "--sybil", 20, "--attack-edges", 15,
                   "--config", cfg, "--out-dir", tmp_path) == 0


class TestStageCommands:
    def test_mutualize(self, tmp_path):
        (tmp_path / "d.tsv").write_text("0\t1\n1\t0\n1\t2\n")
        assert run("mutualize", "--input", tmp_path / "d.tsv", "--out-dir", tmp_path) == 0
        g = load_edge_list(tmp_path / "mutual_graph.tsv")
        assert g.edge_count == 1

    def test_features_train_edges_propagate_rank_evaluate(self, scenario_dir, tmp_path):
        out = scenario_dir
        # features on the undirected scenario graph
        assert run("features", "--graph", out / "graph.tsv", "--undirected",
                   "--out-dir", out) == 0
        assert run("train", "--features", out / "features.tsv", "--labels", out / "labels.tsv",
                   "--train-benign", 15, "--train-sybil", 15, "--seed", 4,
                   "--out-dir", out) == 0
        assert (out / "model.txt").exists()
        assert run("score-edges", "--graph", out / "graph.tsv", "--value", 0.9,
                   "--out-dir", out) == 0
        assert run("propagate", "--engine", "lbp", "--iterations", 8,
                   "--graph", out / "graph.tsv",
                   "--node-scores", out / "local_scores.tsv",
                   "--edge-scores", out / "edge_scores.tsv",
                   "--seeds", out / "train_seeds.tsv",
                   "--out-dir", out) == 0
        g = load_edge_list(out / "graph.tsv")
        final = tsvio.read_node_scores(out / "final_scores.tsv", g.node_count)
        assert np.all(np.isfinite(final))
        assert run("rank", "--scores", out / "final_scores.tsv", "--labels", out / "labels.tsv",
                   "--graph", out / "graph.tsv", "--exclude", out / "train_seeds.tsv",
                   "--out-dir", out) == 0
        assert run("evaluate", "--scores", out / "final_scores.tsv",
                   "--labels", out / "labels.tsv", "--top-k", "20,60",
                   "--exclude", out / "train_seeds.tsv", "--out-dir", out) == 0
        rows = [line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()]
        names = {r[0] for r in rows}
        assert {"auc", "accuracy", "top_k_sybil_fraction"} <= names

    @pytest.mark.parametrize("engine", ["lbp", "random_walk"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_propagate_rejects_non_finite_node_score(self, scenario_dir, engine, bad):
        out = scenario_dir
        assert run("score-edges", "--graph", out / "graph.tsv", "--out-dir", out) == 0
        g = load_edge_list(out / "graph.tsv")
        scores = np.full(g.node_count, 0.5)
        tsvio.write_node_scores(out / "scores.tsv", scores)
        text = (out / "scores.tsv").read_text().replace("\t0.5\n", f"\t{bad}\n", 1)
        assert f"\t{bad}\n" in text
        (out / "scores.tsv").write_text(text)
        assert run("propagate", "--engine", engine, "--graph", out / "graph.tsv",
                   "--node-scores", out / "scores.tsv", "--edge-scores", out / "edge_scores.tsv",
                   "--out-dir", out) == 2

    def test_score_edges_metric_and_value_conflict(self, scenario_dir):
        assert run("score-edges", "--graph", scenario_dir / "graph.tsv",
                   "--value", 0.9, "--metric", "jaccard",
                   "--out-dir", scenario_dir) == 1

    def test_components_and_modularity(self, scenario_dir, capsys):
        assert run("components", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv", "--sybil-only",
                   "--out-dir", scenario_dir) == 0
        report = (scenario_dir / "components.tsv").read_text().splitlines()
        assert len(report) >= 1
        assert run("modularity", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv",
                   "--out-dir", scenario_dir) == 0
        q = float(capsys.readouterr().out.strip().splitlines()[-1])
        assert -0.5 <= q <= 1.0

    def test_sweep_small(self, tmp_path, capsys):
        assert run("sweep", "--variable", "fpr_fnr", "--values", "0.0,0.3",
                   "--trials", 2, "--benign", 80, "--sybil", 40, "--avg-degree", 6,
                   "--attack-edges", 40, "--seed", 5, "--out-dir", tmp_path) == 0
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 6  # 2 points x (rw auc, lbp acc, lbp auc)

    def test_pipeline_end_to_end(self, scenario_dir, tmp_path):
        assert run("pipeline", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv",
                   "--train-benign", 15, "--train-sybil", 15,
                   "--seed", 6, "--out-dir", tmp_path / "run") == 0
        assert (tmp_path / "run" / "ranking.tsv").exists()
        assert (tmp_path / "run" / "metrics.tsv").exists()

    def test_pipeline_baseline_parameters(self, scenario_dir, tmp_path):
        assert run("pipeline", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv",
                   "--train-benign", 15, "--train-sybil", 15, "--baselines",
                   "--restart", 0.5, "--homophily", 0.8, "--beta", 1.5,
                   "--seed", 6, "--out-dir", tmp_path / "run") == 0
        assert (tmp_path / "run" / "final_scores_cia.tsv").exists()
        assert (tmp_path / "run" / "final_scores_sybilbelief.tsv").exists()


class TestIdempotence:
    def test_pipeline_thread_count_invariance(self, scenario_dir, tmp_path):
        for threads, name in ((1, "t1"), (8, "t8")):
            assert run("pipeline", "--graph", scenario_dir / "graph.tsv",
                       "--labels", scenario_dir / "labels.tsv",
                       "--train-benign", 15, "--train-sybil", 15, "--baselines",
                       "--seed", 6, "--threads", threads,
                       "--out-dir", tmp_path / name) == 0
        files = sorted(p.name for p in (tmp_path / "t1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "t8").iterdir())
        for name in files:
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t8" / name).read_bytes()
