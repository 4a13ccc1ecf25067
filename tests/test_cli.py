import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import tsvio
from trustprop.cli import VERSION_LINE, dispatch
from trustprop.tsvio import load_edge_list


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
        labels = tsvio.read_by_node([(scenario_dir / "labels.tsv", "label")], g.node_count)[0]
        assert g.node_count == 180
        cross = np.count_nonzero(labels[g.edge_u] != labels[g.edge_v])
        assert cross == 90

    def test_optional_scores(self, tmp_path):
        assert run("generate", "--benign", 50, "--sybil", 25, "--attack-edges", 30,
                   "--fpr", 0.2, "--fnr", 0.2, "--seed", 1, "--out-dir", tmp_path) == 0
        g = load_edge_list(tmp_path / "graph.tsv")
        scores = tsvio.read_by_node([(tmp_path / "node_scores.tsv", "score")], g.node_count)[0]
        assert np.all((scores >= 0.1) & (scores <= 0.9))

    def test_determinism(self, tmp_path):
        run("generate", "--benign", 40, "--sybil", 20, "--attack-edges", 10,
            "--seed", 9, "--out-dir", tmp_path / "a")
        run("generate", "--benign", 40, "--sybil", 20, "--attack-edges", 10,
            "--seed", 9, "--out-dir", tmp_path / "b")
        assert (tmp_path / "a" / "graph.tsv").read_bytes() == (tmp_path / "b" / "graph.tsv").read_bytes()

    def test_capacity_error_is_usage_error_before_any_write(self, tmp_path, capsys):
        assert run("generate", "--benign", 10, "--sybil", 8, "--attack-edges", 100,
                   "--out-dir", tmp_path / "out") == 1
        assert "attack_edge_count exceeds number of distinct cross pairs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, bad, message", [
        ("--benign", "0", "region sizes must be positive"),
        ("--benign", "3", "each region needs more than edges_per_node = 5 nodes"),
        ("--sybil", "5", "each region needs more than edges_per_node = 5 nodes"),
        ("--avg-degree", "0", "avg_degree must be positive"),
        ("--attack-edges", "-1", "attack_edge_count must be non-negative"),
    ])
    def test_sizes_the_generator_cannot_grow_are_usage_errors_before_any_write(self, tmp_path, capsys,
                                                                               flag, bad, message):
        assert run("generate", flag, bad, "--out-dir", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        (tmp_path / "run.cfg").write_text(f"{flag[2:]} = {bad}\n")
        assert run("generate", "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    def test_missing_required_flag(self, tmp_path, capsys):
        assert run("propagate", "--engine", "lbp") == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1

    def test_evaluate_takes_no_graph(self, scenario_dir, capsys):
        # Component classes reach only ranking.tsv, so only `rank` loads a graph.
        assert run("evaluate", "--scores", scenario_dir / "labels.tsv",
                   "--labels", scenario_dir / "labels.tsv", "--graph", scenario_dir / "graph.tsv",
                   "--out-dir", scenario_dir) == 1
        assert "unrecognized arguments: --graph" in capsys.readouterr().err
        assert not (scenario_dir / "metrics.tsv").exists()

    @pytest.mark.parametrize("command, flag", [
        (["rank", "--scores", "labels.tsv", "--labels", "labels.tsv"], ["--seed", 1]),
        (["components", "--graph", "graph.tsv"], ["--threads", 2]),
        (["rank", "--scores", "labels.tsv", "--labels", "labels.tsv"], ["--threshold", 0.3]),
    ])
    def test_unread_flags_rejected(self, scenario_dir, tmp_path, capsys, command, flag):
        # only generate, train, sweep and pipeline take --seed; only sweep and pipeline
        # --threads; only evaluate and pipeline --threshold
        argv = [scenario_dir / a if a.endswith(".tsv") else a for a in command]
        assert run(*argv, *flag, "--out-dir", tmp_path / "out") == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variable", ["attack_edges", "sybil_count"])
    def test_sweep_rejects_fractional_counts(self, tmp_path, capsys, variable):
        assert run("sweep", "--variable", variable, "--values", "10,10.7", "--trials", 1,
                   "--out-dir", tmp_path) == 1
        assert "10.7" in capsys.readouterr().err
        assert not (tmp_path / "sweep.tsv").exists()

    def test_version(self, capsys):
        assert run("--version") == 0
        assert VERSION_LINE in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("components", "--graph", tmp_path / "nope.tsv", "--out-dir", tmp_path) == 2

    def test_sybil_only_without_labels_is_usage_error_before_any_read(self, tmp_path, capsys):
        assert run("components", "--graph", tmp_path / "nope.tsv", "--sybil-only",
                   "--out-dir", tmp_path) == 1
        assert "--sybil-only requires --labels" in capsys.readouterr().err

    def test_labels_without_sybil_only_is_usage_error_before_any_read(self, tmp_path, capsys):
        assert run("components", "--graph", tmp_path / "nope.tsv", "--labels", tmp_path / "nope.tsv",
                   "--out-dir", tmp_path / "out") == 1
        assert "--labels is read only with --sybil-only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_victim_probs_without_baselines_is_usage_error_before_any_read(self, scenario_dir,
                                                                          tmp_path, capsys):
        assert run("pipeline", "--graph", scenario_dir / "graph.tsv", "--labels", scenario_dir / "labels.tsv",
                   "--victim-probs", tmp_path / "nonexistent.tsv", "--out-dir", tmp_path / "out") == 1
        assert "--victim-probs is read only with --baselines" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv", "--top-k", "-3"],
        ["pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv", "--iterations", "0"],
        ["propagate", "--graph", "graph.tsv", "--node-scores", "labels.tsv",
         "--edge-scores", "labels.tsv", "--iterations", "-1"],
        ["evaluate", "--scores", "labels.tsv", "--labels", "labels.tsv", "--top-k", "0,5"],
        ["pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv", "--threads", "0"],
        ["pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv", "--threads", "-3"],
        ["sweep", "--trials", "0"],
        ["sweep", "--threads", "0"],
    ])
    def test_counts_below_one_are_usage_errors_before_any_write(self, scenario_dir, tmp_path,
                                                                 capsys, argv):
        argv = [scenario_dir / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "out") == 1
        assert "expected a count of at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_count_below_one_in_config_file_is_usage_error(self, scenario_dir, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("iterations = 0\n")
        assert run("pipeline", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv", "--config", tmp_path / "run.cfg",
                   "--out-dir", tmp_path / "out") == 1
        assert "run.cfg:1: bad value for 'iterations'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    PIPELINE = ["pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv"]
    TRAIN = ["train", "--features", "labels.tsv", "--labels", "labels.tsv"]

    @pytest.mark.parametrize("argv, flag, bad, expected", [
        (PIPELINE, "--edge-value", "1.5", "[0.1, 0.9]"),
        (PIPELINE, "--edge-value", "0.05", "[0.1, 0.9]"),
        ([*PIPELINE, "--baselines"], "--restart", "0", "(0, 1]"),
        ([*PIPELINE, "--baselines"], "--homophily", "1.5", "(0, 1)"),
        ([*PIPELINE, "--baselines"], "--beta", "0", "a finite positive number"),
        ([*PIPELINE, "--baselines"], "--beta", "nan", "a finite positive number"),
        (PIPELINE, "--threshold", "1.5", "(0, 1)"),
        (PIPELINE, "--train-benign", "0", "a count of at least 1"),
        (PIPELINE, "--train-sybil", "-2", "a count of at least 1"),
        (["evaluate", "--scores", "labels.tsv", "--labels", "labels.tsv"], "--threshold", "1", "(0, 1)"),
        (["score-edges", "--graph", "graph.tsv"], "--value", "0.95", "[0.1, 0.9]"),
        (["generate"], "--fpr", "1.5", "[0, 1]"),
        (["generate"], "--fnr", "-0.1", "[0, 1]"),
        (["sweep"], "--noise", "1.5", "[0, 1]"),
        (TRAIN, "--train-benign", "0", "a count of at least 1"),
        (TRAIN, "--epochs", "-1", "a count of at least 0"),
        (TRAIN, "--folds", "1", "a count of at least 2"),
        (TRAIN, "--learning-rate", "0", "a finite positive number"),
        (TRAIN, "--learning-rate", "nan", "a finite positive number"),
        (TRAIN, "--learning-rate", "inf", "a finite positive number"),
        (TRAIN, "--l2", "-5", "a finite non-negative number"),
        (TRAIN, "--l2", "nan", "a finite non-negative number"),
        (TRAIN, "--l2", "inf", "a finite non-negative number"),
        ([*PIPELINE, "--baselines"], "--beta", "inf", "a finite positive number"),
    ])
    def test_value_out_of_range_is_usage_error_before_any_write(self, scenario_dir, tmp_path, capsys,
                                                               argv, flag, bad, expected):
        argv = [scenario_dir / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, flag, bad, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err and f"{expected}, got '{bad}'" in err
        assert not (tmp_path / "out").exists()
        (tmp_path / "run.cfg").write_text(f"{flag[2:]} = {bad}\n")
        assert run(*argv, "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "out") == 1
        assert f"run.cfg:1: bad value for '{flag[2:].replace('-', '_')}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--engines", "bogus"], "unknown engine 'bogus'"),
        (["--values", "1.5"], "fpr and fnr must lie in [0, 1]"),
        (["--variable", "sybil_count", "--values", "0"], "region sizes must be positive"),
        (["--variable", "sybil_count", "--values", "3"], "each region needs more than edges_per_node = 5 nodes"),
        (["--variable", "attack_edges", "--values", "10.7"], "attack_edges takes whole numbers, got 10.7"),
    ])
    def test_sweep_values_the_library_rejects_are_usage_errors_before_any_write(self, tmp_path, capsys,
                                                                               flags, message):
        assert run("sweep", *flags, "--trials", 1, "--out-dir", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        (tmp_path / "run.cfg").write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
        assert run("sweep", "--trials", 1, "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--scores", "labels.tsv", "--labels", "labels.tsv"], "--top-k"),
        (PIPELINE, "--top-k"),
        (["sweep"], "--values"),
        (["sweep"], "--engines"),
    ])
    def test_empty_list_is_usage_error_before_any_write(self, scenario_dir, tmp_path, capsys, argv, flag):
        argv = [scenario_dir / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, flag, ",", "--out-dir", tmp_path / "out") == 1
        assert f"argument {flag}: expected at least one value, got ','" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        (tmp_path / "run.cfg").write_text(f"{flag[2:]} = ,\n")
        assert run(*argv, "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "out") == 1
        assert f"run.cfg:1: bad value for '{flag[2:].replace('-', '_')}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag, repeated", [
        (["evaluate", "--scores", "labels.tsv", "--labels", "labels.tsv"], "--top-k", "5,5"),
        (PIPELINE, "--top-k", "100,200,100"),
        (["sweep"], "--values", "0.1,0.10"),
        (["sweep"], "--engines", "lbp,lbp"),
    ])
    def test_repeated_list_value_is_usage_error_before_any_write(self, scenario_dir, tmp_path, capsys,
                                                               argv, flag, repeated):
        argv = [scenario_dir / a if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, flag, repeated, "--out-dir", tmp_path / "out") == 1
        assert f"argument {flag}: expected distinct values, got '{repeated}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        (tmp_path / "run.cfg").write_text(f"{flag[2:]} = {repeated}\n")
        assert run(*argv, "--config", tmp_path / "run.cfg", "--out-dir", tmp_path / "out") == 1
        assert f"run.cfg:1: bad value for '{flag[2:].replace('-', '_')}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_training_sample_above_the_labeled_count_is_data_error(self, scenario_dir, tmp_path):
        assert run(*[scenario_dir / a if a.endswith(".tsv") else a for a in self.PIPELINE],
                   "--train-benign", 10_000, "--out-dir", tmp_path / "out") == 2


class TestBadInputFiles:
    """Malformed data files exit 2 with a message naming the file and line."""

    def test_id_beyond_int64_in_edge_list(self, tmp_path, capsys):
        (tmp_path / "g.tsv").write_text("0\t1\n1180591620717411303424\t1\n")
        assert run("mutualize", "--input", tmp_path / "g.tsv", "--out-dir", tmp_path) == 2
        assert "g.tsv:2:" in capsys.readouterr().err

    def test_undecodable_byte_names_line(self, tmp_path, capsys):
        (tmp_path / "g.tsv").write_bytes(b"0\t1\n1\t\xff\n")
        assert run("mutualize", "--input", tmp_path / "g.tsv", "--out-dir", tmp_path) == 2
        assert "g.tsv:2: not UTF-8 text" in capsys.readouterr().err

    def test_id_beyond_int64_in_labels(self, tmp_path, capsys):
        (tmp_path / "s.tsv").write_text("0\t0.2\n1\t0.8\n")
        (tmp_path / "l.tsv").write_text("0\t0\n1180591620717411303424\t1\n")
        assert run("evaluate", "--scores", tmp_path / "s.tsv", "--labels", tmp_path / "l.tsv",
                   "--out-dir", tmp_path) == 2
        assert "l.tsv:2:" in capsys.readouterr().err

    def test_repeated_label_row(self, tmp_path, capsys):
        (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
        (tmp_path / "l.tsv").write_text("0\t1\n1\t0\n2\t0\n0\t0\n")
        assert run("modularity", "--graph", tmp_path / "g.tsv", "--labels", tmp_path / "l.tsv",
                   "--out-dir", tmp_path) == 2
        assert "l.tsv:4: repeated node id" in capsys.readouterr().err

    def test_repeated_edge_score_row(self, tmp_path, capsys):
        (tmp_path / "g.tsv").write_text("0\t1\n")
        (tmp_path / "n.tsv").write_text("0\t0.6\n1\t0.4\n")
        (tmp_path / "e.tsv").write_text("0\t1\t0.9\n1\t0\t0.2\n")
        assert run("propagate", "--graph", tmp_path / "g.tsv", "--node-scores", tmp_path / "n.tsv",
                   "--edge-scores", tmp_path / "e.tsv", "--out-dir", tmp_path) == 2
        assert "e.tsv:2: repeated edge" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, edges, message", [
        ("0\t0.6\n1\t0.4\n2\t0\n", "0\t1\t0.9\n1\t2\t0.5\n",
         "n.tsv:3: score must lie strictly inside (0, 1), got '2\\t0'"),
        ("0\t0.6\n1\t0.4\n2\t0.5\n", "0\t1\t0.9\n# comment\n1\t2\t1.5\n",
         "e.tsv:3: edge score must lie strictly inside (0, 1), got '1\\t2\\t1.5'"),
    ], ids=["node", "edge"])
    def test_lbp_score_outside_unit_interval_names_row(self, tmp_path, capsys, nodes, edges, message):
        (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
        (tmp_path / "n.tsv").write_text(nodes)
        (tmp_path / "e.tsv").write_text(edges)
        argv = ["propagate", "--graph", tmp_path / "g.tsv", "--node-scores", tmp_path / "n.tsv",
                "--edge-scores", tmp_path / "e.tsv", "--out-dir", tmp_path]
        assert run(*argv, "--engine", "lbp") == 2
        assert message in capsys.readouterr().err
        assert run(*argv, "--engine", "random_walk") == 0  # the walk accepts these scores

    @pytest.mark.parametrize("engine", ["random_walk", "lbp"])
    @pytest.mark.parametrize("bad", ["-0.5", "nan", "inf"])
    @pytest.mark.parametrize("kind", ["node", "edge"])
    def test_negative_or_non_finite_score_names_row(self, tmp_path, capsys, kind, bad, engine):
        nodes, edges = ["0\t0.6", "# comment", "1\t0.4", "2\t0.5"], ["0\t1\t0.9", "# comment", "1\t2\t0.5"]
        rows = nodes if kind == "node" else edges
        rows[2] = rows[2].rsplit("\t", 1)[0] + "\t" + bad
        (tmp_path / "g.tsv").write_text("0\t1\n1\t2\n")
        (tmp_path / "n.tsv").write_text("\n".join(nodes) + "\n")
        (tmp_path / "e.tsv").write_text("\n".join(edges) + "\n")
        assert run("propagate", "--graph", tmp_path / "g.tsv", "--node-scores", tmp_path / "n.tsv",
                   "--edge-scores", tmp_path / "e.tsv", "--engine", engine, "--out-dir", tmp_path) == 2
        where = "n.tsv:3: score" if kind == "node" else "e.tsv:3: edge score"
        assert f"{where} must " in capsys.readouterr().err


class TestSparseIds:
    """Ids used as given that are far above the rows read exit 2 before any node array exists."""

    @pytest.mark.parametrize("sparse", ["500000000", "1000000000000000"])
    @pytest.mark.parametrize("argv, bad", [
        (("mutualize", "--input", "g.tsv"), "g.tsv"),
        (("features", "--graph", "g.tsv"), "g.tsv"),
        (("rank", "--scores", "s.tsv", "--labels", "l.tsv"), "l.tsv"),
        (("train", "--features", "f.tsv", "--labels", "l.tsv",
          "--train-benign", "1", "--train-sybil", "1", "--folds", "2"), "f.tsv"),
    ])
    def test_exit_2_at_the_row(self, tmp_path, capsys, argv, bad, sparse):
        files = {"g.tsv": "0\t1\n1\t0\n1\t2\n", "s.tsv": "0\t0.2\n1\t0.8\n2\t0.4\n",
                 "l.tsv": "0\t0\n1\t1\n2\t1\n", "f.tsv": "0\t0.1\n1\t0.9\n2\t0.5\n"}
        lines = files[bad].splitlines(keepends=True)
        lines[1] = lines[1].replace("1", sparse, 1)
        files[bad] = "".join(lines)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: node id {sparse} is far above" in err and "--remap-ids" in err


# Field values a mutation writes, ids far above a small file's row count among them.
TOKENS = ["", "#", "-1", "0", "1", "2", "7", "999", "0.5", "1.5", "-0.5", "1e3", "1_0",
          "nan", "inf", "-inf", "x", "500000000", "1000000000000000", "1180591620717411303424"]


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """Small valid inputs for every file-reading command."""
    base = tmp_path_factory.mktemp("mutation")
    assert run("generate", "--benign", 30, "--sybil", 15, "--avg-degree", 4, "--attack-edges", 10,
               "--fpr", 0.2, "--fnr", 0.2, "--seed", 1, "--out-dir", base) == 0
    assert run("features", "--graph", base / "graph.tsv", "--undirected", "--out-dir", base) == 0
    assert run("score-edges", "--graph", base / "graph.tsv", "--out-dir", base) == 0
    assert run("train", "--features", base / "features.tsv", "--labels", base / "labels.tsv",
               "--train-benign", 5, "--train-sybil", 5, "--out-dir", base) == 0
    return {p.name: p.read_text() for p in base.glob("*.tsv")}


COMMANDS = [
    ("mutualize", "--input", "graph.tsv"),
    ("features", "--graph", "graph.tsv"),
    ("features", "--undirected", "--graph", "graph.tsv"),
    ("train", "--features", "features.tsv", "--labels", "labels.tsv",
     "--train-benign", "5", "--train-sybil", "5"),
    ("score-edges", "--graph", "graph.tsv", "--metric", "jaccard"),
    ("propagate", "--graph", "graph.tsv", "--node-scores", "node_scores.tsv",
     "--edge-scores", "edge_scores.tsv", "--seeds", "train_seeds.tsv"),
    ("propagate", "--engine", "random_walk", "--graph", "graph.tsv",
     "--node-scores", "local_scores.tsv", "--edge-scores", "edge_scores.tsv"),
    ("rank", "--scores", "local_scores.tsv", "--labels", "labels.tsv", "--graph", "graph.tsv",
     "--exclude", "train_seeds.tsv"),
    ("evaluate", "--scores", "node_scores.tsv", "--labels", "labels.tsv", "--top-k", "5"),
    ("components", "--graph", "graph.tsv", "--labels", "labels.tsv", "--sybil-only"),
    ("modularity", "--graph", "graph.tsv", "--labels", "labels.tsv"),
    ("pipeline", "--graph", "graph.tsv", "--labels", "labels.tsv", "--train-benign", "5",
     "--train-sybil", "5", "--baselines", "--victim-probs", "node_scores.tsv"),
]


@st.composite
def mutations(draw, text):
    """`text` after one to three row edits: set, add or drop a field, or repeat or drop a line."""
    rows = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows)))
        if i == len(rows):
            rows.append([])
        row = rows[i]
        at = draw(st.integers(0, len(row)))
        kind = draw(st.sampled_from(["set", "add", "drop", "repeat", "remove"]))
        if kind == "set" and at < len(row):
            row[at] = draw(st.sampled_from(TOKENS))
        elif kind == "add":
            row.insert(at, draw(st.sampled_from(TOKENS)))
        elif kind == "drop" and at < len(row):
            del row[at]
        elif kind == "repeat":
            rows.insert(i, list(row))
        elif kind == "remove":
            del rows[i]
    return "".join("\t".join(row) + "\n" for row in rows)


def _write_inputs(tmp: Path, inputs: dict, argv) -> list:
    """Write the input files under tmp; argv with its file names made paths there."""
    for name, text in inputs.items():
        (tmp / name).write_text(text)
    return [str(tmp / a) if a.endswith(".tsv") else a for a in argv]


def _dispatch_quietly(argv) -> tuple[int, str]:
    """Exit code and stderr of a run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


class TestMutatedInputs:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_not_traceback(self, mutation_inputs, data):
        argv = list(data.draw(st.sampled_from(COMMANDS)))
        target = data.draw(st.sampled_from([a for a in argv if a.endswith(".tsv")]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            inputs = dict(mutation_inputs, **{target: data.draw(mutations(mutation_inputs[target]))})
            argv = _write_inputs(tmp, inputs, argv)
            code, err = _dispatch_quietly(argv + ["--out-dir", str(tmp / "out")])
            outputs = {p.name: p.read_text().split() for p in (tmp / "out").iterdir()} if code == 0 else {}
        assert code in (0, 1, 2)
        if code == 2:  # a data error names the input file at fault
            last = err.splitlines()[-1]
            assert any(a in last for a in argv if a.endswith(".tsv")), last
        for name, fields in outputs.items():  # a successful run writes no nan or infinity
            assert not {"nan", "inf", "-inf"} & set(fields), name


class TestNonFiniteRows:
    """A nan, infinite or out-of-range per-node value fails at its file:line
    before any output is written."""

    @pytest.mark.parametrize("command, bad, token", [
        ("train", "features.tsv", "nan"),
        ("pipeline", "node_scores.tsv", "nan"),  # --victim-probs
        ("pipeline", "node_scores.tsv", "inf"),
        ("pipeline", "node_scores.tsv", "1.5"),
        ("rank", "local_scores.tsv", "inf"),
        ("evaluate", "node_scores.tsv", "nan"),
    ])
    def test_exit_2_at_the_row(self, mutation_inputs, tmp_path, command, bad, token):
        argv = next(c for c in COMMANDS if c[0] == command)
        lines = mutation_inputs[bad].splitlines()
        lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t" + token
        argv = _write_inputs(tmp_path, dict(mutation_inputs, **{bad: "\n".join(lines) + "\n"}), argv)
        code, err = _dispatch_quietly(argv + ["--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{tmp_path / bad}:{len(lines)}: " in err.splitlines()[-1]
        assert list((tmp_path / "out").iterdir()) == []

    def test_modularity_names_the_label_file(self, mutation_inputs, tmp_path):
        labels = "".join(mutation_inputs["labels.tsv"].splitlines(keepends=True)[:-2])
        argv = next(c for c in COMMANDS if c[0] == "modularity")
        argv = _write_inputs(tmp_path, dict(mutation_inputs, **{"labels.tsv": labels}), argv)
        code, err = _dispatch_quietly(argv + ["--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{tmp_path / 'labels.tsv'}: 2 graph node(s) unlabeled" in err


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

    @pytest.mark.parametrize("command, key", [("pipeline", "engine"), ("sweep", "variable")])
    def test_value_outside_choices_rejected(self, scenario_dir, tmp_path, capsys, command, key):
        # checked while parsing, like the same value given as a flag: nothing is written
        cfg = tmp_path / "conf"
        cfg.write_text(f"{key} = bogus\n")
        out = tmp_path / "out"
        out.mkdir()
        flags = (["--graph", scenario_dir / "graph.tsv", "--labels", scenario_dir / "labels.tsv",
                  "--train-benign", 15, "--train-sybil", 15] if command == "pipeline" else [])
        assert run(command, *flags, "--config", cfg, "--out-dir", out) == 1
        assert f"{cfg}:1: invalid choice 'bogus'" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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
        final = tsvio.read_by_node([(out / "final_scores.tsv", "score")], g.node_count)[0]
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

    def test_propagate_rejects_a_node_left_out_of_the_score_file(self, scenario_dir, capsys):
        out = scenario_dir
        assert run("score-edges", "--graph", out / "graph.tsv", "--out-dir", out) == 0
        g = load_edge_list(out / "graph.tsv")
        tsvio.write_node_scores(out / "scores.tsv", np.full(g.node_count, 0.5))
        lines = (out / "scores.tsv").read_text().splitlines(keepends=True)
        (out / "scores.tsv").write_text("".join(lines[:7] + lines[8:]))
        assert run("propagate", "--graph", out / "graph.tsv", "--node-scores", out / "scores.tsv",
                   "--edge-scores", out / "edge_scores.tsv", "--out-dir", out / "prop") == 2
        assert f"{out / 'scores.tsv'}: missing score for some nodes" in capsys.readouterr().err
        assert not (out / "prop" / "final_scores.tsv").exists()

    def test_similarity_scores_of_a_graph_of_self_loops_only(self, tmp_path):
        (tmp_path / "loops.tsv").write_text("0\t0\n2\t2\n")
        assert run("score-edges", "--graph", tmp_path / "loops.tsv", "--metric", "jaccard",
                   "--out-dir", tmp_path) == 0
        assert (tmp_path / "edge_scores.tsv").read_bytes() == b""

    def test_score_edges_metric_and_value_conflict(self, scenario_dir):
        assert run("score-edges", "--graph", scenario_dir / "graph.tsv",
                   "--value", 0.9, "--metric", "jaccard",
                   "--out-dir", scenario_dir / "new" / "out") == 1
        assert not (scenario_dir / "new").exists()
        (scenario_dir / "empty").mkdir()  # an empty directory the run did not make stays
        assert run("score-edges", "--graph", scenario_dir / "nope.tsv",
                   "--value", 0.9, "--metric", "jaccard", "--out-dir", scenario_dir / "empty") == 1
        assert (scenario_dir / "empty").is_dir()
        assert not list((scenario_dir / "empty").iterdir())

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

    def test_sybil_only_components_searched_once(self, scenario_dir, monkeypatch):
        from trustprop import cli
        calls = []
        search = cli.component_labels

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "component_labels", counted)
        assert run("components", "--graph", scenario_dir / "graph.tsv",
                   "--labels", scenario_dir / "labels.tsv", "--sybil-only",
                   "--out-dir", scenario_dir) == 0
        assert len(calls) == 1

    def test_sweep_small(self, tmp_path, capsys):
        assert run("sweep", "--variable", "fpr_fnr", "--values", "0.0,0.3",
                   "--trials", 2, "--benign", 80, "--sybil", 40, "--avg-degree", 6,
                   "--attack-edges", 40, "--seed", 5, "--out-dir", tmp_path) == 0
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 6  # 2 points x (rw auc, lbp acc, lbp auc)

    def test_sweep_prints_counts_as_whole_numbers(self, tmp_path):
        assert run("sweep", "--variable", "sybil_count", "--values", "20,40.0", "--trials", 1,
                   "--benign", 60, "--sybil", 30, "--avg-degree", 4, "--attack-edges", 20,
                   "--out-dir", tmp_path) == 0
        lines = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["20"] * 3 + ["40"] * 3

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


class TestPipelineMatchesStages:
    """`pipeline` writes the same files as the stage commands chained by hand."""

    @pytest.mark.parametrize("metric", [None, "jaccard"])
    def test_same_bytes(self, scenario_dir, tmp_path, metric):
        graph, labels = scenario_dir / "graph.tsv", scenario_dir / "labels.tsv"
        pipe, out = tmp_path / "pipeline", tmp_path / "stages"
        sample = ["--train-benign", 15, "--train-sybil", 15, "--seed", 42]
        assert run("pipeline", "--graph", graph, "--labels", labels, *sample,
                   *(["--edge-metric", metric] if metric else []), "--out-dir", pipe) == 0
        assert run("features", "--graph", graph, "--undirected", "--out-dir", out) == 0
        assert run("train", "--features", out / "features.tsv", "--labels", labels, *sample,
                   "--out-dir", out) == 0
        assert run("score-edges", "--graph", graph, *(["--metric", metric] if metric else []),
                   "--out-dir", out) == 0
        assert run("propagate", "--graph", graph, "--node-scores", out / "local_scores.tsv",
                   "--edge-scores", out / "edge_scores.tsv", "--seeds", out / "train_seeds.tsv",
                   "--out-dir", out) == 0
        assert run("rank", "--scores", out / "final_scores.tsv", "--labels", labels,
                   "--graph", graph, "--exclude", out / "train_seeds.tsv", "--out-dir", out) == 0
        for name in ("features.tsv", "model.txt", "local_scores.tsv", "train_seeds.tsv",
                     "edge_scores.tsv", "ranking.tsv"):
            assert (pipe / name).read_bytes() == (out / name).read_bytes(), name
        assert (pipe / "final_scores_sf_lbp.tsv").read_bytes() == (out / "final_scores.tsv").read_bytes()


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
