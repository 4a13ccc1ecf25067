"""Golden sha256 digests of every file the pipeline and the file-writing
subcommands write on one small seeded scenario.

The digests were recorded before the row writer formatted column by column,
so a changed digest means a changed output byte. The Adamic-Adar and cosine
edge scores were recorded while the triangle pass still read the CSR
adjacency; they pin the order of its weighted sums. Inputs that are not command
outputs (the directed and sparse-id variants of the generated graph) are
derived here from the generated text, so they do not go through the writer.
"""

import hashlib

import numpy as np
import pytest

from trustprop import graph
from trustprop.cli import dispatch

TRAINING = ["--train-benign", "15", "--train-sybil", "15", "--seed", "6"]


def _sparse(node: str) -> str:
    """A bijection of ids 0..180 onto shuffled ids far above 2^52."""
    return str((int(node) * 7919 % 181) << 52 | 3)


def _derive_inputs(gen, inputs) -> None:
    """A directed arc list (every fifth edge one-way) and the scenario under sparse ids."""
    edges = [line.split("\t") for line in (gen / "graph.tsv").read_text().splitlines()]
    arcs = []
    for i, (u, v) in enumerate(edges):
        arcs.append(f"{u}\t{v}\n")
        if i % 5:
            arcs.append(f"{v}\t{u}\n")
    (inputs / "arcs.tsv").write_text("".join(arcs))
    for name in ("graph.tsv", "labels.tsv", "node_scores.tsv"):
        rows = [line.split("\t") for line in (gen / name).read_text().splitlines()]
        if name == "graph.tsv":
            rows = [[_sparse(u), _sparse(v)] for u, v in rows]
        else:
            rows = [[_sparse(node), value] for node, value in rows]
        (inputs / f"sparse_{name}").write_text("".join("\t".join(r) + "\n" for r in rows))


def _commands(root) -> list[list]:
    gen, inp, st = root / "generate", root / "inputs", root / "stages"
    return [
        ["pipeline", "--graph", inp / "arcs.tsv", "--labels", gen / "labels.tsv", "--directed",
         "--baselines", "--edge-metric", "jaccard", *TRAINING, "--out-dir", root / "pipeline_directed"],
        ["pipeline", "--graph", inp / "sparse_graph.tsv", "--labels", inp / "sparse_labels.tsv",
         "--remap-ids", "--baselines", "--victim-probs", inp / "sparse_node_scores.tsv",
         *TRAINING, "--out-dir", root / "pipeline_remap"],
        ["mutualize", "--input", inp / "arcs.tsv", "--out-dir", st],
        ["features", "--graph", inp / "arcs.tsv", "--out-dir", st],
        ["train", "--features", st / "features.tsv", "--labels", gen / "labels.tsv", *TRAINING,
         "--out-dir", st],
        ["score-edges", "--graph", gen / "graph.tsv", "--metric", "jaccard", "--out-dir", st],
        ["score-edges", "--graph", gen / "graph.tsv", "--metric", "adamic-adar",
         "--out-dir", root / "score_edges_adamic_adar"],
        ["score-edges", "--graph", gen / "graph.tsv", "--metric", "cosine",
         "--out-dir", root / "score_edges_cosine"],
        ["propagate", "--graph", gen / "graph.tsv", "--node-scores", gen / "node_scores.tsv",
         "--edge-scores", st / "edge_scores.tsv", "--seeds", st / "train_seeds.tsv",
         "--out-dir", st],
        ["rank", "--scores", st / "final_scores.tsv", "--labels", gen / "labels.tsv",
         "--graph", gen / "graph.tsv", "--exclude", st / "train_seeds.tsv", "--out-dir", st],
        ["evaluate", "--scores", st / "final_scores.tsv", "--labels", gen / "labels.tsv",
         "--top-k", "20,60", "--out-dir", st],
        ["components", "--graph", gen / "graph.tsv", "--out-dir", root / "components_all"],
        ["components", "--graph", gen / "graph.tsv", "--labels", gen / "labels.tsv",
         "--sybil-only", "--out-dir", root / "components_sybil"],
        ["sweep", "--variable", "fpr_fnr", "--values", "0.0,0.3", "--trials", "2",
         "--benign", "80", "--sybil", "40", "--avg-degree", "6", "--attack-edges", "40",
         "--seed", "5", "--out-dir", root / "sweep"],
    ]


def output_digests(root) -> dict[str, str]:
    """Run the scenario under `root`; sha256 of every output file by its relative path."""
    gen, inputs = root / "generate", root / "inputs"
    inputs.mkdir(parents=True)
    assert dispatch(["generate", "--benign", "120", "--sybil", "60", "--avg-degree", "8",
                     "--attack-edges", "90", "--fpr", "0.2", "--fnr", "0.3", "--seed", "42",
                     "--out-dir", str(gen)]) == 0
    _derive_inputs(gen, inputs)
    for argv in _commands(root):
        assert dispatch([str(a) for a in argv]) == 0, argv
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file() and inputs not in path.parents}


GOLDEN = {
    "components_all/components.tsv": "4cdcce7a7a94d5cba8cf0dd520131d1fc11c660e08b037ff71148e4406ab24f9",
    "components_sybil/components.tsv": "708a18aab6c5a0c1a3d5d2964c1645568a9884a825b96070699806f5701252e9",
    "generate/graph.tsv": "9e1911e7c14c26f47271fde22255638d4fe0c33a0d37281dcf09bb6ee1901269",
    "generate/labels.tsv": "ce93b19bd7a21bf0d017c66e3136cf0fa653a3b1c160069e50b6afe1e2b2b25f",
    "generate/node_scores.tsv": "11395e060962793789875b33b0c5b9ba938c282bef3a4b3a709b7e9f0927033a",
    "pipeline_directed/edge_scores.tsv": "e025413db292ef63fd26a6c73d1b26a247a9f7503cad2572c17e010f34111b6d",
    "pipeline_directed/features.tsv": "44e342f1a27f764877b12964f236c0fe66a51061ad0bd2f835b2b02dcb552289",
    "pipeline_directed/final_scores_cia.tsv": "c3f6edadd332962f934e0c391d774a466ec9dfe71c552325a6c547906067603b",
    "pipeline_directed/final_scores_sf_lbp.tsv": "7b5b63a739e8aa5db838cc3f2813d6484949a95eaa2702a8252c9be8ad9ca966",
    "pipeline_directed/final_scores_sybilbelief.tsv": "ac04e2beb059a2126c5455b1d8fad6569943497d8126b842a06f006d9d4a0254",
    "pipeline_directed/final_scores_sybilrank.tsv": "975e160484957848af284e50878fe46ec5c5b9e629bf3153e21102dd1f4129c6",
    "pipeline_directed/local_scores.tsv": "a004bd6870e0bb7d9d46d49bcd9e664b213c32df65816b412b6663afdedefbac",
    "pipeline_directed/metrics.tsv": "f37b3182e5d212fa85884892f63240ee11c321456a7c1cb0ae194a432be843ad",
    "pipeline_directed/model.txt": "3af37b3d8c126c03d26ed9006e23acb020faa45732980e3c5fb06f3a1a69cba8",
    "pipeline_directed/mutual_graph.tsv": "102b87e0bf46970f4ee195e295eaafb8ce62583bf441d8ddfbfdea7f6514cdc1",
    "pipeline_directed/ranking.tsv": "8c0cb72d2a8e816362f822058dea01acff62ac84e33ea671c63535b011fecf09",
    "pipeline_directed/train_seeds.tsv": "c5f3a6f56b3fe5729d53caf8f43a9918fbeaf69bf68cf7b64911e37147bac6ba",
    "pipeline_remap/edge_scores.tsv": "f9caba85aeb28dd0a161293c63ab5bdd4c95f65f0bd256e539431d40f617db25",
    "pipeline_remap/features.tsv": "351786f15293b9e0c1154379fa9b122b6625a2e4d3092fef41be9338b93d6747",
    "pipeline_remap/final_scores_cia.tsv": "8df82b3e48029755b1c18186a37f1ea8ed058b569ed41e8bea3b815740e55259",
    "pipeline_remap/final_scores_integro.tsv": "0f264d28b712a2f2c376c936d0e5944075c53120fbb69e81f47c987404ce0fbe",
    "pipeline_remap/final_scores_sf_lbp.tsv": "409b004d9e4d75832d27fa2bb9cecf000266052e5a6a64581ecbc413f9bae716",
    "pipeline_remap/final_scores_sybilbelief.tsv": "c6359b7dd70ef461d5e4653ab3f7c9ffb7566ec700c96f7c4f563d1f9b308d00",
    "pipeline_remap/final_scores_sybilrank.tsv": "a2c661d78fbc011e72995aced4d23b8b5f2c2bb686886f79f7a346cc3a960cb8",
    "pipeline_remap/id_map.tsv": "aba1bfb35097f705aa1d3c5c596f7241a2548b744b49005a737e99e290c17d7d",
    "pipeline_remap/local_scores.tsv": "c76cd604ff57fcaa8ce4d09f2f32df05f1e8e432ae68fa1648d896aa952edcc9",
    "pipeline_remap/metrics.tsv": "e2e48fe617f544f44e98a4c9fa0b12425be72c97359d3b66176d45228a23f722",
    "pipeline_remap/model.txt": "974ce93cba3359f516f4b3f518c84ca7c878a2ae908abb0a00e7b47a54508571",
    "pipeline_remap/ranking.tsv": "4fbb05ffd5061570b9827937bd9e5b7436e342e10de790fa2772ccc9ec12c2dd",
    "pipeline_remap/train_seeds.tsv": "2c1adc9320abb4c3150756869a1f83124e4a2b898ed12fabc5c454de4fd1538b",
    "score_edges_adamic_adar/edge_scores.tsv": "9a06bbf38df7815a124682b2cc9a8729684bad3343d1df94e8f1ef40e6652316",
    "score_edges_cosine/edge_scores.tsv": "0b4e34409a8dd9bce9e606c8a427231ec111a1cbac3da2a3b7b0ead5441ef1c9",
    "stages/edge_scores.tsv": "692adb91c5a9dd4a53ab1171b27dd7fb7bd8c1c9c66689ed9996d0141ee6b5d2",
    "stages/features.tsv": "44e342f1a27f764877b12964f236c0fe66a51061ad0bd2f835b2b02dcb552289",
    "stages/final_scores.tsv": "d37c7036e02d272dae97e9de8ebfdb3aee256f45f1eba69c510413b72e6de855",
    "stages/local_scores.tsv": "a004bd6870e0bb7d9d46d49bcd9e664b213c32df65816b412b6663afdedefbac",
    "stages/metrics.tsv": "54a97c135837f469edb5336ea1c2cae4567f011b1152a698450036631f281995",
    "stages/model.txt": "3af37b3d8c126c03d26ed9006e23acb020faa45732980e3c5fb06f3a1a69cba8",
    "stages/mutual_graph.tsv": "102b87e0bf46970f4ee195e295eaafb8ce62583bf441d8ddfbfdea7f6514cdc1",
    "stages/ranking.tsv": "ec6a241d4fe7daaba27d4e618f7a3ee1289bf169754347c48aeadee4544b7092",
    "stages/threshold.txt": "8d5c1b5a87c51f970807fc0c2057b3ab3aaf11638ab667dc5956edc8f5bcf138",
    "stages/train_seeds.tsv": "c5f3a6f56b3fe5729d53caf8f43a9918fbeaf69bf68cf7b64911e37147bac6ba",
    "sweep/sweep.tsv": "b56d90e43ef7c0897a7597479411f3a89ab1fa70040eb9332671678bbeaad5ca",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("digests"))


def test_same_output_files(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests.get(name) == GOLDEN[name]


def test_int64_storage_writes_the_same_bytes(tmp_path, monkeypatch):
    """Graphs past 2**31 nodes or positions store int64 ids; every file reads the same."""
    monkeypatch.setattr(graph, "index_dtype", lambda n, m: np.int64)
    assert graph.Graph.from_edges(2, [0], [1]).edge_u.dtype == np.int64
    assert output_digests(tmp_path) == GOLDEN
