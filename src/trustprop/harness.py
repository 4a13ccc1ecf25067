"""Robustness sweeps over synthetic scenarios and the end-to-end pipeline.

Sweeps vary exactly one factor (classifier error rate, attack edges, or Sybil
count) while the others stay at the basic setup, run several trials per grid
point with seeds derived from (base seed, point, trial), and report mean and
standard deviation of AUC (both engines) and accuracy (belief propagation
only, threshold 0.5). The pipeline chains loading, feature extraction, local
classification, edge scoring, propagation and metrics, persisting every
intermediate artifact; stage failures are re-raised tagged with the stage
name.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifier, features, metrics, propagate, synth, tsvio
from .graph import BENIGN, SYBIL, mutualize

SWEEP_VARIABLES = ("fpr_fnr", "attack_edges", "sybil_count")
SWEEP_MODES = ("node_scores", "edge_scores")


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed derived by hashing (base_seed, *parts)."""
    text = ":".join([str(base_seed)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class SweepSpec:
    """One swept factor over a value grid, everything else at the base setup."""

    base: synth.ScenarioConfig = field(default_factory=synth.ScenarioConfig)
    variable: str = "fpr_fnr"
    values: tuple = (0.0, 0.1, 0.2, 0.3, 0.4)
    trials: int = 10
    engines: tuple = tuple(propagate.ENGINES)
    mode: str = "node_scores"
    noise: float = 0.3           # fixed fpr=fnr while sweeping a structural factor
    threads: int = 1

    def validate(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not self.values:
            raise ValueError("empty value grid")
        if not self.engines:
            raise ValueError("no engine to run")
        if len(set(self.values)) < len(self.values) or len(set(self.engines)) < len(self.engines):
            raise ValueError("repeated value or engine in the sweep")
        for engine in self.engines:
            propagate.get_engine(engine)
        for value in self.values:
            if self.variable != "fpr_fnr" and not float(value).is_integer():
                raise ValueError(f"{self.variable} takes whole numbers, got {value!r}")
            self.scenario_for(value, rng_seed=0).validate()
            synth.NoiseConfig(*self.noise_for(value)).validate()

    def scenario_for(self, value, rng_seed: int) -> synth.ScenarioConfig:
        cfg = replace(self.base, rng_seed=rng_seed)
        if self.variable == "attack_edges":
            cfg = replace(cfg, attack_edge_count=int(value))
        elif self.variable == "sybil_count":
            cfg = replace(cfg, sybil_count=int(value))
        return cfg

    def noise_for(self, value) -> tuple[float, float]:
        rate = float(value) if self.variable == "fpr_fnr" else self.noise
        return rate, rate


def _run_trial(spec: SweepSpec, value, trial: int) -> dict[tuple[str, str], float]:
    trial_seed = derive_seed(spec.base.rng_seed, spec.variable, value, trial)
    scenario = spec.scenario_for(value, rng_seed=trial_seed)
    graph, labels = synth.compose_attack_scenario(scenario)
    fpr, fnr = spec.noise_for(value)
    noise = synth.NoiseConfig(fpr=fpr, fnr=fnr, rng_seed=derive_seed(trial_seed, "noise"))

    if spec.mode == "node_scores":
        node_scores = synth.simulate_trust_scores(labels, noise)
        edge_scores = classifier.edge_scores(graph)
        seeds = None
    else:
        node_scores = np.full(graph.node_count, 0.5)
        edge_scores = synth.simulate_edge_trust_scores(graph, labels, noise)
        rng = np.random.default_rng(derive_seed(trial_seed, "seeds"))
        seeds = classifier.TrainingSet(
            benign=np.array([int(rng.choice(np.flatnonzero(labels == BENIGN)))]),
            sybil=np.array([int(rng.choice(np.flatnonzero(labels == SYBIL)))]),
        )
    exclude = None if seeds is None else seeds.all_ids

    out: dict[tuple[str, str], float] = {}
    # Rank walk scores degree-normalized: the raw update concentrates trust on
    # hubs, which buries the score signal on heavy-tailed graphs. LBP ignores it.
    cfg = propagate.PropagationConfig(seeds=seeds, degree_normalize=True)
    for engine in spec.engines:
        final = propagate.get_engine(engine)[1](graph, node_scores, edge_scores, cfg)
        if engine == "lbp":
            out[("lbp", "accuracy")] = metrics.accuracy_at_threshold(final, labels, 0.5, exclude=exclude)
        out[(engine, "auc")] = metrics.auc(final, labels, exclude=exclude)
    return out


def run_robustness_sweep(spec: SweepSpec) -> list[tuple]:
    """Run the sweep; returns `(value, engine, metric, mean, std, trials)` rows.

    Trials execute independently on `spec.threads` worker threads; results are
    keyed by (point, trial) and aggregated in sorted order, so the table is a
    pure function of the spec.
    """
    spec.validate()
    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        futures = [[pool.submit(_run_trial, spec, value, trial) for trial in range(spec.trials)]
                   for value in spec.values]
    rows: list[tuple] = []
    for value, point in zip(spec.values, futures):
        trials = [fut.result() for fut in point]
        for engine, metric_name in trials[0]:  # in engine order, LBP's accuracy before its AUC
            arr = np.asarray([t[(engine, metric_name)] for t in trials])
            std = float(arr.std(ddof=1)) if arr.shape[0] > 1 else 0.0
            rows.append((value, engine, metric_name, float(arr.mean()), std, spec.trials))
    return rows


class StageError(RuntimeError):
    """A pipeline stage failed; the message is prefixed with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end detection run: training sizes, scoring and engine choices."""

    engine: str = "lbp"               # a propagate.ENGINES name
    train_benign: int = 50
    train_sybil: int = 50
    iterations: int | None = None
    pin_seeds: bool = False
    degree_normalize: bool = True     # rank walk scores per degree unit
    edge_score_value: float = 0.9
    edge_metric: str | None = None    # similarity metric instead of the constant
    threshold: float | None = None    # None: cross-validate on the training data
    top_k: tuple[int, ...] = (100, 200, 500)
    baselines: bool = False
    restart: float = 0.85
    homophily: float = 0.9
    integro_beta: float = 2.0
    remap_ids: bool = False           # densify sparse node ids; writes id_map.tsv
    seed: int = 0


@dataclass
class PipelineResult:
    report: metrics.RankingReport
    final_scores: dict[str, np.ndarray]
    threshold: float


def classifier_stage(feats: np.ndarray, labels: np.ndarray, out: Path, *, train_benign: int,
                     train_sybil: int, seed: int, threshold: float | None = None, folds: int = 5,
                     train_config: classifier.TrainConfig = classifier.TrainConfig()
                     ) -> tuple[classifier.TrainingSet, np.ndarray, float]:
    """Sample the seeds, fit the local classifier, score every node and write the
    model, the scores and the seeds under `out`. The threshold is cross-validated
    over `folds` unless one is given. Returns (training set, scores, threshold).
    """
    training = classifier.sample_training_set(
        labels, train_benign, train_sybil, derive_seed(seed, "train-sample"))
    model = classifier.train(feats, training, train_config)
    node_scores = classifier.predict_scores(model, feats)
    if threshold is None:
        threshold = classifier.select_threshold(node_scores, training, folds)
    classifier.save_model(out / "model.txt", model)
    tsvio.write_node_scores(out / "local_scores.tsv", node_scores)
    tsvio.write_labels(out / "train_seeds.tsv", training.label_map(labels.shape[0]))
    return training, node_scores, threshold


def run_detection_pipeline(graph_path, label_path, cfg: PipelineConfig = PipelineConfig(),
                           directed: bool = False, *, out_dir,
                           victim_prob_path=None) -> PipelineResult:
    """Full detection run on an edge-list dataset; persists every intermediate in `out_dir`.

    Stages: load -> mutualize (directed inputs) -> features -> classifier ->
    edge-scores -> propagate (chosen engine plus optional baselines) ->
    metrics. Any failure is re-raised as StageError tagged with the stage.
    The victim-probability file is read only with baselines; passing it
    without them is a ValueError, raised before `out_dir` is made.
    """
    if victim_prob_path is not None and not cfg.baselines:
        raise ValueError("a victim-probability file is read only with baselines")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with _stage("load"):
        loaded, ids = tsvio.load_graph(graph_path, directed, remap=cfg.remap_ids)
        labels, = tsvio.read_by_node([(label_path, "label")], ids)
        if victim_prob_path is not None:
            unit = (lambda x: (x >= 0) & (x <= 1), "must lie in [0, 1]")
            victim_prob, = tsvio.read_by_node([(victim_prob_path, "score")], ids, unit)
            victim_prob = np.nan_to_num(victim_prob, nan=0.0)  # for the nodes the file leaves out
        if cfg.remap_ids:
            tsvio.write_id_map(out / "id_map.tsv", ids)

    with _stage("mutualize"):
        dg, graph = (loaded, mutualize(loaded)) if directed else (None, loaded)
        if directed:
            tsvio.write_edge_list(out / "mutual_graph.tsv", graph)

    with _stage("features"):
        feats = features.feature_matrix(graph, dg)
        tsvio.write_features(out / "features.tsv", feats)

    with _stage("classifier"):
        training, node_scores, threshold = classifier_stage(
            feats, labels, out, train_benign=cfg.train_benign, train_sybil=cfg.train_sybil,
            seed=cfg.seed, threshold=cfg.threshold)

    with _stage("edge-scores"):
        edge_scores = classifier.edge_scores(graph, cfg.edge_metric, cfg.edge_score_value)
        tsvio.write_edge_scores(out / "edge_scores.tsv", graph, edge_scores)

    with _stage("propagate"):
        main_engine, engine = propagate.get_engine(cfg.engine)
        prop_cfg = propagate.PropagationConfig(
            iterations=cfg.iterations, seeds=training,
            pin_seeds=cfg.pin_seeds, degree_normalize=cfg.degree_normalize)
        final_scores = {main_engine: engine(graph, node_scores, edge_scores, prop_cfg)}
        if cfg.baselines:
            final_scores["sybilrank"] = propagate.baseline_sybilrank(graph, training.benign, cfg.iterations)
            final_scores["cia"] = -propagate.baseline_cia(graph, training.sybil, cfg.restart, cfg.iterations)
            final_scores["sybilbelief"] = propagate.baseline_sybilbelief(graph, training, cfg.homophily)
            if victim_prob_path is not None:
                final_scores["integro"] = propagate.baseline_integro(
                    graph, training.benign, victim_prob, cfg.integro_beta, cfg.iterations)
        for name, scores in final_scores.items():
            tsvio.write_node_scores(out / f"final_scores_{name}.tsv", scores)

    with _stage("metrics"):
        exclude = training.all_ids
        report = metrics.build_ranking_report(final_scores[main_engine], labels,
                                              threshold=threshold, exclude=exclude, graph=graph)
        aucs = {name: report.metrics["auc"] if name == main_engine
                else metrics.auc(s, labels, exclude=exclude) for name, s in final_scores.items()}
        rows: list[tuple] = [("threshold", "cv" if cfg.threshold is None else "fixed", threshold)]
        rows += [("auc", name, aucs[name]) for name in sorted(aucs)]
        rows.append(("accuracy", f"threshold={threshold!r}", report.metrics["accuracy"]))
        for k in cfg.top_k:
            if k <= report.node_ids.shape[0]:
                rows.append(("top_k_sybil_fraction", k, metrics.top_k_sybil_fraction(report, k)))
                for cls, count in metrics.decompose_top_k(report, k).items():
                    rows.append((f"top_k_{cls}", k, count))
        tsvio.write_metrics_report(out / "metrics.tsv", rows)
        metrics.write_ranking(out / "ranking.tsv", report)
        report.metrics.update({f"auc_{name}": value for name, value in aucs.items()})

    return PipelineResult(report=report, final_scores=final_scores, threshold=threshold)
