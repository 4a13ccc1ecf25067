"""Command-line interface binding all toolkit stages for batch use.

Every subcommand writes its outputs under --out-dir with fixed file names.
Exit codes: 0 success, 1 usage error, 2 data error. All randomness flows from
--seed; per-stage seeds are derived by stable hashing, so reruns with the
same inputs, seed and thread count are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, classifier, features, harness, metrics, propagate, synth, tsvio
from .graph import (SYBIL, UNKNOWN, EdgeListParseError, component_census, component_labels,
                    modularity, mutualize)
from .tsvio import load_edge_list

VERSION_LINE = (f"trustprop {__version__} "
                f"(model format {classifier.MODEL_FORMAT_VERSION}, tsv format {tsvio.FORMAT_VERSION})")


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(kind, inside, expected: str):
    """Argparse type for a `kind` value that passes `inside`; any other fails, naming `expected`."""
    def number(text: str):  # argparse names the type "number" when `kind` fails
        if not inside(value := kind(text)):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return number


# The library's own ranges, checked before a subcommand writes anything.
_count = _checked(int, lambda x: x >= 1, "a count of at least 1")
_rate = _checked(float, lambda x: 0 <= x <= 1, "a value in [0, 1]")
_open_unit = _checked(float, lambda x: 0 < x < 1, "a value in (0, 1)")
_edge_score = _checked(float, lambda x: 0.1 <= x <= 0.9, "a value in [0.1, 0.9]")


def _list_of(item):
    """Argparse type for a comma-separated list of at least one `item` value, none repeated."""
    def parse(text: str) -> list:
        if not (values := [item(p) for p in text.split(",") if p]):
            raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"expected distinct values, got {text!r}")
        return values
    return parse


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # Flag groups shared by several subcommands, as argparse parent parsers.
    common = _Parser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument("--config", default=None, help="key = value overrides file")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master RNG seed")
    threads = _Parser(add_help=False)
    threads.add_argument("--threads", type=_count, default=1, help="worker threads for sweep trials")
    scenario = _Parser(add_help=False)
    scenario.add_argument("--benign", type=int, default=1000)
    scenario.add_argument("--sybil", type=int, default=500)
    scenario.add_argument("--avg-degree", type=int, default=10)
    scenario.add_argument("--attack-edges", type=int, default=1000)
    training = _Parser(add_help=False)
    training.add_argument("--train-benign", type=_count, default=50)
    training.add_argument("--train-sybil", type=_count, default=50)
    engine = _Parser(add_help=False)
    engine.add_argument("--engine", choices=tuple(propagate.ENGINES), default="lbp")
    engine.add_argument("--iterations", type=_count, default=None)
    engine.add_argument("--pin-seeds", action="store_true")
    ranking = _Parser(add_help=False)
    ranking.add_argument("--scores", required=True)
    ranking.add_argument("--labels", required=True)
    ranking.add_argument("--exclude", default=None, help="label-format file of nodes to drop")
    top_k = _Parser(add_help=False)
    top_k.add_argument("--top-k", type=_list_of(_count), default=[100, 200, 500])

    parser = _Parser(prog="trustprop", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION_LINE)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, handler, help_text: str, *groups: _Parser) -> _Parser:
        p = subs.add_parser(name, parents=[common, *groups], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = sub("generate", _cmd_generate, "synthesize a benign/Sybil attack scenario", scenario, seeded)
    p.add_argument("--degree-biased-attacks", action="store_true")
    p.add_argument("--fpr", type=_rate, default=None, help="also emit simulated node scores")
    p.add_argument("--fnr", type=_rate, default=None)

    p = sub("mutualize", _cmd_mutualize, "directed edge list -> undirected mutual-edge graph")
    p.add_argument("--input", required=True)

    p = sub("features", _cmd_features, "extract per-node structural features")
    p.add_argument("--graph", required=True)
    p.add_argument("--undirected", action="store_true", help="treat the input as undirected")

    p = sub("train", _cmd_train, "fit the local classifier and emit node trust scores", training, seeded)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--learning-rate", type=_checked(float, lambda x: 0 < x < np.inf, "a finite positive number"),
                   default=0.1)
    p.add_argument("--l2", type=_checked(float, lambda x: 0 <= x < np.inf, "a finite non-negative number"),
                   default=1e-3)
    p.add_argument("--epochs", type=_checked(int, lambda x: x >= 0, "a count of at least 0"), default=500)
    p.add_argument("--folds", type=_checked(int, lambda x: x >= 2, "a count of at least 2"), default=5)

    p = sub("score-edges", _cmd_score_edges, "emit per-edge trust scores")
    p.add_argument("--graph", required=True)
    p.add_argument("--value", type=_edge_score, default=None, help="constant edge score (default 0.9)")
    p.add_argument("--metric", choices=classifier.SIMILARITY_METRICS, default=None)

    p = sub("propagate", _cmd_propagate, "run a propagation engine over score files", engine)
    p.add_argument("--graph", required=True)
    p.add_argument("--node-scores", required=True)
    p.add_argument("--edge-scores", required=True)
    p.add_argument("--seeds", default=None, help="label-format file of trusted seed nodes")
    p.add_argument("--degree-normalize", action="store_true",
                   help="divide final walk scores by degree")

    p = sub("rank", _cmd_rank, "write the ascending ranking file for final scores", ranking)
    p.add_argument("--graph", default=None, help="enables Sybil component classes")
    p = sub("evaluate", _cmd_evaluate, "compute AUC / accuracy / top-K metrics", ranking, top_k)
    p.add_argument("--threshold", type=_open_unit, default=0.5)

    p = sub("sweep", _cmd_sweep, "robustness sweep over synthetic scenarios", scenario, seeded, threads)
    p.add_argument("--variable", choices=harness.SWEEP_VARIABLES, default="fpr_fnr")
    p.add_argument("--values", type=_list_of(float), default=[0.0, 0.1, 0.2, 0.3, 0.4])
    p.add_argument("--trials", type=_count, default=10)
    p.add_argument("--mode", choices=harness.SWEEP_MODES, default="node_scores")
    p.add_argument("--engines", type=_list_of(str), default=list(propagate.ENGINES))
    p.add_argument("--noise", type=_rate, default=0.3)

    p = sub("pipeline", _cmd_pipeline, "end-to-end detection on an edge-list dataset",
            training, engine, top_k, seeded, threads)
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--edge-value", type=_edge_score, default=0.9)
    p.add_argument("--edge-metric", choices=classifier.SIMILARITY_METRICS, default=None)
    p.add_argument("--threshold", type=_open_unit, default=None)
    p.add_argument("--raw-walk-scores", action="store_true",
                   help="rank walk scores without degree normalization")
    p.add_argument("--baselines", action="store_true")
    p.add_argument("--restart", type=_checked(float, lambda x: 0 < x <= 1, "a value in (0, 1]"), default=0.85,
                   help="restart-walk baseline parameter")
    p.add_argument("--homophily", type=_open_unit, default=0.9, help="seed-only LBP baseline edge score")
    p.add_argument("--beta", type=_checked(float, lambda x: 0 < x < np.inf, "a finite positive number"),
                   default=2.0, help="victim-weight baseline parameter")
    p.add_argument("--victim-probs", default=None, help="victim-weight baseline input (needs --baselines)")
    p.add_argument("--remap-ids", action="store_true",
                   help="densify sparse node ids (writes id_map.tsv)")

    p = sub("components", _cmd_components, "connected-component census")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--sybil-only", action="store_true", help="census of the Sybil-induced subgraph")

    p = sub("modularity", _cmd_modularity, "two-group Newman modularity of a labeled graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)

    return parser, subs.choices


def _apply_config_file(args, registry) -> dict | None:
    """Validate config-file keys and return set_defaults overrides, or None."""
    if not args.config:
        return None
    sub = registry[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    overrides = {}
    with open(args.config, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise UsageError(f"{args.config}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in actions:
                raise UsageError(f"{args.config}:{lineno}: unknown key {key!r} for '{args.command}'")
            action = actions[key]
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                if value.lower() not in ("true", "false", "0", "1", "yes", "no"):
                    raise UsageError(f"{args.config}:{lineno}: boolean expected for {key!r}")
                overrides[key] = value.lower() in ("true", "1", "yes")
            elif action.type is not None:
                try:
                    overrides[key] = action.type(value)
                except (ValueError, argparse.ArgumentTypeError):
                    raise UsageError(f"{args.config}:{lineno}: bad value for {key!r}") from None
            else:
                overrides[key] = value
            if action.choices is not None and overrides[key] not in action.choices:
                raise UsageError(f"{args.config}:{lineno}: invalid choice {value!r} for {key!r} "
                                 f"(choose from {', '.join(action.choices)})")
    sub.set_defaults(**overrides)
    return overrides


def _scenario_config(args, **extra) -> synth.ScenarioConfig:
    """The scenario of the shared size flags, seeded by --seed."""
    return synth.ScenarioConfig(benign_count=args.benign, sybil_count=args.sybil,
                                avg_degree=args.avg_degree, attack_edge_count=args.attack_edges,
                                rng_seed=args.seed, **extra)


def _cmd_generate(args, out: Path) -> None:
    cfg = _scenario_config(args, degree_biased_attacks=args.degree_biased_attacks)
    graph, labels = synth.compose_attack_scenario(cfg)
    tsvio.write_edge_list(out / "graph.tsv", graph)
    tsvio.write_labels(out / "labels.tsv", labels)
    if args.fpr is not None or args.fnr is not None:
        noise = synth.NoiseConfig(fpr=args.fpr or 0.0, fnr=args.fnr or 0.0,
                                  rng_seed=harness.derive_seed(args.seed, "node-noise"))
        tsvio.write_node_scores(out / "node_scores.tsv", synth.simulate_trust_scores(labels, noise))
    print(f"generated {graph.node_count} nodes, {graph.edge_count} edges -> {out}")


def _cmd_mutualize(args, out: Path) -> None:
    dg = load_edge_list(args.input, directed=True)
    graph = mutualize(dg)
    tsvio.write_edge_list(out / "mutual_graph.tsv", graph)
    print(f"retained {graph.edge_count} mutual edges of {dg.edge_count} arcs")


def _cmd_features(args, out: Path) -> None:
    if args.undirected:
        feats = features.feature_matrix(load_edge_list(args.graph, directed=False))
    else:
        dg = load_edge_list(args.graph, directed=True)
        feats = features.feature_matrix(mutualize(dg), dg)
    tsvio.write_features(out / "features.tsv", feats)


def _cmd_train(args, out: Path) -> None:
    feats, labels = tsvio.read_by_node([(args.features, "features"), (args.labels, "label")])
    _, _, threshold = harness.classifier_stage(
        feats, labels, out, train_benign=args.train_benign, train_sybil=args.train_sybil,
        seed=args.seed, folds=args.folds, train_config=classifier.TrainConfig(
            learning_rate=args.learning_rate, l2=args.l2, epochs=args.epochs))
    (out / "threshold.txt").write_text(f"{threshold!r}\n", encoding="utf-8")
    print(f"trained on {args.train_benign}+{args.train_sybil} seeds, threshold {threshold}")


def _cmd_score_edges(args, out: Path) -> None:
    graph = load_edge_list(args.graph, directed=False)
    values = classifier.edge_scores(graph, args.metric, 0.9 if args.value is None else args.value)
    tsvio.write_edge_scores(out / "edge_scores.tsv", graph, values)


def _cmd_propagate(args, out: Path) -> None:
    graph = load_edge_list(args.graph, directed=False)
    domain = propagate.SCORE_DOMAINS[args.engine]
    node_scores, = tsvio.read_by_node([(args.node_scores, "score")], graph.node_count, domain)
    if np.isnan(node_scores).any():
        raise ValueError(f"{args.node_scores}: missing score for some nodes")
    edge_scores = tsvio.read_edge_scores(args.edge_scores, graph, domain)
    seeds = (classifier.TrainingSet.from_labels(
        tsvio.read_by_node([(args.seeds, "label")], graph.node_count)[0]) if args.seeds else None)
    cfg = propagate.PropagationConfig(iterations=args.iterations, seeds=seeds,
                                      pin_seeds=args.pin_seeds,
                                      degree_normalize=args.degree_normalize)
    engine = propagate.get_engine(args.engine)[1]
    tsvio.write_node_scores(out / "final_scores.tsv", engine(graph, node_scores, edge_scores, cfg))


def _ranking_report(args, graph_path: str | None = None, threshold: float = 0.5) -> metrics.RankingReport:
    """The ranking report of `rank` and `evaluate` from their shared flags;
    `rank` alone passes a graph, for the Sybil component classes, and
    `evaluate` alone a threshold, for the accuracy it writes."""
    labels, scores = tsvio.read_by_node([(args.labels, "label"), (args.scores, "score")])
    # Every labeled node must have a score; unlabeled ones rank last.
    if np.any(np.isnan(scores) & (labels != UNKNOWN)):
        raise ValueError(f"{args.scores}: labeled node is missing a score")
    graph = load_edge_list(graph_path, directed=False) if graph_path else None
    exclude = (classifier.TrainingSet.from_labels(
        tsvio.read_by_node([(args.exclude, "label")], labels.shape[0])[0]).all_ids if args.exclude else None)
    return metrics.build_ranking_report(scores, labels, threshold=threshold,
                                        exclude=exclude, graph=graph)


def _cmd_rank(args, out: Path) -> None:
    metrics.write_ranking(out / "ranking.tsv", _ranking_report(args, args.graph))


def _cmd_evaluate(args, out: Path) -> None:
    report = _ranking_report(args, threshold=args.threshold)
    rows = [("auc", "final", report.metrics["auc"]),
            ("accuracy", f"threshold={args.threshold!r}", report.metrics["accuracy"])]
    for k in args.top_k:
        if k <= report.node_ids.shape[0]:
            rows.append(("top_k_sybil_fraction", k, metrics.top_k_sybil_fraction(report, k)))
    tsvio.write_metrics_report(out / "metrics.tsv", rows)
    for metric, param, value in rows:
        print(f"{metric}\t{param}\t{value}")


def _sweep_spec(args) -> harness.SweepSpec:
    """The sweep of the `sweep` flags; a whole value of a count variable is an int,
    so it prints as `10`, and any other value stays as given for `validate`."""
    counts = args.variable != "fpr_fnr"
    return harness.SweepSpec(
        base=_scenario_config(args),
        variable=args.variable,
        values=tuple(int(v) if counts and v.is_integer() else v for v in args.values),
        trials=args.trials, engines=tuple(args.engines), mode=args.mode,
        noise=args.noise, threads=args.threads)


def _cmd_sweep(args, out: Path) -> None:
    rows = harness.run_robustness_sweep(_sweep_spec(args))
    tsvio.write_sweep_table(out / "sweep.tsv", rows)
    for row in rows:
        print("\t".join(str(x) for x in row))


def _cmd_pipeline(args, out: Path) -> None:
    cfg = harness.PipelineConfig(
        engine=args.engine, train_benign=args.train_benign, train_sybil=args.train_sybil,
        iterations=args.iterations, pin_seeds=args.pin_seeds,
        degree_normalize=not args.raw_walk_scores, edge_score_value=args.edge_value,
        edge_metric=args.edge_metric, threshold=args.threshold, top_k=tuple(args.top_k),
        baselines=args.baselines, restart=args.restart, homophily=args.homophily,
        integro_beta=args.beta, remap_ids=args.remap_ids, seed=args.seed)
    result = harness.run_detection_pipeline(args.graph, args.labels, cfg,
                                            directed=args.directed, out_dir=out,
                                            victim_prob_path=args.victim_probs)
    print(f"auc {result.report.metrics['auc']}  accuracy {result.report.metrics['accuracy']}  "
          f"threshold {result.threshold}")


def _cmd_components(args, out: Path) -> None:
    graph = load_edge_list(args.graph, directed=False)
    keep = None
    if args.sybil_only:
        labels, = tsvio.read_by_node([(args.labels, "label")], graph.node_count)
        keep = np.flatnonzero(labels == SYBIL)
    sizes = component_labels(graph, keep)[1]
    tsvio.write_component_report(out / "components.tsv", sizes)
    print(f"{len(sizes)} components, largest {sizes.max(initial=0)}")
    if args.sybil_only:
        census = component_census(sizes)
        print(f"isolated {census['isolated']}  lcc {census['lcc']}  others {census['others']}")


def _cmd_modularity(args, out: Path) -> None:
    graph = load_edge_list(args.graph, directed=False)
    labels, = tsvio.read_by_node([(args.labels, "label")], graph.node_count)
    if unlabeled := int(np.count_nonzero(labels == UNKNOWN)):
        raise ValueError(f"{args.labels}: {unlabeled} graph node(s) unlabeled; modularity needs every label")
    print(repr(modularity(graph, labels)))


def _check_flags(args) -> None:
    """Reject the flag combinations a subcommand cannot run with."""
    if args.command == "score-edges" and args.metric is not None and args.value is not None:
        raise UsageError("--value and --metric are mutually exclusive")
    try:
        if args.command == "generate":
            _scenario_config(args).validate()
        if args.command == "sweep":
            _sweep_spec(args).validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.command == "pipeline" and args.victim_probs is not None and not args.baselines:
        raise UsageError("--victim-probs is read only with --baselines")
    if args.command == "components" and bool(args.labels) != args.sybil_only:
        raise UsageError("--sybil-only requires --labels, and --labels is read only with --sybil-only")


def dispatch(argv) -> int:
    """Parse argv, run the subcommand; returns the process exit code. Every
    usage error is found before the subcommand reads or writes anything."""
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if _apply_config_file(args, registry) is not None:
            args = parser.parse_args(argv)
        _check_flags(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version / --help
        return int(exc.code or 0)
    try:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        args.handler(args, out)
    except (EdgeListParseError, ValueError, OSError, harness.StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
