"""One benchmark workload, run in a fresh process by `run.py`.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --inputs DIR --work DIR --t0 T [--setup-only] [--trace-out FILE]

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start-up, imports and input loading.
The timed part repeats whole rounds of the workload until `--seconds` have
passed; `cpu_s` and `wall_s` are medians over rounds. Every round's outputs
are fingerprinted outside the round's timer and must repeat bit for bit; the
last round's outputs are then checked in full against `checks.py`. With
`--trace 1` traced and untraced rounds alternate for twice `--seconds`, and
the per-layer metrics come from the traced ones. The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks

# sweep-small grid: the basic 1000 + 500 scenario, edge-score noise levels.
SWEEP_VALUES = ("0", "0.1", "0.2", "0.3")
SWEEP_TRIALS = 10
SWEEP_REPRODUCED = "0.2"       # grid point recomputed through the public API
PROP_NOISE = 0.3               # fpr = fnr of the simulated node and edge scores
LBP_ITERATIONS = 8
FEATURE_SAMPLES = 200          # nodes and edges recounted by brute force
MIN_DETECT_AUC = 0.75


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _dir_digest(path: Path) -> str:
    return _digest(*(p.name.encode() + p.read_bytes() for p in sorted(path.iterdir())))


def _dispatch(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def _close(a, b, tol) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


class PipelineDirected:
    """`trustprop pipeline --directed --baselines --edge-metric jaccard`, in-process."""

    def __init__(self, tp, args):
        self.cli = tp.cli
        self.inputs = Path(args.inputs)
        self.out = Path(args.work) / "out"
        self.seed = args.seed
        self.argv = ["pipeline", "--graph", str(self.inputs / "arcs.tsv"),
                     "--labels", str(self.inputs / "labels.tsv"), "--directed", "--baselines",
                     "--edge-metric", "jaccard", "--seed", str(args.seed), "--out-dir", str(self.out)]
        self.ops = {"pipeline": 1}
        for name in ("arcs.tsv", "labels.tsv"):
            if not (self.inputs / name).is_file():
                raise FileNotFoundError(self.inputs / name)

    def run_round(self):
        return _dispatch(self.cli, self.argv)

    def fingerprint(self, rc):
        return {"pipeline": _dir_digest(self.out) if rc == 0 else None}

    def full_check(self):
        problems: list[str] = []
        out = self.out
        arcs = np.loadtxt(self.inputs / "arcs.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
        lab_rows = np.loadtxt(self.inputs / "labels.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
        n = int(max(arcs.max(), lab_rows[:, 0].max())) + 1
        labels = np.full(n, -1, dtype=np.int64)
        labels[lab_rows[:, 0]] = lab_rows[:, 1]

        seeds = np.loadtxt(out / "train_seeds.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
        seed_ids = seeds[:, 0]
        if np.any(labels[seed_ids] != seeds[:, 1]):
            problems.append("train_seeds.tsv labels disagree with the input labels")
        if sorted(np.bincount(seeds[:, 1], minlength=2).tolist()) != [50, 50]:
            problems.append("train_seeds.tsv does not hold 50 + 50 seeds")

        rows = [line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()]
        reported = {(r[0], r[1]): float(r[2]) for r in rows}
        finals, aucs = {}, {}
        for name in ("sf_lbp", "sybilrank", "cia", "sybilbelief"):
            table = np.loadtxt(out / f"final_scores_{name}.tsv", delimiter="\t", ndmin=2)
            if not np.array_equal(table[:, 0], np.arange(n)) or not np.all(np.isfinite(table[:, 1])):
                problems.append(f"final_scores_{name}.tsv does not hold one finite score per node")
                continue
            finals[name] = table[:, 1]
            aucs[name] = checks.pair_auc(finals[name], labels, seed_ids)
            if not abs(aucs[name] - reported.get(("auc", name), math.nan)) <= 1e-12:
                problems.append(f"auc {name}: metrics.tsv {reported.get(('auc', name))} != recount {aucs[name]}")
        detect = aucs.get("sf_lbp", math.nan)

        if "sf_lbp" in finals:
            sf = finals["sf_lbp"]
            threshold = reported[("threshold", "cv")]
            keep = labels >= 0
            keep[seed_ids] = False
            acc = float(np.mean((sf[keep] > threshold) == (labels[keep] == 1)))
            if abs(acc - reported.get(("accuracy", f"threshold={threshold!r}"), math.nan)) > 1e-12:
                problems.append("accuracy in metrics.tsv does not match the recount")
            for k in (100, 200, 500):
                frac = checks.top_k_sybil_fraction(sf, labels, seed_ids, k)
                if abs(frac - reported.get(("top_k_sybil_fraction", str(k)), math.nan)) > 1e-12:
                    problems.append(f"top-{k} Sybil fraction does not match the recount")
                classes = sum(reported.get((f"top_k_{c}", str(k)), 0) for c in
                              ("isolated", "lcc", "others", "benign"))
                if classes != k or reported.get(("top_k_benign", str(k))) != round(k * (1 - frac)):
                    problems.append(f"top-{k} class counts do not add up")
            problems += self._check_ranking(sf, labels, keep)

        problems += self._check_structure(n, arcs)
        local = np.loadtxt(out / "local_scores.tsv", delimiter="\t", ndmin=2)[:, 1]
        if local.shape[0] != n or local.min() < 0.1 or local.max() > 0.9:
            problems.append("local scores are not one value in [0.1, 0.9] per node")
        return {"pipeline": problems}, detect, []

    def _check_ranking(self, sf, labels, keep):
        ranking = (self.out / "ranking.tsv").read_text().splitlines()
        table = np.array([line.split("\t")[:4] for line in ranking], dtype=object)
        if table.shape[0] == 0:
            return ["ranking.tsv is empty"]
        ranks = table[:, 0].astype(np.int64)
        ids = table[:, 1].astype(np.int64)
        scores = table[:, 2].astype(float)
        problems = []
        if not np.array_equal(ranks, np.arange(1, ids.shape[0] + 1)):
            problems.append("ranking.tsv ranks are not 1..N")
        if not np.array_equal(np.sort(ids), np.flatnonzero(keep)):
            problems.append("ranking.tsv does not cover exactly the evaluated nodes")
        elif not np.array_equal(scores, sf[ids]) or \
                not np.array_equal(table[:, 3].astype(np.int64), labels[ids]):
            problems.append("ranking.tsv scores or labels differ from final_scores_sf_lbp.tsv")
        order = np.lexsort((ids, scores))
        if not np.array_equal(order, np.arange(ids.shape[0])):
            problems.append("ranking.tsv is not ascending by (score, id)")
        return problems

    def _check_structure(self, n, arcs):
        problems = []
        out = self.out
        mutual_keys = checks.mutual_pairs(n, arcs[:, 0], arcs[:, 1])
        got = np.loadtxt(out / "mutual_graph.tsv", dtype=np.int64, delimiter="\t", ndmin=2)
        if not np.array_equal(got[:, 0] * n + got[:, 1], mutual_keys):
            problems.append("mutual_graph.tsv is not the set of reciprocated arcs")
        mu, mv = mutual_keys // n, mutual_keys % n
        out_adj = checks.Adjacency(n, arcs[:, 0], arcs[:, 1])
        in_adj = checks.Adjacency(n, arcs[:, 1], arcs[:, 0])
        mutual = checks.Adjacency(n, np.concatenate([mu, mv]), np.concatenate([mv, mu]))
        rng = np.random.default_rng([self.seed, 99])

        feats = np.loadtxt(out / "features.tsv", delimiter="\t", ndmin=2)
        for v in rng.choice(n, size=FEATURE_SAMPLES, replace=False).tolist():
            rin, rout = checks.req_ratios_of(out_adj.of(v), in_adj.of(v))
            want = (v, rin, rout, checks.clustering_of(v, mutual))
            if np.max(np.abs(feats[v] - want)) > 1e-12:
                problems.append(f"features of node {v}: {feats[v].tolist()} != {list(want)}")
                break

        edges = np.loadtxt(out / "edge_scores.tsv", delimiter="\t", ndmin=2)
        if not np.array_equal(edges[:, 0].astype(np.int64) * n + edges[:, 1].astype(np.int64), mutual_keys):
            return problems + ["edge_scores.tsv rows are not the mutual edges in canonical order"]
        scores = edges[:, 2]
        if scores.min() < 0.1 or scores.max() > 0.9:
            problems.append("edge scores leave [0.1, 0.9]")
        picks = rng.choice(mutual_keys.shape[0], size=FEATURE_SAMPLES, replace=False)
        jac = np.array([checks.jaccard_of(int(mu[e]), int(mv[e]), mutual) for e in picks])
        # Edge scores are the Jaccard values mapped affinely onto [0.1, 0.9].
        slope, intercept = np.polyfit(jac, scores[picks], 1)
        if not (slope > 0 and np.max(np.abs(intercept + slope * jac - scores[picks])) < 1e-9):
            problems.append("edge scores are not an increasing affine map of the Jaccard recount")
        return problems


class PropagateLarge:
    """Graph.from_edges, then both engines on simulated scores, all in memory."""

    def __init__(self, tp, args):
        self.tp = tp
        self.edges = np.load(Path(args.inputs) / "edges.npy")
        self.labels = np.load(Path(args.inputs) / "labels.npy")
        self.n = int(self.labels.shape[0])
        self.seed = args.seed
        self.ops = {"walk": 1, "lbp": 1}
        self.last = None

    def run_round(self):
        tp = self.tp
        self.last = None
        g = tp.graph.Graph.from_edges(self.n, self.edges[:, 0], self.edges[:, 1])
        s = tp.synth.simulate_trust_scores(
            self.labels, tp.synth.NoiseConfig(PROP_NOISE, PROP_NOISE, 2 * self.seed))
        es = tp.synth.simulate_edge_trust_scores(
            g, self.labels, tp.synth.NoiseConfig(PROP_NOISE, PROP_NOISE, 2 * self.seed + 1))
        walk = tp.propagate.weighted_random_walk(
            g, s, es, tp.propagate.PropagationConfig(engine="random_walk"))
        lbp = tp.propagate.weighted_lbp(
            g, s, es, tp.propagate.PropagationConfig(engine="lbp", iterations=LBP_ITERATIONS))
        self.last = {"edge_u": g.edge_u, "edge_v": g.edge_v, "s": s, "es": es, "walk": walk, "lbp": lbp}

    def fingerprint(self, _):
        return {"walk": _digest(self.last["walk"].tobytes()), "lbp": _digest(self.last["lbp"].tobytes())}

    def full_check(self):
        r = self.last
        n = self.n
        a = self.edges[:, 0].astype(np.int64)
        b = self.edges[:, 1].astype(np.int64)
        keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        u, v = keys // n, keys % n
        if not (np.array_equal(r["edge_u"], u) and np.array_equal(r["edge_v"], v)):
            problem = ["the graph's canonical edges differ from the input edge set"]
            return {"walk": problem, "lbp": problem}, math.nan, []
        s, es, walk, lbp = r["s"], r["es"], r["walk"], r["lbp"]
        walk_problems, lbp_problems = [], []
        if not np.all(np.isfinite(walk)):
            walk_problems.append("walk scores are not finite")
        elif abs(walk.sum() - s.sum()) > 1e-9 * s.sum():
            walk_problems.append(f"walk changed the total trust mass: {walk.sum()} != {s.sum()}")
        want = checks.walk_reference(n, u, v, s, es, max(1, math.ceil(math.log2(n))))
        if not _close(walk, want, 1e-9 * np.max(np.abs(want))):
            walk_problems.append("walk differs from the reference walk")
        if not np.all(np.isfinite(lbp)) or lbp.min() < 0.0 or lbp.max() > 1.0:
            lbp_problems.append("LBP beliefs are not finite values in [0, 1]")
        want = checks.lbp_log_odds(n, u, v, s, es, LBP_ITERATIONS)
        worst = float(np.max(np.abs(lbp - want)))
        if not worst <= 1e-9:
            lbp_problems.append(f"LBP differs from the log-odds reference by {worst:.3g}")
        wdeg = checks.weighted_degrees(n, u, v, es)
        aucs = [checks.pair_auc(walk / wdeg, self.labels), checks.pair_auc(lbp, self.labels)]
        return {"walk": walk_problems, "lbp": lbp_problems}, float(np.mean(aucs)), []


class SweepSmall:
    """`trustprop sweep --variable fpr_fnr --mode edge_scores --threads 2`, in-process."""

    def __init__(self, tp, args):
        self.tp = tp
        self.out = Path(args.work) / "out"
        self.seed = args.seed
        self.argv = ["sweep", "--variable", "fpr_fnr", "--mode", "edge_scores", "--threads", "2",
                     "--values", ",".join(SWEEP_VALUES), "--trials", str(SWEEP_TRIALS),
                     "--seed", str(args.seed), "--out-dir", str(self.out)]
        self.ops = {"trial": len(SWEEP_VALUES) * SWEEP_TRIALS}

    def run_round(self):
        return _dispatch(self.tp.cli, self.argv)

    def fingerprint(self, rc):
        return {"trial": _digest((self.out / "sweep.tsv").read_bytes()) if rc == 0 else None}

    def full_check(self):
        problems = []
        rows = {}
        for line in (self.out / "sweep.tsv").read_text().splitlines():
            value, engine, metric, mean, std, trials = line.split("\t")
            rows[(float(value), engine, metric)] = (float(mean), float(std), int(trials))
        want = {(float(x), e, m) for x in SWEEP_VALUES
                for e, m in (("random_walk", "auc"), ("lbp", "accuracy"), ("lbp", "auc"))}
        if set(rows) != want:
            problems.append(f"sweep rows {sorted(set(rows) ^ want)} missing or unexpected")
        for key, (mean, std, trials) in rows.items():
            if trials != SWEEP_TRIALS or not (0.0 <= mean <= 1.0 and 0.0 <= std <= 1.0):
                problems.append(f"sweep row {key} is out of range")
        for engine in ("random_walk", "lbp"):
            if rows.get((0.0, engine, "auc"), (0.0,))[0] < 0.99:
                problems.append(f"{engine} AUC at noise 0 is below 0.99")
        aucs = [mean for (_, _, metric), (mean, _, _) in rows.items() if metric == "auc"]
        detect = float(np.mean(aucs)) if aucs else math.nan
        global_problems = []
        value = float(SWEEP_REPRODUCED)
        for engine, got in self.reproduce(value).items():
            reported = rows.get((value, engine, "auc"), (math.nan,))[0]
            if not abs(got - reported) <= 1e-9:
                global_problems.append(f"{engine} mean AUC at {value}: sweep {reported} != recomputed {got}")
        return {"trial": problems}, detect, global_problems

    def reproduce(self, value: float) -> dict[str, float]:
        """Mean AUC per engine at one grid point, recomputed with the public API
        and `checks.pair_auc`, following the sweep's seed derivation."""
        tp = self.tp
        aucs = {"random_walk": [], "lbp": []}
        for trial in range(SWEEP_TRIALS):
            trial_seed = tp.harness.derive_seed(self.seed, "fpr_fnr", value, trial)
            graph, labels = tp.synth.compose_attack_scenario(tp.synth.ScenarioConfig(rng_seed=trial_seed))
            noise = tp.synth.NoiseConfig(value, value, tp.harness.derive_seed(trial_seed, "noise"))
            edge_scores = tp.synth.simulate_edge_trust_scores(graph, labels, noise)
            rng = np.random.default_rng(tp.harness.derive_seed(trial_seed, "seeds"))
            seeds = tp.classifier.TrainingSet(benign=[int(rng.choice(np.flatnonzero(labels == 1)))],
                                              sybil=[int(rng.choice(np.flatnonzero(labels == 0)))])
            node_scores = np.full(graph.node_count, 0.5)
            cfg = tp.propagate.PropagationConfig
            lbp = tp.propagate.weighted_lbp(graph, node_scores, edge_scores, cfg(seeds=seeds))
            walk = tp.propagate.weighted_random_walk(
                graph, node_scores, edge_scores, cfg(engine="random_walk", seeds=seeds, degree_normalize=True))
            aucs["lbp"].append(checks.pair_auc(lbp, labels, seeds.all_ids))
            aucs["random_walk"].append(checks.pair_auc(walk, labels, seeds.all_ids))
        return {engine: float(np.mean(v)) for engine, v in aucs.items()}


WORKLOADS = {"pipeline-directed": PipelineDirected, "propagate-large": PropagateLarge,
             "sweep-small": SweepSmall}


class Ledger:
    """Attempted and failed operations, round by round."""

    def __init__(self, ops: dict[str, int]):
        self.ops = ops
        self.first: dict[str, str] = {}           # op -> first good fingerprint
        self.rounds: list[dict[str, bool]] = []   # op -> round already failed

    def record(self, fingerprint: dict) -> None:
        self.rounds.append({op: fingerprint[op] is None or self.first.setdefault(op, fingerprint[op])
                            != fingerprint[op] for op in self.ops})

    def totals(self, check_problems: dict[str, list]) -> tuple[int, int]:
        attempted = len(self.rounds) * sum(self.ops.values())
        failed = sum(count for status in self.rounds for op, count in self.ops.items()
                     if status[op] or check_problems.get(op))
        return attempted, failed


def timed_loop(w, seconds: float, ledger: Ledger, tracer=None):
    """Whole rounds until `seconds` have passed: wall and CPU time of each
    round, and the process's peak RSS after it. With a tracer, rounds
    alternate traced and untraced, so both see the same conditions; the
    loop then ends on an untraced round. Returns (untraced, traced)."""
    plain = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    traced = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = time.monotonic()
    while True:
        on = tracer is not None and len(traced["wall_s"]) == len(plain["wall_s"])
        rounds = traced if on else plain
        if on:
            tracer.install()
        try:
            c = time.process_time()
            t = time.perf_counter()
            result = w.run_round()
            rounds["wall_s"].append(time.perf_counter() - t)
            rounds["cpu_s"].append(time.process_time() - c)
        finally:
            if on:
                tracer.uninstall()
        rounds["peak_rss_mb"].append(peak_rss_mib())
        ledger.record(w.fingerprint(result))
        if not on and time.monotonic() - start >= seconds:
            return plain, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    import trustprop
    import trustprop.cli  # noqa: F401  (binds trustprop.cli for the workloads and the tracer)
    w = WORKLOADS[args.workload](trustprop, args)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ledger = Ledger(w.ops)
    result: dict = {"setup_s": setup_s}
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(trustprop)
    rounds, traced = timed_loop(w, args.seconds * (2 if tracer else 1), ledger, tracer)
    result["rounds"] = rounds
    for name in ("wall_s", "cpu_s"):
        result[name] = statistics.median(rounds[name])
    # Peak of the first round: one whole operation in a fresh process. Later
    # rounds run on a fragmented heap and can peak higher.
    result["peak_rss_mb"] = rounds["peak_rss_mb"][0]

    try:
        check_problems, detect, global_problems = w.full_check()
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        check_problems, detect, global_problems = {op: [repr(exc)] for op in w.ops}, math.nan, []
    attempted, failed = ledger.totals(check_problems)
    if not detect > MIN_DETECT_AUC:
        global_problems.append(f"detect_auc {detect} is not above {MIN_DETECT_AUC}")
    problems = global_problems + [f"{op}: {p}" for op, ps in check_problems.items() for p in ps]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result.update({"detect_auc": detect, "attempted": attempted, "failed": failed,
                   "correct": not global_problems, "problems": problems})
    if args.trace:
        layers = tracer.layer_metrics(rounds=len(traced["wall_s"]))
        layers["run.wall_s"] = result["wall_s"]
        layers["run.cpu_s"] = statistics.median(traced["cpu_s"])
        layers["run.trace_overhead_s"] = statistics.median(traced["wall_s"]) - result["wall_s"]
        result["per_layer"] = layers
        result["traced_rounds"] = traced
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.span_records()) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
