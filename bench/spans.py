"""Span tracer that wraps trustprop's public functions from the outside.

`Tracer.install()` replaces every public function of the traced modules,
under every name a module binds it to (so `harness.mutualize` and
`features.mutualize` are traced as `graph.mutualize`), plus the graph
methods that build and index the CSR arrays and the sweep's per-trial
function. Each call records one span: id, name, start, end, parent span id
and thread id, kept in memory. `uninstall()` restores the originals.
`layer_metrics()` turns the spans into per-round per-layer metrics.

The package itself is not changed: callers reach the wrapped functions
through module attributes, which is how trustprop calls across modules.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import resource
import statistics
import threading
import time

MODULES = ("graph", "tsvio", "features", "classifier", "propagate", "synth",
           "metrics", "harness", "cli")
# (class, method) pairs of the graph layer worth a span; per-node accessors
# such as Graph.neighbors run millions of times and are left untraced.
GRAPH_METHODS = (("Graph", "from_edges"), ("DirectedGraph", "from_edges"),
                 ("Graph", "reverse_positions"), ("Graph", "position_rows"))
PRIVATE = (("harness", "_run_trial"),)

MIB = 1024.0 * 1024.0


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for wrapped calls; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []   # (id, name, start, end, parent, thread, note)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._main_thread = threading.get_ident()

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        package = self.package
        wrappers: dict[int, object] = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._set(module, attr, wrappers[id(obj)])
        for mod_name, attr in PRIVATE:
            module = getattr(package, mod_name)
            fn = getattr(module, attr)
            self._set(module, attr, self._wrap(f"{mod_name}.{attr.lstrip('_')}", fn))
        for cls_name, attr in GRAPH_METHODS:
            cls = getattr(package.graph, cls_name)
            raw = cls.__dict__[attr]
            name = f"graph.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def _set(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            rss0 = _maxrss_mib()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = {"rss_raise_mib": _maxrss_mib() - rss0}
            if note is not None:
                extra.update(note(args, kwargs, result))
            spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    # -- reporting ------------------------------------------------------
    def span_records(self) -> list[dict]:
        """Spans as JSON-ready dicts, start/end in seconds from the first span."""
        if not self.spans:
            return []
        t0 = min(s[2] for s in self.spans)
        return [{"id": sid, "name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "thread": thread, **extra}
                for sid, name, start, end, parent, thread, extra in sorted(self.spans)]

    def _logical_parents(self) -> dict[int, int]:
        """Span id -> parent id. A root span on a worker thread gets the innermost
        main-thread span open over its whole interval: the call waiting on it."""
        main = [s for s in self.spans if s[5] == self._main_thread]
        parents = {}
        for sid, _, start, end, parent, thread, _ in self.spans:
            if not parent and thread != self._main_thread:
                around = [m for m in main if m[2] <= start and end <= m[3]]
                parent = max(around, key=lambda m: m[2])[0] if around else 0
            parents[sid] = parent
        return parents

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer self times and counts per round; every metric is present, 0 if unused."""
        by_id = {s[0]: s for s in self.spans}
        parent_of = self._logical_parents()
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, start, end, _, _, _ in self.spans:
            if parent_of[sid]:
                children.setdefault(parent_of[sid], []).append((start, end))

        def under(span, prefix) -> bool:
            parent = parent_of[span[0]]
            while parent:
                if by_id[parent][1].startswith(prefix):
                    return True
                parent = parent_of[parent]
            return False

        out = {key: 0.0 for key in LAYER_METRICS}
        trial_times = []
        lbp_bytes = []
        for span in self.spans:
            sid, name, start, end, _, _, extra = span
            self_s = (end - start) - _covered(children.get(sid, []))
            layer = name.split(".", 1)[0]
            key = SELF_TIME.get(name)
            if layer == "propagate":
                if name.startswith("propagate.baseline_") or name == "propagate.integro_edge_weights" \
                        or under(span, "propagate.baseline_"):
                    key = "propagate.baselines_s"
                elif name in ("propagate.weighted_random_walk", "propagate.default_walk_iterations"):
                    key = "propagate.walk_s"
                    out["propagate.walk_iterations"] += extra.get("iterations", 0)
                else:
                    key = "propagate.lbp_s"
                    if name == "propagate.update_messages":
                        out["propagate.lbp_iterations"] += 1
                        lbp_bytes.append(extra["bytes"])
                if name in ENGINE_ENTRY and not under(span, "propagate."):
                    out["propagate.calls"] += 1
            elif name.startswith("tsvio.read_"):
                key = "tsvio.read_s"
            elif name.startswith("tsvio.write_"):
                key = "tsvio.write_s"
            elif key is None and f"{layer}.self_s" in out:
                key = f"{layer}.self_s"
            if key is not None:
                out[key] += self_s
            if name == "graph.mutualize":
                out["graph.mutualize_calls"] += 1
            if name.endswith(".from_edges"):
                out["graph.build_rss_growth_mb"] = max(out["graph.build_rss_growth_mb"],
                                                       extra["rss_raise_mib"])
            if name.startswith("tsvio.read_"):
                out["tsvio.read_rows"] += extra.get("rows", 0)
            if name.startswith("tsvio.write_"):
                out["tsvio.write_mb"] += extra.get("bytes", 0) / MIB
            if name == "harness.run_trial":
                trial_times.append(end - start)
        for key in LAYER_METRICS:
            if key not in NOT_PER_ROUND:
                out[key] /= rounds
        out["harness.trials"] = len(trial_times) / rounds
        out["harness.trial_s"] = statistics.median(trial_times) if trial_times else 0.0
        if out["propagate.lbp_iterations"]:
            out["propagate.lbp_s_per_iter"] = out["propagate.lbp_s"] / out["propagate.lbp_iterations"]
            out["propagate.lbp_mb_per_iter"] = statistics.mean(lbp_bytes) / MIB
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on worker threads overlap)."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _note_rows(args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    if getattr(first, "dtype", None) is not None and first.dtype.kind == "f":
        return {"rows": int((first == first).sum()) if first.ndim == 1 else int(first.shape[0])}
    return {"rows": int(first.shape[0])}


def _note_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _note_walk(args, kwargs, result):
    g = args[0]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    iterations = getattr(cfg, "iterations", None)
    if iterations is None:
        iterations = max(1, math.ceil(math.log2(max(g.node_count, 2))))
    return {"iterations": iterations}


def _note_lbp_round(args, kwargs, result):
    """Bytes one message round reads and writes, computed from array sizes.

    Messages in and out, plus the four per-position index arrays (row,
    column, reverse position, edge id) at the width of `g.indices`, and the
    node and edge score arrays. Cache misses are not counted.
    """
    g, node_scores, edge_scores, messages = args[:4]
    index_bytes = 4 * g.indices.nbytes
    return {"bytes": int(messages.nbytes + result.nbytes + index_bytes
                         + node_scores.nbytes + edge_scores.nbytes)}


NOTES = {
    "tsvio.read_label_pairs": _note_rows,
    "tsvio.read_node_scores": _note_rows,
    "tsvio.read_edge_scores": _note_rows,
    "tsvio.read_features": _note_rows,
    "propagate.weighted_random_walk": _note_walk,
    "propagate.update_messages": _note_lbp_round,
}
for _name in ("edge_list", "labels", "id_map", "node_scores", "edge_scores", "features",
              "component_report", "metrics_report", "sweep_table"):
    NOTES[f"tsvio.write_{_name}"] = _note_bytes

ENGINE_ENTRY = ("propagate.weighted_random_walk", "propagate.weighted_lbp",
                "propagate.baseline_sybilrank", "propagate.baseline_cia",
                "propagate.baseline_sybilbelief", "propagate.baseline_integro")

# Function name -> metric its self time adds to (propagate is routed in code).
SELF_TIME = {
    "graph.read_edge_pairs": "graph.parse_s",
    "graph.remap_ids": "graph.parse_s",
    "graph.load_edge_list": "graph.parse_s",
    "graph.mutualize": "graph.mutualize_s",
    "graph.connected_components": "graph.components_s",
    "graph.component_census": "graph.components_s",
    "graph.Graph.from_edges": "graph.build_s",
    "graph.DirectedGraph.from_edges": "graph.build_s",
    "graph.Graph.reverse_positions": "graph.reverse_index_s",
    "graph.Graph.position_rows": "graph.reverse_index_s",
    "features.clustering_all": "features.clustering_s",
    "features.clustering_coefficient": "features.clustering_s",
    "features.req_ratios": "features.req_ratios_s",
    "features.reciprocity_counts": "features.req_ratios_s",
    "features.req_in": "features.req_ratios_s",
    "features.req_out": "features.req_ratios_s",
    "features.feature_matrix": "features.req_ratios_s",
    "classifier.select_threshold": "classifier.threshold_s",
    "classifier.edge_similarity": "classifier.edge_similarity_s",
    "classifier.edge_scores_similarity": "classifier.edge_similarity_s",
    "classifier.edge_scores_default": "classifier.edge_similarity_s",
    "synth.compose_attack_scenario": "synth.scenario_s",
    "synth.preferential_attachment": "synth.scenario_s",
    "synth.simulate_trust_scores": "synth.scores_s",
    "synth.simulate_edge_trust_scores": "synth.scores_s",
    "metrics.auc": "metrics.auc_s",
}
for _name in ("train", "loss_and_gradient", "predict_probabilities", "predict_scores",
              "normalize_scores", "sample_training_set", "save_model", "load_model"):
    SELF_TIME[f"classifier.{_name}"] = "classifier.train_s"
for _name in ("accuracy_at_threshold", "rank_nodes", "sybil_component_classes",
              "build_ranking_report", "top_k_sybil_fraction", "decompose_top_k", "write_ranking"):
    SELF_TIME[f"metrics.{_name}"] = "metrics.report_s"

# Metrics that are not sums over the traced rounds.
NOT_PER_ROUND = ("graph.build_rss_growth_mb", "harness.trial_s", "harness.trials",
                 "propagate.lbp_s_per_iter", "propagate.lbp_mb_per_iter")
LAYER_METRICS = (
    "graph.parse_s", "graph.mutualize_s", "graph.mutualize_calls", "graph.components_s",
    "graph.build_s", "graph.build_rss_growth_mb", "graph.reverse_index_s",
    "tsvio.read_s", "tsvio.read_rows", "tsvio.write_s", "tsvio.write_mb",
    "features.clustering_s", "features.req_ratios_s",
    "classifier.train_s", "classifier.threshold_s", "classifier.edge_similarity_s",
    "propagate.walk_s", "propagate.walk_iterations", "propagate.lbp_s",
    "propagate.lbp_iterations", "propagate.lbp_s_per_iter", "propagate.lbp_mb_per_iter",
    "propagate.baselines_s", "propagate.calls",
    "synth.scenario_s", "synth.scores_s", "harness.trial_s", "harness.trials",
    "harness.self_s", "cli.self_s",
    "metrics.auc_s", "metrics.report_s",
)
