"""The benchmark reaches into trustprop by name: its tracer (`bench/spans.py`)
wraps functions and graph methods, and its workloads build engine configs.
These tests fail here, instead of as a KeyError in a traced benchmark run,
when one of those names goes away."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import trustprop
import trustprop.cli  # noqa: F401  (the tracer wraps trustprop.cli as well)
from trustprop import graph, harness, propagate, tsvio

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_what_it_names():
    spans = _bench_module("spans")
    named = [(harness, "_run_trial")] + [(getattr(graph, cls), attr) for cls, attr in spans.GRAPH_METHODS]
    before = [owner.__dict__[attr] for owner, attr in named]
    tracer = spans.Tracer(trustprop)
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not old for (owner, attr), old in zip(named, before))
        graph.Graph.from_edges(3, [0, 1], [1, 2]).reverse_positions()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is old for (owner, attr), old in zip(named, before))
    traced = {record["name"] for record in tracer.span_records()}
    assert {"graph.Graph.from_edges", "graph.Graph.reverse_positions"} <= traced
    assert tracer.layer_metrics(1)["graph.build_s"] > 0


def test_engine_config_as_the_workloads_build_it():
    g = graph.Graph.from_edges(4, [0, 1, 2], [1, 2, 3])
    scores, edge_scores = np.full(4, 0.6), np.full(3, 0.9)
    cfg = propagate.PropagationConfig(engine="lbp", iterations=8)
    assert cfg.engine == "lbp"
    lbp = propagate.weighted_lbp(g, scores, edge_scores, cfg)
    walk = propagate.weighted_random_walk(
        g, scores, edge_scores, propagate.PropagationConfig(engine="random_walk"))
    assert np.all(np.isfinite(lbp)) and np.all(np.isfinite(walk))


def test_traced_writers_take_the_path_first():
    # The tracer notes a writer's output size from the file named by its first argument.
    spans = _bench_module("spans")
    writers = [name.split(".", 1)[1] for name in spans.NOTES if name.startswith("tsvio.write_")]
    assert writers
    for name in writers:
        fn = getattr(tsvio, name, None)
        assert callable(fn), name
        assert next(iter(inspect.signature(fn).parameters)) == "path", name
