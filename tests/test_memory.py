"""Memory guard: the traced allocation peak of each engine-side stage, per edge.

A stage's peak counts what it allocates beyond its inputs, its output included.
On a 200k-edge random graph with 7 self-loops, stored with int32 ids, the
stages peak at about 18 (build), 19 (simulated edge scores), 7 (walk), 28
(LBP) and 64 (the triangle pass) bytes per edge, and the degree counts of
`Graph(n, edge_u, edge_v)` and `DirectedGraph.in_degrees` at about 1 byte per
edge or arc: their n int64 counts and one block's ids. One more whole-array
temporary of m int64 or float64 values adds 8 bytes per edge, of 2m values
16, so the budgets below leave room for block-sized temporaries but not for a
second copy of a graph array. Self-loops cost the build no copy of its inputs.

The graph itself stores its canonical edge list (8 bytes per edge at int32)
and its n int64 degrees; none of these stages builds the CSR
adjacency, which would add 16 bytes per edge. The triangle pass runs on a
second graph object over the same arrays, so its cached counts stay out of
that sum.
"""

import tracemalloc

import numpy as np
import pytest

from trustprop.graph import DirectedGraph, Graph
from trustprop.propagate import weighted_lbp, weighted_random_walk
from trustprop.synth import NoiseConfig, simulate_edge_trust_scores

BUDGET_BYTES_PER_EDGE = {"build": 20, "edge_scores": 25, "walk": 10, "lbp": 30, "triangles": 70,
                         "degrees": 2, "in_degrees": 2}


def _traced_peak(call) -> tuple:
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stage_peaks():
    rng = np.random.default_rng(5)
    n, m = 20_000, 200_000
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    g, build = _traced_peak(lambda: Graph.from_edges(n, u, v))
    loops = u == v
    assert loops.any()
    lu, lv = u[~loops], v[~loops]
    _, loop_free = _traced_peak(lambda: Graph.from_edges(n, lu, lv))
    node_scores = 0.05 + 0.9 * rng.random(n)
    labels = (rng.random(n) < 0.7).astype(np.int8)
    edge_scores, scores = _traced_peak(
        lambda: simulate_edge_trust_scores(g, labels, NoiseConfig(0.3, 0.3, 1)))
    _, walk = _traced_peak(lambda: weighted_random_walk(g, node_scores, edge_scores))
    _, lbp = _traced_peak(lambda: weighted_lbp(g, node_scores, edge_scores))
    _, triangles = _traced_peak(Graph(n, g.edge_u, g.edge_v).triangle_sums)
    _, degrees = _traced_peak(lambda: Graph(n, g.edge_u, g.edge_v))
    dg = DirectedGraph.from_edges(n, u, v)
    assert dg.edge_count > 199_000
    _, in_degrees = _traced_peak(lambda: dg.in_degrees)
    return g, {"build": build, "edge_scores": scores, "walk": walk, "lbp": lbp, "triangles": triangles,
               "degrees": degrees, "in_degrees": in_degrees, "loop_free_build": loop_free}


@pytest.mark.parametrize("stage", sorted(BUDGET_BYTES_PER_EDGE))
def test_stage_peak_within_budget(stage_peaks, stage):
    g, peaks = stage_peaks
    assert g.edge_count > 199_000
    per_edge = peaks[stage] / g.edge_count
    assert per_edge <= BUDGET_BYTES_PER_EDGE[stage], f"{stage} peaked at {per_edge:.1f} B per edge"


def test_graph_stores_its_edge_list_and_row_pointer(stage_peaks):
    g, _ = stage_peaks
    stored = sum(a.nbytes for x in vars(g).values() for a in (x if isinstance(x, tuple) else (x,))
                 if isinstance(a, np.ndarray))
    assert stored <= 8 * g.edge_count + 8 * (g.node_count + 1), f"graph stores {stored} B"


def test_self_loops_cost_the_build_no_copy(stage_peaks):
    g, peaks = stage_peaks
    assert peaks["build"] <= peaks["loop_free_build"] + g.edge_count, "self-loops cost the build over 1 B per edge"
