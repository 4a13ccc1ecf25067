import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop.graph import (BENIGN, SYBIL, UNKNOWN, DirectedGraph, EdgeListParseError,
                             Graph, component_census, component_labels, index_dtype, modularity,
                             mutualize)
from trustprop.metrics import sybil_component_classes
from trustprop.tsvio import load_edge_list, load_graph, read_edge_scores, write_edge_scores

from conftest import (arcs, bfs_components_oracle, dfs_components_oracle, digraph_from_pairs,
                      from_edges_sort_oracle, graph_from_pairs, modularity_pair_oracle,
                      mutualize_oracle, random_graph, reverse_positions_oracle, transpose)


def assert_same_csr(g, n, u, v):
    """g equals the sort oracle's CSR, with int64 degrees and, on these small
    graphs, int32 node and edge ids."""
    want = from_edges_sort_oracle(n, u, v)
    assert g.degrees.dtype == np.int64
    got = (np.r_[0, np.cumsum(g.degrees)], g.indices, g.edge_u, g.edge_v, g.edge_ids)
    for name, a, b in zip(("indptr", "indices", "edge_u", "edge_v", "edge_ids"), got, want):
        assert name == "indptr" or a.dtype == np.int32, name
        assert np.array_equal(a, b), name


class TestLoadEdgeList:
    def test_directed_two_arcs(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n1\t0\n")
        dg = load_edge_list(path, directed=True)
        assert dg.node_count == 2
        assert dg.edge_count == 2
        src, dst = arcs(dg)
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0)]

    def test_undirected_dedup_and_self_loop(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n0\t1\n1\t1\n")
        g = load_edge_list(path)
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_path_graph_degrees(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n1\t2\n")
        g = load_edge_list(path)
        assert g.degrees.tolist() == [1, 2, 1]

    def test_comments_and_spaces(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n0 1\n\n2 3\n")
        g = load_edge_list(path)
        assert g.edge_count == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\nnope\n")
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(path)

    def test_non_integer_id(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\tx\n")
        with pytest.raises(EdgeListParseError, match=":1:"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(EdgeListParseError, match="no edges"):
            load_edge_list(path)

    def test_node_count_is_max_id_plus_one(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t5\n")
        assert load_edge_list(path).node_count == 6

    def test_remap_ids(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("10\t500\n500\t900\n")
        dg, original = load_graph(path, directed=True, remap=True)
        assert original.tolist() == [10, 500, 900]
        assert dg.out_indptr.tolist() == [0, 1, 2, 2]
        assert dg.out_indices.tolist() == [1, 2]


class TestGraphStructure:
    def test_symmetry_invariant(self):
        rng = np.random.default_rng(1)
        g = random_graph(15, 0.3, rng)
        positions = set(zip(g.position_rows().tolist(), g.indices.tolist()))
        assert len(positions) == 2 * g.edge_count
        assert all((u, v) in positions for v, u in positions)

    def test_neighbor_lengths_sum_to_2m(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_edge_ids_symmetric(self):
        rng = np.random.default_rng(2)
        g = random_graph(12, 0.4, rng)
        rev = g.reverse_positions()
        assert np.array_equal(g.edge_ids, g.edge_ids[rev])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [0], [2])

    @pytest.mark.parametrize("cls", [Graph, DirectedGraph])
    def test_node_count_past_int64_keys(self, cls):
        # (2**32 - 2) * 2**32 + 2**32 - 1 does not fit in int64; no array is sized by n
        n = 2**32
        with pytest.raises(ValueError, match="overflow int64"):
            cls.from_edges(n, [n - 2], [n - 1])

    def test_build_matches_sort_oracle_on_multigraphs(self):
        # self-loops, repeated edges in both orientations, isolated nodes
        rng = np.random.default_rng(9)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, 3 * n))
            u = rng.integers(0, n, size=k)
            v = rng.integers(0, n, size=k)
            assert_same_csr(Graph.from_edges(n, u, v), n, u, v)

    def test_build_matches_sort_oracle_on_edge_cases(self):
        cases = [(0, [], []), (1, [], []), (1, [0], [0]), (5, [], []),
                 (6, [4, 1, 4], [1, 4, 1]), (4, [3, 3, 2], [3, 0, 2])]
        for n, u, v in cases:
            g = Graph.from_edges(n, u, v)
            assert g.node_count == n
            assert g.degrees.shape == (n,)
            assert_same_csr(g, n, u, v)

    def test_build_warns_with_counts(self, caplog):
        with caplog.at_level("WARNING", logger="trustprop.graph"):
            g = Graph.from_edges(4, [0, 1, 2, 1, 3, 0], [1, 0, 2, 1, 0, 1])
        assert g.edge_count == 2
        assert caplog.messages == [
            "dropped 2 self-loops while building undirected graph",
            "dropped 2 duplicate edges while building undirected graph",
        ]

    def test_reverse_positions_match_search_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(1, 30))
            g = Graph.from_edges(n, rng.integers(0, n, size=2 * n), rng.integers(0, n, size=2 * n))
            rev = g.reverse_positions()
            assert np.array_equal(rev, reverse_positions_oracle(g))
            assert np.array_equal(rev[rev], np.arange(g.indices.shape[0]))
            assert g.reverse_positions() is rev  # cached


class TestMutualize:
    def test_single_mutual_pair(self):
        dg = digraph_from_pairs(3, [(0, 1), (1, 0), (1, 2)])
        g = mutualize(dg)
        assert g.edge_count == 1
        assert g.edge_u.tolist() == [0]
        assert g.edge_v.tolist() == [1]

    def test_empty(self):
        dg = DirectedGraph.from_edges(4, [], [])
        g = mutualize(dg)
        assert g.edge_count == 0
        assert g.node_count == 4

    def test_bidirectional_cycle(self):
        pairs = []
        for i in range(4):
            pairs += [(i, (i + 1) % 4), ((i + 1) % 4, i)]
        g = mutualize(digraph_from_pairs(4, pairs))
        assert g.edge_count == 4
        assert g.degrees.tolist() == [2, 2, 2, 2]

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 20, size=(150, 2)) if a != b]
        dg = digraph_from_pairs(20, pairs)
        g1 = mutualize(dg)
        g2 = mutualize(transpose(dg))
        assert np.array_equal(g1.edge_u, g2.edge_u)
        assert np.array_equal(g1.edge_v, g2.edge_v)


    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_search_oracle(self, data):
        n = data.draw(st.integers(0, 12))
        node = st.integers(0, max(n - 1, 0))
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=60)) if n else []  # repeats, loops
        shape = data.draw(st.sampled_from(["any", "no mutual pair", "every arc mutual"]))
        if shape == "no mutual pair":
            pairs = [(a, b) for a, b in pairs if a < b]
        elif shape == "every arc mutual":
            pairs += [(b, a) for a, b in pairs]
        dg = digraph_from_pairs(n, pairs)
        got, want = mutualize(dg), mutualize_oracle(dg)
        assert got.node_count == want.node_count == n
        for name in ("degrees", "indices", "edge_u", "edge_v", "edge_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        if shape == "no mutual pair":
            assert got.edge_count == 0
        elif shape == "every arc mutual":
            assert got.edge_count == len({(min(a, b), max(a, b)) for a, b in pairs if a != b})


class TestIndexWidth:
    def test_rule_at_its_limits(self):
        assert index_dtype(2**31 - 1, 2**30 - 1) is np.int32
        assert index_dtype(2**31, 0) is np.int64
        assert index_dtype(0, 2**30) is np.int64  # 2m = 2**31 CSR positions

    def test_stored_widths(self):
        dg = digraph_from_pairs(4, [(0, 1), (1, 0), (2, 3)])
        g = mutualize(dg)
        assert dg.out_indptr.dtype == g.degrees.dtype == np.int64
        assert dg.out_indices.dtype == np.int32
        assert all(a.dtype == np.int32 for a in (g.indices, g.edge_u, g.edge_v, g.edge_ids))


# n * n > 2**31: an edge key u * n + v, or a stable-order key edge_v * m + id,
# formed in int32 from stored ids would wrap.
WIDE_N = 100_000
WIDE_TOP = 2_000


class TestWideKeys:
    """Builds, triangles and edge-score reads on a graph whose edges all join the
    top WIDE_TOP ids of WIDE_N nodes, given as int32 endpoint arrays."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(17)
        u, v = (WIDE_N - 1 - rng.integers(0, WIDE_TOP, (2, 60_000))).astype(np.int32)
        return u, v

    @pytest.fixture(scope="class")
    def g(self, pairs):
        return Graph.from_edges(WIDE_N, *pairs)

    def test_build_matches_sort_oracle(self, pairs, g):
        assert g.edge_count > 50_000 and int(g.edge_v.max()) * g.edge_count > 2**31
        assert_same_csr(g, WIDE_N, *pairs)

    def test_mutualize_matches_sort_oracle(self, pairs):
        u, v = pairs
        src_in = np.concatenate([u, v[::2]])  # every other arc reciprocated
        dst_in = np.concatenate([v, u[::2]])
        dg = DirectedGraph.from_edges(WIDE_N, src_in, dst_in)
        keys = src_in.astype(np.int64) * WIDE_N + dst_in
        src, dst = arcs(dg)
        assert np.array_equal(src * WIDE_N + dst, np.unique(keys[src_in != dst_in]))
        arc_set = set(zip(src_in.tolist(), dst_in.tolist()))
        mu, mv = np.array(sorted((a, b) for a, b in arc_set if a < b and (b, a) in arc_set)).T
        g = mutualize(dg)
        assert int(g.edge_v.max()) * g.edge_count > 2**31
        assert_same_csr(g, WIDE_N, mu, mv)

    def test_triangle_sums_match_dense_count(self, g):
        a = np.zeros((WIDE_TOP, WIDE_TOP))
        low = WIDE_N - WIDE_TOP
        a[g.edge_u - low, g.edge_v - low] = a[g.edge_v - low, g.edge_u - low] = 1.0
        weights = np.random.default_rng(3).random(WIDE_N)
        eu, ev = g.edge_u - low, g.edge_v - low
        counts = (a @ a)[eu, ev]
        sums = (a * weights[low:]) @ a
        assert counts.sum() > 0
        assert np.array_equal(g.triangle_sums(), counts.astype(np.int64))
        assert np.allclose(g.triangle_sums(weights), sums[eu, ev], rtol=1e-12, atol=0.0)

    def test_edge_scores_round_trip(self, g, tmp_path):
        values = np.random.default_rng(4).random(g.edge_count)
        write_edge_scores(tmp_path / "scores.tsv", g, values)
        assert np.array_equal(read_edge_scores(tmp_path / "scores.tsv", g), values)


def components(g, restrict_to=None):
    """Member ids of each `component_labels` component in its order; each member
    list must be as long as the size it returns."""
    index, sizes = component_labels(g, restrict_to)
    members = [np.flatnonzero(index == c) for c in range(sizes.shape[0])]
    assert [c.shape[0] for c in members] == sizes.tolist()
    return members


def sybil_sizes(g, labels):
    """Component sizes of the Sybil-induced subgraph."""
    return component_labels(g, np.flatnonzero(labels == SYBIL))[1]


class TestConnectedComponents:
    def test_two_triangles(self):
        g = graph_from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        comps = components(g)
        assert [c.shape[0] for c in comps] == [3, 3]

    def test_sizes_sum_to_node_count(self):
        rng = np.random.default_rng(4)
        g = random_graph(30, 0.05, rng)
        comps = components(g)
        assert sum(c.shape[0] for c in comps) == 30

    def test_restricted_subgraph(self):
        # path 0-1-2-3; restricting to {0, 1, 3} cuts the path
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        comps = components(g, restrict_to=[0, 1, 3])
        assert [sorted(c.tolist()) for c in comps] == [[0, 1], [3]]

    def test_out_of_range_restrict(self):
        g = graph_from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError, match="out-of-range"):
            component_labels(g, restrict_to=[5])

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = random_graph(10, 0.15, rng)
            got = {frozenset(c.tolist()) for c in components(g)}
            want = set(bfs_components_oracle(g))
            assert got == want

    def test_restricted_against_bfs_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            g = random_graph(12, 0.2, rng)
            subset = rng.choice(12, size=7, replace=False)
            got = {frozenset(c.tolist()) for c in components(g, restrict_to=subset)}
            want = set(bfs_components_oracle(g, restrict=subset))
            assert got == want

    def assert_exact_order(self, g, restrict_to=None):
        got = components(g, restrict_to=restrict_to)
        want = dfs_components_oracle(g, restrict_to)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]

    def test_order_against_dfs_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(1, 40))
            g = random_graph(n, float(rng.choice([0.02, 0.06, 0.15])), rng)
            self.assert_exact_order(g)
            self.assert_exact_order(g, restrict_to=rng.choice(n, size=int(rng.integers(0, n + 1)),
                                                              replace=False))

    def test_shuffled_path_order(self):
        ids = np.random.default_rng(14).permutation(300)
        g = graph_from_pairs(301, zip(ids[:-1].tolist(), ids[1:].tolist()))
        self.assert_exact_order(g)
        self.assert_exact_order(g, restrict_to=ids[::3])

    def test_star_order(self):
        g = graph_from_pairs(12, [(9, leaf) for leaf in range(12) if leaf != 9])
        self.assert_exact_order(g)
        self.assert_exact_order(g, restrict_to=[3, 9, 11, 0])
        self.assert_exact_order(g, restrict_to=[0, 1, 2, 11])

    @pytest.mark.parametrize("n, pairs, restrict_to", [
        (0, [], None),
        (5, [], None),
        (5, [(0, 1), (2, 3)], []),
        (6, [(0, 1), (1, 2), (4, 5)], [5, 4, 1, 1, 0, 5, 4]),
    ])
    def test_edge_cases_order(self, n, pairs, restrict_to):
        self.assert_exact_order(graph_from_pairs(n, pairs), restrict_to)

    def test_sybil_census_classes(self):
        # Sybil nodes: {3,4,5} component, {6,7} component, {8} isolated
        pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (0, 8), (2, 6), (1, 3)]
        g = graph_from_pairs(9, pairs)
        labels = np.array([BENIGN] * 3 + [SYBIL] * 6, dtype=np.int8)
        census = component_census(sybil_sizes(g, labels))
        assert census == {"components": 3, "isolated": 1, "lcc": 3, "others": 2}

    def test_census_counts_the_ranking_classes(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            g = random_graph(n, float(rng.choice([0.0, 0.05, 0.12, 0.4])), rng)
            labels = rng.choice([BENIGN, SYBIL, UNKNOWN], size=n,
                                p=rng.dirichlet(np.ones(3))).astype(np.int8)
            census = component_census(sybil_sizes(g, labels))
            classes = sybil_component_classes(g, labels)
            assert census["components"] == len(bfs_components_oracle(g, np.flatnonzero(labels == SYBIL)))
            for cls in ("isolated", "lcc", "others"):
                assert census[cls] == np.count_nonzero(classes == cls)

    def test_census_all_isolated(self):
        g = graph_from_pairs(4, [(0, 2), (0, 3), (1, 2)])
        labels = np.array([BENIGN, BENIGN, SYBIL, SYBIL], dtype=np.int8)
        census = component_census(sybil_sizes(g, labels))
        assert census["isolated"] == 2
        assert census["lcc"] == 0
        assert census["others"] == 0


class TestModularity:
    def test_two_cliques_half(self):
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        pairs += [(a + 4, b + 4) for a, b in pairs]
        g = graph_from_pairs(8, pairs)
        labels = np.array([BENIGN] * 4 + [SYBIL] * 4, dtype=np.int8)
        assert modularity(g, labels) == pytest.approx(0.5, abs=1e-12)

    def test_single_group_zero(self):
        rng = np.random.default_rng(7)
        g = random_graph(10, 0.4, rng)
        labels = np.full(10, BENIGN, dtype=np.int8)
        assert modularity(g, labels) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_labels_error(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        labels = np.array([BENIGN, UNKNOWN, SYBIL], dtype=np.int8)
        with pytest.raises(ValueError):
            modularity(g, labels)

    def test_against_pair_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            g = random_graph(12, 0.3, rng)
            if g.edge_count == 0:
                continue
            labels = rng.integers(0, 2, size=12).astype(np.int8)
            assert modularity(g, labels) == pytest.approx(
                modularity_pair_oracle(g, labels), abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_range_bound(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(14, 0.25, rng)
        if g.edge_count == 0:
            return
        labels = rng.integers(0, 2, size=14).astype(np.int8)
        q = modularity(g, labels)
        assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12

    def test_balanced_split_of_complete_graph_near_zero(self):
        n = 12
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        g = graph_from_pairs(n, pairs)
        labels = np.array([BENIGN, SYBIL] * (n // 2), dtype=np.int8)
        assert abs(modularity(g, labels)) < 0.05
