"""Shared fixtures and independent oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest

from trustprop.graph import BENIGN, SYBIL, DirectedGraph, EdgeListParseError, Graph
from trustprop.propagate import SEED_BENIGN_SCORE, SEED_SYBIL_SCORE, _send


def graph_from_pairs(n, pairs) -> Graph:
    pairs = list(pairs)
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    return Graph.from_edges(n, u, v)


def digraph_from_pairs(n, pairs) -> DirectedGraph:
    pairs = list(pairs)
    src = [a for a, _ in pairs]
    dst = [b for _, b in pairs]
    return DirectedGraph.from_edges(n, src, dst)


def has_edge(g: Graph, u: int, v: int) -> bool:
    """Whether {u, v} is an edge, by a scan of the canonical edge list."""
    return bool(np.any((g.edge_u == min(u, v)) & (g.edge_v == max(u, v))))


def adjacency_oracle(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, edge_ids) of g's symmetric CSR adjacency, rebuilt from
    its edge list by the sort oracle; row v of indices lists v's neighbors ascending."""
    indptr, indices, _, _, edge_ids = from_edges_sort_oracle(g.node_count, g.edge_u, g.edge_v)
    return indptr, indices, edge_ids


def neighbor_lists(g: Graph) -> list[np.ndarray]:
    """Sorted neighbors of every node, from `adjacency_oracle`."""
    indptr, indices, _ = adjacency_oracle(g)
    return np.split(indices, indptr[1:-1])


def arcs(dg: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of every arc as int64, in CSR order (sources ascending)."""
    return np.repeat(np.arange(dg.node_count), dg.out_degrees), dg.out_indices.astype(np.int64)


def out_neighbors(dg: DirectedGraph, v: int) -> np.ndarray:
    """Sorted targets of the arcs out of v, read off the arc arrays."""
    src, dst = arcs(dg)
    return dst[src == v]


def in_neighbors(dg: DirectedGraph, v: int) -> np.ndarray:
    """Sorted sources of the arcs into v, read off the arc arrays."""
    src, dst = arcs(dg)
    return src[dst == v]


def transpose(dg: DirectedGraph) -> DirectedGraph:
    """The same graph with every arc reversed."""
    src, dst = arcs(dg)
    return DirectedGraph.from_edges(dg.node_count, dst, src)


def random_graph(n, edge_prob, rng) -> Graph:
    """Erdos-style random graph for oracle comparisons."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob]
    return graph_from_pairs(n, pairs)


def req_in_oracle(dg: DirectedGraph, v: int) -> float:
    """Fraction of v's in-neighbors that v also follows: |In ∩ Out| / |In|."""
    inbound = in_neighbors(dg, v)
    if inbound.shape[0] == 0:
        return 0.0
    return np.intersect1d(inbound, out_neighbors(dg, v), assume_unique=True).shape[0] / inbound.shape[0]


def req_out_oracle(dg: DirectedGraph, v: int) -> float:
    """Fraction of v's out-neighbors that follow back: |In ∩ Out| / |Out|."""
    outbound = out_neighbors(dg, v)
    if outbound.shape[0] == 0:
        return 0.0
    return np.intersect1d(in_neighbors(dg, v), outbound, assume_unique=True).shape[0] / outbound.shape[0]


def clustering_coefficient_oracle(g: Graph, v: int, nbr_lists=None) -> float:
    """Fraction of ordered neighbor pairs of v that are themselves connected."""
    nbr_lists = neighbor_lists(g) if nbr_lists is None else nbr_lists
    nbrs = nbr_lists[v]
    k = nbrs.shape[0]
    if k < 2:
        return 0.0
    mark = np.zeros(g.node_count, dtype=bool)
    mark[nbrs] = True
    ordered_links = 0
    for u in nbrs.tolist():
        ordered_links += int(mark[nbr_lists[u]].sum())
    return ordered_links / (k * (k - 1))


def clustering_loop_oracle(g: Graph) -> np.ndarray:
    """Clustering coefficient of every node, one neighborhood at a time."""
    nbr_lists = neighbor_lists(g)
    return np.array([clustering_coefficient_oracle(g, v, nbr_lists) for v in range(g.node_count)],
                    dtype=float)


def edge_similarity_loop_oracle(g: Graph, metric: str) -> np.ndarray:
    """Per-edge neighbor-set similarity by intersecting the two neighbor lists,
    each without the other endpoint."""
    nbr_lists = neighbor_lists(g)
    degrees = np.array([a.shape[0] for a in nbr_lists])
    sims = np.zeros(g.edge_count)
    for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
        a = nbr_lists[u]
        a = a[a != v]
        b = nbr_lists[v]
        b = b[b != u]
        common = np.intersect1d(a, b, assume_unique=True)
        if metric == "jaccard":
            union = a.shape[0] + b.shape[0] - common.shape[0]
            sims[e] = common.shape[0] / union if union else 0.0
        elif metric == "cosine":
            denom = np.sqrt(a.shape[0] * b.shape[0])
            sims[e] = common.shape[0] / denom if denom else 0.0
        else:  # adamic-adar; common neighbors always have degree >= 2
            sims[e] = float(np.sum(1.0 / np.log(degrees[common])))
    return sims


def bfs_components_oracle(g: Graph, restrict=None) -> list[frozenset]:
    """Definition-level BFS component enumeration, independent of the library path."""
    if restrict is None:
        active = set(range(g.node_count))
    else:
        active = set(int(x) for x in restrict)
    nbr_lists = neighbor_lists(g)
    seen: set[int] = set()
    comps = []
    for start in sorted(active):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = {start}
        while queue:
            v = queue.pop(0)
            for u in nbr_lists[v].tolist():
                if u in active and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(frozenset(comp))
    return comps


def dfs_components_oracle(g: Graph, restrict_to=None) -> list[np.ndarray]:
    """Per-node DFS components in the library's exact order: sorted member
    arrays by descending size, ties broken by smallest member id."""
    n = g.node_count
    active = np.zeros(n, dtype=bool)
    active[np.arange(n) if restrict_to is None else np.asarray(restrict_to, dtype=np.int64)] = True
    visited = np.zeros(n, dtype=bool)
    nbr_lists = neighbor_lists(g)
    components: list[np.ndarray] = []
    for start in range(n):
        if not active[start] or visited[start]:
            continue
        visited[start] = True
        stack = [start]
        members = [start]
        while stack:
            v = stack.pop()
            nbrs = nbr_lists[v]
            fresh = nbrs[active[nbrs] & ~visited[nbrs]]
            if fresh.size:
                visited[fresh] = True
                members.extend(fresh.tolist())
                stack.extend(fresh.tolist())
        components.append(np.sort(np.asarray(members, dtype=np.int64)))
    components.sort(key=lambda c: (-c.shape[0], int(c[0])))
    return components


def modularity_pair_oracle(g: Graph, labels) -> float:
    """O(n^2) direct summation: (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)."""
    n = g.node_count
    m = g.edge_count
    adj = np.zeros((n, n))
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += adj[i, j] - deg[i] * deg[j] / (2.0 * m)
    return q / (2.0 * m)


def walk_matrix_oracle(g: Graph, edge_values, init, d, hold_isolated=False) -> np.ndarray:
    """Dense column-normalized power iteration for the weighted walk.

    hold_isolated mirrors the engine contract that isolated nodes keep their
    initial score; the seed-only baselines use the raw iteration instead.
    """
    n = g.node_count
    w = np.zeros((n, n))
    for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
        w[u, v] = w[v, u] = edge_values[e]
    colsum = w.sum(axis=0)
    m = np.divide(w, colsum[None, :], out=np.zeros((n, n)), where=colsum[None, :] > 0)
    scores = init.copy()
    isolated = g.degrees == 0
    for _ in range(d):
        scores = m @ scores
        if hold_isolated:
            scores[isolated] = init[isolated]
    return scores


def walk_oracle(g: Graph, init, weights, iterations, restart=0.0, restart_dist=None, pin=None,
                hold_isolated=False, per_weighted_degree=False) -> np.ndarray:
    """The walk engine as one whole-array bincount per round over the row id of
    every CSR position of `adjacency_oracle`, with the engine's arguments and
    operation order."""
    n = g.node_count
    indptr, cols, edge_ids = adjacency_oracle(g)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    position_weights = np.asarray(weights, dtype=float)[edge_ids]
    wsum = np.bincount(rows, weights=position_weights, minlength=n)
    share = np.where(wsum[cols] > 0, position_weights / np.maximum(wsum[cols], 1e-300), 0.0)
    isolated = np.diff(indptr) == 0
    scores = init.astype(float, copy=True)
    for _ in range(iterations):
        scores = np.bincount(rows, weights=scores[cols] * share, minlength=n).astype(float, copy=False)
        if restart:
            scores = (1.0 - restart) * scores + restart * restart_dist
        if hold_isolated:
            scores[isolated] = init[isolated]
        if pin is not None:
            scores = scores.copy()
            scores[pin.benign] = SEED_BENIGN_SCORE
            scores[pin.sybil] = SEED_SYBIL_SCORE
    if per_weighted_degree:
        scores = np.where(wsum > 0, scores / np.maximum(wsum, 1e-300), scores)
    return scores


def lbp_enumeration_oracle(g: Graph, node_scores, edge_values) -> np.ndarray:
    """Exact marginals P(X_v = +1) by brute-force enumeration over all labelings.

    Vectorized over the 2^n assignments (n <= ~16).
    """
    n = g.node_count
    node_scores = np.asarray(node_scores, dtype=float)
    edge_values = np.asarray(edge_values, dtype=float)
    codes = np.arange(2 ** n, dtype=np.int64)
    plus = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)  # (2^n, n)
    weight = np.where(plus, node_scores[None, :], 1.0 - node_scores[None, :]).prod(axis=1)
    same = plus[:, g.edge_u] == plus[:, g.edge_v]
    weight *= np.where(same, edge_values[None, :], 1.0 - edge_values[None, :]).prod(axis=1)
    z = weight.sum()
    total = (weight[:, None] * plus).sum(axis=0)
    return total / z


def from_edges_sort_oracle(n, u, v) -> tuple[np.ndarray, ...]:
    """CSR arrays (indptr, indices, edge_u, edge_v, edge_ids) by sorting all 2m
    directed keys and locating each position's edge with a binary search."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.unique(np.concatenate([u * n + v, v * n + u])) if u.size else np.empty(0, np.int64)
    rows = keys // n if n else keys
    cols = keys - rows * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    canon = rows < cols
    edge_ids = np.searchsorted(keys[canon], np.minimum(rows, cols) * n + np.maximum(rows, cols))
    return indptr, cols, rows[canon], cols[canon], edge_ids


def reverse_positions_oracle(g: Graph) -> np.ndarray:
    """Partner position of every `adjacency_oracle` position by binary search over
    the row*n + col keys."""
    n = g.node_count
    indptr, cols, _ = adjacency_oracle(g)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.searchsorted(rows * n + cols, cols * n + rows)


def preferential_attachment_oracle(n, edges_per_node, seed) -> Graph:
    """Preferential attachment drawing every target with one `rng.integers` call."""
    rng = np.random.default_rng(seed)
    m0 = edges_per_node + 1
    us: list[int] = []
    vs: list[int] = []
    repeated: list[int] = []
    for a in range(m0):
        for b in range(a + 1, m0):
            us.append(a)
            vs.append(b)
        repeated.extend([a] * (m0 - 1))
    for new in range(m0, n):
        targets: set[int] = set()
        while len(targets) < edges_per_node:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            us.append(new)
            vs.append(t)
            repeated.append(t)
        repeated.extend([new] * edges_per_node)
    return Graph.from_edges(n, us, vs)


def compose_attack_scenario_oracle(cfg) -> tuple[Graph, np.ndarray]:
    """Attack scenario from two oracle regions and per-draw `rng.integers` attack edges."""
    seed_b, seed_s, seed_a = np.random.SeedSequence(cfg.rng_seed).spawn(3)
    gb = preferential_attachment_oracle(cfg.benign_count, cfg.edges_per_node, seed_b)
    gs = preferential_attachment_oracle(cfg.sybil_count, cfg.edges_per_node, seed_s)
    n = cfg.benign_count + cfg.sybil_count
    us = [gb.edge_u, gs.edge_u + cfg.benign_count]
    vs = [gb.edge_v, gs.edge_v + cfg.benign_count]
    rng = np.random.default_rng(seed_a)
    benign_degrees = gb.degrees
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < cfg.attack_edge_count:
        if cfg.degree_biased_attacks:
            b = int(rng.choice(cfg.benign_count, p=benign_degrees / benign_degrees.sum()))
        else:
            b = int(rng.integers(cfg.benign_count))
        s = cfg.benign_count + int(rng.integers(cfg.sybil_count))
        chosen.add((b, s))
    if chosen:
        attack = np.array(sorted(chosen), dtype=np.int64)
        us.append(attack[:, 0])
        vs.append(attack[:, 1])
    labels = np.full(n, SYBIL, dtype=np.int8)
    labels[:cfg.benign_count] = BENIGN
    return Graph.from_edges(n, np.concatenate(us), np.concatenate(vs)), labels


def lbp_two_vector_oracle(g: Graph, node_scores, edge_values, iterations) -> np.ndarray:
    """Sum-product LBP with one normalized (+1, -1) message pair per
    `adjacency_oracle` position.

    Position k = (v, u) holds the message from u into v; messages start
    uniform and are renormalized to sum 1 after every round. Node scores are
    used as given (seeds already applied).
    """
    n = g.node_count
    s = np.asarray(node_scores, dtype=float)
    indptr, cols, edge_ids = adjacency_oracle(g)
    se = np.asarray(edge_values, dtype=float)[edge_ids]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rev = reverse_positions_oracle(g)
    messages = np.full((cols.shape[0], 2), 0.5)
    for _ in range(iterations):
        logm = np.log(messages)
        incoming = np.column_stack([np.bincount(rows, weights=logm[:, 0], minlength=n),
                                    np.bincount(rows, weights=logm[:, 1], minlength=n)])
        excl = incoming[cols] - logm[rev]
        excl -= excl.max(axis=1, keepdims=True)
        prod = np.exp(excl)
        pot_pos = s[cols]
        pot_neg = 1.0 - pot_pos
        raw_pos = pot_pos * se * prod[:, 0] + pot_neg * (1.0 - se) * prod[:, 1]
        raw_neg = pot_pos * (1.0 - se) * prod[:, 0] + pot_neg * se * prod[:, 1]
        total = raw_pos + raw_neg
        messages = np.column_stack([raw_pos / total, raw_neg / total])
    logm = np.log(messages)
    log_pos = np.log(s) + np.bincount(rows, weights=logm[:, 0], minlength=n)
    log_neg = np.log(1.0 - s) + np.bincount(rows, weights=logm[:, 1], minlength=n)
    shift = np.maximum(log_pos, log_neg)
    bel_pos = np.exp(log_pos - shift)
    return bel_pos / (bel_pos + np.exp(log_neg - shift))


def lbp_round_oracle(g: Graph, prior, coupling, messages) -> np.ndarray:
    """One synchronous log-odds message round over whole edge arrays, unblocked."""
    fwd, bwd = messages
    n = g.node_count
    cavity = prior + (np.bincount(g.edge_v, weights=fwd, minlength=n)
                      + np.bincount(g.edge_u, weights=bwd, minlength=n))
    return np.stack([_send(cavity[g.edge_u] - bwd, coupling), _send(cavity[g.edge_v] - fwd, coupling)])


def auc_pair_oracle(scores, labels) -> float:
    """O(n^2) pair counting over all (sybil, benign) pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    sybil = scores[labels == SYBIL]
    benign = scores[labels == BENIGN]
    wins = 0.0
    for s in sybil:
        for b in benign:
            if s < b:
                wins += 1.0
            elif s == b:
                wins += 0.5
    return wins / (sybil.shape[0] * benign.shape[0])


def write_rows_oracle(path, fmt, *cols) -> None:
    """One `fmt % row` line per row, over whole columns turned into Python values."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(fmt % row for row in zip(*cols))


def read_rows_oracle(path, fields) -> np.ndarray:
    """Rows of the data lines, stripped, fed to numpy as a generator of lines with
    comments off; a failure names the first line that does not parse on its own."""
    dtype = np.dtype(fields)

    def data_lines():
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if text and text[0] != "#":
                    yield lineno, text

    lines = [text for _, text in data_lines()]
    if not lines:
        return np.empty(0, dtype)
    try:
        return np.loadtxt(iter(lines), dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        layout = " ".join(f"{name}:{dtype[name].base}"
                          + (f"*{dtype[name].shape[0]}" if dtype[name].shape else "")
                          for name in dtype.names)
        for lineno, text in data_lines():
            try:
                np.loadtxt([text], dtype=dtype, comments=None)
            except ValueError:
                raise EdgeListParseError(f"{path}:{lineno}: expected '{layout}', got {text!r}") from None
        raise


def mutualize_oracle(dg: DirectedGraph) -> Graph:
    """Mutual graph by one binary search of each reversed arc among the sorted arc keys."""
    n = dg.node_count
    src, dst = arcs(dg)
    keys = src * n + dst  # ascending by CSR construction
    rev = dst * n + src
    pos = np.minimum(np.searchsorted(keys, rev), max(keys.shape[0] - 1, 0))
    mutual = keys[pos] == rev if keys.size else np.zeros(0, bool)
    take = mutual & (src < dst)
    return Graph.from_edges(n, src[take], dst[take])


def random_tree(n, rng) -> list[tuple[int, int]]:
    """Uniform-ish random tree: each node attaches to a random earlier node."""
    return [(v, int(rng.integers(v))) for v in range(1, n)]


@pytest.fixture(scope="session")
def directed_social_scenario():
    """Directed graph where Sybils follow widely, reciprocate everything, and
    sit in sparse neighborhoods; benign users form reciprocal communities.

    Returns (directed_graph, labels).
    """
    rng = np.random.default_rng(20240817)
    n_benign, n_sybil = 300, 150
    n = n_benign + n_sybil
    block = 20
    arcs: set[tuple[int, int]] = set()

    def add(a, b):
        if a != b:
            arcs.add((a, b))

    # Benign communities: dense mutual follows inside each block.
    for start in range(0, n_benign, block):
        members = range(start, min(start + block, n_benign))
        for a in members:
            for b in members:
                if a < b and rng.random() < 0.4:
                    add(a, b)
                    add(b, a)
    # A few cross-block mutual ties plus one-way pending follows.
    for _ in range(n_benign):
        a, b = rng.integers(n_benign, size=2)
        if rng.random() < 0.5:
            add(int(a), int(b))
            add(int(b), int(a))
        else:
            add(int(a), int(b))
    # Sybils: follow many random benign users; 10% follow back (victims).
    for s in range(n_benign, n):
        targets = rng.choice(n_benign, size=20, replace=False)
        for t in targets:
            add(s, int(t))
            if rng.random() < 0.1:
                add(int(t), s)
        # sparse mutual ties among Sybils
        for t in rng.choice(np.arange(n_benign, n), size=2, replace=False):
            if int(t) != s and rng.random() < 0.5:
                add(s, int(t))
                add(int(t), s)
    # Sybils follow back every incoming edge.
    for a, b in list(arcs):
        if b >= n_benign:
            add(b, a)

    dg = digraph_from_pairs(n, sorted(arcs))
    labels = np.full(n, SYBIL, dtype=np.int8)
    labels[:n_benign] = BENIGN
    return dg, labels
