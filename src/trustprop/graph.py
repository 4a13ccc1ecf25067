"""Graph structures and structural analysis.

Nodes have dense integer ids 0..n-1. An undirected graph stores its canonical
edge list (u < v, ascending), so that per-edge quantities (trust scores,
weights) are stored once per edge, and its degrees, which the constructor
derives from the edges. Every library kernel, the triangle pass included,
reads the edge list; the CSR adjacency members stay only because the
benchmark tracer (`bench/spans.py`) names them. A directed graph stores its
out-degrees and its arc targets, source by source. Every sum of per-edge
terms into nodes, the degrees and the walk's rounds included, goes through
one blocked kernel, `_scatter`; an LBP round adds each block's messages into
its sums as it sends them. All graph objects are immutable after
construction; derived arrays (triangle counts, the adjacency) are cached.

Index arrays (node ids and edge ids) are stored as int32 while n < 2**31 and
2m < 2**31, and as int64 past either limit (`index_dtype`); degrees are
always int64. NumPy keeps `int32 * int` in int32, so every product of a
stored index with n or m (the u * n + v edge keys) is formed in int64.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

logger = logging.getLogger(__name__)

# Node labels. The on-disk convention is `node_id<TAB>{0|1}` with 1 = benign.
BENIGN = 1
SYBIL = 0
UNKNOWN = -1

# Classes of the components of the Sybil-induced subgraph (`component_classes`).
CLASS_ISOLATED = "isolated"
CLASS_LCC = "lcc"
CLASS_OTHERS = "others"

# Largest node count whose keys u * n + v (u, v < n) all fit in int64.
_MAX_NODES = math.isqrt(2**63 - 1)


def index_dtype(n: int, m: int) -> type:
    """Storage type of the node and edge ids of a graph with n nodes and m edges."""
    return np.int32 if n < 2**31 and 2 * m < 2**31 else np.int64


class EdgeListParseError(ValueError):
    """Raised for malformed data files (the message names the file and line)."""


def _unique_keys(n: int, a, b, undirected: bool) -> np.ndarray:
    """The ascending distinct keys a * n + b (min * n + max if `undirected`) of
    the pairs within the n nodes. Self-loops and repeats are dropped and
    counted in the log; a self-loop's key becomes -1, which sorts first."""
    if n < 0:
        raise ValueError("node_count must be non-negative")
    if n > _MAX_NODES:
        raise ValueError(f"node_count {n} exceeds {_MAX_NODES}, past which edge keys u * n + v overflow int64")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("endpoint arrays must have equal length")
    if a.size and (a.min() < 0 or b.min() < 0 or max(a.max(), b.max()) >= n):
        raise ValueError("edge endpoint out of range")
    loops = a == b
    keys = np.minimum(a, b) if undirected else a.copy()
    keys *= n
    keys += np.maximum(a, b) if undirected else b
    what = "undirected graph" if undirected else "directed graph"
    dropped = int(np.count_nonzero(loops))
    if dropped:
        logger.warning("dropped %d self-loop%s while building %s", dropped, "s" if dropped != 1 else "", what)
        keys[loops] = -1
    del a, b, loops  # only the keys go on to the sort
    raw = keys.shape[0] - dropped
    keys = _sorted_unique(keys)[1 if dropped else 0:]
    if dup := raw - keys.shape[0]:
        logger.warning("dropped %d duplicate %s%s while building %s", dup, "edge" if undirected else "arc",
                       "s" if dup != 1 else "", what)
    return keys


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique by one plain sort in place, which numpy runs many times faster.
    `keys` is reordered, and returned itself when it holds no repeats."""
    keys.sort()
    new = keys[1:] != keys[:-1]
    return keys if new.all() else keys[np.concatenate(([True], new))]


# Edges per block of `_scatter` and of a walk or LBP round: a block's float64
# temporaries (256 KiB each) stay in a core's L2 cache.
_EDGE_CHUNK = 1 << 15


def _scatter(acc: np.ndarray, *sources) -> np.ndarray:
    """For each (ends, values) source in turn, add values(e) to acc at ends[e] over
    the blocks e of _EDGE_CHUNK edges; return acc. Each node's sum runs in source
    and edge order, as a whole-array bincount's does, but no m-sized temporary is
    made: bincount would first copy all int32 ids to intp (8 bytes per edge)."""
    for ends, values in sources:
        for lo in range(0, ends.shape[0], _EDGE_CHUNK):
            e = slice(lo, lo + _EDGE_CHUNK)
            np.add.at(acc, ends[e], values(e))
    return acc


def _counts(n: int, *ends) -> np.ndarray:
    """The int64 number of times each of the n nodes occurs in the `ends` arrays."""
    return _scatter(np.zeros(n, dtype=np.int64), *((a, lambda e: 1) for a in ends))


class Graph:
    """Immutable undirected simple graph, stored as its canonical edge list.

    Attributes:
        node_count: number of nodes n.
        edge_count: number of undirected edges m.
        edge_u / edge_v: canonical endpoints (edge_u < edge_v), length m, ascending.
        degrees: int64 degree of every node, length n, derived from the edges.

    edge_u and edge_v have the type `index_dtype(n, m)`: int32 while n < 2**31
    and 2m < 2**31, else int64. The CSR members (`indices`, `edge_ids`,
    `position_rows`, `reverse_positions`) are built on first read and stay
    only because the benchmark tracer (`bench/spans.py`) names them; no
    library path reads them.
    """

    def __init__(self, node_count, edge_u, edge_v):
        self.node_count = n = int(node_count)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_count = int(edge_u.shape[0])
        self.degrees = _counts(n, edge_v, edge_u)
        self._rev = None
        self._tri = None

    @classmethod
    def from_edges(cls, node_count: int, u, v) -> "Graph":
        """Build a graph from endpoint arrays; self-loops and duplicates are dropped."""
        n = int(node_count)
        return cls._from_keys(n, _unique_keys(n, u, v, undirected=True))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """The graph of the ascending, unique canonical keys u * n + v (u < v)."""
        m = keys.shape[0]
        idx = index_dtype(n, m)
        return cls(n, *np.divmod(keys, n, out=(np.empty(m, idx), np.empty(m, idx))))

    indices = property(lambda self: self._adjacency[0])
    edge_ids = property(lambda self: self._adjacency[1])

    @functools.cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, edge_ids) over the 2m directed positions, built on first read
        by one stable sort of both directions of every edge by row: row r lists
        its neighbors below r (the edges with edge_v == r, in id order), then
        those above r (edge_u == r, in id order), so each row is ascending.
        Entry k of the two directions is edge k mod m."""
        order = np.argsort(np.concatenate([self.edge_v, self.edge_u]), kind="stable")
        indices = np.concatenate([self.edge_u, self.edge_v])[order]
        order %= self.edge_count
        return indices, order.astype(self.edge_u.dtype, copy=False)

    def position_rows(self) -> np.ndarray:
        """Row (target) node id of every CSR position."""
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)

    def triangle_sums(self, weights=None) -> np.ndarray:
        """Per canonical edge, the number of triangles through it (cached) or,
        with per-node `weights`, the sum of weights[w] over each triangle's
        third vertex w (its common neighbors)."""
        if weights is None and self._tri is None:
            self._tri = _triangle_pass(self, None)
        return self._tri if weights is None else _triangle_pass(self, np.asarray(weights, dtype=float))

    def reverse_positions(self) -> np.ndarray:
        """For CSR position k = (v, u), the position of (u, v). Cached.

        Both positions of each edge go by edge id into a (2, m) table, the
        canonical one (row < column) in row 0; each reads its partner from the other row."""
        if self._rev is None:
            canon = (self.position_rows() < self.indices).view(np.int8)
            ends = np.empty((2, self.edge_count), dtype=np.int64)
            ends[1 - canon, self.edge_ids] = np.arange(self.indices.shape[0])
            self._rev = ends[canon, self.edge_ids]
        return self._rev


# Wedges expanded at a time by the triangle pass; bounds its working arrays.
_WEDGE_CHUNK = 1 << 16


def _triangle_pass(g: Graph, weights: np.ndarray | None) -> np.ndarray:
    """Forward triangle listing (Schank & Wagner 2005; Latapy 2008).

    Each canonical edge points toward its endpoint higher in (degree, id)
    order; as u < v, it flips only when deg[u] > deg[v]. One argsort of the
    oriented keys src * n + dst lists each node's out-edges with their targets
    ascending, and its index is the edge id. A triangle is then found once: as
    a wedge of out-edges p < q of its lowest vertex, closed by an edge that one
    binary search finds among the sorted canonical keys. Wedges are expanded
    _WEDGE_CHUNK at a time; each hit adds 1, or the weight of the vertex
    opposite, to the triangle's three edges.
    """
    n, m = g.node_count, g.edge_count
    out = np.zeros(m, dtype=np.int64 if weights is None else float)
    deg = g.degrees
    flip = deg[g.edge_u] > deg[g.edge_v]
    src, dst = np.where(flip, g.edge_v, g.edge_u), np.where(flip, g.edge_u, g.edge_v)
    eid = np.argsort(np.multiply(src, np.int64(n)) + dst)  # the keys are distinct, so the order is unique
    src, dst = src[eid], dst[eid]
    later = np.cumsum(_counts(n, src))[src] - np.arange(1, m + 1)
    ends = np.cumsum(later)  # wedges pair out-position p with the `later` ones of its row
    starts = np.subtract(ends, later, out=later)
    keys = np.multiply(g.edge_u, np.int64(n)) + g.edge_v
    total = int(ends[-1]) if m else 0
    for lo in range(0, total, _WEDGE_CHUNK):
        hi = min(lo + _WEDGE_CHUNK, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        span = np.arange(first, last + 1)
        p = np.repeat(span, np.minimum(ends[span], hi) - np.maximum(starts[span], lo))
        q = p + 1 + np.arange(lo, hi) - starts[p]
        close = np.multiply(dst[p], np.int64(n)) + dst[q]
        at = np.minimum(np.searchsorted(keys, close), m - 1)
        hit = keys[at] == close
        p, q, at = p[hit], q[hit], at[hit]
        np.add.at(out, np.concatenate([eid[p], eid[q], at]),
                  1 if weights is None else weights[np.concatenate([dst[q], dst[p], src[p]])])
    return out


class DirectedGraph:
    """Immutable directed simple graph; only its out-adjacency is stored: int64
    out_degrees, and each node's arc targets ascending, node by node, in
    out_indices of type `index_dtype(n, m)`."""

    def __init__(self, node_count, out_degrees, out_indices):
        self.node_count = int(node_count)
        self.out_degrees = out_degrees
        self.out_indices = out_indices
        self.edge_count = int(out_indices.shape[0])

    @classmethod
    def from_edges(cls, node_count: int, src, dst) -> "DirectedGraph":
        n = int(node_count)
        keys = _unique_keys(n, src, dst, undirected=False)
        out_indices = np.empty(keys.shape[0], dtype=index_dtype(n, keys.shape[0]))
        srcs, _ = np.divmod(keys, n, out=(keys, out_indices))
        return cls(n, np.bincount(srcs, minlength=n), out_indices)

    in_degrees = property(lambda self: _counts(self.node_count, self.out_indices))


def mutualize(dg: DirectedGraph) -> Graph:
    """Keep an undirected edge {u, v} iff both u->v and v->u exist.

    Arcs are unique, so after one sort of the canonical keys min * n + max a
    key that appears twice is the key of a mutual pair, and only then.
    """
    n = dg.node_count
    src = np.repeat(np.arange(n, dtype=np.int64), dg.out_degrees)
    dst = dg.out_indices
    keys = np.minimum(src, dst)
    keys *= n
    keys += np.maximum(src, dst, out=src)
    del src
    keys.sort()
    return Graph._from_keys(n, keys[1:][keys[1:] == keys[:-1]])


def component_labels(g: Graph, restrict_to=None) -> tuple[np.ndarray, np.ndarray]:
    """Component index of every node (-1 outside `restrict_to`) and the size of
    each component, indexed by descending size, ties by smallest member id.

    Each round hooks every root onto the smallest root next to it and shortcuts
    every node to its root (Shiloach & Vishkin 1982), until no edge joins two
    roots. Roots hook only onto smaller ids, so a component's root is its
    smallest member.
    """
    n = g.node_count
    keep = np.arange(n) if restrict_to is None else np.asarray(restrict_to, dtype=np.int64)
    if keep.size and (keep.min() < 0 or keep.max() >= n):
        raise ValueError("restrict_to contains out-of-range node id")
    active = np.zeros(n, dtype=bool)
    active[keep] = True
    inside = active[g.edge_u] & active[g.edge_v]
    u, v = g.edge_u[inside], g.edge_v[inside]
    root = np.arange(n, dtype=np.int64)
    while u.size:
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
        while not np.array_equal(up := root[root], root):
            root = up
        apart = root[u] != root[v]
        u, v = root[u[apart]], root[v[apart]]
    sizes = np.bincount(root[active], minlength=n)
    heads = np.flatnonzero(sizes)  # ascending, so the stable sort breaks size ties by smallest member
    heads = heads[np.argsort(-sizes[heads], kind="stable")]
    index = np.full(n, -1, dtype=np.int64)
    index[heads] = np.arange(heads.shape[0])
    return index[root], sizes[heads]


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Newman modularity Q of the two-group partition given by a full label map.

    Q = sum over groups of (within-edge fraction - (degree fraction)^2),
    ranging from -0.5 to 1. Every node must be labeled benign or sybil.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != g.node_count:
        raise ValueError("label map must cover every node")
    if np.any(labels == UNKNOWN):
        raise ValueError("modularity requires a full partition (unknown labels present)")
    m = g.edge_count
    if m == 0:
        return 0.0
    q = 0.0
    same = labels[g.edge_u] == labels[g.edge_v]
    for group in (BENIGN, SYBIL):
        within = int(np.count_nonzero(same & (labels[g.edge_u] == group)))
        deg_sum = int(g.degrees[labels == group].sum())
        q += within / m - (deg_sum / (2.0 * m)) ** 2
    return q


def component_classes(sizes: np.ndarray) -> np.ndarray:
    """Class of each component in `component_labels` order, from its size: a
    singleton is isolated, else the first (largest) is the lcc and the rest others."""
    return np.select([np.asarray(sizes) == 1, np.arange(len(sizes)) == 0],
                     [CLASS_ISOLATED, CLASS_LCC], CLASS_OTHERS)


def component_census(sizes: np.ndarray) -> dict[str, int]:
    """Component count and node count per `component_classes` class of
    component sizes in `component_labels` order."""
    sizes = np.asarray(sizes, dtype=np.int64)
    classes = component_classes(sizes)
    return {"components": len(sizes), **{cls: int(sizes[classes == cls].sum())
                                         for cls in (CLASS_ISOLATED, CLASS_LCC, CLASS_OTHERS)}}
