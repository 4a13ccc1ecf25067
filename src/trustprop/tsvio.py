"""TSV readers and writers for the toolkit's file formats.

This is the only module that knows the row format. `read_rows` parses every
TSV data file: blank lines and lines whose first non-blank character is `#`
are skipped, every other line holds one whitespace-separated value per
column, and a bad line is reported as `file:line`. `write_rows` writes every
TSV file from Python values, whose str() is repr() for floats, so values
round-trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import BENIGN, SYBIL, UNKNOWN, DirectedGraph, EdgeListParseError, Graph

FORMAT_VERSION = 1
_WRITE_CHUNK = 2**15  # rows per write_rows batch


def _data_lines(path):
    """(line number, stripped text) of every data line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if text and text[0] != "#":
                yield lineno, text


def _fail(path, row: int, problem: str):
    """Raise EdgeListParseError naming the file line of data row `row`."""
    lineno, text = next(itertools.islice(_data_lines(path), row, None))
    raise EdgeListParseError(f"{path}:{lineno}: {problem}, got {text!r}") from None


def _check(path, bad: np.ndarray, problem: str) -> None:
    """Reject the first row flagged in `bad`."""
    if bad.any():
        _fail(path, int(np.argmax(bad)), problem)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Flags the rows whose key already appeared on an earlier row."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeat = np.zeros(keys.shape[0], dtype=bool)
    repeat[order[1:][ordered[1:] == ordered[:-1]]] = True
    return repeat


def read_rows(path, fields) -> np.ndarray:
    """Parse the data lines of a file into a structured array of `fields`.

    numpy parses all lines in one pass. Only when that fails are the lines
    parsed one at a time, to name the first bad one. `comments=None` keeps a
    trailing `# ...` after the values an error, as it is for any extra field.
    """
    dtype = np.dtype(fields)
    lines = (text for _, text in _data_lines(path))
    first = next(lines, None)
    if first is None:
        return np.empty(0, dtype)
    try:
        return np.loadtxt(itertools.chain([first], lines), dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        layout = " ".join(f"{name}:{dtype[name].base}"
                          + (f"*{dtype[name].shape[0]}" if dtype[name].shape else "")
                          for name in dtype.names)
        for row, (_, text) in enumerate(_data_lines(path)):
            try:
                np.loadtxt([text], dtype=dtype, comments=None)
            except ValueError:
                _fail(path, row, f"expected '{layout}'")
        raise


def write_rows(path, fmt: str, *cols) -> None:
    """Write one `fmt % row` line per row of the columns (arrays, ranges or sequences).

    The columns become Python values `_WRITE_CHUNK` rows at a time, so no
    whole column is held as a list of Python objects.
    """
    rows = min(map(len, cols), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, rows, _WRITE_CHUNK):
            chunk = [c[start:start + _WRITE_CHUNK] for c in cols]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            fh.writelines(map(fmt.__mod__, zip(*chunk)))


def read_edge_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a `src dst` edge-list file into non-negative endpoint arrays."""
    rows = read_rows(path, [("src", np.int64), ("dst", np.int64)])
    if not rows.size:
        raise EdgeListParseError(f"{path}: no edges found")
    _check(path, (rows["src"] < 0) | (rows["dst"] < 0), "negative node id")
    return rows["src"], rows["dst"]


def load_edge_list(path, directed: bool = False):
    """Load an edge-list file into a Graph or DirectedGraph.

    Node count is max id + 1; ids are used as given (see `graph.remap_ids`
    for sparse inputs). Duplicate edges and self-loops are dropped.
    """
    src, dst = read_edge_pairs(path)
    n = int(max(src.max(), dst.max())) + 1
    return (DirectedGraph if directed else Graph).from_edges(n, src, dst)


def write_edge_list(path, g) -> None:
    """Write a Graph (canonical u < v lines) or DirectedGraph (all arcs)."""
    if isinstance(g, Graph):
        src, dst = g.edge_u, g.edge_v
    else:
        src, dst = np.repeat(np.arange(g.node_count), g.out_degrees), g.out_indices
    write_rows(path, "%s\t%s\n", src, dst)


def _read_by_node(path, field) -> tuple[np.ndarray, np.ndarray]:
    """(node ids, values) of a file keyed by node id, each id given once."""
    rows = read_rows(path, [("node", np.int64), field])
    _check(path, _repeats(rows["node"]), "repeated node id")
    return rows["node"], rows[field[0]]


def by_node(path, ids: np.ndarray, values: np.ndarray, node_count: int, fill) -> np.ndarray:
    """Per-node array of the (ids, values) read from `path`, `fill` for the nodes not listed."""
    _check(path, (ids < 0) | (ids >= node_count), "node id out of range")
    out = np.full((node_count,) + values.shape[1:], fill, dtype=values.dtype)
    out[ids] = values
    return out


def write_labels(path, labels: np.ndarray) -> None:
    """Write `node_id<TAB>{0|1}` rows (1 = benign, 0 = sybil); unknown nodes skipped."""
    labels = np.asarray(labels)
    known = np.flatnonzero(labels != UNKNOWN)
    write_rows(path, "%s\t%s\n", known, labels[known])


def read_label_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (node_id, label) rows; `by_node` range-checks the ids."""
    nodes, labs = _read_by_node(path, ("label", np.int64))
    _check(path, (labs != BENIGN) & (labs != SYBIL), "label must be 0 or 1")
    return nodes, labs.astype(np.int8)


def read_labels(path, node_count: int) -> np.ndarray:
    """Read a label file into a full array; nodes absent from the file are unknown."""
    return by_node(path, *read_label_pairs(path), node_count, UNKNOWN)


def write_id_map(path, original_ids: np.ndarray) -> None:
    """Write `dense_id<TAB>original_id` rows for remapped inputs."""
    original_ids = np.asarray(original_ids)
    write_rows(path, "%s\t%s\n", range(original_ids.shape[0]), original_ids)


def write_node_scores(path, scores: np.ndarray) -> None:
    """Write `node_id<TAB>score` rows."""
    scores = np.asarray(scores, dtype=float)
    write_rows(path, "%s\t%s\n", range(scores.shape[0]), scores)


def read_node_score_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (node_id, score) rows; `by_node` range-checks the ids."""
    return _read_by_node(path, ("score", np.float64))


def read_node_scores(path, node_count: int) -> np.ndarray:
    """Read a node-score file into a full array; nodes absent from the file are nan."""
    return by_node(path, *read_node_score_pairs(path), node_count, np.nan)


def write_edge_scores(path, g: Graph, values: np.ndarray) -> None:
    """Write `u<TAB>v<TAB>score` rows with u < v, in canonical edge order."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != g.edge_count:
        raise ValueError("edge score array does not match graph edge count")
    write_rows(path, "%s\t%s\t%s\n", g.edge_u, g.edge_v, values)


def read_edge_scores(path, g: Graph) -> np.ndarray:
    """Read per-edge scores; every edge of g must be covered exactly once."""
    rows = read_rows(path, [("u", np.int64), ("v", np.int64), ("score", np.float64)])
    n, m = g.node_count, g.edge_count
    lo, hi = np.minimum(rows["u"], rows["v"]), np.maximum(rows["u"], rows["v"])
    _check(path, (lo < 0) | (hi >= n), "node id out of range")
    keys = lo * n + hi
    canon = np.append(g.edge_u * n + g.edge_v, -1)  # the -1 matches no key
    idx = np.searchsorted(canon[:-1], keys)
    _check(path, canon[idx] != keys, "edge not present in graph")
    _check(path, _repeats(idx), "repeated edge")
    if rows.shape[0] < m:
        raise EdgeListParseError(f"{path}: {m - rows.shape[0]} edge(s) missing a score")
    values = np.empty(m)
    values[idx] = rows["score"]
    return values


def write_features(path, features: np.ndarray) -> None:
    """Write `node_id<TAB>req_in<TAB>req_out<TAB>cc` rows."""
    features = np.asarray(features, dtype=float)
    write_rows(path, "%s" + "\t%s" * features.shape[1] + "\n",
               range(features.shape[0]), *features.T)


def read_feature_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (node_id, feature row) rows; the first row sets the feature count."""
    first = next(_data_lines(path), (0, ""))[1]
    return _read_by_node(path, ("features", np.float64, (max(len(first.split()) - 1, 1),)))


def read_features(path, node_count: int) -> np.ndarray:
    """Read a feature file into a full matrix; nodes absent from the file get zeros."""
    return by_node(path, *read_feature_pairs(path), node_count, 0.0)


def write_component_report(path, components) -> None:
    """Write `component_id<TAB>size` rows (components already size-sorted)."""
    write_rows(path, "%s\t%s\n", range(len(components)), [c.shape[0] for c in components])


def write_metrics_report(path, rows) -> None:
    """Write `metric<TAB>parameter<TAB>value` rows."""
    write_rows(path, "%s\t%s\t%s\n", *zip(*rows))


def write_sweep_table(path, rows) -> None:
    """Write `variable_value<TAB>engine<TAB>metric<TAB>mean<TAB>std<TAB>trials` rows."""
    write_rows(path, "%s\t%s\t%s\t%s\t%s\t%s\n", *zip(*rows))
