"""TSV readers and writers for the toolkit's file formats.

This is the only module that knows the row format. `read_rows` parses every
TSV data file: blank lines and lines whose first non-blank character is `#`
are skipped, every other line holds one whitespace-separated value per
column, and a bad line, one that is not UTF-8 included, is reported as
`file:line`. numpy's C reader parses a file from its path in one pass; a
binary scan for `#` sends a file with a comment after a value to the error
path, which alone reads the file line by line. Labels, node scores and
features are all read by `read_by_node`. `write_rows` writes every TSV file
as one tab-separated value per column, column by column, each distinct value
formatted once per chunk as its str(), which is repr() for floats, so values
round-trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import os
import warnings

import numpy as np

from .graph import (BENIGN, SYBIL, UNKNOWN, DirectedGraph, EdgeListParseError, Graph,
                    _sorted_unique)

FORMAT_VERSION = 1
_WRITE_CHUNK = 2**12  # rows per write_rows batch
_SCAN_BLOCK = 2**20  # bytes per block of the trailing-comment scan
_PARSE_BLOCK = 2**14  # data lines parsed at a time while the error path looks for a bad one
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# Bytes that cannot be part of a value: the ASCII whitespace of str.strip(), and
# every byte of a non-ASCII character, as numpy parses only ASCII numbers.
_NOT_VALUE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f" + bytes(range(0x80, 0x100))
# Node arrays must stay within a constant factor of what the rows already cost,
# so ids used as given may reach _IDS_PER_ROW per row read plus _ID_FLOOR.
_IDS_PER_ROW = 16
_ID_FLOOR = 1 << 20
# Per-node file kind -> (value type, value for the nodes a file leaves out).
_NODE_VALUES = {"label": (np.int64, UNKNOWN), "score": (np.float64, np.nan),
                "features": (np.float64, 0.0)}


def _data_lines(path):
    """(line number, stripped text) of every data line; a line that is not UTF-8 fails."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raw = line.rstrip("\r\n").encode("utf-8", "surrogateescape")
                    raise EdgeListParseError(f"{path}:{lineno}: not UTF-8 text, got {raw!r}") from None
            text = line.strip()
            if text and text[0] != "#":
                yield lineno, text


def _value_before_comment(path) -> bool:
    """Whether some line holds a `#` after a value (a trailing comment).

    The file is read in binary blocks of _SCAN_BLOCK bytes and only a block that
    holds b"#" is searched further. A line is flagged when a byte outside
    _NOT_VALUE comes before its first `#`. `head` carries the first such byte of
    the unfinished last line of a block into the next one.
    """
    head = b""
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BLOCK):
            text = head + block
            start, after = -1, 0  # line start of the last '#' looked at, and the byte after it
            at = text.find(b"#")
            while at >= 0:
                brk = max(text.rfind(b"\n", after, at), text.rfind(b"\r", after, at))
                if brk >= 0 or start < 0:  # the first '#' of its line
                    start = brk + 1
                    if text[start:at].translate(None, _NOT_VALUE):
                        return True
                after = at + 1
                at = text.find(b"#", after)
            head = text[max(text.rfind(b"\n"), text.rfind(b"\r")) + 1:].translate(None, _NOT_VALUE)[:1]
    return False


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

    numpy's C reader parses the whole file in one pass, given its path, with
    `#` as the comment mark. A `#` after a value is an error, as any extra field
    is, so a binary pre-scan (`_value_before_comment`) sends such a file to the
    error path. Only when the fast path fails are the data lines parsed again,
    _PARSE_BLOCK at a time; the first block that fails is bisected to name its
    first bad line as `file:line`.
    """
    dtype = np.dtype(fields)
    # numpy opens a path itself: it would decompress a file with one of these
    # suffixes, which therefore goes in as an open file, and would fetch a URL.
    plain = not str(path).endswith(_COMPRESSED)
    try:
        if _value_before_comment(path):
            raise ValueError("comment after a value")
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(os.path.abspath(path) if plain else fh, dtype=dtype, comments="#",
                              ndmin=1, encoding="utf-8")
    except ValueError:
        layout = " ".join(f"{name}:{dtype[name].base}"
                          + (f"*{dtype[name].shape[0]}" if dtype[name].shape else "")
                          for name in dtype.names)
        lines = (text for _, text in _data_lines(path))
        row = 0  # data rows before the block
        while block := list(itertools.islice(lines, _PARSE_BLOCK)):
            if not _parses(block, dtype):
                lo, hi = 0, len(block)  # the block's first bad line is in [lo, hi)
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if _parses(block[lo:mid], dtype) else (lo, mid)
                _fail(path, row + lo, f"expected '{layout}'")
            row += len(block)
        raise


def _parses(lines: list[str], dtype: np.dtype) -> bool:
    """Whether numpy parses every one of these data lines into `dtype`."""
    try:
        np.loadtxt(lines, dtype=dtype, comments=None)
    except ValueError:
        return False
    return True


def _table_top(col, rows: int) -> int:
    """Largest id of a range or integer array whose ids may index the id table of a
    `rows`-row file: all non-negative and at most twice the rows. Else -1."""
    if isinstance(col, range) and len(col):
        low, top = sorted((col[0], col[-1]))
    elif isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.size:
        low, top = int(col.min()), int(col.max())
    else:
        return -1
    return top if low >= 0 and top <= 2 * rows else -1


def _texts(part, table) -> list:
    """str() of every value of one column chunk, each distinct value formatted once.

    `table` holds str(i) for every id of a column that indexes it. Floats are
    told apart by their bit pattern, so -0.0 and every nan keep their own text.
    """
    if table is not None:
        if isinstance(part, range):
            part = np.arange(part.start, part.stop, part.step)
        return table[part].tolist()
    if not isinstance(part, np.ndarray):
        return list(map(str, part))
    if part.dtype.kind == "f":
        bits, inverse = np.unique(part.view(f"u{part.dtype.itemsize}"), return_inverse=True)
        values = bits.view(part.dtype)
    else:
        values, inverse = np.unique(part, return_inverse=True)
    return np.array(list(map(str, values.tolist())), dtype=object)[inverse].tolist()


def write_rows(path, *cols) -> None:
    """Write one line of tab-separated values per row of equal-length columns
    (arrays, ranges or sequences).

    Each column is formatted on its own, `_WRITE_CHUNK` rows at a time: ids index
    one table of str(i), built once per call when its size stays within twice the
    rows, and any other column formats each of its distinct values once per chunk.
    Every value is written as its str(), which is repr() for floats.
    """
    lengths = sorted({len(c) for c in cols})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {lengths}")
    rows = lengths[0] if lengths else 0
    tops = [_table_top(c, rows) for c in cols]
    table = np.array(list(map(str, range(max(tops, default=-1) + 1))), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, rows, _WRITE_CHUNK):
            texts = [_texts(c[start:start + _WRITE_CHUNK], table if top >= 0 else None)
                     for c, top in zip(cols, tops)]
            fh.write("\n".join(map("\t".join, zip(*texts))))
            fh.write("\n")


def read_edge_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a `src dst` edge-list file into non-negative endpoint arrays."""
    rows = read_rows(path, [("src", np.int64), ("dst", np.int64)])
    if not rows.size:
        raise EdgeListParseError(f"{path}: no edges found")
    _check(path, (rows["src"] < 0) | (rows["dst"] < 0), "negative node id")
    return rows["src"], rows["dst"]


def _node_count(files) -> int:
    """Largest id + 1 of `(path, largest id of each row)` files whose ids are used
    as given; an id too large for the rows read fails at the first row holding it."""
    rows = sum(top.shape[0] for _, top in files)
    path, top = max(files, key=lambda f: f[1].max(initial=-1))
    largest = int(top.max(initial=-1))
    if largest >= _IDS_PER_ROW * rows + _ID_FLOOR:
        _fail(path, int(np.argmax(top)),
              f"node id {largest} is far above the {rows} row(s) read; remap sparse ids (pipeline --remap-ids)")
    return largest + 1


def load_graph(path, directed: bool = False, remap: bool = False):
    """Load an edge-list file into a Graph or DirectedGraph and its id space for
    `read_by_node`: the node count max id + 1, or with `remap` the sorted original
    ids, whose positions become the nodes. Duplicate edges and self-loops are dropped."""
    src, dst = read_edge_pairs(path)
    if remap:
        ids = _sorted_unique(np.concatenate([src, dst]))
        src, dst = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        n = len(ids)
    else:
        n = ids = _node_count([(path, np.maximum(src, dst))])
    return (DirectedGraph if directed else Graph).from_edges(n, src, dst), ids


def load_edge_list(path, directed: bool = False):
    """The graph of `load_graph` with ids used as given."""
    return load_graph(path, directed)[0]


def write_edge_list(path, g) -> None:
    """Write a Graph (canonical u < v lines) or DirectedGraph (all arcs)."""
    if isinstance(g, Graph):
        src, dst = g.edge_u, g.edge_v
    else:
        src, dst = np.repeat(np.arange(g.node_count), g.out_degrees), g.out_indices
    write_rows(path, src, dst)


def read_by_node(files, ids=None, score_domain=None) -> list[np.ndarray]:
    """Per-node arrays of `(path, kind)` files, kind "label", "score" or "features",
    over the id space `ids` of `load_graph` (by default the files' largest id + 1).
    Each node may be given once, and a row whose id is not a node is a data error,
    as is a score outside `score_domain`, a (test, phrase) pair, when one is given;
    nodes a file leaves out are unknown (labels), nan (scores) or zero (features)."""
    tables = []
    for path, kind in files:
        shape = ()
        if kind == "features":  # the first row sets the feature count
            first = next(_data_lines(path), (0, ""))[1]
            shape = (max(len(first.split()) - 1, 1),)
        rows = read_rows(path, [("node", np.int64), (kind, _NODE_VALUES[kind][0], shape)])
        _check(path, _repeats(rows["node"]), "repeated node id")
        values = rows[kind]
        if kind == "label":
            _check(path, (values != BENIGN) & (values != SYBIL), "label must be 0 or 1")
            values = values.astype(np.int8)
        if kind == "score" and score_domain:
            _check(path, ~score_domain[0](values), f"score {score_domain[1]}")
        tables.append((path, kind, rows["node"], values))
    if ids is None:
        ids = _node_count([(path, nodes) for path, _, nodes, _ in tables])
    remapped = isinstance(ids, np.ndarray)
    n = len(ids) if remapped else ids
    out = []
    for path, kind, nodes, values in tables:
        if remapped:  # an original id that is not a node becomes -1
            at = np.searchsorted(ids, nodes)
            nodes = np.where(np.append(ids, -1)[at] == nodes, at, -1)
        _check(path, (nodes < 0) | (nodes >= n), "unknown node id")
        array = np.full((n,) + values.shape[1:], _NODE_VALUES[kind][1], dtype=values.dtype)
        array[nodes] = values
        out.append(array)
    return out


def write_labels(path, labels: np.ndarray) -> None:
    """Write `node_id<TAB>{0|1}` rows (1 = benign, 0 = sybil); unknown nodes skipped."""
    labels = np.asarray(labels)
    known = np.flatnonzero(labels != UNKNOWN)
    write_rows(path, known, labels[known])


def write_id_map(path, original_ids: np.ndarray) -> None:
    """Write `dense_id<TAB>original_id` rows for remapped inputs."""
    original_ids = np.asarray(original_ids)
    write_rows(path, range(original_ids.shape[0]), original_ids)


def write_node_scores(path, scores: np.ndarray) -> None:
    """Write `node_id<TAB>score` rows."""
    scores = np.asarray(scores, dtype=float)
    write_rows(path, range(scores.shape[0]), scores)


def write_edge_scores(path, g: Graph, values: np.ndarray) -> None:
    """Write `u<TAB>v<TAB>score` rows with u < v, in canonical edge order."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != g.edge_count:
        raise ValueError("edge score array does not match graph edge count")
    write_rows(path, g.edge_u, g.edge_v, values)


def read_edge_scores(path, g: Graph, domain=None) -> np.ndarray:
    """Read per-edge scores; every edge of g must be covered exactly once, and
    each score pass `domain`, a (test, phrase) pair, when one is given."""
    rows = read_rows(path, [("u", np.int64), ("v", np.int64), ("score", np.float64)])
    if domain:
        _check(path, ~domain[0](rows["score"]), f"edge score {domain[1]}")
    n, m = g.node_count, g.edge_count
    lo, hi = np.minimum(rows["u"], rows["v"]), np.maximum(rows["u"], rows["v"])
    _check(path, (lo < 0) | (hi >= n), "node id out of range")
    keys = lo * n + hi
    canon = np.append(np.multiply(g.edge_u, np.int64(n)) + g.edge_v, -1)  # the -1 matches no key
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
    write_rows(path, range(features.shape[0]), *features.T)


def write_component_report(path, sizes: np.ndarray) -> None:
    """Write `component_id<TAB>size` rows of component sizes (already size-sorted)."""
    write_rows(path, range(len(sizes)), sizes)


def write_metrics_report(path, rows) -> None:
    """Write `metric<TAB>parameter<TAB>value` rows."""
    write_rows(path, *zip(*rows))


def write_sweep_table(path, rows) -> None:
    """Write `variable_value<TAB>engine<TAB>metric<TAB>mean<TAB>std<TAB>trials` rows."""
    write_rows(path, *zip(*rows))
