from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustprop import tsvio
from trustprop.graph import BENIGN, SYBIL, UNKNOWN, DirectedGraph, EdgeListParseError, Graph
from trustprop.tsvio import load_edge_list, read_edge_pairs

from conftest import arcs, graph_from_pairs, read_rows_oracle, write_rows_oracle


class TestLabels:
    def test_round_trip_skips_unknown(self, tmp_path):
        labels = np.array([BENIGN, SYBIL, UNKNOWN, BENIGN], dtype=np.int8)
        path = tmp_path / "labels.tsv"
        tsvio.write_labels(path, labels)
        assert np.array_equal(tsvio.read_by_node([(path, "label")], 4)[0], labels)
        assert len(path.read_text().splitlines()) == 3

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("0\t2\n")
        with pytest.raises(EdgeListParseError):
            tsvio.read_by_node([(path, "label")], 2)

    def test_out_of_range_node(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("7\t1\n")
        with pytest.raises(EdgeListParseError):
            tsvio.read_by_node([(path, "label")], 3)


class TestNodeScores:
    def test_round_trip_exact(self, tmp_path):
        scores = np.array([0.1, 0.45000000000000001, 1 / 3, 0.9])
        path = tmp_path / "scores.tsv"
        tsvio.write_node_scores(path, scores)
        assert np.array_equal(tsvio.read_by_node([(path, "score")], 4)[0], scores)

    def test_missing_rows_are_nan(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("1\t0.5\n")
        scores = tsvio.read_by_node([(path, "score")], 3)[0]
        assert np.isnan(scores[0])
        assert scores[1] == 0.5


class TestEdgeScores:
    def test_round_trip(self, tmp_path):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        values = np.array([0.2, 0.5, 0.8])
        path = tmp_path / "edges.tsv"
        tsvio.write_edge_scores(path, g, values)
        assert np.array_equal(tsvio.read_edge_scores(path, g), values)

    def test_reversed_endpoints_accepted(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        path = tmp_path / "edges.tsv"
        path.write_text("1\t0\t0.3\n2\t1\t0.7\n")
        assert tsvio.read_edge_scores(path, g).tolist() == [0.3, 0.7]

    def test_missing_edge_error(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t0.3\n")
        with pytest.raises(EdgeListParseError, match="missing"):
            tsvio.read_edge_scores(path, g)

    def test_unknown_edge_error(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1)])
        path = tmp_path / "edges.tsv"
        path.write_text("0\t2\t0.3\n")
        with pytest.raises(EdgeListParseError, match="not present"):
            tsvio.read_edge_scores(path, g)

    def test_length_mismatch_on_write(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            tsvio.write_edge_scores(tmp_path / "edges.tsv", g, np.array([0.5]))


class TestFeaturesFile:
    def test_round_trip(self, tmp_path):
        feats = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 2 / 3]])
        path = tmp_path / "features.tsv"
        tsvio.write_features(path, feats)
        assert np.array_equal(tsvio.read_by_node([(path, "features")], 2)[0], feats)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("0\t0.1\t0.2\n1\t0.3\n")
        with pytest.raises(EdgeListParseError):
            tsvio.read_by_node([(path, "features")], 2)


class TestEdgeListFile:
    def test_graph_round_trip(self, tmp_path):
        g = graph_from_pairs(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
        path = tmp_path / "graph.tsv"
        tsvio.write_edge_list(path, g)
        g2 = load_edge_list(path)
        assert np.array_equal(g.edge_u, g2.edge_u)
        assert np.array_equal(g.edge_v, g2.edge_v)

    def test_directed_round_trip(self, tmp_path):
        from conftest import digraph_from_pairs, in_neighbors, out_neighbors
        dg = digraph_from_pairs(3, [(0, 1), (1, 0), (2, 1)])
        path = tmp_path / "digraph.tsv"
        tsvio.write_rows(path, *arcs(dg))
        dg2 = load_edge_list(path, directed=True)
        assert dg2.edge_count == 3
        assert out_neighbors(dg2, 0).tolist() == [1]
        assert in_neighbors(dg2, 1).tolist() == [0, 2]


class TestNodeIdSpace:
    """Per-node files over the node count or the sorted original ids of a remapped graph."""

    def test_remapped_graph_maps_every_per_node_file(self, tmp_path):
        (tmp_path / "g.tsv").write_text("900\t10\n10\t500\n")
        (tmp_path / "l.tsv").write_text("500\t0\n900\t1\n")
        (tmp_path / "s.tsv").write_text("10\t0.25\n")
        (tmp_path / "f.tsv").write_text("900\t1.0\t2.0\n")
        _, ids = tsvio.load_graph(tmp_path / "g.tsv", remap=True)
        labels, scores, feats = tsvio.read_by_node(
            [(tmp_path / "l.tsv", "label"), (tmp_path / "s.tsv", "score"), (tmp_path / "f.tsv", "features")], ids)
        assert labels.tolist() == [UNKNOWN, SYBIL, BENIGN]
        assert _bits(scores) == _bits([0.25, np.nan, np.nan])
        assert feats.tolist() == [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]

    @pytest.mark.parametrize("text", ["10\t1\n11\t0\n", "10\t1\n-1\t0\n", "10\t1\n901\t0\n"])
    def test_id_off_the_remapped_graph_names_line(self, tmp_path, text):
        (tmp_path / "g.tsv").write_text("900\t10\n10\t500\n")
        (tmp_path / "l.tsv").write_text(text)
        _, ids = tsvio.load_graph(tmp_path / "g.tsv", remap=True)
        with pytest.raises(EdgeListParseError, match=":2: unknown node id"):
            tsvio.read_by_node([(tmp_path / "l.tsv", "label")], ids)

    def test_files_share_one_id_space(self, tmp_path):
        (tmp_path / "l.tsv").write_text("0\t1\n")
        (tmp_path / "s.tsv").write_text("3\t0.5\n")
        labels, scores = tsvio.read_by_node([(tmp_path / "l.tsv", "label"), (tmp_path / "s.tsv", "score")])
        assert labels.shape == scores.shape == (4,)

    def test_sparse_bound(self, tmp_path):
        # one row may name ids up to _IDS_PER_ROW + _ID_FLOOR - 1
        bound = tsvio._IDS_PER_ROW + tsvio._ID_FLOOR
        path = tmp_path / "l.tsv"
        path.write_text(f"# header\n{bound - 1}\t1\n")
        assert tsvio.read_by_node([(path, "label")])[0].shape == (bound,)
        path.write_text(f"# header\n{bound}\t1\n")
        with pytest.raises(EdgeListParseError, match=f":2: node id {bound} is far above the 1 row"):
            tsvio.read_by_node([(path, "label")])

    def test_sparse_edge_list_names_the_row_of_the_largest_id(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n1000000000000000\t2\n3\t1000000000000000\n")
        with pytest.raises(EdgeListParseError, match=":2: .*--remap-ids"):
            load_edge_list(path, directed=True)
        g, ids = tsvio.load_graph(path, remap=True)
        assert g.node_count == 5 and ids[-1] == 10**15


# Floats whose text the writer must keep apart: both zeros, nans of other sign and
# payload, both infinities, subnormals and the largest finite values.
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64),
                  np.inf, -np.inf, 5e-324, -1e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.5]
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
WRITER_COLUMNS = {
    "dense ids": lambda n: st.lists(st.integers(0, 2 * n), min_size=n, max_size=n).map(np.array),
    "sparse ids": lambda n: st.lists(st.integers(0, 2**62), min_size=n, max_size=n).map(np.array),
    "negative ints": lambda n: st.lists(st.integers(-2**63, 3), min_size=n, max_size=n).map(np.array),
    "int8 labels": lambda n: st.lists(st.integers(-128, 127), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int8)),
    "range": lambda n: st.just(range(1, n + 1)),
    "floats": lambda n: st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                                 min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
    "strings": lambda n: st.lists(TEXT, min_size=n, max_size=n).map(lambda v: np.array(v, dtype="U8")),
    "mixed tuple": lambda n: st.lists(st.one_of(TEXT, st.integers(), st.floats()),
                                      min_size=n, max_size=n).map(tuple),
}


@st.composite
def writer_columns(draw):
    """One to five equal-length columns, each of a kind drawn from WRITER_COLUMNS."""
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(WRITER_COLUMNS)), min_size=1, max_size=5))
    return [draw(WRITER_COLUMNS[kind](n)) for kind in kinds]


class TestRowWriter:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 2**15])
    def test_arrays_ranges_and_sequences(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(tsvio, "_WRITE_CHUNK", chunk)
        path = tmp_path / "rows.tsv"
        tsvio.write_rows(path, range(5), np.array([0.1, 1 / 3, 2.0, 1e-300, -0.0]),
                         np.array(["lcc", "b", "c", "d", "e"]), (1, 2, 3, 4, 5))
        assert path.read_text() == ("0\t0.1\tlcc\t1\n1\t0.3333333333333333\tb\t2\n2\t2.0\tc\t3\n"
                                    "3\t1e-300\td\t4\n4\t-0.0\te\t5\n")

    def test_row_tuples_and_no_rows(self, tmp_path):
        path = tmp_path / "m.tsv"
        tsvio.write_metrics_report(path, [("auc", "", 0.5), ("top_k", 10, 1.0)])
        assert path.read_text() == "auc\t\t0.5\ntop_k\t10\t1.0\n"
        tsvio.write_metrics_report(path, [])
        assert path.read_text() == ""

    @pytest.mark.parametrize("chunk", [1, 3, tsvio._WRITE_CHUNK])
    @settings(max_examples=80, deadline=None)
    @given(cols=writer_columns())
    def test_matches_the_row_oracle(self, tmp_path_factory, chunk, cols):
        out = tmp_path_factory.mktemp("rows")
        with mock.patch.object(tsvio, "_WRITE_CHUNK", chunk):
            tsvio.write_rows(out / "rows.tsv", *cols)
        write_rows_oracle(out / "oracle.tsv", "\t".join(["%s"] * len(cols)) + "\n", *cols)
        assert (out / "rows.tsv").read_bytes() == (out / "oracle.tsv").read_bytes()

    def test_ragged_columns_rejected(self, tmp_path):
        path = tmp_path / "rows.tsv"
        with pytest.raises(ValueError, match=r"unequal length \[2, 3\]"):
            tsvio.write_rows(path, range(3), np.array([0.5, 0.25]))
        assert not path.exists()


# Text the reader must split, skip and parse as the line-by-line oracle does: every
# line end, whitespace that str.strip() and numpy both skip, comment marks, signs,
# dots and stray letters.
READER_ALPHABET = ["0", "1", "7", "42", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\xa0",
                   "\x85", "\x1c", "\u3000", "\x00", "é", "#", "-", "+", ".", "e", "x", "nan", "inf"]
READER_INTS = ["0", "3", "-2", "+5", "007", "9223372036854775807"]
READER_FLOATS = READER_INTS + ["1.5", "-0.0", ".5", "1e3", "nan", "-inf"]
READER_BLANKS = [" ", "\t", "\x0b", "\x0c", "\xa0", "\x85", "\u3000"]
READER_FIELDS = [[("a", np.int64), ("b", np.int64)], [("a", np.int64), ("b", np.float64)],
                 [("a", np.int64), ("b", np.int64), ("c", np.float64)],
                 [("a", np.int64), ("f", np.float64, (2,))]]


@st.composite
def reader_files(draw):
    """Fields and a text of rows for them, comment lines, blank lines, rows with a
    trailing comment, a wrong value or a wrong count, and free text, with mixed line ends."""
    fields = draw(st.sampled_from(READER_FIELDS))
    dtype = np.dtype(fields)
    values = [READER_INTS if dtype[name].base.kind == "i" else READER_FLOATS
              for name in dtype.names for _ in range(dtype[name].shape[0] if dtype[name].shape else 1)]
    blanks = st.lists(st.sampled_from(READER_BLANKS), max_size=2).map("".join)
    sep = st.lists(st.sampled_from(READER_BLANKS), min_size=1, max_size=2).map("".join)
    row = st.tuples(blanks, *(st.tuples(st.sampled_from(v), sep) for v in values)).map(
        lambda r: r[0] + "".join(v + s for v, s in r[1:]))
    good = st.one_of(row, row, row, blanks, blanks.map(lambda b: b + "# note #"))
    bad = st.one_of(row.map(lambda r: r + "# note"), row.map(lambda r: r + "1.5 "),
                    st.lists(st.sampled_from(READER_ALPHABET), max_size=12).map("".join))
    line = st.sampled_from([good] * 7 + [bad]).flatmap(lambda kind: kind)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r", "\n"])), max_size=8))
    text = "".join(a + b for a, b in lines)
    return fields, text[:-1] if text and draw(st.booleans()) else text


def _rows_or_error(reader, path, fields):
    """The rows' bytes, or the message of the EdgeListParseError the reader raised."""
    try:
        return reader(path, fields).tobytes()
    except EdgeListParseError as exc:
        return str(exc)


class TestRowReader:
    def test_trailing_comment_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n  # indented comment\n0\t1\n1 2 # note\n")
        with pytest.raises(EdgeListParseError, match=":4:"):
            read_edge_pairs(path)

    @pytest.mark.parametrize("token", ["1180591620717411303424", "-9223372036854775809",
                                       "1_000", "1e3", "1.0", "0x10"])
    def test_non_int64_id_names_line(self, tmp_path, token):
        path = tmp_path / "g.tsv"
        path.write_text(f"0\t1\n\n{token}\t2\n")
        with pytest.raises(EdgeListParseError, match=":3:"):
            read_edge_pairs(path)

    def test_negative_id_names_line(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n1\t-2\n")
        with pytest.raises(EdgeListParseError, match=":2: negative"):
            read_edge_pairs(path)

    def test_full_int64_range(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("3 4\n9223372036854775807\t0\n")
        src, dst = read_edge_pairs(path)
        assert src.dtype == dst.dtype == np.int64
        assert src.tolist() == [3, 2**63 - 1] and dst.tolist() == [4, 0]

    @pytest.mark.parametrize("text, rows", [
        ("# only\n  # comments\n\n", []),
        ("0 1\n# last line, no newline", [(0, 1)]),
        ("0\t1\r\n# c\r\n2 3\r\n", [(0, 1), (2, 3)]),
        ("0 1\r2 3\r", [(0, 1), (2, 3)]),
        ("\xa0# indented by a no-break space\n\x0b4\u30005\x85\n", [(4, 5)]),
    ])
    def test_comments_blanks_and_line_ends(self, tmp_path, text, rows):
        path = tmp_path / "g.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert tsvio.read_rows(path, [("a", np.int64), ("b", np.int64)]).tolist() == rows

    def test_header_file_parsed_in_one_pass(self, tmp_path, monkeypatch):
        def no_line_path(lines, dtype):
            raise AssertionError("read line by line")
        monkeypatch.setattr(tsvio, "_parse", no_line_path)
        path = tmp_path / "g.tsv"
        path.write_text("# arcs\n\n  # src dst\n0\t1\n2\t3\n")
        assert tsvio.read_rows(path, [("a", np.int64), ("b", np.int64)]).tolist() == [(0, 1), (2, 3)]

    def test_comment_line_after_the_first_row_changes_no_row(self, tmp_path):
        fields = [("u", np.int64), ("v", np.int64), ("w", np.float64)]
        lines = [f"{i}\t{i * 7 % 50}\t{i / 3!r}\n" for i in range(300)]
        plain, commented = tmp_path / "plain.tsv", tmp_path / "commented.tsv"
        plain.write_text("".join(lines))
        commented.write_text("".join(lines[:120] + ["# note\n"] + lines[120:]))
        want = tsvio.read_rows(plain, fields)
        got = tsvio.read_rows(commented, fields)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sep, rows", [
        ("\r", [(0, 1), (2, 3)]), ("\r\n", [(0, 1), (2, 3)]), ("\n\n", [(0, 1), (2, 3)]),
        *((sep, [(2, 3)]) for sep in ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029", "\x00"]),
    ])
    def test_header_line_ends_are_the_line_readers(self, tmp_path, sep, rows):
        # Only \n, \r and \r\n end a line; the first data line starts numpy's pass.
        path = tmp_path / "g.tsv"
        path.write_bytes(f"# c{sep}0 1\n2 3\n".encode("utf-8"))
        assert tsvio.read_rows(path, [("a", np.int64), ("b", np.int64)]).tolist() == rows
        path.write_bytes(f"# c{sep}# d\n2 3\n".encode("utf-8"))
        assert tsvio.read_rows(path, [("a", np.int64), ("b", np.int64)]).tolist() == [(2, 3)]

    def test_trailing_comment_on_the_last_row_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0 1\n2 3 #")
        with pytest.raises(EdgeListParseError, match=":2:"):
            read_edge_pairs(path)

    @pytest.mark.parametrize("block", range(1, 9))
    def test_comment_mark_across_scan_blocks(self, tmp_path, monkeypatch, block):
        # A `#` fails numpy's one-pass read, so these files go through the line
        # path, which parses _PARSE_BLOCK data lines at a time.
        monkeypatch.setattr(tsvio, "_PARSE_BLOCK", block)
        path = tmp_path / "g.tsv"
        path.write_text("# a ## b\n\xa0 # c #\n0 1\n")
        assert read_edge_pairs(path)[0].tolist() == [0]
        path.write_text("# a\n0 1\n\xa02 3 # d\n# e\n")
        with pytest.raises(EdgeListParseError, match=":3:"):
            read_edge_pairs(path)

    def test_undecodable_line_named(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"0 1\n# caf\xc3\xa9\n2\t\xff\n3 4\n")
        with pytest.raises(EdgeListParseError, match=r":3: not UTF-8 text, got b'2\\t\\xff'"):
            read_edge_pairs(path)

    def test_compressed_suffix_read_as_text(self, tmp_path):
        path = tmp_path / "g.tsv.gz"
        path.write_text("0 1\n2 3\n")
        assert read_edge_pairs(path)[1].tolist() == [1, 3]
        path.write_text("0 1\n2 3 # c\n")
        with pytest.raises(EdgeListParseError, match=":2:"):
            read_edge_pairs(path)

    @settings(max_examples=300, deadline=None)
    @given(file=reader_files())
    def test_matches_the_line_oracle(self, tmp_path_factory, file):
        fields, text = file
        path = tmp_path_factory.mktemp("rows") / "f.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert _rows_or_error(tsvio.read_rows, path, fields) == _rows_or_error(read_rows_oracle, path, fields)


    @settings(max_examples=150, deadline=None)
    @given(file=reader_files(), block=st.sampled_from([1, 2, 3, 5]))
    def test_bisected_blocks_match_the_line_oracle(self, tmp_path_factory, file, block):
        fields, text = file
        path = tmp_path_factory.mktemp("rows") / "f.tsv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(tsvio, "_PARSE_BLOCK", block):
            assert _rows_or_error(tsvio.read_rows, path, fields) == _rows_or_error(read_rows_oracle, path, fields)

    def test_bad_last_line_of_a_long_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# arcs\n" + "".join(f"{i}\t{i * 7 % 1000}\n" for i in range(200_000)) + "5\t6\t7\n")
        fields = [("u", np.int64), ("v", np.int64)]
        message = _rows_or_error(tsvio.read_rows, path, fields)
        assert message == f"{path}:200002: expected 'u:int64 v:int64', got '5\\t6\\t7'"
        assert message == _rows_or_error(read_rows_oracle, path, fields)

def read_labels_sized_by_file(path):
    """A label file over the id space of its own largest id."""
    return tsvio.read_by_node([(path, "label")])[0]


class TestRepeatedRows:
    """A node or edge given twice is a data error naming the second line."""

    @pytest.mark.parametrize("reader, text", [
        (lambda p: tsvio.read_by_node([(p, "label")], 3)[0], "0\t1\n2\t0\n0\t0\n"),
        (lambda p: tsvio.read_by_node([(p, "label")], 3)[0], "0\t1\n2\t0\n0\t1\n"),
        (read_labels_sized_by_file, "0\t1\n2\t0\n0\t0\n"),
        (lambda p: tsvio.read_by_node([(p, "score")], 3)[0], "0\t0.5\n1\t0.2\n0\t0.7\n"),
        (lambda p: tsvio.read_by_node([(p, "features")], 3)[0], "0\t1.0\t2.0\n1\t1.0\t2.0\n0\t3.0\t4.0\n"),
    ])
    def test_repeated_node(self, tmp_path, reader, text):
        path = tmp_path / "f.tsv"
        path.write_text(text)
        with pytest.raises(EdgeListParseError, match=":3: repeated node id"):
            reader(path)

    def test_repeated_edge_either_orientation(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t0.3\n1\t2\t0.5\n1\t0\t0.7\n")
        with pytest.raises(EdgeListParseError, match=":3: repeated edge"):
            tsvio.read_edge_scores(path, g)

    def test_duplicate_arcs_stay_allowed(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n0\t1\n1\t0\n")
        assert load_edge_list(path).edge_count == 1
        assert load_edge_list(path, directed=True).edge_count == 2


def _assert_read_back(read, written, kind: str) -> None:
    """A per-node file reads back bit for bit, unless a row holds a nan or an
    infinity: then the first such row fails at its line (row i is line i + 1)."""
    written = np.asarray(written, dtype=float)
    bad = ~np.isfinite(written).all(axis=tuple(range(1, written.ndim)))
    if bad.any():
        with pytest.raises(EdgeListParseError, match=rf":{int(np.argmax(bad)) + 1}: {kind} must be finite"):
            read()
    else:
        got = read()
        assert got.shape == written.shape and _bits(got) == _bits(written)


def _bits(values) -> bytes:
    """Exact bytes of a float array, with every nan made the same nan."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


EXTREMES = st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                            1e308, -1.7976931348623157e308, -0.0, 0.1])
FLOATS = st.one_of(st.floats(), EXTREMES)


@st.composite
def edge_lists(draw, max_nodes=12):
    n = draw(st.integers(2, max_nodes))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=30))
    u, v = np.array(pairs, dtype=np.int64).T
    return n, u, v


class TestWriteReadIdentity:
    """Writing then reading every file format gives back what was written."""

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists())
    def test_undirected_edge_list(self, tmp_path_factory, edges):
        n, u, v = edges
        g = Graph.from_edges(n, u, v)
        if g.edge_count == 0:
            return
        path = tmp_path_factory.mktemp("el") / "graph.tsv"
        tsvio.write_edge_list(path, g)
        src, dst = read_edge_pairs(path)
        assert np.array_equal(src, g.edge_u) and np.array_equal(dst, g.edge_v)

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists())
    def test_directed_edge_list(self, tmp_path_factory, edges):
        n, u, v = edges
        dg = DirectedGraph.from_edges(n, u, v)
        if dg.edge_count == 0:
            return
        path = tmp_path_factory.mktemp("el") / "arcs.tsv"
        tsvio.write_rows(path, *arcs(dg))
        src, dst = read_edge_pairs(path)
        assert np.array_equal(src, np.repeat(np.arange(n), dg.out_degrees))
        assert np.array_equal(dst, dg.out_indices)

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.sampled_from([BENIGN, SYBIL, UNKNOWN]), max_size=40))
    def test_labels(self, tmp_path_factory, labels):
        labels = np.array(labels, dtype=np.int8)
        path = tmp_path_factory.mktemp("lab") / "labels.tsv"
        tsvio.write_labels(path, labels)
        got = tsvio.read_by_node([(path, "label")], labels.shape[0])[0]
        assert got.dtype == np.int8 and np.array_equal(got, labels)

    @settings(max_examples=60, deadline=None)
    @given(scores=st.lists(FLOATS, max_size=40))
    def test_node_scores(self, tmp_path_factory, scores):
        path = tmp_path_factory.mktemp("ns") / "scores.tsv"
        tsvio.write_node_scores(path, scores)
        _assert_read_back(lambda: tsvio.read_by_node([(path, "score")], len(scores))[0], scores, "score")

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_lists(), data=st.data())
    def test_edge_scores(self, tmp_path_factory, edges, data):
        g = Graph.from_edges(*edges)
        values = data.draw(st.lists(FLOATS, min_size=g.edge_count, max_size=g.edge_count))
        path = tmp_path_factory.mktemp("es") / "edges.tsv"
        tsvio.write_edge_scores(path, g, values)
        assert _bits(tsvio.read_edge_scores(path, g)) == _bits(values)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 12), width=st.integers(1, 4), data=st.data())
    def test_features(self, tmp_path_factory, rows, width, data):
        feats = np.array(data.draw(st.lists(FLOATS, min_size=rows * width, max_size=rows * width)),
                         dtype=float).reshape(rows, width)
        path = tmp_path_factory.mktemp("ft") / "features.tsv"
        tsvio.write_features(path, feats)
        _assert_read_back(lambda: tsvio.read_by_node([(path, "features")], rows)[0], feats, "features")
