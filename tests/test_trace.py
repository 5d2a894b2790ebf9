"""Trace parsing, canonical IDs, the byte encoding, and column slices."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracecomplexity import (CsvFormat, EmptyTraceError, Trace, TraceParseError,
                             empirical_matrix, encode_canonical, joint_entropy,
                             load_trace, parse_trace, slice_column, write_trace)


def parse_str(text: str, fmt: CsvFormat = CsvFormat(), name: str = "t") -> Trace:
    return parse_trace(io.StringIO(text), fmt, name=name)


class TestParse:
    def test_three_rows_four_raw_ids(self):
        tr = parse_str("a,b\na,b\nc,d\n")
        assert len(tr) == 3
        assert tr.id_space.n == 4
        assert tr.sources.tolist() == [0, 0, 2]
        assert tr.dests.tolist() == [1, 1, 3]

    def test_column_projection_matches_two_column_file(self):
        wide = "a,b,99,x,y\nc,d,98,x,y\n"
        narrow = "a,b\nc,d\n"
        tw = parse_str(wide, CsvFormat(source_column=0, dest_column=1))
        tn = parse_str(narrow)
        assert tw.sources.tolist() == tn.sources.tolist()
        assert tw.dests.tolist() == tn.dests.tolist()

    def test_self_loop_single_row(self):
        tr = parse_str("x,x\n")
        assert len(tr) == 1
        assert tr.id_space.n == 1
        assert (tr.sources.tolist(), tr.dests.tolist()) == ([0], [0])

    def test_skip_rows_and_delimiter(self):
        tr = parse_str("src;dst\n7;8\n8;7\n",
                       CsvFormat(delimiter=";", skip_rows=1))
        assert len(tr) == 2
        assert tr.sources.tolist() == [0, 1]

    def test_reordered_columns(self):
        tr = parse_str("x,1,a\ny,2,b\n", CsvFormat(source_column=2, dest_column=0))
        # first occurrence over (source, dest) streams: a, x, b, y
        assert tr.sources.tolist() == [0, 2]
        assert tr.dests.tolist() == [1, 3]

    def test_short_row_reports_line_number(self):
        with pytest.raises(TraceParseError, match="line 2"):
            parse_str("a,b\nc\n")

    def test_line_numbers_count_skipped_header(self):
        with pytest.raises(TraceParseError, match="line 3"):
            parse_str("header\na,b\nc\n", CsvFormat(skip_rows=1))

    def test_empty_field_rejected(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_str(",b\n")

    def test_empty_stream(self):
        with pytest.raises(EmptyTraceError):
            parse_str("")

    def test_header_only(self):
        with pytest.raises(EmptyTraceError):
            parse_str("src,dst\n", CsvFormat(skip_rows=1))

    def test_whitespace_stripped(self):
        tr = parse_str(" a , b \n")
        assert len(tr) == 1


class TestCanonicalIds:
    def test_many_ids_share_encoded_width(self):
        rows = "".join(f"h{i},h{i}\n" for i in range(300))
        tr = parse_str(rows)
        data = encode_canonical(tr)
        # max canonical ID is 299 -> width 3 -> 8 bytes per record
        assert len(data) == 300 * 8
        assert data.splitlines()[0] == b"000,000"


class TestEncode:
    def test_single_digit(self):
        tr = Trace.from_pairs([(0, 1), (1, 0)])
        assert encode_canonical(tr) == b"0,1\n1,0\n"

    def test_zero_padding(self):
        tr = Trace.from_pairs([(0, 10)])
        assert encode_canonical(tr) == b"00,10\n"

    def test_deterministic(self):
        tr = Trace.from_pairs([(3, 1), (2, 9), (0, 0)])
        assert encode_canonical(tr) == encode_canonical(tr)

    def test_record_width(self):
        tr = Trace.from_pairs([(123, 4), (5, 6)])
        data = encode_canonical(tr)
        assert len(data) == 2 * (2 * 3 + 2)
        assert data == b"123,004\n005,006\n"

    @given(st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)),
                    min_size=1, max_size=60))
    def test_parse_encode_parse_identity(self, pairs):
        first = parse_str("".join(f"{s},{d}\n" for s, d in pairs))
        again = parse_str(encode_canonical(first).decode())
        assert first.sources.tolist() == again.sources.tolist()
        assert first.dests.tolist() == again.dests.tolist()


class TestFileRoundTrip:
    def test_write_then_load(self, tmp_path):
        tr = parse_str("a,b\nc,d\na,d\n")
        path = tmp_path / "sample.csv"
        write_trace(tr, path)
        back = load_trace(path)
        assert back.name == "sample"
        assert back.sources.tolist() == tr.sources.tolist()
        assert back.dests.tolist() == tr.dests.tolist()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.csv")


class TestTraceModel:
    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_arrays(np.array([-1]), np.array([0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_arrays(np.array([1, 2]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyTraceError):
            Trace.from_pairs([])

    def test_id_space(self):
        tr = Trace.from_arrays(np.array([1, 1]), np.array([2, 3]))
        assert tr.id_space.union.tolist() == [1, 2, 3]
        assert tr.id_space.n == 3
        assert tr.id_space.symmetric_difference_ratio() == 1.0

    def test_symmetric_id_space(self, tiny_trace):
        assert tiny_trace.id_space.symmetric_difference_ratio() == 0.0


class TestSlices:
    def test_source_slice(self):
        tr = Trace.from_pairs([(1, 2), (3, 4)])
        s = slice_column(tr, "source")
        assert s.sources.tolist() == [1, 3]
        assert s.dests.tolist() == [1, 3]
        assert s.name.endswith(":source")

    def test_destination_slice(self):
        tr = Trace.from_pairs([(1, 2), (3, 4)])
        d = slice_column(tr, "destination")
        assert d.sources.tolist() == [2, 4]

    def test_constant_column_has_zero_entropy(self):
        tr = Trace.from_pairs([(5, 0), (5, 1), (5, 2)])
        s = slice_column(tr, "source")
        assert joint_entropy(empirical_matrix(s)) == 0.0

    def test_unknown_column(self, tiny_trace):
        with pytest.raises(ValueError):
            slice_column(tiny_trace, "port")
