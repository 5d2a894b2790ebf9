"""Trace parsing, canonical IDs, the byte encoding, and column slices."""

from __future__ import annotations

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecomplexity import (CsvFormat, EmptyTraceError, IdSpace, Trace, TraceParseError,
                             empirical_matrix, encode_canonical, joint_entropy,
                             load_trace, parse_trace, slice_column, write_trace)
from tracecomplexity import tokenizer
from tracecomplexity import trace as trace_module


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

    def test_every_ascii_whitespace_stripped(self):
        tr = parse_str("".join(f"{c}a{c},b\n" for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f"))
        assert tr.id_space.n == 2

    def test_trailing_nul_is_part_of_the_id(self):
        tr = parse_str("4,4\x00\n4\x00\x00,4\n")
        assert (tr.sources.tolist(), tr.dests.tolist()) == ([0, 2], [1, 0])


def oracle_parse(stream, fmt: CsvFormat = CsvFormat(), name: str = "t") -> Trace:
    """The per-row csv loop that parse_trace replaced, kept as its reference.

    It differs from that loop in one deliberate way: an error of the csv
    module becomes a TraceParseError at the record being read.
    """
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        stream = io.TextIOWrapper(stream, encoding="utf-8")
    reader = csv.reader(stream, delimiter=fmt.delimiter)
    needed = max(fmt.source_column, fmt.dest_column) + 1
    mapping: dict[str, int] = {}
    sources: list[int] = []
    dests: list[int] = []
    lineno = 0
    try:
        for lineno, row in enumerate(reader, start=1):
            if lineno <= fmt.skip_rows:
                continue
            if len(row) < needed:
                raise TraceParseError(
                    f"expected at least {needed} columns, got {len(row)}", line=lineno)
            s_raw = row[fmt.source_column].strip()
            d_raw = row[fmt.dest_column].strip()
            if not s_raw or not d_raw:
                raise TraceParseError("empty ID field", line=lineno)
            for raw in (s_raw, d_raw):
                if raw not in mapping:
                    mapping[raw] = len(mapping)
            sources.append(mapping[s_raw])
            dests.append(mapping[d_raw])
    except csv.Error as e:
        raise TraceParseError(str(e), line=lineno + 1) from e
    if not sources:
        raise EmptyTraceError("no entries parsed from input")
    return Trace.from_arrays(sources, dests, name=name)


def outcome(parse, data: str | bytes, fmt: CsvFormat):
    """What ``parse`` makes of ``data``: the trace's columns and ID space, or
    the exception's type, message and line. Text is read as csv wants it,
    with newline=""; bytes through a binary stream."""
    stream = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data, newline="")
    try:
        tr = parse(stream, fmt)
    except Exception as e:  # compared, not handled
        return type(e), str(e), getattr(e, "line", None)
    return (tr.sources.tolist(), tr.dests.tolist(),
            tr.id_space.source_ids.tolist(), tr.id_space.dest_ids.tolist())


DELIMITERS = [",", ";", "\t", "|", "\u00a7"]
RECORD_ENDS = ["\n", "\r\n", "\r"]
# IDs that differ by a NUL or hold a quote, a delimiter or non-ASCII text;
# the whitespace str.strip() removes (ASCII, non-breaking and em space).
IDS = ["4", "4\x00", "\x004", "a", "b7", "\u00e9", "x\u00a7y", 'q"', "a,b", "c;d|e"]
SPACES = ["", "", " ", "\t", "\x0b", "\x1c", "\xa0", "\u2003"]


@st.composite
def delimited_inputs(draw):
    """Delimited text over a few IDs, with every feature csv.reader handles."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    spaced_id = st.tuples(st.sampled_from(SPACES), st.sampled_from(IDS),
                          st.sampled_from(SPACES)).map("".join)
    field = st.one_of(spaced_id, st.sampled_from(SPACES)) if draw(st.booleans()) else spaced_id
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = draw(st.lists(field, min_size=draw(st.sampled_from([0, 1, 2, 2, 3])),
                               max_size=4))
        if fields and draw(st.booleans()):  # quote one field, with what needs quoting
            k = draw(st.integers(0, len(fields) - 1))
            inner = fields[k] + draw(st.sampled_from(["", delimiter, "\n", "\r\n", '"']))
            fields[k] = '"' + inner.replace('"', '""') + '"'
        lines.append(delimiter.join(fields) + draw(st.sampled_from(RECORD_ENDS)))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final record end
    fmt = CsvFormat(delimiter=delimiter, source_column=draw(st.integers(0, 2)),
                    dest_column=draw(st.integers(0, 2)), skip_rows=draw(st.integers(0, 2)))
    data = draw(st.sampled_from([text, text.encode("utf-8")]))
    return data, fmt


@st.composite
def plain_inputs(draw):
    """Rows the byte tokenizer reads itself: ASCII, no quotes, no lone \\r."""
    ascii_space = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                   "\x1f"])
    ids = st.tuples(ascii_space, st.sampled_from(["4", "4\x00", "\x004", "b7"]),
                    ascii_space).map("".join)
    if draw(st.booleans()):
        ids = st.one_of(ids, st.just(""))
    rows = draw(st.lists(st.lists(ids, min_size=1, max_size=4), max_size=30))
    ends = st.sampled_from(["\n", "\r\n"])
    text = "".join(",".join(r) + draw(ends) for r in rows)
    fmt = CsvFormat(source_column=draw(st.integers(0, 2)), dest_column=draw(st.integers(0, 2)),
                    skip_rows=draw(st.integers(0, 2)))
    return text, fmt


class TestAgainstCsvLoop:
    """parse_trace must read every input as the per-row csv loop did."""

    @settings(max_examples=300)
    @given(delimited_inputs(), st.integers(1, 40), st.integers(1, 5))
    def test_same_result_or_error(self, case, chunk, batch):
        data, fmt = case
        with mock.patch.object(tokenizer, "_CHUNK", chunk), \
                mock.patch.object(tokenizer, "_CSV_BATCH", batch):
            assert outcome(parse_trace, data, fmt) == outcome(oracle_parse, data, fmt)

    @settings(max_examples=200)
    @given(plain_inputs(), st.integers(1, 40))
    def test_byte_tokenizer_same_result_or_error(self, case, chunk):
        text, fmt = case
        with mock.patch.object(tokenizer, "_CHUNK", chunk):
            assert outcome(parse_trace, text, fmt) == outcome(oracle_parse, text, fmt)

    def test_non_utf8_binary_stream(self):
        data = "a,b\ncaf\u00e9,b\n".encode("latin-1")
        got, want = outcome(parse_trace, data, CsvFormat()), outcome(oracle_parse, data, CsvFormat())
        assert got == want and got[0] is UnicodeDecodeError

    @pytest.mark.parametrize("before_edge", [1, 5, 10], ids=["in-id", "at-delimiter", "in-crlf"])
    def test_chunk_boundaries(self, before_edge):
        """Over two reads of input: a record straddles the end of the first
        read (within an ID, at its delimiter, between its \\r and \\n) and IDs
        are first seen in later reads."""
        chunk = tokenizer._CHUNK
        rows = "".join(f"h{i % 50},h{7 * i % 50}\r\n" for i in range(chunk // 12))
        first = "p" * (chunk - before_edge - len(rows) - 5) + ",h0\r\n"
        straddle = "new0,new1\r\n"
        tail = "".join(f"h{i % 53},late{i % 3}\n" for i in range(chunk // 8))
        text = first + rows + straddle + tail + "late3,new0"
        assert len(first + rows) == chunk - before_edge and len(text) > 2 * chunk
        got = outcome(parse_trace, text, CsvFormat())
        assert got == outcome(oracle_parse, text, CsvFormat())
        assert got[0][-1] == max(got[2] + got[3])  # late3, new in the last read

    @pytest.mark.parametrize("prefix", ["", '"q",r\n', "\u00e9,r\n"],
                             ids=["bytes", "csv-quote", "csv-non-ascii"])
    def test_field_limit(self, prefix):
        limit = csv.field_size_limit()
        fits = prefix + "a," + "b" * limit + "\n"
        assert len(parse_str(fits)) == 1 + bool(prefix)
        line = 3 + bool(prefix)
        with pytest.raises(TraceParseError, match=f"line {line}: field larger than field limit"):
            parse_str(fits + "c,d\n" + "e" * (limit + 1) + ",f\n")

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError):
            CsvFormat(source_column=-1)

    @staticmethod
    def parse_in_pieces(text: str, chunk: int):
        """The outcome of parsing ``text`` read ``chunk`` characters at a
        time, and the pieces the byte tokenizer read."""
        byte_read = []
        real = tokenizer._byte_records

        def spy(piece, *args):
            byte_read.append(piece)
            return real(piece, *args)
        with mock.patch.object(tokenizer, "_CHUNK", chunk), \
                mock.patch.object(tokenizer, "_byte_records", spy):
            return outcome(parse_trace, text, CsvFormat()), byte_read

    def test_quotes_in_a_middle_piece(self):
        """csv.reader reads the quoted piece alone; the byte tokenizer reads
        the pieces before and after it."""
        text = 'a,b\nc,d\n"e",f\ng,h\ni,j\n'
        got, byte_read = self.parse_in_pieces(text, 8)
        assert got == outcome(oracle_parse, text, CsvFormat())
        assert byte_read == ["a,b\nc,d\n", "g,h\ni,j\n"]

    def test_quoted_field_spans_piece_boundary(self):
        """A quoted line break at a piece end keeps csv.reader reading into
        the next piece, quote and all; the stream goes back to the byte
        tokenizer at the first piece end where a record ends."""
        text = 'a,b\n"x\ny",z\nc,d\ne,f\n'
        got, byte_read = self.parse_in_pieces(text, 5)
        assert got == outcome(oracle_parse, text, CsvFormat())
        assert got[0] == [0, 2, 4, 6]  # a, "x\ny", c, e
        assert byte_read == ["a,b\n", "c,d\ne,f\n"]


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


def oracle_encode(trace: Trace) -> bytes:
    """encode_canonical as first written, kept as its reference: one
    remainder and one division over each column per digit."""
    max_id = int(max(trace.sources.max(), trace.dests.max()))
    width = len(str(max_id))
    block = np.empty((len(trace), 2 * width + 2), dtype=np.uint8)
    for values, first in ((trace.sources, 0), (trace.dests, width + 1)):
        rem = values.astype(np.int64, copy=True)
        for j in range(first + width - 1, first - 1, -1):
            block[:, j] = rem % 10 + ord("0")
            rem //= 10
    block[:, width] = ord(",")
    block[:, -1] = ord("\n")
    return block.tobytes()


class TestEncodeAgainstDigitLoop:
    """encode_canonical renders what the per-digit loop rendered, whether it
    gathers from a table of rendered IDs (largest ID below the length) or
    renders the columns directly."""

    @pytest.mark.parametrize("width", range(1, 14))
    def test_every_width(self, width):
        rng = np.random.default_rng(width)
        top = 10 ** width - 1
        ids = np.concatenate([[0, 10 ** (width - 1), top], rng.integers(0, top + 1, 97)])
        cases = [ids, ids[::-1]]
        if top < 20_000:  # long enough for the table
            cases.append(rng.integers(0, top + 1, top + 1))
            cases[-1][0] = top
        for column in cases:
            tr = Trace.from_arrays(column, np.roll(column, 1))
            assert encode_canonical(tr) == oracle_encode(tr)

    @pytest.mark.parametrize("extra", [0, 1], ids=["table-one-short", "table-exactly"])
    def test_table_threshold(self, extra):
        # largest ID 99, so the table has 100 rows; the trace has 99 or 100 entries
        ids = np.arange(99 + extra) % 100
        ids[-1] = 99
        tr = Trace.from_arrays(ids, ids[::-1])
        assert encode_canonical(tr) == oracle_encode(tr)

    def test_sparse_id_next_to_zero(self):
        tr = Trace.from_pairs([(0, 2 ** 40), (2 ** 40, 0), (0, 0)])
        assert encode_canonical(tr) == oracle_encode(tr)
        assert encode_canonical(tr)[:28] == b"0000000000000,1099511627776\n"

    @given(st.lists(st.tuples(st.integers(0, 30) | st.integers(0, 10 ** 13 - 1),
                              st.integers(0, 30)), min_size=1, max_size=60))
    def test_random_pairs(self, pairs):
        tr = Trace.from_pairs(pairs)
        assert encode_canonical(tr) == oracle_encode(tr)


class TestWriteTraceInBlocks:
    """write_trace writes, a block of rows at a time, the bytes the
    per-digit loop renders for the whole trace."""

    @given(st.lists(st.tuples(st.integers(0, 30) | st.integers(0, 10 ** 13 - 1),
                              st.integers(0, 30)), min_size=1, max_size=60),
           st.integers(1, 7))
    def test_same_bytes_as_oracle(self, tmp_path_factory, pairs, rows):
        tr = Trace.from_pairs(pairs)
        path = tmp_path_factory.getbasetemp() / "blocks.csv"
        with mock.patch.object(trace_module, "_WRITE_ROWS", rows):
            write_trace(tr, path)
        assert path.read_bytes() == oracle_encode(tr)

    @pytest.mark.parametrize("length", [1, 2, 3, 64, 65, 96, 97])
    def test_last_block_short_or_full(self, tmp_path, length):
        # blocks of 32 rows; the largest ID is below the length from 64 rows on
        ids = np.arange(length) % 61
        tr = Trace.from_arrays(ids, ids[::-1])
        with mock.patch.object(trace_module, "_WRITE_ROWS", 32):
            write_trace(tr, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == oracle_encode(tr) == encode_canonical(tr)

    def test_memory_below_a_quarter_of_the_file(self, tmp_path):
        """numpy reports its buffers to tracemalloc, so a copy of the
        encoding would show."""
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 1000, 200_000)
        ids[0] = 999  # 3-digit IDs: 8 bytes a row
        tr = Trace.from_arrays(ids, ids[::-1])
        tracemalloc.start()
        try:
            write_trace(tr, tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "t.csv").stat().st_size
        assert size == 200_000 * 8
        assert peak < size / 4


class TestIdSpaceFromColumns:
    """Counting (IDs below the columns' combined length) and sorting (sparse
    IDs) find the same ID space as np.unique."""

    @given(st.lists(st.tuples(st.integers(0, 40) | st.just(2 ** 40), st.integers(0, 40)),
                    min_size=1, max_size=40))
    def test_same_as_unique(self, pairs):
        src, dst = np.array(pairs, dtype=np.int64).T
        space = IdSpace.from_columns(src, dst)
        assert (space.source_ids.tolist(), space.dest_ids.tolist()) == \
            (np.unique(src).tolist(), np.unique(dst).tolist())
        assert space.source_ids.dtype == space.dest_ids.dtype == np.int64


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
