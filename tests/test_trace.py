"""Trace parsing, canonical IDs, the text and pair-code encodings, and
column slices."""

from __future__ import annotations

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecomplexity import (CsvFormat, EmptyTraceError, Trace, TraceParseError,
                             empirical_matrix, encode_canonical, joint_entropy,
                             load_trace, parse_trace, slice_column, write_trace)
from tracecomplexity import (RngSeed, default_uniform_mode, resample_uniform,
                             temporal_shuffle, tokenizer)
from tracecomplexity import trace as trace_module


def parse_str(text: str, fmt: CsvFormat = CsvFormat(), name: str = "t") -> Trace:
    return parse_trace(io.StringIO(text), fmt, name=name)


def written(trace: Trace, tmp_path_factory) -> bytes:
    """The bytes write_trace writes for ``trace``."""
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_trace(trace, path)
    return path.read_bytes()


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

    @pytest.mark.parametrize("n", [16, 256])
    def test_peak_memory_at_a_million_entries(self, tmp_path, n):
        """numpy reports its buffers to tracemalloc. The parse holds each
        record's two int32 IDs once, in batches of one piece each (8 MB at
        1M entries), and forms the codes (1 or 2 MB) and column masks a
        batch at a time, dropping each batch once its codes are. It peaked
        at 9.3 MB at 16 IDs and 10.2 MB at 256, against 16 MB when the
        batches were joined; the bound leaves 1.8 MB of margin."""
        rng = np.random.default_rng(n)
        path = tmp_path / "t.csv"
        write_trace(Trace.from_arrays(rng.integers(0, n, 1_000_000),
                                      rng.integers(0, n, 1_000_000)), path)
        tracemalloc.start()
        try:
            tr = load_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(tr), tr.id_space.n) == (1_000_000, n)
        assert peak < 12_000_000


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


#: IDs of one width each, for runs of rows with one layout: 7 bytes is the
#: longest ID the vocabulary holds, and the 8-byte ones share their first 7.
SAME_WIDTH = {1: ["4", "5", "a"], 2: ["b7", "c8", "4\x00", "\x004"],
              7: ["abcdefg", "abcdefh", "1234567"], 8: ["abcdefgh", "abcdefgi", "12345678"]}


@st.composite
def plain_inputs(draw):
    """Rows the byte tokenizer reads itself: ASCII, no quotes, no lone \\r.

    Runs of rows share one layout, as in a fixed-layout piece; rows between
    them may be longer or shorter, miss a field or leave one empty. The
    first row may hold an ID that no other row holds.
    """
    ascii_space = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                   "\x1f"])
    ids = st.tuples(ascii_space, st.sampled_from(["4", "4\x00", "\x004", "b7", "abcdefg",
                                                  "abcdefgh", "abcdefgi"]),
                    ascii_space).map("".join)
    if draw(st.booleans()):
        ids = st.one_of(ids, st.just(""))
    ends = st.sampled_from(["\n", "\r\n"])
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["only,once\n", "zz,yy,xx\r\n", "q\n"])))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            same = st.sampled_from(SAME_WIDTH[draw(st.sampled_from(sorted(SAME_WIDTH)))])
            fields, end = draw(st.integers(1, 4)), draw(ends)
            lines += [",".join(draw(same) for _ in range(fields)) + end
                      for _ in range(draw(st.integers(1, 12)))]
        else:
            lines += [",".join(r) + draw(ends)
                      for r in draw(st.lists(st.lists(ids, min_size=1, max_size=4), max_size=6))]
    fmt = CsvFormat(source_column=draw(st.integers(0, 2)), dest_column=draw(st.integers(0, 2)),
                    skip_rows=draw(st.integers(0, 2)))
    return "".join(lines), fmt


class TestAgainstCsvLoop:
    """parse_trace must read every input as the per-row csv loop did."""

    @settings(max_examples=300)
    @given(delimited_inputs(), st.integers(1, 40), st.integers(1, 5))
    def test_same_result_or_error(self, case, chunk, batch):
        data, fmt = case
        with mock.patch.object(tokenizer, "_CHUNK", chunk), \
                mock.patch.object(tokenizer, "_CSV_BATCH", batch):
            assert outcome(parse_trace, data, fmt) == outcome(oracle_parse, data, fmt)

    @settings(max_examples=300)
    @given(plain_inputs(), st.one_of(st.integers(1, 40), st.sampled_from([64, 256])))
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

    def test_field_limit_in_quoted_piece(self):
        """csv.reader meets the oversized field of a quoted piece, and its
        error ends the records: the piece after it is not read."""
        limit = csv.field_size_limit()
        text = '"q",r\na,b\n' + "e" * (limit + 1) + ",f\n"
        message = f"field larger than field limit ({limit})"
        with mock.patch.object(tokenizer, "_CHUNK", len(text)):  # one piece
            got = outcome(parse_trace, text, CsvFormat())
            runs = list(tokenizer.records(io.StringIO(text + "g,h\n", newline=""), ",",
                                          (0, 1), tokenizer.Vocabulary()))
        assert got == outcome(oracle_parse, text, CsvFormat())
        assert got[:2] == (TraceParseError, f"line 3: {message}")
        assert [(run.widths.tolist(), run.error) for run in runs] == [([2, 2], message)]

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError):
            CsvFormat(source_column=-1)

    def test_negative_skip_rows_rejected(self):
        """A negative count is an error, not a header row read as data."""
        with pytest.raises(ValueError, match="skip_rows must be non-negative"):
            CsvFormat(skip_rows=-1)

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


class TestReadingPaths:
    """A piece whose fields the file's vocabulary all knows is labelled
    without interning; only the pieces that bring IDs it cannot know yet
    are interned, and only pieces of uneven layout are scanned for
    separators."""

    @staticmethod
    def parse_counting(path, fmt: CsvFormat = CsvFormat()):
        """The outcome of loading ``path``, and how many pieces were
        interned and how many scanned."""
        with mock.patch.object(tokenizer, "_string_codes",
                               wraps=tokenizer._string_codes) as interned, \
                mock.patch.object(tokenizer, "_scanned_fields",
                                  wraps=tokenizer._scanned_fields) as scanned:
            got = outcome(parse_trace, path.read_text(), fmt)
        return got, interned.call_count, scanned.call_count

    @staticmethod
    def pieces_with_new_ids(path) -> tuple[int, int]:
        """How many pieces the file is read in, and how many of them hold a
        first-column or second-column ID that no earlier piece held."""
        seen: set[str] = set()
        pieces = new = 0
        with open(path, newline="") as fh:
            for piece in tokenizer._pieces(fh):
                ids = {field for line in piece.splitlines() for field in line.split(",")[:2]}
                pieces += 1
                new += not ids <= seen
                seen |= ids
        return pieces, new

    def test_write_trace_file_interned_only_for_new_ids(self, tmp_path):
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 40, 200_000), rng.integers(0, 40, 200_000)
        src[120_000], dst[170_000] = 41, 42  # IDs first met in later pieces
        path = tmp_path / "t.csv"
        write_trace(Trace.from_arrays(src, dst), path)
        got, interned, scanned = self.parse_counting(path)
        pieces, new = self.pieces_with_new_ids(path)
        assert (interned, scanned) == (new, 0)
        assert new == 3 and pieces > 10
        assert got == outcome(oracle_parse, path.read_text(), CsvFormat())

    def test_ten_byte_ids_interned_in_every_piece(self, tmp_path):
        """The vocabulary holds IDs of at most 7 bytes, one 64-bit word."""
        rng = np.random.default_rng(6)
        names = [f"host{i:06d}" for i in range(30)]
        path = tmp_path / "t.csv"
        path.write_text("".join(f"{names[s]},{names[d]}\n"
                                for s, d in rng.integers(0, 30, (20_000, 2))))
        got, interned, scanned = self.parse_counting(path)
        pieces, _ = self.pieces_with_new_ids(path)
        assert (interned, scanned) == (pieces, 0) and pieces > 3
        assert got == outcome(oracle_parse, path.read_text(), CsvFormat())

    @pytest.mark.parametrize("limit", [0, 3, 5])
    def test_vocabulary_full(self, tmp_path, limit):
        """Past its limit the vocabulary learns no more IDs, and a piece
        holding one of those is interned each time."""
        rng = np.random.default_rng(limit)
        path = tmp_path / "t.csv"
        path.write_text("".join(f"{s},{d}\n" for s, d in rng.integers(10, 20, (300, 2))))
        with mock.patch.object(tokenizer, "_CHUNK", 60), \
                mock.patch.object(tokenizer, "_VOCABULARY_LIMIT", limit):
            got, interned, _ = self.parse_counting(path)
            pieces, _ = self.pieces_with_new_ids(path)
        assert got == outcome(oracle_parse, path.read_text(), CsvFormat())
        assert interned == pieces > 20

    def test_words_sharing_a_home_slot(self, tmp_path):
        """With a multiplier of 1 every word of one length has the same home
        slot, so a lookup walks one probe chain as long as the IDs are many."""
        rng = np.random.default_rng(7)
        path = tmp_path / "t.csv"
        path.write_text("".join(f"{s},{d}\n" for s, d in rng.integers(10, 50, (40_000, 2))))
        real = tokenizer.Vocabulary.lookup
        looked_up = []

        def lookup(vocab, words):
            labels = real(vocab, words)
            looked_up.append((vocab._probes, labels is not None))
            return labels
        with mock.patch.object(tokenizer, "_MULTIPLIER", np.uint64(1)), \
                mock.patch.object(tokenizer.Vocabulary, "lookup", lookup):
            got, interned, scanned = self.parse_counting(path)
        assert looked_up == [(1, False), (40, True), (40, True), (40, True)]
        assert (interned, scanned) == (1, 0)
        assert got == outcome(oracle_parse, path.read_text(), CsvFormat())

    @pytest.mark.parametrize("text", [
        "ab,c\r\nab,cd\n",    # one length, but another record end
        "ab,cd\nab,c,\nab, c\n",  # the first line's delimiters, and one more
        "ab,cd\n\nb,cd\n",    # a line end inside a line's length
        "ab,cd\nab;cd\n",     # a delimiter missing
    ], ids=["crlf-and-lf", "extra-delimiter", "inner-line-end", "missing-delimiter"])
    def test_lines_of_one_length_but_another_layout(self, text):
        assert outcome(parse_trace, text, CsvFormat()) == \
            outcome(oracle_parse, text, CsvFormat())

    @pytest.mark.parametrize("chunk", [5, 12, 64, 1 << 16])
    @pytest.mark.parametrize("text, fmt, fixed", [
        ("01,02\n02,01\n" * 8 + "03,01\n" + "01,02\n" * 8, CsvFormat(), True),
        (" 1, 2\n 2,1 \n" * 8, CsvFormat(), False),
        ("abcdefg,1234567\n1234567,abcdefh\n" * 6, CsvFormat(), True),
        ("abcdefgh,1234567\n12345678,abcdefh\n" * 6, CsvFormat(), True),
        ("x,abcdefgh,12345678\ny,12345678,abcdefgi\n" * 6,
         CsvFormat(source_column=1, dest_column=2), True),
        ("01;02;x\r\n02;03;y\r\n" * 8, CsvFormat(";", 1, 0), True),
        ("hh,yy\n" + "01,02\n02,03\n" * 8, CsvFormat(skip_rows=3), True),
    ], ids=["new-id", "padded", "seven-bytes", "eight-bytes", "eight-bytes-third-column",
            "crlf", "skip-rows"])
    def test_fixed_pieces(self, text, fmt, fixed, chunk):
        """Pieces of one layout are read off their first line whatever the
        IDs, unless a field holds whitespace: those are scanned."""
        with mock.patch.object(tokenizer, "_CHUNK", chunk), \
                mock.patch.object(tokenizer, "_scanned_fields",
                                  wraps=tokenizer._scanned_fields) as scanned:
            got = outcome(parse_trace, text, fmt)
        assert got == outcome(oracle_parse, text, fmt)
        assert (scanned.call_count == 0) == fixed

    @pytest.mark.parametrize("n, length", [(16, 2_000), (16, 200), (256, 70_000), (300, 5_000)])
    def test_write_trace_file_never_scanned(self, tmp_path, n, length):
        """write_trace writes one layout, with or without its table of rows."""
        rng = np.random.default_rng(n)
        tr = Trace.from_arrays(rng.integers(0, n, length), rng.integers(0, n, length))
        write_trace(tr, tmp_path / "t.csv")
        with mock.patch.object(tokenizer, "_CHUNK", 1 << 10):
            got, _, scanned = self.parse_counting(tmp_path / "t.csv")
        assert scanned == 0
        assert got == outcome(oracle_parse, (tmp_path / "t.csv").read_text(), CsvFormat())

    @pytest.mark.parametrize("chunk", [6, 12, 64])
    @pytest.mark.parametrize("last", ["03,01", "yy,01"], ids=["header-only", "header-later"])
    def test_skipped_row_ids_get_no_label(self, chunk, last):
        """A skipped header's IDs are labelled only where a kept record
        holds them, whichever piece reads them."""
        text = "hh,yy\n" + "01,02\n02,01\n" * 20 + last + "\n"
        fmt = CsvFormat(skip_rows=1)
        with mock.patch.object(tokenizer, "_CHUNK", chunk):
            got = outcome(parse_trace, text, fmt)
        assert got == outcome(oracle_parse, text, fmt)
        assert got[0][-1] == 2  # the last record brings the third ID


class TestCanonicalIds:
    def test_many_ids_share_encoded_width(self, tmp_path_factory):
        rows = "".join(f"h{i},h{i}\n" for i in range(300))
        tr = parse_str(rows)
        data = written(tr, tmp_path_factory)
        # max canonical ID is 299 -> width 3 -> 8 bytes per record
        assert len(data) == 300 * 8
        assert data.splitlines()[0] == b"000,000"


class TestEncode:
    """write_trace's text: fixed-width zero-padded decimal, ``src,dst\\n``."""

    def test_single_digit(self, tmp_path_factory):
        tr = Trace.from_pairs([(0, 1), (1, 0)])
        assert written(tr, tmp_path_factory) == b"0,1\n1,0\n"

    def test_zero_padding(self, tmp_path_factory):
        tr = Trace.from_pairs([(0, 10)])
        assert written(tr, tmp_path_factory) == b"00,10\n"

    def test_deterministic(self, tmp_path_factory):
        tr = Trace.from_pairs([(3, 1), (2, 9), (0, 0)])
        assert written(tr, tmp_path_factory) == written(tr, tmp_path_factory)

    def test_record_width(self, tmp_path_factory):
        tr = Trace.from_pairs([(123, 4), (5, 6)])
        data = written(tr, tmp_path_factory)
        assert len(data) == 2 * (2 * 3 + 2)
        assert data == b"123,004\n005,006\n"

    @given(st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)),
                    min_size=1, max_size=60))
    def test_parse_encode_parse_identity(self, tmp_path_factory, pairs):
        first = parse_str("".join(f"{s},{d}\n" for s, d in pairs))
        again = parse_str(written(first, tmp_path_factory).decode())
        assert first.sources.tolist() == again.sources.tolist()
        assert first.dests.tolist() == again.dests.tolist()


def oracle_encode(trace: Trace) -> bytes:
    """write_trace's text as first written, kept as its reference: one
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
    """write_trace, which gathers each field from a table of the rendered
    IDs of the ID space, renders what the per-digit loop rendered, dense
    IDs or sparse."""

    @pytest.mark.parametrize("width", range(1, 14))
    def test_every_width(self, tmp_path_factory, width):
        rng = np.random.default_rng(width)
        top = 10 ** width - 1
        ids = np.concatenate([[0, 10 ** (width - 1), top], rng.integers(0, top + 1, 97)])
        cases = [ids, ids[::-1]]
        if top < 20_000:  # as many entries as ID values
            cases.append(rng.integers(0, top + 1, top + 1))
            cases[-1][0] = top
        for column in cases:
            tr = Trace.from_arrays(column, np.roll(column, 1))
            assert written(tr, tmp_path_factory) == oracle_encode(tr)

    @pytest.mark.parametrize("extra", [0, 1], ids=["table-one-short", "table-exactly"])
    def test_table_threshold(self, tmp_path_factory, extra):
        # largest ID 99 in a trace of 99 or 100 entries
        ids = np.arange(99 + extra) % 100
        ids[-1] = 99
        tr = Trace.from_arrays(ids, ids[::-1])
        assert written(tr, tmp_path_factory) == oracle_encode(tr)

    @pytest.mark.parametrize("n, length", [(16, 255), (16, 256), (16, 257), (256, 65_535),
                                           (256, 65_536)])
    def test_table_of_rows_threshold(self, tmp_path_factory, n, length):
        """A trace of at least n*n entries is written from a table of the
        rows of every pair, a shorter one from the table of its IDs."""
        rng = np.random.default_rng(length)
        src, dst = rng.integers(0, n, length), rng.integers(0, n, length)
        src[:n] = np.arange(n)  # every ID, so the trace's n is n
        tr = Trace.from_arrays(src, dst)
        assert tr.id_space.n == n
        assert written(tr, tmp_path_factory) == oracle_encode(tr)

    def test_sparse_id_next_to_zero(self, tmp_path_factory):
        tr = Trace.from_pairs([(0, 2 ** 40), (2 ** 40, 0), (0, 0)])
        data = written(tr, tmp_path_factory)
        assert data == oracle_encode(tr)
        assert data[:28] == b"0000000000000,1099511627776\n"

    @given(st.lists(st.tuples(st.integers(0, 30) | st.integers(0, 10 ** 13 - 1),
                              st.integers(0, 30)), min_size=1, max_size=60))
    def test_random_pairs(self, tmp_path_factory, pairs):
        tr = Trace.from_pairs(pairs)
        assert written(tr, tmp_path_factory) == oracle_encode(tr)


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
        # blocks of 32 rows, the last one short or full
        ids = np.arange(length) % 61
        tr = Trace.from_arrays(ids, ids[::-1])
        with mock.patch.object(trace_module, "_WRITE_ROWS", 32):
            write_trace(tr, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == oracle_encode(tr)

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


def decode_pair_code(data: bytes, n: int) -> tuple[list[int], list[int]]:
    """Split encode_canonical's fixed-width big-endian words back into
    (rank(src), rank(dst)) pairs, one Python int at a time."""
    width = max(1, ((n * n - 1).bit_length() + 7) // 8)
    assert len(data) % width == 0
    codes = [int.from_bytes(data[i:i + width], "big") for i in range(0, len(data), width)]
    return [c // n for c in codes], [c % n for c in codes]


def ranks(trace: Trace, column: np.ndarray) -> list[int]:
    return np.searchsorted(trace.id_space.union, column).tolist()


#: n -> bytes per entry: the fewest whole bytes that hold n*n - 1.
PAIR_CODE_WIDTHS = {1: 1, 2: 1, 16: 1, 17: 2, 256: 2, 257: 3, 3040: 3}
#: bytes per entry -> the word a trace stores its codes in.
PAIR_CODE_WORDS = {1: np.uint8, 2: np.uint16, 3: np.uint32}


class TestPairCode:
    """encode_canonical, the bytes compression reads: rank(src)*n + rank(dst)
    in the fewest whole big-endian bytes that hold n*n - 1."""

    @given(st.sampled_from(sorted(PAIR_CODE_WIDTHS)), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 200), st.booleans())
    def test_decodes_to_ranks(self, n, seed, extra, sparse):
        rng = np.random.default_rng(seed)
        # every ID occurs, so the ID space has exactly n IDs
        src = np.concatenate([rng.permutation(n), rng.integers(0, n, extra)])
        dst = np.concatenate([rng.permutation(n), rng.integers(0, n, extra)])
        if sparse:  # IDs spread up to 2**40: ranks differ from the IDs
            ids = np.arange(n, dtype=np.int64) * ((2 ** 40) // n) + 3
            src, dst = ids[src], ids[dst]
        tr = Trace.from_arrays(src, dst)
        assert tr.id_space.n == n
        data = encode_canonical(tr)
        assert len(data) == len(tr) * PAIR_CODE_WIDTHS[n]
        assert tr.codes.dtype == PAIR_CODE_WORDS[PAIR_CODE_WIDTHS[n]]
        assert decode_pair_code(data, n) == (ranks(tr, tr.sources), ranks(tr, tr.dests))

    def test_dense_ids_keep_their_values(self):
        tr = Trace.from_pairs([(0, 1), (2, 0), (1, 2)])
        assert encode_canonical(tr) == bytes([0 * 3 + 1, 2 * 3 + 0, 1 * 3 + 2])

    def test_sparse_ids_past_int32(self):
        tr = Trace.from_pairs([(0, 2 ** 40), (2 ** 40, 0), (0, 0), (2 ** 40, 2 ** 40)])
        assert encode_canonical(tr) == bytes([1, 2, 0, 3])

    def test_two_and_three_byte_words_big_endian(self):
        big = Trace.from_arrays(np.arange(257), np.arange(257)[::-1])
        assert encode_canonical(big)[:6] == (0 * 257 + 256).to_bytes(3, "big") + \
            (1 * 257 + 255).to_bytes(3, "big")
        mid = Trace.from_arrays(np.arange(17), np.arange(17)[::-1])
        assert encode_canonical(mid)[-2:] == (16 * 17 + 0).to_bytes(2, "big")

    @pytest.mark.parametrize("which", ["source", "destination"])
    def test_slices_rank_in_the_parent_union(self, which):
        # the destination column uses IDs 5..7 only, but ranks among all 8
        rng = np.random.default_rng(4)
        tr = Trace.from_arrays(rng.integers(0, 5, 300), rng.integers(5, 8, 300))
        tr = Trace.from_arrays(np.append(tr.sources, 4), np.append(tr.dests, 7))
        sl = slice_column(tr, which)
        column = tr.sources if which == "source" else tr.dests
        assert decode_pair_code(encode_canonical(sl), 8) == (ranks(tr, column),) * 2

    @pytest.mark.parametrize("mode", ["pair", "columnwise", "single"])
    @pytest.mark.parametrize("n", [16, 17, 256, 257])
    def test_counterparts_share_the_width(self, mode, n):
        """The width comes from the ID space, which the transforms keep, so a
        counterpart is encoded at its trace's width whichever IDs it draws."""
        rng = np.random.default_rng(n)
        half = n // 2
        if mode == "columnwise":  # the columns use disjoint halves of the IDs
            src, dst = rng.integers(0, half, 2000), rng.integers(half, n, 2000)
            src[:half], dst[:n - half] = np.arange(half), np.arange(half, n)
        else:
            src, dst = rng.integers(0, n, 2000), rng.integers(0, n, 2000)
            src[:n] = np.arange(n)
        tr = Trace.from_arrays(src, dst)
        assert tr.id_space.n == n
        if mode == "single":
            tr = slice_column(tr, "source")
        else:
            assert default_uniform_mode(tr) == mode
        width = len(encode_canonical(tr)) // len(tr)
        assert width == PAIR_CODE_WIDTHS[n]
        assert tr.codes.dtype == PAIR_CODE_WORDS[width]
        for k in range(3):
            for other in (temporal_shuffle(tr, RngSeed(k)),
                          resample_uniform(tr, RngSeed(k), mode)):
                assert len(encode_canonical(other)) == width * len(tr)
                assert other.codes.dtype == PAIR_CODE_WORDS[width]


class TestIdSpaceFromArrays:
    """A trace's ID space holds each column's sorted distinct IDs as int64,
    dense IDs or sparse, whether built from arrays or parsed."""

    @given(st.lists(st.tuples(st.integers(0, 40) | st.just(2 ** 40), st.integers(0, 40)),
                    min_size=1, max_size=40))
    def test_same_as_unique(self, pairs):
        src, dst = np.array(pairs, dtype=np.int64).T
        space = Trace.from_arrays(src, dst).id_space
        assert (space.source_ids.tolist(), space.dest_ids.tolist()) == \
            (np.unique(src).tolist(), np.unique(dst).tolist())
        assert space.source_ids.dtype == space.dest_ids.dtype == np.int64
        # "s" only ever sends and "d" only receives, so the columns differ
        parsed = parse_str("s,d\n" + "".join(f"{a},{b}\n" for a, b in pairs))
        space = parsed.id_space
        assert (space.source_ids.tolist(), space.dest_ids.tolist()) == \
            (np.unique(parsed.sources).tolist(), np.unique(parsed.dests).tolist())
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

    def test_equality_compares_arrays(self):
        """== compares codes, ID spaces and names, as a bool; a trace holds
        arrays, so it has no hash."""
        a, b = Trace.from_pairs([(0, 1), (1, 0)]), Trace.from_pairs([(0, 1), (1, 0)])
        assert a == b and not a != b and a.id_space == b.id_space
        assert a != Trace.from_pairs([(1, 0), (0, 1)])  # other codes, same ID space
        assert a != Trace.from_pairs([(0, 1), (1, 0)], name="other")
        assert a != Trace.from_pairs([(0, 2), (2, 0)])  # other union
        assert a.id_space != Trace.from_pairs([(0, 1), (0, 1)]).id_space  # other columns
        assert a != "trace" and a.id_space != "ids"
        for value in (a, a.id_space):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)


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
