"""Trace data model, CSV ingestion, and the canonical byte encoding.

A trace is an ordered sequence of (source, destination) endpoint-ID pairs.
Raw IDs from a file are relabeled to dense integers 0..k-1 in first-occurrence
order. A trace stores each entry as its pair code, rank(src)*n + rank(dst)
over the n IDs of its ID space. The canonical encoding, which the
compression stage consumes, is that code in the fewest whole big-endian bytes
that hold n*n - 1. It is bit-exact across runs. ``write_trace`` writes the
trace as fixed-width zero-padded decimal text instead, one ``src,dst`` record
per line, which ``parse_trace`` reads back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import DataError, EmptyTraceError, TraceParseError


#: Entries that ``generate`` and ``empirical_matrix`` work on at a time: an
#: intp index of a block is 512 KB, whatever the length of the trace.
_BLOCK = 1 << 16


def _code_word(n: int) -> np.dtype:
    """The unsigned word that stores a pair code over n IDs: the smallest
    that holds n*n - 1."""
    return np.min_scalar_type(n * n - 1)


@dataclass(frozen=True, eq=False)
class IdSpace:
    """The sorted IDs a trace uses, and which of them each column uses;
    ``n`` is the number of IDs. An ID's rank is its position in ``union``.
    Two ID spaces are equal when their three arrays are."""

    union: np.ndarray      # sorted unique int64
    in_source: np.ndarray  # bool per union ID: the source column uses it
    in_dest: np.ndarray    # bool per union ID: the destination column uses it

    def __eq__(self, other):
        if not isinstance(other, IdSpace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("union", "in_source", "in_dest"))

    @property
    def n(self) -> int:
        return int(self.union.size)

    @property
    def source_ids(self) -> np.ndarray:
        return self.union[self.in_source]

    @property
    def dest_ids(self) -> np.ndarray:
        return self.union[self.in_dest]

    def symmetric_difference_ratio(self) -> float:
        """|source_ids XOR dest_ids| / n, a measure of column asymmetry."""
        return int(np.count_nonzero(self.in_source != self.in_dest)) / self.n


@dataclass(frozen=True, eq=False)
class Trace:
    """Ordered (source, destination) pairs plus the ID space they live in.

    Each entry is stored as its pair code rank(src)*n + rank(dst), an ID's
    rank being its position in ``id_space.union``, in the smallest unsigned
    word that holds n*n - 1: uint8 up to 16 IDs, uint16 up to 256 and uint32
    up to 65,536. Two traces are equal when their codes, ID spaces and names
    are.
    """

    codes: np.ndarray
    id_space: IdSpace
    name: str = "trace"

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name == other.name and self.id_space == other.id_space
                and np.array_equal(self.codes, other.codes))

    def __post_init__(self):
        if self.codes.size == 0:
            raise EmptyTraceError("trace must contain at least one entry")

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def sources(self) -> np.ndarray:
        """Each entry's source ID, decoded from its code."""
        return self.id_space.union[self.codes // self.id_space.n]

    @property
    def dests(self) -> np.ndarray:
        """Each entry's destination ID, decoded from its code."""
        return self.id_space.union[self.codes % self.id_space.n]

    @classmethod
    def from_arrays(cls, sources, dests, name: str = "trace") -> "Trace":
        """Build a trace from two integer columns, deriving the ID space."""
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("source and destination columns differ in length")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("canonical IDs must be non-negative")
        ids, ranks = np.unique(np.concatenate((src, dst)), return_inverse=True)
        n, k = ids.size, src.size
        space = IdSpace(ids, np.bincount(ranks[:k], minlength=n) > 0,
                        np.bincount(ranks[k:], minlength=n) > 0)
        codes = ranks[:k] * n
        codes += ranks[k:]
        return cls(codes.astype(_code_word(n)), space, name)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], name: str = "trace") -> "Trace":
        src, dst = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2).T
        return cls.from_arrays(src, dst, name=name)


@dataclass(frozen=True)
class CsvFormat:
    """How to pull the two ID columns out of a delimited text file."""

    delimiter: str = ","
    source_column: int = 0
    dest_column: int = 1
    skip_rows: int = 0

    def __post_init__(self):
        if min(self.source_column, self.dest_column) < 0:
            raise ValueError("column indices must be non-negative")
        if self.skip_rows < 0:
            raise ValueError("skip_rows must be non-negative")


def parse_trace(stream: IO, fmt: CsvFormat = CsvFormat(), name: str = "trace") -> Trace:
    """Parse a delimited text stream into a Trace.

    Only the two configured ID columns are kept; any other fields (sizes,
    ports, timestamps) are discarded. Records end in ``\\n``, ``\\r\\n``
    or ``\\r`` and may quote fields as csv.reader does. Raises
    TraceParseError on malformed rows, with the 1-based number of the
    offending record (a quoted field spanning lines makes records and lines
    differ), and EmptyTraceError if no data rows remain.

    Besides the trace, it holds each record's two IDs as int32 labels, in
    one batch per piece read, and working arrays of one piece. The codes
    and column masks are formed a batch at a time.
    """
    # Imported on first use, so commands that read no trace do not load it.
    from .tokenizer import Vocabulary, check_rows, records

    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(stream, "mode", ""):
        stream = io.TextIOWrapper(stream, encoding="utf-8")
    needed = max(fmt.source_column, fmt.dest_column) + 1
    skip = fmt.skip_rows
    vocab = Vocabulary()
    batches = []
    line = 1  # number of the next record
    for run in records(stream, fmt.delimiter, (fmt.source_column, fmt.dest_column), vocab):
        drop = min(skip, run.widths.size)
        skip -= drop
        widths, codes = run.widths[drop:], run.codes[2 * drop:]
        if run.ids is not None:  # labelled runs hold only complete records of known IDs
            check_rows(widths, codes, run.ids, needed, line + drop)
        line += run.widths.size
        if run.error is not None:
            raise TraceParseError(run.error, line=line)
        if widths.size:
            batches.append(codes if run.ids is None else vocab.relabel(codes, run.ids, run.words))
    if not batches:
        raise EmptyTraceError("no entries parsed from input")
    # Each batch holds its records' source and destination, interleaved.
    # The relabeled IDs are 0..n-1 and each occurs, so an ID is its own
    # rank. Codes and column masks are formed a batch at a time, and each
    # batch is dropped once its codes are.
    n = len(vocab.mapping)
    in_source, in_dest = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    codes = np.empty(sum(ids.size for ids in batches) // 2, dtype=_code_word(n))
    end = 0
    batches.reverse()
    while batches:
        ids = batches.pop()
        in_source[ids[0::2]] = True
        in_dest[ids[1::2]] = True
        part = codes[end:end + ids.size // 2]
        part[...] = ids[0::2]
        part *= n
        np.add(part, ids[1::2], out=part, casting="unsafe")  # the sum fits the word
        end += part.size
    return Trace(codes, IdSpace(np.arange(n, dtype=np.int64), in_source, in_dest), name)


def load_trace(path, fmt: CsvFormat = CsvFormat(), name: str | None = None) -> Trace:
    """Read a trace from a CSV file; the trace is named after the file stem."""
    import pathlib

    p = pathlib.Path(path)
    with open(p, "r", encoding="utf-8", newline="") as fh:
        try:
            return parse_trace(fh, fmt, name=name if name is not None else p.stem)
        except UnicodeDecodeError as e:
            raise DataError(f"{p}: not UTF-8 text ({e.reason})") from e


def _render_fixed_width(values: np.ndarray, width: int, out: np.ndarray) -> None:
    # Writes zero-padded ASCII decimal digits of `values` into `out` columns.
    rem = values.astype(np.int64, copy=True)
    for j in range(width - 1, -1, -1):
        out[:, j] = rem % 10 + ord("0")
        rem //= 10


#: Rows ``write_trace`` renders and writes at a time: 64 KB of text at
#: 3-digit IDs, so a write needs no copy of the whole text.
_WRITE_ROWS = 1 << 13


def encode_canonical(trace: Trace) -> bytes:
    """The bytes compression measures: each entry's pair code, big-endian,
    in the fewest whole bytes that hold n*n - 1.

    That is 1 byte per entry at n <= 16, 2 bytes up to 256 and 3 up to 4096.
    The width depends on the ID space alone, so a trace and its shuffled and
    uniform counterparts are encoded alike. Output is deterministic.
    """
    n = trace.id_space.n
    width = max(1, ((n * n - 1).bit_length() + 7) // 8)
    words = trace.codes.astype(trace.codes.dtype.newbyteorder(">"), copy=False)
    return words.view(np.uint8).reshape(len(trace), -1)[:, words.itemsize - width:].tobytes()


def write_trace(trace: Trace, path) -> None:
    """Write the trace as fixed-width decimal text, ``src,dst\\n`` per entry
    (it parses back via parse_trace).

    The field width is the digit count of the largest canonical ID, so every
    record occupies exactly 2*width + 2 bytes.

    Each of the n IDs of the trace's ID space is rendered once into a table.
    When the trace has at least n*n entries, the rule by which
    ``empirical_matrix`` counts pairs densely, a second table holds the whole
    row of each of the n*n pair codes, which is never larger than the
    trace's text. Rows are rendered a block at a time into one reused block,
    by one gather of whole rows by their codes, or else of each field's
    digits by its decoded rank, and the block is written, so the file's
    bytes are never held whole.
    """
    ids = trace.id_space.union
    n = ids.size
    width = len(str(int(ids[-1])))
    table = np.empty((n, width), dtype=np.uint8)
    _render_fixed_width(ids, width, table)
    rows = min(_WRITE_ROWS, len(trace))
    block = np.empty((rows, 2 * width + 2), dtype=np.uint8)
    block[:, width] = ord(",")
    block[:, -1] = ord("\n")
    pairs = None
    if n * n <= len(trace):
        pairs = np.empty((n, n, 2 * width + 2), dtype=np.uint8)  # [src rank, dst rank]
        pairs[:, :, :width] = table[:, None]
        pairs[:, :, width] = ord(",")
        pairs[:, :, width + 1:-1] = table
        pairs[:, :, -1] = ord("\n")
        pairs = pairs.view(f"V{2 * width + 2}").reshape(n * n)
    digits = table.view(f"V{width}")[:, 0]
    # np.take would copy other index types, and in "clip" mode it writes
    # into ``out`` directly; every rank and code is in range.
    rank = np.empty(rows, dtype=np.intp)
    with open(path, "wb") as fh:
        for start in range(0, len(trace), rows):
            codes = trace.codes[start:start + rows]
            part, ranks = block[:codes.size], rank[:codes.size]
            if pairs is not None:
                ranks[...] = codes
                np.take(pairs, ranks, out=part.view(pairs.dtype)[:, 0], mode="clip")
            else:
                for decode, field in ((np.floor_divide, part[:, :width]),
                                      (np.remainder, part[:, width + 1:-1])):
                    np.take(digits, decode(codes, n, out=ranks),
                            out=field.view(digits.dtype)[:, 0], mode="clip")
            fh.write(part)


def slice_column(trace: Trace, which: str) -> Trace:
    """Single-column view: both columns carry the chosen column's sequence.

    ``which`` is "source" or "destination". The slice keeps the parent
    trace's full ID universe, so its uniform counterpart and normalization
    are relative to all n IDs, not just the ones this column happens to use
    (a constant column still counts as one symbol out of n). Downstream
    transforms and compression run unchanged on the duplicated pair;
    complexity code must be told the result is single-column (see
    complexity.trace_complexity).
    """
    n = trace.id_space.n
    if which == "source":
        ranks = trace.codes // n
    elif which == "destination":
        ranks = trace.codes % n
    else:
        raise ValueError(f"unknown column {which!r}, expected 'source' or 'destination'")
    ranks *= n + 1  # the code of the pair (rank, rank)
    everywhere = np.ones(n, dtype=bool)
    space = IdSpace(trace.id_space.union, everywhere, everywhere)
    return Trace(ranks, space, name=f"{trace.name}:{which}")
