"""Trace data model, CSV ingestion, and the canonical byte encoding.

A trace is an ordered sequence of (source, destination) endpoint-ID pairs.
Raw IDs from a file are relabeled to dense integers 0..k-1 in first-occurrence
order. The canonical encoding, which the compression stage consumes, is a
dense pair code: each entry is the number rank(src)*n + rank(dst) over the n
IDs of the trace's ID space, in the fewest whole big-endian bytes that hold
n*n - 1. It is bit-exact across runs. ``write_trace`` writes the trace as
fixed-width zero-padded decimal text instead, one ``src,dst`` record per
line, which ``parse_trace`` reads back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import DataError, EmptyTraceError, TraceParseError


@dataclass(frozen=True)
class IdSpace:
    """Canonical IDs observed in each column; ``n`` is the union size."""

    source_ids: np.ndarray  # sorted unique int64
    dest_ids: np.ndarray    # sorted unique int64

    @classmethod
    def from_columns(cls, sources: np.ndarray, dests: np.ndarray) -> "IdSpace":
        """The IDs found in two columns of non-negative int64 IDs.

        IDs below the columns' combined length, such as relabeled or
        generated ones, are found by counting, with a count table no longer
        than the columns; sparse IDs are found by sorting.
        """
        top = max((int(col.max()) for col in (sources, dests) if col.size), default=-1)
        if top < sources.size + dests.size:
            return cls(source_ids=np.flatnonzero(np.bincount(sources)),
                       dest_ids=np.flatnonzero(np.bincount(dests)))
        return cls(source_ids=np.unique(sources), dest_ids=np.unique(dests))

    @property
    def union(self) -> np.ndarray:
        return np.union1d(self.source_ids, self.dest_ids)

    @property
    def n(self) -> int:
        return int(self.union.size)

    def symmetric_difference_ratio(self) -> float:
        """|source_ids XOR dest_ids| / n, a measure of column asymmetry."""
        sym = np.setxor1d(self.source_ids, self.dest_ids)
        return sym.size / self.n


@dataclass(frozen=True)
class Trace:
    """Ordered (source, destination) pairs plus the ID space they live in."""

    sources: np.ndarray
    dests: np.ndarray
    id_space: IdSpace
    name: str = "trace"

    def __post_init__(self):
        if self.sources.size == 0:
            raise EmptyTraceError("trace must contain at least one entry")
        if self.sources.shape != self.dests.shape:
            raise ValueError("source and destination columns differ in length")

    def __len__(self) -> int:
        return int(self.sources.size)

    @classmethod
    def from_arrays(cls, sources, dests, name: str = "trace", copy: bool = True) -> "Trace":
        """Build a trace from two integer columns, deriving the ID space."""
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(dests, dtype=np.int64)
        if copy:
            src, dst = src.copy(), dst.copy()
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("canonical IDs must be non-negative")
        return cls(sources=src, dests=dst, id_space=IdSpace.from_columns(src, dst), name=name)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], name: str = "trace") -> "Trace":
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            raise EmptyTraceError("trace must contain at least one entry")
        return cls.from_arrays(arr[:, 0], arr[:, 1], name=name, copy=False)

    def replaced(self, sources: np.ndarray, dests: np.ndarray, name: str | None = None) -> "Trace":
        """Same ID space, new columns (used by transforms that preserve the domain)."""
        return Trace(sources=sources, dests=dests, id_space=self.id_space,
                     name=self.name if name is None else name)


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


def parse_trace(stream: IO, fmt: CsvFormat = CsvFormat(), name: str = "trace") -> Trace:
    """Parse a delimited text stream into a Trace.

    Only the two configured ID columns are kept; any other fields (sizes,
    ports, timestamps) are discarded. Records end in ``\\n``, ``\\r\\n``
    or ``\\r`` and may quote fields as csv.reader does. Raises
    TraceParseError on malformed rows, with the 1-based number of the
    offending record (a quoted field spanning lines makes records and lines
    differ), and EmptyTraceError if no data rows remain.
    """
    # Imported on first use, so commands that read no trace do not load it.
    from .tokenizer import check_rows, records, relabel

    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(stream, "mode", ""):
        stream = io.TextIOWrapper(stream, encoding="utf-8")
    needed = max(fmt.source_column, fmt.dest_column) + 1
    skip = max(fmt.skip_rows, 0)
    mapping: dict[str, int] = {}
    batches = []
    line = 1  # number of the next record
    for run in records(stream, fmt.delimiter, (fmt.source_column, fmt.dest_column)):
        drop = min(skip, run.widths.size)
        skip -= drop
        widths, codes = run.widths[drop:], run.codes[2 * drop:]
        check_rows(widths, codes, run.ids, needed, line + drop)
        line += run.widths.size
        if run.error is not None:
            raise TraceParseError(run.error, line=line)
        if widths.size:
            batches.append(relabel(codes, run.ids, mapping))
    if not batches:
        raise EmptyTraceError("no entries parsed from input")
    sources = np.concatenate([b[0::2] for b in batches], dtype=np.int64)
    dests = np.concatenate([b[1::2] for b in batches], dtype=np.int64)
    return Trace(sources, dests, IdSpace.from_columns(sources, dests), name=name)


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


#: Rows ``write_trace`` renders and writes at a time: 256 KB of text at
#: 3-digit IDs, so a write needs no copy of the whole text.
_WRITE_ROWS = 1 << 15


def _row_encoder(trace: Trace):
    """A function rendering rows ``[start, stop)`` of ``trace`` as a uint8
    block of ``src,dst\\n`` records.

    The field width is the digit count of the largest canonical ID. When that
    ID is below the trace length, each ID value is rendered once into a
    table that is never larger than the trace's text, and a block copies
    its digits in as one width-byte item per field.
    """
    max_id = int(max(trace.sources.max(), trace.dests.max()))
    width = len(str(max_id))
    item = f"V{width}"
    digits = None
    if max_id < len(trace):
        table = np.empty((max_id + 1, width), dtype=np.uint8)
        _render_fixed_width(np.arange(max_id + 1), width, table)
        digits = table.view(item)[:, 0]

    def encode(start: int, stop: int) -> np.ndarray:
        block = np.empty((stop - start, 2 * width + 2), dtype=np.uint8)
        fields = ((trace.sources[start:stop], block[:, :width]),
                  (trace.dests[start:stop], block[:, width + 1:2 * width + 1]))
        for ids, field in fields:
            if digits is None:
                _render_fixed_width(ids, width, field)
            else:
                np.take(digits, ids, out=field.view(item)[:, 0])
        block[:, width] = ord(",")
        block[:, -1] = ord("\n")
        return block

    return encode


def pair_codes(trace: Trace) -> tuple[np.ndarray, int]:
    """Each entry's pair as the int64 number rank(src)*n + rank(dst), and n.

    A rank is the ID's position in the trace's ID union, so the codes lie in
    0..n*n-1 whatever the IDs; the IDs of a parsed or generated trace already
    are 0..n-1 and keep their values.
    """
    ids = trace.id_space.union
    n = int(ids.size)
    sources, dests = trace.sources, trace.dests
    if ids[-1] != n - 1:
        sources, dests = np.searchsorted(ids, sources), np.searchsorted(ids, dests)
    codes = sources * n
    codes += dests
    return codes, n


def encode_canonical(trace: Trace) -> bytes:
    """The bytes compression measures: each entry's ``pair_codes`` number,
    big-endian, in the fewest whole bytes that hold n*n - 1.

    That is 1 byte per entry at n <= 16, 2 bytes up to 256 and 3 up to 4096.
    The width depends on the ID space alone, so a trace and its shuffled and
    uniform counterparts are encoded alike. Output is deterministic.
    """
    codes, n = pair_codes(trace)
    width = max(1, ((n * n - 1).bit_length() + 7) // 8)
    item = 1 << (width - 1).bit_length()  # the numpy word that holds width bytes
    words = codes.astype(f">u{item}").view(np.uint8).reshape(-1, item)
    return words[:, item - width:].tobytes()


def write_trace(trace: Trace, path) -> None:
    """Write the trace as fixed-width decimal text, ``src,dst\\n`` per entry
    (it parses back via parse_trace).

    The field width is the digit count of the largest canonical ID, so every
    record occupies exactly 2*width + 2 bytes.

    Rows are rendered and written a block at a time, so the file's bytes are
    never held whole.
    """
    encode = _row_encoder(trace)
    with open(path, "wb") as fh:
        for start in range(0, len(trace), _WRITE_ROWS):
            fh.write(encode(start, min(start + _WRITE_ROWS, len(trace))))


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
    if which == "source":
        col = trace.sources
    elif which == "destination":
        col = trace.dests
    else:
        raise ValueError(f"unknown column {which!r}, expected 'source' or 'destination'")
    ids = trace.id_space.union
    space = IdSpace(source_ids=ids, dest_ids=ids.copy())
    return Trace(sources=col.copy(), dests=col.copy(), id_space=space,
                 name=f"{trace.name}:{which}")
