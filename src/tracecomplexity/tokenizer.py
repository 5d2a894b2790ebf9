"""Tokenizer behind trace.parse_trace: delimited text to interned ID codes.

The text is read in pieces of fixed size and each piece is tokenized with
vectorized scans over its bytes. A piece whose quoting, lone carriage
returns or non-ASCII text that tokenizer cannot reproduce exactly goes to
csv.reader instead, which hands the stream back at the first piece end
where a record ends. Both produce ``Records``, which ``check_rows`` and
``relabel`` take alike.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Iterator

import numpy as np

from .errors import TraceParseError


#: Characters read per step. Every working array of the byte tokenizer is
#: sized by one step, so memory stays bounded whatever the file size.
_CHUNK = 1 << 16
#: Records the csv fallback reads before checking and relabelling them.
_CSV_BATCH = 1 << 16
#: Appended to every byte buffer: a word can be read at any field start, and
#: the byte before offset 0 (index -1) is a newline, not a carriage return.
_PAD = b"\n" * 8
_NL, _CR = ord("\n"), ord("\r")
#: The ASCII characters str.strip() removes; only ASCII bytes are looked up.
_SPACE = np.array([chr(c).isspace() for c in range(128)])
#: Those of them that can occur inside a field of the byte tokenizer.
_INNER_SPACE = [chr(c) for c in range(128) if _SPACE[c] and chr(c) not in "\r\n"]
#: _LOW[k] keeps the low k bytes of a little-endian word.
_LOW = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)


@dataclass(frozen=True)
class Records:
    """A run of consecutive records, reduced to their two ID fields.

    ``codes`` gives each record's source then destination ID as an index
    into ``ids``, the distinct IDs of the run stripped of whitespace; codes
    mean nothing for a record with too few fields. ``error`` is why the
    record after the last one here could not be read.
    """

    widths: np.ndarray   # fields per record
    codes: np.ndarray
    ids: list[str]
    error: str | None = None


def _pieces(stream: IO) -> Iterator[str]:
    """The text of ``stream`` in pieces of about ``_CHUNK`` characters.

    Every piece but the last ends at a record end: a ``\\n``, or a ``\\r``
    that is not the last character read, so no ``\\r\\n`` is split. The
    lines of each piece are therefore the lines of the whole text.
    """
    rest = ""
    while more := stream.read(_CHUNK):
        text = rest + more
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def _byte_tokenizable(piece: str, delimiter: str) -> bool:
    """Whether the byte tokenizer splits ``piece`` exactly as csv.reader does.

    It does not follow quoting, takes only ``\\n`` and ``\\r\\n`` as
    record ends, and knows the whitespace of ASCII text alone.
    """
    return (piece.isascii() and '"' not in piece
            and ("\r" not in piece or piece.count("\r") == piece.count("\r\n"))
            and len(delimiter) == 1 and delimiter.isascii() and delimiter not in '"\r\n')


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and how many there are."""
    # np.unique hashes since numpy 2.3, several times slower than this sort here
    distinct = np.sort(values)
    keep = np.ones(distinct.size, bool)
    np.not_equal(distinct[1:], distinct[:-1], out=keep[1:])
    distinct = distinct[keep]
    return np.searchsorted(distinct, values), distinct.size


def _string_codes(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Codes 0..count-1 for the strings data[s:s+n], equal where the strings are.

    A string is read in words of 7 bytes, each topped by a byte saying how
    many bytes were left (at most 8), so "4" and "4\\x00" differ. The first
    words give the codes; each later word splits the codes of the strings
    that reach it into new ones, so the work grows with the bytes read.
    """
    word = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # 8 bytes at each offset

    def words(at, offset: int) -> np.ndarray:
        left = np.minimum(lengths[at] - offset, 8)
        return (word[starts[at] + offset] & _LOW[np.minimum(left, 7)]
                | left.astype(np.uint64) << np.uint64(56))

    code, count = _dense(words(slice(None), 0))
    longest = int(lengths.max(initial=0))
    for offset in range(7, longest, 7):
        at = np.flatnonzero(lengths > offset)
        rank, n = _dense(words(at, offset))
        split, m = _dense(code[at] * n + rank)
        code[at] = count + split
        count += m
    return _dense(code) if longest > 7 else (code, count)


def _first_positions(codes: np.ndarray, count: int) -> np.ndarray:
    """Where each code first occurs in ``codes``; ``codes.size`` if nowhere."""
    first = np.full(count, codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    return first


def _byte_records(piece: str, delimiter: str, columns: tuple[int, int], limit: int) -> Records:
    """Tokenize an ASCII piece with vectorized scans over its bytes."""
    text = piece.encode("ascii")
    data = text + _PAD
    buf = np.frombuffer(data, np.uint8)
    body = buf[:len(text)]
    seps = np.flatnonzero((body == ord(delimiter)) | (body == _NL))
    if not text.endswith(b"\n"):
        seps = np.append(seps, len(text))  # the pad ends the last record
    # Field j spans (opens[j], ends[j]): after the previous separator, up to
    # its own one less the carriage return of a \r\n.
    opens = np.concatenate(([-1], seps[:-1]))
    ends = seps - (buf[seps - 1] == _CR)
    last = np.flatnonzero(buf[seps] == _NL)  # each record's last field
    first = np.concatenate(([0], last[:-1] + 1))
    widths = last - first + 1
    widths[(widths == 1) & (ends[first] == opens[first] + 1)] = 0  # csv reads a blank line as []

    error = None
    oversized = np.flatnonzero(ends - opens - 1 > limit)
    if oversized.size:
        error = f"field larger than field limit ({limit})"
        kept = int(np.searchsorted(last, oversized[0]))  # the records before its one
        first, widths = first[:kept], widths[:kept]

    # Interleaved source and destination field of each record. A record too
    # short for a column gets its last field; the width check rejects it.
    field = np.empty((first.size, 2), np.int64)
    for k, column in enumerate(columns):
        np.minimum(first + column, last[:first.size], out=field[:, k])
    starts, stops = opens[field.ravel()] + 1, ends[field.ravel()]
    # Only whitespace other than the delimiter can be in a field to strip.
    if any(c in piece for c in _INNER_SPACE if c != delimiter):
        while (lead := (starts < stops) & _SPACE[buf[starts]]).any():
            starts += lead
        while (trail := (stops > starts) & _SPACE[buf[stops - 1]]).any():
            stops -= trail
    codes, count = _string_codes(data, starts, stops - starts)
    at = _first_positions(codes, count)
    ids = [piece[s:e] for s, e in zip(starts[at].tolist(), stops[at].tolist())]
    return Records(widths, codes, ids, error)


def _csv_records(rows: Iterator[list[str]], columns: tuple[int, int]) -> Iterator[Records]:
    """Batches of rows from csv.reader, in the byte tokenizer's form."""
    source, dest = columns
    needed = max(columns) + 1
    while True:
        ids: dict[str, int] = {}
        widths: list[int] = []
        codes: list[int] = []
        error = None
        try:
            for row in islice(rows, _CSV_BATCH):
                widths.append(len(row))
                if len(row) < needed:  # the width check rejects the codes
                    codes += (0, 0)
                    continue
                codes.append(ids.setdefault(row[source].strip(), len(ids)))
                codes.append(ids.setdefault(row[dest].strip(), len(ids)))
        except csv.Error as e:
            error = str(e)
        if not widths and error is None:
            return
        yield Records(np.array(widths, dtype=np.int64), np.array(codes, dtype=np.int64),
                       list(ids), error)
        if error is not None:
            return


def _csv_rows(first: str, pieces: Iterator[str], delimiter: str) -> Iterator[list[str]]:
    """csv.reader's rows of ``first`` and of as many later pieces as it
    needs to end a record at the end of a piece.

    A quoted field can run on past the end of a piece; the reader then
    draws the next piece. Every record it yields ends at a line end, so it
    stands at a record start exactly when it has read every line handed to
    it, and the rest of ``pieces`` is left to the caller.
    """
    handed = 0

    def lines() -> Iterator[str]:
        nonlocal handed
        for piece in chain([first], pieces):
            piece_lines = io.StringIO(piece, newline="").readlines()
            handed += len(piece_lines)
            yield from piece_lines

    reader = csv.reader(lines(), delimiter=delimiter)
    for row in reader:
        yield row
        if reader.line_num == handed:
            return


def records(stream: IO, delimiter: str, columns: tuple[int, int]) -> Iterator[Records]:
    """Tokenize a text stream into runs of records, keeping two columns.

    The byte tokenizer reads each piece it can read exactly; csv.reader
    reads the others, and with them any piece that a quoted field of
    theirs runs into.
    """
    limit = csv.field_size_limit()
    pieces = _pieces(stream)
    for piece in pieces:
        if _byte_tokenizable(piece, delimiter):
            yield _byte_records(piece, delimiter, columns, limit)
            continue
        for run in _csv_records(_csv_rows(piece, pieces, delimiter), columns):
            yield run
            if run.error is not None:
                return


def check_rows(widths: np.ndarray, codes: np.ndarray, ids: list[str], needed: int,
                line: int) -> None:
    """Raise for the first record with too few fields or an empty ID."""
    empty = ids.index("") if "" in ids else -1
    short = widths < needed
    bad = np.flatnonzero(short | (codes[0::2] == empty) | (codes[1::2] == empty))
    if bad.size:
        r = int(bad[0])
        if short[r]:
            raise TraceParseError(f"expected at least {needed} columns, got {widths[r]}",
                                  line=line + r)
        raise TraceParseError("empty ID field", line=line + r)


def relabel(codes: np.ndarray, ids: list[str], mapping: dict[str, int]) -> np.ndarray:
    """Canonical IDs of the fields: raw IDs numbered in first-occurrence order.

    ``mapping`` holds the raw IDs of earlier records and gains the new ones.
    """
    first = _first_positions(codes, len(ids))
    seen = np.argsort(first)[:np.count_nonzero(first < codes.size)]
    labels = np.empty(len(ids), np.int32)  # half the memory of int64 until the codes are formed
    labels[seen] = [mapping.setdefault(ids[c], len(mapping)) for c in seen.tolist()]
    return labels[codes]
