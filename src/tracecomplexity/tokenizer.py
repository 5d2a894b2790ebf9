"""Tokenizer behind trace.parse_trace: delimited text to canonical ID labels.

The text is read in pieces of about ``_CHUNK`` characters, each ending at a
record end. A piece of ASCII text without quotes or lone carriage returns
is read from its bytes, with vectorized operations:

* Its fields are found. A fixed-layout piece, whose lines all have the
  first line's length and its delimiters at the same columns, and whose
  kept fields are neither empty nor hold whitespace, is read off its first
  line: each kept column starts at one offset of every line, so the words
  of its fields (see ``_words``) are one strided view of the bytes. The
  files ``write_trace`` writes are such pieces. Any other piece, a
  fixed-width log padded with spaces among them, is scanned for every
  delimiter and line end, and its fields are stripped.
* The two kept fields of each record are looked up in the file's
  ``Vocabulary``, which knows every ID of 1 to 7 bytes met so far by the
  64-bit word that spells it. If every record is complete and every kept
  field is known, the piece's labels are one gather.
* Otherwise (a new ID, an ID of 8 bytes or more, an empty field, a short
  record) the fields are interned: equal strings get equal codes, numbered
  for the piece alone, and ``Vocabulary.relabel`` maps those codes to
  labels, learning the new IDs. The first 7 bytes of each field tell its
  ID apart from all IDs of at most 7 bytes; only longer IDs read further.

A piece with quoting, lone carriage returns or non-ASCII text, which the
byte reading cannot reproduce exactly, goes to csv.reader instead. That
hands the stream back at the first piece end where a record ends, and its
records are interned and relabelled alike.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Callable, Iterator

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
#: For a string with k bytes left, at most 8: _LOW[k] keeps the bytes of
#: its next word, at most 7, and _TOP[k] tops them with k.
_LOW = np.array([(1 << 8 * min(k, 7)) - 1 for k in range(9)], dtype=np.uint64)
_TOP = np.array([k << 56 for k in range(9)], dtype=np.uint64)
#: The odd multiplier of the vocabulary's multiply-shift hash.
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
#: A word no field has: a word's top byte is a count of at most 8.
_NO_WORD = np.uint64(2 ** 64 - 1)
#: IDs a vocabulary learns at most, so its table stays below 1 MB. A file
#: with more IDs brings new ones in most pieces, which are interned anyway.
_VOCABULARY_LIMIT = 1 << 14


@dataclass(frozen=True)
class Records:
    """A run of consecutive records, reduced to their two ID fields.

    ``codes`` gives each record's source then destination ID as an index
    into ``ids``, the distinct IDs of the run stripped of whitespace; codes
    mean nothing for a record with too few fields. If ``ids`` is None, the
    vocabulary knew every field and the codes are canonical labels.
    ``words`` holds the word of each of ``ids`` (see ``_words``), or is None
    if the run was not read from bytes. ``error`` is why the record after
    the last one here could not be read.
    """

    widths: np.ndarray   # fields per record
    codes: np.ndarray
    ids: list[str] | None
    error: str | None = None
    words: np.ndarray | None = None


class Vocabulary:
    """The IDs of one file met so far, each with its canonical label: the
    IDs numbered in order of first occurrence.

    ``mapping`` holds every ID. Those of 1 to 7 bytes are also found by
    their word (see ``_words``) in a multiply-shift hash table with linear
    probing. ``_slots`` holds labels, -1 where empty, and a slot's label is
    a hit only if ``_word_of`` that label is the word looked up. The table
    keeps at least three slots in four empty; at 256 IDs it is 8 or 16 KB,
    and it never holds more than ``_VOCABULARY_LIMIT`` words.
    """

    def __init__(self) -> None:
        self.mapping: dict[str, int] = {}
        self._slots = np.full(16, -1, np.int32)
        # Each label's word, _NO_WORD if it has none; the last entry is
        # always unused, so an empty slot (-1) finds _NO_WORD.
        self._word_of = np.full(16, _NO_WORD)
        self._stored = 0
        self._probes = 1  # slots a stored word may be looked for in

    def _home(self, words: np.ndarray) -> np.ndarray:
        """Each word's first slot: the top bits of its product with the multiplier."""
        bits = self._slots.size.bit_length() - 1
        home = words * _MULTIPLIER
        home >>= np.uint64(64 - bits)
        return home.view(np.int64)

    def lookup(self, words: np.ndarray) -> np.ndarray | None:
        """The labels of ``words``, or None if any of them is unknown."""
        home = self._home(words)
        labels = self._slots.take(home)
        missed = np.flatnonzero(self._word_of.take(labels) != words)
        step = 1
        # A word not found before an empty slot is not stored.
        while missed.size and step < self._probes and labels[missed].min() >= 0:
            found = self._slots.take((home[missed] + step) % self._slots.size)
            labels[missed] = found
            missed = missed[self._word_of.take(found) != words[missed]]
            step += 1
        return None if missed.size else labels

    def relabel(self, codes: np.ndarray, ids: list[str], words: np.ndarray | None) -> np.ndarray:
        """Canonical labels of fields whose codes index ``ids``; ``words``
        holds the word of each of ``ids``, or is None.

        New IDs are numbered in first-occurrence order. Each ID of 1 to 7
        bytes seen here is learned, if it was not known by its word yet.
        """
        first = _first_positions(codes, len(ids))
        seen = np.argsort(first)[:np.count_nonzero(first < codes.size)]
        labels = np.empty(len(ids), np.int32)  # half the memory of int64 until the codes are formed
        labels[seen] = [self.mapping.setdefault(ids[c], len(self.mapping)) for c in seen.tolist()]
        if words is not None and self._stored < _VOCABULARY_LIMIT:
            if len(self.mapping) >= self._word_of.size:
                grown = np.full(2 * len(self.mapping), _NO_WORD)
                grown[:self._word_of.size] = self._word_of
                self._word_of = grown
            words = words[seen]
            learn = (words >> np.uint64(56)) - np.uint64(1) < 7  # the IDs of 1 to 7 bytes
            learn &= self._word_of[labels[seen]] != words
            if learn.any():
                room = _VOCABULARY_LIMIT - self._stored
                self._learn(labels[seen[learn]][:room], words[learn][:room])
        return labels[codes]

    def _learn(self, labels: np.ndarray, words: np.ndarray) -> None:
        """Store the words of new labels, rebuilding the table larger once
        a quarter of its slots is taken."""
        self._word_of[labels] = words
        self._stored += labels.size
        if 4 * self._stored > self._slots.size:  # keep three slots in four empty
            self._slots = np.full(1 << (8 * self._stored).bit_length(), -1, np.int32)
            self._probes = 1
            labels = np.flatnonzero(self._word_of != _NO_WORD).astype(np.int32)
        home = self._home(self._word_of[labels])
        step = 0
        while labels.size:
            # Each free slot takes the first of the labels probing it; the
            # others move on to the next slot.
            at = (home + step) % self._slots.size
            free = np.flatnonzero(self._slots[at] < 0)
            placed = free[np.unique(at[free], return_index=True)[1]]
            self._slots[at[placed]] = labels[placed]
            waiting = np.ones(labels.size, bool)
            waiting[placed] = False
            labels, home = labels[waiting], home[waiting]
            step += 1
        self._probes = max(self._probes, step)


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


def _words(word: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
           offset: int = 0) -> np.ndarray:
    """The word of each string data[s:s+n] at ``offset``: its next 7 bytes,
    topped by a byte saying how many bytes were left (at most 8), so "4"
    and "4\\x00" differ. ``word`` holds the 8 bytes at each offset of data.

    The word at offset 0 spells a string of at most 7 bytes whole.
    """
    left = np.minimum(lengths - offset if offset else lengths, 8)
    words = word.take(starts + offset if offset else starts)
    words &= _LOW.take(left)
    words |= _TOP.take(left)
    return words


def _string_codes(first: np.ndarray, word: np.ndarray | None = None,
                  starts: np.ndarray | None = None,
                  lengths: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Codes 0..count-1 for strings, equal where the strings are.

    ``first`` holds their words at offset 0 (see ``_words``), which give
    the codes, and tell apart all strings of at most 7 bytes. Longer ones
    are data[s:s+n] for their ``starts`` and ``lengths``, read through
    ``word``: each later word splits the codes of the strings that reach it
    into new ones, so the work grows with the bytes read.
    """
    code, count = _dense(first)
    longest = 0 if lengths is None else int(lengths.max(initial=0))
    for offset in range(7, longest, 7):
        at = np.flatnonzero(lengths > offset)
        rank, n = _dense(_words(word, starts[at], lengths[at], offset))
        split, m = _dense(code[at] * n + rank)
        code[at] = count + split
        count += m
    return _dense(code) if longest > 7 else (code, count)


def _first_positions(codes: np.ndarray, count: int) -> np.ndarray:
    """Where each code first occurs in ``codes``; ``codes.size`` if nowhere."""
    first = np.full(count, codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    return first


def _fixed_fields(piece: str, word: np.ndarray, buf: np.ndarray, delimiter: str,
                  columns: tuple[int, int], limit: int
                  ) -> tuple[np.ndarray, np.ndarray, Callable] | None:
    """The fields of a fixed-layout piece without whitespace in its fields:
    one whose lines all have the first line's length, delimiters and record
    end, at the same columns, and whose two kept fields are not empty. None
    for any other piece, which the scan reads; that one also reports on a
    blank or short first line or a field past the limit.

    Returns each record's field count, the words (see ``_words``) of its
    source then destination field, and the rule that maps field numbers to
    where those fields start and stop. A kept column's fields all start at
    one offset of their line, so their words are a strided slice of
    ``word``, which holds the 8 bytes at each offset of the piece.
    """
    line = piece.find("\n") + 1
    if line < 2 or len(piece) % line or line > limit:
        return None
    rows = len(piece) // line
    body = buf[:len(piece)]
    grid = body.reshape(rows, line)
    cols = np.flatnonzero(grid[0] == ord(delimiter))
    cr = grid[:, -2] == _CR  # every \r precedes a \n, so no \r is elsewhere
    crlf = int(cr[0])
    # The counts say that no line holds a delimiter or line end elsewhere.
    if (cols.size < max(columns) or line - crlf < 2 or cr.any() != cr.all()
            or np.count_nonzero(body == _NL) != rows
            or np.count_nonzero(body == ord(delimiter)) != rows * cols.size
            or not (grid[:, -1] == _NL).all() or not (grid[:, cols] == ord(delimiter)).all()):
        return None
    opens, ends = [0, *(cols + 1).tolist()], [*cols.tolist(), line - 1 - crlf]
    starts = [opens[column] for column in columns]
    lengths = [ends[column] - opens[column] for column in columns]
    if min(lengths) == 0:
        return None
    first = np.empty(2 * rows, np.uint64)
    for k, (start, length) in enumerate(zip(starts, lengths)):
        np.bitwise_and(word[start::line][:rows], _LOW[min(length, 8)], out=first[k::2])
        first[k::2] |= _TOP[min(length, 8)]

    def bounds(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where fields start and stop; field i is column i % 2 of row i // 2."""
        begin = (field >> 1) * line + np.take(starts, field & 1)
        return begin, begin + np.take(lengths, field & 1)

    return np.full(rows, cols.size + 1), first, bounds


def _scanned_fields(text: bytes, buf: np.ndarray, delimiter: str, columns: tuple[int, int],
                    limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, str | None]:
    """Each record's field count, and where its two kept fields start and
    stop, from the positions of every delimiter and line end; and why the
    record after the last one could not be read, if one could not."""
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
    return widths, opens[field.ravel()] + 1, ends[field.ravel()], error


def _byte_records(piece: str, delimiter: str, columns: tuple[int, int], limit: int,
                  vocab: Vocabulary) -> Records:
    """Tokenize an ASCII piece with vectorized operations over its bytes."""
    text = piece.encode("ascii")
    data = text + _PAD
    buf = np.frombuffer(data, np.uint8)
    word = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # 8 bytes at each offset
    # Only whitespace other than the delimiter can be in a field to strip.
    spaced = any(c in piece for c in _INNER_SPACE if c != delimiter)
    error = None
    if spaced or not (fields := _fixed_fields(piece, word, buf, delimiter, columns, limit)):
        widths, starts, stops, error = _scanned_fields(text, buf, delimiter, columns, limit)
        if spaced:
            while (lead := (starts < stops) & _SPACE[buf[starts]]).any():
                starts += lead
            while (trail := (stops > starts) & _SPACE[buf[stops - 1]]).any():
                stops -= trail
        first = _words(word, starts, stops - starts)
        fields = widths, first, lambda field: (starts[field], stops[field])
    widths, first, bounds = fields
    # The vocabulary knows no ID of 8 bytes or more, and a short record's
    # codes would mean nothing; the interning below reports on it.
    if first.max(initial=0) < _TOP[8]:  # every kept field is under 8 bytes
        if widths.min(initial=len(piece)) > max(columns):
            labels = vocab.lookup(first)
            if labels is not None:
                return Records(widths, labels, None, error)
        codes, count = _string_codes(first)
    else:
        begin, end = bounds(np.arange(first.size))
        codes, count = _string_codes(first, word, begin, end - begin)
    at = _first_positions(codes, count)
    begin, end = bounds(at)
    ids = [piece[b:e] for b, e in zip(begin.tolist(), end.tolist())]
    return Records(widths, codes, ids, error, first[at])


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


def records(stream: IO, delimiter: str, columns: tuple[int, int],
            vocab: Vocabulary) -> Iterator[Records]:
    """Tokenize a text stream into runs of records, keeping two columns.

    The byte tokenizer reads each piece it can read exactly, labelling it
    through ``vocab`` when that knows all its fields; csv.reader reads the
    others, and with them any piece that a quoted field of theirs runs into.
    """
    limit = csv.field_size_limit()
    pieces = _pieces(stream)
    for piece in pieces:
        if _byte_tokenizable(piece, delimiter):
            yield _byte_records(piece, delimiter, columns, limit, vocab)
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
