"""Tokenizer behind trace.parse_trace: delimited text to canonical ID labels.

The text is read in pieces of about ``_CHUNK`` characters, each ending at a
record end. A piece of ASCII text without quotes or lone carriage returns
is read from its bytes, with vectorized operations. A fixed-layout piece,
whose lines all have the first line's length and delimiters, and whose kept
fields are neither empty nor hold whitespace, is read off its first line,
as the files ``write_trace`` writes are; any other piece is scanned for
every delimiter and line end, and its fields are stripped. Past the header
rows (``skip_rows``), every kept field is looked up by its key (see
``_words``) in the file's ``Vocabulary``, and only those it does not know
are read as text and labelled through its mapping, in record order.

A piece with quoting, lone carriage returns or non-ASCII text, which the
byte reading cannot reproduce exactly, goes to csv.reader instead. That
hands the stream back at the first piece end where a record ends, and its
records are labelled through the same mapping.
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
#: Records the csv fallback reads before checking and labelling them.
_CSV_BATCH = 1 << 16
#: The words (see ``_words``) that key a field in the vocabulary, which
#: spell an ID of at most 7 bytes each whole. Three hold a dotted IPv4
#: address (7 to 15 bytes), a MAC address (17) and an IPv4 address with a
#: port (up to 21); each word costs a gather and a compare per field.
_KEY_WORDS = 3
#: Appended to every byte buffer: a key can be read at any field start, and
#: the byte before offset 0 (index -1) is a newline, not a carriage return.
_PAD = b"\n" * (7 * _KEY_WORDS + 1)
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
#: Unknown fields of a piece read and learned before the rest are looked up.
_FEW_MISSES = 1 << 10
#: IDs a vocabulary learns at most, so its table stays below 1 MB. A file
#: with more IDs brings new ones in most pieces, which are read as text.
_VOCABULARY_LIMIT = 1 << 14


@dataclass(frozen=True)
class Records:
    """A run of records, reduced to each one's source then destination
    label (meaningless for a record with too few fields), after ``skipped``
    header records. ``error`` is why the record after the run could not be
    read."""

    widths: np.ndarray   # fields per record
    labels: np.ndarray
    error: str | None = None
    skipped: int = 0


class Vocabulary:
    """The IDs of one file met so far, each with its canonical label: the
    IDs numbered in order of first occurrence.

    ``mapping`` holds every ID. Up to ``_VOCABULARY_LIMIT`` IDs of at most
    ``7 * _KEY_WORDS`` bytes are also found by their key (see ``_words``) in
    a multiply-shift hash table with linear probing. ``_slots`` holds labels,
    -1 where empty, and a slot's label is a hit only if ``_key_of`` that
    label is the key looked up. The table keeps at least three slots in four
    empty; at 256 IDs it is 8 or 16 KB.
    """

    def __init__(self) -> None:
        self.mapping: dict[str, int] = {}
        self._slots = np.full(16, -1, np.int32)
        # Each label's key, a row per word, _NO_WORD if it has none; the
        # last column is always unused, so an empty slot (-1) finds _NO_WORD.
        self._key_of = np.full((_KEY_WORDS, 16), _NO_WORD)
        self._stored = 0
        self._probes = 1  # slots a stored key may be looked for in

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Each key's first slot: the top bits of its words, weighted by
        powers of the multiplier, times the multiplier. A word past an ID's
        end is 0, so a key hashes alike however many of its words are read."""
        bits = self._slots.size.bit_length() - 1
        home = keys[-1]
        for words in keys[-2::-1]:
            home = home * _MULTIPLIER
            home += words
        home = home * _MULTIPLIER
        home >>= np.uint64(64 - bits)
        return home.view(np.int64)

    def _differs(self, labels: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Whether each label's key differs from its column of ``keys``. An
        ID that ends within the words read has a last word that says so, so
        a stored key equal to its key on those words is its ID's."""
        return (self._key_of[:len(keys)].take(labels, axis=1) != keys).any(axis=0)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The label of each column of ``keys``, -1 where it is unknown, and
        the columns where it is."""
        if not self._stored:
            return np.full(keys.shape[1], -1, np.int32), np.arange(keys.shape[1])
        home = self._home(keys)
        labels = self._slots.take(home)
        missed = probing = np.flatnonzero(self._differs(labels, keys))
        step = 1
        while probing.size and step < self._probes:
            # A key not found before an empty slot is not stored.
            probing = probing[labels[probing] >= 0]
            found = self._slots.take((home[probing] + step) % self._slots.size)
            labels[probing] = found
            probing = probing[self._differs(found, keys[:, probing])]
            step += 1
        labels[probing] = -1
        return labels, missed[labels[missed] < 0]

    def labels(self, keys: np.ndarray, text: Callable[[np.ndarray], list[str]]) -> np.ndarray:
        """The labels of fields by their keys, one column each, in record
        order; ``text`` gives the IDs of the fields whose numbers it is given.

        Only fields the table does not know are read as text, and labelled
        through ``mapping``. Equal keys that spell their ID whole (see
        ``_words``) are read once and learned; a longer ID is read at each.
        """
        labels, missed = self.lookup(keys)
        while missed.size:
            # Many unknown fields mostly repeat a few new IDs: learn those of
            # the first ones, then look the others up again.
            fields, missed = missed[:_FEW_MISSES], missed[_FEW_MISSES:]
            known = keys[:, fields]
            whole = known[-1] < _TOP[8]
            # Equal whole keys sort together, in field order: lexsort is stable.
            order = np.flatnonzero(whole)
            order = order[np.lexsort(known[::-1, order])]
            run = np.ones(order.size, bool)
            run[1:] = (known[:, order[1:]] != known[:, order[:-1]]).any(axis=0)
            first = order[run]
            read = np.sort(np.concatenate((first, np.flatnonzero(~whole))))
            found = np.empty(fields.size, np.int32)
            found[read] = [self.mapping.setdefault(i, len(self.mapping))
                           for i in text(fields[read])]
            found[order] = found[first][np.cumsum(run) - 1]
            labels[fields] = found
            learn = np.sort(first)[:_VOCABULARY_LIMIT - self._stored]
            if learn.size:
                self._learn(found[learn], known[:, learn])
                if missed.size:
                    labels[missed], unknown = self.lookup(keys[:, missed])
                    missed = missed[unknown]
        return labels

    def _learn(self, labels: np.ndarray, keys: np.ndarray) -> None:
        """Store the keys of labels not stored yet, rebuilding the table
        larger once a quarter of its slots is taken."""
        if len(self.mapping) >= self._key_of.shape[1]:
            grown = np.full((_KEY_WORDS, 2 * len(self.mapping)), _NO_WORD)
            grown[:, :self._key_of.shape[1]] = self._key_of
            self._key_of = grown
        self._key_of[:len(keys), labels] = keys
        self._key_of[len(keys):, labels] = 0  # the words past those read
        self._stored += labels.size
        if 4 * self._stored > self._slots.size:  # keep three slots in four empty
            # 16 per key: a first piece's keys, learned in two calls, then
            # sit off their first slot as seldom as if learned in one.
            self._slots = np.full(1 << (16 * self._stored - 1).bit_length(), -1, np.int32)
            self._probes = 1
            labels = np.flatnonzero(self._key_of[0] != _NO_WORD).astype(np.int32)
        home = self._home(self._key_of[:, labels])
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


def _words(word: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The key of each string data[s:s+n]: its first words, one row each,
    as many as the longest string needs (see ``_depth``). Word j holds the
    string's bytes 7j to 7j+6, topped by a byte saying how many it has from
    7j on (at most 8), so "4" and "4\\x00" differ, and is 0 past its end.
    A key spells a string whole if its last word's top byte is under 8.
    ``word`` holds the 8 bytes at each offset of data.
    """
    offsets = 7 * np.arange(_depth(int(lengths.max(initial=0))))[:, None]
    left = np.clip(lengths - offsets, 0, 8)
    keys = word.take(starts + offsets)
    keys &= _LOW.take(left)
    keys |= _TOP.take(left)
    return keys


def _depth(longest: int) -> int:
    """The words that spell a string of ``longest`` bytes, 1 to _KEY_WORDS."""
    return min(max(1, -(-longest // 7)), _KEY_WORDS)


def _fixed_fields(piece: str, word: np.ndarray, buf: np.ndarray, delimiter: str,
                  columns: tuple[int, int], limit: int
                  ) -> tuple[np.ndarray, np.ndarray, Callable] | None:
    """The fields of a fixed-layout piece without whitespace in its fields:
    one whose lines all have the first line's length, delimiters and record
    end, at the same columns, and whose two kept fields are not empty. None
    for any other piece, which the scan reads; that one also reports on a
    blank or short first line or a field past the limit.

    Returns each record's field count, the keys (see ``_words``) of its
    source then destination field, and the rule that maps field numbers to
    where those fields start and stop. A kept column's fields all start at
    one offset of their line, so each word of their keys is a strided slice
    of ``word``, which holds the 8 bytes at each offset of the piece.
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
    keys = np.empty((_depth(max(lengths)), 2 * rows), np.uint64)
    for k, (start, length) in enumerate(zip(starts, lengths)):
        for j, out in enumerate(keys[:, k::2]):
            left = min(max(length - 7 * j, 0), 8)  # 0 past the field's end
            np.bitwise_and(word[start + 7 * j::line][:rows], _LOW[left], out=out)
            out |= _TOP[left]

    def bounds(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where fields start and stop; field i is column i % 2 of row i // 2."""
        begin = (field >> 1) * line + np.take(starts, field & 1)
        return begin, begin + np.take(lengths, field & 1)

    return np.full(rows, cols.size + 1), keys, bounds


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
                  vocab: Vocabulary, skip: int) -> Records:
    """Tokenize an ASCII piece with vectorized operations over its bytes,
    dropping up to ``skip`` header records first."""
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
        keys = _words(word, starts, stops - starts)
        fields = widths, keys, lambda field: (starts[field], stops[field])
    widths, keys, bounds = fields
    drop = min(skip, widths.size)

    def ids(field: np.ndarray) -> list[str]:
        begin, end = bounds(field + 2 * drop)
        return [piece[b:e] for b, e in zip(begin.tolist(), end.tolist())]
    return Records(widths[drop:], vocab.labels(keys[:, 2 * drop:], ids), error, drop)


def _csv_records(rows: Iterator[list[str]], columns: tuple[int, int], vocab: Vocabulary,
                 skip: int) -> Iterator[Records]:
    """Batches of rows from csv.reader, labelled through ``vocab``'s
    mapping, after up to ``skip`` header rows."""
    source, dest = columns
    needed = max(columns) + 1
    mapping = vocab.mapping
    while True:
        widths: list[int] = []
        labels: list[int] = []
        error = None
        skipped = 0
        try:
            for row in islice(rows, _CSV_BATCH):
                if skipped < skip:
                    skipped += 1
                    continue
                widths.append(len(row))
                if len(row) < needed:  # the width check rejects the labels
                    labels += (0, 0)
                    continue
                labels.append(mapping.setdefault(row[source].strip(), len(mapping)))
                labels.append(mapping.setdefault(row[dest].strip(), len(mapping)))
        except csv.Error as e:
            error = str(e)
        if not (widths or skipped) and error is None:
            return
        skip -= skipped
        yield Records(np.array(widths, dtype=np.int64), np.array(labels, dtype=np.int32),
                      error, skipped)
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


def records(stream: IO, delimiter: str, columns: tuple[int, int], vocab: Vocabulary,
            skip: int = 0) -> Iterator[Records]:
    """Tokenize a text stream into runs of records, keeping two columns
    labelled through ``vocab``, past ``skip`` header records. The byte
    tokenizer reads each piece it can read exactly; csv.reader reads the
    others, and any piece that a quoted field of theirs runs into. The runs
    end at the first record that cannot be read."""
    limit = csv.field_size_limit()
    pieces = _pieces(stream)
    for piece in pieces:
        if _byte_tokenizable(piece, delimiter):
            runs = [_byte_records(piece, delimiter, columns, limit, vocab, skip)]
        else:
            runs = _csv_records(_csv_rows(piece, pieces, delimiter), columns, vocab, skip)
        for run in runs:
            yield run
            skip -= run.skipped
            if run.error is not None:
                return


def check_rows(widths: np.ndarray, labels: np.ndarray, empty: int, needed: int,
               line: int) -> None:
    """Raise for the first record with too few fields or an empty ID, whose
    label is ``empty`` (-1 if no ID is empty)."""
    if empty < 0 and widths.min(initial=needed) >= needed:
        return
    short = widths < needed
    bad = short | (labels[0::2] == empty) | (labels[1::2] == empty)
    if bad.any():
        r = int(bad.argmax())
        if short[r]:
            raise TraceParseError(f"expected at least {needed} columns, got {widths[r]}",
                                  line=line + r)
        raise TraceParseError("empty ID field", line=line + r)
