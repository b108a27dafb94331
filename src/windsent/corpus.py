"""Corpus ingestion: the comment data model plus CSV/JSONL loaders.

Input formats:
  CSV   - UTF-8, a header row naming ``id`` and ``text``, strict RFC-4180
          quoting. Other columns are ignored; ``id`` or ``text`` named twice
          is an error.
  JSONL - one JSON object per line with the same field names. Other keys
          are ignored so that files with extra annotations (for example the
          cleaned-corpus output of the preprocess subcommand) stay loadable;
          a repeated key keeps its last value, as in JSON.

Loading is strict by default: the first malformed record aborts with an
error naming its line. ``load_corpus_lenient`` instead skips bad records and
returns them as a skip report (JSONL of ``{line, reason}`` when written).
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import LINE, FrozenRecord, WindsentError, read_text, write_file

REQUIRED_FIELDS = ("id", "text")
CORPUS_FORMATS = ("csv", "jsonl")


def parse_int(digits: str) -> int | float:
    """A JSON integer on every interpreter: ``int`` up to 640 digits, which no
    digit limit refuses; past every float and count, ``float``'s infinity."""
    return int(digits) if len(digits) <= 640 else float(digits)


_scan_once = json.JSONDecoder(parse_int=parse_int).scan_once  # json.loads minus its checks
# one JSONL line: through "\n", or the unterminated last line; never empty
_JSONL_LINE = re.compile(r"[^\n]*\n|[^\n]+")


class FileNotReadableError(WindsentError):
    code = "corpus/file-not-readable"


class MalformedRecordError(WindsentError):
    code = "corpus/malformed-record"

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateIdError(WindsentError):
    code = "corpus/duplicate-id"

    def __init__(self, comment_id: str, line: int):
        super().__init__(f"line {line}: duplicate id {ascii(comment_id)}")
        self.comment_id = comment_id
        self.line = line


class Comment(NamedTuple):
    """One social-media post. ``text`` is kept verbatim; ``id`` is trimmed."""

    id: str
    text: str


class CommentCollection(FrozenRecord):
    """The comments of one corpus, in input order. Immutable and equal to a
    collection with equal fields, like the NamedTuple records, but no tuple,
    so that a ``(collection, skipped)`` pair is never mistaken for one."""

    __slots__ = ("comments", "source_path")  # tuple[Comment, ...], str

    def __iter__(self) -> Iterator[Comment]:
        return iter(self.comments)

    def __len__(self) -> int:
        return len(self.comments)


class SkippedRecord(NamedTuple):
    line: int
    reason: str


def _string(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"field {name}: must be a string")
    if value.isascii():  # a lone surrogate is never ASCII
        return value
    # a JSON escape such as "\ud800" decodes to a lone surrogate, which no
    # output file can encode
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"field {name}: contains a lone surrogate") from None
    return value


def validate_record(raw: Mapping[str, object]) -> Comment:
    """Build a Comment from a parsed record.

    The id is whitespace-trimmed; text is preserved byte for byte; other
    fields are ignored. A bad record raises ValueError whose message is the
    reason a load reports for it.
    """
    raw_id = raw.get("id")
    if raw_id is None:
        raise ValueError("missing field: id")
    comment_id = _string("id", raw_id).strip()
    if not comment_id:
        raise ValueError("missing field: id")

    text = raw.get("text")
    if text is None:
        raise ValueError("missing field: text")
    if _string("text", text) == "":
        raise ValueError("text is empty")
    return Comment(comment_id, text)


def _csv_lines(text: str) -> Iterator[str]:
    """``text`` cut into lines one at a time (io.StringIO would first copy it
    whole, at four bytes a character); a NUL raises the error that Python
    3.10's reader raises for it, as later ones read it as data."""
    for match in LINE.finditer(text):
        line = match.group()
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _iter_csv(text: str) -> Iterator[tuple[int, Mapping[str, object]]]:
    # strict quoting refuses an unclosed quote, which would otherwise
    # swallow every later line, and text after a closing quote
    reader = csv.reader(_csv_lines(text), strict=True)
    start = 1  # the line where the record being read starts
    # the reader cannot resume after an error, so lenient loading aborts too
    try:
        header = next(reader, None)
        if header is None:
            return
        columns = [name.strip() for name in header]
        for required in REQUIRED_FIELDS:
            if required not in columns:
                raise MalformedRecordError(1, f"header lacks required column {required!r}")
        for name in REQUIRED_FIELDS:
            if columns.count(name) > 1:
                raise MalformedRecordError(1, f"header repeats column {name!r}")
        start = reader.line_num + 1
        for row in reader:
            # short rows leave later columns absent; extra cells are ignored
            if row:
                yield reader.line_num, dict(zip(columns, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRecordError(start, f"invalid CSV: {exc}") from exc


def _iter_jsonl(text: str) -> Iterator[tuple[int, Mapping[str, object]]]:
    # lines end at "\n" only (a CR before it is dropped): JSON strings may
    # legally contain raw U+2028/U+2029, which str.splitlines would misread
    # as record breaks. Each line is cut as it is read, never all at once.
    for lineno, match in enumerate(_JSONL_LINE.finditer(text), start=1):
        line = match.group().removesuffix("\n").removesuffix("\r")
        if not line.strip():
            continue
        # json.loads(line) returns what the scanner reads when that is the
        # whole line; every other line, valid or not, takes json.loads itself
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line, parse_int=parse_int)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(lineno, f"invalid JSON: {exc.msg}") from exc
            except RecursionError as exc:  # too deep nesting
                raise MalformedRecordError(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedRecordError(lineno, "record is not a JSON object")
        yield lineno, obj


def _load(path: str | Path, fmt: str, lenient: bool) -> tuple[CommentCollection, tuple[SkippedRecord, ...]]:
    path = Path(path)
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {fmt!r}")
    text = read_text(path, FileNotReadableError)
    records = _iter_csv(text) if fmt == "csv" else _iter_jsonl(text)

    comments: list[Comment] = []
    skipped: list[SkippedRecord] = []
    seen: set[str] = set()
    for lineno, raw in records:
        try:
            comment = validate_record(raw)
        except ValueError as exc:
            if lenient:
                skipped.append(SkippedRecord(lineno, str(exc)))
                continue
            raise MalformedRecordError(lineno, str(exc)) from exc
        if comment.id in seen:
            if lenient:
                skipped.append(SkippedRecord(lineno, f"duplicate id {ascii(comment.id)}"))
                continue
            raise DuplicateIdError(comment.id, lineno)
        seen.add(comment.id)
        comments.append(comment)
    return CommentCollection(tuple(comments), str(path)), tuple(skipped)


def load_corpus(path: str | Path, fmt: str) -> CommentCollection:
    """Strict load: any malformed record or duplicate id aborts."""
    collection, _ = _load(path, fmt, lenient=False)
    return collection


def load_corpus_lenient(path: str | Path, fmt: str) -> tuple[CommentCollection, tuple[SkippedRecord, ...]]:
    """Lenient load: malformed records and duplicate ids are skipped and
    reported; accepted + skipped always account for every input record."""
    return _load(path, fmt, lenient=True)


def jsonl_text(records: Iterable[Mapping[str, object]]) -> str:
    """One compact JSON object per line, keys sorted, non-ASCII kept."""
    return "".join(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
                   for record in records)


def write_skip_report(skipped: tuple[SkippedRecord, ...], path: str | Path) -> None:
    write_file(path, jsonl_text({"line": s.line, "reason": s.reason} for s in skipped))
