import csv
import hashlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windsent import corpus
from windsent.corpus import (
    REQUIRED_FIELDS,
    Comment,
    CommentCollection,
    DuplicateIdError,
    FileNotReadableError,
    MalformedRecordError,
    load_corpus,
    load_corpus_lenient,
    parse_int,
    validate_record,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestValidateRecord:
    def test_minimal_record(self):
        comment = validate_record({"id": "a1", "text": "wind farms"})
        assert comment == Comment(id="a1", text="wind farms")

    def test_missing_text(self):
        with pytest.raises(ValueError, match="^missing field: text$"):
            validate_record({"id": "a1"})

    def test_id_trimmed(self):
        comment = validate_record(
            {"id": " a2 ", "text": "ok", "timestamp": "2023-06-01T00:00:00Z"})
        assert comment == Comment("a2", "ok")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="^text is empty$"):
            validate_record({"id": "a1", "text": ""})

    def test_whitespace_text_is_preserved_verbatim(self):
        assert validate_record({"id": "a1", "text": "  "}).text == "  "

    def test_missing_id(self):
        with pytest.raises(ValueError, match="^missing field: id$"):
            validate_record({"text": "x"})
        with pytest.raises(ValueError, match="^missing field: id$"):
            validate_record({"id": "   ", "text": "x"})


class TestCsvLoading:
    def test_three_rows_in_file_order(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,text\na,first\nb,second\nc,third\n")
        collection = load_corpus(path, "csv")
        assert len(collection) == 3
        assert [c.id for c in collection] == ["a", "b", "c"]
        assert [c.text for c in collection] == ["first", "second", "third"]

    def test_quoted_fields_and_optional_columns(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     'id,text,source_group,timestamp\n'
                     'a,"hello, world",grp,2023-01-01T00:00:00Z\n'
                     'b,"line\nbreak",,\n'
                     'c,say "hi" x""y,,\n')
        # a quote inside an unquoted field is an ordinary character
        assert load_corpus(path, "csv").comments == (
            Comment("a", "hello, world"), Comment("b", "line\nbreak"),
            Comment("c", 'say "hi" x""y'))

    def test_missing_required_column(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,body\na,x\n")
        with pytest.raises(MalformedRecordError) as exc:
            load_corpus(path, "csv")
        assert exc.value.line == 1

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path / "c.csv", "id,text,likes\na,x,10\n")
        collection = load_corpus(path, "csv")
        assert collection.comments[0] == Comment(id="a", text="x")


class TestJsonlLoading:
    def test_missing_text_names_line_two(self, tmp_path):
        path = write(tmp_path / "c.jsonl",
                     '{"id": "a", "text": "x"}\n{"id": "b"}\n')
        with pytest.raises(MalformedRecordError) as exc:
            load_corpus(path, "jsonl")
        assert exc.value.line == 2

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path / "c.jsonl", '{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(MalformedRecordError) as exc:
            load_corpus(path, "jsonl")
        assert exc.value.line == 2

    def test_unknown_keys_ignored(self, tmp_path):
        path = write(tmp_path / "c.jsonl",
                     '{"id": "a", "text": "x", "tokens": ["x"], "dropped": false}\n')
        assert load_corpus(path, "jsonl").comments[0] == Comment(id="a", text="x")

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path / "c.jsonl",
                     '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(DuplicateIdError) as exc:
            load_corpus(path, "jsonl")
        assert exc.value.comment_id == "a"

    def test_non_string_id_rejected(self, tmp_path):
        path = write(tmp_path / "c.jsonl", '{"id": 7, "text": "x"}\n')
        with pytest.raises(MalformedRecordError):
            load_corpus(path, "jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotReadableError):
            load_corpus(tmp_path / "nope.jsonl", "jsonl")


@pytest.mark.parametrize("fmt,body", [
    pytest.param("jsonl", '{"id": "a", "text": "x", "source_group": 1}\n',
                 id="source-group-number"),
    pytest.param("jsonl", '{"id": "a", "text": "x", "timestamp": [2023]}\n',
                 id="timestamp-list"),
    pytest.param("jsonl", '{"id": "a", "text": "x", "source_group": "\\udfff"}\n',
                 id="source-group-lone-surrogate"),
    pytest.param("csv", "id,text,source_group,source_group\na,x,g,h\n",
                 id="csv-source-group-twice"),
])
def test_fields_other_than_id_and_text_are_ignored(tmp_path, fmt, body):
    path = write(tmp_path / f"c.{fmt}", body)
    assert load_corpus(path, fmt).comments == (Comment("a", "x"),)
    assert load_corpus_lenient(path, fmt)[1] == ()


class TestLenientMode:
    def test_accounting_accepted_plus_skipped(self, tmp_path):
        lines = [
            '{"id": "a", "text": "x"}',
            '{"id": "b"}',
            '{"id": "a", "text": "dup"}',
            '{"id": "c", "text": ""}',
            '{"id": "d", "text": "y"}',
        ]
        path = write(tmp_path / "c.jsonl", "\n".join(lines) + "\n")
        collection, skipped = load_corpus_lenient(path, "jsonl")
        assert len(collection) + len(skipped) == len(lines)
        assert [c.id for c in collection] == ["a", "d"]
        assert [s.line for s in skipped] == [2, 3, 4]

    def test_duplicate_id_is_quoted_in_ascii(self, tmp_path):
        # repr() of an id follows the interpreter's Unicode tables: U+31350
        # (Unicode 15) printed escaped under 3.11 and as itself under 3.13
        record = '{"id": "x\U00031350", "text": "y"}\n'
        path = write(tmp_path / "c.jsonl", record * 2)
        _, skipped = load_corpus_lenient(path, "jsonl")
        assert skipped == ((2, "duplicate id 'x\\U00031350'"),)
        with pytest.raises(DuplicateIdError, match=r"^line 2: duplicate id 'x\\U00031350'$"):
            load_corpus(path, "jsonl")

    def test_strict_equals_lenient_on_clean_file(self, golden_corpus_path):
        strict = load_corpus(golden_corpus_path, "jsonl")
        lenient, skipped = load_corpus_lenient(golden_corpus_path, "jsonl")
        assert skipped == ()
        assert strict == lenient


class TestGoldenCorpus:
    def test_record_count_and_id_checksum(self, golden_corpus_path, manifest):
        collection = load_corpus(golden_corpus_path, "jsonl")
        assert len(collection) == manifest["record_count"] == 50
        checksum = hashlib.sha256("".join(c.id for c in collection).encode()).hexdigest()
        assert checksum == manifest["id_checksum"]

    def test_loading_twice_is_identical(self, golden_corpus_path):
        first = load_corpus(golden_corpus_path, "jsonl")
        second = load_corpus(golden_corpus_path, "jsonl")
        assert first == second


class TestEncodingEdgeCases:
    def test_utf8_bom_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"id": "a", "text": "x"}\n')
        assert load_corpus(path, "jsonl").comments[0].id == "a"

    def test_crlf_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x"}\r\n{"id": "b", "text": "y"}\r\n')
        assert [c.id for c in load_corpus(path, "jsonl")] == ["a", "b"]

    def test_crlf_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"id,text\r\na,first\r\nb,second\r\n")
        assert [c.text for c in load_corpus(path, "csv")] == ["first", "second"]

    def test_invalid_utf8_is_file_not_readable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "a", "text": "\xff\xfe"}\n')
        with pytest.raises(FileNotReadableError):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("field", ["id", "text"])
    def test_lone_surrogate_rejected(self, field):
        record = {"id": "a", "text": "x", field: "wind \ud800"}
        with pytest.raises(ValueError, match=f"^field {field}: contains a lone surrogate$"):
            validate_record(record)

    @pytest.mark.parametrize("value", ["\ud800", "\udfff wind", "wind\udc80",
                                       "\u00e9t\u00e9 \ud83c", "\U0001F32C\udc00"])
    def test_lone_surrogate_rejected_wherever_it_stands(self, value):
        with pytest.raises(ValueError, match="^field text: contains a lone surrogate$"):
            validate_record({"id": "a", "text": value})

    def test_non_ascii_text_without_surrogates_is_kept(self):
        text = "\u00e9t\u00e9 \U0001F32C \u2028 ok"
        assert validate_record({"id": " \u00e9 ", "text": text}) == Comment("\u00e9", text)

    @pytest.mark.parametrize("lenient", [False, True])
    def test_csv_reader_error_is_malformed_record(self, tmp_path, lenient):
        # the reader cannot resume after an error, so lenient loading aborts
        # too; each error names the line where its record starts, not the
        # line where the reader gave up
        load = load_corpus_lenient if lenient else load_corpus
        for body, reason in [
            ("b," + "y" * 140_000 + "\nc,z\n", "field larger than field limit (131072)"),
            # strict quoting: text after a closing quote, a space too
            ('b,"x" ,y\n', "',' expected after '\"'"),
            ('b,"two\nlines"y\n', "',' expected after '\"'"),
            ('b,"two\nlines\nc,z\n', "unexpected end of data"),
        ]:
            path = write(tmp_path / "c.csv", "id,text\na,x\n" + body)
            with pytest.raises(MalformedRecordError) as exc:
                load(path, "csv")
            assert (exc.value.line, exc.value.reason) == (3, f"invalid CSV: {reason}")

    def test_unicode_line_separator_round_trips(self, tmp_path):
        # U+2028 is a legal raw character inside a JSON string and must not
        # be misread as a record break
        text = "before after \U0001f642"
        line = json.dumps({"id": "a", "text": text}, ensure_ascii=False)
        reloaded = load_corpus(write(tmp_path / "sep.jsonl", line + "\n"), "jsonl")
        assert reloaded.comments[0].text == text


def test_collection_is_immutable_value(tmp_path):
    path = write(tmp_path / "c.jsonl", '{"id": "a", "text": "x"}\n')
    collection = load_corpus(path, "jsonl")
    assert isinstance(collection, CommentCollection)
    with pytest.raises(AttributeError):
        collection.comments = ()


def _iter_jsonl_by_json_loads(text):
    """Reference decoding: json.loads on every non-blank line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_int=parse_int)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(lineno, f"invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise MalformedRecordError(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedRecordError(lineno, "record is not a JSON object")
        yield lineno, obj


@pytest.mark.parametrize("digits", [0, 640, 4300])
def test_over_long_integer_loads_under_every_digit_limit(tmp_path, digits):
    # int() refuses more digits than the interpreter's limit, which is 4300
    # by default, 640 at the least, and none at all on some interpreters
    path = write(tmp_path / "c.jsonl", '{"id": "a", "text": "x"}\n'
                 '{"id": "b", "text": "y", "n": 1%s, "m": -9%s}\n' % ("0" * 5000, "9" * 639))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        loaded = load_corpus(path, "jsonl")
    finally:
        sys.set_int_max_str_digits(limit)
    assert loaded.comments == (Comment("a", "x"), Comment("b", "y"))
    assert parse_int("-" + "9" * 639) == -int("9" * 639)
    assert parse_int("1" + "0" * 640) == float("inf")


def _outcomes(path):
    """What strict and lenient loading make of one file: the collection and
    skipped records, or the CLI's ERROR line."""
    outcomes = []
    for load in (load_corpus, load_corpus_lenient):
        try:
            outcomes.append(load(path, "jsonl"))
        except (MalformedRecordError, DuplicateIdError) as exc:
            outcomes.append(f"ERROR {exc.code}: {exc}")
    return outcomes


_RECORDS = st.fixed_dictionaries(
    {"id": st.sampled_from(["a", "b", " c ", "", 7, "d\u2028e"])},
    optional={"text": st.sampled_from(["x", "", "wind\u2028farm", "caf\u00e9 \U0001f32c", None]),
              "source_group": st.sampled_from(["g", ""])})
_RECORD_LINES = st.builds(
    lambda prefix, record, ascii_only, suffix: prefix + json.dumps(
        record, ensure_ascii=ascii_only) + suffix,
    st.sampled_from(["", " ", "\t", " \t", "\ufeff"]), _RECORDS, st.booleans(),
    st.sampled_from(["", " ", "\t", "\r", " junk", "x", "}"]))
_ODD_LINES = st.sampled_from([
    "", "  \t", "[1]", "7", "NaN", '"text"', "not json",
    '{"id":"a","text":"x"} junk',
    '{"id": "n", "text": "x", "v": ' + "1" * 5000 + "}",
    '{"id": "deep", "text": "x", "v": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"id": "u", "text": "raw\u2028separator"}',
])


@given(lines=st.lists(st.one_of(_RECORD_LINES, _ODD_LINES), max_size=8),
       final_newline=st.booleans())
@example(lines=['{"id":"a","text":"x"} junk'], final_newline=True)
@example(lines=['{"id":"a","text":"x"}\r', ' {"id":"b","text":"y"}\t', "[1]"],
         final_newline=False)
@settings(max_examples=200, deadline=None)
def test_jsonl_loading_matches_json_loads_on_every_line(tmp_path_factory, lines,
                                                        final_newline):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_text("\n".join(lines) + "\n" * final_newline, encoding="utf-8", newline="")
    with mock.patch.object(corpus, "_iter_jsonl", _iter_jsonl_by_json_loads):
        expected = _outcomes(path)
    assert _outcomes(path) == expected


def _stringio_lines(text):
    """The lines of io.StringIO(text, newline=""); a line holding a NUL
    raises the error Python 3.10's reader raises for it."""
    for line in io.StringIO(text, newline=""):
        if "\0" in line:
            raise csv.Error("line contains NUL")
        yield line


def _iter_csv_by_stringio(text):
    """Reference reading: a strict csv.reader over io.StringIO(text,
    newline=""), each error, a NUL's included, reported at the line where
    its record starts."""
    reader = csv.reader(_stringio_lines(text), strict=True)
    start = 1
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
            if row:
                yield reader.line_num, dict(zip(columns, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRecordError(start, f"invalid CSV: {exc}") from exc


def _csv_outcome(iter_csv, text):
    """The records read, then the line and reason of the error that ended
    the reading, if any."""
    records = []
    try:
        for lineno, raw in iter_csv(text):
            records.append((lineno, dict(raw)))
    except MalformedRecordError as exc:
        return records, (exc.line, exc.reason)
    return records, None


_CSV_PIECES = st.sampled_from(["a", "b", " ", ",", '"', '""', "\r", "\n", "\r\n",
                               "\x0b", "\x85", "\u2028", "\0", "id", "text"])


@given(header=st.sampled_from(["", "id,text\n", "id,text\r", "id,text\r\n",
                               "text,x,id\n", "id,text,id\n", '"id","te\nxt"\n']),
       body=st.lists(_CSV_PIECES, max_size=40).map("".join))
@example(header="id,text\n", body='a,x\rb,"' + "y" * 140_000 + '"\nc,z')
@example(header="id,text\r", body='a,"x\r\n\u2028y"\r\rb,"q""\x85"\r\n')
@example(header="id,text\n", body='a,"x\0"')
@settings(max_examples=1000, deadline=None)
def test_csv_lines_read_as_from_stringio(header, body):
    # records, their line numbers and every error's line and text match the
    # whole text read through io.StringIO(text, newline="")
    text = header + body
    assert _csv_outcome(corpus._iter_csv, text) == _csv_outcome(_iter_csv_by_stringio, text)
