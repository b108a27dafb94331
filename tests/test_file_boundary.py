"""The package's one file boundary: every input file is read and every
output file written through ``windsent.errors``, so a bad file of any kind
ends in exactly one ``ERROR <code>:`` line and exit 1, with no report
written, and a BOM never changes what a file means. A flag the CLI does not
know is argparse's usage error, exit 2, again with no report written."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from windsent.cli import main
from windsent.config import parse_config_file
from windsent.lexicons import (DEFAULT_LEMMAS_PATH, DEFAULT_STOPWORDS_PATH, bundled_lexicon_dir,
                               load_stopwords)
from windsent.svgplots import CHART_FILES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "windsent"
GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.jsonl"
FILE_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes", "open"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "errors.py"),
                         ids=lambda p: p.name)
def test_only_errors_module_opens_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
            calls.append(f"line {node.lineno}: .{func.attr}(")
        elif isinstance(func, ast.Name) and func.id == "open":
            calls.append(f"line {node.lineno}: open(")
    assert not calls, f"{path.name} touches files outside errors.py: {calls}"


# the word rule's parts, which only lexicons.normalize_piece may use
WORD_RULE_NAMES = {"URL_PREFIXES", "DELETE_PUNCTUATION", "translate"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_input_rule_is_stated_once(path):
    # a line is cut by errors.LINE (JSONL by its own "\n" rule), never by
    # str.splitlines; a word is normalized by lexicons.normalize_piece alone
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        # a Name's id, an Attribute's attr, an imported alias's or a def's name
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name == "splitlines" or (name in WORD_RULE_NAMES and path.name != "lexicons.py"):
            found.append(f"line {node.lineno}: {name}")
    assert not found, f"{path.name} restates an input rule: {found}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_another_modules_private_names(path):
    # a private name is its own module's business; a rule two modules need
    # (such as the data-file word rule) belongs, public, to one of them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, reaches = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "windsent"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    reaches.append(f"line {node.lineno}: import {alias.name}")
                elif node.module is None or node.module == "windsent":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reaches.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not reaches, f"{path.name} uses private names of other modules: {reaches}"


def _not_utf8(path: Path, good: bytes) -> Path:
    path.write_bytes(good + b"\xff\n")
    return path


def _lexicon_copy(tmp_path: Path, name: str) -> list[str]:
    lexicons = shutil.copytree(bundled_lexicon_dir(), tmp_path / "lexicons")
    _not_utf8(lexicons / name, (bundled_lexicon_dir() / name).read_bytes())
    return ["--lexicons", str(lexicons)]


def _lexicon_line(tmp_path: Path, name: str, line: str) -> list[str]:
    """A copy of the bundled lexicons whose ``name`` file starts with ``line``."""
    lexicons = shutil.copytree(bundled_lexicon_dir(), tmp_path / "lexicons")
    (lexicons / name).write_text(
        line + "\n" + (bundled_lexicon_dir() / name).read_text(encoding="utf-8"),
        encoding="utf-8")
    return ["--lexicons", str(lexicons)]


def _stopwords(tmp_path: Path, line: str) -> list[str]:
    path = tmp_path / "stop.txt"
    path.write_text("# one word a line\nthe\n" + line + "\n", encoding="utf-8")
    return ["--stopwords", str(path)]


def _lemmas(tmp_path: Path, line: str) -> list[str]:
    path = tmp_path / "lemmas.tsv"
    path.write_text("# two columns\nruns\trun\n" + line + "\n", encoding="utf-8")
    return ["--lemmas", str(path)]


def _corpus(tmp_path: Path, name: str, text: str) -> list[str]:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return ["--input", str(path)]


def _plot(tmp_path: Path, data: bytes = b'{"meta": "\xff"}\n',
          command: str = "plot") -> list[str]:
    report = tmp_path / "report.json"
    report.write_bytes(data)
    return [command, "--report", str(report)]


# JSON the parser refuses without a JSONDecodeError; in a corpus line it sits
# under a key the loader ignores
_DEEP = "[" * 100_000 + "]" * 100_000
# past int()'s default digit limit, so it reads as an infinity
_LONG_INT = "1" + "0" * 5_000
# a report whose first count is _LONG_INT
_LONG_COUNT = ('{"distributions": {"pattern_avg": {"counts": {"positive": %s}}}}'
               % _LONG_INT).encode()


def _jsonl_extra_key(tmp_path: Path, value: str) -> list[str]:
    return _corpus(tmp_path, "c.jsonl",
                   '{"id": "a", "text": "good wind farm here", "x": %s}\n' % value)


# strict CSV quoting refuses both, naming the line where record b starts;
# without it, the unclosed quote swallowed every later record and "x"y read
# as xy, both exit 0
_UNCLOSED_QUOTE = 'id,text\na,good wind farm\nb,"great turbines\nc,great clean energy\n'
_TEXT_AFTER_QUOTE = 'id,text\na,good wind farm\nb,"x"y\nc,great clean energy\n'


# case -> (arguments after the command and --input/--out, expected start of the
# last stderr line)
BAD_INPUTS = {
    "stopwords-not-utf8": (
        lambda t: ["--stopwords", str(_not_utf8(t / "stop.txt",
                                                DEFAULT_STOPWORDS_PATH.read_bytes()))],
        "ERROR lexicon/file-not-readable: {tmp}/stop.txt: not valid UTF-8"),
    "lemmas-not-utf8": (
        lambda t: ["--lemmas", str(_not_utf8(t / "lemmas.tsv",
                                             DEFAULT_LEMMAS_PATH.read_bytes()))],
        "ERROR lexicon/file-not-readable: {tmp}/lemmas.tsv: not valid UTF-8"),
    "config-not-utf8": (
        lambda t: ["--config", str(_not_utf8(t / "run.conf", b"top_n = 5\n"))],
        "ERROR config/invalid: {tmp}/run.conf: not valid UTF-8"),
    "valence-not-utf8": (
        lambda t: _lexicon_copy(t, "valence.tsv"),
        "ERROR lexicon/file-not-readable: {tmp}/lexicons/valence.tsv: not valid UTF-8"),
    "pattern-not-utf8": (
        lambda t: _lexicon_copy(t, "pattern.tsv"),
        "ERROR lexicon/file-not-readable: {tmp}/lexicons/pattern.tsv: not valid UTF-8"),
    "synset-not-utf8": (
        lambda t: _lexicon_copy(t, "synset.tsv"),
        "ERROR lexicon/file-not-readable: {tmp}/lexicons/synset.tsv: not valid UTF-8"),
    "lemma-line-1-field": (
        lambda t: _lemmas(t, "running"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "expected 2 fields, got 1"),
    "lemma-line-3-fields": (
        lambda t: _lemmas(t, "running\trun\tverb"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "expected 2 fields, got 3"),
    "lemma-value-not-one-clean-token": (
        lambda t: _lemmas(t, "cars\tGreen Car!"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "not one clean token: 'Green Car!'"),
    "lemma-key-not-lowercase": (
        lambda t: _lemmas(t, "Cars\tcar"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "not one clean token: 'Cars'"),
    "lemma-value-url": (
        lambda t: _lemmas(t, "site\twww.site"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "not one clean token: 'www.site'"),
    # a lemma a suffix rule shortens: "the lens" and "the lenses" cleaned to "len"
    "lemma-not-final": (
        lambda t: _lemmas(t, "lenses\tlens"),
        "ERROR lexicon/malformed-entry: {tmp}/lemmas.tsv: line 3: "
        "lemma 'lens' is not final: a suffix rule shortens it to 'len'"),
    "lemma-key-repeated": (
        lambda t: _lemmas(t, "farms\tfarm\nfarms\tfarms"),
        "ERROR lexicon/duplicate-word: {tmp}/lemmas.tsv: line 4: duplicate word 'farms'"),
    # words cleaning can never produce: they loaded, then silently matched nothing
    "stopword-not-lowercase": (
        lambda t: _stopwords(t, "Wind"),
        "ERROR lexicon/malformed-entry: {tmp}/stop.txt: line 3: "
        "not one clean token: 'Wind'"),
    "valence-word-with-apostrophe": (
        lambda t: _lexicon_line(t, "valence.tsv", "don't\t-2.0"),
        "ERROR lexicon/malformed-entry: {tmp}/lexicons/valence.tsv: line 1: "
        "not one clean token: \"don't\""),
    "synset-lemma-with-underscore": (
        lambda t: _lexicon_line(t, "synset.tsv", "wind_farm.n.01\tnoun\t0.5\t0.0\t1\twind_farm"),
        "ERROR lexicon/malformed-entry: {tmp}/lexicons/synset.tsv: line 1: "
        "not one clean token: 'wind_farm'"),
    # only CR and LF end a data-file line, as in a CSV corpus; str.splitlines
    # also broke lines at U+2028, which split the word and shifted line numbers
    "stopword-with-line-separator": (
        lambda t: _stopwords(t, "the\u2028wind"),
        "ERROR lexicon/malformed-entry: {tmp}/stop.txt: line 3: "
        "not one clean token: 'the\\u2028wind'"),
    "valence-comment-with-line-separator": (
        lambda t: _lexicon_line(t, "valence.tsv", "# a note\u2028# more\nbad\tx"),
        "ERROR lexicon/malformed-entry: {tmp}/lexicons/valence.tsv: line 2: "
        "valence is not a number: 'x'"),
    "valence-word-with-nul": (
        lambda t: _lexicon_line(t, "valence.tsv", "bad\x00word\t-2.0"),
        "ERROR lexicon/malformed-entry: {tmp}/lexicons/valence.tsv: line 1: "
        "not one clean token: 'bad\\x00word'"),
    "plot-report-not-utf8": (
        _plot,
        "ERROR report/file-not-readable: {tmp}/report.json: not valid UTF-8"),
    "top-words-report-not-utf8": (
        lambda t: _plot(t, command="top-words"),
        "ERROR report/file-not-readable: {tmp}/report.json: not valid UTF-8"),
    "csv-field-over-limit": (
        lambda t: _corpus(t, "c.csv", "id,text\na,good\nb," + "x" * 140_000 + "\n"),
        "ERROR corpus/malformed-record: line 3: invalid CSV: field larger than "
        "field limit"),
    "csv-unterminated-quote-lenient": (
        lambda t: _corpus(t, "c.csv", 'id,text\na,"good\n'
                          + "b,fine words here\n" * 10_000) + ["--lenient"],
        "ERROR corpus/malformed-record: line "),
    "csv-unclosed-quote": (
        lambda t: _corpus(t, "c.csv", _UNCLOSED_QUOTE),
        "ERROR corpus/malformed-record: line 3: invalid CSV: unexpected end of data"),
    "csv-unclosed-quote-lenient": (
        lambda t: _corpus(t, "c.csv", _UNCLOSED_QUOTE) + ["--lenient"],
        "ERROR corpus/malformed-record: line 3: invalid CSV: unexpected end of data"),
    "csv-text-after-closing-quote": (
        lambda t: _corpus(t, "c.csv", _TEXT_AFTER_QUOTE),
        "ERROR corpus/malformed-record: line 3: invalid CSV: ',' expected after '\"'"),
    "csv-text-after-closing-quote-lenient": (
        lambda t: _corpus(t, "c.csv", _TEXT_AFTER_QUOTE) + ["--lenient"],
        "ERROR corpus/malformed-record: line 3: invalid CSV: ',' expected after '\"'"),
    # the last of the two columns used to load without an error
    # Python 3.10's csv reader refused NUL, later ones read it as data
    "csv-nul": (
        lambda t: _corpus(t, "c.csv", "id,text\na,good wind\x00 farm\nb,fine words\n"),
        "ERROR corpus/malformed-record: line 2: invalid CSV: line contains NUL"),
    # named by the line where its record starts, as every CSV refusal is
    "csv-nul-in-quoted-field-lenient": (
        lambda t: _corpus(t, "c.csv", 'id,text\na,"good wind\nfarm\x00 here"\nb,fine\n')
        + ["--lenient"],
        "ERROR corpus/malformed-record: line 2: invalid CSV: line contains NUL"),
    # the header is checked before a later line is read
    "csv-nul-after-bad-header": (
        lambda t: _corpus(t, "c.csv", "idx,txt\na,\x00\n"),
        "ERROR corpus/malformed-record: line 1: header lacks required column 'id'"),
    "csv-header-repeats-column": (
        lambda t: _corpus(t, "c.csv", "id,text,text\na,good,bad\n"),
        "ERROR corpus/malformed-record: line 1: header repeats column 'text'"),
    "csv-header-repeats-column-lenient": (
        lambda t: _corpus(t, "c.csv", "id,text,text\na,good,bad\n") + ["--lenient"],
        "ERROR corpus/malformed-record: line 1: header repeats column 'text'"),
    "jsonl-lone-surrogate": (
        lambda t: _corpus(t, "c.jsonl", '{"id": "a", "text": "good"}\n'
                                        '{"id": "b", "text": "wind \\ud800 farm"}\n'),
        "ERROR corpus/malformed-record: line 2: field text: contains a lone surrogate"),
    "plot-report-nested-too-deep": (
        lambda t: _plot(t, _DEEP.encode()),
        "ERROR report/file-not-readable: {tmp}/report.json: maximum recursion depth"),
    "top-words-report-nested-too-deep": (
        lambda t: _plot(t, _DEEP.encode(), "top-words"),
        "ERROR report/file-not-readable: {tmp}/report.json: maximum recursion depth"),
    # an integer of more than 640 digits reads as an infinity on every interpreter
    "plot-report-int-too-long": (
        lambda t: _plot(t, _LONG_COUNT),
        "ERROR report/file-not-readable: {tmp}/report.json: not a windsent report (ValueError: "
        "distributions.pattern_avg.counts.positive: expected a count (int in 0..2**53), "
        "got inf)"),
    "top-words-report-int-too-long": (
        lambda t: _plot(t, _LONG_COUNT, "top-words"),
        "ERROR report/file-not-readable: {tmp}/report.json: not a windsent report (ValueError: "
        "distributions.pattern_avg.counts.positive: expected a count (int in 0..2**53), "
        "got inf)"),
    "jsonl-nested-too-deep": (
        lambda t: _jsonl_extra_key(t, _DEEP),
        "ERROR corpus/malformed-record: line 1: invalid JSON: maximum recursion depth"),
    "jsonl-nested-too-deep-lenient": (
        lambda t: _jsonl_extra_key(t, _DEEP) + ["--lenient"],
        "ERROR corpus/malformed-record: line 1: invalid JSON: maximum recursion depth"),
    "jsonl-int-too-long": (
        lambda t: _corpus(t, "c.jsonl", '{"id": %s, "text": "good wind farm"}\n' % _LONG_INT),
        "ERROR corpus/malformed-record: line 1: field id: must be a string"),
    "jsonl-int-too-long-lenient": (
        lambda t: _corpus(t, "c.jsonl", _LONG_INT + "\n") + ["--lenient"],
        "ERROR corpus/malformed-record: line 1: record is not a JSON object"),
    # -0 labels as 0 does, so accepting it would give one run a second report and digest
    "flag-epsilon-negative-zero": (
        lambda t: ["--epsilon", "-0"],
        "ERROR config/invalid: epsilon must be a finite number >= 0, got -0.0"),
    "config-epsilon-negative-zero": (
        lambda t: ["--config", str(_write(t / "run.conf", "epsilon = -0\n", False))],
        "ERROR config/invalid: epsilon must be a finite number >= 0, got -0.0"),
    # stemming is no setting: neither spelling of one is silently ignored
    "config-key-stemming": (
        lambda t: ["--config", str(_write(t / "run.conf", "stemming = true\n", False))],
        "ERROR config/invalid: unknown config key: 'stemming'"),
    "flag-stem": (
        lambda t: ["--stem"],
        "windsent: error: unrecognized arguments: --stem"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_file_is_one_error_line(tmp_path, capsys, case):
    make_args, expected = BAD_INPUTS[case]
    args = make_args(tmp_path)
    out = tmp_path / "out"
    if args[0] not in ("plot", "top-words"):
        args = ["analyze", "--input", str(GOLDEN_CORPUS), *args, "--plots"]
    try:
        code = main([*args, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    usage_error = not expected.startswith("ERROR ")  # argparse prints its usage line first
    assert code == (2 if usage_error else 1)
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 + usage_error, captured.err
    assert err[-1].startswith(expected.format(tmp=tmp_path))
    assert not out.exists()


def test_unclean_lemma_entry_stops_preprocess_before_writing(tmp_path, capsys):
    # a lemma that cleaning would split and lowercase made the cleaned output
    # clean differently when fed back in
    args = _lemmas(tmp_path, "cars\tGreen Car!")
    corpus = tmp_path / "c.csv"
    corpus.write_text("id,text\nc1,cars wind farm good turbines\n", encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    code = main(["preprocess", "--input", str(corpus), *args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"ERROR lexicon/malformed-entry: {tmp_path}/lemmas.tsv: line 3: "
                            "not one clean token: 'Green Car!'\n")
    assert not out.exists()


def test_non_final_lemma_stops_preprocess_before_writing(tmp_path, capsys):
    args = _lemmas(tmp_path, "lenses\tlens")
    out = tmp_path / "clean.jsonl"
    code = main(["preprocess", "--input", str(GOLDEN_CORPUS), *args, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"ERROR lexicon/malformed-entry: {tmp_path}/lemmas.tsv: line 3: "
                            "lemma 'lens' is not final: a suffix rule shortens it to 'len'\n")
    assert not out.exists()


@pytest.mark.parametrize("load,text,expected", [
    (parse_config_file, "# old: \x85top_n = 5\n", {}),
    (load_stopwords, "# common words\x0cwind\nthe\n", frozenset({"the"})),
], ids=["config-comment-with-nel", "stopword-comment-with-ff"])
def test_line_break_character_in_a_comment_is_comment_text(tmp_path, load, text, expected):
    # str.splitlines ended the comment there and read the rest as data
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    assert load(path) == expected


def _write(path: Path, text: str, bom: bool) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8")
    return path


def _bom_run(base: Path, bom_kind: str | None) -> bytes:
    """Analyze the golden corpus with every data file copied under ``base``,
    only ``bom_kind`` (if any) prefixed with a BOM; returns report.json."""
    lexicons = base / "lexicons"
    for name in ("valence", "pattern", "synset"):
        source = bundled_lexicon_dir() / f"{name}.tsv"
        _write(lexicons / source.name, source.read_text(encoding="utf-8"),
               bom_kind == name)
    # a first stopword that the corpus uses and that scores, so a BOM that
    # hid it would change the report
    stopwords = _write(base / "stopwords.txt",
                       "good\n" + DEFAULT_STOPWORDS_PATH.read_text(encoding="utf-8"),
                       bom_kind == "stopwords")
    lemmas = _write(base / "lemmas.tsv", DEFAULT_LEMMAS_PATH.read_text(encoding="utf-8"),
                    bom_kind == "lemmas")
    config = _write(base / "run.conf",
                    "# run settings\n"
                    f"input = {GOLDEN_CORPUS}\nout = {base / 'out'}\n"
                    f"lexicons = {lexicons}\nstopwords = {stopwords}\nlemmas = {lemmas}\n",
                    bom_kind == "config")
    assert main(["analyze", "--config", str(config)]) == 0
    return (base / "out" / "report.json").read_bytes()


@pytest.mark.parametrize("kind", ["stopwords", "lemmas", "valence", "pattern",
                                  "synset", "config"])
def test_bom_prefixed_file_gives_the_same_report(tmp_path, kind):
    assert _bom_run(tmp_path / "bom", kind) == _bom_run(tmp_path / "plain", None)


def test_unwritable_skip_report_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": "a", "text": "clean energy wins today"}\n'
                      '{"id": "b"}\n', encoding="utf-8")
    out = tmp_path / "out"
    (out / "skipped.jsonl").mkdir(parents=True)
    code = main(["analyze", "--input", str(corpus), "--out", str(out), "--lenient"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"ERROR report/output-not-writable: {out / 'skipped.jsonl'}:")


@pytest.mark.parametrize("command,skip_file", [
    ("analyze", "out/skipped.jsonl"), ("preprocess", "out.skipped.jsonl"),
])
def test_lone_surrogate_is_skipped_in_lenient_mode(tmp_path, command, skip_file):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": "a", "text": "clean energy wins today"}\n'
                      '{"id": "b", "text": "wind farm \\udfff"}\n',
                      encoding="utf-8")
    out = tmp_path / ("out" if command == "analyze" else "out.jsonl")
    assert main([command, "--input", str(corpus), "--out", str(out), "--lenient"]) == 0
    skipped = (tmp_path / skip_file).read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in skipped] == [
        {"line": 2, "reason": "field text: contains a lone surrogate"}]


@pytest.mark.parametrize("command,skip_file", [
    ("analyze", "out/skipped.jsonl"), ("preprocess", "out.skipped.jsonl"),
])
def test_clean_run_removes_a_leftover_skip_report(tmp_path, command, skip_file):
    corpus = tmp_path / "c.jsonl"
    good = '{"id": "a", "text": "clean energy wins today"}\n'
    corpus.write_text(good + '{"id": "b"}\n', encoding="utf-8")
    out = tmp_path / ("out" if command == "analyze" else "out.jsonl")
    args = [command, "--input", str(corpus), "--out", str(out)]
    assert main([*args, "--lenient"]) == 0
    assert (tmp_path / skip_file).is_file()
    corpus.write_text(good, encoding="utf-8")
    assert main(args) == 0
    assert not (tmp_path / skip_file).exists()


def test_run_without_plots_removes_leftover_charts(tmp_path):
    out = tmp_path / "out"
    args = ["analyze", "--input", str(GOLDEN_CORPUS), "--out", str(out)]
    assert main([*args, "--plots"]) == 0
    plots = out / "plots"
    assert sorted(p.name for p in plots.iterdir()) == sorted(CHART_FILES)
    (plots / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert main(args) == 0
    assert [p.name for p in plots.iterdir()] == ["notes.txt"]


def test_run_without_plots_leaves_a_plots_file_alone(tmp_path):
    # no chart can be under a file; removing them used to fail the run
    out = tmp_path / "out"
    out.mkdir()
    (out / "plots").write_text("not a directory\n", encoding="utf-8")
    assert main(["analyze", "--input", str(GOLDEN_CORPUS), "--out", str(out)]) == 0
    assert (out / "plots").read_text(encoding="utf-8") == "not a directory\n"
    assert (out / "report.json").is_file()


def test_non_utf8_input_name_is_one_error_line(tmp_path):
    corpus = bytes(tmp_path) + b"/c\xff.jsonl"
    with open(corpus, "wb") as handle:
        handle.write(GOLDEN_CORPUS.read_bytes())
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from windsent.cli import main; sys.exit(main())",
         "analyze", "--input", corpus, "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "ERROR config/invalid: input file name is not valid UTF-8: 'c\\udcff.jsonl'"]
    assert not out.exists()


def _absent(path: Path, how: str) -> Path:
    """``path`` gone (``missing``) or a directory in its place."""
    path.unlink(missing_ok=True)
    if how == "directory":
        path.mkdir(parents=True)
    return path


# file kind -> (its flag's arguments for a path, error code)
ABSENT_FILES = {
    "input": (lambda p: ["--input", str(p), "--format", "jsonl"], "corpus/file-not-readable"),
    "stopwords": (lambda p: ["--stopwords", str(p)], "lexicon/file-not-readable"),
    "lemmas": (lambda p: ["--lemmas", str(p)], "lexicon/file-not-readable"),
    **{name: (lambda p: ["--lexicons", str(p.parent)], "lexicon/file-not-readable")
       for name in ("valence.tsv", "pattern.tsv", "synset.tsv")},
}
_REASONS = {"missing": "No such file or directory", "directory": "Is a directory"}


@pytest.mark.parametrize("how", sorted(_REASONS))
@pytest.mark.parametrize("command,kind", [
    *(("analyze", kind) for kind in ABSENT_FILES),
    *(("preprocess", kind) for kind in ("input", "stopwords", "lemmas")),
])
def test_missing_or_directory_file_is_its_kinds_error(tmp_path, capsys, command, kind, how):
    # each file is checked only where it is read, so a missing one or a
    # directory gets its kind's code, like any other unreadable file
    make_args, code = ABSENT_FILES[kind]
    lexicons = shutil.copytree(bundled_lexicon_dir(), tmp_path / "lexicons")
    path = _absent(lexicons / kind if kind.endswith(".tsv") else tmp_path / kind, how)
    args = make_args(path)
    if kind != "input":
        args += ["--input", str(GOLDEN_CORPUS)]
    out = tmp_path / ("out" if command == "analyze" else "out.jsonl")
    assert main([command, *args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {code}: {path}: {_REASONS[how]}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("analyze", "--lexicons"),
                                          ("preprocess", "--stopwords"),
                                          ("preprocess", "--lemmas")])
def test_data_file_fails_before_the_corpus_is_read(tmp_path, capsys, command, flag):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": "a"}\n', encoding="utf-8")  # malformed: no text
    missing = tmp_path / "missing"
    path = missing / "valence.tsv" if flag == "--lexicons" else missing
    out = tmp_path / "out"
    assert main([command, "--input", str(corpus), flag, str(missing),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"ERROR lexicon/file-not-readable: {path}: "
                                       "No such file or directory\n")
    assert not out.exists()
