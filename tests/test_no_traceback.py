"""No input file ends in a traceback.

Hypothesis mutates one file the CLI reads per run: a JSONL or CSV corpus
(read by ``analyze`` or ``preprocess``), a ``--config`` file, a
``--stopwords`` list, a ``--lemmas`` table, one of the three lexicons, or a
report.json fed to ``plot`` or ``top-words``. A mutation deletes or
duplicates a span of bytes, inserts a piece that parsers trip over (NUL,
``\\xff``, a BOM, ``nan``, ``1e999``, a long digit run, a tab, a quote, a
newline), or puts such a piece in place of one token; the file may also be
missing, or a directory. Every run must either succeed, or print exactly one
``ERROR <code>:`` line, exit 1 and write nothing.
"""

import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.cli import main
from windsent.lexicons import DEFAULT_LEMMAS_PATH, DEFAULT_STOPWORDS_PATH, bundled_lexicon_dir

GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.jsonl"
_RECORDS = [json.loads(line) for line in
            GOLDEN_CORPUS.read_text(encoding="utf-8").splitlines()[:10]]


def _csv_bytes() -> bytes:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "text"])
    writer.writerows([record["id"], record["text"]] for record in _RECORDS)
    return text.getvalue().encode("utf-8")


# file kind -> (file name, unmutated content)
SEEDS = {
    "jsonl": ("c.jsonl", "".join(json.dumps(record) + "\n" for record in _RECORDS).encode()),
    "csv": ("c.csv", _csv_bytes()),
    "config": ("run.conf", b"# settings\ntop_n = 5\nepsilon = 0.05\nbins = 4\n"
                           b"min_tokens = 2\nmode = engine-native\n"
                           b"disambiguation = average-senses\n"),
    "stopwords": ("stop.txt", DEFAULT_STOPWORDS_PATH.read_bytes()),
    "lemmas": ("lemmas.tsv", DEFAULT_LEMMAS_PATH.read_bytes()),
    **{kind: (f"{kind}.tsv", (bundled_lexicon_dir() / f"{kind}.tsv").read_bytes())
       for kind in ("valence", "pattern", "synset")},
}
KINDS = sorted([*SEEDS, "report"])

_PIECES = [b"\x00", b"\xff", b"\xef\xbb\xbf", b"nan", b"1e999", b"-1e999", b"9" * 400,
           b"\t", b'"', b"'", b"\n", b"0"]
_TOKEN = re.compile(rb"[^\s,:=\"{}\[\]]+")  # a key, word or value
_edit = st.tuples(st.sampled_from(["delete", "duplicate", "insert", "replace-token"]),
                  st.integers(0, 1 << 20), st.integers(1, 80), st.sampled_from(_PIECES))


def mutate(data: bytes, edits) -> bytes:
    for op, at, size, piece in edits:
        if op == "replace-token":
            tokens = [match.span() for match in _TOKEN.finditer(data)] or [(0, 0)]
            start, end = tokens[at % len(tokens)]
            data = data[:start] + piece + data[end:]
            continue
        at %= len(data) + 1
        if op == "delete":
            data = data[:at] + data[at + size:]
        elif op == "duplicate":
            data = data[:at + size] + data[at:]
        else:
            data = data[:at] + piece + data[at:]
    return data


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Every file kind's name and content, a report.json included, and a
    directory for the runs."""
    base = tmp_path_factory.mktemp("no-traceback")
    assert main(["analyze", "--input", str(GOLDEN_CORPUS), "--out", str(base / "seed")]) == 0
    report = (base / "seed" / "report.json").read_bytes()
    return base, {**SEEDS, "report": ("report.json", report)}


def _place(kind: str, name: str, run: Path) -> tuple[Path, list[str]]:
    """Where a file of ``kind`` goes under ``run``, and the arguments that
    make the command read it there."""
    if kind == "report":
        return run / name, ["--report", str(run / name)]
    if kind in ("jsonl", "csv"):
        return run / name, ["--input", str(run / name)]
    args = ["--input", str(GOLDEN_CORPUS)]
    if kind in ("valence", "pattern", "synset"):
        lexicons = shutil.copytree(bundled_lexicon_dir(), run / "lexicons")
        (lexicons / name).unlink()
        return lexicons / name, [*args, "--lexicons", str(lexicons)]
    return run / name, [*args, f"--{kind}", str(run / name)]


@given(kind=st.sampled_from(KINDS),
       fate=st.one_of(st.lists(_edit, min_size=1, max_size=4),
                      st.sampled_from(["missing", "directory"])),
       command=st.sampled_from(["analyze", "preprocess"]),
       report_command=st.sampled_from(["plot", "top-words"]),
       lenient=st.booleans())
@settings(max_examples=300, deadline=None)
def test_mutated_input_file_is_never_a_traceback(seeds, kind, fate, command, report_command,
                                                 lenient):
    base, files = seeds
    # a fresh directory per run: data files are loaded once per path
    run = Path(tempfile.mkdtemp(dir=base))
    name, seed = files[kind]
    path, args = _place(kind, name, run)
    if fate == "directory":
        path.mkdir()
    elif fate != "missing":
        path.write_bytes(mutate(seed, fate))
    if kind == "report":
        args = [report_command, *args]
    else:
        if command == "preprocess" and kind in ("valence", "pattern", "synset"):
            command = "analyze"  # preprocess reads no lexicon
        args = [command, *args, *(["--lenient"] if lenient else [])]
    args += ["--out", str(run / "out")]
    before = sorted(run.rglob("*"))
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        if code == 0:
            assert stderr.getvalue() == ""
        else:
            assert code == 1
            assert stdout.getvalue() == ""
            assert re.fullmatch(r"ERROR [a-z]+/[a-z-]+: [^\n]*\n", stderr.getvalue()), \
                stderr.getvalue()
            assert sorted(run.rglob("*")) == before
    finally:
        shutil.rmtree(run)
