#!/usr/bin/env python3
"""Same bytes on every Python: run windsent under several interpreters and
compare the files each one writes.

    python3 tools/cross_python.py python3.10 python3.12 python3.13

Under each interpreter given, and under the one running this script (the
reference), it runs ``analyze --plots`` (paper-faithful, and engine-native
with ``--disambiguation average-senses``) and ``preprocess`` on the golden
corpus and on a small corpus that it writes to a temporary directory, and
``top-words --out`` on the report.json that the same interpreter's
paper-faithful ``analyze`` run wrote for that corpus. The small corpus has
awkward comment ids (comma, quote, CR, LF, NUL, U+2028, non-ASCII and astral
characters) and awkward texts (Greek final sigma, dotted capital I,
upper-case URLs, punctuation-only pieces, words parted by NBSP, U+2028 or
U+3000, inflected words that the suffix rules reduce, some in ALL CAPS, and
two kept comments in which no engine finds a signal, one with no lexicon word
and one of modifier words alone, each with ALL CAPS and exclamation marks).
On it, it also runs ``analyze --plots --lemmas`` with a custom lemma table
that loads (``lenses`` and ``lens`` both map to ``lens``, which a suffix rule
would shorten), and with one that is refused (``lenses`` to ``lens`` alone);
and ``analyze --plots --no-lemmatize`` given that refused table, which it
never reads. It also runs ``analyze --lenient`` and ``preprocess
--lenient`` on a third corpus, so that skip reports are compared too: it
repeats an id holding U+31350, a letter newer than some interpreters'
Unicode tables, and has one malformed record. It runs ``analyze --plots`` on
an awkward CSV corpus, so that CSV line splitting is compared too: LF, CRLF
and bare-CR line endings, and quoted fields holding CR, LF, CRLF, U+2028,
U+0085 and doubled quotes; and on a JSONL whose second record holds a
5,000-digit integer, past the digit limit of ``int()``, which loads on every
interpreter. Last, it runs ``analyze``, strict and ``--lenient``, on three
CSVs that the reader refuses: one with an unclosed quote, one with text
after a closing quote, and one with a NUL on the second line of a quoted
record, which Python 3.10's reader refuses itself and later ones read as
data. Every
report records the config digest, whose SHA-256 comes from the ``_sha256``
module on 3.10 and 3.11 and from ``_sha2`` on 3.12 and later. For each
interpreter and run whose exit status, last stderr line (for a failed run,
its ``ERROR`` line) or files differ from the reference's, it names the first
difference. Each interpreter, the reference too, also runs the oracle
``tools/golden_reference.py`` in a temporary copy of the tree (never in the
checkout); a file it writes that differs from its copy in ``tests/golden/``
is named the same way. An interpreter that cannot run ``-c "import sys"`` is
named once, as CANNOT RUN, and none of its runs is made. The script exits 1
when anything differs or cannot run, and 0 when every byte matches. It needs
only the standard library and searches for no interpreter: pass each one by
path.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_CORPUS = GOLDEN_DIR / "corpus.jsonl"

AWKWARD_IDS = ("c,1", 'q"2', "c\rd", "a\x00b", "l\nf", "u\u2028x", "\u00e9t\u00e9",
               "\U0001F32C", "tab\tx", "semi;x", "  padded  ", "plain")
TEXTS = ("Offshore wind turbines are great clean energy for the coast",
         "Terrible noisy turbines ruin the ocean view and hurt whales",
         "The wind farm is fine but the cables worry local fishermen")
AWKWARD_TEXTS = ("ΟΔΟΣ ΣΑΣ: the GREAT wind farm ΣΑΣ!",
                 "İstanbul ISTANBUL turbines are clean, İYİ energy",
                 "HTTP://X.COM WWW.WIND.ORG Https://a.b terrible noisy cables",
                 "good\u00a0wind\u2028farm\u3000whales\u2003turbines",
                 "!!! wind ... turbines ### great !!!",
                 "\u03a3 \u03c2 \u03c3 \u0391\u03a3\u0301 \u03a3-\u03a3 wind turbines",
                 "AGREED: \u00c9NORME worries, beaches and FARMING! the speeds feed "
                 "cabled turbines, agreed SKIES WORRIED",
                 "the LENS and the lenses look great on the turbines",
                 # kept, and no engine finds a signal: each scores its shared zero
                 "ZORP blick QUANDLE fnord!!!",
                 "Totally NEVER barely hardly!!! Somewhat")
# a custom lemma table that loads, and one whose lemma a suffix rule shortens
LEMMA_TABLES = {"lemmas": "lenses\tlens\nlens\tlens\nturbines\tturbine\nworried\tworry\n",
                "bad-lemmas": "lenses\tlens\n"}

RUNS = {
    "analyze": ["analyze", "--plots"],
    "analyze-native-average": ["analyze", "--plots", "--mode", "engine-native",
                               "--disambiguation", "average-senses"],
    "preprocess": ["preprocess"],
    "top-words": ["top-words"],
}
# the header, then one record per item, ending in LF, CRLF or a bare CR
CSV_RECORDS = ("id,text,source_group,timestamp\n",
               "lf,Offshore wind turbines are great clean energy,coast,2024-01-01\n",
               'crlf,"Terrible noisy turbines, they ruin the ocean view",,\r\n',
               "cr,The wind farm is fine but the cables worry local fishermen,,\r",
               '"q""id","GREAT ""clean"" wind\r\nfarm\rturbines\nare fine",g,\n',
               'sep,"good\u2028wind\u0085farm whales, \u00c9NORME turbines",,\r\n',
               '"cr\rid","terrible\rnoisy cables\u2028hurt whales",,\r',
               '"lf\nid",short,,')  # too short: a dropped item; no final line break
ANALYZE_RUNS = {"analyze": RUNS["analyze"]}
LONG_INT_JSONL = ('{"id": "a", "text": "good wind farm"}\n'
                  '{"id": "b", "text": "great turbines", "x": 1%s}\n' % ("0" * 5_000))
# each fails with one ERROR line naming the line where record b starts
BAD_CORPORA = {
    "csv-unclosed-quote.csv": 'id,text\na,good wind farm\nb,"great turbines\nc,clean energy\n',
    "csv-text-after-quote.csv": 'id,text\na,good wind farm\nb,"x"y\nc,clean energy\n',
    "csv-nul-second-line.csv": 'id,text\na,good wind farm\nb,"great\nturbines\x00"\nc,clean\n',
}
BAD_RUNS = {"analyze": RUNS["analyze"], "analyze-lenient": ["analyze", "--lenient"]}
LENIENT_RUNS = {
    "analyze-lenient": ["analyze", "--lenient"],
    "preprocess-lenient": ["preprocess", "--lenient"],
}


def write_awkward_corpus(path: Path) -> Path:
    records = [{"id": cid, "text": TEXTS[i % len(TEXTS)]}
               for i, cid in enumerate(AWKWARD_IDS)]
    records += [{"id": f"text{i}", "text": text} for i, text in enumerate(AWKWARD_TEXTS)]
    records.append({"id": 'dropped,"\r\x00', "text": "ok"})  # too short: a dropped item
    path.write_text("".join(json.dumps(record) + "\n" for record in records),
                    encoding="utf-8")
    return path


def write_lenient_corpus(path: Path) -> Path:
    records = [{"id": "dup\U00031350", "text": text} for text in TEXTS[:2]]
    records += [{"id": "ok", "text": TEXTS[2]}, {"id": "no text"}]
    path.write_text("".join(json.dumps(record) + "\n" for record in records),
                    encoding="utf-8")
    return path


def write_csv_corpus(path: Path) -> Path:
    path.write_bytes("".join(CSV_RECORDS).encode("utf-8"))
    return path


def run_all(interpreter: str, corpora: dict[str, tuple[Path, dict]],
            base: Path) -> dict[str, tuple[int, str | None]]:
    """Run each corpus's commands on it into ``base``; the exit status of
    each run and, for a failed run, the last line of its stderr, keyed by
    the run's directory under ``base``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    outcomes = {}
    for corpus_name, (corpus, runs) in corpora.items():
        for run_name, args in runs.items():
            key = f"{corpus_name}/{run_name}"
            out = base / key
            if args[0] == "preprocess":
                out.mkdir(parents=True)
                out = out / "clean.jsonl"
            if args[0] == "top-words":
                source = ["--report", str(base / corpus_name / "analyze" / "report.json")]
            else:
                source = ["--input", str(corpus)]
            result = subprocess.run(
                [interpreter, "-m", "windsent.cli", *args, *source, "--out", str(out)],
                env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
            error = None
            if result.returncode:
                error = (result.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            outcomes[key] = (result.returncode, error)
    return outcomes


def outcome_text(outcome: tuple[int, str | None]) -> str:
    status, error = outcome
    return f"exit status {status}" + (f" ({error})" if error else "")


def files_under(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def first_difference(reference: dict[str, bytes], other: dict[str, bytes]) -> str | None:
    for name in sorted(set(reference) | set(other)):
        if name not in other:
            return f"{name} is missing"
        if name not in reference:
            return f"{name} is extra"
        if reference[name] != other[name]:
            ref_lines = reference[name].split(b"\n")
            other_lines = other[name].split(b"\n")
            line = next((i for i, (ours, theirs) in enumerate(zip(ref_lines, other_lines), 1)
                         if ours != theirs), min(len(ref_lines), len(other_lines)) + 1)
            return f"{name} differs at line {line}"
    return None


def oracle_difference(interpreter: str, base: Path) -> str | None:
    """Run the oracle under ``interpreter`` in a copy of the tree made in
    ``base``; how what it writes first differs from ``tests/golden/``, or
    None when it is the same."""
    shutil.copytree(ROOT / "tools", base / "tools")
    shutil.copytree(ROOT / "src" / "windsent" / "data", base / "src" / "windsent" / "data")
    result = subprocess.run([interpreter, str(base / "tools" / "golden_reference.py")],
                            cwd=base, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                            stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if result.returncode:
        lines = result.stderr.strip().splitlines() or ["(no stderr)"]
        return f"exited {result.returncode}: {lines[-1]}"
    written = files_under(base / "tests" / "golden")
    if not written:
        return "wrote no file"
    committed = files_under(GOLDEN_DIR)
    return first_difference({name: committed[name] for name in written if name in committed},
                            written)


def cannot_run(interpreter: str) -> str | None:
    """Why ``interpreter`` cannot start, or None when it can."""
    try:
        result = subprocess.run([interpreter, "-c", "import sys"], stdin=subprocess.DEVNULL,
                                capture_output=True)
    except OSError as exc:
        return exc.strerror or str(exc)
    return f"exit status {result.returncode}" if result.returncode else None


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    with tempfile.TemporaryDirectory(prefix="windsent-cross-python-") as tmp:
        tmp_path = Path(tmp)
        awkward_runs = dict(RUNS)
        for name, text in LEMMA_TABLES.items():
            path = tmp_path / f"{name}.tsv"
            path.write_text(text, encoding="utf-8")
            awkward_runs[f"analyze-{name}"] = [*RUNS["analyze"], "--lemmas", str(path)]
        awkward_runs["analyze-no-lemmatize"] = [*RUNS["analyze"], "--no-lemmatize", "--lemmas",
                                                str(tmp_path / "bad-lemmas.tsv")]
        long_int = tmp_path / "jsonl-int-too-long.jsonl"
        long_int.write_text(LONG_INT_JSONL, encoding="utf-8")
        corpora = {"golden": (GOLDEN_CORPUS, RUNS),
                   "awkward": (write_awkward_corpus(tmp_path / "awkward.jsonl"), awkward_runs),
                   "lenient": (write_lenient_corpus(tmp_path / "lenient.jsonl"),
                               LENIENT_RUNS),
                   "csv": (write_csv_corpus(tmp_path / "awkward.csv"), ANALYZE_RUNS),
                   long_int.stem: (long_int, ANALYZE_RUNS)}
        for name, text in BAD_CORPORA.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            corpora[path.stem] = (path, BAD_RUNS)
        reference = sys.executable
        ref_outcomes = run_all(reference, corpora, tmp_path / "run-0")
        differ = False
        for index, interpreter in enumerate([reference, *argv]):
            reason = cannot_run(interpreter) if index else None
            if reason:
                print(f"CANNOT RUN {interpreter}: {reason}")
                differ = True
                continue
            problems = []
            if index:
                base = tmp_path / f"run-{index}"
                outcomes = run_all(interpreter, corpora, base)
                for key, ref_outcome in ref_outcomes.items():
                    if outcomes[key] != ref_outcome:
                        problem = (f"{outcome_text(outcomes[key])}, "
                                   f"not {outcome_text(ref_outcome)}")
                    else:
                        problem = first_difference(files_under(tmp_path / "run-0" / key),
                                                   files_under(base / key))
                    if problem:
                        problems.append(f"{key}: {problem} (reference {reference})")
            problem = oracle_difference(interpreter, tmp_path / f"oracle-{index}")
            if problem:
                problems.append(f"oracle vs tests/golden: {problem}")
            for problem in problems:
                print(f"DIFFERS {interpreter}: {problem}")
            if index and not problems:
                print(f"same bytes: {interpreter}")
            differ = differ or bool(problems)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
