"""Analysis report: the single JSON document plus CSV extracts.

Serialization is canonical so that identical inputs produce byte-identical
files on any machine: sorted keys, two-space indent, UTF-8, "\n" newlines,
shortest-roundtrip float repr, and no timestamps or absolute paths (file
references are recorded by basename only).

report.json is the bytes json.dumps(ensure_ascii=False, indent=2,
sort_keys=True) would give for the whole document, without building that
document: each ``comments`` and ``dropped`` item is formatted from a fixed
template (strings through json's own ``encode_basestring``, numbers through
``float.__repr__``) and encoded in chunks into one buffer, and only the small
sections go through json.dumps. A NaN or infinite number anywhere raises
ValueError instead of writing ``NaN`` or ``Infinity``, which JSON lacks.

comments.csv and the ranking CSVs come from one-line templates too. A cell is
quoted (RFC 4180) only when it holds a comma, a quote, CR or LF, so their bytes
do not depend on the Python version, as ``csv.writer``'s quoting does. Both
report.json and comments.csv fill their row templates from one tuple of
strings per row, so ``write_report_files`` formats each score once.
"""

from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring as _json_str
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .analytics import (LABELS, NEGATIVE, POSITIVE, DistributionReport, SubjectivityHistogram,
                        WordRanking)
from .engines import ENGINES, ENGINE_PATTERN, ENGINE_SYNSET, ENGINE_VALENCE, EngineScores
from .errors import write_file

SIDES = (NEGATIVE, POSITIVE)


class CommentRow(NamedTuple):
    comment_id: str
    scores: EngineScores
    labels: Mapping[str, str]  # engine -> label


class AnalysisReport(NamedTuple):
    config_digest: str
    corpus_size: int
    kept_count: int
    dropped_count: int
    input_file: str
    pipeline_mode: str
    epsilon: float
    top_n: int
    comments: tuple[CommentRow, ...]
    dropped: tuple[tuple[str, str], ...]  # (id, reason) in corpus order
    distributions: Mapping[str, DistributionReport]
    histogram: SubjectivityHistogram
    rankings: Mapping[str, Mapping[str, WordRanking]]  # engine -> side -> ranking


def summary_to_dict(report: AnalysisReport) -> dict:
    """The report's corpus-level sections, which the charts draw."""
    return {
        "distributions": {
            engine: {
                "counts": {lab: dist.counts[lab] for lab in LABELS},
                "proportions": {lab: dist.proportions[lab] for lab in LABELS},
            }
            for engine, dist in report.distributions.items()
        },
        "rankings": {
            engine: {
                side: [[word, count] for word, count in sides[side].entries]
                for side in SIDES
            }
            for engine, sides in report.rankings.items()
        },
        "subjectivity": {
            "bin_edges": list(report.histogram.bin_edges),
            "counts": list(report.histogram.counts),
            "mean": report.histogram.mean,
            "median": report.histogram.median,
        },
    }


def _item_template(sample: dict) -> str:
    """A list item as json.dumps(indent=2, sort_keys=True) writes it two
    levels deep, with the sample's "%s" leaves unquoted into format fields in
    sorted-key order."""
    text = "    " + json.dumps(sample, indent=2, sort_keys=True).replace("\n", "\n    ")
    return text.replace('"%s"', "%s")


_COMMENT_ITEM = _item_template({
    "id": "%s",
    "labels": dict.fromkeys(ENGINES, "%s"),
    "scores": {
        ENGINE_PATTERN: {"polarity": "%s", "subjectivity": "%s"},
        ENGINE_SYNSET: {"polarity": "%s"},
        ENGINE_VALENCE: {"polarity": "%s",
                         "proportions": dict.fromkeys(("neg", "neu", "pos"), "%s")},
    },
})
_DROPPED_ITEM = _item_template({"id": "%s", "reason": "%s"})
# a chunk's text and its encoded bytes are alive at once; at 100 items they
# stay small next to the report itself
_ITEMS_PER_CHUNK = 100
# the meta section: these AnalysisReport fields under their own names
_META_FIELDS = ("config_digest", "corpus_size", "dropped_count", "epsilon",
                "input_file", "kept_count", "pipeline_mode", "top_n")


def _row_cells(row: CommentRow) -> tuple[str, ...]:
    """A row's id, its pattern, synset and valence labels, and the
    ``float.__repr__`` of its seven scores in report.json order, which is
    how json.dumps writes a float; a non-finite score raises ValueError."""
    scores = row.scores
    pattern, valence = scores.pattern_avg, scores.valence_rule
    pos, neu, neg = valence.proportions
    numbers = (pattern.polarity, pattern.subjectivity, scores.synset.polarity,
               valence.polarity, neg, neu, pos)
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"comment {row.comment_id!r}: non-finite score in {numbers}; "
                         "not JSON compliant")
    labels = row.labels
    return (row.comment_id, labels[ENGINE_PATTERN], labels[ENGINE_SYNSET],
            labels[ENGINE_VALENCE], *map(repr, numbers))


def _comment_item(cells: tuple[str, ...]) -> str:
    return _COMMENT_ITEM % ((_json_str(cells[0]), _json_str(cells[1]), _json_str(cells[2]),
                             _json_str(cells[3])) + cells[4:])


def _dropped_item(dropped: tuple[str, str]) -> str:
    comment_id, reason = dropped
    return _DROPPED_ITEM % (_json_str(comment_id), _json_str(reason))


def _write_items(out: io.BytesIO, rows: Sequence, item: Callable[[object], str]) -> None:
    """Write a top-level list, one ``item(row)`` per row, encoding about
    _ITEMS_PER_CHUNK items at a time."""
    if not rows:
        out.write(b"[]")
        return
    out.write(b"[\n")
    for start in range(0, len(rows), _ITEMS_PER_CHUNK):
        if start:
            out.write(b",\n")
        chunk = rows[start:start + _ITEMS_PER_CHUNK]
        out.write(",\n".join(map(item, chunk)).encode("utf-8"))
    out.write(b"\n  ]")


def _section(value: object) -> bytes:
    """A small section as the value of a top-level key: json.dumps indented
    one level deeper."""
    text = json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True,
                      allow_nan=False)
    return text.replace("\n", "\n  ").encode("utf-8")


def report_json_bytes(report: AnalysisReport, cells: Sequence[tuple[str, ...]]) -> bytes:
    """The bytes of report.json (see the module docstring); ``cells`` are
    the ``_row_cells`` of ``report.comments``."""
    summary = summary_to_dict(report)
    meta = {name: getattr(report, name) for name in _META_FIELDS}
    out = io.BytesIO()
    out.write(b'{\n  "comments": ')
    _write_items(out, cells, _comment_item)
    out.write(b',\n  "distributions": ' + _section(summary["distributions"]))
    out.write(b',\n  "dropped": ')
    _write_items(out, report.dropped, _dropped_item)
    out.write(b',\n  "meta": ' + _section(meta))
    out.write(b',\n  "rankings": ' + _section(summary["rankings"]))
    out.write(b',\n  "subjectivity": ' + _section(summary["subjectivity"]))
    out.write(b"\n}\n")
    return out.getvalue()


_COMMENTS_CSV_HEADER = ("id,pattern_polarity,pattern_subjectivity,pattern_label,"
                        "synset_polarity,synset_label,valence_polarity,valence_pos,"
                        "valence_neu,valence_neg,valence_label\n")
_COMMENTS_CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"


def _csv_field(cell: str) -> str:
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _comments_csv_row(cells: tuple[str, ...]) -> str:
    cid, pat, syn, val, p_pol, p_subj, s_pol, v_pol, neg, neu, pos = cells
    return _COMMENTS_CSV_ROW % (_csv_field(cid), p_pol, p_subj, pat, s_pol, syn, v_pol,
                                pos, neu, neg, val)


def comments_csv_text(cells: Sequence[tuple[str, ...]]) -> str:
    """The text of comments.csv from the ``_row_cells`` of a report's
    comments."""
    return _COMMENTS_CSV_HEADER + "".join(map(_comments_csv_row, cells))


def ranking_csv_text(entries: Sequence[tuple[str, int]]) -> str:
    """The text of a ranking CSV from a ranking's (word, count) entries."""
    return "word,frequency\n" + "".join(f"{_csv_field(word)},{count}\n"
                                        for word, count in entries)


def write_ranking_files(rankings: Mapping[tuple[str, str], Sequence[tuple[str, int]]],
                        outdir: str | Path) -> list[Path]:
    """Write ranking_<engine>_<side>.csv for each (engine, side) key's
    entries; returns the paths written."""
    outdir = Path(outdir)
    written = []
    for (engine, side), entries in rankings.items():
        path = outdir / f"ranking_{engine}_{side}.csv"
        write_file(path, ranking_csv_text(entries))
        written.append(path)
    return written


def write_report_files(report: AnalysisReport, outdir: str | Path) -> None:
    """Write report.json, comments.csv and the six ranking CSVs, formatting
    each row's cells once for both files."""
    outdir = Path(outdir)
    cells = list(map(_row_cells, report.comments))
    write_file(outdir / "report.json", report_json_bytes(report, cells))
    write_file(outdir / "comments.csv", comments_csv_text(cells))
    write_ranking_files({(engine, side): ranking.entries
                         for engine, sides in report.rankings.items()
                         for side, ranking in sides.items()}, outdir)
