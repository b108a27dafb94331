"""report.json from the row templates equals json.dumps of the whole report
dict, for any report, and a non-finite number is refused. comments.csv and
the ranking CSVs read back as written, and equal csv.writer's bytes wherever
csv.writer gives the same bytes on every Python version."""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.analytics import (
    LABELS,
    DistributionReport,
    SubjectivityHistogram,
    WordRanking,
)
from windsent.engines import (
    ENGINE_PATTERN,
    ENGINE_SYNSET,
    ENGINE_VALENCE,
    ENGINES,
    EngineScores,
    SentimentScore,
)
from windsent.report import (
    SIDES,
    AnalysisReport,
    CommentRow,
    _row_cells,
    comments_csv_text,
    ranking_csv_text,
    report_json_bytes,
    write_report_files,
)


def report_cells(report: AnalysisReport) -> list[tuple[str, ...]]:
    return list(map(_row_cells, report.comments))


def reference(report: AnalysisReport) -> dict:
    """The whole report as one dict, as report.json was once dumped."""
    def scores_to_dict(scores):
        valence = scores.valence_rule
        pos, neu, neg = valence.proportions
        return {
            ENGINE_PATTERN: {
                "polarity": scores.pattern_avg.polarity,
                "subjectivity": scores.pattern_avg.subjectivity,
            },
            ENGINE_SYNSET: {"polarity": scores.synset.polarity},
            ENGINE_VALENCE: {
                "polarity": valence.polarity,
                "proportions": {"neg": neg, "neu": neu, "pos": pos},
            },
        }

    return {
        "comments": [
            {
                "id": row.comment_id,
                "labels": {engine: row.labels[engine] for engine in ENGINES},
                "scores": scores_to_dict(row.scores),
            }
            for row in report.comments
        ],
        "distributions": {
            engine: {
                "counts": {lab: dist.counts[lab] for lab in LABELS},
                "proportions": {lab: dist.proportions[lab] for lab in LABELS},
            }
            for engine, dist in report.distributions.items()
        },
        "dropped": [{"id": cid, "reason": reason} for cid, reason in report.dropped],
        "meta": {
            "config_digest": report.config_digest,
            "corpus_size": report.corpus_size,
            "dropped_count": report.dropped_count,
            "epsilon": report.epsilon,
            "input_file": report.input_file,
            "kept_count": report.kept_count,
            "pipeline_mode": report.pipeline_mode,
            "top_n": report.top_n,
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


def expected_bytes(report: AnalysisReport) -> bytes:
    return (json.dumps(reference(report), ensure_ascii=False, indent=2,
                       sort_keys=True) + "\n").encode("utf-8")


def unchecked_score(engine, polarity, subjectivity=None, proportions=None):
    """A SentimentScore built without its range checks, so any float fits."""
    return tuple.__new__(SentimentScore, (engine, polarity, subjectivity, proportions))


SPECIAL_CHARS = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
                                 "\u2028", "\u2029", "\u00e9", "\u00df", "\u4e2d",
                                 "\U0001F32C", "\U00010000"])
TEXT = st.text(st.one_of(SPECIAL_CHARS, st.characters(exclude_categories=("Cs",))),
               max_size=12)
FLOAT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 0.1 + 0.2,
                                   1.0, -1.0, 1 / 3]),
                  st.floats(allow_nan=False, allow_infinity=False))
COUNT = st.integers(min_value=0, max_value=2**53)


@st.composite
def comment_rows(draw, ids=TEXT):
    scores = EngineScores(
        pattern_avg=unchecked_score(ENGINE_PATTERN, draw(FLOAT), subjectivity=draw(FLOAT)),
        synset=unchecked_score(ENGINE_SYNSET, draw(FLOAT)),
        valence_rule=unchecked_score(ENGINE_VALENCE, draw(FLOAT),
                                     proportions=(draw(FLOAT), draw(FLOAT), draw(FLOAT))),
    )
    labels = {engine: draw(st.sampled_from(LABELS)) for engine in ENGINES}
    return CommentRow(draw(ids), scores, labels)


@st.composite
def reports(draw):
    bins = draw(st.integers(min_value=1, max_value=4))
    empty = draw(st.booleans())
    return AnalysisReport(
        config_digest=draw(TEXT),
        corpus_size=draw(COUNT),
        kept_count=draw(COUNT),
        dropped_count=draw(COUNT),
        input_file=draw(TEXT),
        pipeline_mode=draw(TEXT),
        epsilon=draw(FLOAT),
        top_n=draw(COUNT),
        comments=tuple(draw(st.lists(comment_rows(), max_size=4))),
        dropped=tuple(draw(st.lists(st.tuples(TEXT, TEXT), max_size=4))),
        distributions={
            engine: DistributionReport(
                engine,
                {lab: draw(COUNT) for lab in LABELS},
                {lab: draw(FLOAT) for lab in LABELS})
            for engine in ENGINES
        },
        histogram=SubjectivityHistogram(
            tuple(draw(FLOAT) for _ in range(bins + 1)),
            tuple(draw(COUNT) for _ in range(bins)),
            None if empty else draw(FLOAT),
            None if empty else draw(FLOAT)),
        rankings={
            engine: {
                side: WordRanking(tuple(draw(st.lists(st.tuples(TEXT, COUNT),
                                                      max_size=3))))
                for side in SIDES
            }
            for engine in ENGINES
        },
    )


@settings(max_examples=100, deadline=None)
@given(reports())
def test_templates_equal_json_dumps(report):
    assert report_json_bytes(report, report_cells(report)) == expected_bytes(report)


def _report(comments=(), dropped=(), mean=0.5) -> AnalysisReport:
    return AnalysisReport(
        config_digest="0" * 64, corpus_size=len(comments) + len(dropped),
        kept_count=len(comments), dropped_count=len(dropped), input_file="c.jsonl",
        pipeline_mode="paper_faithful", epsilon=0.0, top_n=30,
        comments=tuple(comments), dropped=tuple(dropped),
        distributions={engine: DistributionReport(engine, dict.fromkeys(LABELS, 0),
                                                  dict.fromkeys(LABELS, 0.0))
                       for engine in ENGINES},
        histogram=SubjectivityHistogram((0.0, 1.0), (len(comments),), mean, mean),
        rankings={engine: {side: WordRanking(()) for side in SIDES}
                  for engine in ENGINES},
    )


def _row(comment_id: str, synset_polarity: float = 0.25) -> CommentRow:
    scores = EngineScores(
        pattern_avg=SentimentScore(ENGINE_PATTERN, 0.5, subjectivity=0.6),
        synset=unchecked_score(ENGINE_SYNSET, synset_polarity),
        valence_rule=SentimentScore(ENGINE_VALENCE, -0.1, proportions=(0.2, 0.5, 0.3)),
    )
    return CommentRow(comment_id, scores, dict.fromkeys(ENGINES, "positive"))


def test_empty_lists_print_as_brackets():
    report = _report()
    data = report_json_bytes(report, report_cells(report))
    assert '  "comments": [],\n' in data.decode("utf-8")
    assert '  "dropped": [],\n' in data.decode("utf-8")
    assert data == expected_bytes(report)


def test_rows_span_several_chunks():
    report = _report(comments=[_row(f"c{i}") for i in range(2001)],
                     dropped=[(f"d{i}", "too_short") for i in range(1000)])
    assert report_json_bytes(report, report_cells(report)) == expected_bytes(report)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_score_is_refused(value):
    report = _report(comments=[_row("a"), _row("b", synset_polarity=value)])
    with pytest.raises(ValueError, match="'b'"):
        report_json_bytes(report, report_cells(report))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_histogram_mean_is_refused(value):
    report = _report(comments=[_row("a")], mean=value)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_json_bytes(report, report_cells(report))


COMMENTS_CSV_COLUMNS = (
    "id",
    "pattern_polarity", "pattern_subjectivity", "pattern_label",
    "synset_polarity", "synset_label",
    "valence_polarity", "valence_pos", "valence_neu", "valence_neg",
    "valence_label",
)


def csv_cells(row: CommentRow) -> list[str]:
    scores = row.scores
    pos, neu, neg = scores.valence_rule.proportions
    return [row.comment_id,
            repr(scores.pattern_avg.polarity), repr(scores.pattern_avg.subjectivity),
            row.labels[ENGINE_PATTERN],
            repr(scores.synset.polarity), row.labels[ENGINE_SYNSET],
            repr(scores.valence_rule.polarity), repr(pos), repr(neu), repr(neg),
            row.labels[ENGINE_VALENCE]]


def csv_writer_text(report: AnalysisReport) -> str:
    """comments.csv as csv.writer once wrote it. Its quoting of CR and NUL
    depends on the Python version."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COMMENTS_CSV_COLUMNS)
    for row in report.comments:
        writer.writerow(csv_cells(row))
    return buffer.getvalue()


CSV_ID_CHARS = st.sampled_from([",", '"', "\r", "\n", "\x00", "\u2028", "\u00e9",
                                "\U0001F32C", " ", "a"])
CSV_ID = st.text(st.one_of(CSV_ID_CHARS, st.characters(exclude_categories=("Cs",))),
                 max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(comment_rows(ids=CSV_ID), max_size=4))
def test_comments_csv_reads_back_and_equals_csv_writer(rows):
    report = _report(comments=rows)
    text = comments_csv_text(report_cells(report))
    ids = [row.comment_id for row in rows]
    if not any("\r" in cid or "\x00" in cid for cid in ids):
        assert text == csv_writer_text(report)
    if not any("\x00" in cid for cid in ids):  # Python 3.10's reader refuses NUL
        cells = list(csv.reader(io.StringIO(text, newline="")))
        assert cells == [list(COMMENTS_CSV_COLUMNS), *map(csv_cells, rows)]


def test_comments_csv_quotes_cr_and_writes_nul_bare():
    report = _report(comments=[_row("c\rd"), _row("a\x00b")])
    lines = comments_csv_text(report_cells(report)).split("\n")
    assert lines[1] == '"c\rd",0.5,0.6,positive,0.25,positive,-0.1,0.2,0.5,0.3,positive'
    assert lines[2] == "a\x00b,0.5,0.6,positive,0.25,positive,-0.1,0.2,0.5,0.3,positive"


def test_ranking_csv_quotes_a_word_that_needs_it():
    entries = (("a,b", 3), ('q"', 2), ("wind", 1))
    assert ranking_csv_text(entries) == 'word,frequency\n"a,b",3\n"q""",2\nwind,1\n'


@settings(max_examples=50, deadline=None)
@given(reports())
def test_written_files_equal_each_writer_on_its_own(report):
    # write_report_files formats each row once for both files
    with tempfile.TemporaryDirectory() as tmp:
        write_report_files(report, tmp)
        assert (Path(tmp) / "report.json").read_bytes() == expected_bytes(report)
        assert (Path(tmp) / "comments.csv").read_bytes() == \
            comments_csv_text(report_cells(report)).encode("utf-8")


def test_non_finite_score_writes_no_report_file(tmp_path):
    report = _report(comments=[_row("a"), _row("b", synset_polarity=math.nan)])
    with pytest.raises(ValueError, match="'b'"):
        write_report_files(report, tmp_path)
    assert list(tmp_path.iterdir()) == []
