"""Analysis report: the single JSON document plus CSV extracts.

Serialization is canonical so that identical inputs produce byte-identical
files on any machine: sorted keys, two-space indent, UTF-8, "\n" newlines,
shortest-roundtrip float repr, and no timestamps or absolute paths (file
references are recorded by basename only).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .analytics import (
    LABELS,
    DistributionReport,
    SubjectivityHistogram,
    WordRanking,
)
from .engines import ENGINES, ENGINE_PATTERN, ENGINE_SYNSET, ENGINE_VALENCE, EngineScores
from .errors import WindsentError, read_text, write_file

SIDES = ("negative", "positive")


class ReportNotReadableError(WindsentError):
    code = "report/file-not-readable"


@dataclass(frozen=True)
class CommentRow:
    comment_id: str
    scores: EngineScores
    labels: Mapping[str, str]  # engine -> label


@dataclass(frozen=True)
class AnalysisReport:
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


def _scores_to_dict(scores: EngineScores) -> dict:
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


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        **summary_to_dict(report),
        "comments": [
            {
                "id": row.comment_id,
                "labels": {engine: row.labels[engine] for engine in ENGINES},
                "scores": _scores_to_dict(row.scores),
            }
            for row in report.comments
        ],
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
    }


def report_json_bytes(report: AnalysisReport) -> bytes:
    text = json.dumps(report_to_dict(report), ensure_ascii=False, indent=2,
                      sort_keys=True) + "\n"
    return text.encode("utf-8")


COMMENTS_CSV_COLUMNS = (
    "id",
    "pattern_polarity", "pattern_subjectivity", "pattern_label",
    "synset_polarity", "synset_label",
    "valence_polarity", "valence_pos", "valence_neu", "valence_neg",
    "valence_label",
)


def comments_csv_text(report: AnalysisReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COMMENTS_CSV_COLUMNS)
    for row in report.comments:
        scores = row.scores
        pos, neu, neg = scores.valence_rule.proportions
        writer.writerow([
            row.comment_id,
            str(scores.pattern_avg.polarity),
            str(scores.pattern_avg.subjectivity),
            row.labels[ENGINE_PATTERN],
            str(scores.synset.polarity),
            row.labels[ENGINE_SYNSET],
            str(scores.valence_rule.polarity),
            str(pos), str(neu), str(neg),
            row.labels[ENGINE_VALENCE],
        ])
    return buffer.getvalue()


def ranking_csv_text(ranking: WordRanking) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["word", "frequency"])
    for word, count in ranking.entries:
        writer.writerow([word, str(count)])
    return buffer.getvalue()


def write_ranking_files(rankings: Mapping[str, Mapping[str, WordRanking]],
                        outdir: str | Path, engines: Sequence[str] = ENGINES,
                        sides: Sequence[str] = SIDES) -> list[Path]:
    """Write ranking_<engine>_<side>.csv for each engine and side; returns
    the paths written."""
    outdir = Path(outdir)
    written = []
    for engine in engines:
        for side in sides:
            path = outdir / f"ranking_{engine}_{side}.csv"
            write_file(path, ranking_csv_text(rankings[engine][side]))
            written.append(path)
    return written


def write_report_files(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write report.json, comments.csv and the six ranking CSVs; returns the
    paths written."""
    outdir = Path(outdir)
    write_file(outdir / "report.json", report_json_bytes(report))
    write_file(outdir / "comments.csv", comments_csv_text(report))
    return [outdir / "report.json", outdir / "comments.csv",
            *write_ranking_files(report.rankings, outdir)]


def load_report(path: str | Path) -> object:
    """The parsed JSON of a report file, unchecked: each reader checks the
    sections it uses."""
    text = read_text(path, ReportNotReadableError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportNotReadableError(f"{path}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer too long to parse
        raise ReportNotReadableError(f"{path}: {exc}") from exc
