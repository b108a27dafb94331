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
from .errors import WindsentError

SIDES = ("negative", "positive")


class OutputNotWritableError(WindsentError):
    code = "report/output-not-writable"


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


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "comments": [
            {
                "id": row.comment_id,
                "labels": {engine: row.labels[engine] for engine in ENGINES},
                "scores": _scores_to_dict(row.scores),
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


def write_report_files(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write report.json, comments.csv and the six ranking CSVs; returns the
    paths written."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        path = outdir / "report.json"
        path.write_bytes(report_json_bytes(report))
        written.append(path)
        path = outdir / "comments.csv"
        path.write_text(comments_csv_text(report), encoding="utf-8")
        written.append(path)
        for engine in ENGINES:
            for side in SIDES:
                path = outdir / f"ranking_{engine}_{side}.csv"
                path.write_text(ranking_csv_text(report.rankings[engine][side]),
                                encoding="utf-8")
                written.append(path)
        return written
    except OSError as exc:
        raise OutputNotWritableError(f"{outdir}: {exc.strerror or exc}") from exc


def _typed(value, kinds: tuple[type, ...], where: str):
    """``value`` if its type is exactly one of ``kinds`` (a JSON ``true`` is
    not an int), else TypeError."""
    if type(value) not in kinds:
        raise TypeError(f"{where}: expected {kinds[0].__name__}, got {value!r}")
    return value


def report_from_dict(data: Mapping) -> AnalysisReport:
    """Rebuild a report from its JSON form (used by the plot subcommand).
    Only the sections the plots need are reconstructed in full fidelity."""
    from .engines import SentimentScore

    meta = data["meta"]
    comments = []
    for entry in data["comments"]:
        scores = entry["scores"]
        valence = scores[ENGINE_VALENCE]
        proportions = (
            valence["proportions"]["pos"],
            valence["proportions"]["neu"],
            valence["proportions"]["neg"],
        )
        engine_scores = EngineScores(
            pattern_avg=SentimentScore(
                ENGINE_PATTERN,
                scores[ENGINE_PATTERN]["polarity"],
                subjectivity=scores[ENGINE_PATTERN]["subjectivity"],
            ),
            synset=SentimentScore(ENGINE_SYNSET, scores[ENGINE_SYNSET]["polarity"]),
            valence_rule=SentimentScore(
                ENGINE_VALENCE, valence["polarity"], proportions=proportions),
        )
        comments.append(CommentRow(entry["id"], engine_scores, dict(entry["labels"])))

    distributions = {}
    for engine in ENGINES:
        dist = data["distributions"][engine]
        counts = {lab: _typed(dist["counts"][lab], (int,),
                              f"distributions.{engine}.counts")
                  for lab in LABELS}
        proportions = {lab: dist["proportions"][lab] for lab in LABELS}
        distributions[engine] = DistributionReport(engine, counts, proportions)

    subjectivity = data["subjectivity"]
    histogram = SubjectivityHistogram(
        tuple(_typed(edge, (float, int), "subjectivity.bin_edges")
              for edge in subjectivity["bin_edges"]),
        tuple(_typed(count, (int,), "subjectivity.counts")
              for count in subjectivity["counts"]),
        subjectivity["mean"],
        subjectivity["median"],
    )

    rankings = {
        engine: {
            side: WordRanking(engine, side, tuple(
                (_typed(word, (str,), f"rankings.{engine}.{side}"),
                 _typed(count, (int,), f"rankings.{engine}.{side}"))
                for word, count in data["rankings"][engine][side]))
            for side in SIDES
        }
        for engine in ENGINES
    }

    return AnalysisReport(
        config_digest=meta["config_digest"],
        corpus_size=meta["corpus_size"],
        kept_count=meta["kept_count"],
        dropped_count=meta["dropped_count"],
        input_file=meta["input_file"],
        pipeline_mode=meta["pipeline_mode"],
        epsilon=meta["epsilon"],
        top_n=meta["top_n"],
        comments=tuple(comments),
        dropped=tuple((d["id"], d["reason"]) for d in data["dropped"]),
        distributions=distributions,
        histogram=histogram,
        rankings=rankings,
    )


def load_report(path: str | Path) -> AnalysisReport:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReportNotReadableError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportNotReadableError(f"{path}: invalid JSON ({exc.msg})") from exc
    try:
        return report_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportNotReadableError(
            f"{path}: not a windsent report ({type(exc).__name__}: {exc})") from exc
