"""The per-record dataclasses are frozen and slotted."""

import dataclasses

import pytest

from windsent.analytics import (
    DistributionReport,
    LabeledComment,
    SubjectivityHistogram,
    WordRanking,
)
from windsent.corpus import Comment, CommentCollection, SkippedRecord
from windsent.engines import (
    ENGINE_PATTERN,
    ENGINE_SYNSET,
    ENGINE_VALENCE,
    MODE_PAPER,
    EngineScores,
    SentimentScore,
)
from windsent.lexicons import PatternEntry, SynsetEntry
from windsent.preprocess import CleanedDocument
from windsent.report import AnalysisReport, CommentRow

COMMENT = Comment("c1", "Good wind", "group", "2024-01-01")
SCORES = EngineScores(SentimentScore(ENGINE_PATTERN, 0.5, 0.25),
                      SentimentScore(ENGINE_SYNSET, -0.125),
                      SentimentScore(ENGINE_VALENCE, 0.75, proportions=(0.5, 0.5, 0.0)))
LABELS = {ENGINE_PATTERN: "positive", ENGINE_SYNSET: "negative", ENGINE_VALENCE: "positive"}
HISTOGRAM = SubjectivityHistogram((0.0, 0.5, 1.0), (1, 0), 0.25, 0.25)
DISTRIBUTION = DistributionReport(ENGINE_VALENCE, {"positive": 1}, {"positive": 1.0})
ROW = CommentRow("c1", SCORES, LABELS)

RECORDS = [
    COMMENT,
    CommentCollection((COMMENT,), "corpus.jsonl"),
    SkippedRecord(3, "text is empty"),
    CleanedDocument("c1", "Good wind", ("good", "wind")),
    SCORES.pattern_avg,
    SCORES,
    LabeledComment("c1", ENGINE_SYNSET, SCORES.synset, "negative"),
    HISTOGRAM,
    WordRanking(ENGINE_VALENCE, "positive", (("good", 2),)),
    PatternEntry("good", 0.7, 0.6),
    SynsetEntry("good.a.01", "a", 0.75, 0.0, frozenset({"good"}), 1),
    DISTRIBUTION,
    ROW,
    AnalysisReport("digest", 1, 1, 0, "corpus.jsonl", MODE_PAPER, 0.0, 10,
                   (ROW,), (), {ENGINE_VALENCE: DISTRIBUTION}, HISTOGRAM, {}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_is_frozen_and_slotted(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, getattr(record, first))
