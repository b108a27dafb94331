"""The records are immutable, slotted and compared by value. Most are
NamedTuples, RunConfig too; CommentCollection and the three lexicon types
are FrozenRecord classes that are not tuples. SentimentScore and
PreprocessConfig check their values however they are built."""

import copy
import pickle
from pathlib import Path

import pytest

from windsent.analytics import (
    DistributionReport,
    LabeledComment,
    SubjectivityHistogram,
    WordRanking,
)
from windsent.config import RunConfig
from windsent.corpus import Comment, CommentCollection, SkippedRecord
from windsent.engines import (
    ENGINE_PATTERN,
    ENGINE_SYNSET,
    ENGINE_VALENCE,
    ENGINES,
    MODE_PAPER,
    EngineScores,
    SentimentScore,
)
from windsent.lexicons import (
    LexiconSet,
    PatternEntry,
    PatternLexicon,
    SynsetEntry,
    SynsetLexicon,
    ValenceLexicon,
)
from windsent.preprocess import CleanedDocument, PreprocessConfig
from windsent.report import AnalysisReport, CommentRow

COMMENT = Comment("c1", "Good wind")
SCORES = EngineScores(SentimentScore(ENGINE_PATTERN, 0.5, 0.25),
                      SentimentScore(ENGINE_SYNSET, -0.125),
                      SentimentScore(ENGINE_VALENCE, 0.75, proportions=(0.5, 0.5, 0.0)))
LABELS = {ENGINE_PATTERN: "positive", ENGINE_SYNSET: "negative", ENGINE_VALENCE: "positive"}
HISTOGRAM = SubjectivityHistogram((0.0, 0.5, 1.0), (1, 0), 0.25, 0.25)
DISTRIBUTION = DistributionReport(ENGINE_VALENCE, {"positive": 1}, {"positive": 1.0})
ROW = CommentRow("c1", SCORES, LABELS)
PATTERN_ENTRY = PatternEntry(0.7, 0.6)
SYNSET_ENTRY = SynsetEntry(0.75, 0.0, 1)
VALENCE = ValenceLexicon({"good": 1.9})
PATTERN = PatternLexicon({"good": PATTERN_ENTRY})
SYNSET = SynsetLexicon({("good", "adj"): (SYNSET_ENTRY,)})
REPORT = AnalysisReport("digest", 1, 1, 0, "corpus.jsonl", MODE_PAPER, 0.0, 10,
                        (ROW,), (), {ENGINE_VALENCE: DISTRIBUTION}, HISTOGRAM, {})

# each record beside one that differs from it in exactly one field
PAIRS = [
    (COMMENT, Comment("c1", "Good winds")),
    (CommentCollection((COMMENT,), "corpus.jsonl"), CommentCollection((COMMENT,), "other.jsonl")),
    (SkippedRecord(3, "text is empty"), SkippedRecord(4, "text is empty")),
    (CleanedDocument("c1", "Good wind", ("good", "wind")),
     CleanedDocument("c1", "Good wind", ("good", "wind"), "too_short")),
    (SCORES.pattern_avg, SentimentScore(ENGINE_PATTERN, 0.5, 0.375)),
    (SCORES, SCORES._replace(synset=SentimentScore(ENGINE_SYNSET, 0.0))),
    (LabeledComment("c1", ENGINE_SYNSET, SCORES.synset, "negative"),
     LabeledComment("c1", ENGINE_SYNSET, SCORES.synset, "neutral")),
    (HISTOGRAM, SubjectivityHistogram((0.0, 0.5, 1.0), (0, 1), 0.25, 0.25)),
    (WordRanking((("good", 2),)), WordRanking((("good", 3),))),
    (PATTERN_ENTRY, PatternEntry(0.7, 0.6, True)),
    (SYNSET_ENTRY, SynsetEntry(0.75, 0.0, 2)),
    (DISTRIBUTION, DistributionReport(ENGINE_VALENCE, {"positive": 2}, {"positive": 1.0})),
    (ROW, CommentRow("c1", SCORES, {**LABELS, ENGINE_SYNSET: "neutral"})),
    (REPORT, REPORT._replace(top_n=30)),
    (VALENCE, ValenceLexicon({"good": 2.0})),
    (PATTERN, PatternLexicon({"bad": PATTERN_ENTRY})),
    # the same lemma under another tag: the table differs, the derived lemmas do not
    (SYNSET, SynsetLexicon({("good", "noun"): (SYNSET_ENTRY,)})),
    (LexiconSet(VALENCE, PATTERN, SYNSET), LexiconSet(ValenceLexicon({}), PATTERN, SYNSET)),
    (PreprocessConfig(frozenset({"the"}), {"winds": "wind"}),
     PreprocessConfig(frozenset({"the"}), None)),
    (RunConfig(Path("in.jsonl"), "jsonl", Path("out")),
     RunConfig(Path("in.jsonl"), "jsonl", Path("out"), top_n=5)),
]
RECORDS = [record for record, _ in PAIRS]
NOT_TUPLES = [CommentCollection((COMMENT,), "corpus.jsonl"), VALENCE, PATTERN, SYNSET]


def record_id(record):
    return type(record).__name__


def fields(record):
    """A record's field names: a NamedTuple's ``_fields``, else its slots."""
    if isinstance(record, tuple):
        return record._fields
    return [name for cls in type(record).__mro__ for name in getattr(cls, "__slots__", ())]


@pytest.mark.parametrize("record", RECORDS, ids=record_id)
def test_record_is_frozen_and_slotted(record):
    assert not hasattr(record, "__dict__")
    for name in fields(record):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.note = "x"


@pytest.mark.parametrize("record", RECORDS, ids=record_id)
def test_records_from_equal_parts_are_equal(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin is not record
        assert twin == record
        assert not twin != record
        assert type(twin) is type(record)


@pytest.mark.parametrize("record, other", PAIRS, ids=[record_id(r) for r, _ in PAIRS])
def test_records_differing_in_one_field_are_unequal(record, other):
    assert type(other) is type(record)
    assert sum(getattr(record, name) != getattr(other, name) for name in fields(record)) == 1
    assert record != other
    assert not record == other


@pytest.mark.parametrize("record", NOT_TUPLES, ids=record_id)
def test_collection_and_lexicons_are_not_tuples(record):
    assert not isinstance(record, tuple)
    assert record != tuple(getattr(record, name) for name in fields(record))


def test_word_ranking_holds_only_its_entries():
    assert WordRanking._fields == ("entries",)


def test_named_tuple_records_equal_plain_tuples():
    assert SkippedRecord(3, "text is empty") == (3, "text is empty")
    line, reason = SkippedRecord(3, "text is empty")
    assert (line, reason) == (3, "text is empty")


def test_engine_scores_fields_are_in_engine_order():
    # the pipeline and by_engine zip the scores against ENGINES
    assert EngineScores._fields == ENGINES
    assert SCORES.by_engine() == {ENGINE_PATTERN: SCORES.pattern_avg,
                                  ENGINE_SYNSET: SCORES.synset,
                                  ENGINE_VALENCE: SCORES.valence_rule}


def test_synset_lexicon_lemmas_are_derived():
    assert SYNSET.lemmas == frozenset({"good"})
    assert copy.deepcopy(SYNSET).lemmas == SYNSET.lemmas


@pytest.mark.parametrize("build", [
    lambda: SentimentScore(ENGINE_PATTERN, polarity=1.5),
    lambda: SentimentScore(ENGINE_PATTERN, -1.5, 0.5),
    lambda: SentimentScore(ENGINE_PATTERN, 0.5, subjectivity=1.5),
    lambda: SentimentScore(ENGINE_VALENCE, 0.5, proportions=(0.5, 0.5, 0.5)),
    lambda: SCORES.pattern_avg._replace(polarity=1.5),
    lambda: SentimentScore._make((ENGINE_SYNSET, 2.0, None, None)),
    lambda: PreprocessConfig(frozenset(), {}, min_token_count=0),
    lambda: PreprocessConfig(frozenset(), {}, 0),
    lambda: PreprocessConfig(frozenset(), {})._replace(min_token_count=0),
], ids=["polarity", "negative-polarity", "subjectivity", "proportions", "score-replace",
        "score-make", "min-tokens", "min-tokens-positional", "config-replace"])
def test_checked_records_refuse_bad_values(build):
    with pytest.raises(ValueError):
        build()

