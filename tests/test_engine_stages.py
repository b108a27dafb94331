"""Scores with no signal are one shared record per engine, and
``analyze_collection`` labels, counts and ranks one engine at a time."""

import gc
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent import analytics
from windsent.analytics import LabeledComment
from windsent.config import RunConfig
from windsent.corpus import Comment, CommentCollection
from windsent.engines import (
    ENGINE_PATTERN,
    ENGINE_SYNSET,
    ENGINE_VALENCE,
    MODIFIER_WORDS,
    PATTERN_NO_SIGNAL,
    SYNSET_NO_SIGNAL,
    VALENCE_NO_SIGNAL,
    score_pattern_avg,
    score_synset,
    score_valence_rule,
    tag_pos,
)
from windsent.pipeline import analyze_collection
from windsent.preprocess import default_config

MODIFIERS_ONLY = ["totally", "never", "barely", "not", "very", "so"]
NO_LEXICON_WORD = ["zorp", "blick", "quandle", "fnord"]


def hex_fields(score):
    """A score's fields with every float as ``float.hex``."""
    def as_hex(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(as_hex, value))
        return value
    return as_hex(tuple(score))


def test_no_signal_scores_are_what_the_scorers_built():
    assert hex_fields(PATTERN_NO_SIGNAL) == (ENGINE_PATTERN, "0x0.0p+0", "0x0.0p+0", None)
    assert hex_fields(SYNSET_NO_SIGNAL) == (ENGINE_SYNSET, "0x0.0p+0", None, None)
    assert hex_fields(VALENCE_NO_SIGNAL) == (
        ENGINE_VALENCE, "0x0.0p+0", None, ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"))


@pytest.mark.parametrize("tokens", [[], NO_LEXICON_WORD, MODIFIERS_ONLY])
def test_pattern_and_synset_share_their_no_signal_score(lexicons, tokens):
    assert score_pattern_avg(tokens, lexicons.pattern) is PATTERN_NO_SIGNAL
    for disambiguation in ("first_sense", "average_senses"):
        assert score_synset(tag_pos(tokens), lexicons.synset, disambiguation) \
            is SYNSET_NO_SIGNAL


@pytest.mark.parametrize("tokens, raw_text", [
    ([], None),
    ([], "!!!"),
    (NO_LEXICON_WORD, None),
    (MODIFIERS_ONLY, None),
    # emphasis and exclamations apply to a nonzero sum only
    (NO_LEXICON_WORD, "ZORP blick QUANDLE fnord!!!!"),
    (MODIFIERS_ONLY, "TOTALLY never barely NOT very so!!"),
    (["zorp", "but", "not", "blick"], "ZORP but NOT blick!"),
])
def test_valence_shares_its_no_signal_score(lexicons, tokens, raw_text):
    assert score_valence_rule(tokens, lexicons.valence, raw_text=raw_text) \
        is VALENCE_NO_SIGNAL


@given(tokens=st.lists(st.sampled_from(["good", "bad", "wind", "zorp", "but",
                                        *sorted(MODIFIER_WORDS)]), max_size=8),
       shout=st.booleans(), bangs=st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_a_valence_score_equal_to_no_signal_is_the_shared_one(lexicons, tokens, shout, bangs):
    raw_text = " ".join(t.upper() if shout else t for t in tokens) + "!" * bangs
    score = score_valence_rule(tokens, lexicons.valence, raw_text=raw_text)
    assert (score is VALENCE_NO_SIGNAL) == (hex_fields(score) == hex_fields(VALENCE_NO_SIGNAL))


def _live_labeled_comments() -> int:
    gc.collect()
    return sum(type(obj) is LabeledComment for obj in gc.get_objects())


def _generated_collection(lexicons, count=400, seed=35):
    rng = random.Random(seed)
    words = sorted(lexicons.valence._valence)[:200] + ["wind", "farm", "zorp", "not", "very"]
    comments = [Comment(f"c{i}", " ".join(rng.choices(words, k=rng.randint(1, 8))))
                for i in range(count)]
    return CommentCollection(tuple(comments), "generated.jsonl")


def _config(**settings):
    return RunConfig(input_path=Path("generated.jsonl"), input_format="jsonl",
                     out_dir=Path("unused"), **settings)


def test_top_words_sees_one_engines_labels_alive(lexicons, monkeypatch):
    seen = []
    top_words = analytics.top_words

    def counting_top_words(documents, labeled, *args):
        seen.append((_live_labeled_comments() - before, len(labeled)))
        return top_words(documents, labeled, *args)

    monkeypatch.setattr(analytics, "top_words", counting_top_words)
    before = _live_labeled_comments()
    report = analyze_collection(_generated_collection(lexicons), lexicons, default_config(),
                                _config())
    assert len(seen) == 6
    assert report.kept_count > 100
    for live, labeled in seen:
        assert labeled == report.kept_count
        assert labeled <= live <= report.kept_count


DUPLICATE = CommentCollection((Comment("c1", "good great wonderful day"),
                               Comment("c1", "terrible awful horrible day")), "dup.jsonl")
EPSILON = "epsilon must be a finite number >= 0, got -1.0"
BIN_COUNT = "bin_count must be >= 1"
TOP_N = "n must be >= 1"
REPEATED = "repeated document id 'c1'"


@pytest.mark.parametrize("settings, duplicate, message", [
    ({"epsilon": -1.0}, False, EPSILON),
    ({"bin_count": 0}, False, BIN_COUNT),
    ({"top_n": 0}, False, TOP_N),
    ({}, True, REPEATED),
    # two bad settings: the histogram is made before any engine labels
    ({"epsilon": -1.0, "bin_count": 0}, False, BIN_COUNT),
    ({"epsilon": -1.0, "top_n": 0}, False, EPSILON),
    ({"epsilon": -1.0}, True, EPSILON),
    ({"bin_count": 0, "top_n": 0}, False, BIN_COUNT),
    ({"bin_count": 0}, True, BIN_COUNT),
    ({"top_n": 0}, True, TOP_N),
])
def test_an_unchecked_setting_raises_its_error(lexicons, settings, duplicate, message):
    collection = DUPLICATE if duplicate else _generated_collection(lexicons, count=20)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        analyze_collection(collection, lexicons, default_config(), _config(**settings))
