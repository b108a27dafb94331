"""Differential fuzzing of the whole analysis against the frozen oracle.

Hypothesis builds small corpora from the bundled lexicon words and synset
lemmas, modifier words, several "but"s, ALL-CAPS words, runs of '!', URLs,
#tags, inflections the suffix lemmatizer reduces, non-ASCII words and blank
or too-short texts. Each corpus is analyzed in both pipeline modes and with
both disambiguations, and every report section except meta.config_digest
must equal what tools/golden_reference.py's report() computes, byte for
byte. Single texts are also cleaned by both sides, dropped ones included,
and the valence rule is scored by both on raw texts whose pieces stress the
ALL-CAPS test: cased symbols that are not letters, capitals with no
lowercase, titlecase letters, uncased scripts and mixed-case URLs.

Function by function, the pattern and synset scorers (floats compared by
``float.hex``), the POS tagger and the word rankings are checked against the
oracle's own functions on generated token lists and corpora, and a corpus
with a repeated comment id is refused, whether or not its comments survive
cleaning.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.analytics import LABELS, NEGATIVE, POSITIVE, LabeledComment, top_words
from windsent.config import RunConfig
from windsent.corpus import Comment, CommentCollection
from windsent.engines import (
    AMPLIFIERS,
    DAMPENERS,
    DISAMBIGUATION_AVERAGE,
    DISAMBIGUATION_FIRST,
    ENGINE_LEXICONS,
    ENGINES,
    MODE_NATIVE,
    MODE_PAPER,
    NEGATION_WORDS,
    SentimentScore,
    score_pattern_avg,
    score_synset,
    score_valence_rule,
    tag_pos,
)
from windsent.lexicons import load_lexicon_set
from windsent.pipeline import analyze_collection
from windsent.preprocess import CleanedDocument, default_config, preprocess_text
from windsent.report import _row_cells, report_json_bytes

ORACLE_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_reference.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("golden_reference", ORACLE_PATH)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


ORACLE = _load_oracle()
LEXICONS = load_lexicon_set()
INPUT_NAME = "fuzz.jsonl"

_lexicon_words = sorted(set(ORACLE.VALENCE) | set(ORACLE.PATTERN)
                        | {lemma for lemma, _ in ORACLE.SYNSETS})
_modifiers = sorted(NEGATION_WORDS | AMPLIFIERS | DAMPENERS | {"but"})


def _inflections(word):
    stem = word[:-1] + "ies" if word.endswith("y") else word + "s"
    return st.sampled_from([stem, word + "es", word + "ing", word + "ed", word + "ses"])


_word = st.one_of(
    st.sampled_from(_lexicon_words),
    st.sampled_from(_lexicon_words).map(str.upper),
    st.sampled_from(_lexicon_words).flatmap(_inflections),
    st.sampled_from(_modifiers),
    st.sampled_from(_modifiers).map(str.upper),
    st.sampled_from(["the", "and", "ours", "wind", "turbine", "zzq", "10%", "don't"]),
    st.sampled_from(["eólico", "ΑΝΕΜΟΣ", "straße", "İstanbul", "ﬁne", "Énergie", "\U0001f642"]),
    st.sampled_from(["https://example.com/wind", "www.Site.org", "HTTP://X.CO"]),
    st.sampled_from(_lexicon_words).map(lambda w: "#" + w),
)
_piece = st.tuples(_word, st.sampled_from(["", "", "", ",", ".", "!", "!!", "!!!!!!", "?"])).map(
    "".join)
_text = st.one_of(
    st.lists(_piece, min_size=1, max_size=14).map(" ".join),
    st.sampled_from(["", "   ", "\t\n", "ok", "The and a", "GOOD!!", "but but"]),
)
corpora = st.lists(_text, min_size=1, max_size=8)


@pytest.mark.parametrize("disambiguation", [DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE])
@pytest.mark.parametrize("mode", [MODE_PAPER, MODE_NATIVE])
@given(texts=corpora)
@settings(max_examples=100, deadline=None)
def test_report_matches_oracle(mode, disambiguation, texts):
    records = [(f"c{n}", text) for n, text in enumerate(texts)]
    collection = CommentCollection(tuple(Comment(id=cid, text=text) for cid, text in records),
                                   INPUT_NAME)
    config = RunConfig(input_path=Path(INPUT_NAME), input_format="jsonl", out_dir=Path("unused"),
                       mode=mode, disambiguation=disambiguation, epsilon=ORACLE.EPSILON,
                       top_n=ORACLE.TOP_N, bin_count=ORACLE.BINS,
                       min_token_count=ORACLE.MIN_TOKENS)
    cleaning = default_config(min_token_count=ORACLE.MIN_TOKENS)
    report = analyze_collection(collection, LEXICONS, cleaning, config)
    data = report_json_bytes(report, list(map(_row_cells, report.comments)))
    actual = json.loads(data)
    expected = ORACLE.report(records, INPUT_NAME, mode == MODE_NATIVE, disambiguation)
    expected["meta"]["config_digest"] = actual["meta"]["config_digest"]
    for section in sorted(set(expected) | set(actual)):
        assert actual.get(section) == expected.get(section), section
    # byte equality also tells -0.0 from 0.0
    canonical = json.dumps(expected, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert data == canonical.encode("utf-8")


@given(text=_text)
@settings(max_examples=300, deadline=None)
def test_preprocess_matches_oracle(text):
    # dropped texts too: the report never shows their tokens, but
    # `windsent preprocess` writes them
    tokens, reason = preprocess_text(text, default_config(min_token_count=ORACLE.MIN_TOKENS))
    assert (list(tokens), reason) == ORACLE.preprocess(text)


_valence_words = sorted(ORACLE.VALENCE)
_caps_stress = ["Ⓐ", "ϒ", "ǅ", "ß", "風", "123", "7", "?!", "...",
                "--", "HTTP://X.Y", "Www.Z", "https://a.b/GOOD", "WWW.BAD.ORG"]
_caps_word = st.one_of(
    st.tuples(st.sampled_from(_valence_words + _modifiers),
              st.sampled_from([str.lower, str.upper, str.title])).map(lambda p: p[1](p[0])),
    st.sampled_from(_caps_stress),
)
_caps_piece = st.tuples(_caps_word, st.sampled_from(["", "", "", "!"] + _caps_stress),
                        st.sampled_from(["", "", ",", "!", "!!"])).map("".join)
_caps_texts = st.one_of(
    st.lists(_caps_piece, min_size=1, max_size=12).map(" ".join),
    st.lists(_caps_piece, min_size=1, max_size=6).map(" ".join).map(str.upper),
)


@given(raw=_caps_texts)
@settings(max_examples=500, deadline=None)
def test_valence_rule_matches_oracle(raw):
    tokens, _ = preprocess_text(raw, default_config(min_token_count=1))
    score = score_valence_rule(tokens, LEXICONS.valence, raw_text=raw)
    assert repr((score.polarity, score.proportions)) == repr(ORACLE.score_valence(tokens, raw))


# cleaned tokens: lexicon words and synset lemmas, inflections of them (which
# the tagger's suffix rules read), modifiers and words in no lexicon
_token = st.one_of(
    st.sampled_from(_lexicon_words),
    st.sampled_from(_lexicon_words).flatmap(_inflections),
    st.sampled_from(_modifiers),
    st.sampled_from(["wind", "turbine", "zzq", "quickly", "eólico", "10"]),
)
_tokens = st.lists(_token, max_size=20)


@given(tokens=_tokens)
@settings(max_examples=300, deadline=None)
def test_pattern_avg_matches_oracle(tokens):
    score = score_pattern_avg(tokens, LEXICONS.pattern)
    polarity, subjectivity = ORACLE.score_pattern(tokens)
    assert (score.polarity.hex(), score.subjectivity.hex()) == \
        (float.hex(polarity), float.hex(subjectivity))


@pytest.mark.parametrize("disambiguation", [DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE])
@given(tokens=_tokens)
@settings(max_examples=200, deadline=None)
def test_synset_matches_oracle(disambiguation, tokens):
    tagged = [(token, ORACLE.tag_token(token)) for token in tokens]
    assert tag_pos(tokens) == tagged
    score = score_synset(tagged, LEXICONS.synset, disambiguation)
    assert score.polarity.hex() == float.hex(ORACLE.score_synset(tagged, disambiguation))


_POLARITY = {POSITIVE: 0.5, NEGATIVE: -0.5}  # a score of each label's sign


@given(documents=st.lists(st.tuples(_tokens, st.lists(st.sampled_from(LABELS),
                                                      min_size=3, max_size=3)),
                          max_size=12))
@settings(max_examples=200, deadline=None)
def test_top_words_matches_oracle(documents):
    kept = [(f"c{n}", tokens) for n, (tokens, _) in enumerate(documents)]
    cleaned = [CleanedDocument(cid, " ".join(tokens), tuple(tokens)) for cid, tokens in kept]
    labels = {engine: {cid: doc_labels[index]
                       for (cid, _), (_, doc_labels) in zip(kept, documents)}
              for index, engine in enumerate(ENGINES)}
    for engine in ENGINES:
        labeled = [LabeledComment(cid, engine, SentimentScore(engine, _POLARITY.get(label, 0.0)),
                                  label)
                   for cid, label in labels[engine].items()]
        lexicon = getattr(LEXICONS, ENGINE_LEXICONS[engine].kind)
        for side in (POSITIVE, NEGATIVE):
            ranking = top_words(cleaned, labeled, lexicon, engine, side, ORACLE.TOP_N)
            assert [list(entry) for entry in ranking.entries] == \
                ORACLE.top_words(kept, labels, engine, side)


@given(texts=st.lists(_text, min_size=2, max_size=8), data=st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_comment_id_is_rejected(texts, data):
    # either copy may be kept or dropped by cleaning; a report that names an
    # id twice, or as both kept and dropped, is wrong either way
    ids = [f"c{n}" for n in range(len(texts))]
    first, second = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, max_size=2,
                                       unique=True))
    ids[second] = ids[first]
    collection = CommentCollection(tuple(map(Comment, ids, texts)), INPUT_NAME)
    config = RunConfig(input_path=Path(INPUT_NAME), input_format="jsonl",
                       out_dir=Path("unused"))
    with pytest.raises(ValueError, match=re.escape(repr(ids[first]))):
        analyze_collection(collection, LEXICONS, default_config(), config)
