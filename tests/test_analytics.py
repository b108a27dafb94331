import itertools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent import analytics
from windsent.analytics import (
    LABELS,
    NEGATIVE,
    POSITIVE,
    LabeledComment,
    distribution,
    label,
    label_comment,
    label_polarity,
    merge_distributions,
    subjectivity_histogram,
    top_words,
    word_qualifies,
)
from windsent.config import RunConfig
from windsent.corpus import Comment, CommentCollection
from windsent.engines import (
    DISAMBIGUATION_AVERAGE,
    DISAMBIGUATION_FIRST,
    ENGINE_LEXICONS,
    ENGINE_PATTERN,
    ENGINE_VALENCE,
    ENGINES,
    SentimentScore,
    score_all,
    score_synset,
    tag_pos,
)
from windsent.lexicons import (
    LexiconSet,
    PatternEntry,
    PatternLexicon,
    SynsetEntry,
    SynsetLexicon,
    ValenceLexicon,
    load_lexicon_set,
)
from windsent.pipeline import analyze_collection
from windsent.preprocess import CleanedDocument, default_config


def vscore(polarity):
    return SentimentScore(ENGINE_VALENCE, polarity, proportions=(0.0, 1.0, 0.0))


def pscore(polarity, subjectivity=0.5):
    return SentimentScore(ENGINE_PATTERN, polarity, subjectivity=subjectivity)


class TestLabel:
    @pytest.mark.parametrize("phi,expected", [
        (0.5, "positive"),
        (0.0, "neutral"),
        (-0.3, "negative"),
        (1e-12, "positive"),
        (-1e-12, "negative"),
    ])
    def test_sign_rule(self, phi, expected):
        assert label_polarity(phi) == expected
        assert label(vscore(phi)) == expected

    def test_epsilon_band(self):
        assert label_polarity(0.05, epsilon=0.1) == "neutral"
        assert label_polarity(0.1, epsilon=0.1) == "neutral"
        assert label_polarity(0.11, epsilon=0.1) == "positive"
        assert label_polarity(-0.11, epsilon=0.1) == "negative"

    def test_negative_epsilon_rejected(self):
        # a NaN epsilon used to label everything negative, an infinite one neutral
        for epsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
                label_polarity(0.5, epsilon=epsilon)

    @given(st.floats(min_value=-1, max_value=1, allow_nan=False),
           st.floats(min_value=-1, max_value=1, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_monotone_consistency(self, a, b):
        order = {"negative": 0, "neutral": 1, "positive": 2}
        if a > b:
            assert order[label_polarity(a)] >= order[label_polarity(b)]


class TestDistribution:
    def make(self, labels, engine=ENGINE_VALENCE):
        return [
            LabeledComment(f"c{i}", engine, vscore(0.0), lab)
            for i, lab in enumerate(labels)
        ]

    def test_counts_and_proportions(self):
        report = distribution(
            self.make(["positive", "positive", "negative", "neutral"]),
            ENGINE_VALENCE)
        assert report.counts == {"negative": 1, "neutral": 1, "positive": 2}
        assert report.proportions == {"negative": 0.25, "neutral": 0.25, "positive": 0.5}

    def test_empty_input(self):
        report = distribution([], ENGINE_VALENCE)
        assert report.counts == {lab: 0 for lab in LABELS}
        assert report.proportions == {lab: 0.0 for lab in LABELS}

    def test_mixed_engines_rejected(self):
        items = self.make(["positive"]) + [
            LabeledComment("x", ENGINE_PATTERN, pscore(0.1), "positive")]
        with pytest.raises(ValueError, match="^expected valence_rule entries, got pattern_avg$"):
            distribution(items, ENGINE_VALENCE)

    def test_counts_partition_input(self):
        labels = ["positive", "negative", "neutral"] * 7
        report = distribution(self.make(labels), ENGINE_VALENCE)
        assert sum(report.counts.values()) == len(labels)

    def test_merge_equals_whole(self):
        labels = ["positive", "negative", "neutral", "positive", "negative",
                  "positive", "neutral", "neutral", "negative", "positive"]
        whole = distribution(self.make(labels), ENGINE_VALENCE)
        for parts in (2, 5):
            size = len(labels) // parts
            shards = [
                distribution(self.make(labels[i * size:(i + 1) * size]), ENGINE_VALENCE)
                for i in range(parts)
            ]
            merged = merge_distributions(shards)
            assert merged.counts == whole.counts
            assert merged.proportions == whole.proportions

    def test_merge_requires_same_engine(self):
        a = distribution(self.make(["positive"]), ENGINE_VALENCE)
        b = distribution([LabeledComment("x", ENGINE_PATTERN, pscore(0.1), "positive")],
                         ENGINE_PATTERN)
        with pytest.raises(ValueError, match="^expected valence_rule entries, got pattern_avg$"):
            merge_distributions([a, b])

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_distributions([])


class TestSubjectivityHistogram:
    def test_boundary_rule_two_bins(self):
        hist = subjectivity_histogram(
            [pscore(0.0, 0.0), pscore(0.0, 0.0), pscore(0.0, 1.0)], bin_count=2)
        assert hist.counts == (2, 1)
        assert hist.mean == (0.0 + 0.0 + 1.0) / 3
        assert hist.median == 0.0

    def test_interior_boundary_goes_to_lower_bin(self):
        hist = subjectivity_histogram([pscore(0.0, 0.5)], bin_count=10)
        assert hist.counts[4] == 1  # 0.5 joins [0.4, 0.5], not [0.5, 0.6]

    def test_empty_input(self):
        hist = subjectivity_histogram([], bin_count=4)
        assert hist.counts == (0, 0, 0, 0)
        assert hist.mean is None and hist.median is None

    def test_edges_span_unit_interval(self):
        hist = subjectivity_histogram([pscore(0.0, 0.3)], bin_count=10)
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == 1.0
        assert list(hist.bin_edges) == sorted(hist.bin_edges)

    def test_missing_subjectivity_rejected(self):
        with pytest.raises(ValueError,
                           match="^score from engine 'valence_rule' has no subjectivity$"):
            subjectivity_histogram([vscore(0.5)])

    def test_median_even_count(self):
        hist = subjectivity_histogram([pscore(0.0, v) for v in (0.1, 0.2, 0.6, 0.8)])
        assert hist.median == (0.2 + 0.6) / 2

    def test_mean_is_a_left_to_right_sum(self):
        # Python 3.12's compensated sum() would give exactly 0.1 here
        hist = subjectivity_histogram([pscore(0.0, 0.1)] * 10)
        assert hist.mean == 0.9999999999999999 / 10

    def test_every_interior_edge_joins_the_lower_bin(self):
        # v * bins rounds: at bins=100, 0.55 * 100 is 55.00000000000001
        for bins in range(1, 281):
            edges = subjectivity_histogram([], bin_count=bins).bin_edges
            for k in range(1, bins):
                for value, index in ((edges[k], k - 1), (math.nextafter(edges[k], 2), k)):
                    counts = subjectivity_histogram([pscore(0.0, value)], bins).counts
                    assert counts[index] == 1, (bins, k, value)

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_counts_always_partition(self, values):
        hist = subjectivity_histogram([pscore(0.0, v) for v in values], bin_count=7)
        assert sum(hist.counts) == len(values)


class TestTopWords:
    def doc(self, cid, *tokens):
        return CleanedDocument(cid, " ".join(tokens), tuple(tokens), None)

    def test_direct_count(self, lexicons):
        docs = [self.doc("a", "great", "great", "win")]
        labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.9), "positive")]
        ranking = top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE,
                            "positive")
        assert ranking.entries == (("great", 2), ("win", 1))

    def test_empty_side(self, lexicons):
        docs = [self.doc("a", "great")]
        labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.9), "positive")]
        ranking = top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE,
                            "negative")
        assert ranking.entries == ()

    def test_only_qualifying_words_appear(self, lexicons):
        docs = [self.doc("a", "great", "terrible", "zzz")]
        labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.2), "positive")]
        ranking = top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE,
                            "positive")
        assert [w for w, _ in ranking.entries] == ["great"]

    def test_lexicographic_tie_break(self, lexicons):
        docs = [self.doc("a", "win", "great", "good", "win")]
        labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.9), "positive")]
        ranking = top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE,
                            "positive")
        assert ranking.entries == (("win", 2), ("good", 1), ("great", 1))

    def test_n_truncates(self, lexicons):
        docs = [self.doc("a", "good", "great", "win", "clean")]
        labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.9), "positive")]
        ranking = top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE,
                            "positive", n=2)
        assert len(ranking.entries) == 2

    def test_wrong_lexicon_for_engine(self, lexicons):
        with pytest.raises(TypeError, match="^expected a pattern lexicon, got valence$"):
            top_words([], [], lexicons.valence, ENGINE_PATTERN, "positive")

    def test_mixed_engines(self, lexicons):
        docs = [self.doc("a", "great")]
        labeled = [LabeledComment("a", ENGINE_PATTERN, pscore(0.5), "positive")]
        with pytest.raises(ValueError, match="^expected valence_rule entries, got pattern_avg$"):
            top_words(docs, labeled, lexicons.valence, ENGINE_VALENCE, "positive")

    def test_qualification_rules(self, lexicons):
        assert word_qualifies(lexicons.valence, "good", "positive")
        assert not word_qualifies(lexicons.valence, "good", "negative")
        assert word_qualifies(lexicons.valence, "terrible", "negative")
        assert not word_qualifies(lexicons.valence, "zzz", "positive")
        assert word_qualifies(lexicons.pattern, "great", "positive")
        assert not word_qualifies(lexicons.pattern, "very", "positive")
        assert word_qualifies(lexicons.synset, "good", "positive")
        assert word_qualifies(lexicons.synset, "kill", "negative")
        # rank-1 sense of "estimable" as tagged (adj) is positive
        assert word_qualifies(lexicons.synset, "estimable", "positive")


def test_label_comment_carries_engine_and_label():
    item = label_comment("c9", pscore(-0.4), epsilon=0.0)
    assert item == LabeledComment("c9", ENGINE_PATTERN, pscore(-0.4), "negative")


def test_top_words_unknown_comment_id_rejected(lexicons):
    labeled = [LabeledComment("ghost", ENGINE_VALENCE, vscore(0.5), "positive")]
    with pytest.raises(ValueError):
        top_words([], labeled, lexicons.valence, ENGINE_VALENCE, "positive")


def test_histogram_single_bin():
    hist = subjectivity_histogram([pscore(0.0, v) for v in (0.0, 0.4, 1.0)],
                                  bin_count=1)
    assert hist.bin_edges == (0.0, 1.0)
    assert hist.counts == (3,)


def test_histogram_invalid_bin_count():
    with pytest.raises(ValueError):
        subjectivity_histogram([], bin_count=0)


def test_top_words_invalid_side_and_n(lexicons):
    with pytest.raises(ValueError):
        top_words([], [], lexicons.valence, ENGINE_VALENCE, "sideways")
    with pytest.raises(ValueError):
        top_words([], [], lexicons.valence, ENGINE_VALENCE, "positive", n=0)


def _occurrence_qualifies(lexicon, word, side):
    """word_qualifies as it was written before the single sign rule."""
    if isinstance(lexicon, ValenceLexicon):
        value = lexicon._valence.get(word)
        if value is None:
            return False
        return value > 0 if side == POSITIVE else value < 0
    if isinstance(lexicon, PatternLexicon):
        entry = lexicon._pattern.get(word)
        if entry is None:
            return False
        return entry.polarity > 0 if side == POSITIVE else entry.polarity < 0
    (_, tag), = tag_pos([word])
    senses = lexicon._synsets.get((word, tag))
    if not senses:
        return False
    diff = senses[0].pos_score - senses[0].neg_score
    return diff > 0 if side == POSITIVE else diff < 0


def _occurrence_top_words(documents, labeled, lexicon, engine, side, n):
    """top_words as it was written before counting came first: one
    qualification test per token occurrence."""
    tokens_by_id = {doc.comment_id: doc.tokens for doc in documents}
    counts = {}
    for item in labeled:
        if item.label != side:
            continue
        for token in tokens_by_id[item.comment_id]:
            if _occurrence_qualifies(lexicon, token, side):
                counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ranked[:n])


def _ranking_words():
    """Token strategy: lexicon words, synset lemmas, words that tag_pos tags
    by their suffix, and pseudo-words, each drawn as often as the others."""
    lexicons = load_lexicon_set()
    lexicon_words = sorted(set(lexicons.valence._valence) | set(lexicons.pattern._pattern))
    lemmas = sorted({lemma for lemma, _ in lexicons.synset._synsets})
    inflected = [word + suffix for word in (lexicon_words + lemmas)[::7]
                 for suffix in ("ly", "ing", "ed", "ous")]
    pseudo = [f"zq{i}x" for i in range(40)]
    return st.one_of(*map(st.sampled_from, (lexicon_words, lemmas, inflected, pseudo)))


def _doc(cid, tokens):
    return CleanedDocument(cid, " ".join(tokens), tuple(tokens), None)


# built by position, as a caller outside the loader would; "zqxly" (tagged
# adv by its suffix) and "kill" (verb in the POS table) are lemmas only under
# a tag that tag_pos never gives them, so they can never match
_CUSTOM_SYNSET = SynsetLexicon({
    ("zqxly", "noun"): (SynsetEntry(0.5, 0.0, 1),),
    ("kill", "noun"): (SynsetEntry(0.0, 0.75, 1),),
    ("breeze", "noun"): (SynsetEntry(0.25, 0.0, 1), SynsetEntry(0.0, 0.5, 2)),
    ("good", "adj"): (SynsetEntry(0.625, 0.0, 1),),
})
# an intensifier with a polarity of its own ("zqxly"), intensifiers with none,
# and a word whose polarity is zero ("breeze"): each is a lexicon word
_CUSTOM_PATTERN = PatternLexicon({
    "zqxly": PatternEntry(-0.5, 0.75, True, 1.5),
    "very": PatternEntry(0.0, 0.0, True, 1.3),
    "utterly": PatternEntry(0.0, 0.0, True, 2.0),
    "breeze": PatternEntry(0.0, 0.25),
    "good": PatternEntry(0.75, 0.5),
})
_CUSTOM_VALENCE = ValenceLexicon({
    "breeze": 1.5, "kill": -3.0, "zqxly": 0.0, "very": 0.5})
_CUSTOM_LEXICONS = LexiconSet(_CUSTOM_VALENCE, _CUSTOM_PATTERN, _CUSTOM_SYNSET)
_custom_words = ["zqxly", "kill", "breeze", "good", "zqx", "very", "utterly"]
_gate_words = st.one_of(_ranking_words(), st.sampled_from(_custom_words))


@given(docs=st.lists(st.lists(_gate_words, max_size=12)
                     .map(lambda words: words + words[:2]), max_size=15),
       labels=st.lists(st.sampled_from(LABELS), min_size=15, max_size=15),
       n=st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_top_words_matches_per_occurrence_ranking(lexicons, docs, labels, n):
    documents = [_doc(f"c{i}", tokens) for i, tokens in enumerate(docs)]
    for lexicon_set, engine in itertools.product((lexicons, _CUSTOM_LEXICONS), ENGINES):
        lexicon = getattr(lexicon_set, ENGINE_LEXICONS[engine].kind)
        labeled = [LabeledComment(doc.comment_id, engine, vscore(0.0), lab)
                   for doc, lab in zip(documents, labels)]
        for side in (POSITIVE, NEGATIVE):
            ranking = top_words(documents, labeled, lexicon, engine, side, n)
            assert ranking.entries == _occurrence_top_words(
                documents, labeled, lexicon, engine, side, n)


def test_top_words_tests_each_distinct_word_once(lexicons, monkeypatch):
    calls = Counter()

    def counting(lexicon, word, side):
        calls[word] += 1
        return _occurrence_qualifies(lexicon, word, side)

    monkeypatch.setattr(analytics, "word_qualifies", counting)
    documents = [_doc("a", ["good", "good", "zzz", "good"]),
                 _doc("b", ["zzz", "great", "good"]),
                 _doc("c", ["terrible", "terrible"])]
    labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.5), POSITIVE),
               LabeledComment("b", ENGINE_VALENCE, vscore(0.5), POSITIVE),
               LabeledComment("c", ENGINE_VALENCE, vscore(-0.5), NEGATIVE)]
    ranking = top_words(documents, labeled, lexicons.valence, ENGINE_VALENCE, POSITIVE)
    assert ranking.entries == (("good", 4), ("great", 1))
    assert calls and max(calls.values()) == 1
    assert set(calls) <= {"good", "zzz", "great"}


def _lexicon_words(lexicon):
    if isinstance(lexicon, ValenceLexicon):
        return set(lexicon._valence)
    if isinstance(lexicon, PatternLexicon):
        return set(lexicon._pattern)
    return {lemma for lemma, _ in lexicon._synsets}


def test_top_words_tests_only_lexicon_words(lexicons, monkeypatch):
    calls = Counter()

    def counting(lexicon, word, side):
        calls[word] += 1
        return _occurrence_qualifies(lexicon, word, side)

    monkeypatch.setattr(analytics, "word_qualifies", counting)
    documents = [_doc("a", ["good", "zzz", "breeze", "zqxly", "kill", "zzz", "good"]),
                 _doc("b", ["zzz", "kill", "very", "zqx", "terrible", "utterly"])]
    for lexicon_set, engine in itertools.product((lexicons, _CUSTOM_LEXICONS), ENGINES):
        lexicon = getattr(lexicon_set, ENGINE_LEXICONS[engine].kind)
        labeled = [LabeledComment("a", engine, vscore(0.0), POSITIVE),
                   LabeledComment("b", engine, vscore(0.0), NEGATIVE)]
        for side, doc in ((POSITIVE, documents[0]), (NEGATIVE, documents[1])):
            calls.clear()
            ranking = top_words(documents, labeled, lexicon, engine, side)
            assert ranking.entries == _occurrence_top_words(
                documents, labeled, lexicon, engine, side, 30)
            assert set(calls) == set(doc.tokens) & _lexicon_words(lexicon)
            assert "zzz" not in calls and max(calls.values(), default=1) == 1


def _top_words_peak_bytes(lexicons, distinct):
    """Peak bytes traced while top_words ranks 200 comments of 250 tokens:
    ``distinct`` fresh non-lexicon words in turn, plus a few lexicon words."""
    fresh = [f"zq{i}x" for i in range(distinct)]
    documents = [_doc(f"c{d}", ["good", "terrible", "great"]
                      + [fresh[(d * 247 + t) % distinct] for t in range(247)])
                 for d in range(200)]
    peaks = []
    for engine in ENGINES:
        lexicon = getattr(lexicons, ENGINE_LEXICONS[engine].kind)
        labeled = [LabeledComment(doc.comment_id, engine, vscore(0.5), POSITIVE)
                   for doc in documents]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            ranking = top_words(documents, labeled, lexicon, engine, POSITIVE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranking.entries and all(count == 200 for _, count in ranking.entries)
        peaks.append(peak - before)
    return peaks


def test_top_words_memory_does_not_grow_with_non_lexicon_words(lexicons):
    # only lexicon words can rank, so only they are counted: 50,000 distinct
    # fresh words cost no more than 2,000 (a Counter of every token would
    # hold 50,000 entries, over 2 MB)
    small = _top_words_peak_bytes(lexicons, 2_000)
    large = _top_words_peak_bytes(lexicons, 50_000)
    for engine, small_peak, large_peak in zip(ENGINES, small, large):
        assert large_peak < small_peak + 64 * 1024, (engine, small_peak, large_peak)


def test_top_words_repeated_document_id_rejected(lexicons):
    # each duplicate's label used to count the last duplicate's tokens
    texts = ("good great wonderful day", "terrible awful horrible day")
    collection = CommentCollection(tuple(Comment(id="c1", text=t) for t in texts), "dup.jsonl")
    config = RunConfig(input_path=Path("dup.jsonl"), input_format="jsonl",
                       out_dir=Path("unused"))
    with pytest.raises(ValueError, match="repeated document id 'c1'"):
        analyze_collection(collection, lexicons, default_config(), config)
    documents = [_doc("c0", ["good"]), _doc("c1", ["good"]), _doc("c1", ["terrible"])]
    labeled = [LabeledComment("c1", ENGINE_VALENCE, vscore(-0.5), NEGATIVE)]
    with pytest.raises(ValueError, match="repeated document id 'c1'"):
        top_words(documents, labeled, lexicons.valence, ENGINE_VALENCE, NEGATIVE)
    # a repeated labeled id used to count its document's tokens once per repeat
    documents = [_doc("a", ["good", "day"])]
    labeled = [LabeledComment("a", ENGINE_VALENCE, vscore(0.5), POSITIVE)] * 2
    with pytest.raises(ValueError, match="repeated labeled id 'a'"):
        top_words(documents, labeled, lexicons.valence, ENGINE_VALENCE, POSITIVE)


def test_custom_synset_lexicon_derives_its_lemmas():
    assert _CUSTOM_SYNSET.lemmas == {"zqxly", "kill", "breeze", "good"}


@pytest.mark.parametrize("disambiguation", [DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE])
@given(tokens=st.lists(_gate_words, max_size=20))
@settings(max_examples=150, deadline=None)
def test_score_all_tags_only_lemmas_with_the_same_synset_score(lexicons, disambiguation,
                                                                tokens):
    doc = _doc("c", tokens)
    custom = LexiconSet(lexicons.valence, lexicons.pattern, _CUSTOM_SYNSET)
    for lexicon_set in (lexicons, custom):
        scores = score_all(doc, lexicon_set, disambiguation=disambiguation)
        assert scores.synset == score_synset(tag_pos(doc.tokens), lexicon_set.synset,
                                             disambiguation)


@given(word=_gate_words)
@settings(max_examples=200, deadline=None)
def test_word_qualifies_lemma_gate_matches_reference(lexicons, word):
    for lexicon in (lexicons.synset, _CUSTOM_SYNSET):
        for side in (POSITIVE, NEGATIVE):
            assert word_qualifies(lexicon, word, side) == \
                _occurrence_qualifies(lexicon, word, side)
