"""Sign-based polarity labeling and corpus-level analytics.

Labeling classifies the polarity value by sign: strictly positive scores
are positive, exact zero is neutral, the rest negative. A configurable
epsilon widens the neutral band (default 0, the exact sign rule).

Aggregations are pure and associative: distributions computed on corpus
shards and merged equal the whole-corpus distribution.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .engines import ENGINE_LEXICONS, ENGINES, SentimentScore, tag_pos
from .lexicons import (AnyLexicon, PatternLexicon, SynsetLexicon, ValenceLexicon,
                       require_kind)
from .preprocess import CleanedDocument

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
LABELS = (NEGATIVE, NEUTRAL, POSITIVE)


def label_polarity(phi: float, epsilon: float = 0.0) -> str:
    if not 0 <= epsilon < math.inf:  # False for NaN too
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    if phi > epsilon:
        return POSITIVE
    if abs(phi) <= epsilon:
        return NEUTRAL
    return NEGATIVE


def label(score: SentimentScore, epsilon: float = 0.0) -> str:
    return label_polarity(score.polarity, epsilon)


class LabeledComment(NamedTuple):
    comment_id: str
    engine: str
    score: SentimentScore
    label: str


def label_comment(comment_id: str, score: SentimentScore,
                  epsilon: float = 0.0) -> LabeledComment:
    return LabeledComment(comment_id, score.engine, score, label(score, epsilon))


class DistributionReport(NamedTuple):
    engine: str
    counts: Mapping[str, int]
    proportions: Mapping[str, float]


def _distribution_from_counts(engine: str, counts: dict[str, int]) -> DistributionReport:
    total = counts[NEGATIVE] + counts[NEUTRAL] + counts[POSITIVE]
    if total == 0:
        proportions = {lab: 0.0 for lab in LABELS}
    else:
        proportions = {lab: counts[lab] / total for lab in LABELS}
    return DistributionReport(engine, dict(counts), proportions)


def distribution(labeled: Sequence[LabeledComment], engine: str) -> DistributionReport:
    counts = {lab: 0 for lab in LABELS}
    for item in labeled:
        if item.engine != engine:
            raise ValueError(f"expected {engine} entries, got {item.engine}")
        counts[item.label] += 1
    return _distribution_from_counts(engine, counts)


def merge_distributions(reports: Sequence[DistributionReport]) -> DistributionReport:
    if not reports:
        raise ValueError("cannot merge zero distribution reports")
    engine = reports[0].engine
    counts = {lab: 0 for lab in LABELS}
    for report in reports:
        if report.engine != engine:
            raise ValueError(f"expected {engine} entries, got {report.engine}")
        for lab in LABELS:
            counts[lab] += report.counts.get(lab, 0)
    return _distribution_from_counts(engine, counts)


class SubjectivityHistogram(NamedTuple):
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float | None
    median: float | None


def subjectivity_histogram(scores: Sequence[SentimentScore],
                           bin_count: int = 10) -> SubjectivityHistogram:
    """Uniform bins over [0, 1]. A value v joins bin k when
    bin_edges[k] < v <= bin_edges[k + 1], compared with the recorded edges,
    so a value on an interior edge joins the lower bin; 0.0 joins the first
    bin and 1.0 the last. The mean is a plain left-to-right sum, which
    builtin sum() is not from Python 3.12 on."""
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    edges = tuple(i / bin_count for i in range(bin_count + 1))
    counts = [0] * bin_count
    values = []
    total = 0.0
    for score in scores:
        v = score.subjectivity
        if v is None:
            raise ValueError(f"score from engine {score.engine!r} has no subjectivity")
        values.append(v)
        total += v
        counts[min(max(bisect_left(edges, v) - 1, 0), bin_count - 1)] += 1
    if values:
        mean = total / len(values)
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2
    else:
        mean = None
        median = None
    return SubjectivityHistogram(edges, tuple(counts), mean, median)


class WordRanking(NamedTuple):
    entries: tuple[tuple[str, int], ...]


def word_qualifies(lexicon: AnyLexicon, word: str, side: str) -> bool:
    """Sign test under the lexicon of the engine that labeled the comment:
    valence > 0 / pattern polarity > 0 / top-ranked sense pos - neg > 0 for
    the positive side, the strict mirror for the negative side."""
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError(f"side must be positive or negative, got {side!r}")
    if isinstance(lexicon, ValenceLexicon):
        value = lexicon._valence.get(word)
    elif isinstance(lexicon, PatternLexicon):
        entry = lexicon._pattern.get(word)
        value = None if entry is None else entry.polarity
    else:
        require_kind(lexicon, SynsetLexicon)
        value = None
        if word in lexicon.lemmas:
            (_, tag), = tag_pos([word])
            senses = lexicon._synsets.get((word, tag))
            if senses:
                value = senses[0].pos_score - senses[0].neg_score
    return value is not None and (value > 0 if side == POSITIVE else value < 0)


def top_words(documents: Sequence[CleanedDocument],
              labeled: Sequence[LabeledComment],
              lexicon: AnyLexicon, engine: str, side: str,
              n: int = 30) -> WordRanking:
    """The n most frequent side-qualifying words over the comments the
    engine labeled with that side; every token occurrence counts. Whether a
    word qualifies depends on the word alone, and a word outside the
    lexicon never does, so only lexicon words are counted, and each counted
    word is tested once. Ties break by ascending word order for
    reproducibility. Document ids and labeled ids must each be distinct, and
    every labeled id must name a document."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine: {engine!r}")
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError(f"side must be positive or negative, got {side!r}")
    require_kind(lexicon, ENGINE_LEXICONS[engine])
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens_by_id = {doc.comment_id: doc.tokens for doc in documents}
    if len(tokens_by_id) < len(documents):
        (repeated, _), = Counter(doc.comment_id for doc in documents).most_common(1)
        raise ValueError(f"repeated document id {repeated!r}")
    if len({item.comment_id for item in labeled}) < len(labeled):
        (repeated, _), = Counter(item.comment_id for item in labeled).most_common(1)
        raise ValueError(f"repeated labeled id {repeated!r}")
    selected = []
    for item in labeled:
        if item.engine != engine:
            raise ValueError(f"expected {engine} entries, got {item.engine}")
        if item.label != side:
            continue
        try:
            selected.append(tokens_by_id[item.comment_id])
        except KeyError:
            raise ValueError(f"no document for labeled comment {item.comment_id!r}") from None
    # a dict's or frozenset's own __contains__, which calls faster than a
    # keys view's
    if isinstance(lexicon, ValenceLexicon):
        vocabulary = lexicon._valence
    elif isinstance(lexicon, PatternLexicon):
        vocabulary = lexicon._pattern
    else:
        vocabulary = lexicon.lemmas
    counts = Counter(filter(vocabulary.__contains__, chain.from_iterable(selected)))
    ranked = sorted(((word, count) for word, count in counts.items()
                     if word_qualifies(lexicon, word, side)),
                    key=lambda kv: (-kv[1], kv[0]))
    return WordRanking(tuple(ranked[:n]))
