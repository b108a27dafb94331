"""Three independent rule-based sentiment scorers sharing one output type.

valence_rule : per-token valences from a valence lexicon, adjusted by
               negation flip-and-damp, adjacent degree modifiers, ALL-CAPS
               emphasis and exclamation amplification (the latter two only
               when raw text is supplied), contrast-clause weighting around
               "but", then normalized to a compound via s/sqrt(s^2 + alpha).
               One pass in token order weights each valence as it is made
               and adds it to the sum and the pos/neu/neg masses, with the
               same float operations in the same order as a pass per step.
pattern_avg  : mean polarity and subjectivity over matched pattern entries;
               intensifier entries multiply the next matched word, negation
               within a 3-token window damps it by -0.5.
synset       : POS-aware sense lookup; first_sense scores the top-ranked
               sense, average_senses the rank-weighted mean; the result is
               the mean contribution over matched tokens.

All scorers are pure functions of (input, lexicon). They return
exactly 0.0 polarity for zero-signal input by construction, never by
rounding, because the labeling stage compares against zero.

Pipeline modes: the default "paper_faithful" mode feeds the valence engine
cleaned tokens only, which leaves its caps/punctuation heuristics inert;
"engine_native" additionally hands it the raw comment text.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping, NamedTuple, Sequence

from .lexicons import (
    DEFAULT_POS_TABLE_PATH,
    LexiconSet,
    PatternLexicon,
    SynsetLexicon,
    ValenceLexicon,
    load_table,
    normalize_piece,
    require_kind,
)
from .preprocess import CleanedDocument

ENGINE_VALENCE = "valence_rule"
ENGINE_PATTERN = "pattern_avg"
ENGINE_SYNSET = "synset"
# lexicon type each engine scores with; its ``kind`` names the LexiconSet
# field, and the key order is the report order of the engines
ENGINE_LEXICONS = {
    ENGINE_PATTERN: PatternLexicon,
    ENGINE_SYNSET: SynsetLexicon,
    ENGINE_VALENCE: ValenceLexicon,
}
ENGINES = tuple(ENGINE_LEXICONS)

MODE_PAPER = "paper_faithful"
MODE_NATIVE = "engine_native"
PIPELINE_MODES = (MODE_PAPER, MODE_NATIVE)

DISAMBIGUATION_FIRST = "first_sense"
DISAMBIGUATION_AVERAGE = "average_senses"
DISAMBIGUATIONS = (DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE)

# closed modifier vocabularies; punctuation stripping mangles contractions,
# hence the bare "nt" form
NEGATION_WORDS = frozenset({"not", "no", "never", "nt", "neither", "nor", "cannot"})
AMPLIFIERS = frozenset({
    "very", "really", "extremely", "absolutely", "incredibly", "totally",
    "completely", "utterly", "truly", "deeply", "especially", "particularly",
    "remarkably", "exceptionally", "hugely", "enormously", "insanely",
    "super", "so", "too", "much",
})
DAMPENERS = frozenset({
    "slightly", "somewhat", "barely", "hardly", "marginally", "scarcely",
    "kinda", "sorta", "bit", "little", "rather", "fairly", "almost",
    "nearly", "partly", "moderately",
})
DEGREE_WORDS = AMPLIFIERS | DAMPENERS
MODIFIER_WORDS = NEGATION_WORDS | DEGREE_WORDS
CONTRAST_WORD = "but"

# the valence rule's stock constants; RunConfig.digest records them
VALENCE_NEGATION_WINDOW = 3
VALENCE_NEGATION_FACTOR = -0.74
BOOSTER_INCREMENT = 0.293
CAPS_INCREMENT = 0.733
EXCLAMATION_INCREMENT = 0.292
MAX_EXCLAMATIONS = 4
BUT_DISCOUNT = 0.5
BUT_BOOST = 1.5
NORMALIZATION_ALPHA = 15.0

PATTERN_NEGATION_WINDOW = 3
PATTERN_NEGATION_FACTOR = -0.5


class _ScoreFields(NamedTuple):
    engine: str
    polarity: float
    subjectivity: float | None = None
    proportions: tuple[float, float, float] | None = None  # (pos, neu, neg)


class SentimentScore(_ScoreFields):
    __slots__ = ()

    # the fields spelled out and tuple.__new__ called directly: three scores
    # are built per comment
    def __new__(cls, engine: str, polarity: float, subjectivity: float | None = None,
                proportions: tuple[float, float, float] | None = None):
        if not -1.0 <= polarity <= 1.0:
            raise ValueError(f"polarity {polarity} outside [-1, 1]")
        if subjectivity is not None and not 0.0 <= subjectivity <= 1.0:
            raise ValueError(f"subjectivity {subjectivity} outside [0, 1]")
        if proportions is not None:
            total = proportions[0] + proportions[1] + proportions[2]
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"proportions sum {total} != 1")
        return tuple.__new__(cls, (engine, polarity, subjectivity, proportions))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it checks too
        return cls(*fields)


# each engine's score for input with no signal, equal to what its scorer would
# build, built once: about a quarter of scores on short comments are these
PATTERN_NO_SIGNAL = SentimentScore(ENGINE_PATTERN, 0.0, subjectivity=0.0)
SYNSET_NO_SIGNAL = SentimentScore(ENGINE_SYNSET, 0.0)
VALENCE_NO_SIGNAL = SentimentScore(ENGINE_VALENCE, 0.0, proportions=(0.0, 1.0, 0.0))


def compound_from_sum(raw_sum: float, alpha: float = NORMALIZATION_ALPHA) -> float:
    """Map an unbounded valence sum into [-1, 1]: s / sqrt(s^2 + alpha)."""
    value = raw_sum / math.sqrt(raw_sum * raw_sum + alpha)
    if value > 1.0:
        return 1.0
    if value < -1.0:
        return -1.0
    return value


def _caps_profile(raw_text: str) -> tuple[frozenset[str], bool]:
    """Words written in ALL CAPS in the raw text (lowercased, with
    punctuation deleted like the cleaning pass does), plus whether the text
    is uniformly caps, in which case emphasis carries no signal. URL pieces
    are skipped. Punctuation is uncased and no letter, so deleting it
    changes neither ``isupper()`` nor whether a piece has a letter: only an
    upper piece is normalized. An upper piece may have no letter (``Ⓐ``),
    unless it is ASCII: then its cased character is a letter A-Z, which
    normalizing keeps. Other pieces matter only until one has a letter."""
    caps_words = set()
    mixed = False
    for piece in raw_text.split():
        if piece.isupper():
            word = normalize_piece(piece)
            if word is not None and (piece.isascii() or any(c.isalpha() for c in word)):
                caps_words.add(word)
        elif not mixed and (piece.isalpha() or any(c.isalpha() for c in piece)):
            mixed = normalize_piece(piece) is not None
    return frozenset(caps_words), bool(caps_words) and not mixed


def score_valence_rule(tokens: Sequence[str], lexicon: ValenceLexicon,
                       raw_text: str | None = None) -> SentimentScore:
    require_kind(lexicon, ValenceLexicon)
    table = lexicon._valence

    caps_words: frozenset[str] = frozenset()
    all_caps = False
    if raw_text is not None:
        caps_words, all_caps = _caps_profile(raw_text)
    pivot = tokens.index(CONTRAST_WORD) if CONTRAST_WORD in tokens else -1

    s = 0.0
    pos_mass = 0.0
    neg_mass = 0.0
    neu_mass = 0.0
    last_negation = -VALENCE_NEGATION_WINDOW - 1
    for i, token in enumerate(tokens):
        base = None if token in MODIFIER_WORDS else table.get(token)
        if base is None:
            v = 0.0
        else:
            v = base
            # negation: flip and damp when a negation word sits in the window
            if i - last_negation <= VALENCE_NEGATION_WINDOW:
                v = v * VALENCE_NEGATION_FACTOR
            # adjacent run of degree modifiers, nearest first, sign-following
            j = i - 1
            while j >= 0 and tokens[j] in DEGREE_WORDS:
                if v > 0:
                    sign = 1.0
                elif v < 0:
                    sign = -1.0
                else:
                    sign = 0.0
                if tokens[j] in AMPLIFIERS:
                    v = v + sign * BOOSTER_INCREMENT
                else:
                    v = v - sign * BOOSTER_INCREMENT
                j -= 1
            # ALL-CAPS emphasis only when the whole text is not shouting
            if caps_words and not all_caps and token in caps_words:
                if v > 0:
                    v = v + CAPS_INCREMENT
                elif v < 0:
                    v = v - CAPS_INCREMENT
        # contrast: the clause before the first "but" counts less, the rest more
        if pivot >= 0:
            if i < pivot:
                v = v * BUT_DISCOUNT
            elif i > pivot:
                v = v * BUT_BOOST
        s = s + v
        if v > 0:
            pos_mass = pos_mass + v
        elif v < 0:
            neg_mass = neg_mass - v
        else:
            neu_mass = neu_mass + 1.0
        if token in NEGATION_WORDS:
            last_negation = i

    # every v was a zero, so s is 0.0 and the masses are (0, n, 0)
    if pos_mass == 0.0 and neg_mass == 0.0:
        return VALENCE_NO_SIGNAL
    if raw_text is not None and s != 0.0:
        amplification = min(raw_text.count("!"), MAX_EXCLAMATIONS) \
            * EXCLAMATION_INCREMENT
        if s > 0:
            s = s + amplification
        else:
            s = s - amplification
    compound = compound_from_sum(s)

    total = pos_mass + neg_mass + neu_mass
    proportions = (pos_mass / total, neu_mass / total, neg_mass / total)
    return SentimentScore(ENGINE_VALENCE, compound, proportions=proportions)


def score_pattern_avg(tokens: Sequence[str], lexicon: PatternLexicon) -> SentimentScore:
    require_kind(lexicon, PatternLexicon)
    table = lexicon._pattern
    polarity_sum = 0.0
    subjectivity_sum = 0.0
    matched = 0
    previous = None
    last_negation = -PATTERN_NEGATION_WINDOW - 1
    for i, token in enumerate(tokens):
        entry = table.get(token)
        if entry is not None and not entry.is_intensifier:
            p = entry.polarity
            if previous is not None and previous.is_intensifier:
                p = p * previous.intensity_factor
            if i - last_negation <= PATTERN_NEGATION_WINDOW:
                p = p * PATTERN_NEGATION_FACTOR
            # per-word clamp keeps boosted words inside the polarity scale
            if p > 1.0:
                p = 1.0
            elif p < -1.0:
                p = -1.0
            polarity_sum = polarity_sum + p
            subjectivity_sum = subjectivity_sum + entry.subjectivity
            matched += 1
        # a negation word is recorded after scoring: it never negates itself
        if token in NEGATION_WORDS:
            last_negation = i
        previous = entry
    if matched == 0:
        return PATTERN_NO_SIGNAL
    return SentimentScore(ENGINE_PATTERN, polarity_sum / matched,
                          subjectivity=subjectivity_sum / matched)


def load_pos_table() -> Mapping[str, str]:
    return load_table(DEFAULT_POS_TABLE_PATH)


@cache
def _pos_table() -> Mapping[str, str]:
    # cached here, not in load_pos_table, so that a process calls it once
    return load_pos_table()


def tag_pos(tokens: Sequence[str]) -> list[tuple[str, str]]:
    """Most-frequent-tag lookup in the bundled table with suffix fallback:
    -ly adverb, -ing/-ed verb, -ous/-ful/-able adjective, noun otherwise."""
    table = _pos_table()
    tagged = []
    for token in tokens:
        tag = table.get(token)
        if tag is None:
            if token.endswith("ly"):
                tag = "adv"
            elif token.endswith("ing") or token.endswith("ed"):
                tag = "verb"
            elif token.endswith(("ous", "ful", "able")):
                tag = "adj"
            else:
                tag = "noun"
        tagged.append((token, tag))
    return tagged


def score_synset(tagged_tokens: Sequence[tuple[str, str]], lexicon: SynsetLexicon,
                 disambiguation: str = DISAMBIGUATION_FIRST) -> SentimentScore:
    require_kind(lexicon, SynsetLexicon)
    table = lexicon._synsets
    if disambiguation not in DISAMBIGUATIONS:
        raise ValueError(f"unknown disambiguation: {disambiguation!r}")
    total = 0.0
    matched = 0
    for token, tag in tagged_tokens:
        senses = table.get((token, tag))
        if not senses:
            continue
        if disambiguation == DISAMBIGUATION_FIRST:
            contribution = senses[0].pos_score - senses[0].neg_score
        else:
            numerator = 0.0
            denominator = 0.0
            for sense in senses:
                numerator = numerator + (sense.pos_score - sense.neg_score) / sense.sense_rank
                denominator = denominator + 1.0 / sense.sense_rank
            contribution = numerator / denominator
        total = total + contribution
        matched += 1
    if matched == 0:
        return SYNSET_NO_SIGNAL
    polarity = total / matched
    if polarity > 1.0:
        polarity = 1.0
    elif polarity < -1.0:
        polarity = -1.0
    return SentimentScore(ENGINE_SYNSET, polarity)


class EngineScores(NamedTuple):
    # fields in ENGINES order: scores zip against ENGINES
    pattern_avg: SentimentScore
    synset: SentimentScore
    valence_rule: SentimentScore

    def by_engine(self) -> dict[str, SentimentScore]:
        return dict(zip(ENGINES, self))


def score_all(document: CleanedDocument, lexicons: LexiconSet,
              mode: str = MODE_PAPER,
              disambiguation: str = DISAMBIGUATION_FIRST) -> EngineScores:
    """Run the three engines on one cleaned document. The engines never see
    each other's output; scoring order is irrelevant."""
    if document.dropped:
        raise ValueError(f"document {document.comment_id} was dropped ({document.drop_reason})")
    if mode not in PIPELINE_MODES:
        raise ValueError(f"unknown pipeline mode: {mode!r}")
    raw = document.raw_text if mode == MODE_NATIVE else None
    tokens = document.tokens
    # only synset lemmas can have senses, so only they are tagged
    lemmas = lexicons.synset.lemmas
    return EngineScores(
        pattern_avg=score_pattern_avg(tokens, lexicons.pattern),
        synset=score_synset(tag_pos([t for t in tokens if t in lemmas]),
                            lexicons.synset, disambiguation),
        valence_rule=score_valence_rule(tokens, lexicons.valence, raw_text=raw),
    )
