"""The one-pass valence and pattern engines and caps profile against
test-local copies of their earlier multi-pass versions: a list of valences
rescaled around "but" and summed in separate passes, and a negation window
re-sliced and a previous entry looked up again for every matched word.
Floats are compared by repr, so -0.0 against 0.0 counts as a difference.
Cleaning's one lemmatize per token is checked against the loop that
lemmatized to a joint fixpoint, ``lemmatize`` against the walk that keeps a
``seen`` set from its first step, and the suffix rules against their
chain. Lemma tables are drawn from those that load: every lemma final."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windsent.engines import (
    AMPLIFIERS,
    BOOSTER_INCREMENT,
    BUT_BOOST,
    BUT_DISCOUNT,
    CAPS_INCREMENT,
    CONTRAST_WORD,
    DAMPENERS,
    DEGREE_WORDS,
    ENGINE_PATTERN,
    ENGINE_VALENCE,
    EXCLAMATION_INCREMENT,
    MAX_EXCLAMATIONS,
    MODIFIER_WORDS,
    NEGATION_WORDS,
    PATTERN_NEGATION_FACTOR,
    PATTERN_NEGATION_WINDOW,
    VALENCE_NEGATION_FACTOR,
    VALENCE_NEGATION_WINDOW,
    SentimentScore,
    _caps_profile,
    compound_from_sum,
    score_pattern_avg,
    score_valence_rule,
)
from windsent.lexicons import (
    DELETE_PUNCTUATION,
    PUNCTUATION,
    URL_PREFIXES,
    MalformedEntryError,
    PatternEntry,
    PatternLexicon,
    ValenceLexicon,
    load_lemmas,
    load_lexicon_set,
    suffix_lemma,
)
from windsent.preprocess import (
    PreprocessConfig,
    default_config,
    lemmatize,
    preprocess_text,
)

from test_preprocess import mixed_texts


def multipass_caps_profile(raw_text):
    cased = []
    for piece in raw_text.split():
        if piece.lower().startswith(URL_PREFIXES):
            continue
        cleaned = piece.translate(DELETE_PUNCTUATION)
        if cleaned and any(c.isalpha() for c in cleaned):
            cased.append(cleaned)
    upper = [w for w in cased if w.isupper()]
    all_caps = bool(cased) and len(upper) == len(cased)
    return frozenset(w.lower() for w in upper), all_caps


def multipass_valence_rule(tokens, lexicon, raw_text=None):
    table = lexicon._valence
    caps_words = frozenset()
    all_caps = False
    if raw_text is not None:
        caps_words, all_caps = multipass_caps_profile(raw_text)
    valences = []
    for i, token in enumerate(tokens):
        if token in MODIFIER_WORDS:
            valences.append(0.0)
            continue
        base = table.get(token)
        if base is None:
            valences.append(0.0)
            continue
        v = base
        lo = i - VALENCE_NEGATION_WINDOW
        if lo < 0:
            lo = 0
        if any(t in NEGATION_WORDS for t in tokens[lo:i]):
            v = v * VALENCE_NEGATION_FACTOR
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
        if caps_words and not all_caps and token in caps_words:
            if v > 0:
                v = v + CAPS_INCREMENT
            elif v < 0:
                v = v - CAPS_INCREMENT
        valences.append(v)
    if CONTRAST_WORD in tokens:
        pivot = list(tokens).index(CONTRAST_WORD)
        for k in range(len(valences)):
            if k < pivot:
                valences[k] = valences[k] * BUT_DISCOUNT
            elif k > pivot:
                valences[k] = valences[k] * BUT_BOOST
    s = 0.0
    for v in valences:
        s = s + v
    if raw_text is not None and s != 0.0:
        amplification = min(raw_text.count("!"), MAX_EXCLAMATIONS) * EXCLAMATION_INCREMENT
        if s > 0:
            s = s + amplification
        else:
            s = s - amplification
    compound = compound_from_sum(s)
    pos_mass = 0.0
    neg_mass = 0.0
    neu_mass = 0.0
    for v in valences:
        if v > 0:
            pos_mass = pos_mass + v
        elif v < 0:
            neg_mass = neg_mass - v
        else:
            neu_mass = neu_mass + 1.0
    total = pos_mass + neg_mass + neu_mass
    if total == 0.0:
        proportions = (0.0, 1.0, 0.0)
    else:
        proportions = (pos_mass / total, neu_mass / total, neg_mass / total)
    return SentimentScore(ENGINE_VALENCE, compound, proportions=proportions)


def multipass_pattern_avg(tokens, lexicon):
    table = lexicon._pattern
    polarity_sum = 0.0
    subjectivity_sum = 0.0
    matched = 0
    for i, token in enumerate(tokens):
        entry = table.get(token)
        if entry is None or entry.is_intensifier:
            continue
        p = entry.polarity
        if i > 0:
            previous = table.get(tokens[i - 1])
            if previous is not None and previous.is_intensifier:
                p = p * previous.intensity_factor
        lo = i - PATTERN_NEGATION_WINDOW
        if lo < 0:
            lo = 0
        if any(t in NEGATION_WORDS for t in tokens[lo:i]):
            p = p * PATTERN_NEGATION_FACTOR
        if p > 1.0:
            p = 1.0
        elif p < -1.0:
            p = -1.0
        polarity_sum = polarity_sum + p
        subjectivity_sum = subjectivity_sum + entry.subjectivity
        matched += 1
    if matched == 0:
        return SentimentScore(ENGINE_PATTERN, 0.0, subjectivity=0.0)
    return SentimentScore(ENGINE_PATTERN, polarity_sum / matched,
                          subjectivity=subjectivity_sum / matched)


BUNDLED = load_lexicon_set()

# The bundled lexicons score no negation word and not "but", and hold no
# zero valence, so some paths (a weight at the pivot, a negation word
# negating itself, -0.0 from negating a zero) only show with these extras.
EXTENDED_VALENCE = ValenceLexicon({
    **BUNDLED.valence._valence, "but": 1.2, "meh": 0.0, "tiny": 1e-3})
EXTENDED_PATTERN = PatternLexicon({
    **BUNDLED.pattern._pattern,
    "but": PatternEntry(-0.2, 0.3),
    "not": PatternEntry(-0.4, 0.5),
    "never": PatternEntry(0.0, 0.0, True, 1.7),
    "meh": PatternEntry(0.0, 0.4),
})
VALENCE_LEXICONS = [BUNDLED.valence, EXTENDED_VALENCE]
PATTERN_LEXICONS = [BUNDLED.pattern, EXTENDED_PATTERN]

_valence_words = sorted(BUNDLED.valence._valence)
_pattern_words = sorted(w for w, e in BUNDLED.pattern._pattern.items() if not e.is_intensifier)
_intensifiers = sorted(w for w, e in BUNDLED.pattern._pattern.items() if e.is_intensifier)
tokens_strategy = st.lists(st.one_of(
    st.sampled_from(_valence_words),
    st.sampled_from(_pattern_words),
    st.sampled_from(_intensifiers),
    st.sampled_from(sorted(NEGATION_WORDS)),
    st.sampled_from(sorted(AMPLIFIERS)),
    st.sampled_from(sorted(DAMPENERS)),
    st.sampled_from([CONTRAST_WORD, "meh", "tiny", "wind", "zzz"]),
), max_size=16)

_SHAPES = [
    ["but", "good", "bad"],
    ["good", "bad", "but"],
    ["good", "but", "bad", "but", "great", "but"],
    ["not", "zzz", "zzz", "good"],
    ["not", "zzz", "zzz", "zzz", "good"],
    ["never", "good", "zzz", "zzz", "bad"],
    ["not", "meh", "slightly", "meh"],
    ["really", "slightly", "very", "good", "but", "hardly", "terrible"],
    ["slightly", "tiny", "very", "tiny"],
    ["very", "very", "great", "never", "not", "great"],
    ["very", "zzz", "great", "extremely", "not", "awful"],
]


@st.composite
def raw_texts(draw, tokens):
    """Raw text whose words are the tokens in a drawn case (all caps for
    the whole text half the time), some with punctuation attached, shuffled
    with up to two URLs, #tags or other pieces, and 0-6 '!' at the end."""
    shout = draw(st.booleans())
    pieces = []
    for token in tokens:
        case = str.upper if shout else draw(st.sampled_from([str.lower, str.upper, str.title]))
        pieces.append(case(token) + draw(st.sampled_from(["", "", ",", "!", "...", "'s"])))
    pieces.extend(draw(st.lists(st.sampled_from(
        ["https://example.com/WIND", "#Turbines", "WWW.SITE.ORG", "OK?", "10%"]), max_size=2)))
    pieces = draw(st.permutations(pieces))
    return " ".join(pieces) + "!" * draw(st.integers(0, 6))


def _same(actual, expected):
    assert repr(actual) == repr(expected), expected


@pytest.mark.parametrize("lexicon", VALENCE_LEXICONS, ids=["bundled", "extended"])
def test_valence_rule_shapes(lexicon):
    for tokens in _SHAPES:
        _same(score_valence_rule(tokens, lexicon), multipass_valence_rule(tokens, lexicon))
        raw = " ".join(t.upper() if i % 2 else t for i, t in enumerate(tokens)) + "!!"
        _same(score_valence_rule(tokens, lexicon, raw_text=raw),
              multipass_valence_rule(tokens, lexicon, raw_text=raw))


@pytest.mark.parametrize("lexicon", PATTERN_LEXICONS, ids=["bundled", "extended"])
def test_pattern_avg_shapes(lexicon):
    for tokens in _SHAPES:
        _same(score_pattern_avg(tokens, lexicon), multipass_pattern_avg(tokens, lexicon))


@pytest.mark.parametrize("lexicon", VALENCE_LEXICONS, ids=["bundled", "extended"])
@given(tokens=tokens_strategy)
@settings(max_examples=400, deadline=None)
def test_valence_rule_matches_multipass_without_raw_text(lexicon, tokens):
    _same(score_valence_rule(tokens, lexicon), multipass_valence_rule(tokens, lexicon))
    _same(score_valence_rule(tuple(tokens), lexicon), multipass_valence_rule(tokens, lexicon))


@pytest.mark.parametrize("lexicon", VALENCE_LEXICONS, ids=["bundled", "extended"])
@given(data=st.data(), tokens=st.one_of(tokens_strategy, st.sampled_from(_SHAPES)))
@settings(max_examples=400, deadline=None)
def test_valence_rule_matches_multipass_with_raw_text(lexicon, data, tokens):
    raw = data.draw(raw_texts(tokens))
    assert _caps_profile(raw) == multipass_caps_profile(raw)
    _same(score_valence_rule(tokens, lexicon, raw_text=raw),
          multipass_valence_rule(tokens, lexicon, raw_text=raw))


# cased but not a letter, upper with no lowercase, titlecase, lowercase with
# a two-letter upper form, uncased, pieces with no letter at all, and caps
# pieces wrapped in punctuation
_unusual_pieces = st.sampled_from(["Ⓐ", "ϒ", "ǅ", "ß", "風", "123", "?!", "GOOD", "good",
                                   "Good", "ⒶGOOD", "GOOD7", "HTTP://X.Y", "Www.Z",
                                   "#GOOD", "GOOD's", "(OK)", "!!!", "HTTP://X.Y,"])


@given(raw=st.one_of(
    st.lists(st.lists(_unusual_pieces, min_size=1, max_size=3).map("".join),
             max_size=6).map(" ".join),
    mixed_texts))
@example(raw="Ⓐ GOOD bad")
@settings(max_examples=400, deadline=None)
def test_caps_profile_matches_multipass_on_unusual_letters(raw):
    assert _caps_profile(raw) == multipass_caps_profile(raw)


def test_punctuation_is_uncased_and_no_letter():
    # _caps_profile tests a piece for upper case and for a letter before it
    # deletes punctuation, which is sound only while this holds
    for c in PUNCTUATION:
        assert c.lower() == c.upper() == c and not c.isalpha()


def test_caps_profile_needs_a_letter():
    # an upper piece with no letter is not a caps word and does not make
    # the text uniformly caps
    assert _caps_profile("Ⓐ GOOD bad") == (frozenset({"good"}), False)
    assert _caps_profile("Ⓐ 123 ?!") == (frozenset(), False)
    assert _caps_profile("Ⓐ GOOD ϒ") == (frozenset({"good", "ϒ"}), True)


@pytest.mark.parametrize("raw,expected", [
    ("GREAT!! day", (frozenset({"great"}), False)),
    ("A1 B2", (frozenset({"a1", "b2"}), True)),
    ("__X__ marks", (frozenset({"x"}), False)),
    ("HTTP://X.COM GOOD", (frozenset({"good"}), True)),
    ("HTTP://X.COM good", (frozenset(), False)),
    ("GREAT!! Ⓐ", (frozenset({"great"}), True)),
])
def test_caps_profile_of_ascii_upper_pieces(raw, expected):
    # an ASCII upper piece holds a letter A-Z, which punctuation deletion
    # keeps, so it is a caps word unless it is a URL
    assert _caps_profile(raw) == expected == multipass_caps_profile(raw)


@pytest.mark.parametrize("lexicon", PATTERN_LEXICONS, ids=["bundled", "extended"])
@given(tokens=tokens_strategy)
@settings(max_examples=400, deadline=None)
def test_pattern_avg_matches_multipass(lexicon, tokens):
    _same(score_pattern_avg(tokens, lexicon), multipass_pattern_avg(tokens, lexicon))


def joint_transform_token(token, config):
    seen = set()
    current = token
    while current not in seen:
        seen.add(current)
        candidate = current
        if config.lemma_table is not None:
            candidate = lemmatize(candidate, table=config.lemma_table)
        if candidate == current:
            return current
        current = candidate
    return current


def chained_suffix_lemma(token):
    n = len(token)
    if token.endswith("ies") and n >= 5:
        return token[:-3] + "y"
    if n >= 5 and token.endswith(("ches", "shes", "xes", "zes", "sses")):
        return token[:-2]
    if (token.endswith("s") and not token.endswith(("ss", "us", "is")) and n >= 4):
        return token[:-1]
    if token.endswith("ing") and n >= 6 and any(c in "aeiou" for c in token[:-3]):
        return token[:-3]
    if (token.endswith("ed") and not token.endswith("eed") and n >= 5
            and any(c in "aeiou" for c in token[:-2])):
        return token[:-2]
    return None


_STEMS = ["farm", "car", "cary", "box", "bus", "class", "run", "feed", "bed", "ing", "sky", "x"]
_ENDINGS = ["", "s", "es", "ies", "ses", "ing", "ed", "eed", "ss", "us", "is", "d", "g"]
_lemma_words = st.one_of(
    st.tuples(st.sampled_from(_STEMS), st.sampled_from(_ENDINGS)).map("".join),
    st.text("aeiouydgsbchxz", max_size=8),
)


def is_final(lemma, table):
    """The lemma table's load rule: a lemma is a key that maps to itself, or
    no key and a word that no suffix rule shortens."""
    return table[lemma] == lemma if lemma in table else suffix_lemma(lemma) is None


def loadable(table):
    """``table`` less each row whose lemma is not final, until every lemma is."""
    while not all(is_final(lemma, table) for lemma in table.values()):
        table = {key: lemma for key, lemma in table.items() if is_final(lemma, table)}
    return table


# small tables: self-maps and chains into the suffix rules, less the rows
# that chain on or cycle through them, which the loader refuses
_lemma_tables = st.dictionaries(_lemma_words, _lemma_words, max_size=6).map(loadable)


@given(table=st.dictionaries(_lemma_words.filter(bool), _lemma_words.filter(bool), max_size=6))
@example(table={"farm": "farms"})
@example(table={"zqing": "zqings", "zqings": "zqing"})
@example(table={"farm": "farms", "farms": "farms"})
@settings(max_examples=300, deadline=None)
def test_load_lemmas_refuses_exactly_a_lemma_that_is_not_final(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lemmas.tsv"
        path.write_text("".join(f"{key}\t{lemma}\n" for key, lemma in table.items()),
                        encoding="utf-8")
        final = [is_final(lemma, table) for lemma in table.values()]
        if all(final):
            assert load_lemmas(path) == table == loadable(table)
        else:
            with pytest.raises(MalformedEntryError, match=" is not final: ") as exc:
                load_lemmas(path)
            assert exc.value.line == final.index(False) + 1


@given(table=_lemma_tables, token=_lemma_words)
@example(table={"farm": "farms", "farms": "farms"}, token="farming")
@example(table={"cars": "carsing", "carsing": "carsing", "car": "car"}, token="carsing")
@example(table={"box": "boxed", "boxed": "boxed", "boxe": "boxed"}, token="boxes")
@settings(max_examples=1000, deadline=None)
def test_lemmatize_is_idempotent(table, token):
    once = lemmatize(token, table=table)
    assert lemmatize(once, table=table) == once


def seen_set_lemmatize(token, table):
    """The walk that keeps every token it has seen from the first step."""
    seen = set()
    current = token
    while current not in seen:
        seen.add(current)
        if current in table:
            mapped = table[current]
            if mapped == current:
                return current
            current = mapped
            continue
        reduced = suffix_lemma(current)
        if reduced is None:
            return current
        current = reduced
    return current


_INFLECTIONS = ["", "s", "es", "ies", "ing", "ings", "ed", "eds", "inged", "d", "g"]


@st.composite
def cyclic_tables(draw):
    """Distinct words split into self-maps and 2- and 3-cycles, plus a few
    onward maps, so that a walk reaches a table key after zero, one or two
    suffix steps; ``loadable`` then drops each row whose lemma is not final,
    every row of a cycle among them."""
    words = draw(st.lists(st.one_of(_lemma_words, st.sampled_from(["zqing", "zqings"])),
                          min_size=1, max_size=7, unique=True))
    table = {}
    i = 0
    while i < len(words):
        size = draw(st.integers(1, 3))
        group = words[i:i + size]
        for key, value in zip(group, group[1:] + group[:1]):
            table[key] = value
        i += size
    table.update(draw(st.dictionaries(st.sampled_from(words), _lemma_words, max_size=3)))
    return table


@given(data=st.data(), table=cyclic_tables().map(loadable).filter(bool))
@settings(max_examples=1500, deadline=None)
def test_lemmatize_matches_seen_set_walk(data, table):
    token = data.draw(st.one_of(
        st.tuples(st.sampled_from(sorted(table)), st.sampled_from(_INFLECTIONS)).map("".join),
        _lemma_words))
    assert lemmatize(token, table=table) == seen_set_lemmatize(token, table)


# each refused shape of test_lexicons' test_load_lemmas_refuses_a_lemma_that_is_not_final,
# its lemmas made final
@pytest.mark.parametrize("table", [
    {"zqing": "zqingings", "zqingings": "zqingings"},
    {"farm": "farms", "farms": "farms"}, {"farm": "farming", "farming": "farming"},
    {"zqing": "zqings", "zqings": "zqings"}, {"box": "boxed", "boxed": "boxed", "boxe": "boxed"},
    {"lens": "lens", "lenses": "lens"}, default_config().lemma_table,
], ids=["onward", "suffix-cycle", "back-to-start", "2-cycle", "chain", "lens", "bundled"])
def test_lemmatize_matches_seen_set_walk_on_every_inflection(table):
    assert loadable(table) == table
    for word in sorted(set(table) | set(table.values())):
        for ending in _INFLECTIONS:
            token = word + ending
            assert lemmatize(token, table=table) == seen_set_lemmatize(token, table)


def test_lemma_table_cycle_ends_on_a_fixpoint(tmp_path):
    # farm -> farms by the table, farms -> farm by the suffix rule: such a
    # table is refused, and with its lemma made final the walk ends on it
    path = tmp_path / "lemmas.tsv"
    path.write_text("farm\tfarms\n", encoding="utf-8")
    with pytest.raises(MalformedEntryError, match="line 1: lemma 'farms' is not final"):
        load_lemmas(path)
    path.write_text("farm\tfarms\nfarms\tfarms\n", encoding="utf-8")
    table = load_lemmas(path)
    for token in ("farming", "farm", "farms"):
        assert lemmatize(token, table=table) == "farms"


# less each row holding an empty word, which is not one clean token
@pytest.mark.parametrize("lemmatization", [True, False])
@given(table=_lemma_tables.map(lambda table: {key: lemma for key, lemma in table.items()
                                              if key and lemma}), token=_lemma_words)
@example(table={"farm": "farms", "farms": "farms"}, token="farming")
@settings(max_examples=500, deadline=None)
def test_transform_token_matches_joint_loop(lemmatization, table, token):
    config = PreprocessConfig(stopwords=frozenset(), lemma_table=table if lemmatization else None,
                              min_token_count=1)
    expected = (joint_transform_token(token, config),) if token else ()
    assert preprocess_text(token, config)[0] == expected


def test_transform_token_matches_joint_loop_on_bundled_table():
    config = default_config(min_token_count=1)._replace(stopwords=frozenset())
    words = set(config.lemma_table) | set(config.lemma_table.values())
    for word in sorted(words):
        for token in (word, word + "s", word + "ing", word + "ed", word + "es"):
            assert preprocess_text(token, config)[0] == (joint_transform_token(token, config),)


@given(token=st.one_of(_lemma_words, st.text(max_size=10)))
@settings(max_examples=1000, deadline=None)
def test_suffix_lemma_matches_chained_rules(token):
    assert suffix_lemma(token) == chained_suffix_lemma(token)
