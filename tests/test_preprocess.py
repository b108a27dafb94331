import copy
import pickle
import string
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent import preprocess
from windsent.corpus import Comment, CommentCollection
from windsent.lexicons import PUNCTUATION, URL_PREFIXES, MalformedEntryError, load_lemmas
from windsent.preprocess import (
    MEMO_CAP,
    CleanedDocument,
    PreprocessConfig,
    default_config,
    lemmatize,
    normalize,
    preprocess_corpus,
    preprocess_text,
)


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        ("Check THIS out!! https://x.co #wind", "check this out wind"),
        ("", ""),
        ("#Turbines, #turbines", "turbines turbines"),
        ("visit www.example.com now", "visit now"),
        ("HTTP://CAPS.example gone", "gone"),  # URL match happens after lowercasing
        ("don't stop", "dont stop"),
        ("a\tb\n c", "a b c"),
    ])
    def test_examples(self, raw, expected):
        assert normalize(raw) == expected


def _split_only(stopwords=frozenset()):
    # no lemmatization and no length threshold: only the split and
    # the stopword filter act
    return PreprocessConfig(stopwords=stopwords, lemma_table=None, min_token_count=1)


class TestTokenize:
    def test_basic(self):
        assert preprocess_text("offshore wind energy", _split_only()) \
            == (("offshore", "wind", "energy"), None)

    def test_empty(self):
        assert preprocess_text("", _split_only()) == ((), "null")

    def test_double_space(self):
        assert preprocess_text("a  b", _split_only()) == (("a", "b"), None)


class TestStopwords:
    def test_default_list(self):
        config = default_config(min_token_count=1)
        assert preprocess_text("the wind is clean", config) == (("wind", "clean"), None)

    def test_rewritten_file_is_read_again(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nwind\n", encoding="utf-8")
        config = default_config(stop, min_token_count=1)
        assert preprocess_text("the wind farm", config) == (("farm",), None)
        stop.write_text("the\n", encoding="utf-8")
        config = default_config(stop, min_token_count=1)
        assert preprocess_text("the wind farm", config) == (("wind", "farm"), None)

    def test_configs_share_no_lemma_table(self):
        assert default_config().lemma_table is not default_config().lemma_table

    def test_empty_token_list(self):
        assert preprocess_text("the", _split_only(frozenset({"the"}))) == ((), "too_short")

    def test_empty_stopword_list_is_identity(self):
        assert preprocess_text("wind", _split_only()) == (("wind",), None)


class TestLemmatize:
    @pytest.mark.parametrize("token,lemma", [
        ("turbines", "turbine"),
        ("wind", "wind"),
        ("running", "run"),
        ("energies", "energy"),
        ("whales", "whale"),
        ("killing", "killing"),   # protected gerund
        ("healthier", "healthy"),
        ("beaches", "beach"),
        ("boxes", "box"),
        ("classes", "class"),
        ("lies", "lie"),
        ("destroying", "destroy"),
        ("walked", "walk"),
        ("zzzq", "zzzq"),          # unknown token passes through
    ])
    def test_examples(self, token, lemma):
        assert lemmatize(token, table=default_config().lemma_table) == lemma

    def test_output_is_fixpoint(self):
        config = default_config()
        for token in ("runnings", "turbines", "energies", "killings", "thes"):
            once = lemmatize(token, table=config.lemma_table)
            assert lemmatize(once, table=config.lemma_table) == once


class TestPreprocessCorpus:
    def run_one(self, text, **overrides):
        config = default_config(**overrides)
        collection = CommentCollection((Comment(id="x", text=text),), "mem")
        return preprocess_corpus(collection, config)[0]

    def test_null_text_dropped(self):
        doc = self.run_one("   ")
        assert doc.dropped and doc.drop_reason == "null"
        assert doc.tokens == ()

    def test_all_stopwords_dropped_too_short(self):
        doc = self.run_one("The and a")
        assert doc.dropped and doc.drop_reason == "too_short"

    def test_full_pipeline_example(self):
        doc = self.run_one("Offshore wind turbines are killing whales!!")
        assert not doc.dropped
        assert doc.tokens == ("offshore", "wind", "turbine", "killing", "whale")

    def test_one_document_per_comment_in_order(self):
        comments = tuple(Comment(id=f"c{i}", text=t) for i, t in
                         enumerate(["good wind energy", "", "ok"]))
        docs = preprocess_corpus(CommentCollection(comments, "mem"), default_config())
        assert [d.comment_id for d in docs] == ["c0", "c1", "c2"]
        assert [d.dropped for d in docs] == [False, True, True]

    def test_min_token_count_respected(self):
        doc = self.run_one("clean energy", min_token_count=2)
        assert not doc.dropped
        doc = self.run_one("clean energy", min_token_count=3)
        assert doc.drop_reason == "too_short"

    def test_lemma_landing_on_stopword_is_filtered(self):
        # "ours" lemmatizes to the stopword "our" and must not survive
        doc = self.run_one("ours turbines kill whales")
        assert "our" not in doc.tokens
        assert "ours" not in doc.tokens


def _token_chars():
    return st.text(
        alphabet=string.ascii_lowercase + string.ascii_uppercase + string.digits
        + "!#',.:?@-_" + "éó\U0001f642",
        min_size=1, max_size=12)


comment_texts = st.lists(
    st.one_of(
        _token_chars(),
        st.sampled_from([
            "https://x.co/a", "www.example.com", "#Wind", "DON'T", "not",
            "very", "good", "terrible", "the", "turbines", "running", "ours",
            "thes", "!!", "10%",
        ]),
    ),
    min_size=0, max_size=12,
).map(" ".join)


class TestPipelineProperties:
    @given(comment_texts)
    @settings(max_examples=300, deadline=None)
    def test_idempotence(self, text):
        config = default_config()
        first, reason1 = preprocess_text(text, config)
        again, reason2 = preprocess_text(" ".join(first), config)
        assert again == first
        if reason1 is None:
            assert reason2 is None

    @given(comment_texts)
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_clean(self, text):
        config = default_config()
        tokens, reason = preprocess_text(text, config)
        for token in tokens:
            assert token
            assert token == token.lower()
            assert not any(c in PUNCTUATION for c in token)
            assert not token.startswith(("http://", "https://", "www."))
            assert token not in config.stopwords
        if reason is None:
            assert len(tokens) >= config.min_token_count

    @given(comment_texts)
    @settings(max_examples=200, deadline=None)
    def test_monotone_shrinkage(self, text):
        config = default_config()
        normalized = normalize(text).split()
        after_stop = [t for t in normalized if t not in config.stopwords]
        tokens, _ = preprocess_text(text, config)
        assert len(after_stop) <= len(normalized)
        assert len(tokens) <= len(after_stop)


# The per-character punctuation deletion cleaning used before it shared one
# translate table with the caps profile; the table must delete exactly the same.
def _generator_normalize(text):
    text = text.lower()
    kept = [piece for piece in text.split() if not piece.startswith(URL_PREFIXES)]
    text = " ".join(kept)
    text = "".join(c for c in text if c not in PUNCTUATION)
    return " ".join(text.split())


# Cleaning works piece by piece on the raw text; the reference below cleans
# the whole-text normalization instead. The alphabet holds what could make the
# two differ: every whitespace character str.split knows, the Greek sigmas
# (whose lower case depends on the letters around them), case-ignorable marks,
# letters whose lower case grows ("İ"), non-ASCII letters and digits that are
# alphanumeric, ASCII punctuation, and the letters of upper-case URL prefixes.
_WHITESPACE = "".join(chr(i) for i in range(0x110000) if chr(i).isspace())
_ADVERSARIAL = (_WHITESPACE + "\u03a3\u03c3\u03c2\u039f\u0394\u0391" + "\u0307\u0345\u00ad\u200b'\u2019:."
                + "İıẞßǅﬁÉé½²٣x1" + "!#%-_/\"" + "HTPSWhtpsw")
_adversarial_pieces = st.one_of(
    st.text(_ADVERSARIAL, min_size=1, max_size=8),
    st.sampled_from(["HTTP://X.COM", "WWW.", "Www.Wind", "hTtPs://a", "ΟΔΟΣ", "ΣΑΣ!",
                     "!!!", "#", "...", "İstanbul", "ÉOLIENNE", "½", "٣٣", "turbines",
                     "Running", "ours", "THE"]),
)
_adversarial_texts = st.lists(_adversarial_pieces, max_size=10).map(
    lambda pieces: "".join(pieces))
_adversarial_spaced = st.lists(st.tuples(_adversarial_pieces, st.sampled_from(_WHITESPACE)),
                               max_size=10).map(
    lambda parts: "".join(piece + space for piece, space in parts))


def _multipass_preprocess_text(text, config):
    # the four list passes preprocess_text made before it became one loop,
    # over the whole-text normalization
    if text is None or not text.strip():
        return (), "null"
    tokens = _generator_normalize(text).split()
    tokens = [t for t in tokens if t not in config.stopwords]
    if config.lemma_table is not None:
        tokens = [lemmatize(t, config.lemma_table) for t in tokens]
    tokens = [t for t in tokens if t not in config.stopwords]
    if len(tokens) < config.min_token_count:
        return tuple(tokens), "too_short"
    return tuple(tokens), None


# the middle case puts the lemma "our" of "ours" among the stopwords, so the
# stopword test after lemmatizing drops a word the first one kept
@pytest.mark.parametrize("overrides", [{}, {"stopwords": frozenset({"our", "the", "turbine"})},
                                       {"lemma_table": None, "min_token_count": 1}])
@given(text=st.one_of(comment_texts, st.none()))
@settings(max_examples=200, deadline=None)
def test_preprocess_text_matches_multipass(overrides, text):
    config = default_config()._replace(**overrides)
    assert preprocess_text(text, config) == _multipass_preprocess_text(text, config)


# words that repeat within and across comments: inflections, a lemma that
# lands on a stopword, stopwords, caps, punctuation and a URL, plus numbered
# pseudo-words, so that a corpus holds more distinct words than the cap
_memo_words = st.one_of(
    st.sampled_from(["Turbines", "turbine", "running", "ours", "OUR", "the",
                     "relational", "energies", "whales!!", "don't", "#Wind",
                     "https://x.co/a", "killed", "greatly", "thes", "10%"]),
    st.integers(min_value=0, max_value=60).map(lambda i: f"zq{i}ings"),
)
_memo_corpora = st.lists(st.one_of(st.lists(_memo_words, max_size=10).map(" ".join),
                                   _adversarial_texts, _adversarial_spaced, st.none()),
                         max_size=12)
_MEMO_TEST_CAP = 8


def _memo_sizes(collection, config):
    """Run preprocess_corpus and record the memo's size after each text."""
    sizes = []
    clean_text = preprocess._clean_text

    def recording(text, config, memo):
        result = clean_text(text, config, memo)
        sizes.append(len(memo))
        return result

    with mock.patch.object(preprocess, "_clean_text", recording):
        docs = preprocess_corpus(collection, config)
    return docs, sizes


@pytest.mark.parametrize("overrides", [
    {}, {"lemma_table": None},
    # "ours" is kept by the first stopword test and dropped only as "our"
    {"stopwords": frozenset({"our", "the", "turbine"})},
], ids=["default", "no-lemmatize", "stopword-after-lemma"])
@given(texts=_memo_corpora)
@settings(max_examples=150, deadline=None)
def test_corpus_memo_matches_per_text_reference(overrides, texts):
    config = default_config(min_token_count=2)._replace(**overrides)
    collection = CommentCollection(
        tuple(Comment(id=f"c{i}", text=t) for i, t in enumerate(texts)), "mem")
    with mock.patch.object(preprocess, "MEMO_CAP", _MEMO_TEST_CAP):
        docs, sizes = _memo_sizes(collection, config)
    assert [(d.tokens, d.drop_reason) for d in docs] == \
        [_multipass_preprocess_text(t, config) for t in texts]
    assert all(size <= _MEMO_TEST_CAP for size in sizes)


def test_memo_stops_at_the_cap():
    # twice as many distinct words as the cap, then words in three spellings,
    # which the memo keys apart; each repeated in a later comment
    spellings = (str.upper, lambda w: w.capitalize() + "!!", lambda w: "#" + w)
    words = [f"zq{i}ed" for i in range(2 * MEMO_CAP)]
    words += [spellings[i % 3](f"zq{i // 3}ings") for i in range(3 * 40)]
    texts = [" ".join(words[i:i + 50]) for i in range(0, len(words), 50)]
    texts += texts[::-1]
    collection = CommentCollection(
        tuple(Comment(id=f"c{i}", text=t) for i, t in enumerate(texts)), "mem")
    config = default_config()
    docs, sizes = _memo_sizes(collection, config)
    assert max(sizes) == MEMO_CAP
    assert [(d.tokens, d.drop_reason) for d in docs] == \
        [_multipass_preprocess_text(t, config) for t in texts]


def test_url_pieces_take_no_memo_slot():
    texts = [f"HTTPS://x.co/{i} www.{i}.org" for i in range(20)] + ["wind https://x.co/0"]
    collection = CommentCollection(
        tuple(Comment(id=f"c{i}", text=t) for i, t in enumerate(texts)), "mem")
    docs, sizes = _memo_sizes(collection, default_config(min_token_count=1))
    assert sizes == [0] * 20 + [1]
    assert docs[-1].tokens == ("wind",)


def test_config_rejects_zero_threshold():
    with pytest.raises(ValueError):
        PreprocessConfig(stopwords=frozenset(), lemma_table={}, min_token_count=0)


def test_config_fields():
    # no lemma table is no lemmatization: one field for one decision
    assert PreprocessConfig._fields == ("stopwords", "lemma_table", "min_token_count")


# hand-built tables whose cleaning is not idempotent, each refused by load_lemmas
# too: "cat" cleaned to "dog", and "dog" to "cow"; "cats" to "Dog", then "dog"
@pytest.mark.parametrize("table,reason", [
    ({"cat": "dog", "dog": "cow"}, "lemma 'dog' is not final: the table maps it to 'cow'"),
    ({"cats": "Dog"}, "not one clean token: 'Dog'"),
    ({"cats": "dog!"}, "not one clean token: 'dog!'"),
    ({"cats": "do g"}, "not one clean token: 'do g'"),
], ids=["not-final", "upper-case", "punctuation", "space"])
def test_config_refuses_a_table_that_breaks_the_lemma_table_rule(table, reason):
    message = f"^lemma_table: {reason}$"
    with pytest.raises(ValueError, match=message):
        PreprocessConfig(frozenset(), table, 1)
    with pytest.raises(ValueError, match=message):
        PreprocessConfig(frozenset(), None, 1)._replace(lemma_table=table)


def test_config_keeps_its_own_copy_of_the_lemma_table():
    # a change to the caller's dict after the check used to reach the config:
    # "cat" then cleaned to "dog", and the config no longer pickled
    table = {"cats": "cat"}
    config = PreprocessConfig(frozenset(), table, 1)
    table["cat"] = "dog"
    assert config.lemma_table == {"cats": "cat"}
    assert preprocess_text("cat cats", config) == (("cat", "cat"), None)
    for twin in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
        assert twin == config
        assert preprocess_text("cat cats", twin) == (("cat", "cat"), None)


@pytest.mark.parametrize("table", [None, "lenses\tlens\n"], ids=["missing", "not-final"])
def test_default_config_reads_no_lemma_file_unless_lemmatizing(tmp_path, table):
    path = tmp_path / "lemmas.tsv"
    if table is not None:
        path.write_text(table, encoding="utf-8")
    config = default_config(lemmas_path=path, min_token_count=1, apply_lemmatization=False)
    assert config.lemma_table is None
    assert preprocess_text("the lenses", config) == (("lenses",), None)


# words near the suffix rules, some not clean tokens; none starts with '#' or
# holds whitespace, so a file keeps each row as written
_rule_words = st.one_of(st.text("adegins", min_size=1, max_size=7),
                        st.text("adegins!D", min_size=1, max_size=7))
# half of them with a self-map for each lemma, which makes every lemma final
_rule_tables = st.tuples(st.dictionaries(_rule_words, _rule_words, max_size=5), st.booleans()).map(
    lambda drawn: {**drawn[0], **{lemma: lemma for lemma in drawn[0].values()}} if drawn[1]
    else drawn[0])


@given(table=_rule_tables, words=st.lists(_rule_words, max_size=4))
@settings(max_examples=400, deadline=None)
def test_config_refuses_exactly_the_tables_load_lemmas_refuses(table, words):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lemmas.tsv"
        path.write_text("".join(f"{key}\t{lemma}\n" for key, lemma in table.items()),
                        encoding="utf-8")
        try:
            refusal = None if load_lemmas(path) == table else "loaded another table"
        except MalformedEntryError as exc:
            refusal = f"lemma_table: {exc.reason}"
    try:
        config = PreprocessConfig(frozenset({"in"}), table, 1)
    except ValueError as exc:
        assert str(exc) == refusal
        return
    assert refusal is None
    for word in [*table, *table.values(), *words]:
        for token in (word, word + "s", word + "es", word + "ing", word + "ed"):
            once, _ = preprocess_text(token, config)
            assert preprocess_text(" ".join(once), config)[0] == once


def test_cleaned_document_flags():
    doc = CleanedDocument("a", "x", ("x",), None)
    assert not doc.dropped
    assert CleanedDocument("a", "", (), "null").dropped


def _any_case(word):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


_punctuation = st.text(string.punctuation, min_size=1, max_size=6)
_urls = st.tuples(st.sampled_from(URL_PREFIXES).flatmap(_any_case),
                  st.text(string.ascii_letters + "./-_?=#%", max_size=12)).map("".join)
_words = st.one_of(
    st.sampled_from(["Wind", "WIND", "turbine", "ÉOLIENNE", "Énergie", "straße",
                     "İstanbul", "ΑΝΕΜΟΣ", "ǅemal", "ﬁne", "don't", "don’t", "«VENT»", "¡GREAT!!!"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
)
_pieces = st.one_of(_punctuation, _urls, st.text(string.digits, min_size=1, max_size=5),
                    _words, st.tuples(_punctuation, _words, _punctuation).map("".join))
_spaces = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b",
                          "\u00a0", "\u2003", "\u3000"])
# comments mixing cases, scripts, punctuation, URLs and whitespace kinds;
# test_single_pass also checks the caps profile on them
mixed_texts = st.lists(st.tuples(_pieces, _spaces), max_size=12).map(
    lambda parts: "".join(piece + space for piece, space in parts))


@given(st.one_of(mixed_texts, _adversarial_spaced))
@settings(max_examples=300, deadline=None)
def test_translate_table_deletes_what_the_generator_did(text):
    assert normalize(text) == _generator_normalize(text)
