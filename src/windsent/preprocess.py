"""Text cleaning pipeline.

Per comment, in order: null/empty check, normalize (``lexicons.normalize_piece``
on each whitespace piece: lowercase, drop URL pieces, delete punctuation
including '#'), stopword removal, lemmatization, and a length threshold that
drops documents with fewer than ``min_token_count`` tokens.
Normalize acts on each whitespace piece of the raw text alone (lowercasing
never makes or unmakes whitespace, nor reads across it), so one loop over
the raw pieces does every step for each piece in turn. Social-media text
repeats its words, so one ``preprocess_corpus`` call cleans each distinct
raw piece once: a memo owned by that call maps the piece to its cleaned
token, or to None when the piece normalizes to nothing or a stopword drops
it. URL pieces, which seldom repeat, are never stored. The memo admits at
most ``MEMO_CAP`` pieces; later new pieces are cleaned without being
stored, which keeps a corpus of mostly distinct words from growing it
without bound.

Idempotence guarantee: re-running the pipeline over the space-joined token
output reproduces the token sequence exactly. Hence every lemma is final, so
``lemmatize`` ends on a fixpoint of itself, stopwords are filtered once more
after lemmatization ("ours" -> "our" may land on a stopword), and every
lemma-table key and value is one clean token: ``PreprocessConfig`` checks
its table by the loader's rule, ``lexicons.check_lemma_table``, and keeps
the copy that returns.

The stopword list and, only when lemmatizing, the lemma table are read, and
their words checked, by ``windsent.lexicons`` on every ``default_config``
call, so a rewritten file is read afresh and no two configs share a lemma
table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import CommentCollection
from .lexicons import (DEFAULT_LEMMAS_PATH, DEFAULT_STOPWORDS_PATH, MalformedEntryError,
                       check_lemma_table, load_lemmas, load_stopwords, normalize_piece,
                       suffix_lemma)

MEMO_CAP = 4096
_UNSEEN = object()


class _PreprocessFields(NamedTuple):
    stopwords: frozenset[str]
    lemma_table: Mapping[str, str] | None  # None: no lemmatization
    min_token_count: int = 3


class PreprocessConfig(_PreprocessFields):
    __slots__ = ()

    def __new__(cls, *fields, **named):
        config = super().__new__(cls, *fields, **named)
        if config.min_token_count < 1:
            raise ValueError("min_token_count must be >= 1")
        if config.lemma_table is None:
            return config
        try:
            table = check_lemma_table(enumerate(config.lemma_table.items(), 1))
        except MalformedEntryError as exc:
            raise ValueError(f"lemma_table: {exc.reason}") from None
        return tuple.__new__(cls, (config.stopwords, table, config.min_token_count))

    @classmethod
    def _make(cls, fields):  # _replace builds through _make, so it checks too
        return cls(*fields)


def default_config(stopwords_path: str | Path = DEFAULT_STOPWORDS_PATH,
                   lemmas_path: str | Path = DEFAULT_LEMMAS_PATH, min_token_count: int = 3,
                   apply_lemmatization: bool = True) -> PreprocessConfig:
    """Config backed by a stopword list and, when lemmatizing, a lemma table
    (the bundled ones by default); the lemma file is read only then."""
    stop = load_stopwords(stopwords_path)
    table = load_lemmas(lemmas_path) if apply_lemmatization else None
    return PreprocessConfig(stop, table, min_token_count)


class CleanedDocument(NamedTuple):
    comment_id: str
    raw_text: str
    tokens: tuple[str, ...]
    drop_reason: str | None = None  # None | "null" | "too_short"

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None


def normalize(text: str) -> str:
    return " ".join(filter(None, map(normalize_piece, text.split())))


def lemmatize(token: str, table: Mapping[str, str]) -> str:
    """Dictionary lemma when the token is in the table, else suffix-rule
    fallback, iterated to a fixpoint. Unknown tokens pass through. The
    table's lemmas are final (``check_lemma_table``), so the walk ends at the
    first key it reaches; a token whose last letter no rule reads ends it at once."""
    while token not in table:
        if token[-1:] not in "sgd" or (reduced := suffix_lemma(token)) is None:
            return token
        token = reduced
    return table[token]


def _clean_text(text: str | None, config: PreprocessConfig,
                memo: dict[str, str | None]) -> tuple[tuple[str, ...], str | None]:
    """One text's tokens and drop reason. A raw piece not in the memo is
    normalized by ``normalize_piece``, dropped when it is a stopword before
    or after lemmatization, and stored (unless it is a URL)."""
    pieces = text.split() if text is not None else ()
    if not pieces:
        return (), "null"
    stopwords = config.stopwords
    table = config.lemma_table
    tokens = []
    seen = memo.get
    to_word = normalize_piece
    for piece in pieces:
        cleaned = seen(piece, _UNSEEN)
        if cleaned is _UNSEEN:
            word = to_word(piece)
            if word is None:
                continue  # a URL: seldom repeated, so it takes no memo slot
            if not word or word in stopwords:
                cleaned = None
            else:
                if table is not None:
                    word = lemmatize(word, table)
                cleaned = None if word in stopwords else word
            if len(memo) < MEMO_CAP:
                memo[piece] = cleaned
        if cleaned is not None:
            tokens.append(cleaned)
    if len(tokens) < config.min_token_count:
        return tuple(tokens), "too_short"
    return tuple(tokens), None


def preprocess_text(text: str | None, config: PreprocessConfig) -> tuple[tuple[str, ...], str | None]:
    """Clean one text; returns (tokens, drop_reason)."""
    return _clean_text(text, config, {})


def preprocess_corpus(collection: CommentCollection | Sequence,
                      config: PreprocessConfig) -> list[CleanedDocument]:
    """One CleanedDocument per input comment, in input order; dropped
    documents carry their reason and keep whatever tokens were computed."""
    docs = []
    memo: dict[str, str | None] = {}
    for comment in collection:
        tokens, reason = _clean_text(comment.text, config, memo)
        # positional: a keyword call costs as much again per document
        docs.append(CleanedDocument(comment.id, comment.text if comment.text is not None else "",
                                    tokens, reason))
    return docs
