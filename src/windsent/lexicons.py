"""Every data file the pipeline reads: the three lexicon kinds backing the
sentiment engines, the stopword list, and the two-column tables (lemmas, POS
tags) that share the lexicons' file format.

File formats (UTF-8 with optional BOM, blank and '#'-prefixed lines ignored):
  valence   : word<TAB>valence                       valence in [-4, +4]
  pattern   : word<TAB>polarity<TAB>subjectivity<TAB>intensifier_flag<TAB>intensity_factor
  synset    : synset_id<TAB>pos<TAB>pos_score<TAB>neg_score<TAB>sense_rank<TAB>lemma1,lemma2,...
  stopwords : word
  table     : key<TAB>value
  lemmas    : inflected<TAB>lemma                    a table whose every lemma is final

One contract holds for every file. Each word field (lexicon words, synset
lemmas, stopwords, table keys and values) must be one clean token: a word
that cleaning leaves unchanged, so corpus tokens can match it and cleaning's
output stays a fixpoint of cleaning. A key may appear once per file. Every
invariant is checked at load time; a file that violates one never produces
a partially valid lexicon or table, and the error names the file and line.
``PreprocessConfig`` checks a hand-built lemma table by the same rule.
Each lexicon kind loads into an immutable type that holds its table alone,
read directly and safe for concurrent lookup; an entry keeps only what
scoring reads. A synset row's id (unique per file), tag and lemmas are
checked, but kept only as the table's (lemma, tag) keys.
"""

from __future__ import annotations

import math
import re
import string
from pathlib import Path
from typing import Callable, ClassVar, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import FrozenRecord, WindsentError, data_lines

POS_TAGS = ("noun", "verb", "adj", "adv")

VALENCE_BOUND = 4.0
_SCORE_SUM_TOL = 1e-9

_DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_STOPWORDS_PATH = _DATA_DIR / "stopwords.txt"
DEFAULT_LEMMAS_PATH = _DATA_DIR / "lemmas.tsv"
DEFAULT_POS_TABLE_PATH = _DATA_DIR / "pos_tags.tsv"

URL_PREFIXES = ("http://", "https://", "www.")  # cleaning drops a piece starting so
# the characters cleaning deletes, so no data-file word may hold one
PUNCTUATION = frozenset(string.punctuation)
DELETE_PUNCTUATION = str.maketrans(dict.fromkeys(PUNCTUATION))
# a character outside XML 1.0's Char (controls but tab, LF and CR;
# surrogates; U+FFFE, U+FFFF), which no SVG chart can hold
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_VOWELS = frozenset("aeiou")


def bundled_lexicon_dir() -> Path:
    return _DATA_DIR / "lexicons"


def normalize_piece(piece: str) -> str | None:
    """One whitespace piece of raw text lowercased, with its punctuation
    deleted (an alphanumeric word holds none); None for a URL, which is
    tested first, as deleting punctuation would shred it into residue. The
    one word rule: cleaning, ``_check_word`` and the caps profile call it."""
    word = piece.lower()
    if word.startswith(URL_PREFIXES):
        return None
    return word if word.isalnum() else word.translate(DELETE_PUNCTUATION)


def suffix_lemma(token: str) -> str | None:
    """One application of the fallback lemma rules, by last letter; else None."""
    n = len(token)
    last = token[-1:]
    if last == "s":
        if token.endswith("ies") and n >= 5:
            return token[:-3] + "y"
        if n >= 5 and token.endswith(("ches", "shes", "xes", "zes", "sses")):
            return token[:-2]
        if n >= 4 and not token.endswith(("ss", "us", "is")):
            return token[:-1]
    elif (last == "g" and token.endswith("ing") and n >= 6
          and not _VOWELS.isdisjoint(token[:-3])):
        return token[:-3]
    elif (last == "d" and token.endswith("ed") and not token.endswith("eed") and n >= 5
          and not _VOWELS.isdisjoint(token[:-2])):
        return token[:-2]
    return None


class _EntryError(WindsentError):
    """A bad line in a data file; ``_load`` sets ``path`` so the message
    reads ``<path>: line N: <reason>``."""
    path: Path | None = None

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.path is None else f"{self.path}: {message}"


class MalformedEntryError(_EntryError):
    code = "lexicon/malformed-entry"


class OutOfRangeScoreError(_EntryError):
    code = "lexicon/out-of-range"


class DuplicateWordError(_EntryError):
    code = "lexicon/duplicate-word"

    def __init__(self, word: str, line: int):
        super().__init__(line, f"duplicate word {word!r}")
        self.word = word


class LexiconFileError(WindsentError):
    code = "lexicon/file-not-readable"


class PatternEntry(NamedTuple):
    polarity: float
    subjectivity: float
    is_intensifier: bool = False
    intensity_factor: float = 1.0


class SynsetEntry(NamedTuple):
    pos_score: float
    neg_score: float
    sense_rank: int


class _Lexicon(FrozenRecord):
    """A loaded lexicon: its lookup table alone, which the first slot of
    each kind's own ``__slots__`` holds under a private name. Immutable, and
    equal to a lexicon of the same kind with an equal table."""

    __slots__ = ()
    kind: ClassVar[str]

    def __repr__(self) -> str:  # the table is too long to print
        return f"{type(self).__name__}({len(getattr(self, self._fields[0]))} keys)"


class ValenceLexicon(_Lexicon):
    """word -> valence in [-4, 4]."""
    __slots__ = ("_valence",)
    kind = "valence"
    _valence: Mapping[str, float]


class PatternLexicon(_Lexicon):
    """word -> pattern entry."""
    __slots__ = ("_pattern",)
    kind = "pattern"
    _pattern: Mapping[str, PatternEntry]


class SynsetLexicon(_Lexicon):
    """(lemma, pos) -> all senses in ascending sense_rank order. ``lemmas``
    holds every lemma under any tag: a word outside it has no sense under
    any tag, so scoring need not tag it."""
    __slots__ = ("_synsets", "lemmas")
    kind = "synset"
    _synsets: Mapping[tuple[str, str], tuple[SynsetEntry, ...]]
    lemmas: frozenset[str]

    def __init__(self, table: Mapping) -> None:
        super().__init__(table, frozenset(lemma for lemma, _ in table))

    def __reduce__(self) -> tuple:  # lemmas is derived from the table
        return SynsetLexicon, (self._synsets,)


AnyLexicon = ValenceLexicon | PatternLexicon | SynsetLexicon


def require_kind(lexicon: AnyLexicon, expected: type) -> None:
    """Raise TypeError unless ``lexicon`` is an ``expected`` lexicon; the
    message names the kind of another lexicon, or the type of a non-lexicon."""
    if not isinstance(lexicon, expected):
        got = lexicon.kind if isinstance(lexicon, _Lexicon) else type(lexicon).__name__
        raise TypeError(f"expected a {expected.kind} lexicon, got {got}")


def _rows(path: Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) for each data line, which must
    have exactly ``width`` fields."""
    for lineno, line in data_lines(path, LexiconFileError):
        fields = line.split("\t")
        if len(fields) != width:
            raise MalformedEntryError(lineno, f"expected {width} fields, got {len(fields)}")
        yield lineno, fields


def _parse_float(value: str, lineno: int, what: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise MalformedEntryError(lineno, f"{what} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise MalformedEntryError(lineno, f"{what} is not finite: {value!r}")
    return number


def _check_word(word: str, lineno: int) -> str:
    """The word rule: ``word`` must be one clean token, i.e. a single
    whitespace piece that is a fixpoint of ``normalize_piece``: no upper
    case, no punctuation and no URL prefix; and no control character, so a
    chart can draw it."""
    if (word.split() != [word] or normalize_piece(word) != word
            or NOT_XML_CHAR.search(word)):
        raise MalformedEntryError(lineno, f"not one clean token: {word!r}")
    return word


def _put(entries: dict, key: str, value, lineno: int) -> None:
    """The repeated-key rule: a key may appear once per file."""
    if key in entries:
        raise DuplicateWordError(key, lineno)
    entries[key] = value


def _load_valence(path: Path) -> ValenceLexicon:
    entries: dict[str, float] = {}
    for lineno, fields in _rows(path, 2):
        word = _check_word(fields[0], lineno)
        valence = _parse_float(fields[1], lineno, "valence")
        if not -VALENCE_BOUND <= valence <= VALENCE_BOUND:
            raise OutOfRangeScoreError(lineno, f"valence {valence} outside [-4, 4]")
        _put(entries, word, valence, lineno)
    return ValenceLexicon(entries)


_TRUE_FLAGS = {"1", "true"}
_FALSE_FLAGS = {"0", "false"}


def _load_pattern(path: Path) -> PatternLexicon:
    entries: dict[str, PatternEntry] = {}
    for lineno, fields in _rows(path, 5):
        word = _check_word(fields[0], lineno)
        polarity = _parse_float(fields[1], lineno, "polarity")
        subjectivity = _parse_float(fields[2], lineno, "subjectivity")
        flag = fields[3].lower()
        if flag in _TRUE_FLAGS:
            is_intensifier = True
        elif flag in _FALSE_FLAGS:
            is_intensifier = False
        else:
            raise MalformedEntryError(lineno, f"bad intensifier flag: {fields[3]!r}")
        factor = _parse_float(fields[4], lineno, "intensity_factor")
        if not -1.0 <= polarity <= 1.0:
            raise OutOfRangeScoreError(lineno, f"polarity {polarity} outside [-1, 1]")
        if not 0.0 <= subjectivity <= 1.0:
            raise OutOfRangeScoreError(lineno, f"subjectivity {subjectivity} outside [0, 1]")
        if factor <= 0.0:
            raise OutOfRangeScoreError(lineno, f"intensity_factor {factor} not positive")
        _put(entries, word, PatternEntry(polarity, subjectivity, is_intensifier, factor), lineno)
    return PatternLexicon(entries)


def _load_synset(path: Path) -> SynsetLexicon:
    by_key: dict[tuple[str, str], list[SynsetEntry]] = {}
    seen_ids: dict[str, None] = {}
    seen_ranks: set[tuple[str, str, int]] = set()
    for lineno, fields in _rows(path, 6):
        synset_id = fields[0]
        _put(seen_ids, synset_id, None, lineno)
        pos_tag = fields[1]
        if pos_tag not in POS_TAGS:
            raise MalformedEntryError(lineno, f"bad pos tag: {pos_tag!r}")
        pos_score = _parse_float(fields[2], lineno, "pos_score")
        neg_score = _parse_float(fields[3], lineno, "neg_score")
        for name, score in (("pos_score", pos_score), ("neg_score", neg_score)):
            if not 0.0 <= score <= 1.0:
                raise OutOfRangeScoreError(lineno, f"{name} {score} outside [0, 1]")
        if pos_score + neg_score > 1.0 + _SCORE_SUM_TOL:
            raise MalformedEntryError(
                lineno, f"pos_score + neg_score = {pos_score + neg_score} exceeds 1")
        try:
            sense_rank = int(fields[4])
        except ValueError:
            raise MalformedEntryError(lineno, f"sense_rank is not an integer: {fields[4]!r}") from None
        if sense_rank < 1:
            raise MalformedEntryError(lineno, f"sense_rank {sense_rank} not positive")
        lemmas = [_check_word(w, lineno) for w in fields[5].split(",")]
        entry = SynsetEntry(pos_score, neg_score, sense_rank)
        for lemma in lemmas:
            key = (lemma, pos_tag, sense_rank)
            if key in seen_ranks:
                raise MalformedEntryError(
                    lineno, f"duplicate sense_rank {sense_rank} for ({lemma}, {pos_tag})")
            seen_ranks.add(key)
            by_key.setdefault((lemma, pos_tag), []).append(entry)
    return SynsetLexicon({key: tuple(sorted(senses, key=lambda e: e.sense_rank))
                          for key, senses in by_key.items()})


_LOADERS = {
    "valence": _load_valence,
    "pattern": _load_pattern,
    "synset": _load_synset,
}


_Loaded = TypeVar("_Loaded")


def _load(parse: Callable[[Path], _Loaded], path: str | Path) -> _Loaded:
    path = Path(path)
    try:
        return parse(path)
    except _EntryError as exc:
        exc.path = path
        raise


def load_lexicon(path: str | Path, kind: str) -> AnyLexicon:
    if kind not in _LOADERS:
        raise ValueError(f"unknown lexicon kind: {kind!r}")
    return _load(_LOADERS[kind], path)


def _parse_table(rows: Iterator[tuple[int, Sequence[str]]]) -> tuple[dict[str, str], list[int]]:
    """A two-column table of (line, (key, value)) rows, and each row's line in key order."""
    table: dict[str, str] = {}
    lines = []
    for lineno, (key, value) in rows:
        _put(table, _check_word(key, lineno), _check_word(value, lineno), lineno)
        lines.append(lineno)
    return table, lines


def load_table(path: str | Path) -> dict[str, str]:
    """A two-column ``key<TAB>value`` table such as the POS table."""
    return _load(lambda p: _parse_table(_rows(p, 2))[0], path)


def check_lemma_table(rows: Iterator[tuple[int, Sequence[str]]]) -> dict[str, str]:
    """The lemma-table rule, for a file's rows and a hand-built table alike:
    the table of (line, (inflected, lemma)) rows, each word one clean token
    and every lemma final: a key that maps to itself, or no key and a word
    that no suffix rule shortens. The first row that breaks it, words first,
    raises a ``MalformedEntryError`` naming its line."""
    table, lines = _parse_table(rows)
    for lineno, lemma in zip(lines, table.values()):
        to = table.get(lemma) or suffix_lemma(lemma)
        if to not in (None, lemma):
            how = "the table maps" if lemma in table else "a suffix rule shortens"
            raise MalformedEntryError(lineno, f"lemma {lemma!r} is not final: {how} it to {to!r}")
    return table


def load_lemmas(path: str | Path) -> dict[str, str]:
    """An ``inflected<TAB>lemma`` table, by ``check_lemma_table``."""
    return _load(lambda p: check_lemma_table(_rows(p, 2)), path)


def load_stopwords(path: str | Path = DEFAULT_STOPWORDS_PATH) -> frozenset[str]:
    """A stopword list, one word per line."""
    return _load(lambda p: frozenset(_check_word(word, lineno) for lineno, word
                                     in data_lines(p, LexiconFileError)), path)


class LexiconSet(NamedTuple):
    valence: ValenceLexicon
    pattern: PatternLexicon
    synset: SynsetLexicon


def load_lexicon_set(directory: str | Path | None = None) -> LexiconSet:
    """Load ``<kind>.tsv`` for each kind in field order (valence.tsv,
    pattern.tsv, synset.tsv) from a directory (bundled lexicons when none is
    given)."""
    base = Path(directory) if directory is not None else bundled_lexicon_dir()
    return LexiconSet(*(load_lexicon(base / f"{kind}.tsv", kind) for kind in LexiconSet._fields))
