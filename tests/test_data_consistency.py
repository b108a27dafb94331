"""Coherence checks across the bundled data files.

The pipeline relies on a few cross-file properties: modifier vocabularies
never appear in the stopword list, lexicon words survive the cleaning
pipeline unchanged (otherwise corpus tokens could never match them), and
every synset lemma is reachable under the tag its entries carry. The two
key/value tables must also be unambiguous, every data file must ship in a
built package, and the frozen oracle must read each data file into the same
lines as the package.

Per-file checks (duplicate words, score ranges, finite numbers, synset tags)
are the lexicon loaders' own and run whenever the ``lexicons`` fixture loads.
"""

import glob
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from windsent.engines import AMPLIFIERS, CONTRAST_WORD, DAMPENERS, NEGATION_WORDS, tag_pos
from windsent.errors import data_lines
from windsent.lexicons import (
    DEFAULT_LEMMAS_PATH,
    DEFAULT_POS_TABLE_PATH,
    POS_TAGS,
    LexiconFileError,
    load_stopwords,
)
from windsent.preprocess import default_config, lemmatize


ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "windsent" / "data"
DATA_FILES = sorted(path for path in DATA.rglob("*") if path.is_file())


def _table_rows(path):
    return [tuple(line.split("\t")) for _, line in data_lines(path, LexiconFileError)]


def test_stopwords_exclude_modifier_vocabulary():
    stop = load_stopwords()
    reserved = NEGATION_WORDS | AMPLIFIERS | DAMPENERS | {CONTRAST_WORD}
    assert not stop & reserved


def test_lemma_table_has_no_repeated_key():
    keys = Counter(key for key, _ in _table_rows(DEFAULT_LEMMAS_PATH))
    assert [key for key, n in keys.items() if n > 1] == []


def test_pos_table_tags_are_known_and_unambiguous():
    tags = {}
    for word, tag in _table_rows(DEFAULT_POS_TABLE_PATH):
        assert tag in POS_TAGS, word
        assert tags.setdefault(word, tag) == tag, word


def test_lemma_table_values_are_fixpoints():
    config = default_config()
    for inflected, lemma in config.lemma_table.items():
        assert lemmatize(lemma, table=config.lemma_table) == lemma, inflected


def test_valence_words_survive_preprocessing(lexicons):
    config = default_config()
    stop = config.stopwords
    for word in lexicons.valence._valence:
        assert word not in stop
        assert lemmatize(word, table=config.lemma_table) == word


def test_pattern_words_survive_preprocessing(lexicons):
    config = default_config()
    for word in lexicons.pattern._pattern:
        assert word not in config.stopwords
        assert lemmatize(word, table=config.lemma_table) == word


def test_valence_words_disjoint_from_modifiers(lexicons):
    reserved = NEGATION_WORDS | AMPLIFIERS | DAMPENERS | {CONTRAST_WORD}
    assert not set(lexicons.valence._valence) & reserved


def test_synset_lemmas_reachable_under_their_tags(lexicons):
    config = default_config()
    for (lemma, pos), _senses in lexicons.synset._synsets.items():
        assert lemma not in config.stopwords
        assert lemmatize(lemma, table=config.lemma_table) == lemma
        (_, tagged), = tag_pos([lemma])
        tags_for_lemma = {p for (l, p) in lexicons.synset._synsets if l == lemma}
        assert tagged in tags_for_lemma, (lemma, tagged, sorted(tags_for_lemma))


def test_intensifier_entries_carry_zero_polarity(lexicons):
    for entry in lexicons.pattern._pattern.values():
        if entry.is_intensifier:
            assert entry.polarity == 0.0


def test_every_data_file_matches_a_package_data_glob():
    # tests import the package from the source tree, so a data file that a
    # built package would leave out is noticed here only
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    package = DATA.parent
    packaged = {Path(name).as_posix()
                for pattern in pyproject["tool"]["setuptools"]["package-data"]["windsent"]
                for name in glob.glob(pattern, root_dir=package)}
    data = {path.relative_to(package).as_posix() for path in DATA_FILES}
    assert data and data - packaged == set()


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location(
        "golden_reference", ROOT / "tools" / "golden_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DATA_FILES, ids=lambda path: path.relative_to(DATA).as_posix())
def test_oracle_reads_the_same_data_lines_as_the_package(oracle, path):
    # the oracle cuts lines with str.splitlines, the package with errors.LINE;
    # they differ only on VT, FF, FS, GS, RS, U+0085, U+2028 and U+2029
    package_lines = [line for _, line in data_lines(path, LexiconFileError)]
    assert oracle.data_lines(path) == package_lines
