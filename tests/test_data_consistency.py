"""Coherence checks across the bundled data files.

The pipeline relies on a few cross-file properties: modifier vocabularies
never appear in the stopword list, lexicon words survive the cleaning
pipeline unchanged (otherwise corpus tokens could never match them), and
every synset lemma is reachable under the tag its entries carry.
"""

import subprocess
import sys
from pathlib import Path

from windsent.engines import (
    AMPLIFIERS,
    CONTRAST_WORD,
    DAMPENERS,
    NEGATION_WORDS,
    tag_pos,
)
from windsent.preprocess import default_config, lemmatize, load_stopwords


def test_stopwords_exclude_modifier_vocabulary():
    stop = load_stopwords()
    reserved = NEGATION_WORDS | AMPLIFIERS | DAMPENERS | {CONTRAST_WORD}
    assert not stop & reserved


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
        reachable = lexicons.synset._synsets.get((lemma, tagged))
        tags_for_lemma = {p for (l, p) in lexicons.synset._synsets if l == lemma}
        if tagged in tags_for_lemma:
            assert reachable


def test_intensifier_entries_carry_zero_polarity(lexicons):
    for entry in lexicons.pattern._pattern.values():
        if entry.is_intensifier:
            assert entry.polarity == 0.0


def test_check_data_script_passes():
    script = Path(__file__).resolve().parents[1] / "tools" / "check_data.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
