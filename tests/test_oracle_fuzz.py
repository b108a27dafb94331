"""Differential fuzzing of the whole analysis against the frozen oracle.

Hypothesis builds small corpora from the bundled lexicon words and synset
lemmas, modifier words, several "but"s, ALL-CAPS words, runs of '!', URLs,
#tags, inflections the suffix lemmatizer reduces, non-ASCII words and blank
or too-short texts. Each corpus is analyzed in both pipeline modes and with
both disambiguations, and every report section except meta.config_digest
must equal what tools/golden_reference.py computes, byte for byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent.config import RunConfig
from windsent.corpus import Comment, CommentCollection
from windsent.engines import (
    AMPLIFIERS,
    DAMPENERS,
    DISAMBIGUATION_AVERAGE,
    DISAMBIGUATION_FIRST,
    ENGINES,
    MODE_NATIVE,
    MODE_PAPER,
    NEGATION_WORDS,
)
from windsent.lexicons import load_lexicon_set
from windsent.pipeline import analyze_collection
from windsent.preprocess import default_config
from windsent.report import SIDES, report_json_bytes

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


def oracle_report(texts, native, disambiguation):
    """report.json as the oracle computes it, without meta.config_digest."""
    kept, dropped, subjectivities, rows = [], [], [], []
    labels = {engine: {} for engine in ENGINES}
    for n, text in enumerate(texts):
        cid = f"c{n}"
        tokens, reason = ORACLE.preprocess(text)
        if reason is not None:
            dropped.append({"id": cid, "reason": reason})
            continue
        kept.append((cid, tokens))
        comp, props = ORACLE.score_valence(tokens, text if native else None)
        pol_p, subj = ORACLE.score_pattern(tokens)
        pol_s = ORACLE.score_synset([(t, ORACLE.tag_token(t)) for t in tokens], disambiguation)
        row_labels = {"pattern_avg": ORACLE.label_of(pol_p),
                      "synset": ORACLE.label_of(pol_s),
                      "valence_rule": ORACLE.label_of(comp)}
        for engine, lab in row_labels.items():
            labels[engine][cid] = lab
        subjectivities.append(subj)
        rows.append({
            "id": cid,
            "labels": row_labels,
            "scores": {
                "pattern_avg": {"polarity": pol_p, "subjectivity": subj},
                "synset": {"polarity": pol_s},
                "valence_rule": {
                    "polarity": comp,
                    "proportions": {"neg": props[2], "neu": props[1], "pos": props[0]},
                },
            },
        })
    distributions = {}
    for engine in ENGINES:
        counts, props = ORACLE.distribution([labels[engine][cid] for cid, _ in kept])
        distributions[engine] = {"counts": counts, "proportions": props}
    edges, counts, mean, median = ORACLE.histogram(subjectivities)
    return {
        "comments": rows,
        "distributions": distributions,
        "dropped": dropped,
        "meta": {
            "corpus_size": len(texts),
            "dropped_count": len(dropped),
            "epsilon": ORACLE.EPSILON,
            "input_file": INPUT_NAME,
            "kept_count": len(kept),
            "pipeline_mode": MODE_NATIVE if native else MODE_PAPER,
            "top_n": ORACLE.TOP_N,
        },
        "rankings": {engine: {side: ORACLE.top_words(kept, labels, engine, side)
                              for side in SIDES}
                     for engine in ENGINES},
        "subjectivity": {"bin_edges": edges, "counts": counts, "mean": mean, "median": median},
    }


@pytest.mark.parametrize("disambiguation", [DISAMBIGUATION_FIRST, DISAMBIGUATION_AVERAGE])
@pytest.mark.parametrize("mode", [MODE_PAPER, MODE_NATIVE])
@given(texts=corpora)
@settings(max_examples=100, deadline=None)
def test_report_matches_oracle(mode, disambiguation, texts):
    collection = CommentCollection(
        tuple(Comment(id=f"c{n}", text=text) for n, text in enumerate(texts)), INPUT_NAME)
    config = RunConfig(input_path=Path(INPUT_NAME), input_format="jsonl", out_dir=Path("unused"),
                       mode=mode, disambiguation=disambiguation, epsilon=ORACLE.EPSILON,
                       top_n=ORACLE.TOP_N, bin_count=ORACLE.BINS,
                       min_token_count=ORACLE.MIN_TOKENS)
    cleaning = default_config(min_token_count=ORACLE.MIN_TOKENS)
    data = report_json_bytes(analyze_collection(collection, LEXICONS, cleaning, config))
    actual = json.loads(data)
    expected = oracle_report(texts, mode == MODE_NATIVE, disambiguation)
    expected["meta"]["config_digest"] = actual["meta"]["config_digest"]
    for section in sorted(set(expected) | set(actual)):
        assert actual.get(section) == expected.get(section), section
    # byte equality also tells -0.0 from 0.0
    canonical = json.dumps(expected, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert data == canonical.encode("utf-8")
