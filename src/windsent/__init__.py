"""Deterministic lexicon-based opinion mining for social-media corpora.

Pipeline: corpus ingestion -> text cleaning -> three rule-based sentiment
engines (valence rules with context heuristics, pattern averaging with
subjectivity, POS-aware synset scoring) -> sign-based polarity labeling ->
distribution / subjectivity / top-word analytics -> JSON, CSV and SVG
reports.

The package root exports what the README's "Library use" example needs;
everything else is imported from its own module.
"""

from .analytics import label
from .corpus import load_corpus
from .engines import score_all
from .lexicons import load_lexicon_set
from .preprocess import default_config, preprocess_corpus

__version__ = "0.1.0"
