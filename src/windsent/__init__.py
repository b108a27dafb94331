"""Deterministic lexicon-based opinion mining for social-media corpora.

Pipeline: corpus ingestion -> text cleaning -> three rule-based sentiment
engines (valence rules with context heuristics, pattern averaging with
subjectivity, POS-aware synset scoring) -> sign-based polarity labeling ->
distribution / subjectivity / top-word analytics -> JSON, CSV and SVG
reports.
"""

from .analytics import (
    DistributionReport,
    LabeledComment,
    MixedEnginesError,
    MissingSubjectivityError,
    SubjectivityHistogram,
    WordRanking,
    distribution,
    label,
    label_polarity,
    merge_distributions,
    subjectivity_histogram,
    top_words,
)
from .config import ConfigError, RunConfig, build_run_config, parse_config_file
from .corpus import (
    Comment,
    CommentCollection,
    DuplicateIdError,
    EmptyTextError,
    FileNotReadableError,
    MalformedRecordError,
    MissingFieldError,
    SkippedRecord,
    load_corpus,
    load_corpus_lenient,
    validate_record,
    write_jsonl,
)
from .engines import (
    AMPLIFIERS,
    DAMPENERS,
    ENGINES,
    NEGATION_WORDS,
    EngineScores,
    SentimentScore,
    compound_from_sum,
    score_all,
    score_pattern_avg,
    score_synset,
    score_valence_rule,
    tag_pos,
)
from .errors import WindsentError
from .lexicons import (
    DuplicateWordError,
    LexiconSet,
    MalformedEntryError,
    OutOfRangeScoreError,
    PatternEntry,
    PatternLexicon,
    SynsetEntry,
    SynsetLexicon,
    ValenceLexicon,
    WrongKindError,
    bundled_lexicon_dir,
    load_lexicon,
    load_lexicon_set,
)
from .pipeline import analyze_collection, analyze_only, run_analyze, run_preprocess_only
from .preprocess import (
    CleanedDocument,
    PreprocessConfig,
    default_config,
    lemmatize,
    normalize,
    preprocess_corpus,
    preprocess_text,
    remove_stopwords,
    tokenize,
)
from .report import AnalysisReport, load_report, report_json_bytes, write_report_files
from .stemming import stem
from .svgplots import render_report_plots

__version__ = "0.1.0"
