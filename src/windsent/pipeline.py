"""End-to-end orchestration: load, preprocess, score, label, aggregate,
serialize. Everything runs in corpus order; results are deterministic for
identical inputs and configuration.
"""

from __future__ import annotations

from pathlib import Path

from . import analytics, corpus, engines, preprocess, report as report_mod, svgplots
from .analytics import LabeledComment
from .config import RunConfig
from .errors import remove_file, write_file
from .lexicons import LexiconSet, load_lexicon_set
from .preprocess import CleanedDocument, PreprocessConfig


def analyze_collection(collection: corpus.CommentCollection,
                       lexicons: LexiconSet,
                       preprocess_config: PreprocessConfig,
                       config: RunConfig) -> report_mod.AnalysisReport:
    """Pure analysis core: no file output."""
    documents = preprocess.preprocess_corpus(collection, preprocess_config)
    kept = [doc for doc in documents if not doc.dropped]
    dropped = tuple((doc.comment_id, doc.drop_reason)
                    for doc in documents if doc.dropped)

    rows = []
    labeled: dict[str, list[LabeledComment]] = {engine: [] for engine in engines.ENGINES}
    pattern_scores = []
    mode, disambiguation, epsilon = config.mode, config.disambiguation, config.epsilon
    for doc in kept:
        scores = engines.score_all(doc, lexicons, mode=mode, disambiguation=disambiguation)
        labels = {}
        for engine, score in zip(engines.ENGINES, scores):
            item = analytics.label_comment(doc.comment_id, score, epsilon)
            labeled[engine].append(item)
            labels[engine] = item.label
        pattern_scores.append(scores.pattern_avg)
        rows.append(report_mod.CommentRow(doc.comment_id, scores, labels))

    distributions = {
        engine: analytics.distribution(labeled[engine], engine)
        for engine in engines.ENGINES
    }
    histogram = analytics.subjectivity_histogram(pattern_scores, config.bin_count)

    # every document, so that top_words rejects a repeated id among dropped ones too
    rankings = {}
    for engine in engines.ENGINES:
        lexicon = getattr(lexicons, engines.ENGINE_LEXICONS[engine].kind)
        rankings[engine] = {
            side: analytics.top_words(documents, labeled[engine], lexicon,
                                      engine, side, config.top_n)
            for side in report_mod.SIDES
        }

    return report_mod.AnalysisReport(
        config_digest=config.digest(),
        corpus_size=len(collection),
        kept_count=len(kept),
        dropped_count=len(dropped),
        input_file=config.input_path.name,
        pipeline_mode=config.mode,
        epsilon=config.epsilon,
        top_n=config.top_n,
        comments=tuple(rows),
        dropped=dropped,
        distributions=distributions,
        histogram=histogram,
        rankings=rankings,
    )


def _load_collection(config: RunConfig) -> tuple[corpus.CommentCollection,
                                                 tuple[corpus.SkippedRecord, ...]]:
    if config.lenient:
        return corpus.load_corpus_lenient(config.input_path, config.input_format)
    return corpus.load_corpus(config.input_path, config.input_format), ()


def _preprocess_config(config: RunConfig) -> PreprocessConfig:
    return preprocess.default_config(config.stopwords_path, config.lemmas_path,
                                     config.min_token_count, config.apply_lemmatization)


def _update_skip_report(skipped: tuple[corpus.SkippedRecord, ...], path: Path) -> None:
    """Write the skip report, or remove a leftover one from an earlier run
    when nothing was skipped."""
    if skipped:
        corpus.write_skip_report(skipped, path)
    else:
        remove_file(path)


def _analyze(config: RunConfig) -> tuple[report_mod.AnalysisReport, tuple]:
    """Validate, load the data files (first, so that a bad one fails before a
    large corpus is read) and the corpus, and analyze, writing no files:
    returns the report and the records a lenient load skipped. Returning
    frees the corpus and the tables before ``run_analyze`` writes."""
    config.validate()
    cleaning = _preprocess_config(config)
    lexicons = load_lexicon_set(config.lexicon_dir)
    collection, skipped = _load_collection(config)
    return analyze_collection(collection, lexicons, cleaning, config), skipped


def run_analyze(config: RunConfig) -> report_mod.AnalysisReport:
    """Execute the full pipeline and write report files (plus plots when
    enabled, else remove charts left by an earlier run) into the output
    directory. Validation happens before any output is written, so a bad
    configuration leaves no partial results."""
    result, skipped = _analyze(config)
    report_mod.write_report_files(result, config.out_dir)
    _update_skip_report(skipped, config.out_dir / "skipped.jsonl")
    if config.plots:
        summary = report_mod.summary_to_dict(result)
        svgplots.render_report_plots(svgplots.drawn_values(summary), config.out_dir / "plots")
    else:
        for name in svgplots.CHART_FILES:
            remove_file(config.out_dir / "plots" / name)
    return result


def cleaned_document_record(doc: CleanedDocument) -> dict:
    """JSONL record for one cleaned document. The ``text`` field holds the
    space-joined tokens so the file loads back as a corpus under
    ``--lenient``; a document that cleaned to no tokens has an empty
    ``text``, which a strict load rejects."""
    return {
        "id": doc.comment_id,
        "text": " ".join(doc.tokens),
        "tokens": list(doc.tokens),
        "dropped": doc.dropped,
        "drop_reason": doc.drop_reason,
    }


def run_preprocess_only(config: RunConfig, out_file: str | Path) -> Path:
    """Clean the corpus and write one JSONL record per input comment,
    including dropped records with their reasons."""
    config.validate()
    cleaning = _preprocess_config(config)
    collection, skipped = _load_collection(config)
    documents = preprocess.preprocess_corpus(collection, cleaning)
    out_path = Path(out_file)
    write_file(out_path, corpus.jsonl_text(cleaned_document_record(doc)
                                           for doc in documents))
    _update_skip_report(skipped, out_path.with_suffix(".skipped.jsonl"))
    return out_path
