"""Output-correctness gate.

Expectations come from the frozen golden oracle, ``tools/golden_reference.py``,
imported by file path so that nothing of the ``windsent`` package is used to
judge the package. The first run of a seed is compared with the oracle; every
later run must reproduce the first run's files byte for byte.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from corpora import ROOT, Corpus

ORACLE_PATH = ROOT / "tools" / "golden_reference.py"
ENGINES = ("pattern_avg", "synset", "valence_rule")
SIDES = ("negative", "positive")


class GateError(Exception):
    """An output that disagrees with the oracle or with the first run."""


def load_oracle():
    spec = importlib.util.spec_from_file_location("golden_reference", ORACLE_PATH)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")


class Expectation:
    """The oracle's report for one corpus and setting, plus the corpus shape
    counters the workload checks (tokens, distinct tokens, drops)."""

    def __init__(self, oracle, corpus: Corpus, native: bool, disambiguation: str):
        kept, dropped, subjectivities, rows = [], [], [], []
        labels = {engine: {} for engine in ENGINES}
        distinct: set[str] = set()
        self.tokens = 0
        for cid, text in corpus.records:
            tokens, reason = oracle.preprocess(text)
            self.tokens += len(tokens)
            distinct.update(tokens)
            if reason is not None:
                dropped.append({"id": cid, "reason": reason})
                continue
            kept.append((cid, tokens))
            comp, props = oracle.score_valence(tokens, text if native else None)
            pol_p, subj = oracle.score_pattern(tokens)
            pol_s = oracle.score_synset([(t, oracle.tag_token(t)) for t in tokens],
                                        disambiguation)
            row_labels = {"pattern_avg": oracle.label_of(pol_p),
                          "synset": oracle.label_of(pol_s),
                          "valence_rule": oracle.label_of(comp)}
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
        self.distinct_tokens = len(distinct)
        self.dropped = len(dropped)
        self.records = len(corpus.records)
        distributions = {}
        for engine in ENGINES:
            counts, props = oracle.distribution([labels[engine][cid] for cid, _ in kept])
            distributions[engine] = {"counts": counts, "proportions": props}
        edges, counts, mean, median = oracle.histogram(subjectivities)
        self.report = {
            "comments": rows,
            "distributions": distributions,
            "dropped": dropped,
            "meta": {
                "corpus_size": len(corpus.records),
                "dropped_count": len(dropped),
                "epsilon": oracle.EPSILON,
                "input_file": corpus.path.name,
                "kept_count": len(kept),
                "pipeline_mode": "engine_native" if native else "paper_faithful",
                "top_n": oracle.TOP_N,
            },
            "rankings": {
                engine: {side: oracle.top_words(kept, labels, engine, side) for side in SIDES}
                for engine in ENGINES
            },
            "subjectivity": {"bin_edges": edges, "counts": counts,
                             "mean": mean, "median": median},
        }
        self.bad_lines = corpus.bad_lines

    def check(self, outdir: Path) -> None:
        """Compare one run's output directory with the oracle; raises GateError."""
        try:
            data = (outdir / "report.json").read_bytes()
            actual = json.loads(data)
            digest = actual["meta"]["config_digest"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise GateError(f"report.json unreadable: {exc!r}") from None
        # the digest is the one field the oracle does not pin
        expected = dict(self.report, meta=dict(self.report["meta"], config_digest=digest))
        for section in sorted(set(expected) | set(actual)):
            if expected.get(section) != actual.get(section):
                raise GateError(f"report.json section {section!r} disagrees with the oracle")
        if canonical_json(expected) != data:
            raise GateError("report.json is not in canonical serialization")
        self._check_skipped(outdir / "skipped.jsonl")
        if not any((outdir / "plots").glob("*.svg")):
            raise GateError("no SVG plots written")

    def _check_skipped(self, path: Path) -> None:
        if not self.bad_lines:
            if path.exists():
                raise GateError("skipped.jsonl written for a corpus without bad records")
            return
        try:
            entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            lines = [entry["line"] for entry in entries]
            reasons_ok = all(isinstance(e["reason"], str) and e["reason"] for e in entries)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise GateError(f"skipped.jsonl unreadable: {exc!r}") from None
        if lines != list(self.bad_lines) or not reasons_ok:
            raise GateError(f"skipped.jsonl lists lines {lines[:5]}..., planted "
                            f"{list(self.bad_lines[:5])}... ({len(lines)} vs "
                            f"{len(self.bad_lines)})")


def tree_digest(outdir: Path) -> dict[str, str]:
    """sha256 of every file under a run's output directory, by relative path."""
    return {str(path.relative_to(outdir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*")) if path.is_file()}
