"""In-process traced run of `windsent analyze`.

Run as a child process by the benchmark:

    python3 perfbench/tracing.py --hooks 1 --result OUT.json -- analyze --input ...

It imports the package from ``src``, wraps the public functions named in
``HOOKS`` from outside (nothing under ``src/windsent`` changes), then calls
the CLI entry point, which calls ``pipeline.run_analyze``. With ``--hooks 0``
nothing is patched: that is the plain CLI run the end-to-end metrics time,
and, set against a traced run, it gives the tracing overhead. Either way the
result file also gets the run's peak RSS.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written to the result file when the run ends; ``layer_metrics`` turns them
into per-layer self times. Hot per-token functions are counted, not spanned,
so the trace does not swamp what it measures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from array import array
from pathlib import Path

SPAN, COUNT = "span", "count"
RECORDER = "trace.recorder"


def peak_rss_mb() -> float:
    """High-water RSS of this process or of any descendant it has waited for,
    whichever is larger, so that worker processes count too. Own RSS is
    VmHWM, not getrusage: on Linux ru_maxrss also carries over the high-water
    mark of the address space replaced at exec, which for a child is its
    parent's, so it reads as the benchmark's own size whenever that is larger.
    A descendant's carried-over mark is at most this process's, so taking the
    larger of the two adds nothing that was not resident."""
    with open("/proc/self/status", encoding="utf-8", errors="replace") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
                break
        else:
            raise RuntimeError("VmHWM missing from /proc/self/status")
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def _docs_stats(tracer, docs) -> None:
    distinct: set[str] = set()
    tokens = dropped = 0
    for doc in docs:
        tokens += len(doc.tokens)
        distinct.update(doc.tokens)
        dropped += doc.drop_reason is not None
    tracer.values.update({"preprocess.tokens": tokens,
                          "preprocess.distinct_tokens": len(distinct),
                          "preprocess.dropped": dropped,
                          "preprocess.rss_hw_mb": peak_rss_mb()})


def _corpus_stats(tracer, result) -> None:
    collection, skipped = result if isinstance(result, tuple) else (result, ())
    tracer.values.update({"corpus.records": len(collection),
                          "corpus.skipped": len(skipped),
                          "corpus.rss_hw_mb": peak_rss_mb()})


def _rss_value(key: str):
    return lambda tracer, result: tracer.values.update({key: peak_rss_mb()})


# (module, attribute, kind, post-call recorder). A hook's span or counter is
# named after the binding it patches, without the package prefix. Names a
# module imports from another one are hooked where they are bound: analytics
# calls its own `tag_pos` binding and pipeline its own `load_lexicon_set`, so
# patching only the defining module would miss those calls.
HOOKS = (
    ("windsent.pipeline", "run_analyze", SPAN, None),
    ("windsent.pipeline", "analyze_collection", SPAN, _rss_value("pipeline.rss_hw_mb")),
    ("windsent.pipeline", "load_lexicon_set", SPAN, None),
    ("windsent.corpus", "load_corpus", SPAN, _corpus_stats),
    ("windsent.corpus", "load_corpus_lenient", SPAN, _corpus_stats),
    ("windsent.corpus", "write_skip_report", SPAN, None),
    ("windsent.preprocess", "default_config", SPAN, None),
    ("windsent.preprocess", "preprocess_corpus", SPAN, _docs_stats),
    ("windsent.engines", "score_all", SPAN, None),
    ("windsent.engines", "score_pattern_avg", SPAN, None),
    ("windsent.engines", "score_synset", SPAN, None),
    ("windsent.engines", "score_valence_rule", SPAN, None),
    ("windsent.engines", "tag_pos", SPAN, None),
    ("windsent.engines", "load_pos_table", SPAN, None),
    ("windsent.analytics", "tag_pos", COUNT, None),
    ("windsent.analytics", "label_comment", SPAN, None),
    ("windsent.analytics", "distribution", SPAN, None),
    ("windsent.analytics", "subjectivity_histogram", SPAN, None),
    ("windsent.analytics", "top_words", SPAN, None),
    ("windsent.analytics", "word_qualifies", COUNT, None),
    ("windsent.report", "write_report_files", SPAN, _rss_value("report.rss_hw_mb")),
    ("windsent.report", "report_json_bytes", SPAN,
     lambda tracer, result: tracer.values.update({"report.json_bytes": len(result)})),
    ("windsent.report", "comments_csv_text", SPAN, None),
    ("windsent.report", "ranking_csv_text", SPAN, None),
    ("windsent.svgplots", "render_report_plots", SPAN, None),
)


def hook_name(module_name: str, attr: str) -> str:
    return f"{module_name.removeprefix('windsent.')}.{attr}"


_LOADS = ("corpus.load_corpus", "corpus.load_corpus_lenient")
_CLEAN = ("preprocess.preprocess_corpus",)

# per-layer metric -> (unit, how, hooks it needs). "self" sums the self time
# of the named spans, "calls" counts spans plus counted calls, "value" reads
# what a hook's recorder stored under the metric's own name.
LAYER_METRICS = {
    "corpus.load_s": ("s", "self", _LOADS),
    "corpus.records": ("count", "value", _LOADS),
    "corpus.skipped": ("count", "value", _LOADS),
    "corpus.skip_write_s": ("s", "self", ("corpus.write_skip_report",)),
    "corpus.rss_hw_mb": ("MB", "value", _LOADS),
    "lexicons.load_s": ("s", "self", ("pipeline.load_lexicon_set",
                                      "preprocess.default_config",
                                      "engines.load_pos_table")),
    "preprocess.clean_s": ("s", "self", _CLEAN),
    "preprocess.tokens": ("count", "value", _CLEAN),
    "preprocess.distinct_tokens": ("count", "value", _CLEAN),
    "preprocess.dropped": ("count", "value", _CLEAN),
    "preprocess.rss_hw_mb": ("MB", "value", _CLEAN),
    "engines.pattern_avg_s": ("s", "self", ("engines.score_pattern_avg",)),
    "engines.synset_s": ("s", "self", ("engines.score_synset",)),
    "engines.tag_pos_s": ("s", "self", ("engines.tag_pos",)),
    "engines.tag_pos_calls": ("count", "calls", ("engines.tag_pos", "analytics.tag_pos")),
    "engines.valence_rule_s": ("s", "self", ("engines.score_valence_rule",)),
    "engines.score_all_self_s": ("s", "self", ("engines.score_all",)),
    "analytics.label_s": ("s", "self", ("analytics.label_comment",)),
    "analytics.aggregate_s": ("s", "self", ("analytics.distribution",
                                            "analytics.subjectivity_histogram")),
    "analytics.top_words_s": ("s", "self", ("analytics.top_words",)),
    "analytics.qualify_calls": ("count", "calls", ("analytics.word_qualifies",)),
    "report.json_s": ("s", "self", ("report.report_json_bytes",)),
    "report.json_bytes": ("bytes", "value", ("report.report_json_bytes",)),
    "report.csv_s": ("s", "self", ("report.comments_csv_text", "report.ranking_csv_text")),
    "report.write_self_s": ("s", "self", ("report.write_report_files",)),
    "report.rss_hw_mb": ("MB", "value", ("report.write_report_files",)),
    "svgplots.render_s": ("s", "self", ("svgplots.render_report_plots",)),
    "pipeline.self_s": ("s", "self", ("pipeline.run_analyze", "pipeline.analyze_collection")),
    "pipeline.rss_hw_mb": ("MB", "value", ("pipeline.analyze_collection",)),
}


class Tracer:
    """Span arrays, counters and recorded values of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, fn, name: str, post):
        name_id = self._name_id(name)
        # a recorder runs inside the caller's span; its own span keeps that
        # work out of the caller's self time
        recorder_id = self._name_id(RECORDER)
        stack, now = self.stack, time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(now())
            ends.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if post is not None:
                names.append(recorder_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(now())
                post(self, result)
                ends.append(now())
            return result
        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, hooks=HOOKS) -> None:
        """Patch every hook; a missing attribute gives a warning, not a crash."""
        for module_name, attr, kind, post in hooks:
            module = importlib.import_module(module_name)
            name = hook_name(module_name, attr)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                print(f"warning: trace hook {module_name}.{attr} not found; "
                      f"metrics that need it are null", file=sys.stderr)
                continue
            setattr(module, attr, self.span(fn, name, post) if kind == SPAN
                    else self.counter(fn, name))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
            "counts": self.counts,
            "values": self.values,
            "missing": self.missing,
        }


def span_totals(trace: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and span count per span name. A span's self time is its
    duration minus the durations of its direct child spans."""
    durations = [end - start for start, end in zip(trace["span_start"], trace["span_end"])]
    self_times = list(durations)
    for parent, duration in zip(trace["span_parent"], durations):
        if parent >= 0:
            self_times[parent] -= duration
    self_by_name = dict.fromkeys(trace["names"], 0.0)
    calls_by_name = dict.fromkeys(trace["names"], 0)
    for name_id, self_time in zip(trace["span_name"], self_times):
        name = trace["names"][name_id]
        self_by_name[name] += self_time
        calls_by_name[name] += 1
    return self_by_name, calls_by_name


def fired_hooks(trace: dict) -> set[str]:
    _, calls = span_totals(trace)
    return ({name for name, n in calls.items() if n}
            | {name for name, n in trace["counts"].items() if n})


def layer_metrics(trace: dict) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced run; None where a hook is missing."""
    self_time, calls = span_totals(trace)
    metrics = {}
    for metric, (_, how, hooks) in LAYER_METRICS.items():
        if any(hook in trace["missing"] for hook in hooks):
            metrics[metric] = None
        elif how == "self":
            metrics[metric] = sum(self_time.get(hook, 0.0) for hook in hooks)
        elif how == "calls":
            metrics[metric] = sum(calls.get(hook, 0) + trace["counts"].get(hook, 0)
                                  for hook in hooks)
        else:
            metrics[metric] = trace["values"].get(metric, 0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hooks", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="JSON file for spans and timing")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="`windsent` arguments after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from windsent import cli

    tracer = Tracer()
    if args.hooks:
        tracer.install()
    start = time.perf_counter()
    status = cli.main(cli_args)
    wall = time.perf_counter() - start
    result = tracer.dump() if args.hooks else {}
    result.update(wall_s=wall, status=status, peak_rss_mb=peak_rss_mb())
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
