"""Command-line interface.

Subcommands mirror the pipeline stages:
  analyze    - full run: load, clean, score, label, aggregate, write report
  preprocess - cleaning only, writes a JSONL of cleaned documents
  top-words  - print or write the word rankings of an existing report.json
  plot       - re-render the SVG charts from an existing report.json

Domain errors print a single machine-parsable line on stderr
(``ERROR <code>: <message>``) and exit nonzero.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import pipeline, report as report_mod, svgplots
from .config import SETTINGS, build_run_config, parse_config_file, parse_path
from .corpus import parse_int
from .engines import ENGINES
from .errors import WindsentError, read_text


class ReportNotReadableError(WindsentError):
    code = "report/file-not-readable"


def _add_common_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="corpus file (CSV or JSONL)")
    parser.add_argument("--format", help="corpus format: csv or jsonl (default: "
                                          "inferred from the file suffix)")
    parser.add_argument("--config", help="flat key=value config file; flags win")
    parser.add_argument("--lenient", action="store_true", default=None,
                        help="skip malformed records instead of aborting "
                             "(writes skipped.jsonl)")
    parser.add_argument("--stopwords", help="stopword file override")
    parser.add_argument("--lemmas", help="lemma table override")
    parser.add_argument("--min-tokens", dest="min_tokens",
                        help="drop cleaned comments shorter than this many tokens "
                             "(default 3)")
    parser.add_argument("--no-lemmatize", action="store_false", default=None,
                        dest="lemmatization", help="disable lemmatization")


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicons", help="directory with valence.tsv, pattern.tsv, "
                                           "synset.tsv (default: bundled)")
    parser.add_argument("--mode", help="paper-faithful (default) or engine-native")
    parser.add_argument("--epsilon",
                        help="neutral band half-width for labeling (default 0)")
    parser.add_argument("--top-n", dest="top_n",
                        help="ranking length (default 30)")
    parser.add_argument("--bins", help="subjectivity histogram bins, 1 to "
                                       f"{svgplots.MAX_BINS} (default 10)")
    parser.add_argument("--disambiguation",
                        help="synset sense choice: first-sense (default) or "
                             "average-senses")


def _flag_values(args: argparse.Namespace) -> dict[str, object]:
    """The settings the user passed as flags, keyed by their config key."""
    return {key: value for key, value in vars(args).items()
            if key in SETTINGS and value is not None}


def _build_config(args: argparse.Namespace):
    file_values = parse_config_file(args.config) if args.config is not None else {}
    return build_run_config(file_values, _flag_values(args))


def _say(line: str) -> None:
    """Print ``line``, backslash-escaping what stdout cannot encode, as stderr does."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = pipeline.run_analyze(config)
    _say(f"analyzed {result.corpus_size} comments "
         f"({result.kept_count} kept, {result.dropped_count} dropped) "
         f"-> {config.out_dir}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    config = _build_config(args)
    out_path = pipeline.run_preprocess_only(config, config.out_dir)
    _say(f"wrote cleaned corpus -> {out_path}")
    return 0


def _read_report(path: str) -> tuple[dict, list, list, dict]:
    """The ``svgplots.drawn_values`` of the report.json at ``path``; a
    refusal names the file."""
    parse_path(path, "report")  # the check alone: a refusal names the file as given
    text = read_text(path, ReportNotReadableError)
    try:
        summary = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ReportNotReadableError(f"{path}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:  # too deep nesting
        raise ReportNotReadableError(f"{path}: {exc}") from exc
    try:
        return svgplots.drawn_values(summary)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportNotReadableError(
            f"{path}: not a windsent report ({type(exc).__name__}: {exc})") from exc


def cmd_top_words(args: argparse.Namespace) -> int:
    *_, rankings = _read_report(args.report)
    wanted = {(engine, side): entries for (engine, side), entries in rankings.items()
              if args.engine in (None, engine) and args.side in (None, side)}
    if args.out is None:
        for (engine, side), entries in wanted.items():
            print(f"# {engine} {side}")
            _say(report_mod.ranking_csv_text(entries).removesuffix("\n"))
        return 0
    for path in report_mod.write_ranking_files(wanted, parse_path(args.out, "out")):
        _say(f"wrote {path}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    written = svgplots.render_report_plots(_read_report(args.report),
                                           parse_path(args.out, "out"))
    _say(f"wrote {len(written)} SVG files -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windsent",
        description="Deterministic lexicon-based opinion mining: clean a "
                    "social-media corpus, score it with three rule-based "
                    "sentiment engines, label by sign, and report "
                    "distributions, subjectivity, and top words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline and write a report")
    _add_common_input_flags(p)
    _add_analysis_flags(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--plots", action="store_true", default=None,
                   help="also render the SVG charts")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("preprocess", help="clean the corpus only")
    _add_common_input_flags(p)
    p.add_argument("--out", help="output JSONL file for cleaned documents")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("top-words", help="print or write a report.json's word rankings")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--engine", choices=ENGINES,
                   help="restrict to one engine")
    p.add_argument("--side", choices=report_mod.SIDES,
                   help="restrict to one side")
    p.add_argument("--out", help="directory for ranking CSVs (default: stdout)")
    p.set_defaults(func=cmd_top_words)

    p = sub.add_parser("plot", help="re-render SVG charts from a report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", required=True, help="output directory for SVGs")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds no reference cycles, so the cyclic collector would
    # only re-walk its records without freeing any; reference counting frees
    # them all. The caller's collector setting is restored on every exit.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except WindsentError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
