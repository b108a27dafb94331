import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windsent import config as config_module
from windsent import engines
from windsent.cli import _flag_values, build_parser, main
from windsent.config import (
    SETTINGS,
    ConfigError,
    RunConfig,
    build_run_config,
    infer_format,
    parse_config_file,
)
from windsent.engines import ENGINES
from windsent.errors import WindsentError
from windsent.lexicons import LexiconFileError, bundled_lexicon_dir
from windsent.pipeline import run_analyze, run_preprocess_only
from windsent.report import SIDES, ranking_csv_text
from windsent.svgplots import CHART_FILES

SRC = Path(__file__).resolve().parents[1] / "src"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class TestRunAnalyze:
    def test_golden_run_is_byte_identical(self, golden_config, golden_dir):
        run_analyze(golden_config)
        produced = (golden_config.out_dir / "report.json").read_bytes()
        expected = (golden_dir / "golden_report.json").read_bytes()
        assert produced == expected

    def test_report_files_written(self, golden_config):
        run_analyze(golden_config)
        out = golden_config.out_dir
        names = {p.name for p in out.iterdir()}
        assert "report.json" in names and "comments.csv" in names
        for engine in ("pattern_avg", "synset", "valence_rule"):
            for side in ("negative", "positive"):
                assert f"ranking_{engine}_{side}.csv" in names

    def test_comment_table_consistent_with_distributions(self, golden_config):
        report = run_analyze(golden_config)
        for engine, dist in report.distributions.items():
            recount = {"negative": 0, "neutral": 0, "positive": 0}
            for row in report.comments:
                recount[row.labels[engine]] += 1
            assert recount == dict(dist.counts)
        assert len(report.comments) == report.kept_count
        assert report.kept_count + report.dropped_count == report.corpus_size

    def test_comments_csv_matches_report(self, golden_config):
        report = run_analyze(golden_config)
        with open(golden_config.out_dir / "comments.csv", newline="",
                  encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == report.kept_count
        by_id = {row.comment_id: row for row in report.comments}
        for row in rows:
            expected = by_id[row["id"]]
            assert float(row["valence_polarity"]) == expected.scores.valence_rule.polarity
            assert row["pattern_label"] == expected.labels["pattern_avg"]

    def test_empty_corpus_reports_zero_counts(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = RunConfig(input_path=empty, input_format="jsonl",
                           out_dir=tmp_path / "out")
        report = run_analyze(config)
        assert report.corpus_size == 0
        assert report.histogram.mean is None
        for dist in report.distributions.values():
            assert sum(dist.counts.values()) == 0

    def test_empty_corpus_plots_render_placeholders(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(empty), "--format", "jsonl",
                     "--out", str(out), "--plots"])
        assert code == 0
        plots = sorted((out / "plots").glob("*.svg"))
        assert len(plots) == 13
        for path in plots:
            content = path.read_text(encoding="utf-8")
            if "pie" in path.name:
                assert "empty" in content
            if path.name.startswith("distribution") and "bar" in path.name:
                assert content.count('height="0.00"') == 3

    def test_output_path_collision_is_reported(self, golden_corpus_path, tmp_path,
                                               capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        code = main(["analyze", "--input", str(golden_corpus_path),
                     "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR report/output-not-writable:")

    def test_missing_lexicon_fails_before_output(self, golden_corpus_path, tmp_path):
        config = RunConfig(input_path=golden_corpus_path, input_format="jsonl",
                           out_dir=tmp_path / "out", lexicon_dir=tmp_path / "nope")
        with pytest.raises(LexiconFileError):
            run_analyze(config)
        assert not (tmp_path / "out").exists()

    def test_lenient_mode_writes_skip_report(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "clean energy wins today"}\n'
                          '{"id": "b"}\n', encoding="utf-8")
        config = RunConfig(input_path=corpus, input_format="jsonl",
                           out_dir=tmp_path / "out", lenient=True)
        report = run_analyze(config)
        assert report.corpus_size == 1
        skipped = [json.loads(line) for line in
                   (tmp_path / "out" / "skipped.jsonl").read_text().splitlines()]
        assert skipped == [{"line": 2, "reason": "missing field: text"}]


class TestPreprocessOnly:
    def test_cleaned_jsonl_matches_manifest(self, golden_config, manifest, tmp_path):
        out_file = tmp_path / "cleaned.jsonl"
        run_preprocess_only(golden_config, out_file)
        records = [json.loads(line) for line in
                   out_file.read_text(encoding="utf-8").splitlines()]
        expected = manifest["cleaned"]
        assert len(records) == len(expected)
        for record, want in zip(records, expected):
            assert record["id"] == want["id"]
            assert record["tokens"] == want["tokens"]
            assert record["drop_reason"] == want["drop_reason"]
            assert record["dropped"] == (want["drop_reason"] is not None)
            assert record["text"] == " ".join(want["tokens"])

    def test_rerun_over_own_output_is_stable(self, golden_config, tmp_path):
        first_file = tmp_path / "first.jsonl"
        run_preprocess_only(golden_config, first_file)
        second_config = RunConfig(input_path=first_file, input_format="jsonl",
                                  out_dir=tmp_path, lenient=True)
        second_file = tmp_path / "second.jsonl"
        run_preprocess_only(second_config, second_file)
        first = {r["id"]: r for r in map(json.loads, first_file.read_text().splitlines())}
        second = {r["id"]: r for r in map(json.loads, second_file.read_text().splitlines())}
        for cid, record in second.items():
            assert record["tokens"] == first[cid]["tokens"]

    def test_all_null_corpus(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": " "}\n{"id": "b", "text": "\\t"}\n',
                          encoding="utf-8")
        config = RunConfig(input_path=corpus, input_format="jsonl", out_dir=tmp_path)
        out_file = tmp_path / "cleaned.jsonl"
        run_preprocess_only(config, out_file)
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [r["drop_reason"] for r in records] == ["null", "null"]


class TestConfigHandling:
    def test_flags_override_file(self, tmp_path, golden_corpus_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            f"input = {golden_corpus_path}\n"
            f"out = {tmp_path / 'from-file'}\n"
            "top_n = 10\n"
            "mode = engine-native\n"
            "# a comment\n",
            encoding="utf-8")
        file_values = parse_config_file(config_file)
        config = build_run_config(file_values, {"top_n": 5})
        assert config.top_n == 5
        assert config.mode == "engine_native"
        assert config.input_path == golden_corpus_path

    def test_repeated_key_is_one_error_line(self, tmp_path, golden_corpus_path, capsys):
        out = tmp_path / "out"
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            f"input = {golden_corpus_path}\n"
            f"out = {out}\n"
            "top_n = 5\n"
            "# the second value must not win silently\n"
            "top_n = 7\n",
            encoding="utf-8")
        code = main(["analyze", "--config", str(config_file)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["ERROR config/invalid: config line 5: repeated key 'top_n'"]
        assert not out.exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"inputt": "x"}, {"input": "a", "out": "b"})

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            build_run_config({"plots": "maybe"}, {"input": "a", "out": "b"})

    def test_format_inference(self):
        assert infer_format(Path("x.csv")) == "csv"
        assert infer_format(Path("x.jsonl")) == "jsonl"
        with pytest.raises(ConfigError):
            infer_format(Path("x.txt"))

    def test_digest_stable_under_path_relocation(self, golden_corpus_path, tmp_path):
        a = RunConfig(input_path=golden_corpus_path, input_format="jsonl",
                      out_dir=tmp_path / "a")
        copied = tmp_path / "elsewhere" / "corpus.jsonl"
        copied.parent.mkdir()
        copied.write_bytes(golden_corpus_path.read_bytes())
        b = RunConfig(input_path=copied, input_format="jsonl", out_dir=tmp_path / "b")
        assert a.digest() == b.digest()

    def test_digest_pins_every_valence_rule_field(self):
        # the fixed valence-rule constants are hashed by name, so changing
        # any of them, or the name it is recorded under, changes this value
        config = RunConfig(input_path=Path("in.jsonl"), input_format="jsonl",
                           out_dir=Path("out"))
        assert config.digest() == \
            "368678d702409b751c41ec8169226cd45f24a4f66c0e146ddad80325a8d3fb4e"

    def test_digest_changes_with_settings(self, golden_corpus_path, tmp_path):
        base = RunConfig(input_path=golden_corpus_path, input_format="jsonl",
                         out_dir=tmp_path)
        other = RunConfig(input_path=golden_corpus_path, input_format="jsonl",
                          out_dir=tmp_path, epsilon=0.05)
        assert base.digest() != other.digest()

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=2000))
    def test_digest_hash_is_sha256(self, data):
        assert config_module.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_digest_falls_back_to_hashlib(self):
        # with neither built-in SHA-256 module importable, config takes
        # hashlib's sha256 and the digest stays the same
        code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "from pathlib import Path; import hashlib; from windsent import config; "
                "assert config.sha256 is hashlib.sha256; "
                "print(config.RunConfig(Path('in.jsonl'), 'jsonl', Path('out')).digest())")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        expected = RunConfig(Path("in.jsonl"), "jsonl", Path("out")).digest()
        assert result.stdout == expected + "\n"


# config key -> (analyze flags, config-file text) for one non-default value
SETTING_CASES = {
    "input": (["--input", "other.csv"], "other.csv"),
    "format": (["--format", "CSV"], "CSV"),
    "out": (["--out", "elsewhere"], "elsewhere"),
    "lexicons": (["--lexicons", "mylex"], "mylex"),
    "mode": (["--mode", "engine-native"], "engine-native"),
    "epsilon": (["--epsilon", "0.05"], "0.05"),
    "top_n": (["--top-n", "5"], "5"),
    "plots": (["--plots"], "true"),
    "lenient": (["--lenient"], "yes"),
    "min_tokens": (["--min-tokens", "2"], "2"),
    "lemmatization": (["--no-lemmatize"], "false"),
    "stopwords": (["--stopwords", "stop.txt"], "stop.txt"),
    "lemmas": (["--lemmas", "lem.tsv"], "lem.tsv"),
    "disambiguation": (["--disambiguation", "average-senses"], "average-senses"),
    "bins": (["--bins", "20"], "20"),
}


def _analyze_parser():
    subparsers = next(action for action in build_parser()._actions
                      if action.choices and "analyze" in action.choices)
    return subparsers.choices["analyze"]


class TestSettingsTable:
    def test_cases_cover_every_setting(self):
        assert set(SETTING_CASES) == set(SETTINGS)

    def test_run_config_fields_are_the_settings(self):
        assert set(RunConfig._fields) == \
            {name for name, _ in SETTINGS.values()}

    def test_analyze_flag_dests_are_the_settings(self):
        dests = {action.dest for action in _analyze_parser()._actions}
        assert dests - {"help", "config"} == set(SETTINGS)

    def test_readme_names_each_key_and_its_flag(self):
        flags = {action.dest: action.option_strings for action in _analyze_parser()._actions
                 if action.dest in SETTINGS}
        renamed = {"lemmatization": ["--no-lemmatize"]}
        assert flags == {key: renamed.get(key, ["--" + key.replace("_", "-")])
                         for key in SETTINGS}
        readme = " ".join((SRC.parent / "README.md").read_text(encoding="utf-8").split())
        keys = readme.split("those of `windsent.config.SETTINGS`:", 1)[1].split(". Each", 1)[0]
        assert {word.strip("`,") for word in keys.split()} == set(SETTINGS)
        assert "`lemmatization = false` is `--no-lemmatize`" in readme

    @pytest.mark.parametrize("key", sorted(SETTING_CASES))
    def test_file_value_equals_flag_value(self, key):
        flags, text = SETTING_CASES[key]
        base = {"input": "in.jsonl", "out": "out"}
        default = build_run_config(base, {})
        from_file = build_run_config({**base, key: text}, {})
        args = build_parser().parse_args(
            ["analyze", "--input", "in.jsonl", "--out", "out", *flags])
        from_flag = build_run_config({}, _flag_values(args))
        assert from_flag == from_file
        field = SETTINGS[key][0]
        assert getattr(from_file, field) != getattr(default, field)

    @pytest.mark.parametrize("flags", [
        ["--top-n", "x"], ["--epsilon", "abc"], ["--bins", "1.5"],
        ["--min-tokens", "x"], ["--format", "xml"], ["--bins", "0"],
        ["--bins", "281"],
    ])
    def test_bad_flag_value_is_one_error_line(self, golden_corpus_path, tmp_path,
                                              capsys, flags):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(golden_corpus_path),
                     "--out", str(out), *flags])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR config/invalid:")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("args,key", [
        (["analyze", "--input", "{corpus}", "--out", ""], "out"),
        (["analyze", "--input", "{corpus}", "--out", "o", "--lexicons", ""], "lexicons"),
        (["analyze", "--input", "{corpus}", "--out", "o", "--stopwords", ""], "stopwords"),
        (["analyze", "--config", "{conf}"], "out"),
        (["preprocess", "--input", "{corpus}", "--out", ""], "out"),
        (["preprocess", "--input", "", "--out", "o.jsonl"], "input"),
        (["top-words", "--report", "{report}", "--out", ""], "out"),
        (["top-words", "--report", ""], "report"),
        (["plot", "--report", "{report}", "--out", ""], "out"),
        (["plot", "--report", "", "--out", "o"], "report"),
        # an empty --config ran on the defaults as if none were given
        (["analyze", "--config", "", "--input", "{corpus}", "--out", "o"], "config"),
        (["preprocess", "--config", "", "--input", "{corpus}", "--out", "o.jsonl"], "config"),
    ], ids=["analyze-out", "analyze-lexicons", "analyze-stopwords", "analyze-config-out",
            "preprocess-out", "preprocess-input", "top-words-out", "top-words-report",
            "plot-out", "plot-report", "analyze-config", "preprocess-config"])
    def test_empty_path_is_refused(self, golden_corpus_path, golden_dir, tmp_path,
                                   monkeypatch, capsys, args, key):
        # Path("") is the working directory: analyze --out "" wrote its report there
        conf = tmp_path / "run.conf"
        conf.write_text(f"input = {golden_corpus_path}\nout =\n", encoding="utf-8")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        names = {"corpus": golden_corpus_path, "conf": conf,
                 "report": golden_dir / "golden_report.json"}
        assert main([arg.format(**names) for arg in args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR config/invalid: {key}: expected a path, got ''\n"
        assert list(cwd.iterdir()) == []


def _set_leaf(path: str, value):
    """Mutator for a report dict: set the leaf at a dotted path (list
    indices as digits) to ``value``."""
    *parents, last = path.split(".")

    def mutate(data):
        node = data
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(last) if isinstance(node, list) else last] = value
    return mutate


def _more_bins_than_drawable(data):
    data["subjectivity"].update(counts=[1] * 300,
                                bin_edges=[i / 300 for i in range(301)])


def _bin_edges(count: int):
    """Mutator: ``count`` evenly spaced histogram edges for the report's
    unchanged bins."""
    def mutate(data):
        data["subjectivity"]["bin_edges"] = [i / (count - 1) for i in range(count)]
    return mutate


class TestCli:
    def test_analyze_subcommand(self, golden_corpus_path, golden_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(golden_corpus_path),
                     "--format", "jsonl", "--out", str(out), "--plots"])
        assert code == 0
        assert (out / "report.json").read_bytes() == \
            (golden_dir / "golden_report.json").read_bytes()
        assert len(list((out / "plots").glob("*.svg"))) == 13
        assert "analyzed 50 comments" in capsys.readouterr().out

    def test_mode_flag_spelling(self, golden_corpus_path, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(golden_corpus_path),
                     "--mode", "engine-native", "--out", str(out)])
        assert code == 0
        assert read_json(out / "report.json")["meta"]["pipeline_mode"] == "engine_native"

    def test_error_surface_is_single_line(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "missing.jsonl"),
                     "--format", "jsonl", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR corpus/file-not-readable:")

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, golden_corpus_path, tmp_path, capsys,
                                         epsilon):
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(golden_corpus_path),
                     "--epsilon", epsilon, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR config/invalid:")
        assert not (out / "report.json").exists()

    def test_malformed_record_error_code(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a"}\n', encoding="utf-8")
        code = main(["analyze", "--input", str(corpus), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR corpus/malformed-record:")

    def test_preprocess_subcommand(self, golden_corpus_path, tmp_path, capsys):
        out_file = tmp_path / "cleaned.jsonl"
        code = main(["preprocess", "--input", str(golden_corpus_path),
                     "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(records) == 50

    @staticmethod
    def _rankings_text(golden_dir, pairs):
        """What ``top-words`` prints for these (engine, side) pairs of the
        golden report: a ``# <engine> <side>`` line, then the ranking CSV."""
        rankings = read_json(golden_dir / "golden_report.json")["rankings"]
        return "".join(f"# {engine} {side}\n"
                       + ranking_csv_text(rankings[engine][side])
                       for engine, side in pairs)

    def test_top_words_stdout(self, golden_dir, capsys, monkeypatch):
        monkeypatch.setattr(engines, "score_all", None)  # only analyze scores
        code = main(["top-words", "--report", str(golden_dir / "golden_report.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == self._rankings_text(
            golden_dir, [(engine, side) for engine in ENGINES for side in SIDES])

    def test_top_words_written(self, golden_corpus_path, tmp_path, capsys):
        analyzed = tmp_path / "analyzed"
        assert main(["analyze", "--input", str(golden_corpus_path),
                     "--out", str(analyzed)]) == 0
        out = tmp_path / "rankings"
        code = main(["top-words", "--report", str(analyzed / "report.json"),
                     "--out", str(out)])
        assert code == 0
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(path.name for path in analyzed.glob("ranking_*.csv"))
        assert len(written) == 6
        for name in written:
            assert (out / name).read_bytes() == (analyzed / name).read_bytes()

    @pytest.mark.parametrize("flags,pairs", [
        (["--engine", "synset"], [("synset", "negative"), ("synset", "positive")]),
        (["--side", "positive"], [(engine, "positive") for engine in ENGINES]),
        (["--engine", "valence_rule", "--side", "negative"], [("valence_rule", "negative")]),
    ])
    def test_top_words_filters(self, golden_dir, tmp_path, capsys, flags, pairs):
        report = str(golden_dir / "golden_report.json")
        assert main(["top-words", "--report", report, *flags]) == 0
        assert capsys.readouterr().out == self._rankings_text(golden_dir, pairs)
        out = tmp_path / "rankings"
        assert main(["top-words", "--report", report, *flags, "--out", str(out)]) == 0
        names = [f"ranking_{engine}_{side}.csv" for engine, side in pairs]
        assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in names)
        assert sorted(path.name for path in out.iterdir()) == sorted(names)

    @pytest.mark.parametrize("flags", [
        ["--input", "c.jsonl"], ["--lenient"], ["--config", "run.conf"], ["--top-n", "5"],
    ], ids=lambda flags: flags[0])
    def test_top_words_reads_no_corpus(self, golden_dir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["top-words", "--report", str(golden_dir / "golden_report.json"), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    def test_plot_subcommand_rerenders(self, golden_config, golden_dir, tmp_path,
                                       capsys):
        run_analyze(golden_config)
        replot = tmp_path / "replot"
        code = main(["plot", "--report",
                     str(golden_config.out_dir / "report.json"),
                     "--out", str(replot)])
        assert code == 0
        import hashlib
        pinned = read_json(golden_dir / "svg_digests.json")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in replot.glob("*.svg")}
        assert digests == pinned

    @staticmethod
    def _refusal(report, out, capsys):
        """The one stderr line that ``plot`` and ``top-words --out`` both
        print for ``report``, after checking that each exits 1 and writes
        nothing."""
        lines = []
        for command in ("plot", "top-words"):
            assert main([command, "--report", str(report), "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines += captured.err.strip().splitlines()
        assert not out.exists()
        plot_line, top_words_line = lines
        assert plot_line == top_words_line
        return plot_line

    def test_plot_missing_report_error(self, tmp_path, capsys):
        report = tmp_path / "nope.json"
        assert self._refusal(report, tmp_path / "o", capsys).startswith(
            f"ERROR report/file-not-readable: {report}:")

    @pytest.mark.parametrize("content", [
        '{"meta": {}}', "[1, 2]",
        pytest.param('{"meta": ' + "9" * 5000 + "}", id="int-too-long"),
        pytest.param("\xff", id="not-utf8"),
    ])
    def test_plot_structurally_wrong_report_error(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        # latin-1 writes ASCII unchanged and \xff as a byte that is not UTF-8
        report.write_text(content, encoding="latin-1")
        assert self._refusal(report, tmp_path / "o", capsys).startswith(
            f"ERROR report/file-not-readable: {report}:")

    @pytest.mark.parametrize("mutate", [
        _set_leaf("distributions.pattern_avg.counts.positive", True),
        _set_leaf("distributions.synset.counts.neutral", "3"),
        _set_leaf("subjectivity.bin_edges.0", "0.0"),
        _set_leaf("subjectivity.counts.0", "7"),
        _set_leaf("rankings.valence_rule.positive.0", [1, 2]),
        _set_leaf("rankings.valence_rule.negative.0", ["word", "2"]),
        _set_leaf("rankings.synset.positive.0", ["word"]),
        lambda data: data["distributions"].pop("synset"),
        _set_leaf("distributions.synset.counts.positive", -5),
        _more_bins_than_drawable,
        _set_leaf("rankings.valence_rule.positive", [["a", 5], ["b", -3]]),
        _set_leaf("distributions.pattern_avg.counts.negative", 10**400),
        pytest.param(_bin_edges(5), id="edges-too-few"),
        pytest.param(_bin_edges(30), id="edges-too-many"),
        pytest.param(_set_leaf("subjectivity.counts", []), id="no-bins"),
        # what an SVG cannot hold: these wrote broken files or ended in a traceback
        pytest.param(_set_leaf("rankings.valence_rule.positive.0.0", "\ud800"),
                     id="word-lone-surrogate"),
        pytest.param(_set_leaf("rankings.pattern_avg.negative.0.0", "a\x00b"), id="word-nul"),
        pytest.param(_set_leaf("rankings.synset.positive.0.0", "a\x0bb"), id="word-vt"),
        pytest.param(_set_leaf("subjectivity.bin_edges.3", float("nan")), id="edge-nan"),
        pytest.param(_set_leaf("subjectivity.bin_edges.10", float("inf")), id="edge-inf"),
        pytest.param(_set_leaf("subjectivity.bin_edges.2", 10**400), id="edge-past-float"),
        # edges that do not strictly ascend drew labels 1.00 ... 0.00
        pytest.param(lambda data: data["subjectivity"]["bin_edges"].reverse(),
                     id="edges-descending"),
        pytest.param(_set_leaf("subjectivity.bin_edges", [0.5] * 11), id="edges-flat"),
    ])
    def test_plot_wrong_leaf_types_error(self, golden_dir, tmp_path, capsys, mutate):
        data = read_json(golden_dir / "golden_report.json")
        mutate(data)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(data), encoding="utf-8")
        assert self._refusal(report, tmp_path / "o", capsys).startswith(
            f"ERROR report/file-not-readable: {report}:")

    @pytest.mark.parametrize("command,target", [
        ("analyze", "sub"), ("top-words", "sub"), ("preprocess", "sub/x.jsonl"),
        ("plot", "sub"),
    ])
    def test_unwritable_out_is_one_error_line(self, golden_corpus_path, golden_dir, tmp_path,
                                              capsys, command, target):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        if command in ("top-words", "plot"):
            source = ["--report", str(golden_dir / "golden_report.json")]
        else:
            source = ["--input", str(golden_corpus_path)]
        code = main([command, *source, "--out", str(blocker / target)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ERROR report/output-not-writable:")

    def test_lenient_duplicate_ids_end_to_end(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            '{"id": "a", "text": "clean energy is a great idea"}\n'
            '{"id": "a", "text": "the turbines are horrible"}\n',
            encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(corpus), "--out", str(out),
                     "--lenient"])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["meta"]["corpus_size"] == 1
        skipped = [json.loads(line) for line in
                   (out / "skipped.jsonl").read_text().splitlines()]
        assert skipped[0]["line"] == 2 and "duplicate id" in skipped[0]["reason"]

    @pytest.mark.parametrize("record,reason", [
        pytest.param('{"text": "x"}', "missing field: id", id="missing-id"),
        pytest.param('{"id": "  ", "text": "x"}', "missing field: id", id="blank-id"),
        pytest.param('{"id": "b"}', "missing field: text", id="missing-text"),
        pytest.param('{"id": "b", "text": ""}', "text is empty", id="empty-text"),
        pytest.param('{"id": 5, "text": "x"}', "field id: must be a string", id="id-number"),
        pytest.param('{"id": "b", "text": 7}', "field text: must be a string", id="text-number"),
        pytest.param('{"id": "b", "text": "wind \\ud800"}',
                     "field text: contains a lone surrogate", id="lone-surrogate"),
    ])
    def test_bad_record_reason_strict_and_lenient(self, tmp_path, capsys, record, reason):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "text": "clean energy is a great idea"}\n'
                          + record + "\n", encoding="utf-8")
        code = main(["analyze", "--input", str(corpus), "--out", str(tmp_path / "strict")])
        assert code == 1
        assert capsys.readouterr().err == f"ERROR corpus/malformed-record: line 2: {reason}\n"
        out = tmp_path / "lenient"
        code = main(["analyze", "--input", str(corpus), "--out", str(out), "--lenient"])
        assert code == 0
        skipped = (out / "skipped.jsonl").read_text(encoding="utf-8")
        assert skipped == json.dumps({"line": 2, "reason": reason}) + "\n"

    def test_bad_config_file_line(self, tmp_path, capsys):
        config_file = tmp_path / "run.conf"
        config_file.write_text("input corpus.jsonl\n", encoding="utf-8")
        code = main(["analyze", "--config", str(config_file)])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR config/invalid:")

    def test_csv_corpus_end_to_end(self, tmp_path):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "id,text,source_group,timestamp\n"
            'r1,"Clean energy is a great idea",grp,\n'
            'r2,"The noise is a nuisance and the blades kill birds",,\n',
            encoding="utf-8")
        out = tmp_path / "out"
        code = main(["analyze", "--input", str(corpus), "--out", str(out)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["meta"]["corpus_size"] == 2
        labels = {row["id"]: row["labels"]["valence_rule"]
                  for row in report["comments"]}
        assert labels == {"r1": "positive", "r2": "negative"}


class TestReportRoundTrip:
    def test_ranking_csvs_match_report(self, golden_config):
        report = run_analyze(golden_config)
        for engine, sides in report.rankings.items():
            for side, ranking in sides.items():
                path = golden_config.out_dir / f"ranking_{engine}_{side}.csv"
                with open(path, newline="", encoding="utf-8") as handle:
                    rows = list(csv.reader(handle))
                assert rows[0] == ["word", "frequency"]
                assert [(w, int(c)) for w, c in rows[1:]] == list(ranking.entries)


class TestCliConfigFile:
    def test_config_file_drives_a_run(self, golden_corpus_path, tmp_path, capsys):
        out = tmp_path / "out"
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            "# analysis settings\n"
            f"input = {golden_corpus_path}\n"
            "format = jsonl\n"
            f"out = {out}\n"
            "top_n = 3\n"
            "plots = false\n",
            encoding="utf-8")
        code = main(["analyze", "--config", str(config_file)])
        assert code == 0
        report = read_json(out / "report.json")
        assert report["meta"]["top_n"] == 3
        for sides in report["rankings"].values():
            for entries in sides.values():
                assert len(entries) <= 3

    def test_flag_overrides_config_file(self, golden_corpus_path, tmp_path):
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            f"input = {golden_corpus_path}\n"
            f"out = {tmp_path / 'file-out'}\n"
            "epsilon = 0.5\n",
            encoding="utf-8")
        out = tmp_path / "flag-out"
        code = main(["analyze", "--config", str(config_file),
                     "--epsilon", "0.0", "--out", str(out)])
        assert code == 0
        assert read_json(out / "report.json")["meta"]["epsilon"] == 0.0
        assert not (tmp_path / "file-out").exists()

    def test_epsilon_widens_the_neutral_band(self, golden_corpus_path, tmp_path):
        narrow = tmp_path / "narrow"
        wide = tmp_path / "wide"
        assert main(["analyze", "--input", str(golden_corpus_path),
                     "--out", str(narrow)]) == 0
        assert main(["analyze", "--input", str(golden_corpus_path),
                     "--epsilon", "0.9", "--out", str(wide)]) == 0
        narrow_neutral = read_json(narrow / "report.json")[
            "distributions"]["valence_rule"]["counts"]["neutral"]
        wide_neutral = read_json(wide / "report.json")[
            "distributions"]["valence_rule"]["counts"]["neutral"]
        assert wide_neutral > narrow_neutral


@pytest.mark.parametrize("mode", ["paper-faithful", "engine-native"])
def test_output_tree_does_not_depend_on_the_hash_seed(golden_corpus_path, tmp_path, mode):
    # several stages iterate over sets of strings, whose order follows the
    # per-process hash seed; no output byte may follow it
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        subprocess.run(
            [sys.executable, "-m", "windsent.cli", "analyze", "--input", str(golden_corpus_path),
             "--mode", mode, "--no-lemmatize", "--plots", "--out", str(out)],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": python_path})
        trees.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(trees[0]) == 2 + 6 + len(CHART_FILES)  # report, comments, rankings, charts
    assert trees[0] == trees[1]


def _files(path: Path) -> dict[str, bytes]:
    """The bytes of the file at ``path``, or of each file under it."""
    if path.is_file():
        return {".": path.read_bytes()}
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", [["analyze", "--plots"], ["preprocess"]],
                         ids=["analyze", "preprocess"])
@pytest.mark.parametrize("table", [None, "lenses\tlens\n"], ids=["missing", "not-final"])
def test_no_lemmatize_reads_no_lemma_table(golden_corpus_path, tmp_path, capsys, command, table):
    # named lemmas.tsv, as the bundled table is, so that the config digest is the same
    lemmas = tmp_path / "given" / "lemmas.tsv"
    if table is not None:
        lemmas.parent.mkdir()
        lemmas.write_text(table, encoding="utf-8")
    outputs = []
    for extra in ([], ["--lemmas", str(lemmas)]):
        out = tmp_path / f"out{len(outputs)}"
        assert main([*command, "--input", str(golden_corpus_path), "--no-lemmatize",
                     *extra, "--out", str(out)]) == 0
        outputs.append(_files(out))
    assert capsys.readouterr().err == ""
    assert outputs[0] and outputs[0] == outputs[1]


def test_success_lines_escape_a_path_that_stdout_cannot_encode(golden_corpus_path, tmp_path):
    # a strict UTF-8 stdout, as under a UTF-8 locale, cannot print a path's
    # non-UTF-8 byte (\xff, decoded as the lone surrogate \udcff): each
    # command prints it backslash-escaped, as an ERROR line on stderr does
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict", "PYTHONPATH": python_path}
    trees = []
    for name in ("plain", "odd\udcff"):
        base = tmp_path / name
        base.mkdir()
        report = str(base / "analyze" / "report.json")
        for args in (["analyze", "--plots", "--input", str(golden_corpus_path)],
                     ["preprocess", "--input", str(golden_corpus_path)],
                     ["top-words", "--report", report], ["plot", "--report", report]):
            out = base / (args[0] + (".jsonl" if args[0] == "preprocess" else ""))
            result = subprocess.run([sys.executable, "-m", "windsent.cli", *args,
                                     "--out", str(out)], env=env, capture_output=True)
            assert result.returncode == 0, result.stderr
            assert b"Traceback" not in result.stderr
            assert (b"odd\\udcff" in result.stdout) == (name != "plain")
        trees.append(_files(base))
    assert len(trees[0]) == 1 + (2 + 6 + len(CHART_FILES)) + 6 + len(CHART_FILES)
    assert trees[0] == trees[1]


def test_top_words_escapes_a_word_that_stdout_cannot_encode(tmp_path):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(bundled_lexicon_dir(), lexicons)
    with open(lexicons / "valence.tsv", "a", encoding="utf-8") as handle:
        handle.write("\u00e9olienne\t3.0\n")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"id": "a", "text": "\u00e9olienne great wind"}\n', encoding="utf-8")
    assert main(["analyze", "--input", str(corpus), "--lexicons", str(lexicons),
                 "--out", str(tmp_path / "out")]) == 0
    python_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "windsent.cli", "top-words", "--report",
         str(tmp_path / "out" / "report.json"), "--engine", "valence_rule", "--side", "positive"],
        env={**os.environ, "PYTHONIOENCODING": "ascii:strict", "PYTHONPATH": python_path},
        capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == b"# valence_rule positive\nword,frequency\ngreat,1\n\\xe9olienne,1\n"


CROSS_PYTHON = SRC.parent / "tools" / "cross_python.py"


def test_cross_python_finds_the_same_bytes_under_the_same_interpreter():
    result = subprocess.run([sys.executable, str(CROSS_PYTHON), sys.executable],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == f"same bytes: {sys.executable}\n"


def test_cross_python_names_a_file_that_differs(tmp_path):
    # an "interpreter" that runs windsent, then appends a byte to comments.csv
    fake = tmp_path / "fake-python"
    fake.write_text(f"#!{sys.executable}\n"
                    "import subprocess, sys\n"
                    "from pathlib import Path\n"
                    f"code = subprocess.run([{sys.executable!r}, *sys.argv[1:]]).returncode\n"
                    "out = sys.argv[sys.argv.index('--out') + 1] if '--out' in sys.argv else ''\n"
                    "csv = Path(out) / 'comments.csv'\n"
                    "if out and csv.is_file():\n"
                    "    csv.write_bytes(csv.read_bytes() + b'x')\n"
                    "sys.exit(code)\n", encoding="utf-8")
    fake.chmod(0o755)
    result = subprocess.run([sys.executable, str(CROSS_PYTHON), str(fake)],
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    # two analyze runs on each of two corpora, one on each other, one with custom lemmas,
    # and one that does not lemmatize, given a table that is refused
    assert len(lines) == 9
    assert lines[0].startswith(f"DIFFERS {fake}: golden/analyze: comments.csv differs at line ")


def test_cross_python_names_an_error_line_that_differs(tmp_path):
    # an "interpreter" whose ERROR lines name the line after the right one
    fake = tmp_path / "fake-python"
    fake.write_text(f"#!{sys.executable}\n"
                    "import subprocess, sys\n"
                    f"run = subprocess.run([{sys.executable!r}, *sys.argv[1:]],\n"
                    "                     capture_output=True, text=True)\n"
                    "sys.stdout.write(run.stdout)\n"
                    "sys.stderr.write(run.stderr.replace('line 3:', 'line 4:'))\n"
                    "sys.exit(run.returncode)\n", encoding="utf-8")
    fake.chmod(0o755)
    result = subprocess.run([sys.executable, str(CROSS_PYTHON), str(fake)],
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 6  # strict and lenient runs on three bad CSVs
    assert lines[0] == (
        f"DIFFERS {fake}: csv-unclosed-quote/analyze: exit status 1 (ERROR "
        "corpus/malformed-record: line 4: invalid CSV: unexpected end of data), not exit "
        "status 1 (ERROR corpus/malformed-record: line 3: invalid CSV: unexpected end of "
        f"data) (reference {sys.executable})")


def test_cross_python_names_an_oracle_file_that_differs(tmp_path):
    # an "interpreter" whose oracle run writes one byte more into manifest.json
    fake = tmp_path / "fake-python"
    fake.write_text(f"#!{sys.executable}\n"
                    "import subprocess, sys\n"
                    "from pathlib import Path\n"
                    f"code = subprocess.run([{sys.executable!r}, *sys.argv[1:]]).returncode\n"
                    "if sys.argv[1].endswith('golden_reference.py'):\n"
                    "    manifest = Path('tests/golden/manifest.json')\n"
                    "    manifest.write_bytes(manifest.read_bytes() + b'x')\n"
                    "sys.exit(code)\n", encoding="utf-8")
    fake.chmod(0o755)
    result = subprocess.run([sys.executable, str(CROSS_PYTHON), str(fake)],
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"DIFFERS {fake}: oracle vs tests/golden: manifest.json differs at line ")


def test_cross_python_names_an_interpreter_that_cannot_run_once(tmp_path):
    # a shim whose version is not selected exits 127 before running anything
    shim = tmp_path / "python-shim"
    shim.write_text("#!/bin/sh\nexit 127\n", encoding="utf-8")
    shim.chmod(0o755)
    missing = tmp_path / "no-such-python"
    result = subprocess.run([sys.executable, str(CROSS_PYTHON), str(shim), str(missing)],
                            capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        f"CANNOT RUN {shim}: exit status 127",
        f"CANNOT RUN {missing}: No such file or directory"]


def test_readme_error_table_lists_every_printable_code():
    # windsent.cli, imported above, imports every module that defines an error
    def public_subclasses(cls):
        for sub in cls.__subclasses__():
            if not sub.__name__.startswith("_"):
                yield sub
            yield from public_subclasses(sub)

    codes = {cls.code for cls in public_subclasses(WindsentError)}
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Errors\n", 1)[1].split("\n#", 1)[0]
    table = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    assert codes == table
