"""The CLI runs each command with the cyclic garbage collector off. That is
safe because a command builds no reference cycles, so reference counting
frees every record; these tests hold that invariant and check that the
caller's collector setting comes back on every way out of ``cli.main``."""

import gc
import json
from contextlib import contextmanager

import pytest

from windsent import cli, pipeline


@contextmanager
def collector(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def write_corpora(golden_corpus_path, tmp_path):
    lines = golden_corpus_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    tenfold = tmp_path / "tenfold.jsonl"
    tenfold.write_text("".join(json.dumps({**record, "id": f"{record['id']}-{k}"}) + "\n"
                               for k in range(10) for record in records), encoding="utf-8")
    bad = ['{"text": "no id"}', '{"id": "empty", "text": ""}', '{"id": 7, "text": "x"}',
           '{"id": "s", "text": ["x"]}', json.dumps(records[0])]
    lenient = tmp_path / "lenient.jsonl"
    lenient.write_text("\n".join(lines[:20] + bad + lines[20:]) + "\n", encoding="utf-8")
    return tenfold, lenient


def analyze(corpus, out, *flags):
    return cli.main(["analyze", "--input", str(corpus), "--plots", *flags, "--out", str(out)])


def test_no_cycles_grow_with_the_corpus(golden_corpus_path, tmp_path):
    tenfold, lenient = write_corpora(golden_corpus_path, tmp_path)
    assert analyze(golden_corpus_path, tmp_path / "warm-up") == 0  # lazy imports and loads
    runs = [(golden_corpus_path, ()), (tenfold, ()), (lenient, ("--lenient",))]
    found = []
    with collector(False):
        gc.collect()
        for index, (corpus, flags) in enumerate(runs):
            assert analyze(corpus, tmp_path / str(index), *flags) == 0
            found.append(gc.collect())
    assert (tmp_path / "2" / "skipped.jsonl").read_text(encoding="utf-8").count("\n") == 5
    # what is found comes from argument parsing, the same on every run
    assert found == [found[0]] * len(runs), found


def raising_run(config):
    raise RuntimeError(f"collector enabled: {gc.isenabled()}")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["success", "error", "exception"])
def test_main_restores_the_callers_collector_setting(golden_corpus_path, tmp_path, capsys,
                                                     monkeypatch, enabled, outcome):
    _, lenient = write_corpora(golden_corpus_path, tmp_path)
    with collector(enabled):
        if outcome == "success":
            assert analyze(golden_corpus_path, tmp_path / "out") == 0
        elif outcome == "error":
            assert analyze(lenient, tmp_path / "out") == 1  # strict: the bad records abort
            assert capsys.readouterr().err.startswith("ERROR corpus/malformed-record: line 21: ")
        else:
            monkeypatch.setattr(pipeline, "run_analyze", raising_run)
            with pytest.raises(RuntimeError, match="collector enabled: False"):
                analyze(golden_corpus_path, tmp_path / "out")
        assert gc.isenabled() is enabled
