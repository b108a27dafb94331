"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

On the 50-comment golden corpus it checks that every trace hook fires and no
per-layer metric is null, that the gate passes the real output and fails a
deliberately corrupted one, that a missing hook gives null metrics and a
warning instead of a crash, that peak RSS follows a subprocess that grows
larger than its parent, that the corpus generator is deterministic and
keeps every workload in its intended shape, and that BENCHMARK.json names
what the benchmark emits. Exits nonzero on failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import corpora
import gate
import run
import tracing

GOLDEN = corpora.ROOT / "tests" / "golden" / "corpus.jsonl"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _golden_corpus(path: Path, bad_line: bool) -> corpora.Corpus:
    text = GOLDEN.read_text(encoding="utf-8")
    records = tuple((obj["id"], obj["text"])
                    for obj in map(json.loads, text.splitlines()))
    bad = ()
    if bad_line:
        text += json.dumps({"id": "g99", "text": 7}) + "\n"
        bad = (len(records) + 1,)
    path.write_text(text, encoding="utf-8")
    return corpora.Corpus(path, records, bad)


def _traced_run(corpus: corpora.Corpus, out: Path, flags: list[str], work: Path) -> dict:
    result = work / "trace.json"
    child = run.run_child(
        [sys.executable, str(run.TRACER), "--hooks", "1", "--result", str(result), "--",
         "analyze", "--input", str(corpus.path), "--out", str(out), "--plots", *flags],
        work / "stderr.txt")
    if child.status != 0:
        raise AssertionError(f"traced run failed: {child.stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_hooks_and_gate(work: Path) -> None:
    oracle = gate.load_oracle()
    fired: set[str] = set()
    for lenient in (False, True):
        corpus = _golden_corpus(work / f"golden{int(lenient)}.jsonl", bad_line=lenient)
        out = work / f"out{int(lenient)}"
        trace = _traced_run(corpus, out, ["--lenient"] if lenient else [], work)
        fired |= tracing.fired_hooks(trace)
        nulls = [name for name, value in tracing.layer_metrics(trace).items() if value is None]
        _require(not nulls and not trace["missing"], f"null metrics {nulls}")
        expect = gate.Expectation(oracle, corpus, native=False, disambiguation="first_sense")
        expect.check(out)
    hooks = {tracing.hook_name(module, attr) for module, attr, _, _ in tracing.HOOKS}
    _require(hooks <= fired, f"hooks that never fired: {sorted(hooks - fired)}")

    # a corrupted report and a wrong skip report must both fail the gate
    report = out / "report.json"
    good = report.read_bytes()
    report.write_bytes(good.replace(b'"positive"', b'"negative"', 1))
    _expect_gate_failure(expect, out, "flipped label")
    report.write_bytes(good.replace(b"\n", b"\r\n"))
    _expect_gate_failure(expect, out, "non-canonical bytes")
    report.write_bytes(good)
    (out / "skipped.jsonl").write_text("", encoding="utf-8")
    _expect_gate_failure(expect, out, "missing skipped line")


def _expect_gate_failure(expect: gate.Expectation, out: Path, what: str) -> None:
    try:
        expect.check(out)
    except gate.GateError:
        return
    raise AssertionError(f"gate accepted a report with a {what}")


def check_missing_hook() -> None:
    sys.path.insert(0, str(run.SRC))
    from windsent import analytics

    original = analytics.word_qualifies
    del analytics.word_qualifies
    try:
        tracer = tracing.Tracer()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            tracer.install(tuple(h for h in tracing.HOOKS if h[0] == "windsent.analytics"))
    finally:
        analytics.word_qualifies = original
    metrics = tracing.layer_metrics(tracer.dump())
    _require("word_qualifies" in err.getvalue(), "no warning for a missing hook")
    _require(metrics["analytics.qualify_calls"] is None, "missing hook gave a value")
    _require(metrics["analytics.top_words_s"] is not None, "present hook gave null")


def check_descendant_rss(work: Path) -> None:
    """A small process whose subprocess grows to 160 MB must report a peak
    RSS of at least that: worker processes count in peak_rss_mb."""
    grow_mb = 160
    result = work / "rss.json"
    code = (f"import json, subprocess, sys; sys.path.insert(0, {str(run.TRACER.parent)!r})\n"
            f"import tracing\n"
            f"subprocess.run([sys.executable, '-c', 'x = b\"x\" * ({grow_mb} << 20)'],"
            f" check=True)\n"
            f"open({str(result)!r}, 'w').write(json.dumps(tracing.peak_rss_mb()))\n")
    child = run.run_child([sys.executable, "-c", code], work / "stderr.txt")
    _require(child.status == 0, f"RSS probe failed: {child.stderr}")
    peak = json.loads(result.read_text(encoding="utf-8"))
    _require(peak >= grow_mb, f"peak RSS {peak:.1f} MB misses a {grow_mb} MB subprocess")


def check_generator(work: Path) -> None:
    oracle = gate.load_oracle()
    for workload in corpora.WORKLOADS.values():
        first = corpora.generate(workload.shape, 3, work / "a")
        second = corpora.generate(workload.shape, 3, work / "b")
        other = corpora.generate(workload.shape, 4, work / "c")
        _require(first.path.read_bytes() == second.path.read_bytes(),
                 f"{workload.name}: one seed gave two corpora")
        _require(first.path.read_bytes() != other.path.read_bytes(),
                 f"{workload.name}: two seeds gave one corpus")
        expect = gate.Expectation(oracle, first, workload.native, workload.disambiguation)
        run.check_shape(workload, first, expect)


def check_benchmark_file() -> None:
    """BENCHMARK.json must name exactly what run.py measures and emits."""
    spec = json.loads((corpora.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _require({w["name"]: w["why"] for w in spec["workloads"]}
             == {w.name: w.why for w in corpora.WORKLOADS.values()},
             "BENCHMARK.json workloads differ from corpora.WORKLOADS")
    _require({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
             "BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    layers = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    layers[run.OVERHEAD_METRIC] = "ratio"
    _require({m["name"]: m["unit"] for m in spec["per_layer"]} == layers,
             "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for check in (check_benchmark_file, lambda: check_hooks_and_gate(work),
                      check_missing_hook, lambda: check_descendant_rss(work),
                      lambda: check_generator(work)):
            check()
    except (AssertionError, gate.GateError) as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
