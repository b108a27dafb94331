"""Benchmark of `windsent analyze --plots` on seeded synthetic corpora.

One workload (what BENCHMARK.json's command runs, once per workload and seed):

    python3 perfbench/run.py --workload zipf_paper --seed 7 --seconds 40 --trace 0

Every workload in turn, with a table of the end-to-end metrics:

    python3 perfbench/run.py --seed 7 --seconds 40

The load is a closed loop: one client, one child process at a time, no
threads. Each child is `windsent analyze ... --plots` run through the CLI
entry point by ``tracing.py``, which also reports the child's peak RSS.
Each iteration runs a set-up probe (the same command on a one-comment corpus)
and then the full run. Every run passes the correctness gate in ``gate.py``;
a failed run counts in ``failed`` and makes the exit status nonzero.

``--trace 0`` reports the end-to-end metrics: docs/s, CPU seconds, peak RSS
and set-up seconds, medians over the runs in the window. Times are scaled to
nominal host speed by ``HostSpeed``, a probe taken around every iteration;
the raw medians are printed beside them. ``--trace 1`` alternates untraced
and traced runs and reports per-layer self times and counts plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import corpora
import gate
import tracing

ROOT = corpora.ROOT
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(tracing.__file__).resolve()
CHILD_TIMEOUT_S = 120.0
# HostSpeed probe corpus, fixed so that the probe does the same work in every
# version of the benchmark, and the probe's median time on the reference host
REFERENCE_SHAPE = corpora.Shape(
    fmt="jsonl", records=600, length=(5, 25), zipf_s=1.2,
    fresh_rate=0.0, stopword_rate=0.25, lexicon_rate=0.12, caps_rate=0.03,
    negation_rate=0.03, degree_rate=0.03, but_rate=0.15, exclaim_rate=0.2,
    url_rate=0.1, hashtag_rate=0.03, malformed_rate=0.0, blank_rate=0.0)
REFERENCE_SEED = 20240914
REFERENCE_NOMINAL_S = 0.06

OVERHEAD_METRIC = "trace.overhead_frac"
END_TO_END_UNITS = {"docs_per_s": "docs/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Child:
    """Outcome of one child process."""

    status: int
    wall_s: float
    cpu_s: float
    stderr: str


def run_child(argv: list[str], stderr_path: Path) -> Child:
    """Run one child to completion (killed after CHILD_TIMEOUT_S) and take
    its wall time and, from wait4, its CPU time. Not its peak RSS: wait4's
    ru_maxrss includes this process's own high-water mark (see
    tracing.peak_rss_mb)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    # wait4 reaped the child behind Popen's back; tell Popen it has ended
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 stderr_path.read_text(encoding="utf-8", errors="replace"))


class Runner:
    """Runs and gates the children of one workload and seed."""

    def __init__(self, workload: corpora.Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        fmt = workload.shape.fmt
        self.corpus = corpora.generate(workload.shape, seed, work / f"corpus.{fmt}")
        self.single = corpora.write_single(fmt, seed, work / f"single.{fmt}")
        self.oracle = oracle = gate.load_oracle()
        self.expect = gate.Expectation(oracle, self.corpus, workload.native,
                                       workload.disambiguation)
        self.expect_single = gate.Expectation(oracle, self.single, workload.native,
                                              workload.disambiguation)
        check_shape(workload, self.corpus, self.expect)
        self.first_tree: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def analyze_args(self, corpus: corpora.Corpus, out: Path) -> list[str]:
        return ["analyze", "--input", str(corpus.path), "--out", str(out), "--plots",
                *self.workload.flags]

    def run(self, corpus: corpora.Corpus, *, probe: bool = False, hooks: bool = False,
            counted: bool = True) -> tuple[Child, dict] | None:
        """Run `windsent analyze` on a corpus in a `tracing.py` child, traced or
        not, and gate its output. Returns the child and its result file, or
        None when it failed."""
        out = self.work / ("probe_out" if probe else "out")
        result = self.work / "result.json"
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)
        child = run_child([sys.executable, str(TRACER), "--hooks", str(int(hooks)),
                           "--result", str(result), "--",
                           *self.analyze_args(corpus, out)],
                          self.work / "stderr.txt")
        outcome = None
        try:
            if child.status != 0:
                raise gate.GateError(f"exit status {child.status}: {child.stderr[-2000:]}")
            if probe:
                self.expect_single.check(out)
            elif self.first_tree is None:
                self.expect.check(out)
                self.first_tree = gate.tree_digest(out)
            elif gate.tree_digest(out) != self.first_tree:
                raise gate.GateError("output differs from the first run of this seed")
            try:
                outcome = child, json.loads(result.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise gate.GateError(f"result file unreadable: {exc!r}") from None
        except gate.GateError as exc:
            print(f"FAILED {self.workload.name} ({'probe' if probe else 'run'}): {exc}",
                  file=sys.stderr)
        if counted:
            self.attempted += 1
            self.failed += outcome is None
        return outcome

    def records(self) -> int:
        return len(self.corpus.records) + len(self.corpus.bad_lines)


def check_shape(workload: corpora.Workload, corpus: corpora.Corpus,
                expect: gate.Expectation) -> None:
    """Stop a workload from drifting: its corpus must keep the shape it was
    chosen for (oracle counts, so independent of the package)."""
    shares = {
        "distinct_share": expect.distinct_tokens / max(expect.tokens, 1),
        "drop_share": expect.dropped / max(expect.records, 1),
        "skipped_share": len(corpus.bad_lines) / (expect.records + len(corpus.bad_lines)),
    }
    for name, value in shares.items():
        low, high = getattr(workload, name)
        if not low <= value <= high:
            raise SystemExit(f"workload {workload.name}: {name} {value:.4f} "
                             f"outside [{low}, {high}]")


class HostSpeed:
    """Host-speed probe. Host speed on a shared machine drifts by tens of
    percent over minutes and moves wall and CPU time alike, so each timing is
    scaled by a probe taken just before and just after it: the frozen
    oracle's own pipeline (clean, score, serialize) over a fixed corpus. That
    is the same kind of work windsent does, but none of windsent's code, so a
    change to the package cannot move the probe."""

    def __init__(self, oracle, work: Path):
        corpus = corpora.generate(REFERENCE_SHAPE, REFERENCE_SEED, work / "reference.jsonl")
        self.oracle = oracle
        self.texts = [text for _, text in corpus.records]

    def _once(self) -> float:
        oracle = self.oracle
        start = time.perf_counter()
        rows = []
        for text in self.texts:
            tokens, reason = oracle.preprocess(text)
            if reason is None:
                tagged = [(token, oracle.tag_token(token)) for token in tokens]
                rows.append((oracle.score_valence(tokens, text), oracle.score_pattern(tokens),
                             oracle.score_synset(tagged, "first_sense")))
        json.dumps(rows, indent=2)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Best of two, with the collector off so the benchmark's own heap
        (the oracle's expected report) does not slow the probe."""
        gc.disable()
        try:
            return min(self._once(), self._once())
        finally:
            gc.enable()


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def summarize(name: str, values: list[float], unit: str) -> str:
    """Median with sample count, plus the highest percentile that has at
    least ten samples beyond it, when the count supports one."""
    if not values:
        return f"{name}: no successful runs"
    text = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)}"
    if len(values) >= 20:
        percent = int(100 * (1 - 10 / len(values)))
        text += f", p{percent} {statistics.quantiles(values, n=100)[percent - 1]:.6g}"
    return text + ")"


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Closed loop of (set-up probe, full run) pairs. Returns raw samples and,
    under "scaled_<name>", the same samples at nominal host speed."""
    # warm-up: byte-compile the package once, as an installed one would be
    runner.run(runner.single, probe=True, counted=False)
    samples = {f"{kind}{name}": [] for name in END_TO_END_UNITS for kind in ("", "scaled_")}
    samples["host_speed"] = []
    host = HostSpeed(runner.oracle, runner.work)
    deadline = time.perf_counter() + seconds
    reference = host.seconds()
    while True:
        started = time.perf_counter()
        probe = runner.run(runner.single, probe=True)
        full = runner.run(runner.corpus)
        previous, reference = reference, host.seconds()
        speed = REFERENCE_NOMINAL_S / ((previous + reference) / 2)
        samples["host_speed"].append(speed)
        measured = {}
        if probe is not None:
            setup_s = probe[0].wall_s
            measured["setup_s"] = (setup_s, setup_s * speed)
        if full is not None:
            child, result = full
            docs_per_s = runner.records() / child.wall_s
            measured["docs_per_s"] = (docs_per_s, docs_per_s / speed)
            measured["cpu_s"] = (child.cpu_s, child.cpu_s * speed)
            measured["peak_rss_mb"] = (result["peak_rss_mb"], result["peak_rss_mb"])
        for name, (raw, scaled) in measured.items():
            samples[name].append(raw)
            samples[f"scaled_{name}"].append(scaled)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return samples


def measure_layers(runner: Runner, seconds: float) -> tuple[dict[str, list], list, list]:
    """Alternate untraced and traced runs, swapping which goes first; returns
    per-layer samples and the untraced and traced in-process wall times."""
    layers = {name: [] for name in tracing.LAYER_METRICS}
    walls = {0: [], 1: []}
    deadline = time.perf_counter() + seconds
    order = (0, 1)
    while True:
        started = time.perf_counter()
        for hooks in order:
            outcome = runner.run(runner.corpus, hooks=bool(hooks))
            if outcome is None:
                continue
            trace = outcome[1]
            walls[hooks].append(trace["wall_s"])
            if hooks:
                for name, value in tracing.layer_metrics(trace).items():
                    layers[name].append(value)
        order = order[::-1]
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return layers, walls[0], walls[1]


def run_workload(workload: corpora.Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runner = Runner(workload, seed, work)
        metrics = {}
        if trace:
            layers, untraced, traced = measure_layers(runner, seconds)
            for name, (unit, _, _) in tracing.LAYER_METRICS.items():
                values = layers[name]
                value = None if not values or None in values else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
            overhead = (statistics.median(traced) / statistics.median(untraced) - 1
                        if traced and untraced else None)
            metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "ratio"}
            print(f"{workload.name}: {summarize('traced wall', traced, 's')}, "
                  f"{summarize('untraced wall', untraced, 's')}")
        else:
            samples = measure_end_to_end(runner, seconds)
            print(f"{workload.name}: {summarize('host speed', samples['host_speed'], 'x')}")
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": median(samples[f"scaled_{name}"]), "unit": unit}
                print(f"{workload.name}: {summarize(name, samples[f'scaled_{name}'], unit)}; "
                      f"{summarize('raw', samples[name], unit)}")
        fail_rate = runner.failed / runner.attempted
        print(f"{workload.name}: fail_rate {fail_rate:.4g} "
              f"({runner.failed}/{runner.attempted} runs)")
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpora.WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in (SRC / "windsent", gate.ORACLE_PATH) if not path.exists()]
    if missing:
        print(f"error: benchmark needs {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(corpora.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {name: run_workload(workload, args.seed, args.seconds, bool(args.trace))
               for name, workload in corpora.WORKLOADS.items()}
    print()
    for name, result in results.items():
        cells = [f"{metric} {m['value']:.6g} {m['unit']}" if m["value"] is not None
                 else f"{metric} null" for metric, m in result["metrics"].items()]
        if not args.trace:
            cells.append(f"fail_rate {result['failed'] / result['attempted']:.4g} ratio")
        print(f"{name}: " + ", ".join(cells))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
