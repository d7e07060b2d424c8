"""gfpp benchmark: exhaustive-verification workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's `src/`, nothing is installed.  Workloads, their exact command
lines and the reason for each are in `workloads.json`; metric names and
units are in the checkout's `BENCHMARK.json`.  The workloads are exhaustive
and have no random inputs, so `--seed` is recorded but changes nothing.

Every sample is its own interpreter (`child.py`), so peak memory, set-up
time and gfpp's module-level table caches start clean, with
GFPP_FIELD_CAP and GFPP_GIRTH_CAP removed from its environment and the caps
passed as flags.  Each command runs with `--jobs 1`.

--trace 0 (end to end, tracing off), for about S seconds:
  setup_s      median of fresh interpreters (SETUP_REPS per round) that
               import gfpp and build Field(p, e) for every q of the workload
  wall_s       median wall time of cold runs, each with a fresh --cache
               directory (compute, cache write, JSON emission)
  cache_hit_s  median wall time of WARM_REPS reruns per cold run against
               its cache
  peak_rss_mb  median peak resident memory of the cold runs

--trace 1 (per layer), for about S seconds: pairs of one untraced and one
traced cold run; the traced run wraps gfpp's public functions from outside
(see tracer.py), every self time of a traced run must add up to its wall
time, and each metric is the median over the traced runs.

Every report is judged by oracle.py.  `attempted` counts the operations
judged over all runs and `failed` those that did not hold; a run whose body
digest differs from the others', or whose warm run missed the cache, fails
all of its operations.  `correct` is false on any harness-check failure or
on any failing operation other than the pinned known failures in
workloads.json, which still count in `failed`.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

SETUP_REPS = 5
WARM_REPS = 5
MIN_COLD = 3
# A run must exit within 180 s; children still running at this point are
# killed and count as failed.
HARD_LIMIT_S = 170.0


class Tally:
    """Judges reports and accumulates attempted/failed operations."""

    def __init__(self, argv, known_failures):
        self.argv = argv
        self.known = known_failures
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unexpected: dict[str, str] = {}
        self.known_seen: set[str] = set()
        self.digest = None

    def judge(self, report, *, warm: bool) -> None:
        results = oracle.judge(report, self.argv)
        self.attempted += len(results)
        if report is not None:
            digest = oracle.body_digest(report)
            cached = report.get("timing", {}).get("cached") is True
            problem = None
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problem = "report body digest differs between runs"
            if warm != cached:
                problem = "warm run missed the cache" if warm else "cold run hit a cache"
            if problem:
                self.problems.append(problem)
                self.failed += len(results)
                return
        for op, reason in results.items():
            if reason is None:
                continue
            self.failed += 1
            if self.known.get(op) == reason:
                self.known_seen.add(op)
            else:
                self.unexpected[op] = reason

    def check_digest_store(self, workload: str) -> None:
        """Require the body digest to repeat across runs of the same source."""
        if self.digest is None:
            return
        path = WORK / "digests.json"
        store = json.loads(path.read_text()) if path.exists() else {}
        by_workload = store.setdefault(source_hash(), {})
        if by_workload.setdefault(workload, self.digest) != self.digest:
            self.problems.append("report body digest differs from an earlier run of this source")
            self.failed = self.attempted
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.problems and not self.unexpected


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gfpp").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GFPP_FIELD_CAP", "GFPP_GIRTH_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, work: Path, deadline: float):
    """Run child.py ARGS to completion: (wall s, exit code or None, peak RSS MB).

    The exit code is None when the child had to be killed at the deadline.
    """
    timeout = deadline - perf_counter()
    if timeout <= 0:
        return 0.0, None, 0.0
    killed = threading.Event()
    with open(work / "child.out", "wb") as out, open(work / "child.err", "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    return wall, code, usage.ru_maxrss / 1024.0


def gfpp_run(argv, work: Path, cache: Path, deadline: float, spans=None):
    """One gfpp command: (wall s, peak RSS MB, parsed report or None, report bytes)."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    gfpp_args = ["--", *argv, "--cache", str(cache), "--json", str(report_path)]
    mode = ["run"] if spans is None else ["trace", str(spans[0]), spans[1]]
    wall, code, rss = spawn(mode + gfpp_args, work, deadline)
    report, size = None, 0
    if code in (0, 1) and report_path.exists():
        raw = report_path.read_bytes()
        size = len(raw)
        try:
            report = json.loads(raw)
        except ValueError:
            report = None
    else:
        err = (work / "child.err").read_text(errors="replace").strip().splitlines()
        print("child failed (exit %s): %s" % (code, err[-1] if err else ""), file=sys.stderr)
    return wall, rss, report, size


def setup_pairs(argv) -> str:
    return ",".join("%d:%d" % oracle.factor(q) for q in oracle.workload_qs(argv))


def measure_end_to_end(argv, tally: Tally, seconds: int, work: Path, deadline: float):
    """Rounds of one cold run, WARM_REPS warm runs and SETUP_REPS set-ups,
    repeated for about `seconds` and at least MIN_COLD times, so that every
    metric samples the whole run."""
    started = perf_counter()
    setup_args = ["setup", oracle.parse_command(argv)[1]["field_cap"], setup_pairs(argv)]
    setup, cold, warm, rss = [], [], [], []
    while perf_counter() < deadline:
        it_started = perf_counter()
        for _ in range(SETUP_REPS):
            _, code, _ = spawn(setup_args, work, deadline)
            if code != 0:
                tally.problems.append("set-up child failed (exit %s)" % code)
                return {}
            setup.append(float((work / "child.out").read_text().split()[-1]))
        cache = work / ("cache%d" % len(cold))
        wall, mb, report, _ = gfpp_run(argv, work, cache, deadline)
        tally.judge(report, warm=False)
        if report is None:
            break
        cold.append(wall)
        rss.append(mb)
        for _ in range(WARM_REPS):
            wall, _, report, _ = gfpp_run(argv, work, cache, deadline)
            tally.judge(report, warm=True)
            if report is not None:
                warm.append(wall)
        shutil.rmtree(cache, ignore_errors=True)
        elapsed = perf_counter() - started
        if len(cold) >= MIN_COLD and elapsed + (perf_counter() - it_started) > seconds:
            break
    return {"setup_s": setup, "wall_s": cold, "cache_hit_s": warm, "peak_rss_mb": rss}


def layer_metrics(dump: dict, traced_wall: float, untraced_wall: float,
                  report_bytes: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced run, and any arithmetic problems."""
    spans = dump["spans"]
    selfs = tracer.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        name = span[0]
        if span[5] is not None:
            self_s["%s.%s" % (name, span[5])] += own
        self_s[name] += own
        calls[name] += 1
        durations[name].append(span[2] - span[1])
    problems = []
    roots = [s for s in spans if s[3] == -1]
    if len(roots) != 1 or roots[0][0] != tracer.ROOT_SPAN:
        problems.append("traced run has %d root spans" % len(roots))
    wall = sum(s[2] - s[1] for s in roots)
    if abs(sum(selfs) - wall) > 1e-6 * max(wall, 1e-3):
        problems.append("self times add up to %r, traced wall is %r" % (sum(selfs), wall))
    counters = dump["counters"]
    lucas_calls = counters.get("digits.lucas_binom.calls", 0)
    per_exp = sorted(durations["permpoly.sweep_record"])
    m = {
        "field.power_table.s": self_s["field.power_table"],
        "field.sub_table.s": self_s["field.sub_table"],
        "field.table_cells": counters.get("field.table_cells", 0),
        "field.Field.calls": calls["field.Field"],
        "field.Field.s": self_s["field.Field"],
        "permpoly.a_value_table.s": self_s["permpoly.a_value_table"],
        "permpoly.b_value_table.s": self_s["permpoly.b_value_table"],
        "permpoly.is_permutation.s": self_s["permpoly.is_permutation"],
        "permpoly.sweep_record.s": self_s["permpoly.sweep_record"],
        "permpoly.sweep_record.calls": calls["permpoly.sweep_record"],
        "permpoly.sweep_record.p50_ms": 1e3 * percentile(per_exp, 50),
        "permpoly.sweep_record.p99_ms": 1e3 * percentile(per_exp, 99),
        "criterion.pp_criterion.s": self_s["criterion.pp_criterion"],
        "criterion.inverse_pp_criterion.s": self_s["criterion.inverse_pp_criterion"],
        "criterion.support_identity_lhs.s": self_s["criterion.support_identity_lhs"],
        "criterion.support_identity_rhs.s": self_s["criterion.support_identity_rhs"],
        "criterion.upper_half_sum.s": self_s["criterion.upper_half_sum"],
        "digits.lucas_binom.calls": lucas_calls,
        "digits.lucas_binom.nonzero_frac":
            counters.get("digits.lucas_binom.nonzero", 0) / lucas_calls if lucas_calls else 0.0,
        "graphs.girth_at_least.calls": calls["graphs.girth_at_least"],
        "graphs.girth_at_least.ge8_s": self_s["graphs.girth_at_least.ge8"],
        "graphs.girth_at_least.lt8_s": self_s["graphs.girth_at_least.lt8"],
        "graphs.monomial_tables.s": self_s["graphs.monomial_tables"],
        "cli.self_s": self_s[tracer.ROOT_SPAN],
        "cli.report_bytes": report_bytes,
        "trace.wall_s": wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
    }
    return m, problems


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def measure_layers(name, seed, argv, tally: Tally, seconds: int, work: Path,
                   deadline: float):
    """Pairs of untraced and traced cold runs for about `seconds`; each
    per-layer metric is its median over the traced runs."""
    started = perf_counter()
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / ("%s.json" % name)
    runs, dump = [], None
    while perf_counter() < deadline:
        it_started = perf_counter()
        spans_path.unlink(missing_ok=True)
        untraced_wall, _, report, _ = gfpp_run(argv, work, work / "cache-untraced", deadline)
        tally.judge(report, warm=False)
        run_id = "%s/seed%d/traced%d" % (name, seed, len(runs))
        traced_wall, _, traced, size = gfpp_run(argv, work, work / "cache-traced", deadline,
                                                spans=(spans_path, run_id))
        tally.judge(traced, warm=False)
        shutil.rmtree(work / "cache-untraced", ignore_errors=True)
        shutil.rmtree(work / "cache-traced", ignore_errors=True)
        if report is None or traced is None or not spans_path.exists():
            break
        dump = json.loads(spans_path.read_text())
        metrics, problems = layer_metrics(dump, traced_wall, untraced_wall, size)
        tally.problems.extend(problems)
        runs.append(metrics)
        if perf_counter() - started + (perf_counter() - it_started) > seconds:
            break
    if not runs:
        return None
    print("%d traced runs; self times of the last:" % len(runs))
    print_self_times(dump)
    if dump["absent"]:
        print("absent (reported as 0): %s" % ", ".join(dump["absent"]))
    # Counts repeat exactly; median_low keeps them whole numbers.
    return {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [m[k] for m in runs]) for k, v in runs[0].items()}


def print_self_times(dump: dict) -> None:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(dump["spans"], tracer.self_times(dump["spans"])):
        totals[span[0]] += own
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        print("  self %-34s %10.4f s" % (name, total))
    print("  self %-34s %10.4f s" % ("(sum)", sum(totals.values())))


def summarize(samples: dict) -> dict[str, float]:
    out = {}
    for name, values in samples.items():
        if not values:
            continue
        med = statistics.median(values)
        out[name] = med
        lo, hi = (statistics.quantiles(values, n=4)[0::2] if len(values) > 1
                  else (values[0], values[0]))
        print("  %-12s median %.4f  quartiles %.4f .. %.4f  min %.4f  max %.4f  n=%d"
              % (name, med, lo, hi, min(values), max(values), len(values)))
    return out


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    deadline = perf_counter() + HARD_LIMIT_S
    # On SIGTERM, unwind so that spawn() kills its child and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, spec["workloads"])
    if not (ROOT / "src" / "gfpp" / "cli.py").is_file():
        print("perfbench: no gfpp sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    workload = spec["workloads"][args.workload]
    argv_gfpp = workload["argv"]
    tally = Tally(argv_gfpp, workload["known_failures"])
    print("workload %s seed %d: gfpp %s" % (args.workload, args.seed, " ".join(argv_gfpp)))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK))
    try:
        if args.trace:
            values = measure_layers(args.workload, args.seed, argv_gfpp, tally, args.seconds,
                                    work, deadline)
        else:
            values = summarize(measure_end_to_end(argv_gfpp, tally, args.seconds, work, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally.check_digest_store(args.workload)

    values = values or {}
    missing = [n for n in wanted if n not in values]
    if missing:
        tally.problems.append("no value for %s" % ", ".join(missing))
    print("  fail_frac    %d/%d = %.6f" % (tally.failed, tally.attempted,
                                           tally.failed / max(tally.attempted, 1)))
    print("  body sha256  %s" % tally.digest)
    for op in sorted(tally.known_seen):
        print("  known failure: %s (%s)" % (op, workload["known_failures"][op]))
    for op, reason in sorted(tally.unexpected.items()):
        print("  FAILED: %s (%s)" % (op, reason))
    for problem in tally.problems:
        print("  CHECK FAILED: %s" % problem)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
