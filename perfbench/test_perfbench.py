"""Tests of the benchmark harness itself: the oracle, the tally and the
self-time arithmetic.  The reports come from small real gfpp runs."""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from gfpp.cli import main as gfpp_main  # noqa: E402

VERIFY = ["verify-all", "--q-max", "27", "--jobs", "1", "--field-cap", "1000000",
          "--girth-cap", "9"]
GIRTH = ["sweep", "--q", "9", "--with-girth", "--girth-cap", "9", "--jobs", "1",
         "--field-cap", "1000000"]


def _report(tmp_path_factory, argv):
    path = tmp_path_factory.mktemp("report") / "report.json"
    gfpp_main(argv + ["--json", str(path)])
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    return _report(tmp_path_factory, VERIFY)


@pytest.fixture(scope="module")
def girth_report(tmp_path_factory):
    return _report(tmp_path_factory, GIRTH)


def test_expected_ops_count_every_verdict(verify_report):
    ops = oracle.expected_ops(VERIFY)
    assert len(ops) == len(verify_report["verdicts"])
    assert "identities q=27" in ops and "girth q=9" in ops and "girth q=11" not in ops


def test_untampered_reports_hold(verify_report, girth_report):
    assert set(oracle.judge(verify_report, VERIFY).values()) == {None}
    assert oracle.judge(girth_report, GIRTH) == {
        "sweep q=9 which=A": None, "sweep q=9 which=B": None,
        "sweep q=9 which=two": None, "girth q=9": None}


def test_oracle_flags_tampered_verdict(verify_report):
    bad = copy.deepcopy(verify_report)
    for v in bad["verdicts"]:
        if v["section"] == "sweep" and v["q"] == 25 and v["which"] == "A":
            v["witnesses"] = [1, 5, 7]
    assert oracle.judge(bad, VERIFY)["sweep q=25 which=A"] == "verdict disagrees with rows"


def test_oracle_flags_tampered_rows(verify_report, girth_report):
    bad = copy.deepcopy(verify_report)
    for r in bad["rows"]:
        if r["kind"] == "sweep" and r["q"] == 7 and r["k"] == 5:
            r["b_pp"] = True
        if r["kind"] == "identity" and r["q"] == 27 and not r["wrap"]:
            r["lhs"] = (r["rhs"] + 1) % 3
            break
    got = oracle.judge(bad, VERIFY)
    assert got["sweep q=7 which=B"] == "PP exponents [1, 5] != p-powers [1]"
    assert got["identities q=27"] == "1 mismatches"
    assert got["sweep q=7 which=A"] is None

    bad = copy.deepcopy(girth_report)
    bad["rows"][1]["girth_ge_8"] = True  # k = 2
    assert oracle.judge(bad, GIRTH)["girth q=9"] == "girth >= 8 at [1, 2, 3] != p-powers [1, 3]"


def test_error_rows_and_missing_report_fail():
    assert set(oracle.judge(None, GIRTH).values()) == {"no report"}
    report = {"rows": [{"kind": "error", "q": 9, "error": "CapExceededError"}],
              "verdicts": []}
    assert set(oracle.judge(report, GIRTH).values()) == {"error row"}


def test_tally_counts_known_failure_but_stays_correct(verify_report):
    bad = copy.deepcopy(verify_report)
    for r in bad["rows"]:
        if r["kind"] == "upper_half" and r["p"] == 5:
            r["value"] = 2
    tally = run.Tally(VERIFY, {"upper_half p=5": "20 values differ from 1"})
    tally.judge(bad, warm=False)
    assert (tally.attempted, tally.failed, tally.correct) == (len(oracle.expected_ops(VERIFY)), 1, True)

    tally = run.Tally(VERIFY, {"upper_half p=5": "19 values differ from 1"})
    tally.judge(bad, warm=False)
    assert tally.failed == 1 and not tally.correct


def test_tally_fails_a_run_on_cache_or_digest_problems(verify_report):
    n = len(oracle.expected_ops(VERIFY))
    tally = run.Tally(VERIFY, {})
    tally.judge(verify_report, warm=False)
    tally.judge(verify_report, warm=True)  # timing.cached is absent: a miss
    assert (tally.attempted, tally.failed, tally.correct) == (2 * n, n, False)

    tally = run.Tally(VERIFY, {})
    tally.judge(verify_report, warm=False)
    changed = copy.deepcopy(verify_report)
    changed["version"] = "0.0.0"
    changed["timing"] = {"cached": True}
    tally.judge(changed, warm=True)
    assert tally.problems == ["report body digest differs between runs"]
    assert tally.failed == n


def test_body_digest_ignores_timing(verify_report):
    warm = dict(verify_report, timing={"cached": True})
    assert oracle.body_digest(warm) == oracle.body_digest(verify_report)


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, "r", note]


def test_self_times_on_a_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
        _span("d", 5.5, 6.0, 3),
        _span("d", 7.0, 8.5, 3),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    assert sum(tracer.self_times(spans)) == 10.0


def test_self_times_merge_overlapping_children():
    spans = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0),
             _span("y", 3.0, 7.0, 0), _span("z", 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_layer_metrics_add_up_to_the_traced_wall():
    spans = [
        _span("cli.main", 0.0, 8.0, -1),
        _span("permpoly.sweep_record", 0.5, 2.5, 0),
        _span("permpoly.a_value_table", 1.0, 2.0, 1),
        _span("field.power_table", 1.25, 1.75, 2),
        _span("graphs.girth_at_least", 3.0, 6.0, 0, "ge8"),
        _span("graphs.monomial_tables", 3.0, 3.5, 4),
        _span("graphs.girth_at_least", 6.0, 7.0, 0, "lt8"),
    ]
    dump = {"spans": spans, "counters": {"field.table_cells": 81,
                                         "digits.lucas_binom.calls": 4,
                                         "digits.lucas_binom.nonzero": 1}}
    m, problems = run.layer_metrics(dump, traced_wall=9.0, untraced_wall=6.0, report_bytes=123)
    assert problems == []
    assert m["cli.self_s"] == 2.0
    assert m["permpoly.sweep_record.s"] == 1.0
    assert m["permpoly.a_value_table.s"] == 0.5
    assert m["field.power_table.s"] == 0.5
    assert (m["graphs.girth_at_least.ge8_s"], m["graphs.girth_at_least.lt8_s"]) == (2.5, 1.0)
    assert m["graphs.girth_at_least.calls"] == 2
    assert m["permpoly.sweep_record.p50_ms"] == 2000.0
    assert m["digits.lucas_binom.nonzero_frac"] == 0.25
    assert m["criterion.pp_criterion.s"] == 0.0
    assert m["trace.wall_s"] == 8.0
    assert m["trace.overhead_frac"] == 0.5
    self_metrics = [v for k, v in m.items()
                    if (k.endswith(".s") or k.endswith("_s")) and k != "trace.wall_s"
                    and not k.startswith("graphs.girth_at_least.")]
    girth = m["graphs.girth_at_least.ge8_s"] + m["graphs.girth_at_least.lt8_s"]
    assert sum(self_metrics) + girth == m["trace.wall_s"]


def test_layer_metrics_flag_self_times_that_do_not_add_up():
    spans = [_span("cli.main", 0.0, 1.0, -1), _span("cli.main", 2.0, 3.0, -1)]
    _, problems = run.layer_metrics({"spans": spans, "counters": {}}, 1.0, 1.0, 0)
    assert problems == ["traced run has 2 root spans"]
