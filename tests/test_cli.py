"""CLI commands: report shape, exit codes, cache, determinism, jobs, the
options each command takes, and the README's command examples."""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gfpp import cli, criterion, graphs
from gfpp.cli import main
from gfpp.field import GfppError, factor_prime_power


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--json", str(out), "--jobs", "1"])
    return code, json.loads(out.read_text())


# A sweep row's keys, in order, where no girth scan ran.
SWEEP_KEYS = ("kind", "q", "k", "a_pp", "b_pp")


def test_sweep_report_shape(tmp_path):
    code, report = run(tmp_path, "sweep", "--q", "9", "--which", "A")
    assert code == 0
    assert set(report) == {"command", "params", "modulus_by_q", "rows",
                           "verdicts", "overall", "version", "timing"}
    assert report["command"] == "sweep"
    assert report["overall"] == "pass"
    assert report["modulus_by_q"] == {"9": [1, 0, 1]}
    assert len(report["rows"]) == 8
    (verdict,) = report["verdicts"]
    assert verdict["witnesses"] == [1, 3]
    assert verdict["which"] == "A"


def test_sweep_bad_q_is_item_error(tmp_path):
    code, report = run(tmp_path, "sweep", "--q", "4,9")
    assert code == 1
    assert report["overall"] == "fail"
    errors = [r for r in report["rows"] if r["kind"] == "error"]
    assert len(errors) == 1
    assert "EvenPrime" in errors[0]["error"]
    # no stage ran on q = 4, so its verdict is in the first stage's section
    assert report["verdicts"][0] == {"section": "sweep", "q": 4,
                                     "error": errors[0]["error"], "passed": False}
    # the good q still ran
    assert any(v.get("passed") and v["q"] == 9 for v in report["verdicts"])


def test_sweep_multiple_q_two(tmp_path):
    code, report = run(tmp_path, "sweep", "--q", "3,5,7", "--which", "two")
    assert code == 0
    assert [v["q"] for v in report["verdicts"]] == [3, 5, 7]
    assert all(v["passed"] for v in report["verdicts"])


def test_sweep_with_criterion_rows(tmp_path):
    # No mismatch: every row is a sweep row, so the criterion's own flag,
    # a_pp negated at the verdict's mismatch_ks, is a_pp at every k, both
    # PPs and non-PPs.
    code, report = run(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 0
    assert [r["kind"] for r in report["rows"]] == ["sweep"] * 8
    assert {r["a_pp"] for r in report["rows"]} == {True, False}
    assert report["verdicts"][-1] == {"section": "criterion", "q": 9, "checked": 8,
                                      "mismatch_ks": [], "passed": True}


def test_sweep_with_girth_flag(tmp_path):
    # The sweep rows get the flags of the girth rows, which follow them,
    # and the girth verdict follows the sweep verdict, as in verify-all.
    code, report = run(tmp_path, "sweep", "--q", "3", "--with-girth")
    assert code == 0
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    girth_rows = [r for r in report["rows"] if r["kind"] == "girth"]
    assert report["rows"] == sweep_rows + girth_rows
    assert [r["girth_ge_8"] for r in sweep_rows] == [True, False]
    assert [r["girth_ge_8"] for r in girth_rows] == [True, False]
    assert [(v["section"], v["passed"]) for v in report["verdicts"]] == [
        ("sweep", True), ("girth", True)]
    assert report["verdicts"][1]["witnesses"] == [1]
    # without the flag the sweep rows carry no girth key
    code, report = run(tmp_path, "sweep", "--q", "3", name="plain.json")
    assert code == 0
    assert [tuple(r) for r in report["rows"]] == [SWEEP_KEYS] * 2


def test_sweep_with_girth_fails_on_a_girth_disagreement(tmp_path, monkeypatch):
    # Every graph claimed to have girth >= 8: the girth stage's verdict
    # must fail the sweep, as it fails verify-all.
    monkeypatch.setattr(graphs, "girth_at_least", lambda *args: True)
    code, report = run(tmp_path, "sweep", "--q", "9", "--with-girth")
    assert code == 1
    assert report["overall"] == "fail"
    sweep_verdict, girth_verdict = report["verdicts"]
    assert sweep_verdict["section"] == "sweep" and sweep_verdict["passed"]
    assert girth_verdict["section"] == "girth" and not girth_verdict["passed"]
    assert girth_verdict["witnesses"] == list(range(1, 9))
    assert not girth_verdict["implication_ok"]
    assert all(r["girth_ge_8"] for r in report["rows"])


def test_sweep_with_criterion_fails_on_a_criterion_disagreement(tmp_path, monkeypatch):
    # The criterion claims every a_k is a PP: each k whose a_k is not one
    # gets a mismatch row, and the criterion verdict fails the sweep.
    monkeypatch.setattr(criterion, "pp_criterion", lambda fld, k: True)
    code, report = run(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 1
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    mismatches = [r for r in report["rows"] if r["kind"] == "criterion_mismatch"]
    assert report["rows"] == sweep_rows + mismatches
    bad = [r["k"] for r in sweep_rows if not r["a_pp"]]
    assert bad == [2, 4, 5, 6, 7, 8]
    assert mismatches == [{"kind": "criterion_mismatch", "q": 9, "k": k,
                           "direct": False} for k in bad]
    sweep_verdict, criterion_verdict = report["verdicts"]
    assert sweep_verdict["passed"]
    assert criterion_verdict == {"section": "criterion", "q": 9, "checked": 8,
                                 "mismatch_ks": bad, "passed": False}
    # the criterion's own flag, a_pp negated at mismatch_ks, is true at every k
    assert all(r["a_pp"] != (r["k"] in bad) for r in sweep_rows)


def test_sweep_with_criterion_times_the_criterion_stage(tmp_path):
    code, report = run(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 0
    assert set(report["timing"]["stages"]["9"]) == {"field", "sweep", "criterion", "encode"}
    assert report["verdicts"][-1]["section"] == "criterion"


def test_sweep_above_the_girth_cap_skips_the_girth_scan(tmp_path):
    # Above the girth cap the q keeps its sweep rows, with no girth flag,
    # and its sweep verdict; the girth stage is skipped, untimed, with a
    # passing verdict that names the cap.
    code, report = run(tmp_path, "sweep", "--q", "19", "--with-girth")
    assert code == 0
    sweep_rows = report["rows"]
    assert [r["k"] for r in sweep_rows] == list(range(1, 19))
    assert all(tuple(r) == SWEEP_KEYS for r in sweep_rows)
    sweep_verdict, girth_verdict = report["verdicts"]
    assert sweep_verdict["section"] == "sweep" and sweep_verdict["passed"]
    assert girth_verdict == {"section": "girth", "q": 19, "skipped":
                             "CapExceeded: q = 19 exceeds the girth cap 17",
                             "passed": True}
    assert report["modulus_by_q"] == {"19": [0, 1]}
    assert set(report["timing"]["stages"]["19"]) == {"field", "sweep", "encode"}


def test_identities_q27(tmp_path):
    code, report = run(tmp_path, "identities", "--q", "27")
    assert code == 0
    (verdict,) = report["verdicts"]
    assert verdict["points"] == 48
    assert verdict["wrap_points"] == 12
    assert verdict["mismatches"] == 0
    assert verdict["wrap_as_analyzed"] is True
    wrap_rows = [r for r in report["rows"] if r["wrap"]]
    assert len(wrap_rows) == 12
    assert all((r["lhs"], r["rhs"]) == (0, 1) for r in wrap_rows)
    assert all(r["lhs"] == r["rhs"] for r in report["rows"] if not r["wrap"])
    assert all(tuple(r) == ("kind", "q", "l", "t", "u", "v", "lhs", "rhs", "wrap")
               for r in report["rows"])


def test_identities_small_e_is_skipped(tmp_path):
    code, report = run(tmp_path, "identities", "--q", "9")
    assert code == 0
    (verdict,) = report["verdicts"]
    assert verdict["passed"] and "skipped" in verdict
    assert report["rows"] == []


def test_identities_upper_half_only(tmp_path):
    code, report = run(tmp_path, "identities", "--p", "3,5")
    assert code == 0
    assert all(r["value"] == 1 for r in report["rows"])
    assert [v["p"] for v in report["verdicts"]] == [3, 5]


def test_identities_rejects_even_p(tmp_path):
    code, report = run(tmp_path, "identities", "--p", "2,4")
    assert code == 1
    errors = ["NotPrimeError: p = %d is not an odd prime" % p for p in (2, 4)]
    assert report["rows"] == [{"kind": "error", "p": p, "error": err}
                              for p, err in zip((2, 4), errors)]
    assert report["verdicts"] == [
        {"section": "upper_half", "p": p, "error": err, "passed": False}
        for p, err in zip((2, 4), errors)]


def test_bad_p_rows_and_verdicts_have_one_shape(tmp_path):
    # A p that is not an odd prime and a p above the field cap both give
    # an error row and a failing verdict that carries the same error.
    big = 1000000000000000003
    code, report = run(tmp_path, "identities", "--p", "4,%d" % big)
    assert code == 1
    errors = ["NotPrimeError: p = 4 is not an odd prime",
              "CapExceededError: p = %d exceeds the field cap 1000000" % big]
    assert report["rows"] == [{"kind": "error", "p": 4, "error": errors[0]},
                              {"kind": "error", "p": big, "error": errors[1]}]
    assert report["verdicts"] == [
        {"section": "upper_half", "p": 4, "error": errors[0], "passed": False},
        {"section": "upper_half", "p": big, "error": errors[1], "passed": False}]


def test_girth_command(tmp_path):
    code, report = run(tmp_path, "girth", "--q", "5", "--k", "1")
    assert code == 0
    (row,) = report["rows"]
    assert row == {"kind": "girth", "q": 5, "k": 1, "girth": 8, "a_pp": True,
                   "b_pp": True}
    code, report = run(tmp_path, "girth", "--q", "3", "--k", "2")
    assert code == 0
    (row,) = report["rows"]
    assert row["girth"] < 8
    assert not row["a_pp"]


def _declared_stages():
    """Every stage that some command's parser block declares."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {stage for sp in sub.choices.values() for stage in sp.get_default("stages")}


def test_no_stage_reads_the_command():
    # Whether a stage serves a field is its check's answer, and what a skip
    # reports is the runner's, so no stage body branches on the command.
    stages = _declared_stages()
    assert {name for name, *_ in stages} == {"sweep", "criterion", "identities",
                                             "girth", "field"}
    assert [name for name, run, *_ in stages if "command" in run.__code__.co_names] == []


def test_a_skipped_stage_builds_no_table(tmp_path, monkeypatch):
    # The identity grid does not serve e < 3, and its check says so before
    # any table is built: no Lucas table, no identities clock.
    def no_tables(fld):
        raise AssertionError("Lucas tables built for GF(%d)" % fld.q)

    monkeypatch.setattr(cli.Field, "binom_tables", no_tables)
    code, report = run(tmp_path, "identities", "--q", "5,25")
    assert code == 0
    assert report["rows"] == []
    assert report["verdicts"] == [
        {"section": "identities", "q": q, "skipped": "ParamDomain: e = %d < 3" % e,
         "passed": True} for q, e in ((5, 1), (25, 2))]
    assert {q: set(secs) for q, secs in report["timing"]["stages"].items()} == {
        "5": {"field", "encode"}, "25": {"field", "encode"}}


@pytest.mark.parametrize("argv,target", [
    (("girth", "--q", "9", "--k", "3"), "girth"),
    (("girth", "--q", "9", "--exps", "1,1,1,2"), "girth"),
    (("sweep", "--q", "9", "--with-girth"), "girth_at_least"),
])
def test_girth_stages_find_the_log_tables_built(tmp_path, monkeypatch, argv, target):
    # A stage declares the tables it reads, and the runner builds them
    # under "field" before it times the stage.
    built = []
    real = getattr(graphs, target)

    def spy(fld, *args, **kwargs):
        built.append(fld._logs is not None)
        return real(fld, *args, **kwargs)

    monkeypatch.setattr(graphs, target, spy)
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert built and all(built)


# Each Field table method and the attribute that caches its tables.
TABLES = {"log_tables": "_logs", "binom_tables": "_binoms"}


@pytest.mark.parametrize("argv", [
    ("sweep", "--q", "9,27", "--with-criterion", "--with-girth", "--girth-cap", "27"),
    ("identities", "--q", "27", "--p", "3"),
    ("girth", "--q", "9", "--k", "3"),
    ("girth", "--q", "9", "--exps", "1,1,1,2"),
    ("verify-all", "--q-max", "27"),
    ("field-info", "--q", "27"),
    pytest.param(("sweep", "--q", "9", "--with-girth"), id="sweep-with-girth"),
], ids=lambda argv: argv[0] + ("-exps" if "--exps" in argv else ""))
def test_no_table_is_first_built_inside_a_stage_clock(tmp_path, monkeypatch, argv):
    # Every table a stage reads is declared, so the runner builds it under
    # "field" and no stage's seconds include building it.
    stage_code = {stage[1].__code__: stage[0] for stage in _declared_stages()}
    late = []
    for method, attr in TABLES.items():
        real = getattr(cli.Field, method)

        def spy(fld, real=real, method=method, attr=attr):
            frame = sys._getframe(1)
            while getattr(fld, attr) is None and frame is not None:
                if frame.f_code in stage_code:
                    late.append((stage_code[frame.f_code], fld.q, method))
                    break
                frame = frame.f_back
            return real(fld)

        monkeypatch.setattr(cli.Field, method, spy)
    code, report = run(tmp_path, *argv)
    assert code == 0
    assert late == []


def test_upper_half_grids_are_timed_outside_the_body(tmp_path):
    # Each p's grid, an error included, is timed under timing.upper_half,
    # keyed by str(p); a cache hit runs no grid and records none.
    argv = ["identities", "--p", "3,4,211", "--cache", str(tmp_path / "cache")]
    code, report = run(tmp_path, *argv)
    assert code == 1
    timing = report["timing"]
    assert timing["stages"] == {}
    assert list(timing["upper_half"]) == ["3", "4", "211"]
    assert all(isinstance(v, float) and v >= 0 for v in timing["upper_half"].values())
    code, report = run(tmp_path, *argv)
    assert code == 1
    assert report["timing"]["cached"] is True and "upper_half" not in report["timing"]


@pytest.mark.parametrize("q,k,error", [
    (999983, 1, "CapExceededError: q = 999983 exceeds the girth cap 17"),
    (19, 1, "CapExceededError: q = 19 exceeds the girth cap 17"),
    (5, 9, "ValueError: k must be in 1..4, got 9"),
])
def test_girth_arguments_are_checked_before_any_table(tmp_path, monkeypatch,
                                                     q, k, error):
    # The body is the one written when the tables were built first: the
    # modulus is recorded, then the error row and the failing verdict.
    def no_tables(fld):
        raise AssertionError("log tables built for GF(%d)" % fld.q)

    monkeypatch.setattr(cli.Field, "log_tables", no_tables)
    code, report = run(tmp_path, "girth", "--q", str(q), "--k", str(k))
    assert code == 1
    assert report["modulus_by_q"] == {str(q): [0, 1]}
    assert report["rows"] == [{"kind": "error", "q": q, "error": error}]
    assert report["verdicts"] == [{"section": "girth", "q": q, "error": error,
                                   "passed": False}]
    assert report["overall"] == "fail"


def test_girth_command_exps(tmp_path):
    code, report = run(tmp_path, "girth", "--q", "3", "--exps", "1,1,1,2")
    assert code == 0
    assert report["rows"] == [{"kind": "girth", "q": 3, "k": None, "girth": 8}]
    assert report["params"]["f_exps"] == [1, 1] and report["params"]["g_exps"] == [1, 2]


def test_girth_command_cap(tmp_path):
    code, report = run(tmp_path, "girth", "--q", "19", "--k", "1")
    assert code == 1
    assert "CapExceeded" in report["rows"][0]["error"]


def test_girth_cap(tmp_path):
    # The default cap is 17; --girth-cap 3 rejects q = 5 and admits q = 3.
    code, report = run(tmp_path, "girth", "--q", "19", "--k", "1")
    assert code == 1
    assert report["rows"] == [{"kind": "error", "q": 19, "error":
                               "CapExceededError: q = 19 exceeds the girth cap 17"}]
    code, report = run(tmp_path, "girth", "--q", "5", "--k", "1",
                       "--girth-cap", "3", name="q5.json")
    assert code == 1
    assert report["rows"][0]["error"] == "CapExceededError: q = 5 exceeds the girth cap 3"
    code, report = run(tmp_path, "girth", "--q", "3", "--k", "1",
                       "--girth-cap", "3", name="q3.json")
    assert code == 0
    assert report["rows"][0]["girth"] == 8


@pytest.mark.parametrize("exps", ["-1,1,1,2", "1,1,1,-2", "1,x,1,2"])
def test_negative_exponent_is_a_usage_error(tmp_path, capsys, exps):
    # x^-1 is not a monomial exponent: the log tables would read it as the
    # inverse and 0^-1 as 0.  Nor is a token that is no integer.
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "girth", "--q", "5", "--exps=" + exps)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--exps" in captured.err


def test_girth_command_bad_k_keeps_modulus(tmp_path):
    code, report = run(tmp_path, "girth", "--q", "5", "--k", "9")
    assert code == 1
    (row,) = report["rows"]
    assert row == {"kind": "error", "q": 5,
                   "error": "ValueError: k must be in 1..4, got 9"}
    assert report["modulus_by_q"] == {"5": [0, 1]}


def test_field_info(tmp_path):
    code, report = run(tmp_path, "field-info", "--q", "27,9")
    assert code == 0
    rows = report["rows"]
    assert rows[0] == {"kind": "field", "q": 9, "p": 3, "e": 2,
                       "modulus_str": "X^2 + 1"}
    assert [r["q"] for r in rows] == [9, 27]
    assert report["modulus_by_q"]["9"] == [1, 0, 1]


def test_verify_all_small(tmp_path):
    code, report = run(tmp_path, "verify-all", "--q-max", "9")
    assert code == 0
    assert report["overall"] == "pass"
    sections = {v["section"] for v in report["verdicts"]}
    assert sections == {"sweep", "criterion", "girth", "upper_half"}
    assert set(report["modulus_by_q"]) == {"3", "5", "7", "9"}
    # q-max 3 is the least that covers a field; below it verify-all is a
    # usage error (test_nothing_to_check_is_a_usage_error).
    code, report = run(tmp_path, "verify-all", "--q-max", "3", name="q3.json")
    assert code == 0
    assert report["modulus_by_q"] == {"3": [0, 1]}


def test_verify_all_q_max_243_passes(tmp_path):
    # 61 fields, the even-e q = 81 among them: every verdict passes.
    code, report = run(tmp_path, "verify-all", "--q-max", "243")
    assert code == 0
    assert report["overall"] == "pass"
    assert len(report["modulus_by_q"]) == 61
    assert all(v["passed"] for v in report["verdicts"])


def test_verify_all_job_error_is_an_error_row(tmp_path, monkeypatch):
    # A stage that raises ends its field's job: the stages before it keep
    # their rows and verdicts, the stage gets one error row and a failing
    # verdict in its own section, and the stages after it do not run.
    def broken(fld, k):
        raise GfppError("criterion broke at q = %d" % fld.q)

    monkeypatch.setattr(criterion, "pp_criterion", broken)
    code, report = run(tmp_path, "verify-all", "--q-max", "9")
    assert code == 1
    assert report["overall"] == "fail"
    qs = [3, 5, 7, 9]
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    errors = [r for r in report["rows"] if r["kind"] == "error"]
    assert [r["kind"] for r in report["rows"] if "q" in r] == [
        kind for q in qs for kind in ["sweep"] * (q - 1) + ["error"]]
    assert [(r["q"], r["k"]) for r in sweep_rows] == [
        (q, k) for q in qs for k in range(1, q)]
    assert all(tuple(r) == SWEEP_KEYS for r in sweep_rows)
    assert errors == [{"kind": "error", "q": q,
                       "error": "GfppError: criterion broke at q = %d" % q} for q in qs]
    job_verdicts = [v for v in report["verdicts"] if "q" in v]
    assert [(v["section"], v["q"], v.get("which")) for v in job_verdicts] == [
        (section, q, which) for q in qs for section, which in
        [("sweep", "A"), ("sweep", "B"), ("sweep", "two"), ("criterion", None)]]
    assert all(v["passed"] for v in job_verdicts if v["section"] == "sweep")
    # No criterion stage finished, so no verdict lists mismatch_ks: each
    # q's criterion verdict is its error.
    assert [v for v in job_verdicts if v["section"] == "criterion"] == [
        {"section": "criterion", "q": q, "error": r["error"], "passed": False}
        for q, r in zip(qs, errors)]
    assert not any("mismatch_ks" in v for v in report["verdicts"])
    assert set(report["modulus_by_q"]) == {"3", "5", "7", "9"}
    for q in qs:
        assert set(report["timing"]["stages"][str(q)]) == {"field", "sweep", "encode"}


def test_verify_all_deterministic(tmp_path):
    _, first = run(tmp_path, "verify-all", "--q-max", "9", name="a.json")
    _, second = run(tmp_path, "verify-all", "--q-max", "9", name="b.json")
    first.pop("timing")
    second.pop("timing")
    assert first == second


# SHA-256 of each report without "timing", dumped with sorted keys and no
# spaces.  A change here is a report-body change: cached reports keyed by
# the old body would go stale.
GOLDEN_DIGESTS = {
    "sweep --q 729,1327 --which two":
        "2e9a61438beac1c484cb86a56606bb94901c6f4a2cfcda48848b4757f7d1b183",
    "verify-all --q-max 243":
        "52d3a48fd34e205f85e6b0637caa28ea88be3cc8b1a8c0a33c5cc8d2911f5fc2",
    "verify-all --q-max 27":
        "ab4951cbff55f035439c79d994cbcb2a65e7d0d1a6a5c34f22174bfff03186e9",
    "girth --q 9 --k 3":
        "b9d9715affe9aaf9b91996af4df234790ef6366068b759b6868837f9fcc48f08",
    "identities --q 27,243 --p 3,13":
        "48c6cbf0de6398eacd0fbd9f6f66e39a28a165c6bcf5e8eb28baa5214578e287",
    "sweep --q 5,9 --with-criterion --with-girth":
        "f21a44bc96a80e97c71d2ccc4cf98f533a9b2111b2903048b88bc48b02a94723",
    "sweep --q 9 --which A --with-girth --girth-cap 5":
        "adb1f7c6666cbd25f9a3b1ea7fc12e42275623b8a3b57c86d4674d78f71cad95",
    "girth --q 5 --exps 1,1,1,2":
        "d2305fc28df368b76be5723287aae2ff5a0c1dc81f0cb739f9be6080ed5f11de",
    "field-info --q 9,27":
        "78d7c3851a4eddd49e2408637b12780134bed87c5e3f216c2cac22ec4612ce02",
    "verify-all --q-max 81":
        "a5c51b30e168834059b51ab85da4cd4784e5c142d0473e900e939e864f9dee94",
    "identities --q 9":
        "b6a4d1baf80f496e4df987079572d4a4ca9daf1b66dd0511e81f506a8f1ef454",
    "girth --q 5 --k 9":
        "018948fc8768a3e126206ac0d7932b768081330ed2199238147e04224515ce05",
    "sweep --q 19 --with-girth":
        "a39710cb8277fb31f206aaaf5fe82a2f61eaab8954a5d434817556ffb552f364",
}

# SHA-256 of the emitted body text as written, everything before its
# timing entry, so that the key order of every row and verdict is pinned
# too; the digests above sort the keys away.
GOLDEN_TEXT_DIGESTS = {
    "sweep --q 729,1327 --which two":
        "96ff9eee49cd37cef8dcd2a0babeddb51a2531c33f64542d1cae0273caacbddf",
    "verify-all --q-max 243":
        "f80e5bf24cdebcc09207a472de85f13b1bab4680f4716c2dcbe13b547fe64bca",
    "verify-all --q-max 27":
        "85576681c846dfd41e2340bd2327bcf3e95afb5cabf37c829d5739acd006716f",
    "girth --q 9 --k 3":
        "482aaa8459e103741238d212ca96690d560bed6b07072a0a6413a54f1cfdf831",
    "identities --q 27,243 --p 3,13":
        "ea3e02e071aef1da66ca8669bce64fe84a9bac51473d7845ee157f8f80c91194",
    "sweep --q 5,9 --with-criterion --with-girth":
        "6d46082d44165c9bad9b81f80a2d24640ac182339d36d951eb03e9fd09b0f189",
    "sweep --q 9 --which A --with-girth --girth-cap 5":
        "fba727b5e911fd8c3e1d2103daaebef99810c867cd1dd12d9d9488627320e1e8",
    "girth --q 5 --exps 1,1,1,2":
        "75d34da084110d623af80aa32bc9f5e77eb543230e633b6357620c710d3c38c4",
    "field-info --q 9,27":
        "d6754e5d2a14e2180fe76c8f1ef0a840e5fa00c2d53f300a9fb93aa4861a6ee0",
    "verify-all --q-max 81":
        "af7d4cde0eea9664a1fc9af3c5a29cb0debde145e7d959a7a0728a082f584337",
    "identities --q 9":
        "b755d5828e55eeb43bca674ade1711f87b5c640a5c1dc0749b6f0336b181fb3b",
    "girth --q 5 --k 9":
        "653e7a8fb79a43ce506c54afc1cf25e13e188db0c4688686489e35ed9281f6e2",
    "sweep --q 19 --with-girth":
        "32010fdc66d4ca6ac005392bc4a63efde6a20e5e2f4867dcce3d6cce166a4b41",
}

# Golden commands whose report fails: k = 9 is out of range for q = 5.
# A sweep above its girth cap passes, with a skipped girth verdict.
GOLDEN_EXIT = {"girth --q 5 --k 9": 1}


@pytest.mark.parametrize("command", GOLDEN_DIGESTS)
def test_report_body_digest_is_golden(tmp_path, command):
    code, report = run(tmp_path, *command.split())
    assert code == GOLDEN_EXIT.get(command, 0)
    report.pop("timing")
    body = json.dumps(report, sort_keys=True, separators=(",", ":"))
    got = hashlib.sha256(body.encode()).hexdigest()
    text = (tmp_path / "out.json").read_text()
    text = text[:text.index(',\n  "timing"')]
    got_text = hashlib.sha256(text.encode()).hexdigest()
    assert (got, got_text) == (GOLDEN_DIGESTS[command],
                               GOLDEN_TEXT_DIGESTS[command]), (
        "report body of %r changed (sha256 %s, text %s): if the change is "
        "intended, bump cli.CACHE_SCHEMA and update both digest tables"
        % (command, got, got_text))


@pytest.mark.parametrize("argv", [["verify-all", "--q-max", "27"],
                                  ["sweep", "--q", "5,9", "--with-criterion",
                                   "--with-girth"]])
def test_sweep_rows_carry_only_the_flags(tmp_path, argv):
    # The stages that judge the sweep add no key to its rows but girth_ge_8,
    # last, where the girth scan ran, and the girth-scan rows carry the
    # flag alone.
    code, report = run(tmp_path, *argv)
    assert code == 0
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    girth_rows = [r for r in report["rows"] if r["kind"] == "girth"]
    assert sweep_rows and girth_rows
    assert all(tuple(r) == SWEEP_KEYS + (("girth_ge_8",) if r["q"] <= 17 else ())
               for r in sweep_rows)
    assert all(tuple(r) == ("kind", "q", "k", "girth_ge_8") for r in girth_rows)
    flags = {(r["q"], r["k"]): r["girth_ge_8"] for r in girth_rows}
    assert {(r["q"], r["k"]): r["girth_ge_8"] for r in sweep_rows if r["q"] <= 17} == flags


def test_emit_is_timed_outside_the_body(tmp_path, capsys):
    # timing.emit, the seconds of writing the body, is recorded on a miss
    # and on a hit, to --json and to stdout; the body text before timing
    # keeps its golden digest, and the hit finds the miss's entry.
    command = "sweep --q 729,1327 --which two"
    argv = command.split() + ["--jobs", "1", "--cache", str(tmp_path / "cache")]
    out = tmp_path / "out.json"
    for dest, cached in ((["--json", str(out)], None), (["--json", str(out)], True),
                         ([], True)):
        assert main(argv + dest) == 0
        text = out.read_text() if dest else capsys.readouterr().out
        timing = json.loads(text)["timing"]
        assert timing.get("cached") is cached
        assert isinstance(timing["emit"], float) and timing["emit"] >= 0
        head = text[:text.index(',\n  "timing"')]
        assert hashlib.sha256(head.encode()).hexdigest() == GOLDEN_TEXT_DIGESTS[command]


def test_verify_all_enumerates_only_up_to_the_field_cap(tmp_path, monkeypatch):
    # A q-max far above the cap must not be enumerated before the cap
    # applies: no q above the cap is ever factored.
    factor = cli.factor_prime_power

    def capped(q):
        assert q <= 9, q
        return factor(q)

    monkeypatch.setattr(cli, "factor_prime_power", capped)
    code, report = run(tmp_path, "verify-all", "--q-max", "30000000",
                       "--field-cap", "9")
    assert code == 0
    assert set(report["modulus_by_q"]) == {"3", "5", "7", "9"}
    assert report["params"]["q_max"] == 30000000


def test_verify_all_times_each_stage_per_q(tmp_path):
    code, report = run(tmp_path, "verify-all", "--q-max", "27")
    assert code == 0
    # A stage that does not serve q, the identity grid for e < 3 or the
    # girth scan above the girth cap of 17, is not timed; every job times
    # the encoding of its rows.
    stages = report["timing"]["stages"]
    assert set(stages) == set(report["modulus_by_q"])
    for q, secs in stages.items():
        e = factor_prime_power(int(q))[1]
        assert set(secs) == {"field", "sweep", "criterion", "encode"} | (
            {"identities"} if e >= 3 else set()) | (
            {"girth"} if int(q) <= 17 else set()), q
        assert all(isinstance(v, float) and v >= 0 for v in secs.values()), q
    assert set(stages["27"]) == {"field", "sweep", "criterion", "identities", "encode"}


def test_no_report_wide_row_list_is_encoded(tmp_path, monkeypatch):
    # Each job encodes its own rows: no json.dumps call sees rows of two
    # fields, and every field's rows are encoded.
    seen = []
    real = cli.json.dumps

    def spy(obj, *args, **kwargs):
        if isinstance(obj, list):
            qs = {r["q"] for r in obj if isinstance(r, dict) and "kind" in r and "q" in r}
            if qs:
                seen.append(qs)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    code, report = run(tmp_path, "verify-all", "--q-max", "27")
    assert code == 0
    assert all(len(qs) == 1 for qs in seen), seen
    assert set().union(*seen) == {int(q) for q in report["modulus_by_q"]}


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    out1 = tmp_path / "fresh.json"
    out2 = tmp_path / "cached.json"
    argv = ["verify-all", "--q-max", "27", "--jobs", "1", "--cache", str(cache)]
    assert main(argv + ["--json", str(out1)]) == 0
    cache_files = list(cache.glob("*.json"))
    assert len(cache_files) == 1
    assert main(argv + ["--json", str(out2)]) == 0
    fresh = json.loads(out1.read_text())
    cached = json.loads(out2.read_text())
    assert cached["timing"]["cached"] is True
    assert "stages" in fresh["timing"] and "stages" not in cached["timing"]
    # Only a miss encodes the body, and the encode is timed outside it.
    assert isinstance(fresh["timing"]["encode"], float)
    assert fresh["timing"]["encode"] >= 0
    assert "encode" not in cached["timing"]
    fresh.pop("timing")
    cached.pop("timing")
    assert fresh == cached


def test_cache_hit_enumerates_no_field(tmp_path, monkeypatch):
    # A hit is served from its entry alone: the sieve that lists
    # verify-all's q, and every stage, run only on a miss.
    argv = ["verify-all", "--q-max", "27", "--jobs", "1",
            "--cache", str(tmp_path / "cache"), "--json", str(tmp_path / "r.json")]
    assert main(argv) == 0
    fresh = json.loads((tmp_path / "r.json").read_text())

    def refuse(*args):
        raise AssertionError("a cache hit enumerated the fields")

    monkeypatch.setattr(cli, "odd_prime_powers", refuse)
    monkeypatch.setattr(cli, "_run_jobs", refuse)
    assert main(argv) == 0
    hit = json.loads((tmp_path / "r.json").read_text())
    assert hit.pop("timing")["cached"] is True
    fresh.pop("timing")
    assert hit == fresh


def _entry(body: str) -> str:
    """A cache entry that stores `body` under its own, valid digest."""
    return hashlib.sha256(body.encode()).hexdigest() + "\n" + body


def test_damaged_cache_entry_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    argv = ["sweep", "--q", "9", "--jobs", "1", "--cache", str(cache)]
    assert main(argv + ["--json", str(tmp_path / "fresh.json")]) == 0
    fresh = json.loads((tmp_path / "fresh.json").read_text())
    fresh.pop("timing")
    (entry,) = cache.glob("*.json")
    good = entry.read_text()
    digest, body = good.split("\n", 1)
    assert good == _entry(body)
    short = json.loads(body)
    del short["overall"]
    edited = body.replace('"a_pp": false', '"a_pp": true', 1)
    assert edited != body
    unquoted = body.replace('\n  "overall": "pass"', '\n  "overall": pass', 1)
    assert unquoted != body
    for damaged in (
            # Under a valid digest: truncated; parseable but not in the
            # writer's layout; and in the writer's layout, with its head
            # and tail, but missing a key.
            _entry(body[: len(body) // 2]),
            _entry(json.dumps(json.loads(body), separators=(",", ":"))),
            _entry(json.dumps(short, indent=2) + "\n"),
            # In the writer's layout, with its head and end, but a tail
            # that is not JSON.
            _entry(unquoted),
            # One value edited inside a row, still valid JSON in the
            # writer's layout, under the digest of the unedited body.
            digest + "\n" + edited,
            # A bare body, without a digest line.
            body):
        entry.write_text(damaged)
        assert main(argv + ["--json", str(tmp_path / "again.json")]) == 0
        again = json.loads((tmp_path / "again.json").read_text())
        assert "cached" not in again["timing"]
        again.pop("timing")
        assert fresh == again
        assert entry.read_text() == good
        assert [p.name for p in cache.iterdir()] == [entry.name]


def test_cache_hit_never_decodes_the_rows(tmp_path, monkeypatch):
    argv = ["verify-all", "--q-max", "27", "--jobs", "1",
            "--cache", str(tmp_path / "cache"), "--json", str(tmp_path / "r.json")]
    assert main(argv) == 0
    real = json.loads
    decoded = []

    def spy(s, *args, **kwargs):
        decoded.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", spy)
    assert main(argv) == 0
    monkeypatch.undo()
    assert real((tmp_path / "r.json").read_text())["timing"]["cached"] is True
    assert decoded
    assert not any('"rows"' in str(s) or '"kind"' in str(s) for s in decoded)


def test_a_miss_and_a_hit_hand_the_emitter_one_report_shape(tmp_path, monkeypatch):
    # After the cache nothing reads the rows, so a miss hands the emitter
    # what a hit does: the command, the verdicts, overall, version and
    # timing.
    shapes = []
    emit = cli._emit

    def spy(report, body, args):
        shapes.append(set(report))
        return emit(report, body, args)

    monkeypatch.setattr(cli, "_emit", spy)
    argv = ["sweep", "--q", "9", "--jobs", "1", "--cache", str(tmp_path / "cache"),
            "--json", str(tmp_path / "r.json")]
    assert main(argv) == main(argv) == 0
    assert shapes == [{"command", "verdicts", "overall", "version", "timing"}] * 2


def test_unwritable_cache_still_emits_the_report(tmp_path, capsys):
    # The cache directory's path names a regular file, so no entry can be
    # written there; the report is emitted all the same.
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    code = main(["field-info", "--q", "9", "--jobs", "1", "--cache", str(cache)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["modulus_by_q"] == {"9": [1, 0, 1]}
    (line,) = [l for l in captured.err.splitlines() if "cache" in l]
    assert line.startswith("[gfpp] cache not written: ")
    assert cache.read_text() == "not a directory"


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    # The temp file is written, but renaming it into place fails: the
    # report is emitted all the same, and the temp file is removed.
    cache = tmp_path / "cache"

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code = main(["field-info", "--q", "9", "--jobs", "1", "--cache", str(cache)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["modulus_by_q"] == {"9": [1, 0, 1]}
    (line,) = [l for l in captured.err.splitlines() if "cache" in l]
    assert line == "[gfpp] cache not written: rename refused"
    assert list(cache.iterdir()) == []


SCALARS = (str, int, bool, type(None))


@pytest.mark.parametrize("argv", [c.split() for c in GOLDEN_DIGESTS])
def test_emitted_text_is_the_indented_dump(tmp_path, capsys, argv):
    """Cold and cached, to --json and to stdout, the report is spliced from
    the stored body text yet reads exactly as json.dumps(report, indent=2)
    writes it, and every row, of every kind and of the error and skipped
    cases, is a flat dict of scalars, as _body_text's one path needs."""
    out = tmp_path / "out.json"
    for dest in (["--json", str(out)], []):
        cache = tmp_path / ("cache%d" % len(dest))
        for cached in (None, True):
            main(argv + ["--jobs", "1", "--cache", str(cache)] + dest)
            text = out.read_text() if dest else capsys.readouterr().out
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            report = json.loads(text)
            assert report["timing"].get("cached") is cached
            assert all(type(r) is dict and r and all(type(v) in SCALARS for v in r.values())
                       for r in report["rows"])


def _body(rows):
    return {"command": "sweep", "params": {"q": [9], "rows": []},
            "modulus_by_q": {"9": [1, 0, 1]}, "rows": rows,
            "verdicts": [{"section": "sweep", "q": 9, "witnesses": [1, 3],
                          "passed": True}],
            "overall": "pass", "version": "0"}


ERROR_TEXT = 'say "hi" \\ back\nslash},\n      {"q": 1} \u00e9\u2264 },'


@pytest.mark.parametrize("rows", [
    [],
    [{"kind": "sweep", "q": 9, "k": 1, "a_pp": True, "criterion": None}],
    [{"kind": "error", "q": 9, "error": ERROR_TEXT},
     {"kind": "error", "q": 11, "error": "},"}, {"kind": "ratio", "x": 0.5}],
    [{"kind": "sweep", "k": 1, "flag": False}, {"kind": "sweep", "k": None}],
], ids=["empty", "one-row", "error-strings", "none-and-bool"])
def test_body_text_is_the_indented_dump(rows):
    # The rows split across fragments at every cut, with an empty fragment
    # between the two halves; no rows make every fragment empty.
    body = _body(rows)
    dump = (json.dumps(body, indent=2) + "\n").encode()
    for cut in range(len(rows) + 1):
        fragments = [cli._row_text(rows[:cut]), b"", cli._row_text(rows[cut:])]
        assert cli._body_text(dict(body, rows=fragments)) == dump, cut
    assert cli._body_text(dict(body, rows=[cli._row_text([r]) for r in rows])) == dump


def _serial_and_parallel(tmp_path, argv):
    """The reports of `argv` with --jobs 1 and --jobs 2, timing removed."""
    code1, serial = run(tmp_path, *argv, name="serial.json")
    out = tmp_path / "parallel.json"
    code2 = main(list(argv) + ["--jobs", "2", "--json", str(out)])
    parallel = json.loads(out.read_text())
    assert code1 == code2 == 0
    serial.pop("timing")
    parallel.pop("timing")
    return serial, parallel


def test_jobs_parallel_matches_serial(tmp_path):
    serial, parallel = _serial_and_parallel(tmp_path, ["sweep", "--q", "3,5,9"])
    assert serial == parallel


@pytest.mark.parametrize("argv", [["verify-all", "--q-max", "81"],
                                  ["identities", "--q", "9,27", "--p", "3"]],
                         ids=["verify-all", "identities"])
def test_jobs_parallel_matches_serial_per_command(tmp_path, argv):
    # The identities job of q = 9, e = 2, writes no rows: its fragment is
    # empty and comes first, before q = 27's and the upper-half grid's.
    serial, parallel = _serial_and_parallel(tmp_path, argv)
    assert serial == parallel


def test_jobs_are_capped_at_the_core_count(tmp_path, monkeypatch):
    # The pool is faked: no worker process is ever started here.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, serial = run(tmp_path, "sweep", "--q", "3,5,7", name="serial.json")
    out = tmp_path / "many.json"
    assert main(["sweep", "--q", "3,5,7", "--jobs", "1000", "--json", str(out)]) == 0
    assert asked == [2]
    many = json.loads(out.read_text())
    serial.pop("timing")
    many.pop("timing")
    assert many == serial


def test_stdout_carries_pure_json(tmp_path, capsys):
    code = main(["sweep", "--q", "3", "--jobs", "1"])
    assert code == 0
    captured = capsys.readouterr()
    parsed = json.loads(captured.out)
    assert parsed["command"] == "sweep"
    assert "[PASS]" in captured.err


def test_q_above_the_field_cap_is_rejected_before_factoring(tmp_path):
    # Trial division of this q would take about 10^9 steps.
    q = 1000000000000000003
    start = time.perf_counter()
    code, report = run(tmp_path, "sweep", "--q", str(q))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert report["rows"] == [{"kind": "error", "q": q, "error":
                               "CapExceededError: q = %d exceeds the field cap 1000000" % q}]


def test_p_above_the_field_cap_is_rejected_before_the_primality_test(tmp_path):
    # Trial division of this p would take about 10^9 steps.
    p = 1000000000000000003
    start = time.perf_counter()
    code, report = run(tmp_path, "identities", "--p", "%d,5" % p)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert [r["p"] for r in report["rows"]] == [5] * 20 + [p]
    assert report["rows"][-1] == {
        "kind": "error", "p": p,
        "error": "CapExceededError: p = %d exceeds the field cap 1000000" % p}
    assert report["verdicts"][-1] == {"section": "upper_half", "p": p,
                                      "error": report["rows"][-1]["error"],
                                      "passed": False}
    assert report["verdicts"][0]["passed"]
    # verify-all's own primes are not capped
    code, report = run(tmp_path, "verify-all", "--q-max", "3",
                       "--field-cap", "5", name="va.json")
    assert code == 0
    assert [v["p"] for v in report["verdicts"] if "p" in v] == [3, 5, 7, 11, 13]


@pytest.mark.parametrize("flag", ["--json"])
def test_unwritable_output_path_is_an_error_line(tmp_path, capsys, flag):
    # The cache entry is written before the report is emitted, so a rerun
    # with a good path is a cache hit.
    bad = str(tmp_path / "missing" / "out")
    argv = ["sweep", "--q", "9", "--jobs", "1", "--cache", str(tmp_path / "cache")]
    assert main(argv + [flag, bad]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "[gfpp] cannot write %s: No such file or directory" % bad]
    assert captured.out == ""
    good = tmp_path / "out.json"
    assert main(argv + ["--json", str(good)]) == 0
    assert json.loads(good.read_text())["timing"]["cached"] is True


def test_a_closed_stdout_is_an_error_line():
    # A reader that is gone before the report is written, as `| head -c 20`
    # may be, gets the rule of an unwritable --json path: one stderr line
    # and exit 2, with no traceback and nothing left to fail at exit.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "gfpp.cli", "sweep", "--q", "9",
                           "--jobs", "1"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err.splitlines() == ["[gfpp] cannot write stdout: Broken pipe"]


def test_dropping_a_stream_leaves_no_descriptor_open(tmp_path):
    # _drop points the stream at os.devnull and closes the descriptor it
    # opened for that
    with open(tmp_path / "stream", "w") as stream:
        before = len(os.listdir("/dev/fd"))
        cli._drop(stream)
        assert len(os.listdir("/dev/fd")) == before
        stream.write("gone")
    assert (tmp_path / "stream").read_text() == ""


@pytest.mark.parametrize("cache", [[], ["--cache", "file"]], ids=["plain", "unwritable-cache"])
def test_a_closed_stderr_is_exit_2(tmp_path, cache):
    # A stderr reader that is gone before the verdict lines are written
    # gets exit 2, not the 1 of a failed verdict, with nothing left to
    # fail at exit, and the --json report is whole, also when stderr
    # would first say that the cache was not written.
    out = tmp_path / "out.json"
    (tmp_path / "file").write_text("not a directory")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "gfpp.cli", "verify-all", "--q-max",
                           "81", "--jobs", "1", "--json", str(out)] + cache,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          cwd=tmp_path) as proc:
        proc.stderr.close()
        assert proc.stdout.read() == b""
    assert proc.returncode == 2
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    report.pop("timing")
    body = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest() == GOLDEN_DIGESTS[
        "verify-all --q-max 81"]


@pytest.mark.parametrize("argv", [["identities"], ["sweep", "--q", ","],
                                  ["field-info", "--q", ","],
                                  ["identities", "--p", " "],
                                  ["verify-all", "--q-max", "0"],
                                  ["verify-all", "--q-max", "2"],
                                  ["verify-all", "--q-max", "27", "--field-cap", "2"]])
def test_nothing_to_check_is_a_usage_error(tmp_path, capsys, argv):
    """A command that would check nothing must not report a pass."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    """--jobs 0 is not quietly run as --jobs 1."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--q", "3", "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


COMMON_OPTIONS = {"--json", "--jobs", "--cache", "--field-cap"}

# Each command takes only the options it reads: --girth-cap where a girth
# stage reads it.  No environment variable sets any value.
COMMAND_OPTIONS = {
    "sweep": {"--q", "--which", "--with-criterion", "--with-girth", "--girth-cap"},
    "identities": {"--q", "--p"},
    "girth": {"--q", "--k", "--exps", "--girth-cap"},
    "verify-all": {"--q-max", "--girth-cap"},
    "field-info": {"--q"},
}


def test_each_command_takes_only_the_options_it_reads():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for action in sp._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")}
               for name, sp in sub.choices.items()}
    assert options == {name: opts | COMMON_OPTIONS
                       for name, opts in COMMAND_OPTIONS.items()}
    assert sum(map(len, options.values())) == 34


@pytest.mark.parametrize("argv", [["identities", "--q", "27", "--girth-cap", "3"],
                                  ["field-info", "--q", "9", "--csv", "F"],
                                  ["girth", "--q", "5", "--k", "1", "--csv", "F"],
                                  ["sweep", "--q", "9", "--csv", "F"],
                                  ["verify-all", "--q-max", "9", "--csv", "F"]])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                              monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err
    assert list(tmp_path.iterdir()) == []


# The cache entry names of the benchmark's two commands.  A change here is
# a change of the params or of the cache key: the entries of the version
# before are no longer found.
GOLDEN_ENTRY_NAMES = {
    "verify-all --q-max 243 --jobs 1 --field-cap 1000000 --girth-cap 17":
        "1c23c784d847abef756bde8a0fde62684e639ef983ea565bd39415a0e095bece.json",
    "sweep --q 729,1327 --which two --jobs 1 --field-cap 1000000 --girth-cap 17":
        "9f8cab046cfd98ef7ce3cf5e792a7a932bf709c40ca623055297656030868fd9.json",
}


@pytest.mark.parametrize("command", GOLDEN_ENTRY_NAMES)
def test_cache_entry_name_is_golden(tmp_path, monkeypatch, command):
    # The name depends on the params alone, so no field is computed.
    monkeypatch.setattr(cli, "_run_jobs", lambda *_: ({}, [], [], {}))
    cache = tmp_path / "cache"
    main(command.split() + ["--cache", str(cache), "--json", str(tmp_path / "r.json")])
    assert [p.name for p in cache.iterdir()] == [GOLDEN_ENTRY_NAMES[command]]


def _readme_commands():
    """The `gfpp ...` lines of the README's command block, each without
    `gfpp` and its trailing comment."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("gfpp ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_examples_run(tmp_path, argv):
    # The docs name only options that exist, and every example passes.
    assert main(argv + ["--jobs", "1", "--json", str(tmp_path / "out.json")]) == 0
