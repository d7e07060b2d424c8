"""CLI commands: report shape, exit codes, CSV, cache, determinism, jobs,
and the options each command takes."""

import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import time

import pytest

from gfpp import cli, criterion, graphs
from gfpp.cli import CSV_COLUMNS, factor_prime_power, main, odd_prime_powers
from gfpp.errors import GfppError, NotPrimeError


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--json", str(out), "--jobs", "1"])
    return code, json.loads(out.read_text())


def run_csv(tmp_path, *argv):
    """run, plus the --csv view's rows as dicts keyed by CSV_COLUMNS."""
    out = tmp_path / "rows.csv"
    code, report = run(tmp_path, *argv, "--csv", str(out))
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, report, rows


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(4) == (2, 2)
    with pytest.raises(NotPrimeError):
        factor_prime_power(15)
    with pytest.raises(NotPrimeError):
        factor_prime_power(1)


def test_odd_prime_powers():
    assert odd_prime_powers(27) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def test_odd_prime_powers_equal_the_factoring_filter():
    # The sieve against factor_prime_power on every q, at every limit.
    expected = []
    for q in range(3, 5001):
        try:
            p, _ = factor_prime_power(q)
        except NotPrimeError:
            continue
        if p != 2:
            expected.append(q)
    for limit in range(-2, 5001):
        assert odd_prime_powers(limit) == [q for q in expected if q <= limit], limit


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
    # No mismatch: every row is a sweep row, and the CSV's criterion
    # column equals its a_pp column.
    code, report, rows = run_csv(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 0
    assert [r["kind"] for r in report["rows"]] == ["sweep"] * 8
    assert [r["criterion"] for r in rows] == [r["a_pp"] for r in rows]
    assert {r["criterion"] for r in rows} == {"true", "false"}


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
    # without the flag the girth column stays empty
    code, report = run(tmp_path, "sweep", "--q", "3", name="plain.json")
    assert code == 0
    assert [r["girth_ge_8"] for r in report["rows"]] == [None, None]


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
    code, report, csv_rows = run_csv(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 1
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    mismatches = [r for r in report["rows"] if r["kind"] == "criterion_mismatch"]
    assert report["rows"] == sweep_rows + mismatches
    bad = [r["k"] for r in sweep_rows if not r["a_pp"]]
    assert bad == [2, 4, 5, 6, 7, 8]
    assert mismatches == [{"kind": "criterion_mismatch", "q": 9, "k": k,
                           "direct": False, "criterion": True} for k in bad]
    assert [r["criterion"] for r in csv_rows] == ["true"] * 8
    sweep_verdict, criterion_verdict = report["verdicts"]
    assert sweep_verdict["passed"]
    assert criterion_verdict == {"section": "criterion", "q": 9, "checked": 8,
                                 "mismatch_ks": bad, "passed": False}


def test_sweep_with_criterion_times_the_criterion_stage(tmp_path):
    code, report = run(tmp_path, "sweep", "--q", "9", "--with-criterion")
    assert code == 0
    assert set(report["timing"]["stages"]["9"]) == {"field", "sweep", "criterion"}
    assert report["verdicts"][-1]["section"] == "criterion"


def test_sweep_girth_cap_error_keeps_modulus(tmp_path):
    # Above the girth cap the q keeps its sweep rows, with no girth flag,
    # and its sweep verdict; the girth stage adds an error row and fails.
    code, report = run(tmp_path, "sweep", "--q", "19", "--with-girth")
    assert code == 1
    *sweep_rows, row = report["rows"]
    assert [r["k"] for r in sweep_rows] == list(range(1, 19))
    assert all(r["kind"] == "sweep" and r["girth_ge_8"] is None for r in sweep_rows)
    assert row["kind"] == "error" and "CapExceeded" in row["error"]
    sweep_verdict, girth_verdict = report["verdicts"]
    assert sweep_verdict["section"] == "sweep" and sweep_verdict["passed"]
    assert girth_verdict == {"section": "girth", "q": 19, "error": row["error"],
                             "passed": False}
    assert report["modulus_by_q"] == {"19": [0, 1]}


def test_sweep_csv(tmp_path):
    out_csv = tmp_path / "rows.csv"
    code = main(["sweep", "--q", "9", "--jobs", "1",
                 "--json", str(tmp_path / "r.json"), "--csv", str(out_csv)])
    assert code == 0
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 9
    # k = 3 = p: coprime to 8, with k' = 3 (3*3 = 9 = 8 + 1), whose
    # base-3 digits (0, 1) are binary.  k = 2 shares 2 with 8: no k'.
    k3 = next(r for r in rows[1:] if r[1] == "3")
    assert k3 == ["9", "3", "true", "true", "true", "", "3", "true", "", "true"]
    k2 = next(r for r in rows[1:] if r[1] == "2")
    assert k2 == ["9", "2", "false", "false", "false", "", "", "", "", "false"]


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
    assert all(r["match"] for r in report["rows"] if not r["wrap"])


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
    assert row["girth"] == 8 and row["girth_ge_8"]
    code, report = run(tmp_path, "girth", "--q", "3", "--k", "2")
    assert code == 0
    (row,) = report["rows"]
    assert row["girth"] < 8 and not row["girth_ge_8"]
    assert not row["a_pp"]


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
    assert report["rows"][0]["girth"] == 8


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


@pytest.mark.parametrize("exps", ["-1,1,1,2", "1,1,1,-2"])
def test_negative_exponent_is_a_usage_error(tmp_path, capsys, exps):
    # x^-1 is not a monomial exponent: the log tables would read it as the
    # inverse and 0^-1 as 0.
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
    assert [r["q"] for r in rows] == [9, 27]
    assert rows[0]["modulus"] == [1, 0, 1]
    assert rows[0]["modulus_str"] == "X^2 + 1"


def test_verify_all_small(tmp_path):
    code, report = run(tmp_path, "verify-all", "--q-max", "9")
    assert code == 0
    assert report["overall"] == "pass"
    sections = {v["section"] for v in report["verdicts"]}
    assert sections == {"sweep", "criterion", "girth", "upper_half"}
    assert set(report["modulus_by_q"]) == {"3", "5", "7", "9"}
    # No odd prime power is <= 2, but the upper-half grids still run.
    code, report = run(tmp_path, "verify-all", "--q-max", "2", name="q2.json")
    assert code == 0
    assert report["modulus_by_q"] == {}
    assert {v["section"] for v in report["verdicts"]} == {"upper_half"}


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
    code, report, csv_rows = run_csv(tmp_path, "verify-all", "--q-max", "9")
    assert code == 1
    assert report["overall"] == "fail"
    qs = [3, 5, 7, 9]
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    errors = [r for r in report["rows"] if r["kind"] == "error"]
    assert [r["kind"] for r in report["rows"] if "q" in r] == [
        kind for q in qs for kind in ["sweep"] * (q - 1) + ["error"]]
    assert [(r["q"], r["k"]) for r in sweep_rows] == [
        (q, k) for q in qs for k in range(1, q)]
    assert all(r["girth_ge_8"] is None for r in sweep_rows)
    # No criterion stage finished, so the CSV's criterion column is empty.
    assert len(csv_rows) == len(sweep_rows)
    assert all(r["criterion"] == "" and r["girth_class"] == "" for r in csv_rows)
    assert errors == [{"kind": "error", "q": q,
                       "error": "GfppError: criterion broke at q = %d" % q} for q in qs]
    job_verdicts = [v for v in report["verdicts"] if "q" in v]
    assert [(v["section"], v["q"], v.get("which")) for v in job_verdicts] == [
        (section, q, which) for q in qs for section, which in
        [("sweep", "A"), ("sweep", "B"), ("sweep", "two"), ("criterion", None)]]
    assert all(v["passed"] for v in job_verdicts if v["section"] == "sweep")
    assert [v for v in job_verdicts if v["section"] == "criterion"] == [
        {"section": "criterion", "q": q, "error": r["error"], "passed": False}
        for q, r in zip(qs, errors)]
    assert set(report["modulus_by_q"]) == {"3", "5", "7", "9"}
    for q in qs:
        assert set(report["timing"]["stages"][str(q)]) == {"field", "sweep"}


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
        "39fcd2080ae8a68d6cd5e622473d55195babd1495514b8c7da7a291aad4f5f22",
    "verify-all --q-max 27":
        "ed3a9f1fe5ec7b075249ed630bd57f4621390e73276b9fde0dcd658dca21ddb7",
    "girth --q 9 --k 3":
        "81abc82839f585414415255a28557a2e29f91fefb3d7bdd7bd5d21a6c4aefb3c",
    "identities --q 27,243 --p 3,13":
        "0f095fb4985a232762293961968592993b7c9fe00b9fafa6c8841d0e3cd37d58",
    "sweep --q 5,9 --with-criterion --with-girth":
        "f21a44bc96a80e97c71d2ccc4cf98f533a9b2111b2903048b88bc48b02a94723",
    "sweep --q 9 --which A --with-girth --girth-cap 5":
        "2557589d1bab3dfd18804c156f9036f613ce2de9115155698a6629a6b7e5a431",
    "girth --q 5 --exps 1,1,1,2":
        "5c90d0918cc8a5c6f7d139e561a260ef45c5208c7f9a5302db82a2fbf665a2a5",
    "field-info --q 9,27":
        "03db3b58ab4121212cb49929c5a4bf51a73abbb6d13f0ed6503fa9791afb38d9",
    "verify-all --q-max 81":
        "7a390da48a460237d4a4d21bbabceda186c4c8c3175a0c03d37126b5fd265ae6",
    "identities --q 9":
        "b6a4d1baf80f496e4df987079572d4a4ca9daf1b66dd0511e81f506a8f1ef454",
    "girth --q 5 --k 9":
        "018948fc8768a3e126206ac0d7932b768081330ed2199238147e04224515ce05",
    "sweep --q 19 --with-girth":
        "4a6eab1997d1139968250585a31dea7c9dff0761bb88acc16457db96a3a11b4c",
}

# SHA-256 of the emitted body text as written, everything before its
# timing entry, so that the key order of every row and verdict is pinned
# too; the digests above sort the keys away.
GOLDEN_TEXT_DIGESTS = {
    "sweep --q 729,1327 --which two":
        "35134c914d3ba840edf38bfd27e9237353ec43c5ba7debe19fb091974680563b",
    "verify-all --q-max 27":
        "ddcd329aad0d75d89e179a60564d1505a8c8d804a765daaa5cd7011e8cc13da5",
    "girth --q 9 --k 3":
        "b65301818c07365d366266d3f23541b09731162dbfaac5e026c3412c619da2c1",
    "identities --q 27,243 --p 3,13":
        "7cc811a94f3a9daa230279f8a8bf2f4149f0a6e4c7527ce323ed8b35ee2125ed",
    "sweep --q 5,9 --with-criterion --with-girth":
        "6d46082d44165c9bad9b81f80a2d24640ac182339d36d951eb03e9fd09b0f189",
    "sweep --q 9 --which A --with-girth --girth-cap 5":
        "4c806fa8c2b0da9660bba1dc5a44fd69780226a7d0481e01d731d15b43b8a433",
    "girth --q 5 --exps 1,1,1,2":
        "209f9975a9632b571ceaac58db430448d0f238606c315d2aef4f36323c4297ea",
    "field-info --q 9,27":
        "2df71ab186d523dba3976a96510f33eaebbb42b20692ae8c2ff2f3e3f216453a",
    "verify-all --q-max 81":
        "196001f9aac2047899f71c8d7d843232818592192d937929a34b543a25aeb082",
    "identities --q 9":
        "b755d5828e55eeb43bca674ade1711f87b5c640a5c1dc0749b6f0336b181fb3b",
    "girth --q 5 --k 9":
        "653e7a8fb79a43ce506c54afc1cf25e13e188db0c4688686489e35ed9281f6e2",
    "sweep --q 19 --with-girth":
        "563640e26100d4b2925be3b65fc1b789c557e702cd482f2d9f43c463ccf43204",
}

# Golden commands whose report fails: q = 9 is above the girth cap of 5
# and q = 19 above the default cap of 17, and k = 9 is out of range for
# q = 5.
GOLDEN_EXIT = {"sweep --q 9 --which A --with-girth --girth-cap 5": 1,
               "sweep --q 19 --with-girth": 1, "girth --q 5 --k 9": 1}


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


# SHA-256 of the --csv file.  The CSV is a view: its gcd_ok, k_prime,
# k_prime_binary, p_power and criterion columns are rebuilt from (q, k) and
# the criterion verdicts, not read from the rows, and must not change when
# the rows do.
GOLDEN_CSV_DIGESTS = {
    "verify-all --q-max 81":
        "78b61872a3ff9ed5dc55d3be1d46538d2748690944c50fe6c9b31d93062148ac",
    "sweep --q 5,9 --with-criterion --with-girth":
        "817d97d78b5baca61e2efba27205c69d27cca771720f25b630c078808e3fcc39",
    "sweep --q 729,1327 --which two":
        "87accd7571a0bcc44d58615cc27aa88081c5eeb4cca4cb0c3a6da0bbaef69ecd",
    "sweep --q 19 --with-girth":
        "7dfe8b459abe67a8004dd18e38136273e481b70ce05f72a2e235c7a4247d75c7",
}


@pytest.mark.parametrize("command", GOLDEN_CSV_DIGESTS)
def test_csv_digest_is_golden(tmp_path, command):
    argv = command.split() + ["--jobs", "1", "--cache", str(tmp_path / "cache"),
                              "--json", str(tmp_path / "r.json")]
    for cached in (None, True):
        out = tmp_path / ("%s.csv" % cached)
        assert main(argv + ["--csv", str(out)]) == GOLDEN_EXIT.get(command, 0)
        assert json.loads((tmp_path / "r.json").read_text())["timing"].get("cached") is cached
        got = hashlib.sha256(out.read_bytes()).hexdigest()
        assert got == GOLDEN_CSV_DIGESTS[command], (command, cached, got)


SWEEP_KEYS = ("kind", "q", "k", "a_pp", "b_pp", "girth_ge_8")


@pytest.mark.parametrize("argv", [["verify-all", "--q-max", "27"],
                                  ["sweep", "--q", "5,9", "--with-criterion",
                                   "--with-girth"]])
def test_sweep_rows_carry_only_the_flags(tmp_path, argv):
    # The stages that judge the sweep add no key to its rows but girth_ge_8,
    # and the girth-scan rows carry the flag alone.
    code, report = run(tmp_path, *argv)
    assert code == 0
    sweep_rows = [r for r in report["rows"] if r["kind"] == "sweep"]
    girth_rows = [r for r in report["rows"] if r["kind"] == "girth"]
    assert sweep_rows and girth_rows
    assert all(tuple(r) == SWEEP_KEYS for r in sweep_rows)
    assert all(tuple(r) == ("kind", "q", "k", "girth_ge_8") for r in girth_rows)
    flags = {(r["q"], r["k"]): r["girth_ge_8"] for r in girth_rows}
    assert {(r["q"], r["k"]): r["girth_ge_8"] for r in sweep_rows if r["q"] <= 17} == flags


def _base_p_digits(n, p):
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


@pytest.mark.parametrize("argv", [["verify-all", "--q-max", "81"],
                                  ["sweep", "--q", "243,729"]],
                         ids=["verify-all-81", "sweep-243-729"])
def test_csv_derived_columns_match_independent_computations(tmp_path, argv):
    # At every k of every q: gcd_ok, k_prime, k_prime_binary and p_power
    # from math.gcd, pow(k, -1, q-1) and a plain base-p loop.  verify-all
    # covers every odd q <= 81, and its criterion column is a_pp, as every
    # criterion verdict passes; the sweep runs no criterion stage.  Up to
    # q = 81 a unit k has binary digits iff its inverse does, so reading k
    # for k' shows only at q = 243 and 729.
    code, report, rows = run_csv(tmp_path, *argv)
    assert code == 0
    qs = [int(q) for q in report["modulus_by_q"]]
    assert [(int(r["q"]), int(r["k"])) for r in rows] == [
        (q, k) for q in qs for k in range(1, q)]
    flags = {(r["q"], r["k"]): r for r in report["rows"] if r["kind"] == "sweep"}
    cell = {True: "true", False: "false"}
    judged = argv[0] == "verify-all"
    for r in rows:
        q, k = int(r["q"]), int(r["k"])
        p, _ = factor_prime_power(q)
        coprime = math.gcd(k, q - 1) == 1
        kp = pow(k, -1, q - 1) if coprime else None
        assert r["gcd_ok"] == cell[coprime], (q, k)
        assert r["k_prime"] == ("" if kp is None else str(kp)), (q, k)
        assert r["k_prime_binary"] == (
            "" if kp is None else cell[set(_base_p_digits(kp, p)) <= {0, 1}]), (q, k)
        assert r["p_power"] == cell[k in {p**i for i in range(q.bit_length())}], (q, k)
        assert r["a_pp"] == cell[flags[q, k]["a_pp"]], (q, k)
        assert r["criterion"] == (r["a_pp"] if judged else ""), (q, k)
        assert r["b_pp"] == cell[flags[q, k]["b_pp"]], (q, k)
        assert r["girth_class"] == ("" if q > 17 or not judged else
                                    "ge8" if flags[q, k]["girth_ge_8"] else "lt8"), (q, k)


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
    stages = report["timing"]["stages"]
    assert set(stages) == set(report["modulus_by_q"])
    for q, secs in stages.items():
        assert set(secs) == {"field", "sweep", "criterion", "identities",
                             "girth"}, q
        assert all(isinstance(v, float) and v >= 0 for v in secs.values()), q


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
    for damaged in (
            # Under a valid digest: truncated; parseable but not in the
            # writer's layout; and in the writer's layout, with its head
            # and tail, but missing a key.
            _entry(body[: len(body) // 2]),
            _entry(json.dumps(json.loads(body), separators=(",", ":"))),
            _entry(json.dumps(short, indent=2) + "\n"),
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


def test_cache_hit_csv_matches_the_cold_run(tmp_path):
    argv = ["verify-all", "--q-max", "27", "--jobs", "1",
            "--cache", str(tmp_path / "cache"), "--json", str(tmp_path / "r.json")]
    assert main(argv + ["--csv", str(tmp_path / "cold.csv")]) == 0
    assert main(argv + ["--csv", str(tmp_path / "hit.csv")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["timing"]["cached"] is True
    cold = (tmp_path / "cold.csv").read_bytes()
    assert len(cold.splitlines()) > 1  # the header and the sweep rows
    assert (tmp_path / "hit.csv").read_bytes() == cold


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


def test_unwritable_cache_still_emits_the_report(tmp_path, capsys):
    # The cache directory's path names a regular file, so no entry can be
    # written there; the report is emitted all the same.
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    code = main(["field-info", "--q", "9", "--jobs", "1", "--cache", str(cache)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["rows"][0]["modulus"] == [1, 0, 1]
    (line,) = [l for l in captured.err.splitlines() if "cache" in l]
    assert line.startswith("[gfpp] cache not written: ")
    assert cache.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [["verify-all", "--q-max", "27"],
                                  ["sweep", "--q", "9"],
                                  ["field-info", "--q", "9"]])
def test_emitted_text_is_the_indented_dump(tmp_path, capsys, argv):
    """Cold and cached, to --json and to stdout, the report is spliced from
    the stored body text yet reads exactly as json.dumps(report, indent=2)
    writes it."""
    out = tmp_path / "out.json"
    for dest in (["--json", str(out)], []):
        cache = tmp_path / ("cache%d" % len(dest))
        for cached in (None, True):
            main(argv + ["--jobs", "1", "--cache", str(cache)] + dest)
            text = out.read_text() if dest else capsys.readouterr().out
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert json.loads(text)["timing"].get("cached") is cached


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
    [{"kind": "sweep", "k": 1}, {"kind": "field", "modulus": [1, 0, 1]}],
    [{"kind": "girth", "exps": {"f": [1, 1]}}],
    [{"kind": "sweep", "k": 1}, {}],
], ids=["empty", "one-row", "error-strings", "none-and-bool", "list-value",
        "dict-value", "empty-row"])
def test_body_text_is_the_indented_dump(rows):
    body = _body(rows)
    assert cli._body_text(body) == json.dumps(body, indent=2) + "\n"


def test_jobs_parallel_matches_serial(tmp_path):
    code1, serial = run(tmp_path, "sweep", "--q", "3,5,9", name="serial.json")
    out = tmp_path / "parallel.json"
    code2 = main(["sweep", "--q", "3,5,9", "--jobs", "2", "--json", str(out)])
    parallel = json.loads(out.read_text())
    assert code1 == code2 == 0
    serial.pop("timing")
    parallel.pop("timing")
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


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_unwritable_output_path_is_an_error_line(tmp_path, capsys, flag):
    # The cache entry is written before the report is emitted, so a rerun
    # with a good path is a cache hit.
    bad = str(tmp_path / "missing" / "out")
    argv = ["sweep", "--q", "9", "--jobs", "1", "--cache", str(tmp_path / "cache")]
    assert main(argv + [flag, bad]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "[gfpp] cannot write %s: No such file or directory" % bad]
    if flag == "--json":
        assert captured.out == ""
    good = tmp_path / "out.json"
    assert main(argv + ["--json", str(good)]) == 0
    assert json.loads(good.read_text())["timing"]["cached"] is True


@pytest.mark.parametrize("argv", [["identities"], ["sweep", "--q", ","],
                                  ["field-info", "--q", ","],
                                  ["identities", "--p", " "]])
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

# Each command takes only the options it reads: --csv where it makes sweep
# rows, --girth-cap where a girth stage reads it.  No environment variable
# sets any value.
COMMAND_OPTIONS = {
    "sweep": {"--q", "--which", "--with-criterion", "--with-girth", "--csv",
              "--girth-cap"},
    "identities": {"--q", "--p"},
    "girth": {"--q", "--k", "--exps", "--girth-cap"},
    "verify-all": {"--q-max", "--csv", "--girth-cap"},
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
    assert sum(map(len, options.values())) == 36


@pytest.mark.parametrize("argv", [["identities", "--q", "27", "--girth-cap", "3"],
                                  ["field-info", "--q", "9", "--csv", "F"],
                                  ["girth", "--q", "5", "--k", "1", "--csv", "F"]])
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
        "cf69fc74210903725f5b958109740af250982a16d3f5b21ad6d1a504a6d5307d.json",
    "sweep --q 729,1327 --which two --jobs 1 --field-cap 1000000 --girth-cap 17":
        "da4cd3d6de0d9744e257d3f0e959430c68c167e1a29305208fe1c4727435e166.json",
}


@pytest.mark.parametrize("command", GOLDEN_ENTRY_NAMES)
def test_cache_entry_name_is_golden(tmp_path, monkeypatch, command):
    # The name depends on the params alone, so no field is computed.
    monkeypatch.setattr(cli, "_run_jobs", lambda *_: ({}, [], [], {}))
    cache = tmp_path / "cache"
    main(command.split() + ["--cache", str(cache), "--json", str(tmp_path / "r.json")])
    assert [p.name for p in cache.iterdir()] == [GOLDEN_ENTRY_NAMES[command]]
