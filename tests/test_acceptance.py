"""Acceptance suite: every criterion runs exactly as stated, one per test,
and prints a single pass/fail line (run with -s or -rA to see them).

All expected values are exact; there are no tolerances anywhere.
"""

import itertools
import json
from math import comb, gcd

import pytest

from gfpp import criterion, digits, graphs, permpoly
from gfpp.cli import main
from gfpp.field import Field, factor_prime_power
from lucas import lucas_binom

CONJECTURE_QS = (3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 125, 243, 343, 729)
CRITERION_QS = (3, 5, 7, 9, 25, 27, 49, 81)
IDENTITY_QS = (27, 81, 125, 243, 625)
UPPER_HALF_PS = (3, 5, 7, 11, 13)
GIRTH_QS = (3, 5, 7, 9, 11, 13)
SCAN_QS = (3, 5, 7, 9)
FILTER_QS = (9, 25, 27, 81, 125)


@pytest.fixture(scope="module")
def field_for():
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = Field(*factor_prime_power(q))
        return cache[q]

    return get


def report(num, label, ok, detail=""):
    suffix = " -- %s" % detail if detail and not ok else ""
    print("acceptance %02d [%s]: %s%s" % (num, label, "PASS" if ok else "FAIL", suffix))
    assert ok, "acceptance %02d [%s] failed %s" % (num, label, detail)


def test_01_a_family_pp_exponents_are_exactly_p_powers(field_for):
    bad = []
    for q in CONJECTURE_QS:
        fld = field_for(q)
        v = permpoly.conjecture_verdict(fld, "A", permpoly.sweep(fld))
        if v["witnesses"] != v["expected"]:
            bad.append((q, v["witnesses"], v["expected"]))
    report(1, "A-family witness sets", not bad, repr(bad))


def test_02_b_family_pp_exponents_are_exactly_p_powers(field_for):
    bad = []
    for q in CONJECTURE_QS:
        fld = field_for(q)
        v = permpoly.conjecture_verdict(fld, "B", permpoly.sweep(fld))
        if v["witnesses"] != v["expected"]:
            bad.append((q, v["witnesses"], v["expected"]))
    report(2, "B-family witness sets", not bad, repr(bad))


def test_03_criterion_equals_direct_pp_oracle(field_for):
    bad = []
    for q in CRITERION_QS:
        fld = field_for(q)
        for k in range(1, q):
            direct = len({permpoly.eval_a(fld, k, x) for x in fld.elements()}) == q
            if criterion.pp_criterion(fld, k) != direct:
                bad.append((q, k))
    report(3, "criterion vs direct oracle", not bad, repr(bad))


def test_04_inverse_criterion_equals_criterion(field_for):
    # For gcd(k, q-1) = 1 and k' = k^-1 mod q-1, row r of the criterion
    # written through k', sum over 2 <= i <= q-2 of
    # (-1)^i C((k'r)*, (k'i)*) C(i, (2r)*), is the criterion row
    # s = (k'r)*, sum over 1 <= j <= q-2 of (-1)^j C(s, j) C((kj)*, (2ks)*),
    # mod p; both are summed here with exact integer binomials.
    bad = []
    for q in CRITERION_QS:
        p = field_for(q).p

        def star(n):
            return digits.star_reduce(n, q)

        for k in range(1, q - 1):
            if gcd(k, q - 1) != 1:
                continue
            kp = digits.mod_inverse(k, q - 1)
            for r in range(1, q - 1):
                s, bottom = star(kp * r), star(2 * r)
                forward = sum((-1) ** j * comb(s, j) * comb(star(k * j), star(2 * k * s))
                              for j in range(1, q - 1))
                inverse = sum((-1) ** i * comb(s, star(kp * i)) * comb(i, bottom)
                              for i in range(2, q - 1))
                if (forward - inverse) % p:
                    bad.append((q, k, r))
    report(4, "inverse-exponent rows are the criterion rows", not bad, repr(bad))


def test_05_support_identity_grid(field_for):
    # Exact congruence on every grid point with (u, v) != (0, 0).  The
    # u = v = 0 corner makes 2s = q-1, emptying the row sum (lhs 0) while
    # the closed form is 1; that sub-case is reported separately here and
    # asserted against its analyzed values, matching the flagged corner in
    # the verifier.
    bad = []
    wrap_bad = []
    points = {}
    for q in IDENTITY_QS:
        fld = field_for(q)
        p, e = fld.p, fld.e
        h = (p - 1) // 2
        classes = [sum(b * p**i for i, b in enumerate(bits))
                   for bits in itertools.product((0, 1), repeat=e)
                   if any(bits) and not all(bits)]
        count = 0
        for l in sorted(classes):
            for t in range(1, e):
                x, y = criterion.xy_params(l, t, p, e)
                for u in range(h + 1):
                    for v in range(h + 1):
                        count += 1
                        lhs = criterion.support_identity_lhs(fld, l, t, u, v)
                        rhs = criterion.support_identity_rhs(p, x, y, u, v)
                        if u == 0 and v == 0:
                            if (lhs, rhs) != (0, 1):
                                wrap_bad.append((q, l, t))
                        elif lhs != rhs:
                            bad.append((q, l, t, u, v, lhs, rhs))
        points[q] = count
    ok = not bad and not wrap_bad and points[125] == 108
    report(5, "support identity grid", ok,
           "mismatches=%r wrap=%r points=%r" % (bad, wrap_bad, points))


def test_06_upper_half_sums_are_one():
    bad = [(p, x, y) for p in UPPER_HALF_PS for x in range(5) for y in range(1, 5)
           if criterion.upper_half_sum(p, x, y) != 1]
    report(6, "upper-half sums equal 1", not bad, repr(bad))


def test_07_flagship_graph_has_girth_8(field_for):
    bad = []
    for q in GIRTH_QS:
        value = graphs.girth(field_for(q), (1, 1), (1, 2))
        if value != 8:
            bad.append((q, value))
    report(7, "girth 8 reproduction", not bad, repr(bad))


def test_08_girth_scan_matches_p_powers(field_for):
    bad = []
    for q in SCAN_QS:
        fld = field_for(q)
        _, verdict = graphs.girth_scan(fld, permpoly.sweep(fld))
        if not (verdict["witnesses"] == verdict["expected"]
                and verdict["implication_ok"]):
            bad.append((q, verdict))
    report(8, "girth scan vs p-powers", not bad, repr(bad))


def test_09_pp_exponents_have_binary_inverse_digits(field_for):
    bad = []
    for q in FILTER_QS:
        fld = field_for(q)
        for rec in permpoly.sweep(fld):
            k = rec["k"]
            if rec["a_pp"] and not (gcd(k, q - 1) == 1 and digits.digits_binary(
                    pow(k, -1, q - 1), fld.p, fld.e)):
                bad.append((q, k))
    report(9, "binary digits of k'", not bad, repr(bad))


def test_10_lucas_binom_matches_exact_binomials():
    bad = []
    for p in (3, 5, 7):
        for m in range(0, 301):
            for n in range(0, m + 1):
                if lucas_binom(m, n, p) != comb(m, n) % p:
                    bad.append((p, m, n))
    report(10, "digitwise binomials vs exact", not bad, repr(bad))


def test_11_verify_all_is_deterministic(tmp_path):
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    code1 = main(["verify-all", "--q-max", "27", "--jobs", "1", "--json", str(out1)])
    code2 = main(["verify-all", "--q-max", "27", "--jobs", "1", "--json", str(out2)])
    first = json.loads(out1.read_text())
    second = json.loads(out2.read_text())
    rows_equal = first["rows"] == second["rows"]
    first.pop("timing")
    second.pop("timing")
    ok = code1 == code2 == 0 and rows_equal and first == second
    report(11, "verify-all determinism", ok,
           "codes=(%d, %d) rows_equal=%s" % (code1, code2, rows_equal))
