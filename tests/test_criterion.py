"""Binomial-sum criteria against the direct PP oracle, and the identity grids."""

import ast
import inspect
import itertools
import sys
import textwrap
from math import comb

import pytest

from gfpp import criterion
from gfpp.cli import factor_prime_power
from gfpp.criterion import (criterion_sum, cross_check, identity_grid,
                            inverse_criterion_sum, inverse_pp_criterion,
                            pp_criterion, support_identity_lhs,
                            support_identity_rhs, upper_half_sum, xy_params)
from gfpp.digits import lucas_binom, mod_inverse, star_reduce
from gfpp.errors import ParamDomainError
from gfpp.field import Field
from gfpp.permpoly import eval_a, p_powers, sweep


# Fields at which the table-driven sums are compared with the exact oracle
# for every k and s.
ORACLE_QS = (3, 5, 7, 9, 11, 13, 25, 27, 49, 81)


def _exact_criterion_sum(fld, k, s):
    # criterion_sum term by term, with exact integer binomials
    q, p = fld.q, fld.p
    bottom = star_reduce(2 * k * s, q)
    total = 0
    for i in range(1, q - 1):
        c1 = comb(s, i) % p
        if c1:
            term = c1 * lucas_binom(star_reduce(k * i, q), bottom, p)
            total += -term if i & 1 else term
    return total % p


def _exact_row_sum(fld, mult, top, s):
    # criterion._row_sum term by term, with exact integer binomials
    q, p = fld.q, fld.p
    total = 0
    for i in range(2, q - 1):
        c2 = comb(i, 2 * s) % p
        if c2:
            term = c2 * lucas_binom(top, star_reduce(mult * i, q), p)
            total += -term if i & 1 else term
    return total % p


@pytest.fixture(scope="module")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="module")
def f27():
    return Field(3, 3)


def test_sums_vanish_for_identity_exponent(f9):
    for s in range(1, 8):
        assert criterion_sum(f9, 1, s) == 0


def test_sums_vanish_for_frobenius_exponents(f9, f27):
    for s in range(1, 8):
        assert criterion_sum(f9, 3, s) == 0
    for k in p_powers(f27):
        for s in range(1, 26):
            assert criterion_sum(f27, k, s) == 0


def test_terms_above_s_contribute_nothing(f9):
    # the exact-binomial factor kills i > s, so truncating there is a no-op
    def truncated(fld, k, s):
        q, p = fld.q, fld.p
        bottom = star_reduce(2 * k * s, q)
        total = 0
        for i in range(1, min(s, q - 2) + 1):
            term = comb(s, i) % p * lucas_binom(star_reduce(k * i, q), bottom, p)
            total += -term if i & 1 else term
        return total % p

    for k in range(1, 9):
        for s in range(1, 8):
            assert criterion_sum(f9, k, s) == truncated(f9, k, s)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_sums_equal_the_exact_oracle(q):
    fld = Field(*factor_prime_power(q))
    h = (q - 1) // 2
    # k = 0 included: (0*i)* is 0, not q-1
    for k in range(q):
        for s in range(1, q - 1):
            assert criterion_sum(fld, k, s) == _exact_criterion_sum(fld, k, s), (k, s)
    for kp in range(q):
        for s in range(1, h + 1):
            for half in (False, True):
                top = star_reduce(kp * (s + h if half else s), q)
                assert (inverse_criterion_sum(fld, kp, s, half)
                        == _exact_row_sum(fld, kp, top, s)), (kp, s, half)


def _loop_body_lines(func):
    # source line number of the first statement of each `for` loop in func
    lines, start = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {start + node.body[0].lineno - 1 for node in ast.walk(tree)
            if isinstance(node, ast.For)}


def test_oracle_fields_reach_both_loops_of_each_kernel():
    # Over the calls of test_sums_equal_the_exact_oracle, each kernel runs
    # its i-range loop for some (k, s) and its m-range loop (i = k^-1 * m)
    # for others, so that test checks both loops against the exact sums.
    # A line tracer on the two kernels records each loop body it enters and
    # then stops tracing lines in that call.
    bodies = {f.__code__: _loop_body_lines(f)
              for f in (criterion.criterion_sum, criterion._row_sum)}
    assert all(len(lines) == 2 for lines in bodies.values())
    reached = set()

    def line_tracer(frame, event, arg):
        if event == "line" and frame.f_lineno in bodies[frame.f_code]:
            reached.add((frame.f_code, frame.f_lineno))
            frame.f_trace_lines = False
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code in bodies else None

    previous = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        for q in ORACLE_QS:
            fld = Field(*factor_prime_power(q))
            h = (q - 1) // 2
            for k in range(q):
                for s in range(1, q - 1):
                    criterion_sum(fld, k, s)
                for s in range(1, h + 1):
                    inverse_criterion_sum(fld, k, s)
                    inverse_criterion_sum(fld, k, s, half=True)
    finally:
        sys.settrace(previous)
    assert reached == {(code, line) for code, lines in bodies.items()
                       for line in lines}


def _loop_passes(func, call):
    # how many times call() enters the bodies of func's loops
    body = _loop_body_lines(func)
    hits = []

    def line_tracer(frame, event, arg):
        if event == "line" and frame.f_lineno in body:
            hits.append(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code is func.__code__ else None

    previous = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return len(hits)


@pytest.mark.parametrize("q", [7, 9, 13, 25, 27])
def test_rows_walk_only_their_nonempty_index_range(q):
    # criterion_sum with 0 < ks < q-1 has m = ki, so it walks exactly
    # ceil((2ks)*/k)..s; _row_sum with mult = 1 has m = i, so it walks
    # exactly max(2, 2s)..min(top, q-2).  An empty range costs nothing.
    fld = Field(*factor_prime_power(q))
    h = (q - 1) // 2
    for k in range(1, q - 2):
        for s in range(1, (q - 2) // k + 1):
            bottom = star_reduce(2 * k * s, q)
            expected = max(0, s - -(-bottom // k) + 1)
            passes = _loop_passes(criterion_sum, lambda: criterion_sum(fld, k, s))
            assert passes == expected, (k, s)
    for s in range(1, h + 1):
        for half in (False, True):
            top = star_reduce(s + h if half else s, q)
            expected = max(0, min(top, q - 2) - max(2, 2 * s) + 1)
            passes = _loop_passes(criterion._row_sum,
                                  lambda: inverse_criterion_sum(fld, 1, s, half))
            assert passes == expected, (s, half)


def test_support_identity_lhs_equals_the_exact_oracle_q81():
    fld = Field(3, 4)
    q, h = fld.q, (fld.q - 1) // 2
    rows, _ = identity_grid(fld)
    for r in rows:
        top = star_reduce(r["l"] * (r["s"] + h), q)
        assert r["lhs"] == _exact_row_sum(fld, r["l"], top, r["s"]), r
    bad = [(r["lhs"], r["rhs"]) for r in rows if not r["wrap"] and not r["match"]]
    assert bad == [(2, 0)] * 8


def test_pp_criterion_examples(f9, f27):
    assert not pp_criterion(f9, 2)  # gcd(2, 8) = 2
    assert pp_criterion(f9, 3)
    assert not pp_criterion(f27, 5)


def _direct_pp_flags(fld):
    # [a_k permutes GF(q) for k = 1..q-1]: eval_a's x^k ((x+1)^k - x^k) at
    # every x by field arithmetic, with x^k and (x+1)^k carried from k to
    # k+1 by one multiplication each instead of two square-and-multiplies
    xs = list(fld.elements())
    ys = [fld.add(x, 1) for x in xs]
    xk, yk = xs, ys
    flags = []
    for _ in range(1, fld.q):
        flags.append(len({fld.mul(a, fld.sub(b, a)) for a, b in zip(xk, yk)})
                     == fld.q)
        xk = [fld.mul(a, x) for a, x in zip(xk, xs)]
        yk = [fld.mul(b, y) for b, y in zip(yk, ys)]
    return flags


def test_direct_pp_flags_equal_eval_a(f9):
    assert _direct_pp_flags(f9) == [
        len({eval_a(f9, k, x) for x in f9.elements()}) == 9 for k in range(1, 9)]


# (241, 1): k = 1 in a prime field; (3, 5): the five p-powers of q = 243.
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (241, 1),
                                 (3, 5)])
def test_criterion_equals_direct_oracle(p, e):
    fld = Field(p, e)
    for k, direct in enumerate(_direct_pp_flags(fld), 1):
        assert pp_criterion(fld, k) == direct, k
        assert inverse_pp_criterion(fld, k) == direct, k


def test_cross_check_reports_each_disagreeing_k(f9, monkeypatch):
    records = sweep(f9)
    assert cross_check(f9, records) == ([], {
        "section": "criterion", "q": 9, "checked": 8, "mismatch_ks": [],
        "passed": True})
    # Patched at the module attribute, where a tracer would wrap it.
    monkeypatch.setattr(criterion, "inverse_pp_criterion", lambda fld, k: k == 2)
    rows, verdict = cross_check(f9, records)
    assert rows == [
        {"kind": "criterion_mismatch", "q": 9, "k": k, "direct": k in (1, 3),
         "criterion": k in (1, 3), "inverse_criterion": k == 2}
        for k in (1, 2, 3)]
    assert verdict == {"section": "criterion", "q": 9, "checked": 8,
                       "mismatch_ks": [1, 2, 3], "passed": False}


def test_inverse_sums_vanish_for_pp_exponents(f9):
    # k = 1 (k' = 1): every admissible plain row vanishes
    for s in range(1, 5):
        assert inverse_criterion_sum(f9, 1, s) == 0
    # k = 3 (k' = 3): shifted row at s = 1
    assert mod_inverse(3, 8) == 3
    assert inverse_criterion_sum(f9, 3, 1, half=True) == 0


def test_inverse_sums_detect_non_pp(f27):
    # k = 7 is coprime to 26 but not a power of 3, so some row must fail
    kp = mod_inverse(7, 26)
    rows = [inverse_criterion_sum(f27, kp, s) for s in range(1, 14)]
    rows += [inverse_criterion_sum(f27, kp, s, half=True) for s in range(1, 13)]
    assert any(r != 0 for r in rows)


def test_inverse_criterion_tries_every_row_cheapest_first(f27, monkeypatch):
    # with every row patched to vanish, all rows are tried: s from (q-1)/2
    # down to 1, the plain row before the shifted one, no shifted row at
    # s = (q-1)/2
    tried = []

    def row(fld, kp, s, half=False):
        tried.append((kp, s, half))
        return 0

    monkeypatch.setattr(criterion, "inverse_criterion_sum", row)
    assert inverse_pp_criterion(f27, 7)
    kp = mod_inverse(7, 26)
    assert tried == [(kp, 13, False)] + [(kp, s, half) for s in range(12, 0, -1)
                                          for half in (False, True)]


def test_inverse_criterion_agrees_with_forward_on_q27(f27):
    for k in range(1, 27):
        assert inverse_pp_criterion(f27, k) == pp_criterion(f27, k), k


def test_boundary_row_is_empty_both_readings(f27):
    # at s = (q-1)/2 the column index 2s = q-1 exceeds every i <= q-2, so the
    # plain row vanishes identically; reading the column through the star
    # reduction changes nothing because (q-1)* = q-1
    q, p = f27.q, f27.p
    h = (q - 1) // 2
    for kp in (1, 3, 7, 9):
        assert inverse_criterion_sum(f27, kp, h) == 0
        top = star_reduce(kp * h, q)
        starred = 0
        for i in range(2, q - 1):
            term = (comb(i, star_reduce(2 * h, q)) % p
                    * lucas_binom(top, star_reduce(kp * i, q), p))
            starred += -term if i & 1 else term
        assert starred % p == 0


def test_xy_params_examples():
    assert xy_params(1 + 3, 1, 3, 3) == (1, 1)
    assert xy_params(1, 1, 3, 3) == (1, 0)
    l = 1 + 5 + 25
    for t in range(1, 4):
        x, y = xy_params(l, t, 5, 4)
        shifted = {(i + t) % 4 for i in (0, 1, 2)}
        assert y == len({0, 1, 2} & shifted)
        assert x == 3 - y


def test_support_identity_spot_values(f27):
    # rhs computed here by its own independent double loop
    def rhs_oracle(p, x, y, u, v):
        total = 0
        for a in range(2 * u + 1):
            for b in range(2 * v + 1):
                sign = (-1) ** ((a + b + u + v) * (x + y))
                total += (sign * comb(a, u) ** x * comb(b, v) ** x
                          * comb(a + b, u + v) ** y * comb(2 * u, a) * comb(2 * v, b))
        return total % p

    x, y = xy_params(4, 1, 3, 3)
    assert (x, y) == (1, 1)
    lhs = support_identity_lhs(f27, 4, 1, 1, 1)
    assert lhs == support_identity_rhs(3, x, y, 1, 1) == rhs_oracle(3, x, y, 1, 1) == 1


def test_support_identity_u0v0_corner(f27):
    # 2s = q-1 empties the row sum while the closed form's single term is 1;
    # the displayed congruence does not extend to this corner and the grid
    # reports it separately
    assert support_identity_lhs(f27, 1, 1, 0, 0) == 0
    assert support_identity_rhs(3, 1, 0, 0, 0) == 1


def test_support_identity_param_domain(f27):
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 13, 1, 1, 1)  # 13 = all-ones digits
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 4, 0, 1, 1)
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 4, 3, 1, 1)
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 4, 1, 2, 0)
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 2, 1, 1, 1)  # digit above 1
    with pytest.raises(ParamDomainError):
        support_identity_lhs(f27, 0, 1, 1, 1)
    with pytest.raises(ParamDomainError):
        support_identity_lhs(Field(3, 2), 1, 1, 1, 1)  # e < 3


def test_support_identity_full_grid_q27(f27):
    p, e = 3, 3
    classes = [sum(b * p**i for i, b in enumerate(bits))
               for bits in itertools.product((0, 1), repeat=e)
               if any(bits) and not all(bits)]
    for l in sorted(classes):
        for t in range(1, e):
            x, y = xy_params(l, t, p, e)
            for u in range(2):
                for v in range(2):
                    lhs = support_identity_lhs(f27, l, t, u, v)
                    rhs = support_identity_rhs(p, x, y, u, v)
                    if u == 0 and v == 0:
                        assert (lhs, rhs) == (0, 1), (l, t)
                    else:
                        assert lhs == rhs, (l, t, u, v)


@pytest.mark.parametrize("p,e", [(3, 4), (5, 4)])
def test_identity_grid_even_e_fails_only_at_the_complementary_corner(p, e):
    # On even e some l and p^t*l have complementary 0/1 supports (y = 0).
    # At u = v = (p-1)/2 those points do not match; this pins that every
    # other point off the wrap corner does, and that wrap reads (0, 1).
    h = (p - 1) // 2
    rows, verdict = identity_grid(Field(p, e))
    wrap_rows = [r for r in rows if r["wrap"]]
    bad = [r for r in rows if not r["wrap"] and not r["match"]]
    assert all(r["y"] == 0 and r["u"] == r["v"] == h for r in bad), bad
    assert all((r["lhs"], r["rhs"]) == (0, 1) for r in wrap_rows)
    assert verdict["points"] == len(rows)
    assert verdict["wrap_points"] == len(wrap_rows)
    assert verdict["wrap_as_analyzed"] is True
    assert verdict["mismatches"] == len(bad)
    assert verdict["passed"] is (not bad)


def test_support_identity_rhs_trivial_corner():
    for p in (3, 5, 7):
        for x in range(3):
            for y in range(3):
                assert support_identity_rhs(p, x, y, 0, 0) == 1


def test_support_identity_rhs_central_case_is_one():
    # at u = v = (p-1)/2 with y >= 1, only pairs with a + b = p-1 survive
    # mod p; for x >= 1 that leaves the single a = b = (p-1)/2 term, worth
    # C(p-1, (p-1)/2)^2 = 1, matching the upper-half sum
    for p in (3, 5, 7):
        h = (p - 1) // 2
        for x in range(1, 4):
            for y in range(1, 4):
                assert support_identity_rhs(p, x, y, h, h) == upper_half_sum(p, x, y) == 1


def test_support_identity_rhs_central_case_x0_boundary():
    # with x = 0 every a + b = p-1 pair survives and the sum telescopes to
    # sum of C(p-1, a)^2 = p = 0 mod p; a coprime exponent class never
    # produces x = 0, so this boundary sits outside the identity's use
    for p in (3, 5, 7):
        h = (p - 1) // 2
        for y in range(1, 4):
            assert support_identity_rhs(p, 0, y, h, h) == 0
            assert upper_half_sum(p, 0, y) == 1


def test_upper_half_sum_direct_oracle():
    def oracle(p, x, y):
        h = (p - 1) // 2
        total = 0
        for a in range(h, p):
            for b in range(h, p):
                total += ((-1) ** (a + b) * comb(a, h) ** x * comb(b, h) ** x
                          * comb(a + b, p - 1) ** y * comb(p - 1, a) * comb(p - 1, b))
        return total % p

    assert upper_half_sum(3, 1, 1) == oracle(3, 1, 1) == 1
    assert upper_half_sum(5, 3, 2) == oracle(5, 3, 2) == 1
    for p in (3, 5, 7):
        for x in range(3):
            for y in range(1, 3):
                assert upper_half_sum(p, x, y) == oracle(p, x, y) == 1
