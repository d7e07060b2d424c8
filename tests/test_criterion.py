"""Binomial-sum criteria against the direct PP oracle, and the identity grids."""

import ast
import functools
import inspect
import itertools
import sys
import textwrap
import time
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfpp import criterion
from gfpp.criterion import (criterion_sum, cross_check, identity_grid,
                            pp_criterion, support_identity_lhs,
                            support_identity_rhs, upper_half_grid,
                            upper_half_sum, xy_params)
from gfpp.digits import mod_inverse, star_reduce
from gfpp.errors import NotCoprimeError, NotPrimeError, ParamDomainError
from gfpp.field import Field, factor_prime_power, is_prime
from gfpp.permpoly import eval_a, p_powers, sweep
from lucas import lucas_binom


# Fields at which the table-driven sums are compared with the exact oracle
# for every k and s.
ORACLE_QS = (3, 5, 7, 9, 11, 13, 25, 27, 49, 81)
# Larger fields, from which a hypothesis test draws single rows.
SAMPLED_QS = (125, 243, 343, 625, 729, 1327)


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


def _exact_row_sum(fld, mult, top, bottom):
    # criterion._row_sum term by term, with exact integer binomials; the
    # lower index is the plain residue mult*i mod q-1, so 0 when q-1
    # divides mult*i
    q, p = fld.q, fld.p
    total = 0
    for i in range(2, q - 1):
        c2 = comb(i, bottom) % p
        if c2:
            term = c2 * lucas_binom(top, mult * i % (q - 1), p)
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

    for k in _coprime_exponents(9):
        for s in range(1, 8):
            assert criterion_sum(f9, k, s) == truncated(f9, k, s)


def _coprime_exponents(q):
    return [k for k in range(1, q - 1) if gcd(k, q - 1) == 1]


def _p_power_classes(q):
    # {p^j mod q-1 : 0 <= j < e}
    p, e = factor_prime_power(q)
    return {pow(p, j, q - 1) for j in range(e)}


def _kernel_calls(q):
    # (function, args) of every call the oracle test checks: criterion_sum
    # at every coprime k and s; _row_sum at every mult in range(q), 0 and
    # the non-coprime ones included, on the rows r = 1..q-1 of the
    # inverse-exponent form, top (mult*r)* and bottom (2r)*; and _row_sum
    # at every p-power mult and every top and bottom in 0..q-1, inside the
    # closed form's guard (bottom >= 2, top <= q-2) and outside it
    for k in _coprime_exponents(q):
        for s in range(1, q - 1):
            yield criterion_sum, _exact_criterion_sum, (k, s)
    for mult in range(q):
        for r in range(1, q):
            args = (mult, star_reduce(mult * r, q), star_reduce(2 * r, q))
            yield criterion._row_sum, _exact_row_sum, args
    for mult in sorted(_p_power_classes(q)):
        for top in range(q):
            for bottom in range(q):
                yield criterion._row_sum, _exact_row_sum, (mult, top, bottom)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_sums_equal_the_exact_oracle(q):
    fld = Field(*factor_prime_power(q))
    # The identity, between the exact oracles alone: for gcd(k, q-1) = 1,
    # row r of the criterion through k' is the criterion row s = (k'r)*.
    for k in _coprime_exponents(q):
        kp = mod_inverse(k, q - 1)
        for r in range(1, q - 1):
            s = star_reduce(kp * r, q)
            assert (_exact_row_sum(fld, kp, s, star_reduce(2 * r, q))
                    == _exact_criterion_sum(fld, k, s)), (k, r)
    # Each table-driven sum against its exact oracle.
    for func, oracle, args in _kernel_calls(q):
        assert func(fld, *args) == oracle(fld, *args), (func.__name__, args)


def test_criterion_sum_needs_a_coprime_exponent(f9):
    for k in (0, 2, 4, 6):
        with pytest.raises(NotCoprimeError):
            criterion_sum(f9, k, 1)


@functools.cache
def _sampled_field(q):
    return Field(*factor_prime_power(q))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sums_equal_the_exact_oracle_beyond_q81(data):
    q = data.draw(st.sampled_from(SAMPLED_QS), label="q")
    fld = _sampled_field(q)
    k = data.draw(st.sampled_from(_coprime_exponents(q)), label="k")
    s = data.draw(st.integers(1, q - 2), label="s")
    mult = data.draw(st.integers(0, q - 1), label="mult")
    assert criterion_sum(fld, k, s) == _exact_criterion_sum(fld, k, s)
    for m in (mod_inverse(k, q - 1), mult):
        args = (m, star_reduce(m * s, q), star_reduce(2 * s, q))
        assert criterion._row_sum(fld, *args) == _exact_row_sum(fld, *args), args
    # a p-power mult at a free (top, bottom), and at the one top,
    # (p^j * bottom)*, where the closed form is nonzero inside its guard
    pj = fld.p ** data.draw(st.integers(0, fld.e - 1), label="j")
    top = data.draw(st.integers(0, q - 1), label="top")
    bottom = data.draw(st.integers(0, q - 1), label="bottom")
    for args in ((pj, top, bottom), (pj, star_reduce(pj * bottom, q), bottom)):
        assert criterion._row_sum(fld, *args) == _exact_row_sum(fld, *args), args


@functools.cache
def _loop_body_lines(func):
    # source line number of the first statement of each `for` loop in func
    lines, start = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {start + node.body[0].lineno - 1 for node in ast.walk(tree)
            if isinstance(node, ast.For)}


@functools.cache
def _closed_form_return_line(func):
    # source line number of the first `return` in func: the p-power rows'
    # closed form, which walks no loop
    lines, start = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return start + min(node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Return)) - 1


def test_oracle_fields_reach_the_walk_and_the_closed_form():
    # Over the calls of test_sums_equal_the_exact_oracle, the one kernel
    # runs its one loop, the walk over i, for some calls and returns the
    # p-power closed form for others, so that test checks both routes
    # against the exact sums.  A line tracer on the kernel records each
    # watched line it reaches and then stops tracing lines in that call.
    kernel = criterion._row_sum
    body = _loop_body_lines(kernel)
    assert len(body) == 1
    watched = body | {_closed_form_return_line(kernel)}
    assert len(watched) == 2
    reached = set()

    def line_tracer(frame, event, arg):
        if event == "line" and frame.f_lineno in watched:
            reached.add(frame.f_lineno)
            frame.f_trace_lines = False
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code is kernel.__code__ else None

    previous = sys.gettrace()
    sys.settrace(call_tracer)
    try:
        for q in ORACLE_QS:
            fld = Field(*factor_prime_power(q))
            for func, _, args in _kernel_calls(q):
                func(fld, *args)
    finally:
        sys.settrace(previous)
    assert reached == watched


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


def _walk_length(q, mult, top, bottom):
    # The number of passes the kernel makes: none for a p-power class mult
    # with bottom >= 2 and top <= q-2, whose row is a closed form, and
    # otherwise one per i in max(2, bottom)..q-2, as C(i, bottom) = 0 for
    # i < bottom.
    if bottom >= 2 and top <= q - 2 and mult % (q - 1) in _p_power_classes(q):
        return 0
    return max(0, q - 1 - max(2, bottom))


@pytest.mark.parametrize("q", [7, 9, 13, 25, 27])
def test_rows_walk_only_their_nonempty_index_range(q):
    # Every criterion row and every inverse-exponent row at every mult walks
    # exactly the i with C(i, bottom) possibly nonzero, from max(2, bottom)
    # to q-2, and a p-power row inside the closed form's guard walks
    # nothing.  The row with bottom q-1 costs nothing.
    fld = Field(*factor_prime_power(q))
    for func, _, args in _kernel_calls(q):
        if func is criterion_sum:
            k, s = args
            args = (mod_inverse(k, q - 1), s, star_reduce(2 * k * s, q))
        passes = _loop_passes(criterion._row_sum,
                              lambda: criterion._row_sum(fld, *args))
        assert passes == _walk_length(q, *args), args


def test_support_identity_lhs_equals_the_exact_oracle_q81():
    fld = Field(3, 4)
    q, h = fld.q, (fld.q - 1) // 2
    rows, _ = identity_grid(fld)
    for r in rows:
        s = h - (r["u"] + r["v"] * fld.p ** r["t"])
        top = star_reduce(r["l"] * (s + h), q)
        assert r["lhs"] == _exact_row_sum(fld, r["l"], top, 2 * s), r
    bad = [(r["lhs"], r["rhs"]) for r in rows if not r["wrap"] and r["lhs"] != r["rhs"]]
    assert bad == []


def test_digit_convolution_is_the_delta():
    # The p-power rows' digit factor sum over x of (-1)^x C(T, x) C(x, b) is
    # F[T] G[b] (-1)^b c[T-b] with c[u] = sum over x + y = u of
    # (-1)^x G[x] G[y]; the closed form rests on c[u] = [u = 0] mod p
    # for u < p, here by the naive O(p^2) convolution of the field's table
    # at every odd prime p < 200.
    for p in filter(is_prime, range(3, 200)):
        _, G, _ = Field(p, 1).binom_tables()
        c = [sum((-1) ** x * G[x] * G[u - x] for x in range(u + 1)) % p
             for u in range(p)]
        assert c == [1] + [0] * (p - 1), p


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


def test_cross_check_reports_each_disagreeing_k(f9, monkeypatch):
    records = sweep(f9)
    assert cross_check(f9, records) == ([], {
        "section": "criterion", "q": 9, "checked": 8, "mismatch_ks": [],
        "passed": True})
    # Patched at the module attribute, where a tracer would wrap it.  The
    # cross-check runs the criterion at the least member of each Frobenius
    # orbit, so this fake holds on the whole orbit {2, 6} of k = 2.
    monkeypatch.setattr(criterion, "pp_criterion", lambda fld, k: k == 2)
    rows, verdict = cross_check(f9, records)
    assert rows == [
        {"kind": "criterion_mismatch", "q": 9, "k": k, "direct": k in (1, 3)}
        for k in (1, 2, 3, 6)]
    assert verdict == {"section": "criterion", "q": 9, "checked": 8,
                       "mismatch_ks": [1, 2, 3, 6], "passed": False}


def test_cross_check_runs_each_criterion_once_per_orbit(f9, monkeypatch):
    calls = []
    real = criterion.pp_criterion
    monkeypatch.setattr(criterion, "pp_criterion",
                        lambda fld, k: calls.append(k) or real(fld, k))
    assert cross_check(f9, sweep(f9))[1]["passed"]
    # q = 9: orbits {1, 3}, {2, 6}, {4}, {5, 7}, {8}
    assert calls == [1, 2, 4, 5, 8]


@pytest.mark.parametrize("q", (9, 25, 27, 49, 81, 125))
def test_criteria_are_constant_on_frobenius_orbits(q):
    # k -> p*k rotates the base-p digits of every exponent class, so each
    # criterion row, each inverse-exponent row at mult k, and so each
    # verdict, is the same at p*k.
    fld = Field(*factor_prime_power(q))
    data = {}
    for k in range(1, q):
        data[k] = ([criterion_sum(fld, k, s) for s in range(1, q - 1)]
                   if gcd(k, q - 1) == 1 else None,
                   [criterion._row_sum(fld, k, star_reduce(k * r, q),
                                       star_reduce(2 * r, q))
                    for r in range(1, q)],
                   pp_criterion(fld, k))
    for k in range(1, q):
        assert data[k] == data[star_reduce(fld.p * k, q)], k


def test_inverse_sums_vanish_for_pp_exponents(f9):
    # k = 1 (k' = 1): every row r = s, R(1, s, 2s), vanishes
    for s in range(1, 5):
        assert criterion._row_sum(f9, 1, s, 2 * s) == 0
    # k = 3 (k' = 3): the row r = 1 + 4, R(3, (3*5)*, 2)
    assert mod_inverse(3, 8) == 3
    assert criterion._row_sum(f9, 3, star_reduce(3 * 5, 9), 2) == 0


def test_inverse_sums_detect_non_pp(f27):
    # k = 7 is coprime to 26 but not a power of 3, so some row must fail
    kp = mod_inverse(7, 26)
    rows = [criterion._row_sum(f27, kp, star_reduce(kp * r, 27),
                               star_reduce(2 * r, 27)) for r in range(1, 26)]
    assert any(r != 0 for r in rows)


def test_inverse_criterion_tries_every_row_cheapest_first(f27, monkeypatch):
    # with every row patched to vanish, every nonempty row is tried once,
    # through k': bottom 2s from q-3 down to 2, the row r = s before
    # r = s + (q-1)/2; the row r = (q-1)/2, bottom q-1, has no term
    tried = []

    def row(fld, mult, top, bottom):
        tried.append((mult, top, bottom))
        return 0

    monkeypatch.setattr(criterion, "_row_sum", row)
    assert pp_criterion(f27, 7)
    kp = mod_inverse(7, 26)
    assert tried == [(kp, star_reduce(kp * r, 27), 2 * s)
                     for s in range(12, 0, -1) for r in (s, s + 13)]


def test_inverse_criterion_agrees_with_forward_on_q27(f27):
    # pp_criterion against the criterion as stated: gcd(k, q-1) = 1 and
    # every forward row s = 1..q-2 vanishes, by exact binomials
    for k in range(1, 27):
        forward = gcd(k, 26) == 1 and all(
            _exact_criterion_sum(f27, k, s) == 0 for s in range(1, 26))
        assert pp_criterion(f27, k) == forward, k


def test_boundary_row_is_empty_both_readings(f27):
    # at s = (q-1)/2 the column index 2s = q-1 exceeds every i <= q-2, so the
    # plain row vanishes identically; reading the column through the star
    # reduction changes nothing because (q-1)* = q-1
    q, p = f27.q, f27.p
    h = (q - 1) // 2
    for kp in (1, 3, 7, 9):
        top = star_reduce(kp * h, q)
        assert criterion._row_sum(f27, kp, top, q - 1) == 0
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


@pytest.mark.parametrize("p,e,corner", [(3, 4, [(0, 0)] * 8),
                                         (5, 4, [(4, 4)] * 8),
                                         (3, 6, [(0, 0)] * 12)],
                         ids=["q81", "q625", "q729"])
def test_identity_grid_even_e_matches_off_the_u0v0_corner(p, e, corner):
    # On even e some l and p^t*l have complementary 0/1 supports (y = 0,
    # x = e/2).  At u = v = (p-1)/2 there, l*i is a multiple of q-1 for
    # some walked i, whose lower index reads 0: C(top, 0) = 1 keeps the
    # term.  Those points read (lhs, rhs) = corner, every point off
    # u = v = 0 matches, and every u = v = 0 point reads its analysed (0, 1).
    h = (p - 1) // 2
    rows, verdict = identity_grid(Field(p, e))
    assert [(r["lhs"], r["rhs"]) for r in rows
            if xy_params(r["l"], r["t"], p, e) == (e // 2, 0) and r["u"] == r["v"] == h
            ] == corner
    wrap_rows = [r for r in rows if r["wrap"]]
    assert wrap_rows and all((r["lhs"], r["rhs"]) == (0, 1) for r in wrap_rows)
    assert [r for r in rows if not r["wrap"] and r["lhs"] != r["rhs"]] == []
    assert verdict == {"section": "identities", "q": p**e, "points": len(rows),
                       "wrap_points": len(wrap_rows), "wrap_as_analyzed": True,
                       "mismatches": 0, "passed": True}


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


def _exact_upper_half_sum(p, x, y):
    # upper_half_sum as stated, with exact integer powers of binomials
    h = (p - 1) // 2
    total = 0
    for a in range(h, p):
        for b in range(h, p):
            total += ((-1) ** (a + b) * comb(a, h) ** x * comb(b, h) ** x
                      * comb(a + b, p - 1) ** y * comb(p - 1, a) * comb(p - 1, b))
    return total % p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_upper_half_sum_equals_the_exact_sum(p):
    # every grid point, and y = 0, where 0^0 = 1 must hold for C(a+b, p-1)
    for x in range(5):
        for y in range(5):
            assert upper_half_sum(p, x, y) == _exact_upper_half_sum(p, x, y), (x, y)


def test_upper_half_grid_p211_takes_under_a_second():
    # the exact big-integer sums took about 3 s here
    criterion._upper_half_binoms.cache_clear()
    start = time.perf_counter()
    _, verdict = upper_half_grid(211)
    assert time.perf_counter() - start < 1.0
    assert verdict["passed"] and verdict["points"] == 20


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_upper_half_grid_rejects_a_p_that_is_not_an_odd_prime(p):
    with pytest.raises(NotPrimeError, match="p = %d is not an odd prime" % p):
        upper_half_grid(p)


def test_pp_criterion_p10007_k1_takes_under_a_second():
    # k = 1 must sum all q-3 nonempty rows; walking them took several
    # seconds, and their closed form takes O(1) each
    fld = Field(10007, 1)
    start = time.perf_counter()
    assert pp_criterion(fld, 1)
    assert time.perf_counter() - start < 1.0
