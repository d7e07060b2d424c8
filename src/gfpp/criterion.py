"""Binomial-sum permutation criteria, numeric identity verifiers, and the
checks that judge them: the criterion against the direct PP flags, the
support-identity grid and the upper-half sum grid.  Each check returns
(rows, verdict) in the report's dict form.

The criterion sums reduce every binomial mod p through the field's
Lucas tables (Field.binom_tables): a digit-sum test decides whether
C(m, n) vanishes mod p and three lookups give it otherwise, so no big
integer is formed.  A term of either sum kernel needs its index i in one
range and m = (mult*i)* in another.  When mult*i never reaches q-1 over
the i-range, m = mult*i and the m-range cuts the i-range to an interval,
which the kernel walks; otherwise, when gcd(mult, q-1) = 1, i -> m is a
bijection of 1..q-2, and the kernel walks whichever range is shorter,
mapping m back to i through the inverse of mult.  The inverse criterion
tries its rows cheapest first, from s = (q-1)/2 down to 1.  The closed
forms (support_identity_rhs, upper_half_sum) are small and stay exact
integer sums reduced mod p at the end.  Starred quantities are exponent
classes mod q-1 computed with digits.star_reduce, whose
positive-multiple-of-(q-1) -> q-1 rule is load-bearing: the row class in
the support identity is such a multiple whenever u = v = 0.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from .digits import (digit_vector, mod_inverse, orbit_representatives,
                     shift_class, star_reduce, support)
from .errors import ParamDomainError
from .field import is_prime

UPPER_HALF_X_RANGE = range(0, 5)
UPPER_HALF_Y_RANGE = range(1, 5)


def criterion_sum(field, k: int, s: int) -> int:
    """sum over 1 <= i <= q-2 of (-1)^i C(s, i) C((ki)*, (2ks)*), mod p,
    for 1 <= s <= q-2.

    A term needs i <= s (else C(s, i) = 0) and m = (ki)* >= (2ks)*.  When
    0 < k*s < q-1, i -> ki does not wrap mod q-1 for i <= s, so m = ki and
    the loop walks i from ceil((2ks)*/k) to s.  Otherwise, when gcd(k, q-1)
    = 1, i -> m is a bijection of 1..q-2, so if the m-range (2ks)*..q-2 is
    the shorter one the loop walks it, with i = k^(-1)*m mod q-1; and
    otherwise it walks 1..s.  Each binomial is F[m] G[n] G[m-n] from
    field.binom_tables() when the digit sums show no borrow in m - n, and 0
    otherwise; the factors F[s] and G[(2ks)*] are common to every term and
    applied once.
    """
    q, p = field.q, field.p
    F, G, S = field.binom_tables()
    qm1 = q - 1
    bottom = star_reduce(2 * k * s, q)
    Ss, Sb = S[s], S[bottom]
    i_hi = min(s, q - 2)
    no_wrap = 0 < k * i_hi < qm1
    i_lo = -(-bottom // k) if no_wrap else 1  # m = ki >= bottom iff i >= ceil(bottom/k)
    total = 0
    if not no_wrap and qm1 - 1 - bottom < i_hi and gcd(k, qm1) == 1:
        inv = mod_inverse(k, qm1)
        for m in range(bottom, qm1):
            i = inv * m % qm1
            if i > i_hi:
                continue
            r = s - i
            if S[i] + S[r] != Ss:
                continue
            d = m - bottom
            if Sb + S[d] != S[m]:
                continue
            term = G[i] * G[r] * F[m] * G[d]
            total += -term if i & 1 else term
    else:
        for i in range(i_lo, i_hi + 1):
            r = s - i
            if S[i] + S[r] != Ss:
                continue
            # (ki)*; k = 0 gives q-1 instead of 0, but bottom is then 0 and C(m, 0) = 1
            m = k * i % qm1 or qm1
            if m < bottom:
                continue
            d = m - bottom
            if Sb + S[d] != S[m]:
                continue
            term = G[i] * G[r] * F[m] * G[d]
            total += -term if i & 1 else term
    return total * F[s] * G[bottom] % p


def pp_criterion(field, k: int) -> bool:
    """a_k is a PP iff gcd(k, q-1) = 1 and criterion_sum vanishes for every
    s in 1..q-2."""
    q = field.q
    if gcd(k, q - 1) != 1:
        return False
    return all(criterion_sum(field, k, s) == 0 for s in range(1, q - 1))


def _row_sum(field, mult: int, top: int, s: int) -> int:
    """sum over 2 <= i <= q-2 of (-1)^i C(top, (mult*i)*) C(i, 2s), mod p,
    for 0 <= top <= q-1 and 0 <= 2s <= q-1.

    A term needs i >= max(2, 2s) (else C(i, 2s) = 0 or i is out of the sum)
    and m = (mult*i)* <= top.  For mult = 1, m = i and the loop walks
    max(2, 2s)..min(top, q-2).  Otherwise, when gcd(mult, q-1) = 1, i -> m
    is a bijection of 1..q-2, so if the m-range 1..min(top, q-2) is the
    shorter one the loop walks it, with i = mult^(-1)*m mod q-1; and
    otherwise it walks max(2, 2s)..q-2.  Row s therefore costs at most
    about q - 2s.  The binomials come from field.binom_tables() as in
    criterion_sum, with F[top] and G[2s] applied once.
    """
    q, p = field.q, field.p
    F, G, S = field.binom_tables()
    qm1 = q - 1
    s2 = 2 * s
    Ss2, St = S[s2], S[top]
    i_lo = max(2, s2)
    m_hi = min(top, q - 2)
    total = 0
    if mult != 1 and m_hi < qm1 - i_lo and gcd(mult, qm1) == 1:
        inv = mod_inverse(mult, qm1)
        for m in range(1, m_hi + 1):
            i = inv * m % qm1
            if i < i_lo:
                continue
            j = i - s2
            if Ss2 + S[j] != S[i]:
                continue
            d = top - m
            if S[m] + S[d] != St:
                continue
            term = F[i] * G[j] * G[m] * G[d]
            total += -term if i & 1 else term
    else:
        wrap = qm1 if mult else 0  # (mult*i)* for mult*i % (q-1) == 0
        i_hi = m_hi if mult == 1 else q - 2  # mult = 1: m = i <= top
        for i in range(i_lo, i_hi + 1):
            j = i - s2
            if Ss2 + S[j] != S[i]:
                continue
            m = mult * i % qm1 or wrap
            if m > top:
                continue
            d = top - m
            if S[m] + S[d] != St:
                continue
            term = F[i] * G[j] * G[m] * G[d]
            total += -term if i & 1 else term
    return total * F[top] * G[s2] % p


def inverse_criterion_sum(field, k_prime: int, s: int, half: bool = False) -> int:
    """The criterion sum rewritten through the inverse exponent k'.

    sum over 2 <= i <= q-2 of (-1)^i C((k'*row)*, (k'i)*) C(i, 2s) mod p,
    where row = s for half=False and row = s + (q-1)/2 for half=True, and
    0 <= s <= (q-1)/2.
    """
    q = field.q
    row = s + (q - 1) // 2 if half else s
    return _row_sum(field, k_prime, star_reduce(k_prime * row, q), s)


def inverse_pp_criterion(field, k: int) -> bool:
    """PP test through k' = k^(-1) mod q-1: gcd ok and both sum families
    vanish (plain rows for 1 <= s <= (q-1)/2, shifted rows for s < (q-1)/2).

    Row s costs about q - 2s (see _row_sum), so the rows are tried
    cheapest first: s runs from (q-1)/2 down to 1, the plain row before
    the shifted one at each s.  For a k that is not a PP a nonzero row
    then tends to turn up among the short rows.
    """
    q = field.q
    if gcd(k, q - 1) != 1:
        return False
    kp = mod_inverse(k, q - 1)
    h = (q - 1) // 2
    for s in range(h, 0, -1):
        if inverse_criterion_sum(field, kp, s) != 0:
            return False
        if s < h and inverse_criterion_sum(field, kp, s, half=True) != 0:
            return False
    return True


def cross_check(field, records) -> tuple[list[dict], dict]:
    """Both criteria against the direct a_pp flag of every sweep row: one
    row per k where the three disagree, and the field's verdict.

    Both criteria are constant on the Frobenius orbits k -> p*k mod q-1:
    that rotates the base-p digits of every exponent class in a row, so by
    Lucas' theorem it only permutes the digitwise binomials.  Each runs
    once per orbit, at its least member, through this module's attributes.
    """
    q = field.q
    rep = orbit_representatives(field.p, field.e)
    flags = {}
    rows = []
    for r in records:
        k = rep[r["k"]]
        if k not in flags:
            flags[k] = (pp_criterion(field, k), inverse_pp_criterion(field, k))
        c1, c2 = flags[k]
        if not (r["a_pp"] == c1 == c2):
            rows.append({"kind": "criterion_mismatch", "q": q, "k": r["k"],
                         "direct": r["a_pp"], "criterion": c1,
                         "inverse_criterion": c2})
    mismatch_ks = [row["k"] for row in rows]
    verdict = {"section": "criterion", "q": q, "checked": q - 1,
               "mismatch_ks": mismatch_ks, "passed": not mismatch_ks}
    return rows, verdict


def xy_params(l: int, t: int, p: int, e: int) -> tuple[int, int]:
    """Support split (x, y) of the class l against its rotation by t:
    y counts positions where both l and p^t*l have a nonzero digit, and
    x is the digit sum of l minus y."""
    dv = digit_vector(l, p, e)
    y = len(support(dv) & support(shift_class(l, t, p, e)))
    return sum(dv.digits) - y, y


def support_identity_lhs(field, l: int, t: int, u: int, v: int) -> int:
    """Row-sum side of the digit-support identity.

    With s = (q-1)/2 - (u + v*p^t), computes
    sum over 2 <= i <= q-2 of (-1)^i C((l*(s+(q-1)/2))*, (li)*) C(i, 2s)
    mod p.  s is recomputed from (u, v, t) here so that inconsistent
    parameter bundles cannot be formed.
    """
    p, e, q = field.p, field.e, field.q
    if e < 3:
        raise ParamDomainError("requires e >= 3, got e = %d" % e)
    if not 1 <= t <= e - 1:
        raise ParamDomainError("t must be in 1..%d, got %d" % (e - 1, t))
    h = (p - 1) // 2
    if not (0 <= u <= h and 0 <= v <= h):
        raise ParamDomainError("u, v must be in 0..%d, got (%d, %d)" % (h, u, v))
    if l < 1:
        raise ParamDomainError("l must be >= 1, got %d" % l)
    digs = digit_vector(l, p, e).digits
    if any(d > 1 for d in digs):
        raise ParamDomainError("l = %d has a base-%d digit above 1" % (l, p))
    if all(d == 1 for d in digs):
        raise ParamDomainError("l = %d has all base-%d digits equal to 1" % (l, p))
    s = (q - 1) // 2 - (u + v * p**t)
    top = star_reduce(l * (s + (q - 1) // 2), q)
    return _row_sum(field, l, top, s)


def support_identity_rhs(p: int, x: int, y: int, u: int, v: int) -> int:
    """Closed-form side of the digit-support identity:

    sum over 0 <= a <= 2u, 0 <= b <= 2v of
    (-1)^((a+b+u+v)(x+y)) C(a,u)^x C(b,v)^x C(a+b,u+v)^y C(2u,a) C(2v,b)
    mod p, with 0^0 = 1 for the powered factors.
    """
    total = 0
    for a in range(2 * u + 1):
        ca = comb(a, u) ** x * comb(2 * u, a)
        for b in range(2 * v + 1):
            term = ca * comb(b, v) ** x * comb(a + b, u + v) ** y * comb(2 * v, b)
            if (a + b + u + v) * (x + y) & 1:
                term = -term
            total += term
    return total % p


def identity_grid(field) -> tuple[list[dict], dict]:
    """All (l, t, u, v) grid points of the support identity for one field.

    The u = v = 0 corner makes 2s = q-1, which empties the row sum (every
    C(i, 2s) with i <= q-2 vanishes) while the closed form's single
    a = b = 0 term is 1, so the displayed congruence cannot extend there.
    Those rows are flagged wrap=True and judged against their analyzed
    values (lhs = 0, rhs = 1) instead of against each other; all other
    points must match exactly.
    """
    p, e, q = field.p, field.e, field.q
    h = (p - 1) // 2
    classes = sorted(
        sum(b * p**i for i, b in enumerate(bits))
        for bits in itertools.product((0, 1), repeat=e)
        if any(bits) and not all(bits)
    )
    rows = []
    for l in classes:
        for t in range(1, e):
            x, y = xy_params(l, t, p, e)
            for u in range(h + 1):
                for v in range(h + 1):
                    lhs = support_identity_lhs(field, l, t, u, v)
                    rhs = support_identity_rhs(p, x, y, u, v)
                    rows.append({"kind": "identity", "q": q, "l": l, "t": t,
                                 "u": u, "v": v,
                                 "s": (q - 1) // 2 - (u + v * p**t),
                                 "x": x, "y": y, "lhs": lhs, "rhs": rhs,
                                 "match": lhs == rhs, "wrap": u == 0 and v == 0})
    wrap_rows = [r for r in rows if r["wrap"]]
    wrap_as_analyzed = all((r["lhs"], r["rhs"]) == (0, 1) for r in wrap_rows)
    mismatches = sum(not r["match"] for r in rows if not r["wrap"])
    verdict = {"section": "identities", "q": q, "points": len(rows),
               "wrap_points": len(wrap_rows), "wrap_as_analyzed": wrap_as_analyzed,
               "mismatches": mismatches,
               "passed": mismatches == 0 and wrap_as_analyzed}
    return rows, verdict


def upper_half_sum(p: int, x: int, y: int) -> int:
    """sum over (p-1)/2 <= a, b <= p-1 of
    (-1)^(a+b) C(a,(p-1)/2)^x C(b,(p-1)/2)^x C(a+b,p-1)^y C(p-1,a) C(p-1,b)
    mod p.  For y >= 1 only the a = b = (p-1)/2 term survives mod p and the
    value is 1.
    """
    h = (p - 1) // 2
    total = 0
    for a in range(h, p):
        ca = comb(a, h) ** x * comb(p - 1, a)
        for b in range(h, p):
            term = ca * comb(b, h) ** x * comb(a + b, p - 1) ** y * comb(p - 1, b)
            if (a + b) & 1:
                term = -term
            total += term
    return total % p


def upper_half_grid(p: int) -> tuple[list[dict], dict]:
    """The upper-half sum over UPPER_HALF_X_RANGE x UPPER_HALF_Y_RANGE for p;
    a p that is not an odd prime gives one error row and a failing verdict
    instead."""
    if not is_prime(p) or p == 2:
        return ([{"kind": "error", "p": p,
                  "error": "NotPrimeError: p = %d is not an odd prime" % p}],
                {"section": "upper_half", "p": p, "passed": False})
    rows = []
    for x in UPPER_HALF_X_RANGE:
        for y in UPPER_HALF_Y_RANGE:
            val = upper_half_sum(p, x, y)
            rows.append({"kind": "upper_half", "p": p, "x": x, "y": y,
                         "value": val, "match": val == 1})
    mismatches = sum(not r["match"] for r in rows)
    verdict = {"section": "upper_half", "p": p, "points": len(rows),
               "mismatches": mismatches, "passed": mismatches == 0}
    return rows, verdict
