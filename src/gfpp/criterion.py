"""The binomial-sum permutation criterion, numeric identity verifiers,
and the checks that judge them: the criterion against the direct PP
flags, the support-identity grid and the upper-half sum grid.  Each check
returns (rows, verdict) in the report's dict form.

Every binomial-sum row is one kernel, _row_sum:
    R(mult, top, b) = sum over 2 <= i <= q-2 of (-1)^i C(top, mult*i % (q-1)) C(i, b)
mod p, with each binomial reduced through the field's Lucas tables.
Starred quantities are exponent classes mod q-1 reduced into 1..q-1
(digits.star_reduce).  The lower index mult*i % (q-1) is the one exponent
of its class in 0..top: only the class of 0 could have two there, 0 and
q-1, and only in the support identity (the criterion's mult is coprime
to q-1), where top <= q-2 on every walked row (see identity_grid).

When mult is a p-power class p^j, the row has a closed form.  Write x_d
for the base-p digit d of x, and T_d = top_((d+j) mod e).  For every i in
0..q-1, m = (p^j*i)* rotates the digits of i, so m_((d+j) mod e) = i_d
(i = 0 and i = q-1 are fixed by the rotation).  By Lucas' theorem
C(top, m) C(i, b) = prod over d of C(T_d, i_d) C(i_d, b_d), and as p is
odd, (-1)^i = prod over d of (-1)^(i_d).  So the sum over all i in
0..q-1 factors into digit sums, each
    sum over x < p of (-1)^x C(T, x) C(x, b) = (-1)^b C(T, b) (1-1)^(T-b)
                                            = (-1)^b [T = b]
(C(T, x) C(x, b) = C(T, b) C(T-b, x-b)).  Hence the full sum is
(-1)^b [top = (p^j*b)*], with (-1)^b = prod over d of (-1)^(b_d).  It
equals the row when the terms i = 0, 1, q-1 that the row leaves out
vanish: C(i, b) = 0 for i < 2 <= b, and C(top, q-1) = 0 for top <= q-2.
Outside that guard the kernel walks i over max(2, b)..q-2, one pass per
i; the u = v = 0 corner of the support identity, where top = b = q-1, is
such a row.

The Hermite-type criterion for a_k (Dmytrenko-Lazebnik-Williford, Finite
Fields Appl. 13, 2007): a_k permutes GF(q) iff gcd(k, q-1) = 1 and every
    criterion_sum(k, s) = sum over 1 <= j <= q-2 of (-1)^j C(s, j) C((kj)*, (2ks)*)
mod p, s in 1..q-2, vanishes.  For such k, with k' = k^(-1) mod q-1,
    criterion_sum(k, s) = R(k', s, (2ks)*).
Proof: j -> i = (kj)* is a bijection of 1..q-2 with inverse i -> (k'i)*;
i = kj mod q-1 has the parity of j, as q-1 is even and k odd; and the
i = 1 term C(1, (2ks)*) is 0, as (2ks)* is even and at least 2.  Hou's
proof of Conjecture A (arXiv 1701.05214) writes the rows through k':
row r in 1..q-2 is R(k', (k'r)*, (2r)*), which is criterion_sum(k, (k'r)*)
since (2k(k'r)*)* = (2r)*.  As r -> (k'r)* is a bijection of 1..q-2, the
two forms are the same q-2 rows in another order; pp_criterion evaluates
each once.  For a p-power k, k' is a p-power class, so every row takes
the closed form above, and it is 0: top = (k'r)* is never (k'(2r)*)*, as
r is not 2r mod q-1.  The closed forms (support_identity_rhs,
upper_half_sum) stay integer sums reduced mod p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, gcd

from .digits import digit_vector, mod_inverse, per_orbit, star_reduce
from .errors import NotPrimeError, ParamDomainError
from .field import from_digits, is_prime

UPPER_HALF_X_RANGE = range(0, 5)
UPPER_HALF_Y_RANGE = range(1, 5)


def _row_sum(field, mult: int, top: int, bottom: int) -> int:
    """R(mult, top, bottom) mod p for mult >= 0 and top, bottom in 0..q-1.

    For a p-power class mult (digit sum 1) with bottom >= 2 and top <= q-2,
    the row is (-1)^bottom [top = (mult*bottom)*], with no walk (see the
    module docstring).  Otherwise C(i, bottom) vanishes below bottom, so
    the loop walks i over max(2, bottom)..q-2 and a row costs exactly
    q-1-max(2, bottom) passes.  This is the only place that forms a
    binomial from field.binom_tables(): C(m, n) is F[m] G[n] G[m-n] when
    the digit sums show no borrow in m - n, and 0 otherwise; F[top] and
    G[bottom] are applied once.
    """
    q, p = field.q, field.p
    F, G, S = field.binom_tables()
    if bottom >= 2 and top <= q - 2 and S[star_reduce(mult, q)] == 1:
        sign = p - 1 if bottom & 1 else 1
        return sign if top == star_reduce(mult * bottom, q) else 0
    qm1 = q - 1
    Sb, St = S[bottom], S[top]
    total = 0
    for i in range(max(2, bottom), qm1):
        j = i - bottom
        if Sb + S[j] != S[i]:
            continue
        m = mult * i % qm1
        if m > top:
            continue
        d = top - m
        if S[m] + S[d] != St:
            continue
        term = F[i] * G[j] * G[m] * G[d]
        total += -term if i & 1 else term
    return total * F[top] * G[bottom] % p


def criterion_sum(field, k: int, s: int) -> int:
    """The criterion row s in 1..q-2 of a coprime k, as the kernel row
    R(k', s, (2ks)*); any other k raises NotCoprimeError."""
    q = field.q
    return _row_sum(field, mod_inverse(k, q - 1), s, star_reduce(2 * k * s, q))


def pp_criterion(field, k: int) -> bool:
    """a_k is a PP iff gcd(k, q-1) = 1 and every criterion row vanishes.

    The rows are R(k', (k'r)*, (2r)*) for r in 1..q-2.  A walked row with
    bottom b >= 2 costs q-1-b passes, so they are tried cheapest first:
    bottom 2s from q-3 down to 2, r = s before r = s + (q-1)/2.  The row
    r = (q-1)/2 has bottom q-1 and so no term; it is skipped.  For a
    p-power k every row is the kernel's closed form, so the q-3 rows the
    criterion must sum to accept k cost O(1) each.
    """
    q = field.q
    if gcd(k, q - 1) != 1:
        return False
    kp = mod_inverse(k, q - 1)
    h = (q - 1) // 2
    for s in range(h - 1, 0, -1):
        for r in (s, s + h):
            if _row_sum(field, kp, star_reduce(kp * r, q), 2 * s) != 0:
                return False
    return True


def cross_check(field, records) -> tuple[list[dict], dict]:
    """The criterion against the direct a_pp flag of every sweep row: one
    row per k where the two disagree, which carries the direct flag (the
    criterion's is its negation), and the field's verdict.

    The criterion runs once per Frobenius orbit k -> p*k mod q-1, through
    digits.per_orbit and this module's attribute: k -> p*k rotates the
    base-p digits of every exponent class in a row, so by Lucas' theorem it
    only permutes the digitwise binomials.
    """
    q = field.q
    flags = per_orbit(field.p, field.e, lambda k: pp_criterion(field, k))
    rows = [{"kind": "criterion_mismatch", "q": q, "k": r["k"], "direct": r["a_pp"]}
            for r in records if r["a_pp"] != flags[r["k"] - 1]]
    mismatch_ks = [row["k"] for row in rows]
    return rows, {"section": "criterion", "q": q, "checked": q - 1,
                  "mismatch_ks": mismatch_ks, "passed": not mismatch_ks}


def xy_params(l: int, t: int, p: int, e: int) -> tuple[int, int]:
    """Support split (x, y) of the class l against its rotation by t: with
    d = digit_vector(l), y counts the positions i where both d_i and
    d_((i-t) mod e) are nonzero, that is where both l and p^t*l have a
    nonzero digit, and x is the digit sum of l minus y."""
    d = digit_vector(l, p, e)
    y = sum(1 for i in range(e) if d[i] and d[(i - t) % e])
    return sum(d) - y, y


def support_identity_lhs(field, l: int, t: int, u: int, v: int) -> int:
    """Row-sum side of the digit-support identity.

    With s = (q-1)/2 - (u + v*p^t), computes
    sum over 2 <= i <= q-2 of (-1)^i C((l*(s+(q-1)/2))*, l*i % (q-1)) C(i, 2s)
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
    digs = digit_vector(l, p, e)
    if any(d > 1 for d in digs):
        raise ParamDomainError("l = %d has a base-%d digit above 1" % (l, p))
    if all(d == 1 for d in digs):
        raise ParamDomainError("l = %d has all base-%d digits equal to 1" % (l, p))
    s = (q - 1) // 2 - (u + v * p**t)
    top = star_reduce(l * (s + (q - 1) // 2), q)
    return _row_sum(field, l, top, 2 * s)


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

    A row is {kind, q, l, t, u, v, lhs, rhs, wrap}; s = (q-1)/2 - (u + v*p^t)
    and the support split (x, y) = xy_params(l, t, p, e) are functions of
    those keys, and whether a point matches is lhs == rhs.

    The u = v = 0 corner makes 2s = q-1, which empties the row sum (every
    C(i, 2s) with i <= q-2 vanishes) while the closed form's single
    a = b = 0 term is 1, so the displayed congruence cannot extend there.
    Those rows are flagged wrap=True and judged against their analyzed
    values (lhs = 0, rhs = 1) instead of against each other; all other
    points must match exactly.

    Off that corner top <= q-2.  With w = u + v*p^t, top = -l*w mod q-1,
    and l*w = u*l + v*(p^t*l), where l and its rotation have 0/1 digits,
    so its base-p digits are u, v or u + v <= p-1; it is a multiple of
    q-1 only at u = v = 0 or with every digit u + v = p-1, an all-ones l.
    """
    p, e, q = field.p, field.e, field.q
    h = (p - 1) // 2
    classes = sorted(
        from_digits(bits, p)
        for bits in itertools.product((0, 1), repeat=e)
        if any(bits) and not all(bits)
    )
    rows = []
    for l in classes:
        for t in range(1, e):
            x, y = xy_params(l, t, p, e)
            for u in range(h + 1):
                for v in range(h + 1):
                    rows.append({"kind": "identity", "q": q, "l": l, "t": t,
                                 "u": u, "v": v,
                                 "lhs": support_identity_lhs(field, l, t, u, v),
                                 "rhs": support_identity_rhs(p, x, y, u, v),
                                 "wrap": u == 0 and v == 0})
    wrap_rows = [r for r in rows if r["wrap"]]
    wrap_as_analyzed = all((r["lhs"], r["rhs"]) == (0, 1) for r in wrap_rows)
    mismatches = sum(r["lhs"] != r["rhs"] for r in rows if not r["wrap"])
    verdict = {"section": "identities", "q": q, "points": len(rows),
               "wrap_points": len(wrap_rows), "wrap_as_analyzed": wrap_as_analyzed,
               "mismatches": mismatches,
               "passed": mismatches == 0 and wrap_as_analyzed}
    return rows, verdict


@lru_cache(maxsize=1)  # upper_half_grid asks for one p at a time
def _upper_half_binoms(p: int) -> tuple[tuple[int, ...], ...]:
    """C(a, (p-1)/2) and C(p-1, a) for a < p, and C(n, p-1) for n < 2p-1,
    each mod p: the factors of upper_half_sum."""
    h = (p - 1) // 2
    return (tuple(comb(a, h) % p for a in range(p)),
            tuple(comb(p - 1, a) % p for a in range(p)),
            tuple(comb(n, p - 1) % p for n in range(2 * p - 1)))


def upper_half_sum(p: int, x: int, y: int) -> int:
    """sum over (p-1)/2 <= a, b <= p-1 of
    (-1)^(a+b) C(a,(p-1)/2)^x C(b,(p-1)/2)^x C(a+b,p-1)^y C(p-1,a) C(p-1,b)
    mod p.  For y >= 1 only the a = b = (p-1)/2 term survives mod p and the
    value is 1.

    Each factor is reduced mod p before pow(c, x, p), which keeps 0^0 = 1,
    so no term grows; the double loop still costs about p^2/4 products.
    """
    h = (p - 1) // 2
    half, row, col = _upper_half_binoms(p)
    # (-1)^a C(a, h)^x C(p-1, a) for a = h..p-1; the b factor is the same
    side = [(-1) ** a * pow(half[a], x, p) * row[a] for a in range(h, p)]
    col_y = [pow(c, y, p) for c in col]
    total = 0
    for a, ca in enumerate(side, h):
        if ca:
            total += ca * sum(cb * col_y[a + b] for b, cb in enumerate(side, h))
    return total % p


def upper_half_grid(p: int) -> tuple[list[dict], dict]:
    """The upper-half sum over UPPER_HALF_X_RANGE x UPPER_HALF_Y_RANGE for p;
    raises NotPrimeError when p is not an odd prime."""
    if not is_prime(p) or p == 2:
        raise NotPrimeError("p = %d is not an odd prime" % p)
    rows = [{"kind": "upper_half", "p": p, "x": x, "y": y,
             "value": upper_half_sum(p, x, y)}
            for x in UPPER_HALF_X_RANGE for y in UPPER_HALF_Y_RANGE]
    mismatches = sum(r["value"] != 1 for r in rows)
    verdict = {"section": "upper_half", "p": p, "points": len(rows),
               "mismatches": mismatches, "passed": mismatches == 0}
    return rows, verdict
