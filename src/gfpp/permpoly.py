"""The two indexed polynomial families, direct permutation tests, and sweeps.

For an exponent 1 <= k <= q-1 the two maps of interest are

    a_k(x) = x^k * ((x+1)^k - x^k)
    b_k(x) = ((x+1)^(2k) - 1) * x^(q-1-k) - 2 * x^(q-1)

with the convention x^0 = 1 (so b_{q-1}(0) = 0).  For every k a sweep
streams the (x, value) pairs of both maps in log order and reads each
stream only up to its first collision, two inputs with one value: a map
permutes GF(q) iff it has none.  A non-permutation usually collides
after about sqrt(q) inputs, so only the permutations cost O(q).  Each
sweep row, a report dict, adds gcd, inverse-exponent digit data, and the
optional criterion flag.

Two symmetries spare most of that work.  When a map's exponent shares a
root of unity t != +-1 with q-1, an explicit pair collides (_a_pair,
_b_pair), so only the exponents with gcd(2k, q-1) <= 2 (for a_k) or
gcd(k, q-1) <= 2 (for b_k) are scanned.  And a_{pk} = (a_k)^p, b_{pk} =
(b_k)^p as maps, with x -> x^p a bijection, so a sweep decides each
Frobenius orbit k -> p*k mod q-1 once, at its least member.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd

from . import digits


def eval_a(field, k: int, x: int) -> int:
    """x^k * ((x+1)^k - x^k), computed pointwise by square-and-multiply."""
    xk = field.pow(x, k)
    return field.mul(xk, field.sub(field.pow(field.add(x, 1), k), xk))


def eval_b(field, k: int, x: int) -> int:
    """((x+1)^(2k) - 1) * x^(q-1-k) - 2 * x^(q-1), with x^0 = 1."""
    q = field.q
    lead = field.sub(field.pow(field.add(x, 1), 2 * k), 1)
    t = field.mul(lead, field.pow(x, q - 1 - k))
    return field.sub(t, field.mul(2, field.pow(x, q - 1)))


def a_values(field, k: int) -> Iterator[tuple[int, int]]:
    """Yield (x, a_k(x)) for every element x: x = 0, then x = -1, then
    x = g^n in log order.

    For x = g^n with x != 0, -1 and x + 1 = g^z, a_k(x) = (x(x+1))^k - x^(2k)
    is g^u - g^v with u = k(n+z), v = 2kn, and g^u - g^v = g^u (1 + g^(v-u+h))
    is 0 for u = v and g^(u + zech[v-u+h]) otherwise (exponents mod m = q-1,
    h = m/2).  a_k(0) = 0 and a_k(-1) = -1.
    """
    exp, _, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    yield 0, 0
    yield exp[h], exp[h]
    for n, z in enumerate(zech):
        if n != h:
            u = k * (n + z) % m
            d = (2 * k * n - u + h) % m
            yield exp[n], 0 if d == h else exp[(u + zech[d]) % m]


def b_values(field, k: int) -> Iterator[tuple[int, int]]:
    """Yield (x, b_k(x)) for every element x, in the order of a_values.

    For x = g^n with x != 0, -1 and x + 1 = g^z, x^(q-1) = 1 gives
    b_k(x) = D x^(-k) - 2 with D = g^(2kz) - 1.  D = 0 gives -2; otherwise
    D = g^d, and D x^(-k) - 2 = g^(d-kn) - g^(log 2) is a second difference,
    both taken in the log domain as in a_values.
    b_k(0) = 0 and b_k(-1) = -(-1)^k - 2.
    """
    exp, log, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    l2 = log[2]
    minus2 = exp[(l2 + h) % m]
    yield 0, 0
    yield exp[h], field.sub(field.neg(exp[k * h % m]), 2)
    for n, z in enumerate(zech):
        if n != h:
            u = 2 * k * z % m
            if u == 0:
                yield exp[n], minus2
                continue
            w = (u + zech[(h - u) % m] - k * n) % m
            d = (l2 - w + h) % m
            yield exp[n], 0 if d == h else exp[(w + zech[d]) % m]


def first_collision(pairs: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """The first (x1, x2) with x1 before x2 and equal values, or None.

    `pairs` yields (x, value); a map given by its pairs over the whole
    field permutes it iff this is None.  Reading stops at the collision.
    """
    seen = {}
    for x, v in pairs:
        if v in seen:
            return seen[v], x
        seen[v] = x
    return None


def _a_at(field, k: int, x: int) -> int:
    """a_k(x) = (x(x+1))^k - x^(2k) for x != 0, -1: both powers from the
    log tables, their difference by Field.sub."""
    exp, log, zech = field.log_tables()
    m = field.q - 1
    n = log[x]
    return field.sub(exp[k * (n + zech[n]) % m], exp[2 * k * n % m])


def _b_at(field, k: int, x: int) -> int:
    """b_k(x) = ((x+1)^(2k) - 1) x^(-k) - 2 for x != 0, -1 (x^(q-1) = 1):
    the powers from the log tables, the differences by Field.sub."""
    exp, log, zech = field.log_tables()
    m = field.q - 1
    n = log[x]
    lead = field.sub(exp[2 * k * zech[n] % m], 1)
    return field.sub(0 if lead == 0 else exp[(log[lead] - k * n) % m], 2)


def _a_pair(field, k: int) -> tuple[int, int] | None:
    """A colliding pair of a_k built from a root of unity, or None when
    d = gcd(2k, q-1) <= 2.

    t = g^((q-1)/d) has t^(2k) = 1 and t != +-1.  x = 1/(t-1) and
    y = -1-x = -t*x give y(y+1) = x(x+1) and y^(2k) = x^(2k), so
    a_k(x) = a_k(y); x != y, and neither is 0 or -1.  The pair is taken
    from the log tables (t - 1 = g^h (1 + g^(log t + h)), with g^h = -1)
    and returned only after a_k is evaluated at both points, so a None
    means the scan decides.
    """
    m = field.q - 1
    d = gcd(2 * k, m)
    if d <= 2:
        return None
    exp, _, zech = field.log_tables()
    h = m // 2
    nx = -(h + zech[(m // d + h) % m]) % m
    x, y = exp[nx], exp[(h + zech[nx]) % m]
    return (x, y) if _a_at(field, k, x) == _a_at(field, k, y) else None


def _b_pair(field, k: int) -> tuple[int, int] | None:
    """A colliding pair of b_k built from a root of unity, or None when
    d = gcd(k, q-1) <= 2.

    t = g^((q-1)/d) has t^k = 1 and t != +-1.  x = -2/(1+t) and
    y = -2-x = t*x give y+1 = -(x+1) and y^k = x^k, so b_k(x) = b_k(y);
    x != y, and neither is 0 or -1.  Taken from the log tables and checked
    by evaluating b_k at both points, as in _a_pair.
    """
    m = field.q - 1
    d = gcd(k, m)
    if d <= 2:
        return None
    exp, log, zech = field.log_tables()
    lt = m // d
    nx = (log[2] + m // 2 - zech[lt]) % m
    x, y = exp[nx], exp[(lt + nx) % m]
    return (x, y) if _b_at(field, k, x) == _b_at(field, k, y) else None


def p_powers(field) -> list[int]:
    """The exponents p^0, ..., p^(e-1), ascending."""
    return [field.p**i for i in range(field.e)]


def _row(field, k: int, a_pp: bool, b_pp: bool, crit) -> dict:
    """The sweep row of k with the given flags; gcd and inverse-exponent
    digit data are computed from k itself."""
    q = field.q
    gcd_ok = gcd(k, q - 1) == 1
    kp = digits.mod_inverse(k, q - 1) if gcd_ok else None
    return {
        "kind": "sweep",
        "q": q,
        "k": k,
        "gcd_ok": gcd_ok,
        "a_pp": a_pp,
        "b_pp": b_pp,
        "k_is_p_power": k in p_powers(field),
        "k_prime": kp,
        "k_prime_binary": None if kp is None else digits.digits_binary(kp, field.p, field.e),
        "criterion": crit,
        "girth_ge_8": None,
    }


def sweep_record(field, k: int, *, with_criterion: bool = False) -> dict:
    """The sweep row of one exponent: direct PP flags, gcd and
    inverse-exponent digit data, and the optional criterion flag.

    A map whose built pair collides is no PP; any other is scanned to its
    first collision.  The criterion flag costs O(q^2) binomial work per
    exponent, so it is opt-in.  girth_ge_8 is None here; a girth scan can
    fill it in.
    """
    a_pp = _a_pair(field, k) is None and first_collision(a_values(field, k)) is None
    b_pp = _b_pair(field, k) is None and first_collision(b_values(field, k)) is None
    crit = None
    if with_criterion:
        from . import criterion  # loaded only when the flag is asked for

        crit = criterion.pp_criterion(field, k)
    return _row(field, k, a_pp, b_pp, crit)


def sweep(field, **kwargs) -> list[dict]:
    """Rows for every exponent 1 <= k <= q-1, in order.

    The flags are computed once per Frobenius orbit, by sweep_record at its
    least member, and copied to the other members' rows.
    """
    rep = digits.orbit_representatives(field.p, field.e)
    rows = []
    for k in range(1, field.q):
        if rep[k] == k:
            rows.append(sweep_record(field, k, **kwargs))
        else:
            r = rows[rep[k] - 1]
            rows.append(_row(field, k, r["a_pp"], r["b_pp"], r["criterion"]))
    return rows


def conjecture_verdict(field, which: str, records=None) -> dict:
    """Exhaustive per-q check of a PP-exponent conjecture over the sweep
    rows `records`, as the sweep section's verdict: the witness set of PP
    exponents against the p-powers.

    which = "A" or "B" asserts the witness set equals the p-powers exactly;
    which = "two" asserts every exponent with both maps PP is a p-power.
    """
    if which not in ("A", "B", "two"):
        raise ValueError("which must be 'A', 'B' or 'two', got %r" % (which,))
    if records is None:
        records = sweep(field)
    if which == "A":
        witnesses = [r["k"] for r in records if r["a_pp"]]
    elif which == "B":
        witnesses = [r["k"] for r in records if r["b_pp"]]
    else:
        witnesses = [r["k"] for r in records if r["a_pp"] and r["b_pp"]]
    expected = p_powers(field)
    if which == "two":
        passed = set(witnesses) <= set(expected)
    else:
        passed = witnesses == expected
    return {"section": "sweep", "q": field.q, "which": which,
            "witnesses": witnesses, "expected": expected, "passed": passed}
