"""The two indexed polynomial families, direct permutation tests, and sweeps.

For an exponent 1 <= k <= q-1 the two maps of interest are

    a_k(x) = x^k * ((x+1)^k - x^k)
    b_k(x) = ((x+1)^(2k) - 1) * x^(q-1-k) - 2 * x^(q-1)

with the convention x^0 = 1 (so b_{q-1}(0) = 0).  For every k a sweep
scans both maps over the field in one fixed order, x = 0, x = -1, then
x = g^n in log order, and stops at the first collision, two inputs with
one value: a map permutes GF(q) iff it has none.  A non-permutation
usually collides after about sqrt(q) inputs, so only the permutations
cost O(q).  A sweep row is a flat report dict, {kind, q, k, a_pp, b_pp}:
the two flags of one k and nothing that is a function of (q, k) alone.

The scans (a_collision, b_collision) work in the log domain of
Field.log_tables (Lidl-Niederreiter, ch. 2): with m = q-1, h = m/2
(g^h = -1), x = g^n and x + 1 = g^z, and g^c - 1 = g^(h + zech[c + h])
for c != 0 (exponents mod m), each value costs one Zech lookup:

    a_k(x) = x^(2k) ((1 + 1/x)^k - 1):
        0 if k(z-n) = 0, else of log 2kn + h + zech[k(z-n) + h];
    b_k(x) + 2 = ((x+1)^(2k) - 1) x^(-k):
        0 if 2kz = 0, else of log h + zech[2kz + h] - kn.

The b scan reads b_k + 2 rather than b_k: adding 2 is a bijection of
GF(q), so two inputs collide under one exactly when they collide under
the other, and the first colliding pair is the same.  A scan keys the
values it has seen by their logs, with one slot for the value 0, and
turns a log back into an element only for the pair it returns.

Two symmetries spare most of that work.  When a map's exponent shares a
root of unity w != 1 with q-1 (for a_k), or t != +-1 with q-1 (for b_k),
an explicit pair collides (_a_pair, _b_pair), so only the exponents with
gcd(k, q-1) = 1 (for a_k) or gcd(2k, q-1) = 2 (for b_k) are scanned.  And
a_{pk} = (a_k)^p, b_{pk} = (b_k)^p as maps, with x -> x^p a bijection, so
a sweep decides each Frobenius orbit k -> p*k mod q-1 once, at its least
member.
"""

from __future__ import annotations

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


def a_collision(field, k: int) -> tuple[int, int] | None:
    """The first (x1, x2), x1 before x2 in the scan order, with
    a_k(x1) = a_k(x2), or None when a_k permutes GF(q).

    The loop reads x = g^n as n and each value as its log (the module
    docstring has the formula); the seen logs map to their n, and -1 is
    n = h, with a_k(-1) = -1 = g^h.  The value 0 is taken by a_k(0), so
    the first other zero collides with x = 0.
    """
    exp, _, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    k2 = 2 * k
    seen = {h: h}
    for n, z in enumerate(zech):
        if n != h:
            d = (k * (z - n) + h) % m
            if d == h:
                return 0, exp[n]
            j = seen.setdefault((k2 * n + h + zech[d]) % m, n)
            if j != n:
                return exp[j], exp[n]
    return None


def b_collision(field, k: int) -> tuple[int, int] | None:
    """The first colliding pair of b_k, or None, as in a_collision.

    The loop reads b_k + 2 (see the module docstring), which is 2 at x = 0
    and -(-1)^k = g^((k+1)h) at x = -1.  For p = 3 and even k those are
    equal (2 = -1), so (0, -1) collide before the loop.  x = 0 is kept as
    None among the seen logs, and the value 0 has its own slot.
    """
    exp, log, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    k2 = 2 * k
    at_zero, at_minus_one = log[2], (k + 1) * h % m
    if at_zero == at_minus_one:
        return 0, exp[h]
    seen = {at_zero: None, at_minus_one: h}
    zero = None
    for n, z in enumerate(zech):
        if n != h:
            d = (k2 * z + h) % m
            if d == h:
                if zero is not None:
                    return exp[zero], exp[n]
                zero = n
            else:
                j = seen.setdefault((h + zech[d] - k * n) % m, n)
                if j != n:
                    return 0 if j is None else exp[j], exp[n]
    return None


def _a_pair(field, k: int) -> tuple[int, int] | None:
    """A colliding pair of a_k built from a root of unity, or None when
    d = gcd(k, q-1) = 1.

    w = g^((q-1)/d) has w^k = 1 and w != 1.  x = 1/(w-1) has x + 1 = w*x,
    so (x+1)^k = x^k and a_k(x) = 0 = a_k(0); x is neither 0 nor -1.  x is
    taken from the log tables (w - 1 = g^h (1 + g^(log w + h)), with
    g^h = -1), and the pair (0, x) is returned only after a_k(x) = 0 is
    checked as the scan reads it, k(z-n) = 0 for x = g^n, x + 1 = g^z, so
    a None means the scan decides.
    """
    m = field.q - 1
    d = gcd(k, m)
    if d == 1:
        return None
    exp, _, zech = field.log_tables()
    h = m // 2
    n = -(h + zech[(m // d + h) % m]) % m
    return (0, exp[n]) if k * (zech[n] - n) % m == 0 else None


def _b_pair(field, k: int) -> tuple[int, int] | None:
    """A colliding pair of b_k built from a root of unity, or None when
    d = gcd(2k, q-1) = 2.

    t = g^((q-1)/d) has t^(2k) = 1 and t != +-1.  At x = t - 1 != 0,
    (x+1)^(2k) = 1 gives b_k(x) = -2 x^(q-1) = -2, and b_k(-2) = -2 as
    (-1)^(2k) = 1; t - 1 != -2, and neither is 0 or -1.  t - 1 is taken
    from the log tables as in _a_pair, and the pair (-2, t-1) is returned
    only after b_k(t-1) + 2 = 0 is checked as the scan reads it, 2kz = 0
    for x + 1 = g^z; b_k(-2) = -2 holds for every k.
    """
    m = field.q - 1
    d = gcd(2 * k, m)
    if d == 2:
        return None
    exp, log, zech = field.log_tables()
    h = m // 2
    n = (h + zech[(m // d + h) % m]) % m
    return (exp[(log[2] + h) % m], exp[n]) if 2 * k * zech[n] % m == 0 else None


def p_powers(field) -> list[int]:
    """The exponents p^0, ..., p^(e-1), ascending."""
    return [field.p**i for i in range(field.e)]


def sweep_record(field, k: int) -> dict:
    """The sweep row of one exponent: its direct PP flags.

    A map whose built pair collides is no PP; any other is scanned to its
    first collision.
    """
    return {
        "kind": "sweep",
        "q": field.q,
        "k": k,
        "a_pp": _a_pair(field, k) is None and a_collision(field, k) is None,
        "b_pp": _b_pair(field, k) is None and b_collision(field, k) is None,
    }


def sweep(field) -> list[dict]:
    """Rows for every exponent 1 <= k <= q-1, in order.

    sweep_record runs once per Frobenius orbit, at its least member, through
    digits.per_orbit; the other members take its row with their own k, as
    the flags are constant on the orbit (see the module docstring).
    """
    leaders = digits.per_orbit(field.p, field.e, lambda k: sweep_record(field, k))
    return [r if r["k"] == k else dict(r, k=k) for k, r in enumerate(leaders, 1)]


def conjecture_verdict(field, which: str, records: list[dict]) -> dict:
    """Exhaustive per-q check of a PP-exponent conjecture over the sweep
    rows `records`, the field's sweep, as the sweep section's verdict: the
    witness set of PP exponents against the p-powers.

    which = "A" or "B" asserts the witness set equals the p-powers exactly;
    which = "two" asserts every exponent with both maps PP is a p-power.
    """
    if which not in ("A", "B", "two"):
        raise ValueError("which must be 'A', 'B' or 'two', got %r" % (which,))
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
