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
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd

from . import criterion, digits


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


def p_powers(field) -> list[int]:
    """The exponents p^0, ..., p^(e-1), ascending."""
    return [field.p**i for i in range(field.e)]


def sweep_record(field, k: int, *, with_criterion: bool = False) -> dict:
    """The sweep row of one exponent: direct PP flags, gcd and
    inverse-exponent digit data, and the optional criterion flag.

    The criterion flag costs O(q^2) binomial work per exponent, so it is
    opt-in.  girth_ge_8 is None here; a girth scan can fill it in.
    """
    q = field.q
    gcd_ok = gcd(k, q - 1) == 1
    kp = digits.mod_inverse(k, q - 1) if gcd_ok else None
    return {
        "kind": "sweep",
        "q": q,
        "k": k,
        "gcd_ok": gcd_ok,
        "a_pp": first_collision(a_values(field, k)) is None,
        "b_pp": first_collision(b_values(field, k)) is None,
        "k_is_p_power": k in p_powers(field),
        "k_prime": kp,
        "k_prime_binary": None if kp is None else digits.digits_binary(kp, field.p, field.e),
        "criterion": criterion.pp_criterion(field, k) if with_criterion else None,
        "girth_ge_8": None,
    }


def sweep(field, **kwargs) -> list[dict]:
    """Rows for every exponent 1 <= k <= q-1, in order."""
    return [sweep_record(field, k, **kwargs) for k in range(1, field.q)]


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
