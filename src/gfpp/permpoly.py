"""The two indexed polynomial families, direct permutation tests, and sweeps.

For an exponent 1 <= k <= q-1 the two maps of interest are

    a_k(x) = x^k * ((x+1)^k - x^k)
    b_k(x) = ((x+1)^(2k) - 1) * x^(q-1-k) - 2 * x^(q-1)

with the convention x^0 = 1 (so b_{q-1}(0) = 0).  One decider per family,
a_collision or b_collision, returns two inputs with one value, or None
when the map permutes GF(q).  A sweep row is a flat report dict,
{kind, q, k, a_pp, b_pp}: the two flags of one k and nothing that is a
function of (q, k) alone.

Most exponents need no scan (Dmytrenko-Lazebnik-Williford).  When k
shares a root of unity w != 1 with q-1, that is gcd(k, q-1) > 1, the pair
(0, 1/(w-1)) collides under a_k; when 2k shares one, t != +-1, with q-1,
that is gcd(2k, q-1) > 2, the pair (-2, t-1) collides under b_k.  The
deciders build those pairs and check them as the scans would read them.

The other exponents are scanned over the field in one fixed order, x = 0,
x = -1, then x = g^n in log order, to the first collision; a
non-permutation usually collides after about sqrt(q) inputs, so only the
permutations cost O(q).  A scan works in the log domain of
Field.log_tables (Lidl-Niederreiter, ch. 2): with m = q-1, h = m/2
(g^h = -1), x = g^n and x + 1 = g^z, and g^c - 1 = g^(h + zech[c + h])
for c != 0 (exponents mod m), each value costs one Zech lookup:

    a_k(x) = x^(2k) ((1 + 1/x)^k - 1):
        0 if k(z-n) = 0, else of log 2kn + h + zech[k(z-n) + h];
    b_k(x) + 2 = ((x+1)^(2k) - 1) x^(-k):
        0 if 2kz = 0, else of log h + zech[2kz + h] - kn.

At a scanned k the value 0 needs no slot: for k a unit mod q-1,
(x+1)^k = x^k has no root x != 0, so a_k is 0 at x = 0 alone, and for
gcd(2k, q-1) = 2, (x+1)^(2k) = 1 forces x + 1 = +-1, so b_k + 2 is 0 at
x = -2 alone, which the b loop skips.  So the seen values are keyed by
their logs, and a log turns back into an element only for the pair
returned.  The b scan reads b_k + 2: adding 2 is a bijection of GF(q), so
the same pairs collide, first the same one.

a_{pk} = (a_k)^p and b_{pk} = (b_k)^p as maps, with x -> x^p a
bijection, so a sweep decides each Frobenius orbit k -> p*k mod q-1 once,
at its least member.
"""

from math import gcd

from .field import p_powers, per_orbit


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
    """A pair (x1, x2) with a_k(x1) = a_k(x2), or None when a_k permutes GF(q).

    When d = gcd(k, q-1) > 1, w = g^((q-1)/d) has w^k = 1 and w != 1, and
    x = 1/(w-1) has x + 1 = w*x, so a_k(x) = 0 = a_k(0).  x = g^n comes
    from the log tables (w - 1 = g^h (1 + g^(log w + h)), with g^h = -1),
    and (0, x) is returned once checked as the scan would read it,
    k(z-n) = 0 for x + 1 = g^z; a failed check is a defect and raises.
    Otherwise the pair is the scan's first collision, x1 before x2: the
    loop reads x = g^n as n and each value as its log; the seen logs map to
    their n, and -1 is n = h, with a_k(-1) = -1 = g^h.
    """
    exp, _, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    d = gcd(k, m)
    if d > 1:
        n = -(h + zech[(m // d + h) % m]) % m
        if k * (zech[n] - n) % m:
            raise AssertionError("built a_k pair does not collide at q = %d, k = %d"
                                 % (field.q, k))
        return 0, exp[n]
    k2 = 2 * k
    seen = {h: h}
    for n, z in enumerate(zech):
        if n != h:
            j = seen.setdefault((k2 * n + h + zech[(k * (z - n) + h) % m]) % m, n)
            if j != n:
                return exp[j], exp[n]
    return None


def b_collision(field, k: int) -> tuple[int, int] | None:
    """A pair (x1, x2) with b_k(x1) = b_k(x2), or None, as a_collision.

    When d = gcd(2k, q-1) > 2, t = g^((q-1)/d) has t^(2k) = 1 and t != +-1.
    At x = t - 1 != 0, (x+1)^(2k) = 1 gives b_k(x) = -2 x^(q-1) = -2 =
    b_k(-2), and t - 1 != -2.  t - 1 comes from the log tables, and
    (-2, t-1) is returned once checked, 2kz = 0 for x + 1 = g^z, as in
    a_collision.  Otherwise the scan reads b_k + 2, which is 2 at x = 0 and
    -(-1)^k = g^((k+1)h) at x = -1.  For p = 3 and even k those are equal
    (2 = -1), so (0, -1) collide before the loop.  x = 0 is kept as None
    among the seen logs.
    """
    exp, log, zech = field.log_tables()
    m = field.q - 1
    h = m // 2
    minus_two = (log[2] + h) % m
    d = gcd(2 * k, m)
    if d > 2:
        n = (h + zech[(m // d + h) % m]) % m
        if 2 * k * zech[n] % m:
            raise AssertionError("built b_k pair does not collide at q = %d, k = %d"
                                 % (field.q, k))
        return exp[minus_two], exp[n]
    at_zero, at_minus_one = log[2], (k + 1) * h % m
    if at_zero == at_minus_one:
        return 0, exp[h]
    k2 = 2 * k
    seen = {at_zero: None, at_minus_one: h}
    for n, z in enumerate(zech):
        if n != h and n != minus_two:
            j = seen.setdefault((h + zech[(k2 * z + h) % m] - k * n) % m, n)
            if j != n:
                return 0 if j is None else exp[j], exp[n]
    return None


def sweep_record(field, k: int) -> dict:
    """The sweep row of one exponent: its direct PP flags."""
    return {
        "kind": "sweep",
        "q": field.q,
        "k": k,
        "a_pp": a_collision(field, k) is None,
        "b_pp": b_collision(field, k) is None,
    }


def sweep(field) -> list[dict]:
    """Rows for every exponent 1 <= k <= q-1, in order.

    sweep_record runs once per Frobenius orbit, at its least member, through
    per_orbit; the other members take its row with their own k, as the
    flags are constant on the orbit (see the module docstring).
    """
    leaders = per_orbit(field.p, field.e, lambda k: sweep_record(field, k))
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
    expected = p_powers(field.p, field.e)
    if which == "two":
        passed = set(witnesses) <= set(expected)
    else:
        passed = witnesses == expected
    return {"section": "sweep", "q": field.q, "which": which,
            "witnesses": witnesses, "expected": expected, "passed": passed}
