"""The two indexed polynomial families, direct permutation tests, and sweeps.

For an exponent 1 <= k <= q-1 the two maps of interest are

    a_k(x) = x^k * ((x+1)^k - x^k)
    b_k(x) = ((x+1)^(2k) - 1) * x^(q-1-k) - 2 * x^(q-1)

with the convention x^0 = 1 (so b_{q-1}(0) = 0).  A sweep evaluates both
maps over the whole field for every k and records which exponents give
permutations, together with gcd, inverse-exponent digit data, and the
optional criterion flag.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import gcd

from . import criterion, digits
from .errors import LengthMismatchError
from .field import TABLE_CAP


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


class _SweepTables:
    """Per-field precomputations shared by all exponents of a sweep.

    w[x]  = x * (x+1)          so that a_k(x) = w^k - x^(2k) for x != 0
    w2[x] = (x+1)^2 * x^(q-2)  so that b_k(x) = w2^k - x^(q-1-k) - 2 for x != 0
    """

    def __init__(self, field):
        q = field.q
        self.pow = field.power_table()
        self.sub = field.sub_table()
        self.w = [field.mul(x, field.add(x, 1)) for x in range(q)]
        xp1sq = [field.mul(field.add(x, 1), field.add(x, 1)) for x in range(q)]
        self.w2 = [field.mul(xp1sq[x], self.pow[x][q - 2]) for x in range(q)]


_SWEEP_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _tables(field) -> _SweepTables:
    tabs = _SWEEP_CACHE.get(field)
    if tabs is None:
        tabs = _SweepTables(field)
        _SWEEP_CACHE[field] = tabs
    return tabs


def a_value_table(field, k: int) -> list[int]:
    """Values of a_k over the whole field, indexed by element order."""
    q = field.q
    if q > TABLE_CAP:
        return [eval_a(field, k, x) for x in range(q)]
    tb = _tables(field)
    pt, st, w = tb.pow, tb.sub, tb.w
    s2k = digits.star_reduce(2 * k, q)
    out = [0] * q
    for x in range(1, q):
        out[x] = st[pt[w[x]][k]][pt[x][s2k]]
    return out


def b_value_table(field, k: int) -> list[int]:
    """Values of b_k over the whole field, indexed by element order."""
    q = field.q
    if q > TABLE_CAP:
        return [eval_b(field, k, x) for x in range(q)]
    tb = _tables(field)
    pt, st, w2 = tb.pow, tb.sub, tb.w2
    e1 = q - 1 - k
    out = [0] * q
    for x in range(1, q):
        out[x] = st[st[pt[w2[x]][k]][pt[x][e1]]][2]
    return out


def is_permutation(field, values) -> bool:
    """Whether a length-q value table hits every element exactly once."""
    q = field.q
    if len(values) != q:
        raise LengthMismatchError("expected %d values, got %d" % (q, len(values)))
    seen = bytearray(q)
    for v in values:
        if seen[v]:
            return False
        seen[v] = 1
    return True


def p_powers(field) -> list[int]:
    """The exponents p^0, ..., p^(e-1), ascending."""
    return [field.p**i for i in range(field.e)]


@dataclass(frozen=True)
class SweepRecord:
    """Per-(q, k) verdict bundle."""

    q: int
    k: int
    gcd_ok: bool
    a_pp: bool
    b_pp: bool
    k_is_p_power: bool
    k_prime: int | None = None
    k_prime_binary: bool | None = None
    criterion: bool | None = None


def sweep_record(field, k: int, *, with_criterion: bool = False) -> SweepRecord:
    """Direct PP flags for one exponent, plus the optional criterion flag.

    The criterion flag costs O(q^2) binomial work per exponent, so it is
    opt-in.
    """
    q = field.q
    gcd_ok = gcd(k, q - 1) == 1
    kp = digits.mod_inverse(k, q - 1) if gcd_ok else None
    return SweepRecord(
        q=q,
        k=k,
        gcd_ok=gcd_ok,
        a_pp=is_permutation(field, a_value_table(field, k)),
        b_pp=is_permutation(field, b_value_table(field, k)),
        k_is_p_power=digits.is_p_power(k, field),
        k_prime=kp,
        k_prime_binary=None if kp is None else digits.digits_binary(kp, field.p, field.e),
        criterion=criterion.pp_criterion(field, k) if with_criterion else None,
    )


def sweep(field, **kwargs) -> list[SweepRecord]:
    """Records for every exponent 1 <= k <= q-1, in order."""
    return [sweep_record(field, k, **kwargs) for k in range(1, field.q)]


@dataclass(frozen=True)
class ConjectureVerdict:
    """Witness set of PP exponents for one field against the p-powers."""

    q: int
    which: str
    witnesses: list[int]
    expected: list[int]
    passed: bool


def conjecture_verdict(field, which: str, records=None) -> ConjectureVerdict:
    """Exhaustive per-q check of a PP-exponent conjecture.

    which = "A" or "B" asserts the witness set equals the p-powers exactly;
    which = "two" asserts every exponent with both maps PP is a p-power.
    """
    if which not in ("A", "B", "two"):
        raise ValueError("which must be 'A', 'B' or 'two', got %r" % (which,))
    if records is None:
        records = sweep(field)
    if which == "A":
        witnesses = [r.k for r in records if r.a_pp]
    elif which == "B":
        witnesses = [r.k for r in records if r.b_pp]
    else:
        witnesses = [r.k for r in records if r.a_pp and r.b_pp]
    expected = p_powers(field)
    if which == "two":
        passed = set(witnesses) <= set(expected)
    else:
        passed = witnesses == expected
    return ConjectureVerdict(field.q, which, witnesses, expected, passed)
