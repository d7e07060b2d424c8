"""Base-p digit algebra on exponent classes modulo q-1.

Exponents of nonzero field elements live in Z/(q-1); the reduction used
throughout maps every positive multiple of q-1 to q-1 itself (never to 0),
so the all-(p-1) digit string represents exactly the class of q-1 and the
all-zero string represents only 0.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import NotCoprimeError


class DigitVector(NamedTuple):
    """Length-e base-p digit string of a reduced exponent, low digit first."""

    digits: tuple[int, ...]
    p: int
    e: int


def star_reduce(a: int, q: int) -> int:
    """Reduce a >= 0 into {0, 1, ..., q-1}: 0 maps to 0, positive a to its
    representative mod q-1 in {1, ..., q-1}."""
    if a == 0:
        return 0
    return (a - 1) % (q - 1) + 1


def digit_vector(l: int, p: int, e: int) -> DigitVector:
    """Base-p digits of star_reduce(l, p**e), padded to length e."""
    v = star_reduce(l, p**e)
    digs = []
    for _ in range(e):
        v, d = divmod(v, p)
        digs.append(d)
    return DigitVector(tuple(digs), p, e)


def support(dv: DigitVector) -> frozenset[int]:
    """Positions carrying a nonzero digit."""
    return frozenset(i for i, d in enumerate(dv.digits) if d)


def shift_class(l: int, t: int, p: int, e: int) -> DigitVector:
    """Digit string of the class of p**t * l; for 1 <= l* <= q-2 this is the
    cyclic rotation of digit_vector(l) sending position i to i+t mod e."""
    return digit_vector(l * p**t, p, e)


def orbit_representatives(p: int, e: int) -> list[int]:
    """rep[k] for 0 <= k <= p**e - 1: the smallest member of the orbit of k
    under the Frobenius map k -> (p*k)*, so rep[q-1] = q-1 and rep[0] = 0.

    The map multiplies the exponent class by p, and p^e = 1 mod q-1, so
    e-1 steps from any member visit its whole orbit; in a prime field
    p = 1 mod q-1 and every orbit is a single exponent.
    """
    q = p**e
    rep = list(range(q))
    for k in range(1, q):
        if rep[k] == k:  # no smaller member has claimed it: k is the least
            j = k
            for _ in range(e - 1):
                j = star_reduce(p * j, q)
                rep[j] = k
    return rep


def lucas_binom(m: int, n: int, p: int) -> int:
    """C(m, n) mod p via the digitwise product over base-p digits.

    Zero as soon as some digit of n exceeds the matching digit of m, which
    also covers n > m.
    """
    res = 1
    while n:
        m, mi = divmod(m, p)
        n, ni = divmod(n, p)
        if ni > mi:
            return 0
        if ni:
            res = res * comb(mi, ni) % p
    return res


def mod_inverse(k: int, m: int) -> int:
    """Inverse of k modulo m, normalized to {1, ..., m-1}."""
    try:
        return pow(k, -1, m)
    except ValueError:
        raise NotCoprimeError("%d is not invertible modulo %d" % (k, m)) from None


def digits_binary(k_prime: int, p: int, e: int) -> bool:
    """Whether every base-p digit of star_reduce(k_prime, p**e) lies in {0, 1}."""
    v = star_reduce(k_prime, p**e)
    while v:
        v, d = divmod(v, p)
        if d > 1:
            return False
    return True
