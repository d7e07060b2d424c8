"""Base-p digit algebra on exponent classes modulo q-1.

Exponents of nonzero field elements live in Z/(q-1); the reduction used
throughout maps every positive multiple of q-1 to q-1 itself (never to 0),
so the all-(p-1) digit string represents exactly the class of q-1 and the
all-zero string represents only 0.
"""

from __future__ import annotations

from .errors import NotCoprimeError


def star_reduce(a: int, q: int) -> int:
    """Reduce a >= 0 into {0, 1, ..., q-1}: 0 maps to 0, positive a to its
    representative mod q-1 in {1, ..., q-1}."""
    if a == 0:
        return 0
    return (a - 1) % (q - 1) + 1


def digit_vector(l: int, p: int, e: int) -> tuple[int, ...]:
    """Base-p digits of star_reduce(l, p**e), low digit first, padded to
    length e.  Multiplying l by p**t rotates them, sending position i to
    i+t mod e."""
    v = star_reduce(l, p**e)
    digs = []
    for _ in range(e):
        v, d = divmod(v, p)
        digs.append(d)
    return tuple(digs)


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
