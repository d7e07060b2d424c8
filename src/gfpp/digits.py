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


def per_orbit(p: int, e: int, decide) -> list:
    """[decide(k) for k in 1..p**e - 1] for a decide constant on the orbits
    of the Frobenius map k -> (p*k)*: decide runs once per orbit, at its
    least member, and every member gets that value.  As p^e = 1 mod q-1,
    the orbit of k is {(k*p^i)* : i < e}; in a prime field it is {k}."""
    q, m = p**e, p**e - 1
    values = {}
    for k in range(1, q):
        if k not in values:  # no smaller member has claimed it: k is the least
            value = decide(k)
            for i in range(e):
                values[k * p**i % m or m] = value  # (k*p^i)*, as k >= 1
    return [values[k] for k in range(1, q)]


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
