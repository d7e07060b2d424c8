"""Star reduction, digit strings, Frobenius orbits, inverse exponents, and
the tests' own digitwise Lucas binomials."""

from math import comb

import pytest

from gfpp.digits import (digit_vector, digits_binary, mod_inverse, per_orbit,
                         star_reduce)
from gfpp.errors import NotCoprimeError
from gfpp.field import Field
from gfpp.permpoly import p_powers
from lucas import lucas_binom


def test_star_reduce_examples():
    assert star_reduce(0, 9) == 0
    assert star_reduce(9, 9) == 1
    assert star_reduce(16, 9) == 8  # positive multiple of q-1 maps to q-1
    assert star_reduce(8, 9) == 8
    assert star_reduce(1, 9) == 1


def test_star_reduce_idempotent():
    for q in (9, 27, 125):
        for a in range(0, 5 * q):
            assert star_reduce(star_reduce(a, q), q) == star_reduce(a, q)


def test_star_reduce_range():
    q = 27
    for a in range(1, 6 * q):
        assert 1 <= star_reduce(a, q) <= q - 1
        assert (star_reduce(a, q) - a) % (q - 1) == 0


def test_star_respects_multiplication():
    q = 27
    for a in range(1, 2 * q + 1):
        for b in range(1, 2 * q + 1):
            assert star_reduce(a * b, q) == star_reduce(star_reduce(a, q) * star_reduce(b, q), q)


def test_digit_vector_examples():
    assert digit_vector(4, 3, 3) == (1, 1, 0)
    assert digit_vector(26, 3, 3) == (2, 2, 2)
    assert digit_vector(27, 3, 3) == (1, 0, 0)  # star reduction first
    assert digit_vector(0, 3, 3) == (0, 0, 0)
    # Below q-1 an exponent and an element index are one base-p string.
    for p, e in ((3, 3), (5, 3)):
        for a in range(p**e - 1):
            assert digit_vector(a, p, e) == tuple(a // p**i % p for i in range(e)), (p, e, a)


def test_digit_vector_shift_examples():
    # the shift class of l by t is the class of p^t * l
    assert digit_vector(4 * 3, 3, 3) == (0, 1, 1)
    assert digit_vector(26 * 3, 3, 3) == (2, 2, 2)  # all-(p-1) fixed point
    assert digit_vector(26 * 9, 3, 3) == (2, 2, 2)
    assert digit_vector(0 * 3, 3, 3) == (0, 0, 0)


@pytest.mark.parametrize("p,e", [(3, 3), (5, 3)])
def test_digit_vector_is_rotation(p, e):
    # digit_vector(l * p^t) rotates digit_vector(l), position i to i+t mod
    # e, for every class l, the all-(p-1) class q-1 and 0 included
    q = p**e
    for l in range(0, 3 * q):
        digs = digit_vector(l, p, e)
        for t in range(0, e + 1):
            rotated = tuple(digs[(i - t) % e] for i in range(e))
            assert digit_vector(l * p**t, p, e) == rotated, (l, t)


ORBIT_CASES = [(3, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3),
               (3, 6)]


def _orbits(p, e):
    # The orbits of k -> p*k mod q-1 on 1..q-1, closed by brute force, with
    # q-1 standing for the class of 0 (its orbit is {q-1}).
    q, m = p**e, p**e - 1
    orbit_of = {}
    for k in range(1, q):
        orbit, j = set(), k
        while j not in orbit:
            orbit.add(j)
            j = p * j % m or m
        orbit_of[k] = orbit
    return orbit_of


@pytest.mark.parametrize("p,e", ORBIT_CASES)
def test_per_orbit_equals_the_closure(p, e):
    # per_orbit with decide = identity gives member k the least member of
    # its orbit.
    orbit_of = _orbits(p, e)
    values = per_orbit(p, e, lambda k: k)
    assert values == [min(orbit_of[k]) for k in range(1, p**e)]
    for k, orbit in orbit_of.items():
        assert len(orbit) <= e and e % len(orbit) == 0, k
    if e == 1:
        assert values == list(range(1, p))


def test_per_orbit_examples():
    # q = 9: orbits {1, 3}, {2, 6}, {4}, {5, 7}, {8}
    assert per_orbit(3, 2, lambda k: k) == [1, 2, 1, 4, 5, 2, 5, 8]


@pytest.mark.parametrize("p,e", ORBIT_CASES)
def test_per_orbit_decides_once_per_orbit(p, e):
    calls = []
    per_orbit(p, e, calls.append)
    assert calls == sorted({min(orbit) for orbit in _orbits(p, e).values()})


def test_lucas_binom_examples():
    assert lucas_binom(7, 5, 3) == 0
    assert comb(7, 5) % 3 == 0
    for m in range(0, 40):
        assert lucas_binom(m, 0, 3) == 1
    for p in (3, 5, 7):
        for j in range(p):
            assert lucas_binom(p - 1, j, p) == comb(p - 1, j) % p == (-1) ** j % p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lucas_binom_against_exact(p):
    for m in range(0, 80):
        for n in range(0, m + 1):
            assert lucas_binom(m, n, p) == comb(m, n) % p, (m, n)
        assert lucas_binom(m, m + 1, p) == 0
        assert lucas_binom(m, m + 17, p) == 0


def test_mod_inverse():
    assert mod_inverse(5, 8) == 5
    assert mod_inverse(1, 8) == 1
    assert mod_inverse(3, 26) == 9
    for m in (8, 26, 124):
        for k in range(1, m):
            try:
                kp = mod_inverse(k, m)
            except NotCoprimeError:
                from math import gcd
                assert gcd(k, m) != 1
                continue
            assert 1 <= kp <= m - 1
            assert kp * k % m == 1
    with pytest.raises(NotCoprimeError):
        mod_inverse(2, 8)


def test_p_powers():
    assert p_powers(Field(3, 2)) == [1, 3]
    f27 = Field(3, 3)
    assert [k for k in range(1, 27) if k in p_powers(f27)] == [1, 3, 9]


def test_digits_binary():
    assert digits_binary(4, 3, 3)
    assert not digits_binary(2, 3, 3)
    assert digits_binary(13, 3, 3)
    assert digits_binary(1 + 5 + 25, 5, 3)
    assert not digits_binary(2 + 5, 5, 3)
    for p, e in ((3, 1), (3, 3), (5, 3), (7, 2)):
        q = p**e
        assert digits_binary(0, p, e)
        assert not digits_binary(q - 1, p, e)  # every digit is p-1 >= 2
        assert digits_binary(q, p, e)  # q reduces to 1


def test_xy_params_sum_to_the_support_size():
    # for 0/1 classes, x + y from the split always equals |supp(l)|, and y
    # is the overlap of the supports of l and of p^t * l, read off their
    # digit strings
    from gfpp.criterion import xy_params
    p, e = 3, 4
    import itertools
    for bits in itertools.product((0, 1), repeat=e):
        if not any(bits):
            continue
        l = sum(b * p**i for i, b in enumerate(bits))
        for t in range(1, e):
            x, y = xy_params(l, t, p, e)
            assert x + y == sum(bits)
            shifted = digit_vector(l * p**t, p, e)
            assert y == sum(1 for a, b in zip(bits, shifted) if a and b)
