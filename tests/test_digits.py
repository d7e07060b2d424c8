"""The exponent helpers of gfpp.field: star reduction, the digits of an
exponent class, Frobenius orbits and the p-powers; and the tests' own
digitwise Lucas binomials."""

from math import comb

import pytest

from gfpp.field import Field, p_powers, per_orbit, star_reduce, to_digits
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


def test_star_reduce_keeps_every_power():
    # x^a = x^(a*) for every x of GF(q), 0 included: a positive a never
    # reduces to 0, whose power 0^0 = 1 would differ from 0^a = 0
    for p, e in ((3, 1), (3, 2), (5, 1)):
        fld = Field(p, e)
        for a in range(0, 3 * fld.q):
            for x in range(fld.q):
                assert fld.pow(x, star_reduce(a, fld.q)) == fld.pow(x, a), (fld.q, a, x)


def test_star_respects_multiplication():
    q = 27
    for a in range(1, 2 * q + 1):
        for b in range(1, 2 * q + 1):
            assert star_reduce(a * b, q) == star_reduce(star_reduce(a, q) * star_reduce(b, q), q)


def test_digit_vector_examples():
    assert to_digits(star_reduce(4, 27), 3, 3) == (1, 1, 0)
    assert to_digits(star_reduce(26, 27), 3, 3) == (2, 2, 2)
    assert to_digits(star_reduce(27, 27), 3, 3) == (1, 0, 0)  # star reduction first
    assert to_digits(star_reduce(0, 27), 3, 3) == (0, 0, 0)
    # Below q-1 an exponent and an element index are one base-p string.
    for p, e in ((3, 3), (5, 3)):
        for a in range(p**e - 1):
            assert (to_digits(star_reduce(a, p**e), p, e)
                    == tuple(a // p**i % p for i in range(e))), (p, e, a)


def test_digit_vector_shift_examples():
    # the shift class of l by t is the class of p^t * l
    assert to_digits(star_reduce(4 * 3, 27), 3, 3) == (0, 1, 1)
    assert to_digits(star_reduce(26 * 3, 27), 3, 3) == (2, 2, 2)  # all-(p-1) fixed point
    assert to_digits(star_reduce(26 * 9, 27), 3, 3) == (2, 2, 2)
    assert to_digits(star_reduce(0 * 3, 27), 3, 3) == (0, 0, 0)


@pytest.mark.parametrize("p,e", [(3, 3), (5, 3)])
def test_digit_vector_is_rotation(p, e):
    # the digits of the class l * p^t rotate those of l, position i to i+t
    # mod e, for every class l, the all-(p-1) class q-1 and 0 included
    q = p**e
    for l in range(0, 3 * q):
        digs = to_digits(star_reduce(l, q), p, e)
        for t in range(0, e + 1):
            rotated = tuple(digs[(i - t) % e] for i in range(e))
            assert to_digits(star_reduce(l * p**t, q), p, e) == rotated, (l, t)


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


def test_p_powers():
    assert p_powers(3, 2) == [1, 3]
    assert [k for k in range(1, 27) if k in p_powers(3, 3)] == [1, 3, 9]
    # the Frobenius orbit of 1
    for p, e in ORBIT_CASES:
        assert p_powers(p, e) == [k for k, leader in enumerate(per_orbit(p, e, lambda k: k), 1)
                                  if leader == 1], (p, e)


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
            shifted = to_digits(star_reduce(l * p**t, p**e), p, e)
            assert y == sum(1 for a, b in zip(bits, shifted) if a and b)
