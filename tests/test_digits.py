"""Star reduction, digit strings, Lucas binomials, inverse exponents."""

from math import comb

import pytest

from gfpp.digits import (digit_vector, digits_binary, lucas_binom, mod_inverse,
                         shift_class, star_reduce, support)
from gfpp.errors import NotCoprimeError
from gfpp.field import Field
from gfpp.permpoly import p_powers


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
    assert digit_vector(4, 3, 3).digits == (1, 1, 0)
    assert digit_vector(26, 3, 3).digits == (2, 2, 2)
    assert digit_vector(27, 3, 3).digits == (1, 0, 0)  # star reduction first
    assert digit_vector(0, 3, 3).digits == (0, 0, 0)


def test_support():
    assert support(digit_vector(4, 3, 3)) == {0, 1}
    assert support(digit_vector(0, 3, 3)) == frozenset()
    assert support(digit_vector(0 + 2 * 3 + 1 * 9, 3, 3)) == {1, 2}


def test_shift_class_examples():
    assert shift_class(4, 1, 3, 3).digits == (0, 1, 1)
    assert shift_class(26, 1, 3, 3).digits == (2, 2, 2)  # all-(p-1) fixed point
    assert shift_class(26, 2, 3, 3).digits == (2, 2, 2)
    assert shift_class(0, 1, 3, 3).digits == (0, 0, 0)


@pytest.mark.parametrize("p,e", [(3, 3), (5, 3)])
def test_shift_class_is_rotation(p, e):
    q = p**e
    for l in range(1, q - 1):
        digs = digit_vector(l, p, e).digits
        for t in range(0, e):
            rotated = tuple(digs[(i - t) % e] for i in range(e))
            assert shift_class(l, t, p, e).digits == rotated, (l, t)


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


def test_is_p_power():
    assert p_powers(Field(3, 2)) == [1, 3]
    f27 = Field(3, 3)
    assert [k for k in range(1, 27) if k in p_powers(f27)] == [1, 3, 9]


def test_digits_binary():
    assert digits_binary(4, 3, 3)
    assert not digits_binary(2, 3, 3)
    assert digits_binary(13, 3, 3)
    assert digits_binary(1 + 5 + 25, 5, 3)
    assert not digits_binary(2 + 5, 5, 3)


def test_support_split_sums_to_digit_count():
    # for 0/1 classes, x + y from the split always equals |supp(l)|
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
            assert y == len(support(digit_vector(l, p, e))
                            & support(shift_class(l, t, p, e)))
