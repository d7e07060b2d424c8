"""Field construction and arithmetic, exhaustively at small q, and the
integer helpers that name a field."""

import hashlib
import json
import random
from math import comb

import pytest
from sympy import Poly, symbols

from gfpp.field import (CapExceededError, EvenPrimeError, Field, NotPrimeError,
                        factor_prime_power, from_digits, is_prime, least_factor,
                        odd_prime_powers, poly_str, smallest_irreducible, to_digits)
from lucas import lucas_binom


def brute_smallest_irreducible_quadratic(p):
    """Independent oracle: enumerate monic quadratics low-degree-first and
    take the first without a root (degree 2: no root == irreducible)."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic exists?")


def test_modulus_f9_matches_brute_force_oracle():
    expected = brute_smallest_irreducible_quadratic(3)
    assert expected == (1, 0, 1)  # X^2 + 1
    assert Field(3, 2).modulus == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_modulus_quadratic_oracle(p):
    assert Field(p, 2).modulus == brute_smallest_irreducible_quadratic(p)


def test_repr_names_the_modulus():
    assert repr(Field(3, 2)) == "Field(p=3, e=2, modulus=X^2 + 1)"
    assert repr(Field(5, 1)) == "Field(p=5, e=1, modulus=X)"


def test_prime_field_modulus_is_x():
    fld = Field(3, 1)
    assert fld.modulus == (0, 1)
    assert fld.q == 3
    assert poly_str(fld.modulus) == "X"


def test_construct_rejections():
    with pytest.raises(NotPrimeError):
        Field(4, 1)
    with pytest.raises(NotPrimeError):
        Field(15, 1)
    with pytest.raises(EvenPrimeError):
        Field(2, 3)
    with pytest.raises(ValueError):
        Field(3, 0)
    with pytest.raises(CapExceededError):
        Field(3, 20)
    with pytest.raises(CapExceededError):
        Field(3, 3, cap=26)


def test_construction_is_deterministic():
    a = Field(3, 5)
    b = Field(3, 5)
    assert a.modulus == b.modulus
    assert [a.mul(x, 3) for x in range(a.q)] == [b.mul(x, 3) for x in range(b.q)]


def test_enumeration_order():
    # index 0 is the zero element and index 1 the one element
    f9 = Field(3, 2)
    assert to_digits(0, 3, 2) == (0, 0)
    assert to_digits(1, 3, 2) == (1, 0)
    for x in range(f9.q):
        assert f9.add(x, 0) == x and f9.mul(x, 1) == x


def test_digits_codec_round_trip():
    # every x of GF(27), then one prime field and one p = 5 case
    seen = set()
    for x in range(27):
        digits = to_digits(x, 3, 3)
        assert len(digits) == 3 and all(0 <= d < 3 for d in digits)
        assert from_digits(digits, 3) == x
        seen.add(digits)
    assert len(seen) == 27
    assert to_digits(4, 7, 1) == (4,) and from_digits((4,), 7) == 4
    assert to_digits(57, 5, 3) == (2, 1, 2) and from_digits((2, 1, 2), 5) == 57
    # from_digits reduces each digit mod p
    assert from_digits((-3, 6, 7), 5) == 57


def test_add_examples():
    assert Field(3, 1).add(2, 2) == 1


def test_f9_mul_x_by_x_is_minus_one():
    f9 = Field(3, 2)
    assert f9.modulus == (1, 0, 1)
    x = from_digits((0, 1), 3)
    assert f9.mul(x, x) == f9.sub(0, 1) == 2


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_field_axioms_exhaustive(p, e):
    fld = Field(p, e)
    q = fld.q
    for a in range(q):
        assert fld.add(a, 0) == a
        assert fld.mul(a, 1) == a
        assert fld.mul(a, 0) == 0
        assert fld.add(a, fld.sub(0, a)) == 0
        for b in range(q):
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.sub(a, b) == fld.add(a, fld.sub(0, b))
    # associativity and distributivity on a deterministic sample
    sample = range(0, q, max(1, q // 7))
    for a in sample:
        for b in sample:
            for c in sample:
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
                assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


@pytest.mark.parametrize("p,e", [(7, 1), (3, 2), (5, 2), (3, 3), (3, 4),
                                 (5, 4), (3, 6), (7, 4), (5, 5)])
def test_pointwise_arithmetic_matches_sympy_polynomials(p, e):
    # The axioms hold under any relabelling of the elements that fixes 0 and
    # 1, such as swapping two digits above the lowest in both decoder and
    # encoder; this oracle pins the canonical index sum(c_i * p^i) of every
    # result: of every pair up to q = 81, and of a fixed sample of 500 pairs
    # above it.  The modulus search and mul share one reduction, and a wrong
    # one can pick a reducible modulus under which it is exact (run
    # bottom-up, it is exact for X^e + 1), so the modulus must be
    # irreducible.
    fld = Field(p, e)
    q = fld.q
    X = symbols("X")
    modulus = Poly(fld.modulus[::-1], X, modulus=p)
    assert modulus.is_irreducible, fld.modulus

    def poly(a):
        return Poly([a // p**i % p for i in reversed(range(e))], X, modulus=p)

    def index(f):
        # sympy keeps symmetric residues, -p/2 < c < p/2
        coeffs = f.rem(modulus).all_coeffs()[::-1]
        return sum(int(c) % p * p**i for i, c in enumerate(coeffs))

    if q <= 81:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(500)]
    polys = {a: poly(a) for pair in pairs for a in pair}
    for a, b in pairs:
        fa, fb = polys[a], polys[b]
        assert fld.add(a, b) == index(fa + fb), (a, b)
        assert fld.sub(a, b) == index(fa - fb), (a, b)
        assert fld.mul(a, b) == index(fa * fb), (a, b)


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 1)])
def test_inverse_law(p, e):
    fld = Field(p, e)
    for a in range(1, fld.q):
        assert fld.mul(a, fld.pow(a, fld.q - 2)) == 1


def test_pow_conventions():
    f9 = Field(3, 2)
    for x in range(f9.q):
        assert f9.pow(x, 0) == 1
    assert Field(3, 1).pow(2, 2) == 1
    with pytest.raises(ValueError):
        f9.pow(2, -1)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_frobenius_fixed_points(p, e):
    fld = Field(p, e)
    q = fld.q
    for x in range(q):
        assert fld.pow(x, q) == x
    for x in range(1, q):
        assert fld.pow(x, q - 1) == 1


def test_pow_additivity():
    fld = Field(3, 3)
    for x in range(0, fld.q, 3):
        for n in range(0, 12):
            for m in range(0, 12):
                assert fld.pow(x, n + m) == fld.mul(fld.pow(x, n), fld.pow(x, m))


def test_frobenius_is_automorphism_exhaustive_q27():
    fld = Field(3, 3)
    q = fld.q
    frob = [fld.pow(x, fld.p) for x in range(q)]
    assert sorted(frob) == list(range(q))
    for a in range(q):
        for b in range(q):
            assert frob[fld.add(a, b)] == fld.add(frob[a], frob[b])
            assert frob[fld.mul(a, b)] == fld.mul(frob[a], frob[b])


def test_frobenius_is_automorphism_sampled_q243():
    fld = Field(3, 5)
    q = fld.q
    frob = [fld.pow(x, 3) for x in range(q)]
    assert sorted(frob) == list(range(q))
    for a in range(0, q, 7):
        for b in range(0, q, 11):
            assert frob[fld.add(a, b)] == fld.add(frob[a], frob[b])
            assert frob[fld.mul(a, b)] == fld.mul(frob[a], frob[b])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (3, 5)])
def test_log_tables(p, e):
    fld = Field(p, e)
    q = fld.q
    m = q - 1
    exp, log, zech = fld.log_tables()
    assert sorted(exp) == list(range(1, q))

    def order(x):
        """The multiplicative order of x, or None past q - 1 steps."""
        acc = x
        for n in range(1, m + 1):
            if acc == 1:
                return n
            acc = fld.mul(acc, x)
        return None

    g = next(x for x in range(1, q) if order(x) == m)
    for n in range(m):
        assert exp[n] == fld.pow(g, n)
        assert log[exp[n]] == n
        if n != m // 2:
            assert zech[n] == log[fld.add(1, exp[n])]
    assert fld.add(1, exp[m // 2]) == 0
    assert log[0] is None and zech[m // 2] is None


# SHA-256 of json.dumps(Field(p, e).log_tables()): pins g and every product
# that builds exp, so a changed reduction or a changed g fails here.
GOLDEN_LOG_TABLE_DIGESTS = {
    (3, 6): "f4981a582b2c103f562b517a6df50fd29c95b95624bcc144848c382a8cfcfe70",
    (3, 7): "b3d9bd29b5f22105a93238e9d9656991d62437db00990ce3f25cfc958b981a8d",
    (5, 5): "0c18ad7823c9cc293bdd1cb068573676034171f541436d0134a6c83d1e60ce0d",
    (3, 8): "4aad1cf394fbb43e740648a738fc579a89be9272ef48d4231ef3b008d7f895d8",
}


@pytest.mark.parametrize("p,e", sorted(GOLDEN_LOG_TABLE_DIGESTS))
def test_log_tables_golden_digests(p, e):
    tables = json.dumps(Field(p, e).log_tables()).encode()
    assert hashlib.sha256(tables).hexdigest() == GOLDEN_LOG_TABLE_DIGESTS[p, e]


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_binom_tables(p, e):
    fld = Field(p, e)
    q = fld.q
    assert fld._binoms is None  # built on first use, not at construction
    F, G, S = fld.binom_tables()
    assert fld.binom_tables() is fld._binoms
    assert len(F) == len(G) == len(S) == q
    for m in range(q):
        md = to_digits(m, p, e)  # the base-p digits of m, low first
        for n in range(m + 1):
            nd = to_digits(n, p, e)
            guarded = F[m] * G[n] * G[m - n] % p if S[n] + S[m - n] == S[m] else 0
            assert guarded == comb(m, n) % p == lucas_binom(m, n, p), (m, n)
            if any(b > a for a, b in zip(md, nd)):
                assert guarded == 0, (m, n)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_least_factor_is_the_least_divisor():
    # the trial division that is_prime and factor_prime_power share
    for n in range(2, 3000):
        assert least_factor(n) == next(f for f in range(2, n + 1) if n % f == 0), n
    assert least_factor(7 ** 5) == 7
    assert least_factor(1009 * 1013) == 1009


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(4) == (2, 2)
    with pytest.raises(NotPrimeError):
        factor_prime_power(15)
    with pytest.raises(NotPrimeError):
        factor_prime_power(1)


def test_odd_prime_powers():
    assert odd_prime_powers(27) == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def test_odd_prime_powers_equal_the_factoring_filter():
    # The sieve against factor_prime_power on every q, at every limit.
    expected = []
    for q in range(3, 5001):
        try:
            p, _ = factor_prime_power(q)
        except NotPrimeError:
            continue
        if p != 2:
            expected.append(q)
    for limit in range(-2, 5001):
        assert odd_prime_powers(limit) == [q for q in expected if q <= limit], limit

def test_smallest_irreducible_has_no_small_factor():
    # degree 4 over Z_3: root-freeness alone is not enough, so also divide
    # by every monic quadratic (independent synthetic division)
    p = 3
    mod = smallest_irreducible(p, 4)
    assert len(mod) == 5 and mod[-1] == 1

    def poly_eval(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def divisible_by(den):
        rem = list(mod)
        dd = len(den) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
        return not any(rem)

    assert all(poly_eval(mod, x) for x in range(p))
    for c0 in range(p):
        for c1 in range(p):
            assert not divisible_by((c0, c1, 1))
