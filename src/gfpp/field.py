"""Arithmetic in GF(p^e) for odd primes p, the package's errors (`GfppError`
and its subclasses `NotPrimeError`, `EvenPrimeError`, `CapExceededError` and
`ParamDomainError`), and the integer helpers that name a field:
`least_factor` (the one trial division), `is_prime`, `factor_prime_power`
(q to (p, e)), `odd_prime_powers` (the odd prime powers up to a limit), and
on exponent classes mod q-1 `star_reduce`, `per_orbit` (a check once per
Frobenius orbit) and `p_powers`.

An element is identified by its index in the canonical enumeration: the
element with coefficient vector (c0, ..., c_{e-1}) over Z_p (low degree
first) has index sum(c_i * p^i).  Index 0 is the zero element and index 1
is the one element, so plain ints double as element handles.  This base-p
codec, `to_digits`/`from_digits`, is the one way between an index and its
coefficients, and it also reads exponents.

Besides the pointwise arithmetic, a field can build discrete-log and
Zech-log tables for a fixed primitive element (Lidl-Niederreiter, Finite
Fields, ch. 2), which turn products and powers into sums of exponents mod
q-1 and sums into one table lookup, and base-p digit tables that turn a
binomial coefficient C(m, n) mod p with m, n < q into three lookups (Lucas
and Kummer).  Only the Zech table's x + 1, `binom_tables` and the girth
difference table of `gfpp.graphs` build each entry from an earlier one and
one digit, in O(1), not O(e).

The pointwise arithmetic, `add`/`sub`/`mul`/`pow`, builds those tables and
is the oracle of the code that reads them; -a is sub(0, a) and a^(-1) is
pow(a, q-2).  Its one polynomial reduction, `_poly_mod`, is long
division by a monic polynomial over Z_p: `mul` reduces a product by the
modulus with it, and the modulus search tests divisibility with it.  The
modulus is always the lexicographically smallest monic irreducible
polynomial of degree e (coefficients compared low-degree-first), which
makes every element-dependent value reproducible across runs and machines.
"""

import itertools
import math

DEFAULT_FIELD_CAP = 10**6


def least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division; n itself when
    n is prime."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and least_factor(n) == n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime and q = p^e; raises NotPrimeError
    when q is not a prime power."""
    if q < 2:
        raise NotPrimeError("q = %d is not a prime power" % q)
    p = least_factor(q)
    n, e = q, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimeError("q = %d is not a prime power" % q)
    return p, e


def odd_prime_powers(limit: int) -> list[int]:
    """All q = p^e <= limit with p an odd prime, ascending: the odd primes
    from a sieve, and p^2, p^3, ... for each p <= sqrt(limit)."""
    prime = bytearray([1]) * (limit + 1)
    out = []
    for p in range(3, math.isqrt(max(limit, 0)) + 1, 2):
        if prime[p]:  # odd multiples below p^2 have a smaller factor
            prime[p * p::2 * p] = bytes(len(range(p * p, limit + 1, 2 * p)))
            q = p * p
            while q <= limit:
                out.append(q)
                q *= p
    out += itertools.compress(range(3, limit + 1, 2), prime[3::2])
    return sorted(out)


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over Z_p.

    Candidates (c0, ..., c_{e-1}, 1) are compared low-degree-first.  A
    candidate is irreducible iff no monic polynomial of degree 1..e//2
    divides it; for e = 1 that is vacuous and the result is X.
    """
    divisors = [
        tail + (1,)
        for d in range(1, e // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    ]
    for tail in itertools.product(range(p), repeat=e):
        cand = tail + (1,)
        if all(_poly_mod(cand, den, p) for den in divisors):
            return cand
    raise AssertionError("no monic irreducible of degree %d over Z_%d" % (e, p))


def to_digits(n: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of 0 <= n < p**e, low digit first."""
    out = []
    for _ in range(e):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


def from_digits(digits, p: int) -> int:
    """The index sum((d_i mod p) * p**i) of digits d, low digit first."""
    n = 0
    for d in reversed(digits):
        n = n * p + d % p
    return n


def star_reduce(a: int, q: int) -> int:
    """Reduce a >= 0 into {0, 1, ..., q-1}: 0 maps to 0, positive a to its
    representative mod q-1 in {1, ..., q-1}, never 0, so x^a = x^(a*) for
    every x, 0 included, the all-(p-1) digit string is exactly the class of
    q-1 and the all-zero string is only 0.  Multiplying a class by p^t
    rotates its digits, position i to i+t mod e."""
    if a == 0:
        return 0
    return (a - 1) % (q - 1) + 1


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


def p_powers(p: int, e: int) -> list[int]:
    """The exponents p^0, ..., p^(e-1), ascending: the Frobenius orbit of 1."""
    return [p**i for i in range(e)]


def _poly_mod(coeffs, monic, p: int) -> int:
    """The remainder of the polynomial `coeffs` on division by the monic
    polynomial `monic` over Z_p, both low degree first, by long division
    from the top coefficient down.  It is returned as the index of its
    coefficients (see from_digits): the element it is when `monic` is a
    field's modulus, and 0 iff `monic` divides `coeffs`."""
    rem = list(coeffs)
    d = len(monic) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % p
        if c:  # subtract c * X^(i-d) * monic, which clears rem[i] mod p
            for j, m in enumerate(monic, i - d):
                if m:
                    rem[j] -= c * m
    return from_digits(rem[:d], p)


class GfppError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(GfppError):
    """A value required to be prime (or a prime power) is not."""


class EvenPrimeError(GfppError):
    """Characteristic 2 was requested; only odd characteristic is supported."""


class CapExceededError(GfppError):
    """A size guard (field cap, girth cap) was exceeded."""


class ParamDomainError(GfppError):
    """A parameter bundle violates the domain of an identity verifier."""


def cap_error(key: str, n: int, name: str, cap: int) -> CapExceededError:
    """The error for a `key` (q or p) of n above the `name` cap ("field" or "girth")."""
    return CapExceededError("%s = %d exceeds the %s cap %d" % (key, n, name, cap))


def poly_str(coeffs) -> str:
    """Human-readable polynomial, highest degree first, e.g. "X^2 + 1"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "X" if i == 1 else "X^%d" % i
            terms.append(var if c == 1 else "%d*%s" % (c, var))
    return " + ".join(terms) if terms else "0"


class Field:
    """A concrete GF(p^e): fixed modulus, canonical element order, arithmetic.

    Immutable after construction apart from internally cached tables; all
    operations are pure, so instances can be shared freely across workers.
    """

    def __init__(self, p: int, e: int, cap: int = DEFAULT_FIELD_CAP):
        if not is_prime(p):
            raise NotPrimeError("p = %d is not prime" % p)
        if p == 2:
            raise EvenPrimeError("p = 2 is rejected; only odd characteristic is supported")
        if e < 1:
            raise ValueError("extension degree must be >= 1, got %d" % e)
        q = p**e
        if q > cap:
            raise cap_error("q", q, "field", cap)
        self.p = p
        self.e = e
        self.q = q
        self.modulus = smallest_irreducible(p, e)
        self._logs = None
        self._binoms = None

    def __repr__(self) -> str:
        return "Field(p=%d, e=%d, modulus=%s)" % (self.p, self.e, poly_str(self.modulus))

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        return from_digits([x + y for x, y in zip(to_digits(a, p, e), to_digits(b, p, e))], p)

    def sub(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        return from_digits([x - y for x, y in zip(to_digits(a, p, e), to_digits(b, p, e))], p)

    def mul(self, a: int, b: int) -> int:
        """a * b: the product of the coefficient vectors, reduced by the
        modulus with `_poly_mod`; over a prime field, a * b mod p."""
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        ca = to_digits(a, p, e)
        cb = to_digits(b, p, e)
        acc = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        acc[i + j] += x * y
        return _poly_mod(acc, self.modulus, p)

    def pow(self, x: int, n: int) -> int:
        """x**n by square-and-multiply; x**0 == 1 for every x, including 0."""
        if n < 0:
            raise ValueError("negative exponent %d" % n)
        if self.e == 1:
            return pow(x, n, self.p)
        result = 1
        base = x
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    # -- log tables ---------------------------------------------------------

    def log_tables(self) -> tuple[list[int], list, list]:
        """(exp, log, zech) for g, the first primitive element in canonical order.

        With m = q-1 and h = m/2 (so g^h = -1), for 0 <= n < m:
        exp[n] = g^n, log[g^n] = n and zech[n] = log(1 + g^n).  log[0] and
        zech[h] (where 1 + g^h = 0) are None.  Built on first use and cached.
        """
        if self._logs is None:
            q, m, p = self.q, self.q - 1, self.p
            primes, rest = set(), m  # the prime factors of m
            while rest > 1:
                r = least_factor(rest)
                primes.add(r)
                rest //= r
            g = next(g for g in range(2, q)
                     if all(self.pow(g, m // r) != 1 for r in primes))
            exp = [1] * m
            for n in range(1, m):
                # g first: mul runs its inner loop once per nonzero digit
                # of its first factor, and a small index has few.
                exp[n] = self.mul(g, exp[n - 1])
            log = [None] * q
            for n, x in enumerate(exp):
                log[x] = n
            # x + 1 adds 1 mod p to the constant coefficient, the lowest digit.
            zech = [log[x + 1 if x % p != p - 1 else x + 1 - p] for x in exp]
            self._logs = (exp, log, zech)
        return self._logs

    # -- binomial tables ------------------------------------------------------

    def binom_tables(self) -> tuple[list[int], list[int], list[int]]:
        """(F, G, S) over 0 <= m <= q-1: F[m] is the product of the factorials
        of the base-p digits of m mod p, G[m] the product of their inverses
        mod p, and S[m] the digit sum.

        For 0 <= n <= m <= q-1, Lucas' theorem gives C(m, n) = prod C(m_i, n_i)
        (mod p) over the digits, which is 0 as soon as some n_i > m_i.  By
        Kummer's theorem the subtraction m - n borrows exactly
        (S[n] + S[m-n] - S[m]) / (p-1) times, so no digit of n exceeds the
        matching digit of m iff S[n] + S[m-n] == S[m].  The digits of m - n
        are then m_i - n_i, and C(m, n) = F[m] * G[n] * G[m-n] (mod p).
        Built on first use and cached.
        """
        if self._binoms is None:
            p, q = self.p, self.q
            F = [1] * p
            for d in range(1, p):
                F[d] = F[d - 1] * d % p
            G = [pow(f, -1, p) for f in F]
            S = list(range(p))
            for m in range(p, q):
                hi, d = divmod(m, p)
                F.append(F[hi] * F[d] % p)
                G.append(G[hi] * G[d] % p)
                S.append(S[hi] + d)
            self._binoms = (F, G, S)
        return self._binoms
