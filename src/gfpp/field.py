"""Arithmetic in GF(p^e) for odd primes p.

An element is identified by its index in the canonical enumeration: the
element with coefficient vector (c0, ..., c_{e-1}) over Z_p (low degree
first) has index sum(c_i * p^i).  Index 0 is the zero element and index 1
is the one element, so plain ints double as element handles.

Besides the direct polynomial arithmetic, a field can build discrete-log
and Zech-log tables for a fixed primitive element (Lidl-Niederreiter,
Finite Fields, ch. 2), which turn products and powers into sums of
exponents mod q-1 and sums into one table lookup, and base-p digit tables
that turn a binomial coefficient C(m, n) mod p with m, n < q into three
lookups (Lucas and Kummer).

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree e (coefficients compared low-degree-first), which
makes every element-dependent value reproducible across runs and machines.
"""

from __future__ import annotations

import itertools

from .errors import CapExceededError, EvenPrimeError, NotPrimeError

DEFAULT_FIELD_CAP = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_divides(den: tuple[int, ...], num: tuple[int, ...], p: int) -> bool:
    """Whether the monic polynomial den divides num over Z_p (coeffs low first)."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            off = i - dd
            for j in range(dd):
                rem[off + j] = (rem[off + j] - c * den[j]) % p
            rem[i] = 0
    return not any(rem[:dd])


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
        if all(not _poly_divides(den, cand, p) for den in divisors):
            return cand
    raise AssertionError("no monic irreducible of degree %d over Z_%d" % (e, p))


def cap_error(q: int, cap: int, name: str) -> CapExceededError:
    """The error for a q above the `name` cap ("field" or "girth")."""
    return CapExceededError("q = %d exceeds the %s cap %d" % (q, name, cap))


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
            raise cap_error(q, cap, "field")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = smallest_irreducible(p, e)
        self._pbase = tuple(p**i for i in range(e))
        self._xpow = self._reduction_rows()
        self._logs = None
        self._binoms = None

    def __repr__(self) -> str:
        return "Field(p=%d, e=%d, modulus=%s)" % (self.p, self.e, poly_str(self.modulus))

    # -- representation ------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element a, low degree first, length e."""
        p = self.p
        out = []
        for _ in range(self.e):
            a, c = divmod(a, p)
            out.append(c)
        return tuple(out)

    def element(self, coeffs) -> int:
        """Element index for a coefficient vector (entries reduced mod p)."""
        if len(coeffs) != self.e:
            raise ValueError("expected %d coefficients, got %d" % (self.e, len(coeffs)))
        p = self.p
        return sum((c % p) * b for c, b in zip(coeffs, self._pbase))

    def elements(self) -> range:
        """All q elements in canonical order: zero first, one second."""
        return range(self.q)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        enc = 0
        for i in range(self.e - 1, -1, -1):
            enc = enc * p + (ca[i] + cb[i]) % p
        return enc

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return -a % p
        ca = self.coeffs(a)
        enc = 0
        for i in range(self.e - 1, -1, -1):
            enc = enc * p + -ca[i] % p
        return enc

    def sub(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a - b) % p
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        enc = 0
        for i in range(self.e - 1, -1, -1):
            enc = enc * p + (ca[i] - cb[i]) % p
        return enc

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return a * b % p
        e = self.e
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        acc = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        acc[i + j] += x * y
        res = acc[:e]
        xpow = self._xpow
        for j in range(e, 2 * e - 1):
            c = acc[j] % p
            if c:
                row = xpow[j - e]
                for i in range(e):
                    res[i] += c * row[i]
        enc = 0
        for i in range(e - 1, -1, -1):
            enc = enc * p + res[i] % p
        return enc

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero element")
        return self.pow(a, self.q - 2)

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

    def _reduction_rows(self):
        # X^j mod modulus for e <= j <= 2e-2, as coefficient tuples.
        p, e = self.p, self.e
        if e == 1:
            return ()
        base = tuple(-self.modulus[i] % p for i in range(e))
        rows = [base]
        cur = base
        for _ in range(e - 2):
            shifted = (0,) + cur[:-1]
            c = cur[-1]
            if c:
                cur = tuple((shifted[i] + c * base[i]) % p for i in range(e))
            else:
                cur = shifted
            rows.append(cur)
        return tuple(rows)

    # -- log tables ---------------------------------------------------------

    def log_tables(self) -> tuple[list[int], list, list]:
        """(exp, log, zech) for g, the first primitive element in canonical order.

        With m = q-1 and h = m/2 (so g^h = -1), for 0 <= n < m:
        exp[n] = g^n, log[g^n] = n and zech[n] = log(1 + g^n).  log[0] and
        zech[h] (where 1 + g^h = 0) are None.  Built on first use and cached.
        """
        if self._logs is None:
            q, m, p = self.q, self.q - 1, self.p
            primes = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
            g = next(g for g in range(2, q)
                     if all(self.pow(g, m // r) != 1 for r in primes))
            exp = [1] * m
            for n in range(1, m):
                exp[n] = self.mul(exp[n - 1], g)
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
