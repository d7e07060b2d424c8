"""C(m, n) mod p by Lucas' theorem, one base-p digit at a time: the
independent oracle that the tests hold the field's Lucas tables and the
criterion's row sums against."""

from math import comb


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
