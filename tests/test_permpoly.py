"""Direct PP testing of the two families and the per-exponent sweep."""

from math import gcd

import pytest

from gfpp import permpoly
from gfpp.field import (Field, factor_prime_power, odd_prime_powers, p_powers,
                        star_reduce, to_digits)
from gfpp.permpoly import (a_collision, b_collision, conjecture_verdict,
                           eval_a, eval_b, sweep, sweep_record)


@pytest.fixture(scope="module")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="module")
def f27():
    return Field(3, 3)


def test_a_family_k1_is_identity(f9, f27):
    for fld in (f9, f27, Field(5, 1)):
        assert [eval_a(fld, 1, x) for x in range(fld.q)] == list(range(fld.q))
        assert a_collision(fld, 1) is None


def test_a_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_a(f9, k, 0) == 0


def test_a_family_k2_not_injective_on_f3():
    f3 = Field(3, 1)
    assert eval_a(f3, 2, 1) == 0
    assert eval_a(f3, 2, 0) == 0


def test_b_family_k1_is_identity(f9, f27):
    for fld in (f9, f27):
        assert [eval_b(fld, 1, x) for x in range(fld.q)] == list(range(fld.q))
        assert b_collision(fld, 1) is None


def test_b_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_b(f9, k, 0) == 0
    # k = q-1 exercises the x^0 = 1 convention
    assert eval_b(f9, 8, 0) == 0


def scan_order(fld):
    """0, -1, then g^n in log order, from the exp list alone."""
    exp = fld.log_tables()[0]
    minus_one = exp[(fld.q - 1) // 2]
    return [0, minus_one] + [x for x in exp if x != minus_one]


def pointwise_first_collision(fld, k, pointwise):
    """The first repeated value of eval_a or eval_b in the scan order, as
    (earlier input, later input), or None."""
    seen = {}
    for x in scan_order(fld):
        v = pointwise(fld, k, x)
        if v in seen:
            return seen[v], x
        seen[v] = x
    return None


def a_scanned(fld, k):
    """a_k is scanned when k is a unit mod q-1; otherwise its pair is built."""
    return gcd(k, fld.q - 1) == 1


def b_scanned(fld, k):
    """b_k is scanned when gcd(2k, q-1) = 2; otherwise its pair is built."""
    return gcd(2 * k, fld.q - 1) == 2


DECIDERS = ((a_collision, eval_a, a_scanned), (b_collision, eval_b, b_scanned))


def assert_kernels_match_pointwise_scan(fld, k):
    # At a scanned k the decider returns the pointwise scan's first
    # collision; at any other k, some pair that collides pointwise.
    for kernel, pointwise, scanned in DECIDERS:
        pair = kernel(fld, k)
        if scanned(fld, k):
            assert pair == pointwise_first_collision(fld, k, pointwise), (
                fld.q, k, kernel.__name__)
        else:
            x, y = pair
            assert x != y and pointwise(fld, k, x) == pointwise(fld, k, y), (
                fld.q, k, kernel.__name__, pair)


def test_scan_value_formulas_match_pointwise_eval(f9):
    # The value identities the kernels read, checked at every x = g^n != -1
    # against the pointwise maps: a_k(x) from 2kn + h + zech[k(z-n) + h],
    # b_k(x) + 2 from h + zech[2kz + h] - kn.  In GF(3) only x = 1 takes
    # that path.
    for fld in (Field(3, 1), Field(7, 1), f9, Field(5, 2)):
        exp, _, zech = fld.log_tables()
        m = fld.q - 1
        h = m // 2
        for k in range(1, fld.q):
            for n, z in enumerate(zech):
                if n == h:
                    continue
                x = exp[n]
                c = k * (z - n) % m
                a = 0 if c == 0 else exp[(2 * k * n + h + zech[(c + h) % m]) % m]
                assert a == eval_a(fld, k, x), (fld.q, k, x)
                c = 2 * k * z % m
                b2 = 0 if c == 0 else exp[(h + zech[(c + h) % m] - k * n) % m]
                assert b2 == fld.add(eval_b(fld, k, x), 2), (fld.q, k, x)


@pytest.mark.parametrize("p,e", [(3, 3), (3, 4), (4099, 1)], ids=["q27", "q81", "q4099"])
def test_collisions_match_pointwise_scan_at_sampled_k(p, e):
    fld = Field(p, e)
    m = fld.q - 1
    for k in sorted({1, 3, 5, 7, 13, m // 2, m - 1, m}):
        assert_kernels_match_pointwise_scan(fld, k)


def test_b_scan_pairs_zero_with_minus_one_at_p3_even_k():
    # In characteristic 3, 2 = -1, so b_k(-1) = -(-1)^k - 2 = 0 = b_k(0) for
    # even k: x = 0 and x = -1 are the first two inputs and collide at once.
    # Only the scanned k are read, and at q = 9 no even k is scanned.
    for q in (3, 9, 27, 243):
        fld = Field(*factor_prime_power(q))
        minus_one = fld.sub(0, 1)
        for k in range(1, q):
            if not b_scanned(fld, k):
                continue
            if k % 2 == 0:
                assert b_collision(fld, k) == (0, minus_one), (q, k)
            else:
                assert b_collision(fld, k) != (0, minus_one), (q, k)


def test_a3_is_pp_of_f9(f9):
    assert a_collision(f9, 3) is None


def test_a_b_collision_hand_worked_pairs():
    # Pairs worked by hand.  GF(3): a_2(1) = 1 * (2^2 - 1) = 0 = a_2(0);
    # b_1 is the identity.  GF(5): a_2(x) = 2x^3 + x^2, and in the scan order
    # 0, 4, 1, 2, 3 (g = 2) a_2 takes 0, 4, 3, 0, so the pair is (0, 2).
    assert a_collision(Field(3, 1), 2) == (0, 1)
    assert b_collision(Field(3, 1), 1) is None
    assert scan_order(Field(5, 1)) == [0, 4, 1, 2, 3]
    assert a_collision(Field(5, 1), 2) == (0, 2)


class CountingList(list):
    """A list that counts the loops over it and the items the last one read."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        self.read = 0
        for item in list.__iter__(self):
            self.read += 1
            yield item


def test_a_b_collision_stop_reading_at_the_collision(monkeypatch):
    # A scan reads zech in log order up to its second colliding input and
    # no further: x2 = g^n is the (n+1)-th item read.  A PP (k = 5 at
    # q = 25) reads all q-1 items.  k = 7, 11, 13 and 19 are scanned for
    # both maps; the built pairs of k = 2 and 14 loop over zech not at all.
    fld = Field(5, 2)
    exp, log, zech = fld.log_tables()
    counting = CountingList(zech)
    monkeypatch.setattr(fld, "log_tables", lambda: (exp, log, counting))
    for kernel in (a_collision, b_collision):
        for k in (7, 11, 13, 19):
            pair = kernel(fld, k)
            assert pair is not None and pair[1] not in (0, fld.sub(0, 1))
            assert counting.read == log[pair[1]] + 1, (kernel.__name__, k, pair)
        assert kernel(fld, 5) is None and counting.read == 24
        loops = counting.loops
        assert kernel(fld, 2) and kernel(fld, 14) and counting.loops == loops


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4)],
                         ids=["q3", "q5", "q7", "q9", "q25", "q27", "q81"])
def test_a_b_collision_match_pointwise_scan_at_every_k(p, e):
    fld = Field(p, e)
    for k in range(1, fld.q):
        assert_kernels_match_pointwise_scan(fld, k)


SWEEP_KEYS = ("kind", "q", "k", "a_pp", "b_pp")


def test_sweep_record_q9_k3(f9):
    # The row holds the flags and nothing that is a function of (q, k).
    assert sweep_record(f9, 3) == {"kind": "sweep", "q": 9, "k": 3, "a_pp": True,
                                   "b_pp": True}
    assert tuple(sweep_record(f9, 3)) == SWEEP_KEYS


def test_sweep_record_q9_k2(f9):
    r = sweep_record(f9, 2)
    assert tuple(r) == SWEEP_KEYS
    assert not r["a_pp"]


def test_sweep_record_q27_k5(f27):
    assert not sweep_record(f27, 5)["a_pp"]


def test_frobenius_exponents_always_pp():
    for p, e in ((3, 2), (3, 3), (5, 2), (7, 2)):
        fld = Field(p, e)
        for k in p_powers(p, e):
            r = sweep_record(fld, k)
            assert r["a_pp"] and r["b_pp"], (p, e, k)


def test_p_power_implies_both_pp(f27):
    for r in sweep(f27):
        if 27 % r["k"] == 0:
            assert r["a_pp"] and r["b_pp"]


def test_pp_implies_coprime():
    for q_args in ((3, 1), (5, 1), (3, 2), (3, 3)):
        fld = Field(*q_args)
        for r in sweep(fld):
            if r["a_pp"]:
                assert gcd(r["k"], fld.q - 1) == 1
            if r["b_pp"]:
                assert gcd(r["k"], fld.q - 1) == 1


def test_pp_implies_binary_inverse_digits(f27):
    for r in sweep(f27):
        if r["a_pp"]:
            assert max(to_digits(star_reduce(pow(r["k"], -1, 26), 27), 3, 3)) <= 1


def verdict_of(fld, which):
    return conjecture_verdict(fld, which, sweep(fld))


def test_conjecture_verdicts():
    v = verdict_of(Field(3, 1), "A")
    assert v["witnesses"] == [1] and v["passed"]
    v = verdict_of(Field(3, 2), "A")
    assert v["witnesses"] == [1, 3] and v["passed"]
    v = verdict_of(Field(3, 3), "two")
    assert v["witnesses"] == [1, 3, 9] and v["passed"]
    v = verdict_of(Field(5, 2), "B")
    assert v["witnesses"] == [1, 5] and v["passed"]


def test_conjecture_verdict_judges_the_records_it_is_given(f9):
    # The verdict reads the rows it is passed and runs no sweep of its own.
    records = sweep(f9)
    v = conjecture_verdict(f9, "A", [dict(r, a_pp=True) for r in records])
    assert v["witnesses"] == list(range(1, 9)) and not v["passed"]
    assert conjecture_verdict(f9, "B", [])["witnesses"] == []


def test_conjecture_verdict_rejects_unknown_which(f9):
    with pytest.raises(ValueError):
        conjecture_verdict(f9, "both", sweep(f9))


# Extension fields at which k and p*k are compared.
ORBIT_QS = (9, 25, 27, 49, 81, 125)


@pytest.mark.parametrize("q", ORBIT_QS)
def test_frobenius_images_have_the_same_first_collision(q):
    # a_{pk} = (a_k)^p and b_{pk} = (b_k)^p as maps, and both scans visit
    # x in one order, so k and p*k collide first at the same pair.
    fld = Field(*factor_prime_power(q))
    for kernel in (a_collision, b_collision):
        first = {k: kernel(fld, k) for k in range(1, q)}
        for k in range(1, q):
            assert first[k] == first[star_reduce(fld.p * k, q)], (k, kernel.__name__)


def _orbit_leaders(fld):
    """The least member of each orbit of k -> p*k mod q-1, ascending."""
    q = fld.q
    return [k for k in range(1, q)
            if k == min(star_reduce(k * fld.p**i, q) for i in range(fld.e))]


@pytest.mark.parametrize("q", ORBIT_QS)
def test_sweep_calls_sweep_record_once_per_orbit(q, monkeypatch):
    # Patched at the module attribute, which the benchmark's tracer wraps.
    fld = Field(*factor_prime_power(q))
    calls = []
    monkeypatch.setattr(permpoly, "sweep_record",
                        lambda field, k: calls.append(k) or sweep_record(field, k))
    assert len(sweep(fld)) == q - 1
    assert calls == _orbit_leaders(fld)


@pytest.mark.parametrize("q", ORBIT_QS)
def test_sweep_rows_equal_the_per_k_records(q):
    # The sweep copies each orbit's flags; sweep_record decides every k.
    fld = Field(*factor_prime_power(q))
    assert sweep(fld) == [sweep_record(fld, k) for k in range(1, q)]


def _is_minus_one(fld, x):
    return fld.add(x, 1) == 0


def test_built_pairs_collide_pointwise():
    # Every odd q <= 243, 729 and 1327, and every k whose pair is built,
    # gcd(k, q-1) > 1 for a_k and gcd(2k, q-1) > 2 for b_k: the a_k pair
    # starts at 0, the b_k pair at -2, neither input is -1, and the two
    # collide under the pointwise maps.
    for q in list(odd_prime_powers(243)) + [729, 1327]:
        fld = Field(*factor_prime_power(q))
        for k in range(1, q):
            for kernel, pointwise, scanned, first in (
                    (a_collision, eval_a, a_scanned, 0),
                    (b_collision, eval_b, b_scanned, fld.sub(0, 2))):
                if scanned(fld, k):
                    continue
                x, y = xy = kernel(fld, k)
                assert x == first and x != y and y != 0, (q, k, xy)
                assert not _is_minus_one(fld, x) and not _is_minus_one(fld, y)
                assert pointwise(fld, k, x) == pointwise(fld, k, y), (q, k, xy)


@pytest.mark.parametrize("kernel,k", [(a_collision, 4), (b_collision, 4),
                                      (a_collision, 9), (b_collision, 10)],
                         ids=["a4", "b4", "a9", "b10"])
def test_built_pair_check_rejects_a_damaged_zech_table(kernel, k, monkeypatch):
    # A built pair is returned only once the log tables confirm it: with
    # x + 1 moved off its true log, the decider raises instead.
    fld = Field(5, 2)
    exp, log, zech = fld.log_tables()
    n = log[kernel(fld, k)[1]]
    damaged = list(zech)
    damaged[n] = (zech[n] + 1) % 24
    monkeypatch.setattr(fld, "log_tables", lambda: (exp, log, damaged))
    with pytest.raises(AssertionError, match="q = 25, k = %d" % k):
        kernel(fld, k)


@pytest.mark.parametrize("qs", [tuple(odd_prime_powers(243)), (729,)],
                         ids=["q<=243", "q729"])
def test_sweep_flags_equal_the_full_scan(qs):
    for q in qs:
        fld = Field(*factor_prime_power(q))
        for r in sweep(fld):
            k = r["k"]
            assert r["a_pp"] == (a_collision(fld, k) is None), (q, k)
            assert r["b_pp"] == (b_collision(fld, k) is None), (q, k)


@pytest.mark.parametrize("q", [3, 5, 25, 27, 61, 81, 121, 125])
def test_sweep_scans_only_orbit_leaders_with_gcd_at_most_2(q, monkeypatch):
    # A scan is a loop over zech; a built pair reads zech without one, and
    # so does b_k at p = 3 and even k, whose (0, -1) collide before the loop.
    fld = Field(*factor_prime_power(q))
    exp, log, zech = fld.log_tables()
    counting_zech = CountingList(zech)
    monkeypatch.setattr(fld, "log_tables", lambda: (exp, log, counting_zech))
    scanned = {"a": [], "b": []}

    def counting(name, kernel):
        def scan(field, k):
            loops = counting_zech.loops
            pair = kernel(field, k)
            if counting_zech.loops > loops:
                scanned[name].append(k)
            return pair
        return scan

    monkeypatch.setattr(permpoly, "a_collision", counting("a", a_collision))
    monkeypatch.setattr(permpoly, "b_collision", counting("b", b_collision))
    sweep(fld)
    leaders = _orbit_leaders(fld)
    assert scanned["a"] == [k for k in leaders if gcd(k, q - 1) == 1]
    assert scanned["b"] == [k for k in leaders if gcd(2 * k, q - 1) == 2
                            and not (fld.p == 3 and k % 2 == 0)]
