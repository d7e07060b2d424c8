"""Direct PP testing of the two families and the per-exponent sweep."""

from math import gcd

import pytest

from gfpp import permpoly
from gfpp.cli import factor_prime_power, odd_prime_powers
from gfpp.digits import orbit_representatives, star_reduce
from gfpp.field import Field
from gfpp.permpoly import (a_values, b_values, conjecture_verdict, eval_a,
                           eval_b, first_collision, p_powers, sweep,
                           sweep_record)


@pytest.fixture(scope="module")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="module")
def f27():
    return Field(3, 3)


def test_a_family_k1_is_identity(f9, f27):
    for fld in (f9, f27, Field(5, 1)):
        assert dict(a_values(fld, 1)) == {x: x for x in fld.elements()}


def test_a_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_a(f9, k, 0) == 0


def test_a_family_k2_not_injective_on_f3():
    f3 = Field(3, 1)
    assert eval_a(f3, 2, 1) == 0
    assert eval_a(f3, 2, 0) == 0


def test_b_family_k1_is_identity(f9, f27):
    for fld in (f9, f27):
        assert dict(b_values(fld, 1)) == {x: x for x in fld.elements()}


def test_b_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_b(f9, k, 0) == 0
    # k = q-1 exercises the x^0 = 1 convention
    assert eval_b(f9, 8, 0) == 0


def assert_streams_match_pointwise_eval(fld, k):
    """Each stream yields every element once, with the pointwise value."""
    for values, pointwise in ((a_values, eval_a), (b_values, eval_b)):
        pairs = list(values(fld, k))
        assert sorted(x for x, _ in pairs) == list(fld.elements())
        assert dict(pairs) == {x: pointwise(fld, k, x) for x in fld.elements()}


def test_value_tables_match_pointwise_eval(f9):
    # in GF(3) only x = 1 takes the Zech path; x = 0 and x = -1 are handled apart
    for fld in (Field(3, 1), Field(7, 1), f9, Field(5, 2)):
        for k in range(1, fld.q):
            assert_streams_match_pointwise_eval(fld, k)


@pytest.mark.parametrize("p,e", [(3, 3), (3, 4), (4099, 1)], ids=["q27", "q81", "q4099"])
def test_value_tables_match_pointwise_eval_q27_sample(p, e):
    fld = Field(p, e)
    m = fld.q - 1
    for k in sorted({1, 3, 5, 7, 13, m // 2, m - 1, m}):
        assert_streams_match_pointwise_eval(fld, k)


def test_streams_start_at_zero_then_minus_one(f9):
    minus_one = f9.neg(1)
    for values in (a_values, b_values):
        assert [x for x, _ in values(f9, 5)][:2] == [0, minus_one]


def test_a3_is_pp_of_f9(f9):
    assert first_collision(a_values(f9, 3)) is None


def test_first_collision_basics():
    assert first_collision([]) is None
    assert first_collision([(0, 5), (1, 6), (2, 5)]) == (0, 2)
    assert first_collision([(0, 5), (1, 6), (2, 7)]) is None
    # the first repeated value decides, not the first value that repeats
    assert first_collision([(0, 1), (1, 2), (2, 2), (3, 1)]) == (1, 2)


def test_first_collision_stops_reading_at_the_collision():
    seen = []

    def pairs():
        for x in range(10):
            seen.append(x)
            yield x, x % 3

    assert first_collision(pairs()) == (0, 3)
    assert seen == [0, 1, 2, 3]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4)],
                         ids=["q3", "q5", "q7", "q9", "q25", "q27", "q81"])
def test_first_collision_matches_pointwise_oracle(p, e):
    fld = Field(p, e)
    for k in range(1, fld.q):
        for values, pointwise in ((a_values, eval_a), (b_values, eval_b)):
            pair = first_collision(values(fld, k))
            distinct = len({pointwise(fld, k, x) for x in fld.elements()}) == fld.q
            assert (pair is None) == distinct, (fld.q, k, pointwise.__name__)
            if pair is not None:
                x1, x2 = pair
                assert x1 != x2
                assert pointwise(fld, k, x1) == pointwise(fld, k, x2)


def test_sweep_record_q9_k3(f9):
    r = sweep_record(f9, 3)
    assert r["a_pp"] and r["b_pp"] and r["k_is_p_power"] and r["gcd_ok"]
    assert r["k_prime"] == 3  # 3*3 = 9 = 8 + 1
    assert r["k_prime_binary"] is True
    assert r["criterion"] is None


def test_sweep_record_q9_k2(f9):
    r = sweep_record(f9, 2)
    assert not r["gcd_ok"]
    assert not r["a_pp"]
    assert r["k_prime"] is None and r["k_prime_binary"] is None


def test_sweep_record_q27_k5(f27):
    assert not sweep_record(f27, 5)["a_pp"]


def test_frobenius_exponents_always_pp():
    for p, e in ((3, 2), (3, 3), (5, 2), (7, 2)):
        fld = Field(p, e)
        for k in p_powers(fld):
            r = sweep_record(fld, k)
            assert r["a_pp"] and r["b_pp"], (p, e, k)


def test_p_power_implies_both_pp(f27):
    for r in sweep(f27):
        if r["k_is_p_power"]:
            assert r["a_pp"] and r["b_pp"]


def test_pp_implies_coprime():
    for q_args in ((3, 1), (5, 1), (3, 2), (3, 3)):
        fld = Field(*q_args)
        for r in sweep(fld):
            if r["a_pp"]:
                assert r["gcd_ok"]
            if r["b_pp"]:
                assert r["gcd_ok"]


def test_pp_implies_binary_inverse_digits(f27):
    for r in sweep(f27):
        if r["a_pp"]:
            assert r["k_prime_binary"] is True


def test_conjecture_verdicts():
    assert conjecture_verdict(Field(3, 1), "A")["witnesses"] == [1]
    assert conjecture_verdict(Field(3, 1), "A")["passed"]
    v = conjecture_verdict(Field(3, 2), "A")
    assert v["witnesses"] == [1, 3] and v["passed"]
    v = conjecture_verdict(Field(3, 3), "two")
    assert v["witnesses"] == [1, 3, 9] and v["passed"]
    v = conjecture_verdict(Field(5, 2), "B")
    assert v["witnesses"] == [1, 5] and v["passed"]


def test_conjecture_verdict_rejects_unknown_which(f9):
    with pytest.raises(ValueError):
        conjecture_verdict(f9, "both")


# Extension fields at which k and p*k are compared.
ORBIT_QS = (9, 25, 27, 49, 81, 125)


@pytest.mark.parametrize("q", ORBIT_QS)
def test_frobenius_images_have_the_same_first_collision(q):
    # a_{pk} = (a_k)^p and b_{pk} = (b_k)^p as maps, and both streams visit
    # x in one order, so k and p*k collide first at the same pair.
    fld = Field(*factor_prime_power(q))
    for values in (a_values, b_values):
        first = {k: first_collision(values(fld, k)) for k in range(1, q)}
        for k in range(1, q):
            assert first[k] == first[star_reduce(fld.p * k, q)], (k, values.__name__)


@pytest.mark.parametrize("q", ORBIT_QS)
def test_sweep_rows_equal_the_per_k_records(q):
    # The sweep copies each orbit's flags; sweep_record decides every k.
    fld = Field(*factor_prime_power(q))
    with_criterion = q <= 81
    assert sweep(fld, with_criterion=with_criterion) == [
        sweep_record(fld, k, with_criterion=with_criterion) for k in range(1, q)]


def _is_minus_one(fld, x):
    return fld.add(x, 1) == 0


def test_built_pairs_collide_pointwise():
    # Every odd q <= 125 and every k: an a_k pair exists exactly when
    # gcd(k, q-1) > 1 and starts at 0, a b_k pair exactly when
    # gcd(2k, q-1) > 2 and starts at -2, and each collides under the
    # pointwise maps.
    for q in odd_prime_powers(125):
        fld = Field(*factor_prime_power(q))
        for k in range(1, q):
            for pair, pointwise, built, first in (
                    (permpoly._a_pair, eval_a, gcd(k, q - 1) > 1, 0),
                    (permpoly._b_pair, eval_b, gcd(2 * k, q - 1) > 2, fld.neg(2))):
                xy = pair(fld, k)
                assert (xy is not None) == built, (q, k, pointwise.__name__)
                if xy is not None:
                    x, y = xy
                    assert x == first and x != y and y != 0, (q, k, xy)
                    assert not _is_minus_one(fld, x) and not _is_minus_one(fld, y)
                    assert pointwise(fld, k, x) == pointwise(fld, k, y), (q, k, xy)


@pytest.mark.parametrize("qs", [tuple(odd_prime_powers(243)), (729,)],
                         ids=["q<=243", "q729"])
def test_sweep_flags_equal_the_full_scan(qs):
    for q in qs:
        fld = Field(*factor_prime_power(q))
        for r in sweep(fld):
            k = r["k"]
            assert r["a_pp"] == (first_collision(a_values(fld, k)) is None), (q, k)
            assert r["b_pp"] == (first_collision(b_values(fld, k)) is None), (q, k)


@pytest.mark.parametrize("q", [3, 5, 25, 27, 61, 81, 121, 125])
def test_sweep_scans_only_orbit_leaders_with_gcd_at_most_2(q, monkeypatch):
    fld = Field(*factor_prime_power(q))
    scanned = {"a": [], "b": []}

    def counting(name, values):
        def stream(field, k):
            scanned[name].append(k)
            return values(field, k)
        return stream

    monkeypatch.setattr(permpoly, "a_values", counting("a", a_values))
    monkeypatch.setattr(permpoly, "b_values", counting("b", b_values))
    sweep(fld)
    rep = orbit_representatives(fld.p, fld.e)
    leaders = [k for k in range(1, q) if rep[k] == k]
    assert scanned["a"] == [k for k in leaders if gcd(k, q - 1) == 1]
    assert scanned["b"] == [k for k in leaders if gcd(2 * k, q - 1) == 2]
