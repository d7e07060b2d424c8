"""Direct PP testing of the two families and the per-exponent sweep."""

import pytest

from gfpp.errors import LengthMismatchError
from gfpp.field import Field
from gfpp.permpoly import (a_value_table, b_value_table, conjecture_verdict,
                           eval_a, eval_b, is_permutation, p_powers, sweep,
                           sweep_record)


@pytest.fixture(scope="module")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="module")
def f27():
    return Field(3, 3)


def test_a_family_k1_is_identity(f9, f27):
    for fld in (f9, f27, Field(5, 1)):
        assert a_value_table(fld, 1) == list(range(fld.q))


def test_a_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_a(f9, k, 0) == 0


def test_a_family_k2_not_injective_on_f3():
    f3 = Field(3, 1)
    assert eval_a(f3, 2, 1) == 0
    assert eval_a(f3, 2, 0) == 0


def test_b_family_k1_is_identity(f9, f27):
    for fld in (f9, f27):
        assert b_value_table(fld, 1) == list(range(fld.q))


def test_b_family_vanishes_at_zero(f9):
    for k in range(1, 9):
        assert eval_b(f9, k, 0) == 0
    # k = q-1 exercises the x^0 = 1 convention
    assert eval_b(f9, 8, 0) == 0


def test_value_tables_match_pointwise_eval(f9):
    # in GF(3) only x = 1 takes the Zech path; x = 0 and x = -1 are handled apart
    for fld in (Field(3, 1), Field(7, 1), f9, Field(5, 2)):
        for k in range(1, fld.q):
            assert a_value_table(fld, k) == [eval_a(fld, k, x) for x in fld.elements()]
            assert b_value_table(fld, k) == [eval_b(fld, k, x) for x in fld.elements()]


@pytest.mark.parametrize("p,e", [(3, 3), (3, 4), (4099, 1)], ids=["q27", "q81", "q4099"])
def test_value_tables_match_pointwise_eval_q27_sample(p, e):
    fld = Field(p, e)
    m = fld.q - 1
    for k in sorted({1, 3, 5, 7, 13, m // 2, m - 1, m}):
        assert a_value_table(fld, k) == [eval_a(fld, k, x) for x in fld.elements()]
        assert b_value_table(fld, k) == [eval_b(fld, k, x) for x in fld.elements()]


def test_a3_is_pp_of_f9(f9):
    assert is_permutation(f9, [eval_a(f9, 3, x) for x in f9.elements()])


def test_is_permutation_basics(f9):
    assert is_permutation(f9, list(range(9)))
    assert not is_permutation(f9, [0] * 9)
    with pytest.raises(LengthMismatchError):
        is_permutation(f9, [0, 1, 2])
    f3 = Field(3, 1)
    with pytest.raises(ValueError, match="entry -1 "):
        is_permutation(f3, [0, 1, -1])
    with pytest.raises(ValueError, match="entry 3 "):
        is_permutation(f3, [0, 1, 3])


def test_is_permutation_is_order_insensitive(f9):
    table = a_value_table(f9, 3)
    shuffled = table[4:] + table[:4]
    assert is_permutation(f9, table) == is_permutation(f9, shuffled)


def test_sweep_record_q9_k3(f9):
    r = sweep_record(f9, 3)
    assert r.a_pp and r.b_pp and r.k_is_p_power and r.gcd_ok
    assert r.k_prime == 3  # 3*3 = 9 = 8 + 1
    assert r.k_prime_binary is True
    assert r.criterion is None


def test_sweep_record_q9_k2(f9):
    r = sweep_record(f9, 2)
    assert not r.gcd_ok
    assert not r.a_pp
    assert r.k_prime is None and r.k_prime_binary is None


def test_sweep_record_q27_k5(f27):
    assert not sweep_record(f27, 5).a_pp


def test_frobenius_exponents_always_pp():
    for p, e in ((3, 2), (3, 3), (5, 2), (7, 2)):
        fld = Field(p, e)
        for k in p_powers(fld):
            r = sweep_record(fld, k)
            assert r.a_pp and r.b_pp, (p, e, k)


def test_p_power_implies_both_pp(f27):
    for r in sweep(f27):
        if r.k_is_p_power:
            assert r.a_pp and r.b_pp


def test_pp_implies_coprime():
    for q_args in ((3, 1), (5, 1), (3, 2), (3, 3)):
        fld = Field(*q_args)
        for r in sweep(fld):
            if r.a_pp:
                assert r.gcd_ok
            if r.b_pp:
                assert r.gcd_ok


def test_pp_implies_binary_inverse_digits(f27):
    for r in sweep(f27):
        if r.a_pp:
            assert r.k_prime_binary is True


def test_conjecture_verdicts():
    assert conjecture_verdict(Field(3, 1), "A").witnesses == [1]
    assert conjecture_verdict(Field(3, 1), "A").passed
    v = conjecture_verdict(Field(3, 2), "A")
    assert v.witnesses == [1, 3] and v.passed
    v = conjecture_verdict(Field(3, 3), "two")
    assert v.witnesses == [1, 3, 9] and v.passed
    v = conjecture_verdict(Field(5, 2), "B")
    assert v.witnesses == [1, 5] and v.passed


def test_conjecture_verdict_rejects_unknown_which(f9):
    with pytest.raises(ValueError):
        conjecture_verdict(f9, "both")
