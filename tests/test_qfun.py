import random
from fractions import Fraction

import pytest

from qlaumon.params import rand_square, sample_params
from qlaumon.qfun import QContext, bracket, poch, qbinom, single_bracket
from qlaumon.scalars import RATIONAL

from oracles import bracket_base, bracket_ratio_finite


def ctx():
    ps = sample_params(1, 2)
    return QContext(ps.sqrt_q, ps.field)


def test_poch_zero_and_two():
    c = ctx()
    x = Fraction(5, 9)
    assert poch(x, c.q, 0) == 1
    assert poch(x, c.q, 2) == (1 - x) * (1 - c.q * x)


def test_poch_negative_one_inverts_shifted_factor():
    c = ctx()
    x = Fraction(5, 9)
    assert poch(x, c.q, -1) * (1 - x / c.q) == 1


def test_poch_cocycle_property():
    c = ctx()
    x = Fraction(3, 11)
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert poch(x, c.q, m + n) == \
                poch(x, c.q, m) * poch(x * c.q ** m, c.q, n)


def test_poch_inversion_formula():
    # (x;q)_n = (-x)^n q^{n(n-1)/2} / (q/x;q)_{-n}
    c = ctx()
    x = Fraction(7, 5)
    for n in range(-4, 5):
        lhs = poch(x, c.q, n)
        rhs = (-x) ** n * c.sqrt_q ** (n * (n - 1)) \
            / poch(c.q / x, c.q, -n)
        assert lhs == rhs, n


def test_bracket_small_cases():
    c = ctx()
    su = Fraction(2, 7)
    u = su * su
    assert bracket(su, 0, c) == 1
    assert bracket(su, 1, c) == 1 / su - su
    expect = (1 / su - su) * (1 / (su * c.sqrt_q) - su * c.sqrt_q)
    assert bracket(su, 2, c) == expect


def test_bracket_square_is_root_free():
    # [u;q]_n^2 must be expressible in u and q alone
    c = ctx()
    su = Fraction(3, 5)
    u = su * su
    val = bracket(su, 2, c) ** 2
    expect = (1 / u + u - 2) * (1 / (u * c.q) + u * c.q - 2)
    assert val == expect


def test_bracket_additivity():
    c = ctx()
    su = Fraction(2, 9)
    for n in range(0, 4):
        for m in range(0, 4):
            assert bracket(su, n + m, c) == \
                bracket(su, n, c) * bracket(su * c.sqrt_q ** n, m, c)


def test_bracket_ratio_finite_matches_bracket():
    c = ctx()
    rng = random.Random(3)
    for n in (-3, -1, 0, 1, 3):
        su, _ = rand_square(rng, RATIONAL)
        assert bracket_ratio_finite(su, n, c) == bracket(su, n, c)


def test_bracket_inversion_pairing():
    # [q^{1-n} u^{-1}; q]_n = (-1)^n [u;q]_n
    c = ctx()
    su = Fraction(4, 7)
    for n in range(0, 5):
        lhs = bracket(c.sqrt_q ** (1 - n) / su, n, c)
        assert lhs == c.field.of(-1) ** n * bracket(su, n, c)


def test_bracket_base_other_base():
    # base kappa (given through sqrt_kappa): [u; kappa]_2 = [u][u kappa]
    ps = sample_params(1, 2)
    su = Fraction(5, 7)
    v = bracket_base(su, 2, ps.sqrt_kappa)
    assert v == single_bracket(su) * single_bracket(su * ps.sqrt_kappa)


def test_qbinom_values():
    c = ctx()
    assert qbinom(2, 1, c) == 1 + c.q
    assert qbinom(5, 0, c) == 1
    assert qbinom(3, -1, c) == 0 and qbinom(3, 4, c) == 0


def test_qbinom_termination_identity():
    # sum_a (q^{-n};q)_a/(q;q)_a z^a = (q^{-n} z; q)_n at n = 3
    c = ctx()
    z = Fraction(4, 9)
    n = 3
    total = c.field.zero
    for a in range(n + 1):
        total = total + poch(c.q ** -n, c.q, a) / c.qq(a) * z ** a
    assert total == poch(c.q ** -n * z, c.q, n)


def test_big_qexp_coefficient():
    # q^{n(n-1)/2}/(q;q)_n at n = 2 equals q/((1-q)(1-q^2))
    c = ctx()
    assert c.q / c.qq(2) == c.q / ((1 - c.q) * (1 - c.q ** 2))


def test_poch_negative_zero_factor_raises():
    c = ctx()
    with pytest.raises(ZeroDivisionError):
        poch(c.q, c.q, -1)
