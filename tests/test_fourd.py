import hashlib
import random
from fractions import Fraction

import pytest

from qlaumon.fourd import (AdditiveParams, annihilator_op, check_poch_4d,
                           check_transport_identity, fst_check, jet_poch,
                           k_difference, k_difference_formula, laumon_4d,
                           poch_expansion_formula, transported_point)
from qlaumon.nekrasov import DegenerateParameters, pair_weights
from qlaumon.partitions import (colored_counts, conjugate, enumerate_tuples,
                                part)
from qlaumon.scalars import RATIONAL, Jet

from oracles import (binomial_square_identity, comb_signed, instanton_sum,
                     ratio_limit_direct, ratio_limit_formula,
                     signed_ratio_limit_check)


def test_jet_expansion_two_hundred_instances():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randrange(-6, 7)
        b = rng.randrange(0, 7)
        x = Fraction(rng.randrange(1, 9), rng.randrange(9, 20))
        assert check_poch_4d(a, b, x)


def test_jet_expansion_hand_case():
    # (q x; q)_2 = (1 - qx)(1 - q^2 x) at x = 1/3
    x = Fraction(1, 3)
    got = jet_poch(1, 2, x)
    assert got == poch_expansion_formula(1, 2, x)
    # leading part (1-x)^2, first order -(2 + 1) x (1-x)
    assert got.a == Fraction(4, 9)
    assert got.b == -Fraction(4, 9) * Fraction(x, 1 - x) * 3


def test_first_order_sign_fixed_by_linear_case():
    # (q^a x; q)_1 = 1 - x - a h x: the correction carries a minus sign
    x = Fraction(1, 5)
    assert jet_poch(3, 1, x) == Jet(1 - x, -3 * x)


def test_ratio_limits():
    for alpha in range(0, 6):
        assert ratio_limit_direct(alpha, 6) == ratio_limit_formula(alpha, 6)
        for beta in range(0, alpha + 1):
            assert signed_ratio_limit_check(alpha, beta, 5)


def test_binomial_square_identity():
    for a in range(-3, 4):
        assert binomial_square_identity(a)


def test_k_difference_matches_formula():
    rng = random.Random(12)
    for N in (2, 3):
        for _ in range(30):
            nu = tuple(rng.randrange(0, 4) for _ in range(N))
            m = [rng.randrange(0, 4) for _ in range(N)]
            mbar = [rng.randrange(0, 4) for _ in range(N)]
            gam = [Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                   for _ in range(N)]
            pt = [Fraction(rng.randrange(1, 7), rng.randrange(8, 15))
                  for _ in range(N)]
            assert k_difference(nu, m, mbar, gam, pt) == \
                k_difference_formula(nu, m, mbar, gam, pt)


def test_k_difference_all_zero():
    assert k_difference((0, 0, 0), [0] * 3, [0] * 3, [Fraction(0)] * 3,
                        [Fraction(1, 3)] * 3) == 0


def test_rank_one_limit_is_binomial_series():
    # m = 0 or mbar = 0 puts a zero on a numerator form: the closed form
    # gives psi = 1, and so must the zero coefficients of the sum
    for m, mbar in ((Fraction(5, 13), Fraction(7, 17)),
                    (Fraction(0), Fraction(7, 17)),
                    (Fraction(5, 13), Fraction(0))):
        ap = AdditiveParams(1, Fraction(10, 7), [Fraction(2, 11)], [m], [mbar])
        psi = laumon_4d(ap, 6)
        c = ap.m[0] * ap.mbar[0] / ap.eps
        for k in range(7):
            assert psi.get((k,)) == comb_signed(c, k) * (-1) ** k, (m, mbar, k)


def boxes_with_colors(lam):
    """(row i, column j, length of column j) over the boxes of lam."""
    conj = conjugate(lam)
    return [(i, j, conj[j - 1]) for i, row in enumerate(lam, start=1)
            for j in range(1, row + 1)]


def additive_box_factor(k, N, lam, mu, E, eps):
    """The additive limit of ``nek_sinh_box``: over the same boxes, each
    bracket argument u q^{a/2} kappa^{f/2} gives the factor E + a + f eps,
    E the additive exponent of u."""
    k = k % N
    out = Fraction(1)
    for i, j, cj in boxes_with_colors(mu):
        if (cj - i) % N == (-k - 1) % N:
            out *= E + part(lam, i) - j + (i - cj - 1) * eps
    for i, j, cj in boxes_with_colors(lam):
        if (cj - i) % N == k:
            out *= E - part(mu, i) + j - 1 + (cj - i) * eps
    return out


def plain_limit_series(ap, cap):
    """The limit series as a plain sum over tuples of the 3 N^2 box-form
    factors, each evaluated afresh."""
    N, eps = ap.N, ap.eps
    out = {}
    for tup in enumerate_tuples(N, cap):
        w = Fraction(1)
        for i in range(N):
            for j in range(N):
                e_ab = 1 + eps + ap.betas[(i - 1) % N] - ap.m[(i - 1) % N] \
                    - ap.betas[j]
                e_bc = ap.betas[i] - ap.betas[j] + ap.mbar[j]
                w *= additive_box_factor(j - i, N, (), tup[j], e_ab, eps)
                w *= additive_box_factor(j - i, N, tup[i], (), e_bc, eps)
                w /= additive_box_factor(j - i, N, tup[i], tup[j],
                                         ap.betas[i] - ap.betas[j], eps)
        kvec = colored_counts(tup, N)
        out[kvec] = out.get(kvec, 0) + w
    return {k: v for k, v in out.items() if v}


def test_limit_series_rank_two_degree_one_brute_force():
    for N, D in ((2, 1), (2, 2), (3, 1)):
        ap = AdditiveParams.sample(5, N)
        assert laumon_4d(ap, D).terms == plain_limit_series(ap, D), (N, D)


def per_tuple_limit_series(ap, cap):
    """The limit series as the per-tuple sum of ``nekrasov.pair_weights``
    on the box-form additive factors, which walk no rows."""
    N, eps = ap.N, ap.eps

    def pair(x, y, k):
        return lambda lam, mu: additive_box_factor(k, N, lam, mu, x - y, eps)

    xa = [1 + eps + ap.betas[i - 1] - ap.m[i - 1] for i in range(N)]
    xc = [ap.betas[j] - ap.mbar[j] for j in range(N)]
    return instanton_sum(N, cap, pair_weights(N, RATIONAL, pair, xa,
                                              ap.betas, xc), RATIONAL)


def test_limit_series_matches_per_tuple_sum():
    for N, D in ((1, 8), (2, 6), (3, 5), (4, 4)):
        for seed in (1, 2):
            ap = AdditiveParams.sample(seed, N)
            assert laumon_4d(ap, D) == per_tuple_limit_series(ap, D), \
                (N, D, seed)


def test_vanishing_linear_form_raises_with_tuple():
    ap = AdditiveParams(1, Fraction(1), [Fraction(2)], [Fraction(1)],
                        [Fraction(3)])
    # eps integer makes a vector-multiplet form vanish at some tuple
    with pytest.raises(DegenerateParameters) as err:
        laumon_4d(ap, 6)
    assert err.value.tup == ((2,),)
    assert err.value.pair == (1, 1)
    with pytest.raises(DegenerateParameters) as err:
        per_tuple_limit_series(ap, 6)
    assert err.value.tup == ((2,),)
    assert err.value.pair == (1, 1)


def test_limit_series_pinned():
    # sha1 of the sorted terms, recorded with the limit's own row walk
    # and memo, before it ran on the q-builder's
    pins = {
        (1, 8, 1): "03476555f48c3284549831aa58294ba80d31d61c",
        (1, 8, 2): "ceedcbf53fc05512218fdb988037aeee5e108a6a",
        (1, 8, 3): "67f8204c0610cb05b06607313ca0fbb2e4515a76",
        (2, 6, 1): "4862f2313c29010e18db5270bdeded1dc5989698",
        (2, 6, 2): "b65b1bbb62286f0028df476f867eed8c2f451456",
        (2, 6, 3): "32f4236578b9950d312e4b414a5318b181039760",
        (3, 5, 1): "85418d704b15b8d6074515aa58bbb6a96353b355",
        (3, 5, 2): "d61684c26164c661291eb9562037cc8815fb627d",
        (3, 5, 3): "f37f3d9771b79e3fac1a035ca561b91830a776f6",
    }
    for (N, D, seed), want in pins.items():
        psi = laumon_4d(AdditiveParams.sample(seed, N), D)
        got = hashlib.sha1(repr(sorted(
            (k, (v.numerator, v.denominator)) for k, v in psi.terms.items()
        )).encode()).hexdigest()
        assert got == want, (N, D, seed)


def test_transport_point_preserves_product():
    # the substitution multiplies to the same overall product
    pt = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    tp = transported_point(pt)
    lam = Fraction(1)
    lam2 = Fraction(1)
    for a, b in zip(pt, tp):
        lam *= a
        lam2 *= b
    assert lam == lam2


def test_transport_identity_pointwise():
    rng = random.Random(13)
    for N in (2, 3):
        for _ in range(10):
            nu = tuple(rng.randrange(0, 4) for _ in range(N))
            pt = [Fraction(rng.randrange(2, 9), rng.randrange(9, 14))
                  for _ in range(N)]
            lhs, rhs = check_transport_identity(nu, pt)
            assert lhs == rhs
    # constant exponent: both sides trivially equal
    lhs, rhs = check_transport_identity((0, 0),
                                        [Fraction(1, 4), Fraction(1, 5)])
    assert lhs == rhs


ANNIHILATION_POINTS = ((1, 5), (2, 4), (2, 6), (3, 4), (3, 5), (4, 4))


def test_annihilation_small():
    # the residue at degree d reads psi only through degree d, so it
    # vanishes through the full cap
    for (N, D) in ANNIHILATION_POINTS:
        for seed in (1, 2, 3):
            through, offender = fst_check(AdditiveParams.sample(seed, N), D)
            assert through == D, (N, D, seed, offender)


def test_annihilation_fails_off_the_parameters():
    # psi of one parameter set against the annihilator of another, mbar_1
    # or eps moved by 1/1000: the residue is nonzero from degree 1
    step = Fraction(1, 1000)
    for (N, D) in ANNIHILATION_POINTS:
        for seed in (1, 2, 3):
            ap = AdditiveParams.sample(seed, N)
            psi = laumon_4d(ap, D)
            for moved in (
                    AdditiveParams(N, ap.eps, ap.betas, ap.m,
                                   [ap.mbar[0] + step] + ap.mbar[1:]),
                    AdditiveParams(N, ap.eps + step, ap.betas, ap.m,
                                   ap.mbar)):
                res = annihilator_op(moved, D)(psi)
                assert not res.get((0,) * N), (N, D, seed)
                assert res.degrees().get(1), (N, D, seed)


def test_transport_identity_constant_symbol():
    # exponents 1..N at the points 1/(3 + a)
    for N in (2, 3):
        nu = tuple(range(1, N + 1))
        pt = [Fraction(1, 3 + a) for a in range(N)]
        lhs, rhs = check_transport_identity(nu, pt)
        assert lhs == rhs
