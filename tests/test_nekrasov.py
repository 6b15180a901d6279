import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from qlaumon import nekrasov, scalars
from qlaumon.nekrasov import (DegenerateParameters, LaumonParams, NekContext,
                              check_inversion_symmetry,
                              check_poch_sinh_relation, gl1_closed_partition,
                              gl1_closed_solution, instanton_skeleton,
                              laumon_partition_function, nek_context,
                              nek_poch_box, nek_sinh, nek_sinh_box,
                              solution_series, solution_spectral_params,
                              tuple_weights)
from qlaumon.params import rand_square, sample_params
from qlaumon.partitions import (colored_counts, enumerate_tuples, part,
                                partitions_up_to)
from qlaumon.qfun import bracket, single_bracket
from qlaumon.scalars import FIELDS
from qlaumon.series import MultiSeries

from oracles import (infprod_double_ratio, instanton_sum, nek_bracket_count,
                     nek_matter_anti, nek_matter_fund)


def generic_lp(seed, N, mode="rational"):
    """Generic spectral data reusing the parameter sampler's families."""
    ps = sample_params(seed, N, mode)
    nc = nek_context(ps)
    return LaumonParams(N, nc, list(ps.sqrt_d), list(ps.sqrt_b),
                        list(ps.sqrt_dbar)), ps


SMALL = partitions_up_to(4)


def test_empty_factors_are_one():
    lp, ps = generic_lp(1, 2)
    nc = lp.nc
    su = Fraction(3, 5)
    assert nc.field.wrap(nek_sinh(0, 2, (), (), su, nc)) == ps.field.one
    assert nek_poch_box(1, 2, (), (), su * su, nc) == ps.field.one


def test_rank_one_single_box_matches_closed_form_coefficient():
    # the one-box term of the rank-one series: [b/c][a/(q kappa b)]/([q][kappa])
    lp, ps = generic_lp(3, 1)
    nc = lp.nc
    sa, sb, sc = lp.sqrt_a[0], lp.sqrt_b[0], lp.sqrt_c[0]
    n_f = nc.field.wrap(nek_sinh(0, 1, (1,), (), sb / sc, nc))
    n_a = nc.field.wrap(nek_sinh(0, 1, (), (1,), sa / sb, nc))
    n_v = nc.field.wrap(nek_sinh(0, 1, (1,), (1,), ps.field.one, nc))
    got = n_f * n_a / n_v
    expect = single_bracket(sb / sc) \
        * single_bracket(sa / (nc.sqrt_q * nc.sqrt_kappa * sb)) \
        / (single_bracket(nc.sqrt_q) * single_bracket(nc.sqrt_kappa))
    assert got == expect


def test_row_form_equals_box_form():
    rng = random.Random(1)
    for N in (1, 2, 3):
        lp, ps = generic_lp(5, N)
        for _ in range(25):
            lam = SMALL[rng.randrange(len(SMALL))]
            mu = SMALL[rng.randrange(len(SMALL))]
            k = rng.randrange(N)
            su, _ = rand_square(rng, ps.field)
            assert lp.nc.field.wrap(nek_sinh(k, N, lam, mu, su, lp.nc)) == \
                nek_sinh_box(k, N, lam, mu, su, lp.nc)


def row_form_with_brackets(k, N, lam, mu, sqrt_u, nc):
    """The row-form factor as one q-bracket [u;q]_n per row pair."""
    k = k % N
    out = nc.field.one
    for j in range(1, len(lam) + 1):
        n = part(lam, j) - part(lam, j + 1)
        for i in range((j - k - 1) % N + 1, j + 1, N):
            arg = sqrt_u * nc.sqrt_q ** (-part(mu, i) + part(lam, j + 1)) \
                * nc.sqrt_kappa ** (j - i)
            out = out * bracket(arg, n, nc.qctx)
    for beta in range(1, len(mu) + 1):
        n = part(mu, beta) - part(mu, beta + 1)
        for alpha in range((beta + k) % N + 1, beta + 1, N):
            arg = sqrt_u * nc.sqrt_q ** (part(lam, alpha) - part(mu, beta)) \
                * nc.sqrt_kappa ** (alpha - beta - 1)
            out = out * bracket(arg, n, nc.qctx)
    return out


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_single_bracket_matches_brackets_and_box_form(mode):
    # the row walk's single brackets against one q-bracket per row pair
    # and against the box form, over every pair, color and rank
    lp, ps = generic_lp(5, 3, mode)
    su = lp.sqrt_a[0] / lp.sqrt_b[1]
    for N in (1, 2, 3):
        for k in range(N):
            for lam in SMALL:
                for mu in SMALL:
                    got = ps.field.wrap(nek_sinh(k, N, lam, mu, su, lp.nc))
                    assert got == row_form_with_brackets(k, N, lam, mu, su, lp.nc)
                    assert got == nek_sinh_box(k, N, lam, mu, su, lp.nc)


def test_exchange_symmetry_squared():
    rng = random.Random(2)
    for N in (2, 3):
        lp, ps = generic_lp(7, N)
        nc = lp.nc
        for _ in range(50):
            lam = SMALL[rng.randrange(len(SMALL))]
            mu = SMALL[rng.randrange(len(SMALL))]
            k = rng.randrange(N)
            su, _ = rand_square(rng, ps.field)
            a = nc.field.wrap(nek_sinh(k, N, lam, mu, su, nc))
            b = nc.field.wrap(nek_sinh(N - k - 1, N, mu, lam,
                                       nc.sqrt_q * nc.sqrt_kappa / su, nc))
            assert a * a == b * b


def test_matter_finite_products_squared():
    rng = random.Random(3)
    for N in (2, 3):
        lp, ps = generic_lp(11, N)
        nc = lp.nc
        for _ in range(50):
            lam = SMALL[rng.randrange(len(SMALL))]
            k = rng.randrange(N)
            su, _ = rand_square(rng, ps.field)
            f1 = nek_matter_fund(lam, k, su, nc, N)
            s1 = nc.field.wrap(nek_sinh(k, N, lam, (), su, nc))
            assert f1 * f1 == s1 * s1
            f2 = nek_matter_anti(lam, k, su, nc, N)
            s2 = nc.field.wrap(nek_sinh(k, N, (), lam, su, nc))
            assert f2 * f2 == s2 * s2
    assert nek_matter_fund((), 0, Fraction(2), nc, N) == ps.field.one


def test_mass_inversion_squared():
    rng = random.Random(4)
    for N in (2, 3):
        lp, ps = generic_lp(13, N)
        nc = lp.nc
        for _ in range(30):
            lam = SMALL[rng.randrange(len(SMALL))]
            ell = rng.randrange(N)
            sd, _ = rand_square(rng, ps.field)
            a = nek_matter_anti(lam, ell, nc.sqrt_q * nc.sqrt_kappa / sd, nc, N)
            b = nek_matter_fund(lam, N - 1 - ell, sd, nc, N)
            assert a * a == b * b


def test_infinite_product_double_ratio():
    """The double ratio N(lam,mu)/(N(lam,0) N(0,mu)) computed through the
    infinite-product form (reduced to finite brackets cell by cell) agrees
    squared with the row form."""
    rng = random.Random(5)
    lp, ps = generic_lp(17, 2)
    nc = lp.nc
    for _ in range(25):
        lam = SMALL[rng.randrange(len(SMALL))]
        mu = SMALL[rng.randrange(len(SMALL))]
        k = rng.randrange(2)
        su, _ = rand_square(rng, ps.field)
        lhs = infprod_double_ratio(k, 2, lam, mu, su, nc)
        num = nc.field.wrap(nek_sinh(k, 2, lam, mu, su, nc))
        den = nc.field.wrap(nek_sinh(k, 2, lam, (), su, nc)) \
            * nc.field.wrap(nek_sinh(k, 2, (), mu, su, nc))
        assert lhs * lhs * den * den == num * num


def test_bracket_counts_balance_pairwise():
    # numerator and denominator of each (i, j) pair carry equally many
    # brackets, keyed by the same two colored row sums
    rng = random.Random(6)
    for _ in range(30):
        lam = SMALL[rng.randrange(len(SMALL))]
        mu = SMALL[rng.randrange(len(SMALL))]
        k = rng.randrange(3)
        n_num = nek_bracket_count(k, 3, (), mu) + nek_bracket_count(k, 3, lam, ())
        n_den = nek_bracket_count(k, 3, lam, mu)
        assert n_num == n_den
    # so tuple by tuple the n1 + n2 factors and the dd factors carry
    # equally many brackets, at the points of the 4d limit tests
    count = cache(nek_bracket_count)
    for N, D in ((1, 8), (2, 6), (3, 5), (4, 4), (2, 8), (3, 6)):
        for tup in enumerate_tuples(N, D):
            n_num = n_den = 0
            for i in range(N):
                for j in range(N):
                    n_num += count(j - i, N, (), tup[j]) \
                        + count(j - i, N, tup[i], ())
                    n_den += count(j - i, N, tup[i], tup[j])
            assert n_num == n_den, tup


def test_partition_function_constant_term_and_rank_one_closed_form():
    lp, ps = generic_lp(3, 1)
    z = laumon_partition_function(lp, 6, "sinh")
    assert z.get((0,)) == ps.field.one
    closed = gl1_closed_partition(lp.sqrt_a[0], lp.sqrt_b[0], lp.sqrt_c[0],
                                  lp.nc, 6)
    assert z == closed


def test_partition_function_rank_two_degree_one_brute_force():
    # only the two single-box tuples contribute at degree one
    lp, ps = generic_lp(9, 2)
    nc = lp.nc
    z = laumon_partition_function(lp, 1, "sinh")

    def term(tup):
        num = ps.field.one
        den = ps.field.one
        for i in range(2):
            for j in range(2):
                num = num * nc.field.wrap(nek_sinh(
                    j - i, 2, (), tup[j], lp.sqrt_a[i] / lp.sqrt_b[j], nc))
                num = num * nc.field.wrap(nek_sinh(
                    j - i, 2, tup[i], (), lp.sqrt_b[i] / lp.sqrt_c[j], nc))
                den = den * nc.field.wrap(nek_sinh(
                    j - i, 2, tup[i], tup[j], lp.sqrt_b[i] / lp.sqrt_b[j], nc))
        return num / den

    assert z.get((1, 0)) == term(((1,), ()))
    assert z.get((0, 1)) == term(((), (1,)))


def test_partition_function_common_rescaling_invariance():
    # multiplying all of a, b, c by one scalar leaves the series unchanged
    lp, ps = generic_lp(11, 2)
    s = Fraction(7, 3)
    scaled = LaumonParams(2, lp.nc, [x * s for x in lp.sqrt_a],
                          [x * s for x in lp.sqrt_b],
                          [x * s for x in lp.sqrt_c])
    assert laumon_partition_function(lp, 3, "sinh") == \
        laumon_partition_function(scaled, 3, "sinh")


def test_partition_function_sum_order_independent():
    lp, ps = generic_lp(11, 2)
    want = laumon_partition_function(lp, 3, "sinh")
    weight = tuple_weights(lp, "sinh")
    got = MultiSeries.zero(2, 3, ps.field)
    for tup in reversed(list(enumerate_tuples(2, 3))):
        kvec = colored_counts(tup, 2)
        prev = got.terms.get(kvec, ps.field.zero)
        got.terms[kvec] = prev + weight(tup)
    got.terms = {k: v for k, v in got.terms.items() if v}
    assert got == want


def check_degenerate_denominator_reported(mode):
    # b_1/b_2 = q kappa puts a vector-multiplet bracket on a pole
    lp, ps = generic_lp(11, 2, mode)
    nc = lp.nc
    bad = LaumonParams(2, lp.nc, lp.sqrt_a,
                       [nc.sqrt_q * nc.sqrt_kappa * lp.sqrt_b[1], lp.sqrt_b[1]],
                       lp.sqrt_c)
    with pytest.raises(DegenerateParameters) as err:
        laumon_partition_function(bad, 2, "sinh")
    assert err.value.tup == ((), (1,))
    assert err.value.pair == (1, 2)
    with pytest.raises(DegenerateParameters) as err:
        tuple_weights(bad, "sinh", pure=True)(((), (1,)))
    assert err.value.tup == ((), (1,))
    assert err.value.pair == (1, 2)


def test_degenerate_denominator_reported_with_tuple():
    check_degenerate_denominator_reported("rational")


def test_degenerate_denominator_reported_with_tuple_prime():
    check_degenerate_denominator_reported("prime")


def plain_partition_function(lp, cap, kind):
    """The partition function as a plain sum over tuples of the full
    3 N^2-factor product, every factor evaluated afresh in box form."""
    N, nc = lp.N, lp.nc
    f = nc.field
    if kind == "sinh":
        nek, arg = nek_sinh_box, (lambda x, y: x / y)
    else:
        nek, arg = nek_poch_box, (lambda x, y: x * x / (y * y))
    out = MultiSeries.zero(N, cap, f)
    for tup in enumerate_tuples(N, cap):
        w = f.one
        for i in range(N):
            for j in range(N):
                w = w * nek(j - i, N, (), tup[j], arg(lp.sqrt_a[i], lp.sqrt_b[j]), nc) \
                    * nek(j - i, N, tup[i], (), arg(lp.sqrt_b[i], lp.sqrt_c[j]), nc) \
                    / nek(j - i, N, tup[i], tup[j], arg(lp.sqrt_b[i], lp.sqrt_b[j]), nc)
        kvec = colored_counts(tup, N)
        out.terms[kvec] = out.terms.get(kvec, f.zero) + w
    out.terms = {k: v for k, v in out.terms.items() if v}
    return out


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("kind", ["sinh", "poch"])
@pytest.mark.parametrize("N", [2, 3])
def test_memoized_partition_function_matches_plain_sum(N, kind, mode):
    lp = solution_spectral_params(sample_params(31, N, mode))
    assert laumon_partition_function(lp, 4, kind) == \
        plain_partition_function(lp, 4, kind)


def series_digest(z):
    """sha1 of the sorted terms, a coefficient as its residue or as its
    numerator and denominator."""
    return hashlib.sha1(repr(sorted(
        (k, v.r if hasattr(v, "r") else (v.numerator, v.denominator))
        for k, v in z.terms.items())).encode()).hexdigest()


def test_partition_function_coefficients_pinned():
    # recorded with one q-bracket per row and every factor memoized on
    # its role, slot pair and partitions
    pins = {
        (2, 10, "sinh", "rational"): "8bc6a5839219f1cd75dfc1fa02c9be2a49e6cda2",
        (2, 10, "sinh", "prime"): "b1b97ec7a2bb2f0a74d3a6815b0bed57211c1467",
        (3, 6, "sinh", "rational"): "fa6e44f7132af41e6db777c353327175f1094230",
        (3, 6, "sinh", "prime"): "7f0a7845d083f2e76cec10976c22890986572240",
        (4, 5, "sinh", "rational"): "cb0aa62d4fce5f5554956593d89c3c092c551c43",
        (4, 5, "sinh", "prime"): "ba778f49d0da162221f4d44365a9af6153cf5193",
        (3, 5, "poch", "rational"): "3ba439d76d7fcbc4a5e2e2e5da9f577417233f58",
        (3, 5, "poch", "prime"): "2824447ac606f698cc9d07cf1c4e8addbf58783e",
    }
    for (N, D, kind, mode), want in pins.items():
        lp = solution_spectral_params(sample_params(2, N, mode))
        assert series_digest(laumon_partition_function(lp, D, kind)) == want, \
            (N, D, kind, mode)


def test_solution_series_rank_one_closed_form():
    ps = sample_params(3, 1)
    assert solution_series(ps, 6) == gl1_closed_solution(ps, 6)


def test_poch_sinh_relation_small():
    for N in (2, 3):
        lp, _ = generic_lp(21, N)
        assert check_poch_sinh_relation(lp, 2) == []


def test_poch_partition_function_constant_term():
    lp, ps = generic_lp(23, 2)
    z = laumon_partition_function(lp, 2, "poch")
    assert z.get((0, 0)) == ps.field.one


def test_inversion_symmetry():
    lp1, _ = generic_lp(23, 1)
    assert check_inversion_symmetry(lp1, 4) is None
    lp2, _ = generic_lp(25, 2)
    assert check_inversion_symmetry(lp2, 3) is None


def test_inversion_symmetry_names_the_lowest_degree_offender(monkeypatch):
    # one side spiked at (0, 3) and (1, 0): the offender is the exponent of
    # lowest total degree, (1, 0), not the lexicographically least (0, 3)
    import qlaumon.nekrasov as nk
    side = nk._inversion_side
    spiked = []

    def spike_first_side(lp, cap):
        out = side(lp, cap)
        if not spiked:
            for k in ((0, 3), (1, 0)):
                out.terms[k] = out.get(k) + 1
            spiked.append(lp)
        return out

    monkeypatch.setattr(nk, "_inversion_side", spike_first_side)
    lp2, _ = generic_lp(25, 2)
    assert check_inversion_symmetry(lp2, 3) == (1, 0)


def test_pure_weight_is_vector_multiplet_only():
    lp, ps = generic_lp(23, 2)
    w = tuple_weights(lp, "sinh", pure=True)(((1,), ()))
    den = ps.field.one
    for i in range(2):
        for j in range(2):
            den = den * lp.nc.field.wrap(nek_sinh(
                j - i, 2, ((1,), ())[i], ((1,), ())[j],
                lp.sqrt_b[i] / lp.sqrt_b[j], lp.nc))
    assert w == 1 / den


def test_poch_single_box_hand_value():
    # one box against the empty partition at color zero: single factor 1 - u
    lp, ps = generic_lp(1, 2)
    u = Fraction(4, 9)
    assert nek_poch_box(0, 2, (1,), (), u, lp.nc) == 1 - u


def test_poch_squared_is_sinh_squared_times_box_arguments():
    # (1 - x) = x^{1/2} [x] box by box, so poch^2 = sinh^2 * prod of the
    # box arguments
    from qlaumon.nekrasov import _boxes_with_colors
    rng = random.Random(8)
    for N in (2, 3):
        lp, ps = generic_lp(5, N)
        nc = lp.nc
        for _ in range(30):
            lam = SMALL[rng.randrange(len(SMALL))]
            mu = SMALL[rng.randrange(len(SMALL))]
            k = rng.randrange(N)
            su, u = rand_square(rng, ps.field)
            args = ps.field.one
            for i, j, cj in _boxes_with_colors(mu):
                if (cj - i) % N == (-k - 1) % N:
                    args = args * u * nc.q ** (part(lam, i) - j) \
                        * nc.kappa ** (i - cj - 1)
            for i, j, cj in _boxes_with_colors(lam):
                if (cj - i) % N == k % N:
                    args = args * u * nc.q ** (-part(mu, i) + j - 1) \
                        * nc.kappa ** (cj - i)
            p = nek_poch_box(k, N, lam, mu, u, nc)
            s = nek_sinh_box(k, N, lam, mu, su, nc)
            assert p * p == s * s * args


# -- the skeleton and its evaluation against the per-tuple oracle -----------


def random_lp(seed, N, mode):
    """Spectral data with every square root a random fraction of height
    up to 10^6: at N = 6 the parameter sampler has no rational draw."""
    rng = random.Random(("skeleton", seed, N, mode).__repr__())
    field = FIELDS[mode]
    roots = [field.of(Fraction(rng.randrange(2, 10 ** 6),
                               rng.randrange(2, 10 ** 6)))
             for _ in range(2 + 3 * N)]
    return LaumonParams(N, NekContext(roots[0], roots[1], field),
                        roots[2:2 + N], roots[2 + N:2 + 2 * N], roots[2 + 2 * N:])


def oracle_partition_function(lp, cap, kind):
    return instanton_sum(lp.N, cap, tuple_weights(lp, kind), lp.nc.field)


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("kind", ["sinh", "poch"])
@pytest.mark.parametrize("N,cap", [(1, 7), (2, 5), (3, 4), (4, 3), (5, 3),
                                   (6, 2)])
def test_skeleton_sum_matches_per_tuple_sum(N, cap, kind, mode):
    lp = random_lp(1, N, mode)
    assert laumon_partition_function(lp, cap, kind) == \
        oracle_partition_function(lp, cap, kind)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_skeleton_reports_the_oracles_degenerate_tuple(mode):
    # b_i / b_j chosen so that one single bracket of the dd argument (i, j)
    # is [1] = 0: the first tuple in enumeration order whose dd product
    # vanishes, and its first zero pair in row-major order, as the oracle
    seen = set()
    for N in (2, 3):
        sk = instanton_skeleton(N, 3)
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                ka, kf = sk.keys_of(2 * N * N + i * N + j)
                for t in (0, len(ka) // 2, len(ka) - 1):
                    lp = random_lp(2, N, mode)
                    nc = lp.nc
                    sqrt_b = list(lp.sqrt_b)
                    sqrt_b[i] = sqrt_b[j] / (nc.qctx.qpow_half(ka[t])
                                             * nc.kctx.qpow_half(kf[t]))
                    bad = LaumonParams(N, nc, lp.sqrt_a, sqrt_b, lp.sqrt_c)
                    with pytest.raises(DegenerateParameters) as want:
                        oracle_partition_function(bad, 3, "sinh")
                    with pytest.raises(DegenerateParameters) as got:
                        laumon_partition_function(bad, 3, "sinh")
                    assert (got.value.tup, got.value.pair) == \
                        (want.value.tup, want.value.pair), (N, i, j, t)
                    seen.add((want.value.tup, want.value.pair))
    assert len(seen) > 10  # the cases differ in tuple or pair


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("kind", ["sinh", "poch"])
@pytest.mark.parametrize("N,cap", [(2, 4), (3, 3)])
def test_oracle_catches_a_wrong_row_walk(N, cap, kind, mode, monkeypatch):
    # negative control: the kappa exponent of one key of one factor moves,
    # the vector multiplet of ((1,), (1,)) at color 0, so Z is wrong; the
    # box-form oracle walks no rows and must see it
    row_keys = nekrasov._row_keys

    def shifted(k, N_, lam, mu):
        keys = list(row_keys(k, N_, lam, mu))
        if (k, lam, mu) == (0, (1,), (1,)):
            a, f = keys[0]
            keys[0] = a, f + 1
        return iter(keys)

    lp = random_lp(8, N, mode)
    instanton_skeleton.cache_clear()
    monkeypatch.setattr(nekrasov, "_row_keys", shifted)
    try:
        assert laumon_partition_function(lp, cap, kind) != \
            oracle_partition_function(lp, cap, kind)
    finally:
        instanton_skeleton.cache_clear()


def test_cached_skeleton_keeps_no_parameter_state():
    # two parameter sets, both fields and both kinds alternate on one
    # cached skeleton; each result equals a build on a fresh skeleton
    runs = [(random_lp(s, 3, mode), kind) for s in (3, 4)
            for mode in ("prime", "rational") for kind in ("sinh", "poch")]
    fresh = []
    for lp, kind in runs:
        instanton_skeleton.cache_clear()
        fresh.append(laumon_partition_function(lp, 4, kind))
    instanton_skeleton.cache_clear()
    for _ in range(2):
        for (lp, kind), want in zip(runs, fresh):
            assert laumon_partition_function(lp, 4, kind) == want
    assert instanton_skeleton.cache_info().misses == 1


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_nek_sinh_with_plan_matches_row_walk_and_box_form(mode):
    # every factor of the skeleton at (3, 4), from its plan and single
    # brackets evaluated one by one, against the row walk and box form
    lp = random_lp(5, 3, mode)
    nc, N = lp.nc, 3
    raw, wrap = nc.field.raw, nc.field.wrap
    sk = instanton_skeleton(N, 4)
    xs = [(x, y) for xs_, ys in ((lp.sqrt_a, lp.sqrt_b), (lp.sqrt_b, lp.sqrt_c),
                                 (lp.sqrt_b, lp.sqrt_b))
          for x in xs_ for y in ys]
    singles = []
    for g, (x, y) in enumerate(xs):
        ka, kf = sk.keys_of(g)
        su = x / y
        singles.append([raw(single_bracket(su * nc.qctx.qpow_half(a)
                                           * nc.kctx.qpow_half(f)))
                        for a, f in zip(ka, kf)])
    for f, (g, l, m) in enumerate(zip(sk.fac_arg, sk.fac_lam, sk.fac_mu)):
        x, y = xs[g]
        k, lam, mu = (g % N - g // N) % N, sk.parts[l], sk.parts[m]
        plan = sk.plan[sk.plan_bounds[f]:sk.plan_bounds[f + 1]]
        got = wrap(nek_sinh(k, N, lam, mu, x / y, nc, singles[g], plan))
        assert got == wrap(nek_sinh(k, N, lam, mu, x / y, nc))
        assert got == nek_sinh_box(k, N, lam, mu, x / y, nc)


@pytest.mark.parametrize("N,cap", [(2, 6), (3, 4)])
def test_one_nek_sinh_call_per_distinct_factor(N, cap, monkeypatch):
    # the calls are the distinct (argument, lam, mu) of the sum: role and
    # slot pair, then the two partitions
    calls = []
    nek = nekrasov.nek_sinh

    def counted(k, N_, lam, mu, sqrt_u, *args, **kwargs):
        calls.append((k % N_, lam, mu))
        return nek(k, N_, lam, mu, sqrt_u, *args, **kwargs)

    monkeypatch.setattr(nekrasov, "nek_sinh", counted)
    laumon_partition_function(random_lp(6, N, "prime"), cap, "sinh")
    distinct = set()
    for tup in enumerate_tuples(N, cap):
        for i in range(N):
            for j in range(N):
                distinct.add(("n1", i, j, (), tup[j]))
                distinct.add(("n2", i, j, tup[i], ()))
                distinct.add(("dd", i, j, tup[i], tup[j]))
    assert Counter(calls) == Counter(((j - i) % N, lam, mu)
                                     for _, i, j, lam, mu in distinct)


@pytest.mark.parametrize("N,cap", [(2, 8), (3, 6)])
def test_prime_build_inverts_per_argument_not_per_tuple(N, cap, monkeypatch):
    # every GF(p) inversion goes through pow(r, -1, PRIME) or a negative
    # power in the scalars module
    inversions = []

    def counted_pow(base, exp, mod=None):
        if exp < 0:
            inversions.append(base)
        return pow(base, exp, mod)

    lp = random_lp(7, N, "prime")
    instanton_skeleton(N, cap)
    monkeypatch.setattr(scalars, "pow", counted_pow, raising=False)
    laumon_partition_function(lp, cap, "sinh")
    tuples = sum(1 for _ in enumerate_tuples(N, cap))
    # 3 N^2 argument ratios and batches, one batch over the tuples, and
    # the inverses of sqrt_q and sqrt_kappa, each taken once
    assert len(inversions) <= 6 * N * N + 3 < tuples // 3
