import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qlaumon.params import sample_params
from qlaumon.qfun import QContext
from qlaumon.scalars import FIELDS, PRIME_FIELD, RATIONAL
from qlaumon.series import (MultiSeries, all_monomials, compose, delta_quadratic,
                            diagonal_op, eq_coeff, eq_of_monomial,
                            eq_product_normal_op,
                            exp_series, first_disagreements, identity_op,
                            mul_op,
                            neumann_inverse_op, normal_ordered_op,
                            ops_agree_on_monomials,
                            phi_coeff, phi_of_monomial, phi_product_normal_op,
                            probe_series, qborel_op, rays_op, shift_scaling_op,
                            sparse_op)

from oracles import (op_qexp, op_qexp_big, qexp_series, series_inverse,
                     twisted_letter_op)


def setup():
    ps = sample_params(1, 2)
    return ps, QContext(ps.sqrt_q, ps.field)


def test_normal_ordering_evaluates_at_source_exponent():
    ps, ctx = setup()
    # :q^{theta_1} x_1: acts as x_1 q^{nu_1}
    op = normal_ordered_op([((1, 0), lambda nu: ctx.q ** nu[0])])
    s = MultiSeries.monomial(2, 4, ps.field, (2, 1))
    assert op(s) == MultiSeries.monomial(2, 4, ps.field, (3, 1), ctx.q ** 2)


def test_normal_ordering_identity():
    ps, ctx = setup()
    op = normal_ordered_op([((0, 0), lambda nu: ps.field.one)])
    s = MultiSeries(2, 3, ps.field, {(1, 0): Fraction(2), (0, 2): Fraction(-7)})
    assert op(s) == s


def test_normal_ordering_mixed_example():
    # :x_1 x_2 q^{theta_1 - theta_2}: on x_1 gives q x_1^2 x_2
    ps, ctx = setup()
    op = normal_ordered_op([((1, 1), lambda nu: ctx.qpow_half(2 * (nu[0] - nu[1])))])
    s = MultiSeries.monomial(2, 3, ps.field, (1, 0))
    assert op(s) == MultiSeries.monomial(2, 3, ps.field, (2, 1), ctx.q)


def test_shift_scaling():
    ps, _ = setup()
    f = ps.field
    op = shift_scaling_op([f.of(2), f.of(3)], f)
    s = MultiSeries.monomial(2, 5, f, (2, 1), f.of(5))
    assert op(s).get((2, 1)) == f.of(60)
    assert shift_scaling_op([f.one, f.one], f)(s) == s
    with pytest.raises(ValueError):
        shift_scaling_op([f.zero, f.one], f)
    # the powers are kept between applications: a second application,
    # to a series with higher powers, reads the first one's and adds more
    for cap in (3, 6):
        s = MultiSeries(2, cap, f, {th: f.of(7) for th in all_monomials(2, cap)})
        assert op(s) == MultiSeries(2, cap, f, {
            th: f.of(2) ** th[0] * f.of(3) ** th[1] * 7 for th in s.terms})


def test_diagonal_op_stores_no_zero():
    ps, _ = setup()
    f = ps.field
    s = MultiSeries(2, 3, f, {th: f.one for th in all_monomials(2, 3)})
    out = diagonal_op(lambda th: f.zero if th[0] == 1 else f.of(th[1] + 1))(s)
    assert out.terms == {th: f.of(th[1] + 1) for th in s.terms if th[0] != 1}


def test_shift_on_diagonal_monomial_gives_kappa_power():
    # the parameter shift multiplies x_1...x_N by kappa^N
    for N in (2, 3):
        ps = sample_params(2, N)
        alphas = [ps.kappa * ps.b(i) / ps.b((i + 1) % N) for i in range(N)]
        op = shift_scaling_op(alphas, ps.field)
        s = MultiSeries.monomial(N, N, ps.field, (1,) * N)
        assert op(s).get((1,) * N) == ps.kappa ** N


def test_delta_quadratic():
    assert delta_quadratic((1, 0)) == 1
    assert delta_quadratic((3, 3, 3)) == 0
    th = (2, 5, 1)
    assert 2 * delta_quadratic(th) == sum(
        (th[i] - th[i - 1]) ** 2 for i in range(3))


def test_qborel_values():
    ps, ctx = setup()
    op = qborel_op(1, ctx)  # q^{Delta/2}
    s = MultiSeries.monomial(2, 3, ps.field, (1, 0))
    assert op(s).get((1, 0)) == ctx.sqrt_q
    s2 = MultiSeries.monomial(2, 6, ps.field, (2, 2))
    assert op(s2) == s2


def test_qborel_relative_bookkeeping():
    # q^{Delta/2} p_1^{1/2} p_2^{-1/2} multiplies by q^{n(n+1)/2}, n = diff
    ps, ctx = setup()
    borel = qborel_op(1, ctx)
    halfshift = diagonal_op(lambda th: ctx.qpow_half(th[0] - th[1]))
    for th in all_monomials(2, 4):
        s = MultiSeries.monomial(2, 8, ps.field, th)
        n = th[0] - th[1]
        got = halfshift(borel(s)).get(th)
        assert got == ctx.qpow_half(n * (n + 1))


def test_twisted_letter_and_commutation():
    ps, ctx = setup()
    # q^{c theta_i} (mult by x_j) = q^{c delta_ij} (mult by x_j) q^{c theta_i}
    f = ps.field
    for i in range(2):
        for j in range(2):
            diag = diagonal_op(lambda th, i=i: ctx.q ** (3 * th[i]))
            mult = mul_op(MultiSeries.monomial(2, 6, f, tuple(
                1 if p == j else 0 for p in range(2))))
            lhs = compose([diag, mult])
            rhs = compose([mult, diag])
            scale = ctx.q ** 3 if i == j else f.one
            rhs = rhs.scale(scale)
            assert ops_agree_on_monomials(lhs, rhs, 2, 3, 6, f) is None


# -- free-word oracle for the twisted letters --------------------------------


def word_commutation_exponent(a, b, N):
    """Exponent e with  v_a v_b = q^e v_b v_a  for letters tagged
    (kind, index), kind +1 for the raising twist, -1 for the lowering."""
    (ka, ia), (kb, ib) = a, b

    def d(x, y):
        return 1 if (x - y) % N == 0 else 0

    if ka == 1 and kb == 1:
        return d(ia, ib - 1) - d(ia - 1, ib)
    if ka == -1 and kb == -1:
        return d(ia - 1, ib) - d(ia, ib - 1)
    if ka == 1 and kb == -1:
        return 2 * d(ia, ib) - d(ia, ib + 1) - d(ia, ib - 1)
    return -(2 * d(ib, ia) - d(ib, ia + 1) - d(ib, ia - 1))


def normalize_word(word, N):
    """Bubble-sort a word of letters into canonical order, accumulating
    the q-exponent from the two-letter exchange rule."""
    word = list(word)
    e = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                e += word_commutation_exponent(word[i], word[i + 1], N)
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return e, word


def letter_op(letter, scales, ctx, N):
    kind, idx = letter
    return twisted_letter_op(idx, kind, scales[(kind, idx % N)], ctx, N)


def test_word_oracle_matches_operator_composition():
    """Rewriting a word to canonical order with the exchange exponents
    must reproduce the operator composition exactly."""
    rng = random.Random(9)
    for N in (2, 3):
        ps = sample_params(5, N)
        ctx = QContext(ps.sqrt_q, ps.field)
        scales = {}
        for i in range(N):
            scales[(1, i)] = ps.d(i) * ps.dbar(i)
            scales[(-1, i)] = ps.field.one
        for _ in range(30):
            word = [(rng.choice((1, -1)), rng.randrange(N))
                    for _ in range(rng.randrange(1, 5))]
            e, sorted_word = normalize_word(word, N)
            op_plain = compose([letter_op(l, scales, ctx, N) for l in word])
            op_sorted = compose([letter_op(l, scales, ctx, N)
                                 for l in sorted_word]).scale(ctx.q ** e)
            cap = 4 + len(word)
            assert ops_agree_on_monomials(op_plain, op_sorted, N, 4, cap,
                                          ps.field) is None


def test_central_words():
    # v_1 ... v_N = q^{-1} (mass product) Lambda;  reversed: q^{1-N} ...
    for N in (2, 3):
        ps = sample_params(5, N)
        ctx = QContext(ps.sqrt_q, ps.field)
        scales = {i: ps.d(i) * ps.dbar(i) for i in range(N)}
        ones = {i: ps.field.one for i in range(N)}

        def word(indices, direction, sc):
            return compose([twisted_letter_op(i, direction, sc[i], ctx, N)
                            for i in indices])
        up = word(range(N), +1, scales)
        down = word(range(N - 1, -1, -1), +1, scales)
        chk_up = word(range(N), -1, ones)
        chk_down = word(range(N - 1, -1, -1), -1, ones)
        for th in all_monomials(N, 2):
            s = MultiSeries.monomial(N, N + 2, ps.field, th)
            lam_exp = tuple(t + 1 for t in th)
            dn = ps.mass_product()
            assert up(s).get(lam_exp) == dn / ctx.q
            assert down(s).get(lam_exp) == dn * ctx.q ** (1 - N)
            assert chk_up(s).get(lam_exp) == ctx.q
            assert chk_down(s).get(lam_exp) == ctx.q ** (N - 1)


def test_adjoint_moves_borel_through_powers():
    # Ad(q^{(1/2)(theta_i - theta_{i-1})^2}) (c x_i)^n = q^{n/2} (letter)^n
    ps = sample_params(6, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    f = ps.field
    c = ps.d(0) * ps.dbar(0)
    borel = qborel_op(1, ctx)
    borel_inv = qborel_op(-1, ctx)
    letter = twisted_letter_op(0, +1, c, ctx, 2)
    for n in (1, 2, 3):
        plain = mul_op(MultiSeries.monomial(2, 8, f, (n, 0), c ** n))
        lhs = compose([borel, plain, borel_inv])
        rhs = compose([letter] * n).scale(ctx.sqrt_q ** n)
        assert ops_agree_on_monomials(lhs, rhs, 2, 3, 8, f) is None


def test_qexp_inverse_pair():
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    scales = {i: ps.d(i) * ps.dbar(i) for i in range(2)}
    w = twisted_letter_op(0, +1, scales[0], ctx, 2)
    e = op_qexp(w, 1, -ps.field.one, ctx, 5)
    phi = op_qexp_big(w, 1, ps.field.one, ctx, 5)
    for th in all_monomials(2, 2):
        s = MultiSeries.monomial(2, 5, ps.field, th)
        assert phi(e(s)) == s
        assert e(phi(s)) == s


def test_phi_and_eq_series_are_inverse():
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    pref = ps.d(0)
    a = eq_of_monomial(ctx, 2, 6, pref, (1, 0))
    b = phi_of_monomial(ctx, 2, 6, pref, (1, 0))
    assert a * b == MultiSeries.one(2, 6, ps.field)


def test_phi_of_lambda_satisfies_product_functional_equation():
    """Independent oracle for the infinite-product expansion: peeling one
    factor off the product gives  phi(L) = (1 - L) phi(qL), and the first
    coefficient is the closed geometric value -1/(1-q) (the numeric-q
    expansion sums every factor's contribution, so partial products are
    not the coefficients)."""
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    cap = 8
    lhs = phi_of_monomial(ctx, 2, cap, ps.field.one, (1, 1))
    one_minus = MultiSeries.one(2, cap, ps.field)
    one_minus.terms[(1, 1)] = -ps.field.one
    rhs = one_minus * phi_of_monomial(ctx, 2, cap, ctx.q, (1, 1))
    assert lhs == rhs
    assert lhs.get((1, 1)) == -1 / (1 - ctx.q)


def test_phi_of_monomial_rejects_degree_zero():
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    with pytest.raises(ValueError):
        phi_of_monomial(ctx, 2, 4, ps.field.one, (0, 0))
    with pytest.raises(ValueError):
        eq_of_monomial(ctx, 2, 4, ps.field.one, (0, 0))
    with pytest.raises(ValueError):
        rays_op([((0, 0), (1, -1), [ps.field.one])], ctx)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_qexp_of_monomial_is_the_written_out_series(mode):
    ps = sample_params(4, 3, mode)
    ctx = QContext(ps.sqrt_q, ps.field)
    for xvec in ((1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 0, 1)):
        for z in (ps.field.one, ps.d(1), -ps.dbar(2)):
            assert eq_of_monomial(ctx, 3, 7, z, xvec) == \
                qexp_series(eq_coeff, ctx, 3, 7, z, xvec)
            assert phi_of_monomial(ctx, 3, 7, z, xvec) == \
                qexp_series(phi_coeff, ctx, 3, 7, z, xvec)


def test_operators_are_linear():
    rng = random.Random(4)
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    f = ps.field
    ops = [
        qborel_op(1, ctx),
        shift_scaling_op([f.of(2), f.of(5)], f),
        mul_op(eq_of_monomial(ctx, 2, 5, ps.d(0), (1, 0))),
        phi_product_normal_op([ps.d(i) * ps.dbar(i) for i in range(2)],
                              +1, ctx, 2, 5),
        neumann_inverse_op(eq_product_normal_op([f.one, f.one], -1, ctx, 2, 5), 5),
    ]
    for op in ops:
        for _ in range(5):
            sa = MultiSeries(2, 5, f, {
                tuple(rng.randrange(3) for _ in range(2)):
                Fraction(rng.randrange(1, 9)) for _ in range(3)})
            sb = MultiSeries(2, 5, f, {
                tuple(rng.randrange(3) for _ in range(2)):
                Fraction(rng.randrange(1, 9)) for _ in range(3)})
            a = Fraction(rng.randrange(1, 7))
            b = Fraction(rng.randrange(1, 7))
            assert op(sa.scale(a) + sb.scale(b)) == \
                op(sa).scale(a) + op(sb).scale(b)


def test_neumann_inverse():
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    op = eq_product_normal_op([ps.field.one, ps.field.one], -1, ctx, 2, 5)
    inv = neumann_inverse_op(op, 5)
    for th in all_monomials(2, 3):
        s = MultiSeries.monomial(2, 5, ps.field, th)
        assert inv(op(s)) == s
        assert op(inv(s)) == s


def test_exp_and_inverse_series():
    f = RATIONAL
    s = MultiSeries(1, 6, f, {(1,): Fraction(1, 2), (2,): Fraction(-1, 3)})
    e = exp_series(s)
    assert e.get((0,)) == 1
    loge_back = series_inverse(e) * e
    assert loge_back == MultiSeries.one(1, 6, f)


def test_first_offender_is_lowest_degree_then_lexicographic():
    # (0, 3) is the lexicographically least exponent, but of degree 3
    f = RATIONAL
    s = MultiSeries(2, 4, f, {(0, 3): f.one, (2, 0): f.one, (1, 1): f.one})
    assert s.first_offender() == (1, 1)
    assert MultiSeries.zero(2, 4, f).first_offender() is None


@st.composite
def sparse_series(draw):
    """A sparse series over Q or GF(p) in N = 1..3 variables, cap <= 5,
    with a nonzero constant term."""
    f = FIELDS[draw(st.sampled_from(["rational", "prime"]))]
    N = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 5))
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 20))
    exps = draw(st.lists(st.sampled_from(all_monomials(N, cap)), max_size=8))
    terms = {e: f.of(draw(coeff)) for e in exps}
    terms[(0,) * N] = f.of(draw(coeff.filter(bool)))
    return MultiSeries(N, cap, f, terms)


@given(sparse_series())
def test_series_inverse_is_two_sided_inverse(s):
    inv = series_inverse(s)
    one = MultiSeries.one(s.N, s.cap, s.field)
    assert inv * s == one
    assert s * inv == one


def test_single_variable_borel_commutations():
    # Ad(q^{(1/2) theta_i^2}) x_i = q^{1/2} x_i p_i  and
    # Ad(q^{theta_i theta_j}) x_i = x_i p_j  (i != j)
    ps = sample_params(6, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    f = ps.field
    sq_diag = diagonal_op(lambda th: ctx.qpow_half(th[0] * th[0]))
    sq_diag_inv = diagonal_op(lambda th: ctx.qpow_half(-th[0] * th[0]))
    x0 = mul_op(MultiSeries.monomial(2, 6, f, (1, 0)))
    p0 = diagonal_op(lambda th: ctx.q ** th[0])
    lhs = compose([sq_diag, x0, sq_diag_inv])
    rhs = compose([x0, p0]).scale(ctx.sqrt_q)
    assert ops_agree_on_monomials(lhs, rhs, 2, 3, 6, f) is None

    cross = diagonal_op(lambda th: ctx.q ** (th[0] * th[1]))
    cross_inv = diagonal_op(lambda th: ctx.q ** (-th[0] * th[1]))
    p1 = diagonal_op(lambda th: ctx.q ** th[1])
    lhs = compose([cross, x0, cross_inv])
    rhs = compose([x0, p1])
    assert ops_agree_on_monomials(lhs, rhs, 2, 3, 6, f) is None


def all_pairs_product(a, b):
    """Oracle for MultiSeries.__mul__: every pair formed, then cut at the
    left operand's cap."""
    terms = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) <= a.cap:
                terms[k] = terms.get(k, a.field.zero) + va * vb
    return MultiSeries(a.N, a.cap, a.field, terms)


def random_series(rng, N, cap, field, count):
    """Sparse series whose terms include some of degree exactly cap."""
    terms = {}
    for n in range(count):
        total = cap if n % 3 == 0 else rng.randrange(cap + 1)
        cuts = sorted(rng.randrange(total + 1) for _ in range(N - 1))
        k = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        terms[k] = field.of(Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10),
                                     rng.randrange(1, 9)))
    return MultiSeries(N, cap, field, terms)


def test_budgeted_product_matches_all_pairs():
    rng = random.Random(11)
    for field in (RATIONAL, PRIME_FIELD):
        for N, cap in ((1, 0), (1, 7), (2, 5), (3, 4), (4, 3)):
            for _ in range(4):
                a = random_series(rng, N, cap, field, rng.randrange(1, 12))
                b = random_series(rng, N, cap, field, rng.randrange(1, 12))
                assert any(sum(k) == cap for k in a.terms)
                assert a * b == all_pairs_product(a, b)
                assert b * a == all_pairs_product(b, a)


# -- the probe check against the per-monomial scan -----------------------------


def scan_oracle(op_a, op_b, N, degree, cap, field):
    """The per-monomial scan: first basis monomial where the ops differ."""
    for exp in all_monomials(N, degree):
        m = MultiSeries.monomial(N, cap, field, exp)
        if op_a(m) != op_b(m):
            return exp
    return None


def scan_oracles(ref, ops, N, degree, cap, field):
    """The list form of ``scan_oracle``: one scan of ref against each op."""
    return [scan_oracle(ref, op, N, degree, cap, field) for op in ops]


def spike_op(target, c):
    """x^target -> c x^target, every other basis monomial -> 0."""
    target = tuple(target)
    return sparse_op(lambda nu, budget: (((0,) * len(nu), c),)
                     if nu == target else ())


# a difference of 1/3 over Q and -1 in GF(p)
SPIKES = [("rational", Fraction(1, 3)), ("prime", PRIME_FIELD.of(-1))]


def reference_op(mode, N):
    """The identity plus a degree-raising letter behind a q-Borel factor."""
    ps = sample_params(3, N, mode)
    ctx = QContext(ps.sqrt_q, ps.field)
    return ps.field, (identity_op() + compose(
        [qborel_op(1, ctx), twisted_letter_op(0, +1, ps.d(0), ctx, N)]))


@pytest.mark.parametrize("mode,c", SPIKES, ids=[m for m, _ in SPIKES])
@pytest.mark.parametrize("N,degree,cap", [(2, 3, 4), (3, 2, 2)])
def test_probe_finds_a_difference_on_one_monomial(mode, c, N, degree, cap):
    """Every basis monomial in turn, from degree 0 to the top degree, is
    the only one where the pair differs; the report is that monomial."""
    field, ref = reference_op(mode, N)
    ops = [ref + spike_op(target, c) for target in all_monomials(N, degree)]
    for target, op in zip(all_monomials(N, degree), ops):
        assert scan_oracle(ref, op, N, degree, cap, field) == target
        assert ops_agree_on_monomials(ref, op, N, degree, cap, field) == target
        assert ops_agree_on_monomials(op, ref, N, degree, cap, field) == target
    # one reference image for all of them, and the reference itself agrees
    ops.append(compose([identity_op(), ref]))
    got = first_disagreements(ref, ops, N, degree, cap, field)
    assert got == [ops_agree_on_monomials(ref, op, N, degree, cap, field)
                   for op in ops]
    assert got[-1] is None


@pytest.mark.parametrize("mode,c", SPIKES, ids=[m for m, _ in SPIKES])
def test_probe_reports_the_scans_first_offender(mode, c):
    rng = random.Random(4)
    field, ref = reference_op(mode, 3)
    monomials = all_monomials(3, 3)
    ops = []
    for _ in range(6):
        op = ref
        for target in rng.sample(monomials, rng.randrange(2, 5)):
            op = op + spike_op(target, c)
        want = scan_oracle(ref, op, 3, 3, 4, field)
        assert want is not None
        assert ops_agree_on_monomials(ref, op, 3, 3, 4, field) == want
        ops.append(op)
    assert (first_disagreements(ref, ops, 3, 3, 4, field)
            == [ops_agree_on_monomials(ref, op, 3, 3, 4, field) for op in ops]
            == scan_oracles(ref, ops, 3, 3, 4, field))


@pytest.mark.parametrize("mode,c", SPIKES, ids=[m for m, _ in SPIKES])
def test_probe_weights_keep_differences_from_cancelling(mode, c):
    """x^(0,1) -> c x^(1,1) and x^(1,0) -> -c x^(1,1): the two images
    cancel in the plain sum of the monomials, not in the weighted probe."""
    field, ref = reference_op(mode, 2)
    moves = {(0, 1): ((1, 0), c), (1, 0): ((0, 1), -c)}
    op = ref + sparse_op(lambda nu, budget: (moves[nu],) if nu in moves
                         and budget else ())
    assert scan_oracle(ref, op, 2, 2, 2, field) == (0, 1)
    assert ops_agree_on_monomials(ref, op, 2, 2, 2, field) == (0, 1)


@pytest.mark.parametrize("mode,c", SPIKES, ids=[m for m, _ in SPIKES])
@pytest.mark.parametrize("N,cap", [(2, 3), (3, 2)])
def test_probe_ignores_a_difference_past_the_cap(mode, c, N, cap):
    """The pair differs only by x^target -> c x^{target + e_1} on a
    target of degree cap, whose image lies one degree past the cap."""
    field, ref = reference_op(mode, N)
    unit = (1,) + (0,) * (N - 1)
    for target in all_monomials(N, cap):
        if sum(target) < cap:
            continue
        op = ref + sparse_op(lambda nu, budget, target=target:
                             ((unit, c),) if nu == target and budget else ())
        assert scan_oracle(ref, op, N, cap, cap, field) is None
        assert ops_agree_on_monomials(ref, op, N, cap, cap, field) is None
        # one degree more and the difference is in range
        assert ops_agree_on_monomials(ref, op, N, cap, cap + 1,
                                      field) == target


@pytest.mark.parametrize("mode,c", SPIKES, ids=[m for m, _ in SPIKES])
def test_one_reference_against_many_candidates(mode, c):
    """One reference compared with candidates that differ, agree and
    repeat, and with itself, in either order."""
    field, ref = reference_op(mode, 2)
    same = compose([identity_op(), ref, identity_op()])
    cands = [ref, ref + spike_op((1, 1), c), same, ref + spike_op((0, 2), c),
             ref, same, ref + spike_op((0, 0), c)]
    for op in cands + cands[::-1]:
        for a, b in ((ref, op), (op, ref), (op, op)):
            assert (ops_agree_on_monomials(a, b, 2, 2, 3, field)
                    == scan_oracle(a, b, 2, 2, 3, field))
    assert [ops_agree_on_monomials(ref, op, 2, 2, 3, field)
            for op in cands] == [None, (1, 1), None, (0, 2), None, None, (0, 0)]


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_applying_an_op_leaves_the_probe_unchanged(mode):
    field, ref = reference_op(mode, 3)
    probe = probe_series(3, 2, 3, field)
    before = probe.copy()
    first, second = ref(probe), ref(probe)
    assert probe.terms == before.terms == probe_series(3, 2, 3, field).terms
    assert first == second
    assert sorted(probe.terms) == all_monomials(3, 2)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_reference_runs_once_when_every_op_agrees(mode):
    field, ref = reference_op(mode, 3)
    calls = []

    def counted(s):
        calls.append(s)
        return ref(s)

    ops = [ref, compose([identity_op(), ref]), ref + identity_op().scale(0)]
    assert first_disagreements(counted, ops, 3, 2, 3, field) == [None] * 3
    assert len(calls) == 1
    assert calls[0].terms == probe_series(3, 2, 3, field).terms
