import hashlib
import random
from fractions import Fraction
from math import prod

import pytest

from qlaumon import hamiltonian, scalars
from qlaumon.hamiltonian import (HamiltonianSpec, build_blocks, center_block,
                                 check_borel_moved_triple, check_dynkin_family,
                                 check_form_equivalence,
                                 check_mass_truncated_equation, check_pentagon,
                                 cyclic_matrix_factorization_check,
                                 hamiltonian_op, lambda_block, left_block,
                                 mass_truncated_params, moved_borel_expression,
                                 right_block, verify_conjecture)
from qlaumon.nekrasov import gl1_closed_solution, solution_series
from qlaumon.params import sample_params
from qlaumon.qfun import QContext
from qlaumon.scalars import RATIONAL
from qlaumon.series import (MultiSeries, all_monomials, eq_coeff,
                            eq_of_monomial, first_disagreements, mul_op,
                            ops_agree_on_monomials, phi_coeff, phi_of_monomial,
                            probe_series, qexp_ray, rays_op, sparse_op)
from oracles import composed_chain, composed_rays, qexp_series
from test_series import scan_oracles


def test_rank_one_blocks_are_the_four_infinite_products():
    # H reduces to phi(x) phi(d dbar x) / (phi(d x) phi(dbar x)) T
    ps = sample_params(3, 1)
    ctx = QContext(ps.sqrt_q, ps.field)
    spec = HamiltonianSpec(ps, "simple", 6)
    left, center, right, borel, shift = build_blocks(spec)
    f = ps.field
    mono = MultiSeries.one(1, 6, f)
    assert left(mono) == phi_of_monomial(ctx, 1, 6, f.one, (1,))
    assert right(mono) == phi_of_monomial(ctx, 1, 6, ps.d(0) * ps.dbar(0), (1,))
    expect_c = eq_of_monomial(ctx, 1, 6, ps.d(0), (1,)) \
        * eq_of_monomial(ctx, 1, 6, ps.dbar(0), (1,))
    assert center(mono) == expect_c
    assert borel(MultiSeries.monomial(1, 6, f, (3,))) == \
        MultiSeries.monomial(1, 6, f, (3,))  # Delta vanishes at rank one
    assert shift(MultiSeries.monomial(1, 6, f, (2,))).get((2,)) == \
        ps.kappa ** 2


def test_center_block_first_order_coefficients():
    # 1/phi(z) = 1 + z/(1-q) + O(z^2), so the center block on the constant
    # monomial is 1 + sum_k (d_k + dbar_k)/(1-q) x_k + O(2)
    ps = sample_params(5, 3)
    spec = HamiltonianSpec(ps, "normal", 2)
    out = center_block(spec)(MultiSeries.one(3, 2, ps.field))
    for k in range(3):
        vec = tuple(1 if p == k else 0 for p in range(3))
        assert out.get(vec) == (ps.d(k) + ps.dbar(k)) / (1 - ps.q)


def test_center_block_matches_dense_product():
    # oracle: multiplication by the dense N-variable product of the 2N
    # one-variable series, which the block no longer expands
    rng = random.Random(3)
    for mode in ("rational", "prime"):
        for N, cap in ((1, 6), (2, 5), (3, 4), (4, 4)):
            ps = sample_params(2, N, mode)
            ctx = QContext(ps.sqrt_q, ps.field)
            spec = HamiltonianSpec(ps, cap=cap)
            dense = MultiSeries.one(N, cap, ps.field)
            for k in range(N):
                vec = tuple(1 if p == k else 0 for p in range(N))
                dense = dense * eq_of_monomial(ctx, N, cap, ps.d(k), vec)
                dense = dense * eq_of_monomial(ctx, N, cap, ps.dbar(k), vec)
            s = MultiSeries(N, cap, ps.field, {
                tuple(rng.randrange(2) for _ in range(N)):
                ps.field.of(rng.randrange(1, 9)) for _ in range(5)})
            assert center_block(spec)(s) == dense * s


def _word_lists(N):
    return [(tag, i, words(i, N)) for tag, words in (
        ("conjugated", hamiltonian._conjugated_words),
        ("lower", hamiltonian._lower_words),
        ("upper", hamiltonian._upper_words)) for i in range(N)]


def _both_letters(spec):
    """The hat letters of R and the check letters of L."""
    return {+1: hamiltonian._twisted(spec, +1, hamiltonian._hat_scales(spec)),
            -1: hamiltonian._twisted(spec, -1, [spec.params.field.one] * spec.N)}


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("N, degree", [(2, 5), (3, 4), (4, 3), (5, 3)])
def test_chain_rays_match_the_composed_letter_oracle(mode, N, degree):
    """Every word list of the block family, read forwards as in R and
    backwards as in L, in both letter directions, acts as the power sums
    of the composed letters; the Lambda and center blocks act as
    multiplication by their series written out term by term."""
    ps = sample_params(2, N, mode)
    f = ps.field
    spec = HamiltonianSpec(ps, "simple", degree)
    ctx = spec.ctx
    for tag, i, words in _word_lists(N):
        backwards = [(word[::-1], kind) for word, kind in reversed(words)]
        for direction, letter in _both_letters(spec).items():
            for chain in (words, backwards):
                assert first_disagreements(
                    composed_chain(spec, chain, letter),
                    [hamiltonian._chain(spec, chain, letter)],
                    N, degree, degree, f) == [None], (tag, i, direction)
    for outer in (False, True):
        pref = ps.q ** (1 - N) * ps.mass_product() if outer else f.one
        series = qexp_series(phi_coeff, ctx, N, degree, pref, (1,) * N)
        assert first_disagreements(mul_op(series), [lambda_block(spec, outer)],
                                   N, degree, degree, f) == [None]
    series = MultiSeries.one(N, degree, f)
    for k in range(N):
        for z in (ps.d(k), ps.dbar(k)):
            series = series * qexp_series(eq_coeff, ctx, N, degree, z, tuple(
                int(p == k) for p in range(N)))
    assert first_disagreements(mul_op(series), [center_block(spec)],
                               N, degree, degree, f) == [None]


def _kernel_inputs(N, cap, f):
    """The probe, the probe with every third term taken out, the zero
    series and each monomial at the cap."""
    probe = probe_series(N, cap, cap, f)
    holes = MultiSeries(N, cap, f, {k: v for n, (k, v) in enumerate(
        sorted(probe.terms.items())) if n % 3})
    return [probe, holes, MultiSeries.zero(N, cap, f)] + [
        MultiSeries.monomial(N, cap, f, k, f.of(7))
        for k in all_monomials(N, cap) if sum(k) == cap]


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("N, cap", [(2, 5), (3, 4), (4, 3), (5, 3)])
def test_rays_op_matches_the_composed_sparse_rays(mode, N, cap):
    """The dense kernel equals the composition of the sparse oracle rays
    on the rays of every word list (forwards and backwards, both letter
    directions), of the Lambda and center blocks, of a chain with a
    Lambda ray on either side and of a q-exponential of a monomial, and
    stores no zero."""
    ps = sample_params(2, N, mode)
    f = ps.field
    spec = HamiltonianSpec(ps, "higher", cap)
    ctx = spec.ctx
    ray_lists = []
    for _, _, words in _word_lists(N):
        backwards = [(word[::-1], kind) for word, kind in reversed(words)]
        for letter in _both_letters(spec).values():
            ray_lists += [hamiltonian._chain_rays(spec, chain, letter)
                          for chain in (words, backwards)]
    lambdas = [hamiltonian._lambda_ray(spec, outer) for outer in (False, True)]
    ray_lists += [[ray] for ray in lambdas]
    # twisted and untwisted rays in one list, as in L and R
    ray_lists += [ray_lists[0] + lambdas[:1], lambdas[1:] + ray_lists[1]]
    ray_lists += [[qexp_ray(coeff, ctx, ps.d(0), (1,) + (0,) * (N - 2) + (2,),
                            (0,) * N, cap)] for coeff in (eq_coeff, phi_coeff)]
    pairs = [(rays_op(rays, ctx), composed_rays(rays, ctx))
             for rays in ray_lists]
    # the center block against one oracle ray per q-exponential
    pairs.append((center_block(spec), composed_rays([
        qexp_ray(eq_coeff, ctx, z, [int(p == k) for p in range(N)], [0] * N,
                 cap) for k in range(N) for z in (ps.d(k), ps.dbar(k))],
        ctx)))
    inputs = _kernel_inputs(N, cap, f)
    for op, oracle in pairs:
        for s in inputs:
            out = op(s)
            assert out == oracle(s)
            assert all(out.terms.values())


def _block_oracles(spec):
    """L, C and R of ``build_blocks``, each with the composition of the
    sparse oracle rays of its ray list (C with one ray per q-exponential)."""
    ps, N, ctx = spec.params, spec.N, spec.ctx
    backwards = [(word[::-1], kind)
                 for word, kind in reversed(hamiltonian._block_words(spec))]
    left_rays = hamiltonian._chain_rays(
        spec, backwards, hamiltonian._twisted(spec, -1, [ps.field.one] * N)
    ) + [hamiltonian._lambda_ray(spec)]
    right_rays = [hamiltonian._lambda_ray(spec, outer=True)] + \
        hamiltonian._chain_rays(spec, hamiltonian._block_words(spec),
                                hamiltonian._twisted(
                                    spec, +1, hamiltonian._hat_scales(spec)))
    center_rays = [qexp_ray(eq_coeff, ctx, z, [int(p == k) for p in range(N)],
                            [0] * N, spec.cap)
                   for k in range(N) for z in (ps.d(k), ps.dbar(k))]
    left, center, right = build_blocks(spec)[:3]
    return [(op, composed_rays(rays, ctx)) for op, rays in (
        (left, left_rays), (center, center_rays), (right, right_rays))]


def _primes_below(n, count):
    """The ``count`` largest primes below n."""
    out = []
    while len(out) < count:
        n -= 1
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def _tall_fractions(N, cap, rng, shared):
    """Every exponent up to the cap with a random Fraction of height up to
    10^6: the denominators products of the prime powers of 720720 (shared
    factors) or distinct primes (pairwise coprime)."""
    keys = all_monomials(N, cap)
    if shared:
        powers = [16, 9, 5, 7, 11, 13]
        dens = [prod(rng.sample(powers, rng.randint(1, 6))) for _ in keys]
    else:
        dens = _primes_below(10 ** 6, len(keys))
    return MultiSeries(N, cap, RATIONAL, {k: Fraction(
        rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), d)
        for k, d in zip(keys, dens)})


@pytest.mark.parametrize("form", ["higher", "simple"])
@pytest.mark.parametrize("N, cap", [(2, 9), (3, 6), (4, 5)])
def test_rays_op_over_q_at_real_heights(form, N, cap):
    """Over Q the kernel, integers over one common denominator, equals the
    composed sparse oracle rays for L, C and R of ``build_blocks`` on the
    solution series of the verify-rational draws (parameter seeds 3-5),
    on random Fractions of height up to 10^6 with shared and with coprime
    denominators, and on a source whose image cancels at one exponent,
    where it stores no zero."""
    rng = random.Random("kernel heights %d %d" % (N, cap))
    for pseed in (3, 4, 5):
        spec = HamiltonianSpec(sample_params(pseed, N, "rational"), form, cap)
        psi = solution_series(spec.params, cap)
        inputs = [psi]
        if pseed == 3:
            inputs += [_tall_fractions(N, cap, rng, shared)
                       for shared in (True, False)]
        for op, oracle in _block_oracles(spec):
            for s in inputs:
                out = op(s)
                assert out == oracle(s)
                assert all(out.terms.values())
            # psi minus the image's coefficient at e times x^e: op keeps
            # x^e's own coefficient 1, so the image vanishes at e
            e = sorted(all_monomials(N, cap // 2))[-1]
            c = op(psi).get(e)
            assert c
            cancel = psi - MultiSeries.monomial(N, cap, RATIONAL, e, c)
            out = op(cancel)
            assert e not in out.terms
            assert out == oracle(cancel)
            assert all(out.terms.values())


def _k0_off_by_one(coeff, ctx, z, U, w, cap):
    """The ray of a word of letters with k0 one too large."""
    return qexp_ray(coeff, ctx, z * ctx.qpow_half(1) if any(w) else z,
                    U, w, cap)


def _no_quadratic_term(coeff, ctx, z, U, w, cap):
    """The ray without the power q^{C(n,2) w.U/2}."""
    return U, w, [coeff(ctx, z, n) for n in range(1, cap // sum(U) + 1)]


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("mutant", [_k0_off_by_one, _no_quadratic_term])
def test_a_wrong_word_kernel_is_reported(monkeypatch, mode, mutant):
    """Negative control: with a wrong closed power of the words, every
    ray chain differs from the composed-letter oracle, and the simple
    blocks from the higher and the normal-ordered ones."""
    N, degree = 3, 3
    monkeypatch.setattr(hamiltonian, "qexp_ray", mutant)
    spec = HamiltonianSpec(sample_params(2, N, mode), "simple", degree)
    for direction, letter in _both_letters(spec).items():
        for _, _, words in _word_lists(N):
            assert first_disagreements(
                composed_chain(spec, words, letter),
                [hamiltonian._chain(spec, words, letter)],
                N, degree, degree, spec.params.field) != [None]
    pairs = {(side, pair) for side, pair, _ in
             check_form_equivalence(N, degree, 2, mode)}
    assert pairs == {(side, "simple-vs-" + other) for side in ("left", "right")
                     for other in ("higher", "normal")}


@pytest.mark.parametrize("mode", ["rational", "prime"])
@pytest.mark.parametrize("form, N, cap", [("simple", 3, 5), ("higher", 3, 5),
                                          ("normal", 3, 5), ("higher", 4, 4)])
def test_blocks_raise_exponents_componentwise_and_store_no_zero(
        mode, form, N, cap):
    """Every block of H maps x^nu into the span of the x^mu with mu >= nu
    componentwise, and stores no zero coefficient."""
    ps = sample_params(2, N, mode)
    spec = HamiltonianSpec(ps, form, cap)
    for name, block in zip("LCRBT", build_blocks(spec)):
        for nu in all_monomials(N, cap):
            out = block(MultiSeries.monomial(N, cap, ps.field, nu))
            assert all(all(map(int.__le__, nu, mu)) for mu in out.terms), \
                (name, nu)
            assert all(out.terms.values()), (name, nu)


@pytest.mark.parametrize("form, N, cap", [("higher", 4, 5), ("simple", 3, 6),
                                          ("higher", 5, 9)])
def test_prime_blocks_invert_once_per_qq(form, N, cap, monkeypatch):
    # every GF(p) inversion goes through pow(r, -1, PRIME) or a negative
    # power in the scalars module
    inversions = []

    def counted_pow(base, exp, mod=None):
        if exp < 0:
            inversions.append(base)
        return pow(base, exp, mod)

    spec = HamiltonianSpec(sample_params(2, N, "prime"), form, cap)
    monkeypatch.setattr(scalars, "pow", counted_pow, raising=False)
    build_blocks(spec)
    # 1/(q;q)_n for 0 < n <= cap, the N ratios b_i/b_{i+1} of the shift,
    # 1/sqrt_q and q^{1-N}: none per q-exponential coefficient
    assert len(inversions) <= cap + N + 2


def test_hamiltonian_annihilates_zero():
    ps = sample_params(5, 2)
    spec = HamiltonianSpec(ps, "normal", 3)
    assert hamiltonian_op(spec)(MultiSeries.zero(2, 3, ps.field)).is_zero()


def test_rank_one_eigenfunction_through_degree_eight():
    ps = sample_params(3, 1)
    psi = gl1_closed_solution(ps, 8)
    spec = HamiltonianSpec(ps, "normal", 8)
    assert (hamiltonian_op(spec)(psi) - psi).is_zero()


def test_three_forms_agree_on_x1():
    ps = sample_params(5, 2)
    outs = []
    for form in ("simple", "higher", "normal"):
        spec = HamiltonianSpec(ps, form, 3)
        outs.append(hamiltonian_op(spec)(
            MultiSeries.monomial(2, 3, ps.field, (1, 0))))
    assert outs[0] == outs[1] == outs[2]


def test_form_equivalence_reports_empty():
    assert check_form_equivalence(2, 3) == []
    assert check_form_equivalence(3, 2) == []


def test_left_blocks_on_constant_monomial():
    ps = sample_params(5, 3)
    specs = [HamiltonianSpec(ps, fm, 3) for fm in ("simple", "higher", "normal")]
    outs = [left_block(s)(MultiSeries.one(3, 3, ps.field)) for s in specs]
    assert outs[0] == outs[1] == outs[2]


def test_gl2_symmetric_matches_simple():
    ps = sample_params(7, 2)
    h1 = hamiltonian_op(HamiltonianSpec(ps, "simple", 3))
    h2 = hamiltonian_op(HamiltonianSpec(ps, "gl2-symmetric", 3))
    assert ops_agree_on_monomials(h1, h2, 2, 3, 3, ps.field) is None


def test_gl2_symmetric_requires_rank_two():
    ps = sample_params(7, 3)
    with pytest.raises(ValueError):
        HamiltonianSpec(ps, "gl2-symmetric", 3)


def test_borel_moved_hamiltonian_matches_simple():
    ps = sample_params(7, 2)
    h1 = hamiltonian_op(HamiltonianSpec(ps, "simple", 3))
    h3 = hamiltonian_op(HamiltonianSpec(ps, "borel-moved", 3))
    assert ops_agree_on_monomials(h1, h3, 2, 3, 3, ps.field) is None


def test_pentagon():
    assert check_pentagon(3, 3) == []
    assert check_pentagon(2, 3) == []  # empty by convention


def test_dynkin_families_coincide():
    assert check_dynkin_family(3, 2) == []


def test_pentagon_and_family_are_empty_below_rank_three(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled parameters for N < 3")
    monkeypatch.setattr(hamiltonian, "sample_params", no_sampling)
    assert check_pentagon(2, 3) == check_dynkin_family(2, 3) == []


def _spiked(op, field, target):
    """op, changed by 5 x^target on x^target only."""
    c = field.of(5)
    return op + sparse_op(lambda nu, budget: (((0,) * len(nu), c),)
                          if nu == target else ())


def _spike_chains(monkeypatch, spikes, built=None):
    """Patch ``_chain`` so that the chain of each word list in spikes is
    changed on its target monomial only; each word list that ``_chain``
    builds is appended to ``built``."""
    chain = hamiltonian._chain

    def spiked(spec, words, letter):
        if built is not None:
            built.append(words)
        op = chain(spec, words, letter)
        for spiked_words, target in spikes:
            if words == spiked_words:
                return _spiked(op, spec.params.field, target)
        return op
    monkeypatch.setattr(hamiltonian, "_chain", spiked)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_dynkin_family_failures_match_the_scan(monkeypatch, mode):
    """With three family members broken, the probe check reports the same
    (tag, i, where) triples as the per-monomial scan."""
    _spike_chains(monkeypatch, [
        (hamiltonian._conjugated_words(2, 3), (1, 0, 1)),
        (hamiltonian._lower_words(1, 3), (0, 1, 1)),
        (hamiltonian._upper_words(0, 3), (0, 0, 0))])
    bad = check_dynkin_family(3, 2, 4, mode)
    monkeypatch.setattr(hamiltonian, "first_disagreements", scan_oracles)
    assert check_dynkin_family(3, 2, 4, mode) == bad
    assert bad == [("upper", 0, (0, 0, 0)), ("lower", 1, (0, 1, 1)),
                   ("conjugated", 2, (1, 0, 1))]


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_dynkin_family_reports_every_member_against_a_broken_reference(
        monkeypatch, mode):
    """With the conjugated expression at 0 (the reference) broken, each of
    the other 3N - 1 members is reported at the broken monomial, and the
    reference is built once: it is not compared with a second build of
    itself."""
    N, target = 3, (0, 1, 0)
    conjugated = [hamiltonian._conjugated_words(i, N) for i in range(N)]
    built = []
    _spike_chains(monkeypatch, [(conjugated[0], target)], built)
    bad = check_dynkin_family(N, 2, 4, mode)
    assert bad == [(tag, i, target) for i in range(N)
                   for tag in ("conjugated", "lower", "upper")
                   if (tag, i) != ("conjugated", 0)]
    assert len(bad) == 3 * N - 1
    assert [conjugated.index(w) for w in built if w in conjugated] == \
        list(range(N))


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_twist_read_as_e_breaks_both_outer_blocks(monkeypatch, mode):
    """Negative control: the phi twist of the simple-root chain read as e.
    L reads R's word list backwards, so the simple form's L and R both
    differ from the normal-ordered ones; the block family and the
    moved-Borel expressions read the same list and fail as well."""
    conjugated = hamiltonian._conjugated_words

    def untwisted(i, N):
        words = conjugated(i, N)
        k = [kind for _, kind in words].index("phi")
        return words[:k] + [(words[k][0], "e")] + words[k + 1:]

    monkeypatch.setattr(hamiltonian, "_conjugated_words", untwisted)
    pairs = {(side, pair) for side, pair, _ in
             check_form_equivalence(3, 2, 1, mode)}
    assert {("left", "simple-vs-normal"), ("right", "simple-vs-normal")} <= pairs
    assert check_dynkin_family(3, 2, 1, mode)
    assert check_borel_moved_triple(3, 2, 1, mode)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_rank_one_outer_blocks_are_the_lambda_blocks(mode):
    # at N = 1 the word lists are empty, so in every form L is phi(Lambda)
    # and R is phi(q^{1-N} D_N Lambda)
    ps = sample_params(3, 1, mode)
    for form in ("simple", "higher", "normal"):
        spec = HamiltonianSpec(ps, form, 6)
        for block, outer in ((left_block, False), (right_block, True)):
            assert first_disagreements(lambda_block(spec, outer),
                                       [block(spec)], 1, 6, 6,
                                       ps.field) == [None], (form, outer)


@pytest.mark.parametrize("form, N", [("gl2-symmetric", 2), ("borel-moved", 3)])
def test_build_blocks_rejects_the_forms_without_blocks(form, N):
    spec = HamiltonianSpec(sample_params(7, N), form, 3)
    with pytest.raises(ValueError, match=form):
        build_blocks(spec)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_form_equivalence_failures_match_the_scan(monkeypatch, mode):
    """A left block broken in one form and a right block in another are
    reported as the per-monomial scan reports them."""
    for name, form, target in (("left_block", "normal", (1, 1)),
                               ("right_block", "higher", (0, 2))):
        def block(spec, build=getattr(hamiltonian, name), form=form,
                  target=target):
            op = build(spec)
            return (_spiked(op, spec.params.field, target)
                    if spec.form == form else op)
        monkeypatch.setattr(hamiltonian, name, block)
    bad = check_form_equivalence(2, 2, 3, mode)
    monkeypatch.setattr(hamiltonian, "first_disagreements", scan_oracles)
    assert check_form_equivalence(2, 2, 3, mode) == bad
    assert bad == [("left", "simple-vs-normal", (1, 1)),
                   ("right", "simple-vs-higher", (0, 2))]


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_moved_borel_failures_match_the_scan(monkeypatch, mode):
    """Both moved expressions broken, each on its own monomial: reported
    as the per-monomial scan reports them."""
    targets = {1: (0, 1, 1), 2: (2, 0, 0)}
    moved = hamiltonian.moved_borel_expression

    def broken(ps, cap, which, scales=None):
        op = moved(ps, cap, which, scales)
        return (_spiked(op, ps.field, targets[which]) if which in targets
                else op)

    monkeypatch.setattr(hamiltonian, "moved_borel_expression", broken)
    bad = check_borel_moved_triple(3, 2, 4, mode)
    monkeypatch.setattr(hamiltonian, "first_disagreements", scan_oracles)
    assert check_borel_moved_triple(3, 2, 4, mode) == bad
    assert bad == [(1, (0, 1, 1)), (2, (2, 0, 0))]


def test_moved_borel_triple():
    assert check_borel_moved_triple(3, 2) == []
    # identity on the constant monomial
    ps = sample_params(5, 3)
    e0 = moved_borel_expression(ps, 2, 0)
    e2 = moved_borel_expression(ps, 2, 2)
    one = MultiSeries.one(3, 2, ps.field)
    assert e0(one) == e2(one)


def test_verify_conjecture_report_shape():
    rep = verify_conjecture(2, 3, seed=5)
    assert rep.ok
    assert rep.per_degree == [(d, 0) for d in range(4)]
    assert rep.first_offender is None


def test_verify_conjecture_detects_wrong_series():
    ps = sample_params(5, 2)
    psi = solution_series(ps, 3)
    psi.terms[(1, 0)] = psi.get((1, 0)) + ps.field.one  # sabotage
    spec = HamiltonianSpec(ps, "normal", 3)
    assert not (hamiltonian_op(spec)(psi) - psi).is_zero()


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_verify_conjecture_names_the_first_offender(monkeypatch, mode):
    # psi with the coefficient of x^(1,0) moved by one: H psi - psi is
    # nonzero from degree 1 on, and the report names x^(1,0)
    solution = hamiltonian.solution_series

    def moved(ps, cap):
        psi = solution(ps, cap)
        psi.terms[(1, 0)] = psi.get((1, 0)) + 1
        return psi

    monkeypatch.setattr(hamiltonian, "solution_series", moved)
    report = verify_conjecture(2, 3, mode=mode)
    assert not report.ok
    assert report.first_offender == (1, 0)
    assert report.per_degree[0] == (0, 0) and report.per_degree[1][1] > 0


def test_mass_truncation_support_and_equation():
    sup, eq, psi = check_mass_truncated_equation(2, (1, 1), 4)
    assert sup and eq
    sup, eq, psi = check_mass_truncated_equation(3, (1, 0, 1), 3)
    assert sup and eq


def test_mass_truncation_zero_vector_collapses_to_diagonal():
    sup, eq, psi = check_mass_truncated_equation(2, (0, 0), 4)
    assert sup and eq
    assert all(th[0] == th[1] for th in psi.terms)


def test_mass_truncated_params_set_exact_power():
    ps = sample_params(5, 2)
    trunc = mass_truncated_params(ps, (2, 1))
    assert trunc.dbar(0) == ps.q ** -2
    assert trunc.dbar(1) == ps.q ** -1


def test_cyclic_matrix_factorization():
    rng = random.Random(4)
    for n in (2, 3, 4, 6):
        xs = [Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
              for _ in range(n)]
        z = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        assert cyclic_matrix_factorization_check(xs, z, RATIONAL)
    assert cyclic_matrix_factorization_check([Fraction(0)] * 4, Fraction(3),
                                             RATIONAL)


def test_prime_mode_verification():
    rep = verify_conjecture(2, 3, seed=5, mode="prime")
    assert rep.ok


def test_hamiltonian_coefficients_pinned():
    # sha1 of the sorted terms of H psi, recorded with the dense center
    # product and the all-pairs series product
    ps = sample_params(2, 3, "prime")
    psi = solution_series(ps, 5)
    for form in ("normal", "simple", "higher"):
        out = hamiltonian_op(HamiltonianSpec(ps, form, 5))(psi)
        digest = hashlib.sha1(repr(sorted(
            (k, v.r) for k, v in out.terms.items())).encode()).hexdigest()
        assert digest == "39c8f58257ff3af0ffa3289900393504a4fc9a62", form
