import hashlib
import random
from fractions import Fraction

import pytest

from qlaumon import hamiltonian
from qlaumon.hamiltonian import (HamiltonianSpec, apply_hamiltonian,
                                 build_blocks, center_block,
                                 check_borel_moved_triple, check_dynkin_family,
                                 check_form_equivalence,
                                 check_mass_truncated_equation, check_pentagon,
                                 cyclic_matrix_factorization_check,
                                 hamiltonian_op, left_block,
                                 mass_truncated_params, moved_borel_expression,
                                 verify_conjecture)
from qlaumon.nekrasov import gl1_closed_solution, solution_series
from qlaumon.params import sample_params
from qlaumon.qfun import QContext
from qlaumon.scalars import spow
from qlaumon.series import (MultiSeries, eq_of_monomial,
                            ops_agree_on_monomials,
                            phi_of_monomial, sparse_op)
from test_series import scan_oracle


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
        spow(ps.kappa, 2)


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


def test_hamiltonian_annihilates_zero():
    ps = sample_params(5, 2)
    spec = HamiltonianSpec(ps, "normal", 3)
    assert apply_hamiltonian(spec, MultiSeries.zero(2, 3, ps.field)).is_zero()


def test_rank_one_eigenfunction_through_degree_eight():
    ps = sample_params(3, 1)
    psi = gl1_closed_solution(ps, 8)
    spec = HamiltonianSpec(ps, "normal", 8)
    assert (apply_hamiltonian(spec, psi) - psi).is_zero()


def test_three_forms_agree_on_x1():
    ps = sample_params(5, 2)
    outs = []
    for form in ("simple", "higher", "normal"):
        spec = HamiltonianSpec(ps, form, 3)
        outs.append(apply_hamiltonian(
            spec, MultiSeries.monomial(2, 3, ps.field, (1, 0))))
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


def _broken(build, broken_at, target):
    """build, with the member at index broken_at changed on x^target only."""
    def member(spec, i, sc):
        op = build(spec, i, sc)
        if i != broken_at:
            return op
        c = spec.params.field.of(5)
        return op + sparse_op(lambda nu, budget: (((0,) * len(nu), c),)
                              if nu == target else ())
    return member


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_dynkin_family_failures_match_the_scan(monkeypatch, mode):
    """With three family members broken, the probe check reports the same
    (tag, i, where) triples as the per-monomial scan."""
    for name, i, target in (("_family_conjugated", 2, (1, 0, 1)),
                            ("_family_lower_words", 1, (0, 1, 1)),
                            ("_family_upper_words", 0, (0, 0, 0))):
        monkeypatch.setattr(hamiltonian, name,
                            _broken(getattr(hamiltonian, name), i, target))
    bad = check_dynkin_family(3, 2, 4, mode)
    monkeypatch.setattr(hamiltonian, "ops_agree_on_monomials", scan_oracle)
    assert check_dynkin_family(3, 2, 4, mode) == bad
    assert bad == [("upper", 0, (0, 0, 0)), ("lower", 1, (0, 1, 1)),
                   ("conjugated", 2, (1, 0, 1))]


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
    d = rep.as_dict()
    assert d["status"] == "pass" and d["first_offender"] is None


def test_verify_conjecture_detects_wrong_series():
    ps = sample_params(5, 2)
    psi = solution_series(ps, 3)
    psi.terms[(1, 0)] = psi.get((1, 0)) + ps.field.one  # sabotage
    spec = HamiltonianSpec(ps, "normal", 3)
    assert not (apply_hamiltonian(spec, psi) - psi).is_zero()


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
    assert trunc.dbar(0) == spow(ps.q, -2)
    assert trunc.dbar(1) == spow(ps.q, -1)


def test_cyclic_matrix_factorization():
    rng = random.Random(4)
    for n in (2, 3, 4, 6):
        xs = [Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
              for _ in range(n)]
        z = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        assert cyclic_matrix_factorization_check(xs, z)
    assert cyclic_matrix_factorization_check([Fraction(0)] * 4, Fraction(3))


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
