"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Every comparison is exact (coefficientwise over the rationals or
the fixed prime field); the only tolerances are the stated wall-clock
budgets.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from qlaumon.fourd import (AdditiveParams, check_poch_4d,
                           check_transport_identity, fst_check)
from qlaumon.hamiltonian import (HamiltonianSpec, check_borel_moved_triple,
                                 check_dynkin_family, check_form_equivalence,
                                 check_mass_truncated_equation, check_pentagon,
                                 hamiltonian_op, verify_conjecture)
from qlaumon.jackson import CocycleSpec, cocycle_eval, cocycle_rank, expected_rank
from qlaumon.nekrasov import (LaumonParams, check_inversion_symmetry,
                              check_poch_sinh_relation, gl1_closed_partition,
                              gl1_closed_solution, nek_context, nek_sinh,
                              solution_series, solution_spectral_params)
from qlaumon.params import rand_square, sample_params
from qlaumon.partitions import partitions_up_to
from qlaumon.qfun import QContext
from qlaumon.rmatrix import (check_transition, closed_matrix, compositions,
                             connection_matrix, draw_mass_data, s_of_m,
                             support_size_formula, support_to_composition)
from qlaumon.series import ops_agree_on_monomials

from oracles import nek_matter_anti, nek_matter_fund


def report(name, started, ok, limit=None):
    took = time.monotonic() - started
    print("ACCEPTANCE %-38s %s  (%.2f s%s)"
          % (name, "PASS" if ok else "FAIL", took,
             "" if limit is None else " / limit %ds" % limit))
    assert ok, name
    if limit is not None:
        assert took < limit, "%s exceeded %d s (took %.1f s)" % (name, limit, took)


def test_criterion_01_rank_one_exact():
    t0 = time.monotonic()
    rep = verify_conjecture(1, 8, seed=1)
    ok = rep.ok and all(n == 0 for _, n in rep.per_degree)
    ps = sample_params(1, 1)
    ok = ok and solution_series(ps, 8) == gl1_closed_solution(ps, 8)
    lp = solution_spectral_params(ps)
    from qlaumon.nekrasov import laumon_partition_function
    ok = ok and laumon_partition_function(lp, 8, "sinh") == \
        gl1_closed_partition(lp.sqrt_a[0], lp.sqrt_b[0], lp.sqrt_c[0], lp.nc, 8)
    report("1: rank-one exact, degree 8", t0, ok, limit=5)


def test_criterion_02_rank_two_exact_and_symmetric_form():
    t0 = time.monotonic()
    rep = verify_conjecture(2, 5, seed=1)
    ok = rep.ok
    ps = sample_params(1, 2)
    h1 = hamiltonian_op(HamiltonianSpec(ps, "simple", 5))
    h2 = hamiltonian_op(HamiltonianSpec(ps, "gl2-symmetric", 5))
    ok = ok and ops_agree_on_monomials(h1, h2, 2, 5, 5, ps.field) is None
    report("2: rank-two exact + symmetric form", t0, ok, limit=120)


def test_criterion_03_rank_three_and_four_evidence():
    t0 = time.monotonic()
    ok = verify_conjecture(3, 3, seed=1, mode="rational").ok
    report("3a: rank-three degree 3 (rational)", t0, ok, limit=900)
    t0 = time.monotonic()
    ok = verify_conjecture(3, 4, seed=1, mode="prime").ok
    report("3b: rank-three degree 4 (prime)", t0, ok, limit=900)
    t0 = time.monotonic()
    ok = verify_conjecture(4, 2, seed=1, mode="prime").ok
    report("3c: rank-four degree 2 (prime)", t0, ok, limit=900)


def test_criterion_04_form_equivalence():
    t0 = time.monotonic()
    ok = all(check_form_equivalence(N, 3, seed=2) == [] for N in (2, 3, 4))
    report("4: three forms agree, degree 3", t0, ok)


def test_criterion_05_pentagon_dynkin_and_triple():
    t0 = time.monotonic()
    ok = check_pentagon(3, 4, seed=2) == []
    ok = ok and all(check_dynkin_family(N, 3, seed=2) == [] for N in (3, 4))
    ok = ok and all(check_borel_moved_triple(N, 2, seed=2) == [] for N in (3, 4))
    report("5: pentagon / block family / triple", t0, ok)


def test_criterion_06_rmatrix_closed_equals_solve():
    t0 = time.monotonic()
    ok = True
    for (N, M) in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        for point in (1, 2, 3):
            rng = random.Random(("acc6", N, M, point).__repr__())
            ps = sample_params(40 + point, N)
            ctx = QContext(ps.sqrt_q, ps.field)
            mus, sqrt_mus, lam = draw_mass_data(rng, ps.field, ctx, N, M)
            rc, _ = connection_matrix(N, M, lam, mus, ctx)  # checks B'B = 1
            rx, _ = closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
            ok = ok and rc == rx
    ps = sample_params(1, 2)
    ctx = QContext(ps.sqrt_q, ps.field)
    a, b, c = Fraction(2, 7), Fraction(3, 5), Fraction(5, 11)
    for n in (1, 2, 3):
        ok = ok and check_transition(n, 2, ctx, a, b, c) == []
    report("6: closed R = connection solve", t0, ok)


def test_criterion_07_combinatorics():
    t0 = time.monotonic()
    ok = True
    for N in range(1, 6):
        for M in range(0, 7):
            for m in compositions(N, M):
                S = s_of_m(m)
                ok = ok and len(S) == support_size_formula(N, M)
                ok = ok and all(
                    support_to_composition(s, m) in set(compositions(N, M))
                    for s in S[:3])
    # terminated support inside the shifted polyhedron
    mvec = (1, 1, 0)
    sup, eq, psi = check_mass_truncated_equation(3, mvec, 3, seed=3)
    ok = ok and sup and eq
    for th in psi.terms:
        x1, x2 = th[0] - th[2], th[1] - th[2]
        ok = ok and (x1 <= mvec[0] and -x2 <= mvec[2] and x2 <= x1 + mvec[1])
    ok = ok and support_size_formula(3, 3) == 10
    report("7: truncation combinatorics", t0, ok)


def test_criterion_08_poch_sinh_bridge_and_inversion():
    t0 = time.monotonic()
    ok = True
    for N in (2, 3):
        ps = sample_params(21, N)
        nc = nek_context(ps)
        lp = LaumonParams(N, nc, list(ps.sqrt_d), list(ps.sqrt_b),
                          list(ps.sqrt_dbar))
        ok = ok and check_poch_sinh_relation(lp, 2) == []
    for N, D in ((1, 4), (2, 3)):
        ps = sample_params(23 + N, N)
        nc = nek_context(ps)
        lp = LaumonParams(N, nc, list(ps.sqrt_d), list(ps.sqrt_b),
                          list(ps.sqrt_dbar))
        ok = ok and check_inversion_symmetry(lp, D) is None
    report("8: Pochhammer/sinh bridge + inversion", t0, ok)


def test_criterion_09_factor_identities():
    t0 = time.monotonic()
    ok = True
    small = partitions_up_to(4)
    for N in (2, 3):
        ps = sample_params(7, N)
        nc = nek_context(ps)
        rng = random.Random(("acc9", N).__repr__())
        for _ in range(100):
            lam = small[rng.randrange(len(small))]
            mu = small[rng.randrange(len(small))]
            k = rng.randrange(N)
            su, _ = rand_square(rng, ps.field)
            lhs = nc.field.wrap(nek_sinh(k, N, lam, mu, su, nc))
            rhs = nc.field.wrap(nek_sinh(N - k - 1, N, mu, lam,
                                         nc.sqrt_q * nc.sqrt_kappa / su, nc))
            ok = ok and lhs * lhs == rhs * rhs
            f = nek_matter_fund(lam, k, su, nc, N)
            s = nc.field.wrap(nek_sinh(k, N, lam, (), su, nc))
            ok = ok and f * f == s * s
            fa = nek_matter_anti(mu, k, su, nc, N)
            sa = nc.field.wrap(nek_sinh(k, N, (), mu, su, nc))
            ok = ok and fa * fa == sa * sa
    report("9: factor identities x100", t0, ok)


def test_criterion_10_four_dimensional_limit():
    t0 = time.monotonic()
    rng = random.Random(77)
    ok = all(check_poch_4d(rng.randrange(-6, 7), rng.randrange(0, 7),
                           Fraction(rng.randrange(1, 9), rng.randrange(9, 20)))
             for _ in range(200))
    for N in (2, 3):
        for _ in range(5):
            nu = tuple(rng.randrange(0, 4) for _ in range(N))
            pt = [Fraction(rng.randrange(2, 9), rng.randrange(9, 14))
                  for _ in range(N)]
            lhs, rhs = check_transport_identity(nu, pt)
            ok = ok and lhs == rhs
    for (N, D) in ((2, 5), (3, 4)):
        through, _ = fst_check(AdditiveParams.sample(3, N), D)
        ok = ok and through == D
    report("10: first-order degeneration", t0, ok, limit=600)


def test_criterion_11_cocycle_ranks():
    t0 = time.monotonic()
    rng = random.Random(88)

    def rand_points(M):
        pts = set()
        while len(pts) < M:
            pts.add(Fraction(rng.randrange(1, 80), rng.randrange(1, 23)))
        return sorted(pts)

    ok = True
    for (N, M) in ((2, 1), (2, 2), (3, 2)):
        ps = sample_params(10 + N + M, N)
        spec = CocycleSpec.from_params(ps, tuple([M] + [0] * (N - 1)))
        cfgs = [rand_points(M) for _ in range(expected_rank(N, M))]
        rank, _ = cocycle_rank(spec, cfgs)
        ok = ok and rank == expected_rank(N, M)
    # permutation symmetry for M <= 3
    import itertools
    ps = sample_params(8, 2)
    spec = CocycleSpec.from_params(ps, (3, 0))
    zs = rand_points(3)
    base = cocycle_eval(spec, (2, 1), zs)
    for perm in itertools.permutations(zs):
        ok = ok and cocycle_eval(spec, (2, 1), list(perm)) == base
    report("11: cocycle ranks + symmetry", t0, ok)
