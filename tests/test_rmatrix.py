import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from qlaumon.params import rand_square, sample_params
from qlaumon.qfun import QContext, poch
from qlaumon.rmatrix import (_rank_one_diagonals, b2_inverse_entry,
                             b2_triangular_zeros,
                             base_polynomial, check_transition, closed_matrix,
                             composition_to_support, compositions,
                             connection_matrix, draw_mass_data,
                             gauge_match_to_hamiltonian, norm_factor,
                             phi_kernel,
                             phi_kernel_masslike, reference_point, s_of_m,
                             support_polyhedron_vertices, support_size_formula,
                             support_to_composition, truncated_equation_matrix,
                             weight_shells)
from qlaumon.scalars import PRIME_FIELD
from qlaumon.series import exponent_vectors

from oracles import b1_specialized, b2_specialized, closed_entry


def ctx_and_rng(seed, N, mode="rational"):
    ps = sample_params(seed, N, mode)
    return ps, QContext(ps.sqrt_q, ps.field), random.Random(seed)


def draw_masses(rng, field, N):
    sqrt_mus, mus = [], []
    for _ in range(N):
        s, u = rand_square(rng, field)
        sqrt_mus.append(s)
        mus.append(u)
    return mus, sqrt_mus


# -- lattice combinatorics -----------------------------------------------------


def test_support_sizes_and_bijection_full_grid():
    for N in range(1, 6):
        for M in range(0, 7):
            for m in compositions(N, M):
                S = s_of_m(m)
                assert len(S) == support_size_formula(N, M) == comb(M + N - 1, N - 1)
                assert len(set(S)) == len(S)
                for s in S:
                    i = support_to_composition(s, m)
                    assert sum(i) == M and min(i) >= 0
                    assert composition_to_support(i, m) == s


def test_zero_truncation_single_class():
    assert s_of_m((0, 0, 0)) == [(0, 0)]
    assert len(s_of_m((0,))) == 1


def test_support_table_for_rank_three():
    # the six classes of the (2,0,0) truncation
    assert sorted(s_of_m((2, 0, 0))) == [(0, 0), (1, 0), (1, 1),
                                         (2, 0), (2, 1), (2, 2)]
    # ten classes at total three, independent of the split
    for m in compositions(3, 3):
        assert len(s_of_m(m)) == 10


def test_support_matches_brute_force_box():
    # S(m) against the points of the box [-M, M]^{N-1} that satisfy its
    # three inequalities, every m with N <= 5, M <= 5
    for N in range(1, 6):
        for M in range(0, 6):
            box = exponent_vectors((-M,) * (N - 1), (M,) * (N - 1))
            for m in compositions(N, M):
                def inside(th):
                    ext = (0,) + th + (0,)
                    return all(ext[i + 1] - ext[i] <= m[i] for i in range(N))
                expect = {th for th in box if inside(th)}
                S = s_of_m(m)
                assert len(S) == len(set(S))
                assert set(S) == expect, m


def test_support_is_listed_in_composition_order():
    # the a-th class of S(m) is the image of the a-th composition of I_M;
    # the digest pins the whole listing over N <= 5, M <= 5
    digest = hashlib.sha1()
    for N in range(1, 6):
        for M in range(0, 6):
            for m in compositions(N, M):
                S = s_of_m(m)
                assert S == [composition_to_support(i, m)
                             for i in compositions(N, M)]
                digest.update(repr((m, S)).encode())
    assert digest.hexdigest() == "bc958a6f51c7923ea79ee499bf1dc93b4e43e41a"


def test_polyhedron_vertices():
    assert support_polyhedron_vertices((3, 0, 0)) == [(0, 0), (3, 0), (3, 3)]
    # vertices (-m2-m3, -m3), (m1, -m3), (m1, m1+m2)
    for m in ((2, 1, 1), (1, 1, 1), (2, 0, 1)):
        vs = support_polyhedron_vertices(m)
        assert vs[0] == (-m[1] - m[2], -m[2])
        assert vs[1] == (m[0], -m[2])
        assert vs[2] == (m[0], m[0] + m[1])


def test_truncated_support_lies_in_polyhedron():
    from qlaumon.hamiltonian import check_mass_truncated_equation
    mvec = (1, 1, 0)
    sup, eq, psi = check_mass_truncated_equation(3, mvec, 3, seed=3)
    assert sup and eq
    m1, m2, m3 = mvec
    for th in psi.terms:
        x1 = th[0] - th[2]
        x2 = th[1] - th[2]
        assert x1 <= m1 and x2 >= -m3 and x2 <= x1 + m2


# -- the kernel -----------------------------------------------------------------


def test_kernel_vanishes_off_order():
    ps, ctx, rng = ctx_and_rng(31, 2)
    a = Fraction(2, 7)
    b = Fraction(3, 5)
    assert phi_kernel((3, 0), (2, 1), a, b, ctx) == 0
    assert phi_kernel((-1, 0), (2, 1), a, b, ctx) == 0


def test_kernel_boundary_values():
    ps, ctx, rng = ctx_and_rng(31, 2)
    a = Fraction(2, 7)
    b = Fraction(3, 5)
    beta = (2, 1)
    assert phi_kernel((0, 0), beta, a, b, ctx) == \
        poch(b / a, ctx.q, 3) / poch(b, ctx.q, 3)
    assert phi_kernel(beta, beta, a, b, ctx) == \
        (b / a) ** 3 * poch(a, ctx.q, 3) / poch(b, ctx.q, 3)


def test_transition_property():
    ps, ctx, rng = ctx_and_rng(31, 2)
    a, b, c = Fraction(2, 7), Fraction(3, 5), Fraction(5, 11)
    assert check_transition(1, 3, ctx, a, b, c) == []
    assert check_transition(2, 2, ctx, a, b, c) == []
    assert check_transition(3, 1, ctx, a, b, c) == []


def test_masslike_kernel_matches_integer_specialization():
    ps, ctx, rng = ctx_and_rng(31, 2)
    q = ctx.q
    lam = Fraction(5, 7)
    for (N, M) in ((2, 2), (3, 1)):
        cvec = tuple(rng.randrange(2, 6) for _ in range(N))
        mus = [q ** -c for c in cvec]
        mu_full = lam
        for m in mus:
            mu_full = mu_full * m
        for ivec in compositions(N, M):
            for kvec in compositions(N, M):
                gamma = tuple(cvec[a] - ivec[a] - kvec[a] for a in range(N - 1))
                beta = tuple(cvec[a] - kvec[a] for a in range(N - 1))
                direct = phi_kernel(gamma, beta, mu_full * q ** M, mu_full, ctx)
                cont = phi_kernel_masslike(ivec[:-1], kvec[:-1], mus[:-1],
                                           mu_full, M, ctx)
                assert direct == cont


# -- base polynomials -----------------------------------------------------------


def test_base_polynomials_homogeneous():
    ps, ctx, rng = ctx_and_rng(41, 3)
    mus, _ = draw_masses(rng, ps.field, 3)
    lam = rand_square(rng, ps.field)[1]
    z = [rand_square(rng, ps.field)[1] for _ in range(3)]
    t = Fraction(4, 7)
    for kind in (1, 2):
        for i in compositions(3, 2):
            v1 = base_polynomial(kind, i, z, lam, mus, ctx)
            v2 = base_polynomial(kind, i, [t * x for x in z], lam, mus, ctx)
            assert v2 == t ** 2 * v1


def test_specializations_match_direct_evaluation():
    ps, ctx, rng = ctx_and_rng(31, 2)
    N, M = 2, 2
    mus, sqrt_mus = draw_masses(rng, ps.field, N)
    lam = rand_square(rng, ps.field)[1]
    for i in compositions(N, M):
        for j in compositions(N, M):
            pt = reference_point(j, ctx)
            assert base_polynomial(2, i, pt, lam, mus, ctx) == \
                b2_specialized(i, j, lam, M, ctx)
            assert base_polynomial(1, i, pt, lam, mus, ctx) == \
                b1_specialized(i, j, lam, mus, M, ctx)


def test_closed_inverse_inverts():
    ps, ctx, rng = ctx_and_rng(43, 3)
    N, M = 3, 2
    lam = rand_square(rng, ps.field)[1]
    idx = compositions(N, M)
    f = ps.field
    for a, i in enumerate(idx):
        for c, k in enumerate(idx):
            total = f.zero
            for j in idx:
                total = total + b2_inverse_entry(i, j, lam, M, ctx) \
                    * b2_specialized(j, k, lam, M, ctx)
            assert total == (f.one if i == k else f.zero)


def test_second_basis_change_of_free_parameter():
    # B_{2,i}(z, L) = sum_j (N_i(L)/N_j(L')) Phi(ibar|jbar; 1/L', 1/L) B_{2,j}(z, L')
    ps, ctx, rng = ctx_and_rng(43, 2)
    N, M = 2, 2
    mus, _ = draw_masses(rng, ps.field, N)
    lam = rand_square(rng, ps.field)[1]
    lam2 = rand_square(rng, ps.field)[1]
    z = [rand_square(rng, ps.field)[1] for _ in range(N)]
    for i in compositions(N, M):
        lhs = base_polynomial(2, i, z, lam, mus, ctx)
        rhs = ps.field.zero
        for j in compositions(N, M):
            coef = norm_factor(i, lam, M, ctx) / norm_factor(j, lam2, M, ctx) \
                * phi_kernel(i[:-1], j[:-1], 1 / lam2, 1 / lam, ctx)
            rhs = rhs + coef * base_polynomial(2, j, z, lam2, mus, ctx)
        assert lhs == rhs


# -- the matrix -----------------------------------------------------------------


def test_trivial_truncation_gives_one_by_one_identity():
    ps, ctx, rng = ctx_and_rng(31, 2)
    mus, _ = draw_masses(rng, ps.field, 2)
    lam = rand_square(rng, ps.field)[1]
    rc, idx = connection_matrix(2, 0, lam, mus, ctx)
    assert rc == [[ps.field.one]] and idx == [(0, 0)]


def test_closed_equals_connection_with_residuals():
    for (N, M) in ((2, 2), (3, 1)):
        ps, ctx, rng = ctx_and_rng(40 + N + M, N)
        mus, sqrt_mus = draw_masses(rng, ps.field, N)
        lam = rand_square(rng, ps.field)[1]
        extra = [[rand_square(rng, ps.field)[1] for _ in range(N)]
                 for _ in range(3)]
        rc, idx = connection_matrix(N, M, lam, mus, ctx, residual_points=extra)
        rx, _ = closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
        assert rc == rx


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_closed_matrix_equals_entrywise_oracle(mode):
    # the product D_row A B D_col against the per-entry kernel sum, whose
    # mass half-powers are read from sqrt_mus
    grid = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1),
            (4, 2)] + ([(4, 3)] if mode == "prime" else [])
    for N, M in grid:
        for seed in range(1, 6):
            _, ctx, (mus, sqrt_mus, lam) = cli_mass_draw(seed, N, M, mode)
            R, idx = closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
            assert idx == compositions(N, M)
            assert R == [[closed_entry(i, j, lam, mus, sqrt_mus, M, ctx)
                          for j in idx] for i in idx], (N, M, seed)


def test_closed_matrix_pinned():
    # sha1 of (indices, matrix) at the rmatrix command's seed-1 draws
    pins = {
        (2, 3, "rational"): "17454d4b10c1080cb430647dedb6c128a92a4d86",
        (2, 3, "prime"): "b1572e2a4d180e7f35b69c463c9747ace93ef90e",
        (3, 2, "rational"): "d9d8eae6e27774437db43c6df6a69f1252fbf7c9",
        (3, 2, "prime"): "5f902defc965928dfd7f6012955b8d40e2b9e7aa",
        (4, 2, "rational"): "203664ea917f2cd1fe73947cd99017164490733b",
        (4, 2, "prime"): "fbcfaf3065334b9556bf2fd21aa70abd65362630",
    }
    for (N, M, mode), pin in pins.items():
        _, ctx, (mus, sqrt_mus, lam) = cli_mass_draw(1, N, M, mode)
        R, idx = closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
        assert hashlib.sha1(repr((idx, R)).encode()).hexdigest() == pin, \
            (N, M, mode)


def test_closed_matrix_raises_at_its_pole():
    # lam = q^{M-1} zeroes (lam q^{1-M}; q)_M, the denominator of C0
    for mode in ("rational", "prime"):
        for N, M in ((2, 2), (3, 2), (2, 3)):
            _, ctx, (mus, sqrt_mus, _) = cli_mass_draw(1, N, M, mode)
            with pytest.raises(ZeroDivisionError):
                closed_matrix(N, M, ctx.q ** (M - 1), mus, sqrt_mus, ctx)


def test_triangular_zero_pattern_of_value_matrix():
    ps, ctx, rng = ctx_and_rng(47, 3)
    lam = rand_square(rng, ps.field)[1]
    assert b2_triangular_zeros(3, 2, lam, ctx) == []


def test_weight_shells_conserve_slot_sums():
    shells = weight_shells(2, 2)
    for c, pairs in shells.items():
        for (i, j) in pairs:
            upper = tuple(x - y for x, y in zip(c, i))
            assert tuple(u + v for u, v in zip(upper, i)) == c
            assert tuple(x + y for x, y in zip(i, j)) == c
    assert sum(len(v) for v in shells.values()) == 9


def test_gauge_match_found_for_rank_two():
    ps, ctx, rng = ctx_and_rng(99, 2)
    for mvec in ((1, 0), (1, 1), (2, 0)):
        mus, sqrt_mus = draw_masses(rng, ps.field, 2)
        lam = rand_square(rng, ps.field)[1]
        rep = gauge_match_to_hamiltonian(mvec, mus, sqrt_mus, lam, ctx)
        assert rep.found, mvec
        assert rep.transform["lam_shift"] == -1
        assert rep.transform["mu_shifts"] == [-mvec[0], -mvec[1]]
        size = support_size_formula(2, sum(mvec))
        assert len(rep.left) == len(rep.right) == size, mvec
        assert rep.right[0] == repr(ps.field.one), mvec


def test_gauge_match_trivial_and_higher_rank_report(monkeypatch):
    import qlaumon.rmatrix as rm
    ps, ctx, rng = ctx_and_rng(99, 3)
    mus, sqrt_mus = draw_masses(rng, ps.field, 3)
    lam = rand_square(rng, ps.field)[1]
    rep0 = gauge_match_to_hamiltonian((0, 0, 0), mus, sqrt_mus, lam, ctx)
    assert rep0.found and rep0.note.startswith("trivial")

    def no_matrix(*args):
        raise AssertionError("built a matrix for the gauge match at N = 3")

    # constant diagonals do not cover the rank-three relation: the report
    # says so, with the space searched, and builds no matrix
    monkeypatch.setattr(rm, "truncated_equation_matrix", no_matrix)
    monkeypatch.setattr(rm, "closed_matrix", no_matrix)
    rep3 = gauge_match_to_hamiltonian((1, 0, 0), mus, sqrt_mus, lam, ctx)
    assert not rep3.found
    assert rep3.left is rep3.right is rep3.transform is None
    assert rep3.note.startswith("not computed at N >= 3")
    assert "relabeling and mass permutation" in rep3.note


def cli_mass_draw(seed, N, M, mode):
    """The parameters and mass data of ``qlaumon rmatrix``."""
    ps = sample_params(seed, N, mode)
    ctx = QContext(ps.sqrt_q, ps.field)
    rng = random.Random(("rmatrix", seed, N, M).__repr__())
    return ps, ctx, draw_mass_data(rng, ps.field, ctx, N, M)


@pytest.mark.parametrize("M, seed", [(1, 14), (1, 30), (2, 18), (2, 22),
                                     (2, 23), (2, 28), (3, 8), (3, 22),
                                     (4, 7), (4, 22)])
def test_gauge_match_found_on_lattice_redraws(M, seed):
    # under five hand-listed pole tests these rational draws put lam = q
    # (a pole of the shifted closed form), lam mu_2 at 1 or q^{-1} (H and
    # R both vanish at the gauge's pivot) or mu_1 = q (supports differ);
    # the lattice rule redraws them
    ps, ctx, (mus, sqrt_mus, lam) = cli_mass_draw(seed, 2, M, "rational")
    rep = gauge_match_to_hamiltonian((M, 0), mus, sqrt_mus, lam, ctx)
    assert rep.found
    assert rep.note == "rank-one diagonal gauge solved"


def test_prime_mass_draws_pinned():
    # the lattice rule rejects no GF(p) draw that the five pole tests it
    # replaced accepted: sha1 of the draws under those tests
    h = hashlib.sha1()
    for N in range(1, 5):
        for M in range(5):
            for seed in range(1, 11):
                _, _, draw = cli_mass_draw(seed, N, M, "prime")
                h.update(repr(draw).encode())
    assert h.hexdigest() == "8575c0d0af08edc6af26aec47fa541a9b8efd8dd"


def test_gauge_match_rejects_one_scaled_entry(monkeypatch):
    # negative control: one nonzero entry of the shifted R scaled by 2 is
    # no longer a diagonal gauge of H
    import qlaumon.rmatrix as rm
    closed = rm.closed_matrix

    def scaled(*args):
        R, idx = closed(*args)
        assert R[-1][-1]
        R[-1][-1] = R[-1][-1] * 2
        return R, idx

    for mode in ("rational", "prime"):
        ps, ctx, (mus, sqrt_mus, lam) = cli_mass_draw(1, 2, 2, mode)
        assert gauge_match_to_hamiltonian((2, 0), mus, sqrt_mus, lam,
                                          ctx).found, mode
        with monkeypatch.context() as m:
            m.setattr(rm, "closed_matrix", scaled)
            rep = gauge_match_to_hamiltonian((2, 0), mus, sqrt_mus, lam, ctx)
        assert not rep.found, mode
        assert rep.left is None and rep.right is None


@pytest.mark.parametrize("field", [Fraction, PRIME_FIELD.of])
def test_rank_one_diagonals_off_the_first_entry(field):
    # supports with a zero in row 0 or column 0: K = L = 1 matches both
    one = field(1)
    for rows in ([[1, 1], [0, 1]], [[0, 1], [1, 1]]):
        H = [[field(x) for x in row] for row in rows]
        assert _rank_one_diagonals(H, H, one) == ([one, one], [one, one])
    # a rank-one ratio on a support whose graph has two components
    H = [[field(2), field(0)], [field(0), field(3)]]
    R = [[field(1), field(0)], [field(0), field(1)]]
    left, right = _rank_one_diagonals(H, R, one)
    assert right == [one, one] and left == [field(2), field(3)]
    # a ratio of rank two on a connected support
    H = [[field(1), field(1)], [field(1), field(2)]]
    R = [[field(1), field(1)], [field(1), field(1)]]
    assert _rank_one_diagonals(H, R, one) is None


def test_truncated_equation_matrix_pinned():
    # sha1 of (S, matrix) for both sides over Q and GF(p)
    pins = {
        ((1, 1), "rational", "mass"): "141219a8a0cc23bb2726daa278860f03a955541d",
        ((1, 1), "rational", "plain"): "e18f28b11836e6491a538546e88ee787d6487f73",
        ((1, 1), "prime", "mass"): "d22cbe9982427816f8ad5e3d3e654030f2153eba",
        ((1, 1), "prime", "plain"): "b37f074b3afc2d21e4436bce30874be167a62ad4",
        ((1, 1, 0), "rational", "mass"): "150b5cf5d7f3e9ad976333c09a5e4cc38d71bf8c",
        ((1, 1, 0), "rational", "plain"): "94eaf10f4f4bcc26efffa27f684d8f61ab462534",
        ((1, 1, 0), "prime", "mass"): "e1009fdcf2b88447bc765c3b2d70cfba1548a107",
        ((1, 1, 0), "prime", "plain"): "47390c0b2c4b12ab61a568839c761091ea6f5848",
    }
    for (mvec, mode, side), pin in pins.items():
        ps, ctx, rng = ctx_and_rng(51, len(mvec), mode)
        mus = [rand_square(rng, ps.field)[1] for _ in mvec]
        lam = rand_square(rng, ps.field)[1]
        mat, S = truncated_equation_matrix(mvec, mus, lam, ctx, side)
        got = hashlib.sha1(repr((S, mat)).encode()).hexdigest()
        assert got == pin, (mvec, mode, side)


def test_truncated_equation_matrix_respects_support():
    ps, ctx, rng = ctx_and_rng(51, 2)
    mus, _ = draw_masses(rng, ps.field, 2)
    lam = rand_square(rng, ps.field)[1]
    mat, S = truncated_equation_matrix((1, 1), mus, lam, ctx, "mass")
    assert len(mat) == len(S) == 3
