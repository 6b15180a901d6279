import itertools
import random
from fractions import Fraction

import pytest

from qlaumon import jackson
from qlaumon.jackson import (CocycleSpec, cocycle_eval, cocycle_factor,
                             cocycle_matrix, cocycle_poly, cocycle_rank,
                             expected_rank)
from qlaumon.params import sample_params
from qlaumon.rmatrix import compositions

from oracles import cocycle_eval_per_permutation

MODES = ["rational", "prime"]


def mkspec(N, M, seed, mvec=None, mode="rational"):
    ps = sample_params(seed, N, mode)
    m = mvec if mvec is not None else tuple([M] + [0] * (N - 1))
    return CocycleSpec.from_params(ps, m)


def rand_points(M, rng):
    pts = set()
    while len(pts) < M:
        pts.add(Fraction(rng.randrange(1, 80), rng.randrange(1, 23)))
    return sorted(pts)


def test_factor_degree_and_block_structure():
    spec = mkspec(3, 2, 5)
    z = Fraction(3, 7)
    # first block: only inverse-a factors; last block: only b factors
    assert cocycle_factor(spec, 0, z) == \
        (1 - z / spec.a[1]) * (1 - z / spec.a[2])
    assert cocycle_factor(spec, 2, z) == \
        (1 - spec.b[0] * z) * (1 - spec.b[1] * z)
    # degree N-1 in z: leading coefficient nonzero
    poly = cocycle_poly(mkspec(3, 1, 5), (1, 0, 0))
    assert max(sum(k) for k in poly) == 2


def test_single_variable_reduces_to_factors():
    spec = mkspec(2, 1, 6)
    z1 = Fraction(5, 9)
    assert cocycle_eval(spec, (1, 0), [z1]) == cocycle_factor(spec, 0, z1)
    assert cocycle_eval(spec, (0, 1), [z1]) == cocycle_factor(spec, 1, z1)


def test_empty_configuration_is_one():
    spec = mkspec(2, 0, 6)
    assert cocycle_eval(spec, (0, 0), []) == spec.field.one


def test_symmetry_under_point_permutations():
    rng = random.Random(2)
    spec = mkspec(2, 3, 8)
    zs = rand_points(3, rng)
    base = cocycle_eval(spec, (2, 1), zs)
    for perm in itertools.permutations(zs):
        assert cocycle_eval(spec, (2, 1), list(perm)) == base


def test_repeated_points_rejected():
    spec = mkspec(2, 2, 8)
    with pytest.raises(ValueError):
        cocycle_eval(spec, (1, 1), [Fraction(1, 2), Fraction(1, 2)])


def test_vandermonde_division_is_exact_on_random_specs():
    rng = random.Random(4)
    count = 0
    for seed in range(25):
        for (N, M) in ((2, 2), (3, 2), (2, 3)):
            spec = mkspec(N, M, 30 + seed)
            rvecs = compositions(N, M)
            rvec = rvecs[rng.randrange(len(rvecs))]
            poly = cocycle_poly(spec, rvec)  # raises if division fails
            zs = rand_points(M, rng)
            val = spec.field.zero
            for k, c in poly.items():
                term = c
                for a in range(M):
                    term = term * zs[a] ** k[a]
                val = val + term
            assert val == cocycle_eval(spec, rvec, zs)
            count += 1
    assert count >= 50


def test_ranks_match_connection_block_size():
    rng = random.Random(7)
    for (N, M) in ((2, 1), (2, 2), (3, 2)):
        spec = mkspec(N, M, 10 + N + M)
        cfgs = [rand_points(M, rng) for _ in range(expected_rank(N, M))]
        rank, family = cocycle_rank(spec, cfgs)
        assert rank == expected_rank(N, M)
        assert family == len(compositions(N, M))


def test_rank_uses_generic_truncation_vector_too():
    rng = random.Random(8)
    spec = mkspec(3, 2, 12, mvec=(1, 1, 0))
    cfgs = [rand_points(2, rng) for _ in range(expected_rank(3, 2))]
    rank, _ = cocycle_rank(spec, cfgs)
    assert rank == expected_rank(3, 2)


def field_points(spec, count, rng):
    """count configurations of spec.M distinct points, in the spec's field."""
    return [[spec.field.of(z) for z in rand_points(spec.M, rng)]
            for _ in range(count)]


def oracle_matrix(spec, point_sets):
    return [[cocycle_eval_per_permutation(spec, r, zs) for zs in point_sets]
            for r in compositions(spec.N, spec.M)]


TABLE_CASES = [(N, M, None) for N, M in ((2, 1), (2, 2), (2, 3), (3, 1),
                                         (3, 2), (3, 3), (4, 2))]
TABLE_CASES.append((3, 2, (1, 1, 0)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("N,M,mvec", TABLE_CASES)
def test_table_matches_the_per_permutation_oracle(N, M, mvec, mode):
    """Every entry of the table routine, on seeds 1-5, equals the
    per-permutation evaluation."""
    rng = random.Random(("table", N, M, mvec, mode).__repr__())
    for seed in range(1, 6):
        spec = mkspec(N, M, seed, mvec, mode)
        cfgs = field_points(spec, 3, rng)
        rvecs = compositions(N, M)
        assert cocycle_matrix(spec, rvecs, cfgs) == oracle_matrix(spec, cfgs)
        assert [cocycle_eval(spec, r, cfgs[0]) for r in rvecs] == \
            [cocycle_eval_per_permutation(spec, r, cfgs[0]) for r in rvecs]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("N,M,mvec", [(2, 2, None), (3, 2, None),
                                      (3, 2, (1, 1, 0)), (2, 3, None)])
def test_rank_reduces_the_oracle_matrix(monkeypatch, N, M, mvec, mode):
    """The rows cocycle_rank passes to row_reduce are the oracle's matrix:
    the rank alone would agree on any generic values."""
    seen = []
    reduce = jackson.row_reduce

    def captured(rows):
        seen.append(rows)
        return reduce(rows)

    monkeypatch.setattr(jackson, "row_reduce", captured)
    spec = mkspec(N, M, 20 + N + M, mvec, mode)
    cfgs = field_points(spec, expected_rank(N, M), random.Random(N * M))
    rank, family = cocycle_rank(spec, cfgs)
    assert seen == [oracle_matrix(spec, cfgs)]
    assert (rank, family) == (expected_rank(N, M), len(compositions(N, M)))


@pytest.mark.parametrize("mode", MODES)
def test_rank_rejects_repeated_points_and_counts_the_empty_set(mode):
    spec = mkspec(2, 2, 8, mode=mode)
    half = spec.field.of(Fraction(1, 2))
    cfgs = [[half, spec.field.of(3)], [half, half]]
    with pytest.raises(ValueError):
        cocycle_rank(spec, cfgs)
    assert cocycle_rank(mkspec(3, 0, 8, mode=mode), [[]]) == (1, 1)
