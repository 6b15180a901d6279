import random

from qlaumon.partitions import (colored_counts, conjugate, enumerate_tuples,
                                part, partitions_of, partitions_up_to)

from oracles import row_sum_residue, shifted_residues


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_involution_on_random_partitions():
    rng = random.Random(0)
    pool = partitions_up_to(9)
    for _ in range(500):
        lam = pool[rng.randrange(len(pool))]
        assert conjugate(conjugate(lam)) == lam


def test_part_out_of_range_is_zero():
    assert part((3, 1), 1) == 3
    assert part((3, 1), 5) == 0


def brute_colored_counts(ptuple, N):
    """Box-coloring oracle: the box in row r of the alpha-th component
    carries color alpha + r - 1 (mod N), colors labeled 1..N."""
    counts = [0] * N
    for alpha, lam in enumerate(ptuple, start=1):
        for r, row in enumerate(lam, start=1):
            color = (alpha + r - 1) % N
            if color == 0:
                color = N
            counts[color - 1] += row
    return tuple(counts)


def test_colored_counts_trivial_and_small():
    assert colored_counts(((), ()), 2) == (0, 0)
    assert colored_counts(((1,), ()), 2) == (1, 0)


def test_colored_counts_against_box_oracle():
    rng = random.Random(1)
    pool = partitions_up_to(6)
    for N in (1, 2, 3):
        for _ in range(100):
            tup = tuple(pool[rng.randrange(len(pool))] for _ in range(N))
            assert colored_counts(tup, N) == brute_colored_counts(tup, N)


def test_colored_counts_reduce_to_size_at_rank_one():
    pool = partitions_up_to(6)
    for lam in pool:
        assert colored_counts((lam,), 1) == (sum(lam),)


def test_colored_counts_sum_is_box_count():
    rng = random.Random(2)
    pool = partitions_up_to(5)
    for _ in range(50):
        tup = tuple(pool[rng.randrange(len(pool))] for _ in range(3))
        assert sum(colored_counts(tup, 3)) == sum(map(sum, tup))


def test_enumerate_counts():
    assert list(enumerate_tuples(1, 0)) == [((),)]
    assert sorted(t[0] for t in enumerate_tuples(1, 2)) == \
        sorted([(), (1,), (2,), (1, 1)])
    # brute count for N = 2, boxes <= 2
    pool = partitions_up_to(2)
    brute = sum(1 for a in pool for b in pool if sum(a) + sum(b) <= 2)
    assert len(list(enumerate_tuples(2, 2))) == brute


def test_enumerate_deterministic_and_duplicate_free():
    run1 = list(enumerate_tuples(3, 3))
    run2 = list(enumerate_tuples(3, 3))
    assert run1 == run2
    assert len(set(run1)) == len(run1)


def parent(tup):
    """The tuple less the last box (end of the last row) of its last
    nonempty slot."""
    p = max(i for i, lam in enumerate(tup) if lam)
    lam = tup[p]
    less = lam[:-1] + ((lam[-1] - 1,) if lam[-1] > 1 else ())
    return tup[:p] + (less,) + tup[p + 1:]


def test_enumerate_order_is_slot_major():
    assert [sum(map(sum, t)) for t in enumerate_tuples(2, 2)] == \
        [0, 1, 2, 2, 1, 2, 2, 2]


def test_enumerate_yields_parents_first():
    for N, cap in ((2, 7), (3, 5), (4, 4)):
        seen = set()
        for tup in enumerate_tuples(N, cap):
            if any(tup):
                assert parent(tup) in seen, tup
            seen.add(tup)


def test_shifted_residues_match_column_end_colors():
    # component lengths (5,3,2,1,1): conjugate (5,3,2,1,1), residues shift by i-1
    tup = ((5, 3, 2, 1, 1), (4, 2, 2, 1), (2, 2, 1))
    res = shifted_residues(tup, 3)
    assert res[0] == tuple((c + 0) % 3 for c in conjugate(tup[0]))
    assert res[1] == tuple((c + 1) % 3 for c in conjugate(tup[1]))


def test_residue_statistics_match_colored_degree():
    """Each column of the i-th component with end color rho contributes
    the monomial chain x_i x_{i+1} ... x_{rho} (cyclic, shifted by full
    loops); summed over columns this reproduces the colored counts."""
    rng = random.Random(3)
    pool = partitions_up_to(6)
    N = 3
    for _ in range(200):
        tup = tuple(pool[rng.randrange(len(pool))] for _ in range(N))
        counts = [0] * N
        for i0, lam in enumerate(tup):
            for length in conjugate(lam):
                for step in range(length):
                    color = (i0 + step) % N
                    counts[color] += 1
        assert tuple(counts) == colored_counts(tup, N)


def test_row_sum_residue():
    lam = (5, 4, 2, 2, 1)
    assert row_sum_residue(lam, 1, 2) == 5 + 2 + 1
    assert row_sum_residue(lam, 2, 2) == 4 + 2
    assert row_sum_residue(lam, 0, 2) == row_sum_residue(lam, 2, 2)


def test_partitions_of_bounded_width():
    assert partitions_of(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
