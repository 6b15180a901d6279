"""Integer partitions, N-tuples of partitions, coloring, enumeration.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().  Tuples of partitions index the instanton sum of
the partition functions, and their boxes carry a Z/N coloring: the box in
row r of the alpha-th component has color alpha + r - 1 (mod N).
"""

from __future__ import annotations

from functools import lru_cache


def part(parts, i):
    """Row i (1-based) of a partition; zero outside 1..len."""
    if 1 <= i <= len(parts):
        return parts[i - 1]
    return 0


def conjugate(parts):
    """Transpose of the diagram."""
    if not parts:
        return ()
    out = [0] * parts[0]
    for row in parts:
        for c in range(row):
            out[c] += 1
    return tuple(out)


def colored_counts(ptuple, N):
    """Box counts per color: k_i = sum over components alpha of the rows
    with row index r satisfying alpha + r = i + 1 (mod N), i = 1..N."""
    counts = [0] * N
    for alpha0, lam in enumerate(ptuple):
        alpha = alpha0 + 1
        for r0, row in enumerate(lam):
            color = (alpha + r0) % N  # alpha + (r0+1) - 1
            counts[(color - 1) % N] += row
    return tuple(counts)


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n with parts <= max_part, as tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_up_to(n):
    """All partitions with at most n boxes."""
    out = []
    for m in range(n + 1):
        out.extend(partitions_of(m))
    return out


def enumerate_tuples(N, degree_cap):
    """All N-tuples of partitions with total colored degree <= degree_cap.

    The colored degree of a tuple is sum_i k_i, which equals its total box
    count, so this enumerates tuples with at most degree_cap boxes.  The
    order is slot-major and not graded: the first slot runs through its
    partitions by size (each size in ``partitions_of`` order), and for
    each of them the remaining slots run through theirs, in the same
    order, within the boxes left.  At N = 2, cap 2 the box counts run
    0, 1, 2, 2, 1, 2, 2, 2.  A tuple's parent, the tuple less the last
    box of its last nonempty slot, therefore comes before it.
    """
    def rec(slots, budget):
        if slots == 0:
            yield ()
            return
        for b in range(budget + 1):
            for lam in partitions_of(b):
                for rest in rec(slots - 1, budget - b):
                    yield (lam,) + rest

    return rec(N, degree_cap)
