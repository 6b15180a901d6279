"""Output checks that rest on properties of the method.

Each check returns ``None`` when the output passes and a one-line
description of the problem otherwise.  Nothing here compares against a
stored copy of earlier output: every expected value is either an
identity of the method (H psi = psi, closed R = solved R, a binomial
rank) or is recomputed independently by the benchmark itself.
"""

from __future__ import annotations

from math import comb


def check_verify_report(report, D):
    """The eigenfunction report passes with zero bad coefficients in every
    degree 0..D."""
    if not report.ok:
        return "verify failed, first offender %r" % (report.first_offender,)
    expected = [(d, 0) for d in range(D + 1)]
    if list(report.per_degree) != expected:
        return "per-degree defects %r" % (report.per_degree,)
    return None


def missing_exponents(psi, N, D):
    """Number of exponents of total degree <= D at which psi vanishes."""
    return comb(N + D, N) - sum(1 for k in psi.terms if sum(k) <= D)


def check_psi(psi, N, D, require_full_support):
    """psi has constant term one and, when required, a nonzero coefficient
    at every one of the C(N+D, N) exponents of total degree <= D (a
    generic solution has full support; a mass truncation does not)."""
    if psi.get((0,) * N) != psi.field.one:
        return "constant term of psi is %r" % (psi.get((0,) * N),)
    if require_full_support:
        missing = missing_exponents(psi, N, D)
        if missing:
            return "psi misses %d of %d exponents" % (missing, comb(N + D, N))
    return None


# H = B.L.C.R.B.T acts right to left: T first, the outer B last.
H_ORDER = ("T", "B", "R", "C", "L", "B")


def apply_blocks(blocks, psi):
    """Apply the blocks of ``build_blocks`` to psi one at a time, in H's
    order; returns the last output."""
    left, center, right, borel, shift = blocks
    by_letter = {"L": left, "C": center, "R": right, "B": borel, "T": shift}
    s = psi
    for letter in H_ORDER:
        s = by_letter[letter](s)
    return s


def check_block_chain(order, final, psi):
    """The blocks were applied in H's order and the last output is psi."""
    if tuple(order) != H_ORDER:
        return "blocks applied in order %r" % ("".join(order),)
    if final != psi:
        diff = final - psi
        return "block chain leaves %d nonzero coefficients, first at %r" % (
            len(diff.terms), min(diff.terms))
    return None


def check_cross_field(z_rational, z_prime, prime_field):
    """The rational series reduced mod p equals the prime-field series."""
    reduced = {}
    for k, v in z_rational.terms.items():
        r = prime_field.of(v)
        if r:
            reduced[k] = r
    if reduced != z_prime.terms:
        keys = set(reduced) | set(z_prime.terms)
        bad = sorted(k for k in keys
                     if reduced.get(k) != z_prime.terms.get(k))
        return "rational Z mod p differs from prime Z at %d exponents, " \
               "first %r" % (len(bad), bad[0])
    return None


def check_negative_control(defect):
    """H psi' - psi' for a psi' built with one mass changed must not
    vanish: otherwise the eigenfunction check cannot see a wrong series."""
    if defect.is_zero():
        return "defect vanishes for a psi built with a changed mass"
    return None


def check_no_discrepancies(bad):
    """The form, pentagon, family and moved-Borel checks return lists of
    discrepancies; each must be empty."""
    if bad:
        return "%d discrepancies, first %r" % (len(bad), bad[0])
    return None


# -- R-matrix: both bases evaluated by the benchmark's own products -----------


def poch(x, q, n, one):
    """(x; q)_n = prod_{k<n} (1 - x q^k) for n >= 0."""
    out = one
    for _ in range(n):
        out = out * (one - x)
        x = x * q
    return out


def basis_value(kind, ivec, z, lam, mus, q, one):
    """kind 1: prod_a (mu_a z_{a+1}/z_a; q)_{i_a} z_a^{i_a};
    kind 2: prod_a (z_a/z_{a+1}; q)_{i_a} z_{a+1}^{i_a}; z_{N+1} = lam z_1."""
    zz = list(z) + [lam * z[0]]
    out = one
    for a, i in enumerate(ivec):
        if kind == 1:
            out = out * poch(mus[a] * zz[a + 1] / zz[a], q, i, one) \
                * zz[a] ** i
        else:
            out = out * poch(zz[a] / zz[a + 1], q, i, one) * zz[a + 1] ** i
    return out


def check_connection(R_conn, R_closed, idx, points, lam, mus, q, one):
    """The closed R equals the connection R, and B1(z) = R . B2(z) at every
    supplied point."""
    if R_conn != R_closed:
        bad = [(idx[a], idx[b]) for a in range(len(idx))
               for b in range(len(idx)) if R_conn[a][b] != R_closed[a][b]]
        return "closed R differs from connection R at %d entries, first %r" \
            % (len(bad), bad[0])
    for z in points:
        b2 = [basis_value(2, j, z, lam, mus, q, one) for j in idx]
        for a, i in enumerate(idx):
            lhs = basis_value(1, i, z, lam, mus, q, one)
            rhs = one - one
            for b in range(len(idx)):
                rhs = rhs + R_closed[a][b] * b2[b]
            if lhs != rhs:
                return "B1 != R.B2 at row %r" % (i,)
    return None


def check_gauge(report, N):
    """The diagonal-gauge search is established at rank two only."""
    if N == 2 and not report.found:
        return "gauge search not found at N = 2"
    return None


def check_rank(rank, N, M):
    expected = comb(N + M - 1, M)
    if rank != expected:
        return "cocycle rank %d, expected C(%d, %d) = %d" % (
            rank, N + M - 1, M, expected)
    return None


def check_annihilator(through, D, N):
    """The 4d annihilator vanishes through degree at least D - N."""
    if through < D - N:
        return "annihilator vanishes only through degree %d < %d" % (
            through, D - N)
    return None
