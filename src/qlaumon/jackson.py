"""Symmetrized cocycle polynomials and their rank.

The building blocks are degree-(N-1) factors

    f_l(z) = (1 - a_{l+2}^{-1} z) ... (1 - a_N^{-1} z) (1 - b_1 z) ... (1 - b_l z)

for l = 0..N-1, combined into symmetric functions of M variables by an
antisymmetrized product against the q-deformed Vandermonde and divided by
the plain Vandermonde.  The family is indexed by the compositions
(r_0..r_{N-1}) of M and is expected to span a space of dimension
binomial(N+M-1, M); the rank computation checks that expectation at desk
scale.

The antisymmetrizer is the signed sum over all M! permutations (M <= 5
here), read from tables that every r shares, built once per point set.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

from .rmatrix import compositions, row_reduce
from .series import MultiSeries


class CocycleSpec:
    """Parameter families a_k, b_k (k = 1..N) and the sizes (N, M)."""

    def __init__(self, N, M, a_params, b_params, q, field):
        self.N = N
        self.M = M
        self.a = list(a_params)
        self.a_inv = [1 / a for a in self.a]
        self.b = list(b_params)
        self.q = q
        self.field = field

    @staticmethod
    def from_params(ps, mvec):
        """The parametrization induced by a sampled parameter set and a
        truncation vector: a_k = b_k^{-1} q^{1-m_k} kappa^{k-1},
        b_k = b_k d_k^{-1} kappa^{1-k}."""
        N = ps.N
        a = [ps.q ** (1 - mvec[k]) * ps.kappa ** k / ps.b(k)
             for k in range(N)]
        b = [ps.b(k) / ps.d(k) * ps.kappa ** -k for k in range(N)]
        return CocycleSpec(N, sum(mvec), a, b, ps.q, ps.field)


def cocycle_factor(spec, ell, z):
    """f_ell evaluated at the scalar z (0-based ell in 0..N-1)."""
    f = spec.field
    out = f.one
    for k in range(ell + 1, spec.N):      # paper's a_{l+2}..a_N, 0-based a[k]
        out = out * (f.one - z * spec.a_inv[k])
    for k in range(ell):                  # paper's b_1..b_l, 0-based b[k]
        out = out * (f.one - spec.b[k] * z)
    return out


def _vandermonde(zs, field, shift=None):
    """prod_{i<j} (z_i - c z_j) with c = 1 by default."""
    c = shift if shift is not None else field.one
    out = field.one
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            out = out * (zs[i] - c * zs[j])
    return out


def cocycle_matrix(spec, rvecs, point_sets):
    """The symmetrized cocycle function of each composition r in rvecs
    (one row each) at each tuple zs of distinct points (one column each):

        prod_k 1/[r_k]! * Vand(z)^{-1} *
        sum over permutations of sgn * prod blocks f_l * q-Vandermonde,

    where the first r_0 slots take f_0, the next r_1 take f_1, and so on,
    [r]! = prod_{j<=r} (1 - q^{-j})/(1 - q^{-1}), with q taken from the
    parameter object.  The factors f_l(z_i), the signed q-Vandermonde of
    each permutation and the plain Vandermonde are computed once per zs,
    the blocks and the normalization once per r.
    """
    f = spec.field
    M = spec.M
    if any(sum(r) != M or len(r) != spec.N for r in rvecs):
        raise ValueError("bad block sizes")
    qinv = 1 / spec.q
    blocks_and_norms = [_blocks_and_norm(spec, r) for r in rvecs]
    rows = [[] for _ in rvecs]
    for zs in point_sets:
        if len(zs) != M:
            raise ValueError("need %d points" % M)
        if len(set(zs)) != M:
            raise ValueError("evaluation points must be distinct")
        factors = [[cocycle_factor(spec, ell, z) for z in zs]
                   for ell in range(spec.N)]
        signed = [(perm, _perm_sign(perm)
                   * _vandermonde([zs[p] for p in perm], f, qinv))
                  for perm in permutations(range(M))]
        vand = _vandermonde(zs, f)
        for row, (blocks, norm) in zip(rows, blocks_and_norms):
            total = f.zero
            for perm, term in signed:
                for slot, ell in enumerate(blocks):
                    term = term * factors[ell][perm[slot]]
                total = total + term
            row.append(total / (vand * norm))
    return rows


def cocycle_eval(spec, rvec, zs):
    """``cocycle_matrix`` at the one composition rvec and point set zs."""
    return cocycle_matrix(spec, [rvec], [zs])[0][0]


def _blocks_and_norm(spec, rvec):
    """The factor index of each slot (the first r_0 slots take f_0, the
    next r_1 take f_1, ...) and the normalization prod_k [r_k]!."""
    f = spec.field
    qinv = 1 / spec.q
    blocks = []
    norm = f.one
    for ell, r in enumerate(rvec):
        blocks.extend([ell] * r)
        for j in range(1, r + 1):
            norm = norm * (f.one - qinv ** j) / (f.one - qinv)
    return blocks, norm


def _perm_sign(perm):
    """+1 or -1, by the parity of the number of inversions of perm."""
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def cocycle_rank(spec, point_sets):
    """Rank of the family {phi_r} evaluated at the supplied generic point
    configurations (one row per r, one column per configuration)."""
    rvecs = compositions(spec.N, spec.M)
    rows = cocycle_matrix(spec, rvecs, point_sets)
    return len(row_reduce(rows)[1]), len(rvecs)


def expected_rank(N, M):
    return comb(N + M - 1, M)


# -- dense polynomial form (small M): divisibility by the Vandermonde ---------


def cocycle_poly(spec, rvec):
    """The symmetrized cocycle as a dense polynomial (dict exponent tuple
    -> coefficient) in z_1..z_M, obtained by exact division of the
    antisymmetrized product by the Vandermonde.  Raises if the division
    leaves a remainder."""
    f = spec.field
    M = spec.M
    qinv = 1 / spec.q
    blocks, norm = _blocks_and_norm(spec, rvec)
    # every product below is homogeneous of this degree, so nothing is cut
    cap = M * (spec.N - 1) + M * (M - 1) // 2
    one = (0,) * M
    unit = [tuple(1 if p == slot else 0 for p in range(M)) for slot in range(M)]

    def linear(terms):
        return MultiSeries(M, cap, f, terms)

    total = MultiSeries.zero(M, cap, f)
    for perm in permutations(range(M)):
        term = linear({one: f.one if _perm_sign(perm) > 0 else -f.one})
        for slot, ell in enumerate(blocks):
            z = unit[perm[slot]]
            for k in range(ell + 1, spec.N):
                term = term * linear({one: f.one, z: -1 / spec.a[k]})
            for k in range(ell):
                term = term * linear({one: f.one, z: -spec.b[k]})
        for i in range(M):
            for j in range(i + 1, M):
                term = term * linear({unit[perm[i]]: f.one,
                                      unit[perm[j]]: -qinv})
        total = total + term

    poly = total.terms
    for i in range(M):
        for j in range(i + 1, M):
            poly = _divide_linear(poly, i, j, M, f)
    return {k: v / norm for k, v in poly.items()}


def check_vandermonde_division(spec, zs):
    """For each composition r of M, the antisymmetrized product divides
    exactly by the Vandermonde (``cocycle_poly``), and the quotient at
    the distinct points zs equals ``cocycle_eval``.  Returns the list of
    failures (r, "remainder" or "value"), empty when both hold."""
    bad = []
    for r in compositions(spec.N, spec.M):
        try:
            poly = cocycle_poly(spec, r)
        except ArithmeticError:
            bad.append((r, "remainder"))
            continue
        value = spec.field.zero
        for k, c in poly.items():
            for z, e in zip(zs, k):
                c = c * z ** e
            value = value + c
        if value != cocycle_eval(spec, r, zs):
            bad.append((r, "value"))
    return bad


def _divide_linear(poly, i, j, M, field):
    """Exact division by (z_i - z_j): synthetic division in z_i treating
    z_j as the root; remainder must vanish."""
    # collect by z_i-degree
    by_deg = {}
    for k, v in poly.items():
        by_deg.setdefault(k[i], {})[k] = v
    if not poly:
        return {}
    max_deg = max(by_deg)
    out = {}
    carry = {}
    for d in range(max_deg, 0, -1):
        level = dict(carry)
        for k, v in by_deg.get(d, {}).items():
            level[k] = level.get(k, field.zero) + v
        carry = {}
        for k, v in level.items():
            if not v:
                continue
            kq = list(k)
            kq[i] -= 1
            out_k = tuple(kq)
            out[out_k] = out.get(out_k, field.zero) + v
            kc = list(kq)
            kc[j] += 1
            carry[tuple(kc)] = carry.get(tuple(kc), field.zero) + v
    # remainder check at z_i-degree 0
    rem = dict(carry)
    for k, v in by_deg.get(0, {}).items():
        rem[k] = rem.get(k, field.zero) + v
    for v in rem.values():
        if v:
            raise ArithmeticError("not divisible by the Vandermonde")
    return {k: v for k, v in out.items() if v}
