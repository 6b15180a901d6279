"""Reproducible sampling of exact parameter sets.

Every base parameter (q, kappa, the Coulomb moduli b_i and the two mass
families d_i, dbar_i) is stored through an explicit square root, so any
half-integer power that shows up downstream -- x-scalings like
sqrt(b_{i+1} d_i dbar_i / (q kappa b_i)), the diagonal q^{(1/2)*quadratic}
factors, sinh-type brackets -- is an honest field element with no branch
ambiguity.

All randomness flows through ``random.Random(seed)``; sampling is
rejection-based against a short list of genericity conditions (nothing in
{0, +-1}, ratios b_i/b_j off the q^Z kappa^Z lattice for bounded
exponents) so the desk-scale identity checks never hit spurious poles.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import FIELDS, PRIME, PrimeScalar

# Exponent window for the lattice-avoidance checks; generous for every
# degree cap used at desk scale (caps <= 8, index offsets <= N+cap).
GENERICITY_BOUND = 24


class ParamSet:
    """Exact parameter set with square roots of every base parameter.

    Indices are 0-based internally and cyclic mod N (position i holds the
    parameter attached to the variable x_{i+1} of the difference
    equation).
    """

    def __init__(self, N, field, sqrt_q, sqrt_kappa, sqrt_b, sqrt_d, sqrt_dbar):
        if N < 1:
            raise ValueError("N must be >= 1")
        self.N = N
        self.field = field
        self.sqrt_q = sqrt_q
        self.sqrt_kappa = sqrt_kappa
        self.sqrt_b = list(sqrt_b)
        self.sqrt_d = list(sqrt_d)
        self.sqrt_dbar = list(sqrt_dbar)

    # -- derived accessors ------------------------------------------------

    @property
    def q(self):
        return self.sqrt_q * self.sqrt_q

    @property
    def kappa(self):
        return self.sqrt_kappa * self.sqrt_kappa

    def b(self, i):
        s = self.sqrt_b[i % self.N]
        return s * s

    def d(self, i):
        s = self.sqrt_d[i % self.N]
        return s * s

    def dbar(self, i):
        s = self.sqrt_dbar[i % self.N]
        return s * s

    def mass_product(self):
        """Product of all d_k * dbar_k."""
        out = self.field.one
        for k in range(self.N):
            out = out * self.d(k) * self.dbar(k)
        return out

    def with_dbar(self, new_dbar_sqrt):
        """Copy with the dbar family replaced (used by mass truncation)."""
        return ParamSet(self.N, self.field, self.sqrt_q, self.sqrt_kappa,
                        self.sqrt_b, self.sqrt_d, new_dbar_sqrt)


def _draw_sqrt(rng, field):
    """One nonzero square root, away from 0 and +-1."""
    if field.name == "prime":
        return PrimeScalar(rng.randrange(2, PRIME - 1))
    while True:
        num = rng.randrange(-9, 10)
        den = rng.randrange(1, 10)
        fr = Fraction(num, den)
        if fr != 0 and abs(fr) != 1:
            break
    return fr


def sample_params(seed, N, mode="rational"):
    """Deterministic generic ParamSet for the given (seed, N, mode).

    mode is "rational" or "prime".  Rejection sampling enforces:
    all base parameters pairwise distinct and outside {0, +-1}; no
    relation q^a kappa^c = 1 on a bounded window (so q is not a root of
    unity there); ratios of the b_i off the bounded q-kappa lattice (see
    ``_generic_enough``).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    field = FIELDS[mode]
    rng = random.Random((seed, N, mode).__repr__())

    for _attempt in range(200):
        sq = _draw_sqrt(rng, field)
        sk = _draw_sqrt(rng, field)
        sb = [_draw_sqrt(rng, field) for _ in range(N)]
        sd = [_draw_sqrt(rng, field) for _ in range(N)]
        sdb = [_draw_sqrt(rng, field) for _ in range(N)]
        ps = ParamSet(N, field, sq, sk, sb, sd, sdb)
        if _generic_enough(ps, GENERICITY_BOUND):
            return ps
    raise RuntimeError("could not sample generic parameters (seed=%r)" % seed)


def _generic_enough(ps, bound):
    """Whether the base parameters are pairwise distinct and outside
    {0, +-1}, q^a kappa^c != 1 for 0 < max(|a|, |c|) <= 2 bound, and no
    ratio b_i/b_j (i != j) is q^a kappa^c with |a|, |c| <= bound.

    The second condition says that the points q^a kappa^c, |a|, |c| <=
    bound, are distinct (it covers the sinh-bracket poles of the vector
    multiplet denominators within the degree window, and q not a root of
    unity); the third keeps b_i/b_j off those points.  Both are answered
    from the powers of kappa alone, without listing the points."""
    one = ps.field.one
    base = [ps.q, ps.kappa] + [ps.b(i) for i in range(ps.N)] \
        + [ps.d(i) for i in range(ps.N)] + [ps.dbar(i) for i in range(ps.N)]
    for i, u in enumerate(base):
        if not u or u == one or u == -one:
            return False
        for v in base[i + 1:]:
            if u == v:
                return False
    q, kappa = ps.q, ps.kappa
    # kappa^c for c = 0..2 bound, then the negative powers
    kpow = [one]
    for _ in range(2 * bound):
        kpow.append(kpow[-1] * kappa)
    if one in kpow[1:]:
        return False
    inv_kappa = 1 / kappa
    kneg = [one]
    for _ in range(2 * bound):
        kneg.append(kneg[-1] * inv_kappa)
    # q^a kappa^c = 1 with a != 0: up to the sign of (a, c), a > 0 and
    # q^a = kappa^{-c}
    wide = set(kpow) | set(kneg)
    qa = one
    for _ in range(2 * bound):
        qa = qa * q
        if qa in wide:
            return False
    # b_i/b_j = q^a kappa^c, or b_j/b_i = q^{-a} kappa^{-c}: one test per
    # unordered pair, b_i/b_j q^{-a} against the kappa^c, |c| <= bound
    narrow = set(kpow[:bound + 1]) | set(kneg[:bound + 1])
    inv_q = 1 / q
    qshift = [q ** bound]
    for _ in range(2 * bound):
        qshift.append(qshift[-1] * inv_q)
    for i in range(ps.N):
        for j in range(i + 1, ps.N):
            r = ps.b(i) / ps.b(j)
            if any(r * s in narrow for s in qshift):
                return False
    return True


def rand_square(rng, field):
    """A generic scalar given with its square root: returns (sqrt_u, u)."""
    s = _draw_sqrt(rng, field)
    return s, s * s
