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
    from the powers of kappa alone, without listing the points, and on
    residues mod PRIME: an exact relation holds mod PRIME too, and each
    relation found mod PRIME is confirmed in the draw's own field, so
    the decision is the exact one."""
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

    def holds(a, c, i=0, j=0):
        """b_i q^a = b_j kappa^c in the draw's field."""
        return ps.b(i) * q ** a == ps.b(j) * kappa ** c

    rq, rk = _residue(q), _residue(kappa)
    iq, ik = pow(rq, -1, PRIME), pow(rk, -1, PRIME)
    # residue -> the exponents c, |c| <= 2 bound, of the kappa^c it is
    kpow = {}
    up = down = 1
    for c in range(2 * bound + 1):
        kpow.setdefault(up, []).append(c)
        if c:
            kpow.setdefault(down, []).append(-c)
        up, down = up * rk % PRIME, down * ik % PRIME
    if any(holds(0, c) for c in kpow[1] if c):
        return False
    # q^a kappa^c = 1 with a != 0: up to the sign of (a, c), a > 0 and
    # q^a = kappa^{-c}
    qa = 1
    for a in range(1, 2 * bound + 1):
        qa = qa * rq % PRIME
        if any(holds(a, c) for c in kpow.get(qa, ())):
            return False
    # b_i/b_j = q^a kappa^c, or b_j/b_i = q^{-a} kappa^{-c}: one test per
    # unordered pair, b_i/b_j q^{-a} against the kappa^c, |c| <= bound
    rb = [_residue(ps.b(i)) for i in range(ps.N)]
    qb = pow(rq, bound, PRIME)
    for i in range(ps.N):
        for j in range(i + 1, ps.N):
            r = rb[i] * pow(rb[j], -1, PRIME) * qb % PRIME
            for a in range(-bound, bound + 1):
                if any(holds(-a, c, i, j) for c in kpow.get(r, ())
                       if abs(c) <= bound):
                    return False
                r = r * iq % PRIME
    return True


def _residue(x):
    """A nonzero Fraction or PrimeScalar mod PRIME."""
    if isinstance(x, PrimeScalar):
        return x.r
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def rand_square(rng, field):
    """A generic scalar given with its square root: returns (sqrt_u, u)."""
    s = _draw_sqrt(rng, field)
    return s, s * s
