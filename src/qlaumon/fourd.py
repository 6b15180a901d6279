"""Leading-order degeneration in the deformation direction q -> 1.

Jets q = 1 + h with h^2 = 0 extract first-order coefficients of the
q-identities exactly.  The limit partition function is the instanton sum
of ``nekrasov`` with every single bracket [q^E] replaced by its additive
exponent E, so that a row bracket [q^E; q]_n becomes E (E+1) ... (E+n-1).
It runs on the q-builder's skeleton and evaluation
(``nekrasov.skeleton_sum``).  The powers of h cancel identically: the row
walk reads no part of mu in the index ranges of the rows of lam, and no
part of lam in those of mu, so the color-k pair (lam, mu) has
A_k(lam) + B_k(mu) factors and numerator and denominator counts agree
pair by pair.  Using 1 + h instead of e^h changes nothing at first order:
the two parametrizations agree to O(h^2), and only O(h) coefficients are
compared.

The annihilation check applies the second-order differential-shift
operator built from the limit of the equation to the limit series and
verifies it vanishes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from operator import sub

from .nekrasov import skeleton_sum
from .qfun import poch
from .scalars import Jet, RATIONAL
from .series import MultiSeries, normal_ordered_dynamic_op


JET_Q = Jet(1, 1)  # q = 1 + h


def jet_qpow(e):
    """q^e as a jet for rational e: 1 + e h."""
    return Jet(1, Fraction(e))


def jet_poch(a, b, x):
    """(q^a x; q)_b as a jet, integers a and b, rational x."""
    return poch(JET_Q ** a * Jet(x), JET_Q, b)


def poch_expansion_formula(a, b, x):
    """First-order formula (1-x)^b (1 - h x/(1-x) (a b + C(b,2))) as a jet.

    The sign of the h-term follows from the case b = 1, where the product
    is 1 - x - a h x exactly.
    """
    lead = Fraction(1 - x) ** b
    corr = -Fraction(x, 1 - x) * (a * b + comb(b, 2))
    return Jet(lead, lead * corr)


def check_poch_4d(a, b, x):
    """Jet product equals the first-order formula."""
    return jet_poch(a, b, x) == poch_expansion_formula(a, b, x)


# -- additive (cohomological) parameters --------------------------------------


class AdditiveParams:
    """Additive exponents: kappa = q^{eps}, b_i = q^{beta_i}, masses
    d_i = q^{m_i}, dbar_i = q^{mbar_i}; all Fractions."""

    def __init__(self, N, eps, betas, m, mbar):
        self.N = N
        self.eps = Fraction(eps)
        self.betas = [Fraction(x) for x in betas]
        self.m = [Fraction(x) for x in m]
        self.mbar = [Fraction(x) for x in mbar]

    def gamma(self, a):
        """kappa b_a / b_{a+1} = q^{gamma_a}."""
        return self.eps + self.betas[a % self.N] - self.betas[(a + 1) % self.N]

    @staticmethod
    def sample(seed, N):
        """Generic additive parameters: the four families carry pairwise
        coprime denominators (7, 11, 13, 17) and numerators chosen so no
        linear form with the bounded integer coefficients that occur in
        the bracket exponents can vanish at desk scale."""
        rng = random.Random(("4d", seed, N).__repr__())
        num7 = rng.randrange(1, 7) + 7 * rng.randrange(0, 5)
        res11 = rng.sample(range(1, 11), N)
        betas = [Fraction(r + 11 * rng.randrange(0, 5), 11) for r in res11]
        m = [Fraction(rng.randrange(1, 13) + 13 * rng.randrange(0, 4), 13)
             for _ in range(N)]
        mbar = [Fraction(rng.randrange(1, 17) + 17 * rng.randrange(0, 4), 17)
                for _ in range(N)]
        return AdditiveParams(N, Fraction(num7, 7), betas, m, mbar)


def laumon_4d(ap, cap):
    """Leading jet of the solution series in the additive parametrization:
    exact rational coefficients.  It is the q-deformed instanton sum
    (``nekrasov.skeleton_sum``) with each single bracket
    [u q^{a/2} kappa^{f/2}] replaced by its additive exponent
    E + a + f eps, where E = x - y is the difference of the additive
    exponents of the pair's two arguments.  A vanishing vector-multiplet
    form raises DegenerateParameters; a vanishing numerator form gives
    the coefficient zero."""
    N, eps = ap.N, ap.eps
    raw = RATIONAL.raw

    def singles(E, keys):
        return [raw(E + a + f * eps) for a, f in keys]

    # a_i = q kappa b_{i-1} / d_{i-1} and c_j = b_j / dbar_j
    xa = [1 + eps + ap.betas[i - 1] - ap.m[i - 1] for i in range(N)]
    xc = [ap.betas[j] - ap.mbar[j] for j in range(N)]
    return skeleton_sum(N, cap, RATIONAL, sub, singles, xa, ap.betas, xc)


# -- the annihilating operator -------------------------------------------------


def _cyclic_sum_series(N, cap, start):
    """U_a = x_a + x_a x_{a+1} + ... + Lambda as a polynomial series
    (0-based start)."""
    s = MultiSeries.zero(N, cap, RATIONAL)
    vec = [0] * N
    for step in range(N):
        vec[(start + step) % N] += 1
        if sum(vec) <= cap:
            s.terms[tuple(vec)] = Fraction(1)
    return s


def annihilator_op(ap, cap):
    """sum_a [ theta_a (theta'_a + gamma_a) + U_a/(1 - Lambda)
    (m_a + theta'_a)(mbar_a + theta'_a) ], with 1/(1 - Lambda) expanded as
    a geometric series to the cap."""
    N = ap.N
    geom = MultiSeries.zero(N, cap, RATIONAL)
    k = 0
    while k * N <= cap:
        geom.terms[tuple([k] * N)] = Fraction(1)
        k += 1
    series_parts = []
    for a in range(N):
        u = _cyclic_sum_series(N, cap, a)
        series_parts.append(u * geom)

    def expand(nu):
        out = []
        # diagonal part
        diag = Fraction(0)
        for a in range(N):
            tp = nu[a] - nu[a - 1]
            diag += nu[a] * (tp + ap.gamma(a))
        if diag:
            out.append(((0,) * N, diag))
        for a in range(N):
            tp = nu[a] - nu[a - 1]
            w = (ap.m[a] + tp) * (ap.mbar[a] + tp)
            if not w:
                continue
            for vec, c in series_parts[a].terms.items():
                out.append((vec, c * w))
        return out

    return normal_ordered_dynamic_op(expand)


def fst_check(ap, cap):
    """Apply the annihilator to the limit series; report the largest
    degree through which the result vanishes and the first offender.  The
    result at degree d reads the series only through degree d, so on the
    true parameters it vanishes through the full cap."""
    psi = laumon_4d(ap, cap)
    where = annihilator_op(ap, cap)(psi).first_offender()
    return (cap if where is None else sum(where) - 1), where


# -- pointwise operator identity -----------------------------------------------


def transported_point(point):
    """The composite substitution point: x_a -> x_{a-1} U_a / U_{a-1}
    evaluated at the given rational point (0-based, cyclic)."""
    N = len(point)

    def U(vals, a):
        total = Fraction(0)
        prod = Fraction(1)
        for step in range(N):
            prod *= vals[(a + step) % N]
            total += prod
        return total

    rotated = [point[(a - 1) % N] for a in range(N)]
    return [rotated[a] * U(rotated, (a + 1) % N) / U(rotated, a)
            for a in range(N)]


def check_transport_identity(nu, point):
    """Both sides of the transport identity at a rational point x,

        prod_a (1 - xt_a)^{-nu'_a} xt_a^{nu_a}   and   prod_a x_a^{nu_a},

    with xt = ``transported_point(x)`` and nu'_a = nu_a - nu_{a-1}
    (cyclic): the substitution carries the symbol's prefactor on x^nu to
    the plain monomial.  A symbol F(xt, nu) would multiply both sides
    alike, so it is left out."""
    tp = transported_point(point)
    lhs = rhs = Fraction(1)
    for a in range(len(point)):
        lhs *= (1 - tp[a]) ** (nu[a - 1] - nu[a]) * tp[a] ** nu[a]
        rhs *= Fraction(point[a]) ** nu[a]
    return lhs, rhs


# -- first-order difference of the two equation symbols ------------------------


def k_difference(nu, m, mbar, gammas, point):
    """O(h) part of the difference of the two equation symbols on x^nu at
    a rational point, divided by the common leading factor; masses and
    theta-values integer, gammas rational.

    Must equal  sum_a [ nu_a (nu'_a + gamma_a)
                        + x_a/(1-x_a) (nu'_a + m_a)(nu'_a + mbar_a) ].
    """
    N = len(nu)
    s1 = Jet(1)
    s2 = Jet(1)
    gsum = Fraction(0)
    dsum = 0
    for a in range(N):
        tp = nu[a] - nu[a - 1]
        s1 = s1 * jet_poch(tp + mbar[a], -tp - mbar[a], point[a])
        s2 = s2 * jet_poch(mbar[a] - m[a], -tp - mbar[a], point[a])
        gsum += Fraction(gammas[a]) * nu[a]
        dsum += nu[a] * tp
    s1 = s1 * jet_qpow(gsum)
    s2 = s2 * jet_qpow(Fraction(-dsum))
    lead = Fraction(1)
    for a in range(N):
        tp = nu[a] - nu[a - 1]
        lead *= Fraction(1 - point[a]) ** (-(tp + mbar[a]))
    diff = s1 - s2
    if diff.a != 0:
        raise ArithmeticError("leading parts of the two symbols differ")
    return diff.b / lead


def k_difference_formula(nu, m, mbar, gammas, point):
    N = len(nu)
    total = Fraction(0)
    for a in range(N):
        tp = nu[a] - nu[a - 1]
        total += nu[a] * (tp + Fraction(gammas[a]))
        total += Fraction(point[a], 1 - point[a]) * (tp + m[a]) * (tp + mbar[a])
    return total
