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
from math import comb, factorial
from operator import sub

from .nekrasov import skeleton_sum
from .scalars import Jet, RATIONAL
from .series import MultiSeries, normal_ordered_dynamic_op


JET_Q = Jet(1, 1)  # q = 1 + h


def jet_qpow(e):
    """q^e as a jet for rational e: 1 + e h."""
    return Jet(1, Fraction(e))


def jet_poch(a, b, x):
    """(q^a x; q)_b as a jet, integer a and b >= 0, rational x."""
    out = Jet(1)
    xj = Jet(x)
    for l in range(b):
        out = out * (Jet(1) - JET_Q ** (a + l) * xj)
    return out


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


def ratio_limit_formula(alpha, order):
    """Coefficients of (q^alpha x; q)_inf / (x; q)_inf as jets through
    x^order: term k is C(alpha+k-1, k)(1 + h k (alpha - 1)/2), matching
    (1-x)^{-alpha} (1 + (h/2) alpha (alpha-1) x/(1-x)) term by term."""
    out = []
    for k in range(order + 1):
        c = comb_signed(alpha + k - 1, k)
        out.append(Jet(c, Fraction(c * k * (alpha - 1), 2)))
    return out


def ratio_limit_direct(alpha, order):
    """The same coefficients from sum_k (q^alpha;q)_k/(q;q)_k x^k with
    jet arithmetic (alpha a nonnegative integer).  Every factor 1 - q^c
    is divisible by h, so each is carried as (1 - q^c)/(-h) = c + C(c,2) h
    before dividing (the h powers of numerator and denominator match)."""
    def reduced(c):
        return Jet(c, comb(c, 2))

    out = []
    for k in range(order + 1):
        if alpha == 0:
            out.append(Jet(1) if k == 0 else Jet(0))
            continue
        val = Jet(1)
        for l in range(k):
            val = val * reduced(alpha + l) / reduced(1 + l)
        out.append(val)
    return out


def signed_ratio_limit_check(alpha, beta, order):
    """(-q^alpha x;q)_inf / (-q^beta x;q)_inf = (1+x)^{beta-alpha} {1 -
    (h/2)(alpha-beta)(alpha+beta-1) x/(1+x)}, checked coefficientwise
    through x^order for integers alpha >= beta >= 0.  (The h-term sign and
    the 1+x denominator follow from the b = 1 case of the plain ratio.)"""
    # direct: product form of the ratio = (q^beta (-x); q)_{alpha-beta}^{-1}
    # only when alpha >= beta; expand 1/(y;q)_n as a series in x
    n = alpha - beta
    direct = [Jet(1)] + [Jet(0)] * order
    # 1/prod_{l<n}(1 + q^{beta+l} x): multiply the inverse factors
    for l in range(n):
        geom = [(-Jet(1) * JET_Q ** (beta + l)) ** k for k in range(order + 1)]
        new = [Jet(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                new[i + j] = new[i + j] + direct[i] * geom[j]
        direct = new
    formula = []
    for k in range(order + 1):
        formula.append(Jet(comb_signed(beta - alpha, k)))
    # first-order part: -(h/2)(alpha-beta)(alpha+beta-1) x/(1+x)
    pref = -Fraction((alpha - beta) * (alpha + beta - 1), 2)
    for k in range(1, order + 1):
        corr = Fraction(0)
        for j in range(1, k + 1):
            corr += comb_signed(beta - alpha, k - j) * (-1) ** (j - 1)
        formula[k] = formula[k] + Jet(0, pref * corr)
    return direct == formula


def comb_signed(n, k):
    """Binomial coefficient C(n, k) for any integer n, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= (n - j)
    return Fraction(num, factorial(k))


def binomial_square_identity(a):
    """C(a,2) + C(-a,2) = a^2 for integer a (used when combining the two
    first-order corrections)."""
    return comb_signed(a, 2) + comb_signed(-a, 2) == a * a


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
    res = annihilator_op(ap, cap)(psi)
    by_degree = res.degrees()
    first_bad = None
    for d in range(cap + 1):
        if by_degree.get(d):
            first_bad = d
            break
    ok_through = cap if first_bad is None else first_bad - 1
    return ok_through, (None if first_bad is None
                        else min(k for k, _ in by_degree[first_bad]))


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


def check_transport_identity(F_terms, nu, point):
    """Both evaluations of the transport identity at a rational point:

      substitute the composite map into  prod (1-x_a)^{-nu'_a} F(x, nu) x^nu
      versus  F(transported x, nu) * x^nu  at the original point.

    F_terms is a list of (exponent vector, coefficient fn of nu)."""
    N = len(point)
    tp = transported_point(point)

    def F_at(vals):
        total = Fraction(0)
        for vec, fn in F_terms:
            term = Fraction(fn(nu))
            for a in range(N):
                term *= Fraction(vals[a]) ** vec[a]
            total += term
        return total

    lhs = F_at(tp)
    for a in range(N):
        e = -(nu[a] - nu[a - 1])
        lhs *= (1 - tp[a]) ** e
        lhs *= tp[a] ** nu[a]
    rhs = F_at(tp)
    for a in range(N):
        rhs *= Fraction(point[a]) ** nu[a]
    return lhs, rhs


# -- first-order difference of the two equation symbols ------------------------


def _jet_ratio_int(A, B, x):
    """(q^A x;q)_inf / (q^B x;q)_inf as a jet for integers A, B."""
    if A >= B:
        return Jet(1) / jet_poch(B, A - B, x)
    return jet_poch(A, B - A, x)


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
        s1 = s1 * _jet_ratio_int(tp + mbar[a], 0, point[a])
        s2 = s2 * _jet_ratio_int(mbar[a] - m[a], -tp - m[a], point[a])
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
