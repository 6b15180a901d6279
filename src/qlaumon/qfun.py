"""Scalar q-special functions: Pochhammer symbols, sinh-type brackets,
Gaussian binomials.

Brackets take the *square root* of their argument, never the argument
itself: every bracket argument that occurs in partition functions is a
word in squared base parameters, so its root is supplied exactly and the
bracket value needs no root extraction.  Powers q^(1/4) never occur in
isolation; all half-integer q-exponents are integer exponents of sqrt_q.
"""

from __future__ import annotations


class QContext:
    """Base q with its square root, plus small caches of (q;q)_n, of its
    inverse and of the integer powers of sqrt_q."""

    def __init__(self, sqrt_q, field):
        self.sqrt_q = sqrt_q
        self.q = sqrt_q * sqrt_q
        self.field = field
        self._qq = [field.one]  # (q;q)_n cache
        self._inv_qq = [field.one]  # 1/(q;q)_n cache
        self._half = {}  # e -> sqrt_q**e

    def qq(self, n):
        """(q;q)_n for n >= 0."""
        while len(self._qq) <= n:
            k = len(self._qq)
            self._qq.append(self._qq[-1] * (self.field.one - self.q ** k))
        return self._qq[n]

    def inv_qq(self, n):
        """1/(q;q)_n for n >= 0, each inverted once."""
        while len(self._inv_qq) <= n:
            self._inv_qq.append(1 / self.qq(len(self._inv_qq)))
        return self._inv_qq[n]

    def qpow_half(self, twice_exponent):
        """q**(twice_exponent/2) as an integer power of sqrt_q; a negative
        power is a power of 1/sqrt_q, which is taken once."""
        v = self._half.get(twice_exponent)
        if v is None:
            if twice_exponent < -1:
                v = self.qpow_half(-1) ** -twice_exponent
            else:
                v = self.sqrt_q ** twice_exponent
            self._half[twice_exponent] = v
        return v


def poch(x, q, n):
    """q-shifted factorial (x;q)_n for any integer n.

    n >= 0 is the plain product prod_{k<n} (1 - x q^k); n < 0 is fixed by
    (x;q)_n = 1 / (x q^n; q)_{-n}, which is the unique extension with
    (x;q)_{m+n} = (x;q)_m (x q^m;q)_n.
    """
    one = x - x + 1 if not isinstance(x, int) else 1
    if n >= 0:
        out = one
        f = x
        for _ in range(n):
            out = out * (one - f)
            f = f * q
        return out
    shifted = x * q ** n
    denom = poch(shifted, q, -n)
    if not denom:
        raise ZeroDivisionError("zero factor in (x;q)_n with n < 0")
    return one / denom


def bracket(sqrt_u, n, ctx):
    """Sinh-type bracket [u;q]_n, with u supplied via its square root.

    [u;q]_n = prod_{j<n} (q^{-j/2} u^{-1/2} - q^{j/2} u^{1/2}); negative n
    via [u;q]_n = 1/[u q^n; q]_{-n}.
    """
    if n < 0:
        v = bracket(sqrt_u * ctx.qpow_half(n), -n, ctx)
        if not v:
            raise ZeroDivisionError("zero bracket in [u;q]_n with n < 0")
        return 1 / v
    inv_su = 1 / sqrt_u
    out = ctx.field.one
    for j in range(n):
        out = out * (ctx.qpow_half(-j) * inv_su - ctx.qpow_half(j) * sqrt_u)
    return out


def single_bracket(sqrt_x):
    """[x] = x^{-1/2} - x^{1/2}."""
    return 1 / sqrt_x - sqrt_x


def qbinom(n, k, ctx):
    """Gaussian binomial coefficient; zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return ctx.field.zero
    return ctx.qq(n) / (ctx.qq(k) * ctx.qq(n - k))


def finite_poch_coeffs(a, n, ctx):
    """Coefficients c_0..c_n of (a x; q)_n = sum_k c_k x^k:
    c_k = (-a)^k q^{k(k-1)/2} qbinom(n, k); empty for n < 0."""
    return [(-a) ** k * ctx.q ** (k * (k - 1) // 2) * qbinom(n, k, ctx)
            for k in range(n + 1)]
