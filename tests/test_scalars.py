import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qlaumon.scalars import FIELDS, Jet, PRIME, PrimeScalar
from qlaumon.params import sample_params


def test_rational_basics():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_jet_multiplication_kills_h_squared():
    assert Jet(1, 1) * Jet(1, -1) == Jet(1)


def test_jet_inverse():
    x = Jet(Fraction(3, 4), Fraction(5, 2))
    assert x * x.inv() == Jet(1)
    with pytest.raises(ZeroDivisionError):
        Jet(0, 1).inv()


def test_jet_hash_agrees_with_equal_constant():
    # Jet(a) == a, so the two must hash alike
    assert len({Jet(1), 1}) == 1
    assert hash(Jet(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({Jet(1, 1), Jet(1)}) == 2


def test_prime_field_inverse():
    rng = random.Random(0)
    for _ in range(20):
        x = PrimeScalar(rng.randrange(1, PRIME))
        assert x * (1 / x) == PrimeScalar(1)
    with pytest.raises(ZeroDivisionError):
        1 / PrimeScalar(0)


def test_prime_field_pow():
    x = PrimeScalar(12345)
    assert x ** 3 == x * x * x
    assert x ** -2 == 1 / (x * x)


def test_prime_inverse_equals_fermat_inverse():
    rng = random.Random(5)
    residues = [1, 2, 3, 12345, PRIME - 2, PRIME - 1, 2 ** 60, 2 ** 31 - 1]
    residues += [rng.randrange(1, PRIME) for _ in range(40)]
    for r in residues:
        fermat = pow(r, PRIME - 2, PRIME)
        x = rng.randrange(PRIME)
        assert (PrimeScalar(x) / PrimeScalar(r)).r == x * fermat % PRIME
        assert (x / PrimeScalar(r)).r == x * fermat % PRIME
        for e in (1, 2, 7):
            assert (PrimeScalar(r) ** -e).r == pow(fermat, e, PRIME)


def test_prime_zero_division_raises_zero_division_error():
    with pytest.raises(ZeroDivisionError):
        PrimeScalar(5) / PrimeScalar(0)
    with pytest.raises(ZeroDivisionError):
        PrimeScalar(5) / PRIME
    with pytest.raises(ZeroDivisionError):
        PrimeScalar(0) ** -1
    with pytest.raises(ZeroDivisionError):
        PrimeScalar(PRIME) ** -3


def test_jet_agrees_with_rational_on_constant_parts():
    rng = random.Random(1)
    ops = "+-*/"
    for _ in range(1000):
        a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
        ja = Jet(a, Fraction(rng.randrange(-5, 6)))
        jb = Jet(b, Fraction(rng.randrange(-5, 6)))
        op = ops[rng.randrange(4)]
        if op == "/" and (b == 0):
            continue
        if op == "+":
            r, j = a + b, ja + jb
        elif op == "-":
            r, j = a - b, ja - jb
        elif op == "*":
            r, j = a * b, ja * jb
        else:
            r, j = a / b, ja / jb
        assert j.a == r


@pytest.mark.parametrize("x", [Fraction(2, 3), PrimeScalar(7),
                               Jet(Fraction(2, 3), Fraction(5, 7))],
                         ids=["rational", "prime", "jet"])
def test_integer_powers_of_either_sign(x):
    # ** takes integer exponents of either sign in every scalar domain,
    # and a negative power of zero is a ZeroDivisionError
    for e in range(-4, 5):
        assert x ** -e * x ** e == 1
    assert x ** -2 == 1 / (x * x)
    with pytest.raises(ZeroDivisionError):
        (x - x) ** -1


def test_sampling_deterministic():
    a = sample_params(1, 2)
    b = sample_params(1, 2)
    assert a.sqrt_q == b.sqrt_q and a.sqrt_b == b.sqrt_b
    assert a.q == b.q and a.b(0) == b.b(0)


def test_sampling_seed_sensitive():
    assert sample_params(1, 2).sqrt_q != sample_params(2, 2).sqrt_q


def test_sampling_generic():
    ps = sample_params(7, 3)
    one = ps.field.one
    assert ps.q and ps.q != one and ps.q != -one
    assert ps.b(0) * ps.b(1) * ps.b(2)


def test_sampling_rejects_zero_rank():
    with pytest.raises(ValueError):
        sample_params(1, 0)


def test_square_root_accessors_square_correctly():
    for mode in ("rational", "prime"):
        ps = sample_params(3, 3, mode)
        assert ps.sqrt_q * ps.sqrt_q == ps.q
        assert ps.sqrt_kappa ** 2 == ps.kappa
        for i in range(3):
            assert ps.sqrt_b[i] ** 2 == ps.b(i)


def test_prime_mode_elements_live_in_prime_field():
    ps = sample_params(5, 2, "prime")
    assert isinstance(ps.q, PrimeScalar)


residues = st.integers(min_value=0, max_value=PRIME - 1)
# plain ints of either sign and any size, as mixed operands
ints = st.integers(min_value=-4 * PRIME, max_value=4 * PRIME)


@given(residues, residues, residues)
def test_prime_ring_axioms(a, b, c):
    x, y, z = PrimeScalar(a), PrimeScalar(b), PrimeScalar(c)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - y + y == x and x + (-x) == 0 and x * 1 == x


@given(residues, residues)
@example(PRIME - 1, 1)  # the sum is PRIME itself
@example(0, PRIME - 1)
def test_prime_same_type_ops_agree_with_int_arithmetic(a, b):
    x, y = PrimeScalar(a), PrimeScalar(b)
    for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b)):
        assert type(got) is PrimeScalar
        assert 0 <= got.r < PRIME and got.r == want % PRIME


@given(residues, ints)
def test_prime_mixed_int_ops_agree_with_int_arithmetic(a, n):
    x = PrimeScalar(a)
    for got, want in ((x + n, a + n), (n + x, n + a), (x - n, a - n),
                      (n - x, n - a), (x * n, a * n), (n * x, n * a)):
        assert type(got) is PrimeScalar
        assert 0 <= got.r < PRIME and got.r == want % PRIME
    assert (x == n) == ((a - n) % PRIME == 0)


@given(ints)
def test_prime_constructor_reduces_into_range(n):
    assert 0 <= PrimeScalar(n).r < PRIME
    assert PrimeScalar(n).r == n % PRIME


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_field_raw_form_round_trips(mode):
    # raw values multiply to the raw form of the scalar product
    f = FIELDS[mode]
    assert f.one is f.one and f.zero is f.zero
    rng = random.Random(mode)
    xs = [f.of(rng.randrange(-50, 50)) + f.of(Fraction(1, 7)) for _ in range(20)]
    for x, y in zip(xs, xs[1:]):
        assert f.wrap(f.raw(x)) == x
        assert f.wrap(f.mul(f.raw(x), f.raw(y))) == x * y
    assert f.wrap(f.raw(f.one)) == f.one and not f.wrap(f.raw(f.zero))


# rationals of either sign, zero among them, of heights up to 2^128;
# no denominator is a multiple of PRIME, so each one embeds in GF(p)
fractions = st.builds(Fraction, st.integers(-2 ** 128, 2 ** 128),
                      st.integers(1, 2 ** 128).filter(lambda d: d % PRIME))


@pytest.mark.parametrize("mode", ["rational", "prime"])
@given(fractions, fractions)
@example(Fraction(0), Fraction(-3, 7))
@example(Fraction(-2 ** 128, 3), Fraction(0))
def test_raw_product_is_field_product(mode, a, b):
    f = FIELDS[mode]
    x, y = f.of(a), f.of(b)
    assert f.wrap(f.raw(x)) == x
    assert f.wrap(f.mul(f.raw(x), f.raw(y))) == x * y


@pytest.mark.parametrize("mode", ["rational", "prime"])
@given(st.lists(fractions, min_size=25, max_size=35))
def test_raw_product_chain_is_fraction_product(mode, chain):
    # a chain as long as the row walk of a large factor, never reduced
    # on the way; its value is the Fraction product of the factors
    f = FIELDS[mode]
    acc, want = f.raw(f.one), Fraction(1)
    for a in chain:
        acc = f.mul(acc, f.raw(f.of(a)))
        want *= a
    assert f.wrap(acc) == f.of(want)


@pytest.mark.parametrize("mode", ["rational", "prime"])
@given(st.lists(fractions, max_size=12))
@example([])
@example([Fraction(0)])
def test_raw_batch_operations_are_field_operations(mode, values):
    # prod, sub, total and the batch inverses against the scalar ops,
    # empty lists and zeros among the inputs
    f = FIELDS[mode]
    xs = [f.of(a) for a in values]
    raws = [f.raw(x) for x in xs]
    want = f.one
    for x in xs:
        want = want * x
    assert f.wrap(f.prod(iter(raws))) == want
    assert f.total(iter(raws)) == sum(xs, f.zero)
    for x, y in zip(xs, xs[1:]):
        assert f.wrap(f.sub(f.raw(x), f.raw(y))) == x - y
    if all(f.wrap(r) for r in raws):
        assert [f.wrap(v) for v in f.inverses(raws)] == [1 / x for x in xs]
    else:
        with pytest.raises(ZeroDivisionError):
            f.inverses(raws)


def test_batch_inverse_mod_is_one_pow_per_batch(monkeypatch):
    # Montgomery's batch inversion: one modular inversion for the list
    from qlaumon import scalars
    calls = []

    def counted_pow(base, exp, mod=None):
        calls.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(scalars, "pow", counted_pow, raising=False)
    rng = random.Random(4)
    values = [rng.randrange(1, PRIME) for _ in range(50)]
    got = FIELDS["prime"].inverses(values)
    assert calls == [-1]
    assert got == [pow(v, -1, PRIME) for v in values]
