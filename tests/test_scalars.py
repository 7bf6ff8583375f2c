import random
from fractions import Fraction

import cmath
import pytest
from hypothesis import given, settings, strategies as st

from affine_hecke.errors import DivisionByZero, PoleAtSpecialization, ScaleMismatch
from affine_hecke.scalars import (
    ExactScalar,
    _pdivmod,
    _pgcd,
    near,
)

Q = ExactScalar.q_power


def rand_scalar(rng, scale=1):
    # small random rational function: ratio of degree <= 2 polynomials
    def poly():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    num = poly()
    den = poly()
    while not any(den):
        den = poly()
    return ExactScalar(num, den, scale)


def test_inverse_pair():
    assert Q(2) * Q(-2) == 1


def test_simplification():
    q = Q(1)
    expr = (q - q ** -1) / (1 - q ** -2)
    assert expr == q


def test_canonical_zero():
    q = Q(1)
    z = (1 - q ** 2) + (q ** 2 - 1)
    assert z.is_zero()
    assert z.num == ()
    assert z.den == (Fraction(1),)


def test_q_power_basics():
    assert Q(0) == 1
    assert Q(1, 1) == ExactScalar.v_power(1, 1)
    half = Q(Fraction(3, 2), 2)
    assert half == ExactScalar.v_power(3, 2)
    with pytest.raises(ScaleMismatch):
        Q(Fraction(1, 2), 1)


def test_scale_coercion():
    a = Q(1, 1)          # q at scale 1
    b = Q(Fraction(1, 2), 2)  # q^(1/2) at scale 2
    assert b * b == a
    assert (a / b) == b


def test_equal_values_hash_alike_across_scales():
    assert Q(1) == Q(1, scale=2)
    assert len({Q(1), Q(1, scale=2)}) == 1
    rng = random.Random(11)
    for _ in range(50):
        a = rand_scalar(rng)
        assert hash(a) == hash(a.rescaled(6)) == hash(a.rescaled(6).rescaled(12))
    assert ExactScalar.one(3) == 1 and hash(ExactScalar.one(3)) == hash(1)
    assert hash(ExactScalar.zero(2)) == hash(0)
    third = ExactScalar.from_rational(Fraction(1, 3), 4)
    assert hash(third) == hash(Fraction(1, 3))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q(1) / ExactScalar.zero()
    with pytest.raises(DivisionByZero):
        ExactScalar.zero().inverse()


def test_specialize_monomial():
    q0 = cmath.exp(2j * cmath.pi / 8)
    val = (Q(2)).specialize(q0)
    assert abs(abs(val) - 1) < 1e-12
    assert near(val, cmath.exp(2j * cmath.pi * 2 / 8))


def test_specialize_simplified():
    q = Q(1)
    expr = (q - q ** -1) / (1 - q ** -2)
    for q0 in (1.5 + 0.25j, cmath.exp(2j * cmath.pi / 6), 0.3 - 2j):
        assert near(expr.specialize(q0), q0)


def test_specialize_pole():
    q = Q(1)
    x = 1 / (1 - q ** 2)
    val = x.specialize(cmath.exp(2j * cmath.pi / 6))
    assert cmath.isfinite(val)
    with pytest.raises(PoleAtSpecialization):
        x.specialize(1.0)


def test_field_axioms_random():
    rng = random.Random(20260814)
    one = ExactScalar.one()
    for _ in range(1000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ExactScalar.zero()
        if not a.is_zero():
            assert a * a.inverse() == one


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_monomial_multiplication(j, k):
    assert Q(j) * Q(k) == Q(j + k)


def test_specialize_is_ring_hom():
    rng = random.Random(7)
    q0 = 1.3 + 0.7j
    for _ in range(50):
        a, b = rand_scalar(rng), rand_scalar(rng)
        try:
            lhs = (a * b).specialize(q0)
            rhs = a.specialize(q0) * b.specialize(q0)
        except PoleAtSpecialization:
            continue
        assert near(lhs, rhs, 1e-9)
        assert near((a + b).specialize(q0),
                    a.specialize(q0) + b.specialize(q0), 1e-9)


def test_serialize_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_scalar(rng, scale=2)
        doc = a.serialize()
        assert ExactScalar.parse(doc) == a
    doc = Q(Fraction(3, 2), 2).serialize()
    assert doc["scale"] == 2
    assert all(isinstance(s, str) and "/" in s for s in doc["num"])


# ---------------------------------------------------------------------------
# reduced-operand arithmetic against normalising the unreduced cross products
# ---------------------------------------------------------------------------

def pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pcomb(a, b, sign):
    """a + sign * b."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return [x + sign * y for x, y in zip(a, b)]


def oracle_poly(rng):
    """A small nonzero polynomial, often a constant, monomial or 1 - v^k."""
    kind = rng.randrange(4)
    if kind == 0:
        return [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))]
    if kind == 1:
        return [0] * rng.randint(1, 3) + [Fraction(rng.choice((-2, 1, 3)))]
    if kind == 2:
        return [1] + [0] * rng.randint(0, 2) + [-1]
    return ([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
            + [Fraction(rng.choice((-1, 2)))])


def oracle_pair(rng):
    """Two scalars at scale 1 or 2 that often share a factor."""
    shared = oracle_poly(rng)
    out = []
    for _ in range(2):
        num, den = oracle_poly(rng), oracle_poly(rng)
        if rng.random() < 0.4:
            num = pmul(num, shared)
        if rng.random() < 0.4:
            den = pmul(den, shared)
        if rng.random() < 0.05:
            num = []
        out.append(ExactScalar(num, den, rng.choice((1, 1, 2))))
    a, b = out
    roll = rng.random()
    if roll < 0.05:
        b = a
    elif roll < 0.1:
        b = -a
    return a, b


def assert_same(x, y):
    assert (x.num, x.den, x.scale, hash(x)) == (y.num, y.den, y.scale, hash(y))


def test_reduced_arithmetic_matches_normalised_cross_products():
    rng = random.Random(5)
    for _ in range(5000):
        a, b = oracle_pair(rng)
        s = max(a.scale, b.scale)  # the lcm, for scales 1 and 2
        ra, rb = a.rescaled(s), b.rescaled(s)
        n1, d1, n2, d2 = ra.num, ra.den, rb.num, rb.den
        cross = pmul(n1, d2), pmul(n2, d1)
        assert_same(a + b, ExactScalar(pcomb(*cross, 1), pmul(d1, d2), s))
        assert_same(a - b, ExactScalar(pcomb(*cross, -1), pmul(d1, d2), s))
        assert_same(a * b, ExactScalar(pmul(n1, n2), pmul(d1, d2), s))
        if n2:
            assert_same(a / b, ExactScalar(pmul(n1, d2), pmul(d1, n2), s))
            assert_same(b.inverse(), ExactScalar(b.den, b.num, b.scale))
        else:
            with pytest.raises(DivisionByZero):
                a / b


def euclid(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return tuple(x / a[-1] for x in a)


def test_gcd_shortcuts_match_euclid():
    F = Fraction
    v3, v5_plus_v2 = (0, 0, 0, F(1)), (0, 0, F(1), 0, 0, F(1))
    assert _pgcd(v3, v5_plus_v2) == (0, 0, F(1))
    assert _pgcd(v5_plus_v2, (0, F(-2))) == (0, F(1))
    assert _pgcd((0, 0, F(1), F(1)), (0, F(1), F(1))) == (0, F(1), F(1))
    assert _pgcd((F(3),), v5_plus_v2) == (F(1),)
    rng = random.Random(9)
    for _ in range(500):
        a, b = (tuple(F(c) for c in oracle_poly(rng)) for _ in range(2))
        if rng.random() < 0.5:
            a = tuple(pmul(a, b))
        assert _pgcd(a, b) == euclid(a, b)
