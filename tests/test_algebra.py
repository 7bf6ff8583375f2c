"""Normal-form arithmetic and the center."""

import random
from fractions import Fraction

import pytest

from affine_hecke.algebra import AlgebraElt, is_central, orbit_sum
from affine_hecke.rootsys import build
from affine_hecke.scalars import ExactScalar


def qm():
    return ExactScalar.q_power(1) - ExactScalar.q_power(-1)


# -- relations -----------------------------------------------------------------

def test_quadratic_relation():
    rs = build("A", 1, lattice_mode="GL")
    t = AlgebraElt.t_generator(rs, 0)
    assert t * t == t.scale(qm()) + AlgebraElt.one(rs)


def test_cross_relation_positive_pairing():
    # <eps2, alpha^vee> = 1 in rank one
    rs = build("A", 1, lattice_mode="GL")
    s = rs.simple_reflection(0)
    x = AlgebraElt.x_monomial(rs, (0, 1))
    t = AlgebraElt.t_generator(rs, 0)
    expected = AlgebraElt.term(rs, s, (1, 0)) + AlgebraElt.term(
        rs, rs.identity(), (0, 1), qm())
    assert x * t == expected


def test_cross_relation_negative_pairing():
    rs = build("A", 1, lattice_mode="GL")
    s = rs.simple_reflection(0)
    x = AlgebraElt.x_monomial(rs, (1, 0))
    t = AlgebraElt.t_generator(rs, 0)
    expected = AlgebraElt.term(rs, s, (0, 1)) + AlgebraElt.term(
        rs, rs.identity(), (0, 1), qm()).scale(ExactScalar.from_rational(-1))
    assert x * t == expected


def test_monomials_multiply_by_exponent_addition():
    rs = build("C", 2)
    a = AlgebraElt.x_monomial(rs, (1, 1))
    b = AlgebraElt.x_monomial(rs, (0, 1))
    assert a * b == AlgebraElt.x_monomial(rs, (1, 2))
    assert a * b == b * a


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_braid_relations(label, rank):
    rs = build(label, rank)
    t1 = AlgebraElt.t_generator(rs, 0)
    t2 = AlgebraElt.t_generator(rs, 1)
    prod = rs.simple_reflection(0) * rs.simple_reflection(1)
    m, p = 1, prod
    while not p.is_identity():
        p = p * prod
        m += 1
    left = AlgebraElt.one(rs)
    right = AlgebraElt.one(rs)
    for k in range(m):
        left = left * (t1 if k % 2 == 0 else t2)
        right = right * (t2 if k % 2 == 0 else t1)
    assert left == right


def test_t_word_well_defined_across_reduced_words():
    rs = build("C", 2)
    w0 = rs.long_element()
    assert AlgebraElt.t_word(rs, (0, 1, 0, 1)) == AlgebraElt.t_word(
        rs, (1, 0, 1, 0))
    assert AlgebraElt.t_word(rs, w0.reduced_word()).terms.keys() == {
        (w0, (Fraction(0), Fraction(0)))}


def test_associativity_random_triples():
    rs = build("A", 2, lattice_mode="GL")
    rng = random.Random(7)
    elements = rs.weyl_elements()

    def rand_elt():
        out = AlgebraElt.zero(rs)
        for _ in range(rng.randint(1, 2)):
            w = rng.choice(elements)
            lam = tuple(rng.randint(-1, 1) for _ in range(3))
            c = ExactScalar.from_rational(Fraction(rng.randint(-3, 3)))
            out = out + AlgebraElt.term(rs, w, lam, c)
        return out

    for _ in range(60):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)


# -- the center ------------------------------------------------------------------

def test_orbit_sums_are_central():
    rs = build("A", 2, lattice_mode="GL")
    z = AlgebraElt.from_group_algebra(orbit_sum(rs, (1, 0, 0)))
    assert len(orbit_sum(rs, (1, 0, 0))) == 3
    assert is_central(z)

    rs = build("C", 2)
    f = orbit_sum(rs, rs.fundamental_weights[0])
    assert len(f) == 4
    assert is_central(AlgebraElt.from_group_algebra(f))


def test_non_invariant_monomial_is_not_central():
    rs = build("A", 2, lattice_mode="GL")
    assert not is_central(AlgebraElt.x_monomial(rs, (1, 0, 0)))
    assert is_central(AlgebraElt.one(rs).scale(ExactScalar.q_power(3)))


def test_describe_round_trip_shapes():
    rs = build("C", 2)
    z = AlgebraElt.t_word(rs, (0, 1)) + AlgebraElt.x_monomial(rs, (1, 1))
    doc = z.describe()
    assert {tuple(t["word"]) for t in doc["terms"]} == {(1, 2), ()}
    f = orbit_sum(rs, (1, 1))
    assert len(f.describe()["terms"]) == 4
