"""Central character tests: evaluation, W-action, Z/P sets, representatives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke.errors import (
    BadEll,
    MixedCosetExact,
    UnsupportedType,
    WrongLattice,
)
from affine_hecke.rootsys import build, vec, vec_add, vec_dot
from affine_hecke.scalars import ExactScalar
from affine_hecke.weights import (
    Weight,
    height_character,
    make_tag,
    parse_gamma,
    parse_tag,
    weight,
)


def q_pow(k):
    return ExactScalar.q_power(Fraction(k))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_zero_weight_evaluates_to_one():
    rs = build("A", 2, lattice_mode="GL")
    t = weight(rs, [0, 0, 0])
    for lam in ([1, 0, 0], [2, -1, 3], [0, 0, 0]):
        assert t.eval(lam) == 1


def test_normalization_on_simple_root():
    rs = build("A", 1, lattice_mode="GL")
    t = weight(rs, [0, 1])  # <gamma, e2 - e1> = 1
    assert t.eval(vec([-1, 1])) == q_pow(2)


def test_root_of_unity_example_values():
    # 14 coordinates, ell = 4
    rs = build("A", 13, lattice_mode="GL")
    gamma = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3]
    t = weight(rs, gamma, ell=4)
    e10 = [0] * 14
    e10[9] = 1
    assert t.eval(e10) == q_pow(6)
    Z, P = t.zp_sets()

    def root(i, j):  # e_j - e_i, 1-based
        r = [0] * 14
        r[j - 1], r[i - 1] = 1, -1
        return vec(r)

    assert root(1, 2) in Z
    assert root(1, 5) in P
    # exponent difference 3 = -1 mod 4 wraps into P
    assert root(1, 10) in P
    assert root(5, 10) not in P and root(5, 10) not in Z


def test_eval_requires_lattice_vector():
    rs = build("C", 2)
    t = weight(rs, [0, 1])
    with pytest.raises(WrongLattice):
        t.eval([Fraction(1, 2), 0])


def test_eval_homomorphism_exact():
    rs = build("C", 3)
    t = weight(rs, [Fraction(1, 2), Fraction(3, 4), 2])
    rng = random.Random(11)
    for _ in range(1000):
        lam = vec([rng.randint(-3, 3) for _ in range(3)])
        mu = vec([rng.randint(-3, 3) for _ in range(3)])
        assert t.eval(vec_add(lam, mu)) == t.eval(lam) * t.eval(mu)


# ---------------------------------------------------------------------------
# coset tags
# ---------------------------------------------------------------------------

def test_mixed_coset_raises():
    rs = build("A", 2, lattice_mode="GL")
    a, b = make_tag("a"), make_tag("b")
    t = weight(rs, [0, 0, 1], tags=(a, a, b))
    assert t.eval([1, -1, 0]) == 1  # same page: exact
    with pytest.raises(MixedCosetExact):
        t.eval([0, -1, 1])


def test_zp_ignores_cross_page_roots():
    rs = build("A", 2, lattice_mode="GL")
    a, b = make_tag("a"), make_tag("b")
    t = weight(rs, [0, 0, 0], tags=(a, a, b))
    Z, P = t.zp_sets()
    assert Z == frozenset({vec([-1, 1, 0])})
    assert P == frozenset()


def test_tags_require_supported_type():
    rs = build("G", 2)
    with pytest.raises(UnsupportedType):
        weight(rs, [0, 0, 0], tags=(make_tag("a"),) * 3)


def test_tag_parsing():
    assert parse_tag("1") == ()
    assert parse_tag("beta") == (("beta", 1),)
    assert parse_tag("beta^-1") == (("beta", -1),)
    assert parse_gamma("1/2,-3,0") == vec([Fraction(1, 2), -3, 0])


# ---------------------------------------------------------------------------
# W-action
# ---------------------------------------------------------------------------

def test_identity_fixes_weight():
    rs = build("C", 2)
    t = weight(rs, [Fraction(1, 3), 1])
    assert t.weyl_act(rs.identity()) == t


def test_s1_swaps_gl_coordinates():
    rs = build("A", 2, lattice_mode="GL")
    t = weight(rs, [5, 7, 9])
    s1 = rs.simple_reflection(0)
    assert t.weyl_act(s1).gamma == vec([7, 5, 9])


def test_long_element_antidominant():
    rs = build("C", 2)
    t = weight(rs, [1, 3])
    assert t.is_dominant()
    moved = t.weyl_act(rs.long_element())
    assert all(vec_dot(moved.gamma, a) <= 0 for a in rs.simple_roots)


def test_action_compatible_with_eval():
    rs = build("C", 2)
    t = weight(rs, [Fraction(1, 2), 2])
    rng = random.Random(3)
    for w in rs.weyl_elements():
        wt = t.weyl_act(w)
        for _ in range(5):
            lam = vec([rng.randint(-2, 2), rng.randint(-2, 2)])
            assert wt.eval(lam) == t.eval(w.act_inverse(lam))


def test_action_transports_zp():
    rs = build("C", 2)
    t = weight(rs, [0, 1])
    for w in rs.weyl_elements():
        Z, P = t.zp_sets()
        wZ, wP = t.weyl_act(w).zp_sets()
        for src, dst in ((Z, wZ), (P, wP)):
            expect = set()
            for a in src:
                img = w.act(a)
                expect.add(img if rs.is_positive_root(img)
                           else vec([-c for c in img]))
            assert dst == frozenset(expect)


def test_tagged_action_roundtrip():
    rs = build("C", 2)
    beta = make_tag("beta")
    t = weight(rs, [2, -1], tags=(beta, make_tag("beta", -1)))
    for w in rs.weyl_elements():
        back = t.weyl_act(w).weyl_act(w.inverse())
        assert back == t


# ---------------------------------------------------------------------------
# Z(t), P(t) on paper configurations
# ---------------------------------------------------------------------------

def test_c2_half_integral_zp():
    # <gamma, a1> = 0 and <gamma, a2> = 1: gamma = (0, 1)
    rs = build("C", 2)
    t = weight(rs, [0, 1])
    Z, P = t.zp_sets()
    assert Z == frozenset({vec([2, 0])})
    assert P == frozenset({vec([-1, 1]), vec([1, 1])})


def test_height_character_zp():
    for label, rank in [("A", 3), ("C", 3), ("G", 2)]:
        rs = build(label, rank)
        t = height_character(rs)
        Z, P = t.zp_sets()
        assert Z == frozenset()
        assert P == frozenset(rs.simple_roots)


def test_dominant_p_pairings_positive():
    rs = build("C", 3)
    rng = random.Random(5)
    for _ in range(40):
        g = sorted(Fraction(rng.randint(0, 6), 2) for _ in range(3))
        t = weight(rs, g)
        if not t.is_dominant():
            continue
        _, P = t.zp_sets()
        for a in P:
            assert vec_dot(t.gamma, a) == 1


# ---------------------------------------------------------------------------
# stabilizer
# ---------------------------------------------------------------------------

def test_stabilizer_orders():
    rs = build("C", 2)
    gens, group = weight(rs, [0, 1]).stabilizer()
    assert len(gens) == 1 and len(group) == 2
    _, full = weight(rs, [0, 0]).stabilizer()
    assert len(full) == 8
    _, trivial = weight(rs, [Fraction(1, 3), 5]).stabilizer()
    assert len(trivial) == 1


def test_stabilizer_fixes_weight():
    rs = build("C", 2)
    t = weight(rs, [0, 1])
    _, group = t.stabilizer()
    for w in group:
        assert t.weyl_act(w) == t


# ---------------------------------------------------------------------------
# dominant representative
# ---------------------------------------------------------------------------

def test_dominant_input_unchanged():
    rs = build("C", 2)
    t = weight(rs, [1, 2])
    rep, w = t.dominant_representative()
    assert rep == t and w == rs.identity()


def test_gl_sorting():
    rs = build("A", 2, lattice_mode="GL")
    t = weight(rs, [2, 0, 1])
    rep, w = t.dominant_representative()
    assert rep.gamma == vec([0, 1, 2])
    assert t.weyl_act(w) == rep


def test_dominant_representative_random():
    rs = build("C", 3)
    rng = random.Random(9)
    for _ in range(25):
        t = weight(rs, [Fraction(rng.randint(-4, 4), 2) for _ in range(3)])
        rep, w = t.dominant_representative()
        assert rep.is_dominant()
        assert t.weyl_act(w) == rep


def test_tagged_type_c_representative():
    rs = build("C", 2)
    t = weight(rs, [-3, 1], tags=(make_tag("beta", -1), make_tag("beta")))
    rep, w = t.dominant_representative()
    assert rep.tags == (make_tag("beta"), make_tag("beta"))
    assert rep.gamma == vec([1, 3])
    assert t.weyl_act(w) == rep


def test_tagged_type_a_grouping():
    rs = build("A", 3, lattice_mode="GL")
    a, b = make_tag("a"), make_tag("b")
    t = weight(rs, [4, 1, 3, 0], tags=(b, a, b, a))
    rep, w = t.dominant_representative()
    assert rep.tags == (a, a, b, b)
    assert rep.gamma == vec([0, 1, 3, 4])
    assert t.weyl_act(w) == rep


# ---------------------------------------------------------------------------
# modes, equality, errors
# ---------------------------------------------------------------------------

def test_root_of_unity_validation():
    rs = build("A", 2, lattice_mode="GL")
    with pytest.raises(BadEll):
        weight(rs, [0, 1, 2], ell=1)
    with pytest.raises(BadEll):
        weight(rs, [Fraction(1, 2), 0, 0], ell=3)
    with pytest.raises(UnsupportedType):
        weight(build("C", 2), [0, 1], ell=3)
    t = weight(rs, [5, -1, 2], ell=3)
    assert t.gamma == vec([2, 2, 2])


def test_character_equality_p_mode():
    rs = build("A", 2)
    t1 = weight(rs, [0, 1, 2])
    t2 = weight(rs, [1, 2, 3])  # differs by (1,1,1), invisible on sum-zero X
    assert t1 == t2 and hash(t1) == hash(t2)
    gl = build("A", 2, lattice_mode="GL")
    assert weight(gl, [0, 1, 2]) != weight(gl, [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
       st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_eval_multiplicative_property(lam, mu):
    rs = build("C", 2)
    t = weight(rs, [Fraction(2, 3), Fraction(-1, 2)])
    s = vec_add(vec(lam), vec(mu))
    assert t.eval(s) == t.eval(lam) * t.eval(mu)


def test_describe_roundtrip():
    rs = build("C", 2)
    t = weight(rs, [Fraction(1, 2), 1], tags=(make_tag("beta"), ()))
    doc = t.describe()
    assert doc["gamma"] == ["1/2", "1"]
    assert doc["coset"] == ["beta", "1"]
    assert doc["mode"] == "generic"
