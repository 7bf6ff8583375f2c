"""Chamber sets, skew classification, interval structure, conjugation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke import regions as rg
from affine_hecke.errors import (
    EmptyRegion,
    JNotSubsetOfP,
    NotDominant,
    UnsupportedType,
)
from affine_hecke.rootsys import build, reflect
from affine_hecke.weights import height_character, make_tag, weight


def gamma_with_pairings(rs, pairings):
    """The weight in the span of the simple roots with the given root
    pairings p_i = <gamma, a_i>: the sum of p_i d_i over the dual basis."""
    den, dual = rs._dual_basis
    return weight(rs, tuple(
        sum(Fraction(p) * c for p, c in zip(pairings, col)) / den
        for col in zip(*dual)))


def eps7(j, i):
    v = [0] * 7
    v[j - 1] = 1
    v[i - 1] = -1
    return tuple(v)


# -- fibers ------------------------------------------------------------------

def test_generic_weight_single_fiber_is_whole_group():
    rs = build("C", 2)
    t = weight(rs, (Fraction(1, 5), Fraction(7, 9)))
    fib = rg.fibers(t)
    assert list(fib) == [frozenset()]
    assert len(fib[frozenset()]) == 8


def test_height_character_fibers_are_descent_classes():
    rs = build("A", 2)
    t = height_character(rs)
    fib = rg.fibers(t)
    assert len(fib) == 4
    sizes = {len(J): len(F) for J, F in fib.items()}
    assert sizes == {0: 1, 1: 2, 2: 1}
    for J, F in fib.items():
        for w in F:
            assert w.inversion_set() & frozenset(rs.simple_roots) == J


def test_regular_integral_fibers_restrict_descents():
    # pairings (1, 2, 1): regular and integral, P = {simple 1, simple 3}
    rs = build("A", 3, lattice_mode="GL")
    t = weight(rs, (0, 1, 3, 4))
    Z, P = t.zp_sets()
    assert Z == frozenset()
    assert P == frozenset({rs.simple_roots[0], rs.simple_roots[2]})
    fib = rg.fibers(t)
    assert sum(len(F) for F in fib.values()) == 24
    for J, F in fib.items():
        assert set(F.elements) == {
            w for w in rs.weyl_elements()
            if w.inversion_set() & frozenset(rs.simple_roots) & P == J}


def test_c2_singular_weight_fibers():
    rs = build("C", 2)
    t = weight(rs, (0, 1))
    a2 = rs.simple_roots[1]
    a12 = (Fraction(1), Fraction(1))
    fib = rg.fibers(t)
    keyed = {J: [w.reduced_word() for w in F] for J, F in fib.items()}
    assert keyed == {
        frozenset(): [()],
        frozenset({a2}): [(1,), (0, 1)],
        frozenset({a2, a12}): [(1, 0, 1)],
    }
    # fibers partition the minimal coset representatives of W / W_t
    _, W_t = t.stabilizer()
    assert sum(len(F) for F in fib.values()) == rs.weyl_order() // len(W_t)


def test_root_of_unity_fibers_partition():
    rs = build("A", 3, lattice_mode="GL")
    t = weight(rs, (0, 0, 1, 2), ell=3)
    Z, P = t.zp_sets()
    assert Z == {(Fraction(-1), Fraction(1), Fraction(0), Fraction(0))}
    assert len(P) == 5  # pairings 1 and 2, the latter wrapping to -1 mod 3
    fib = rg.fibers(t)
    assert sum(len(F) for F in fib.values()) == 12
    for J, F in fib.items():
        assert rg.chamber_set_pruned(t, J).elements == F.elements


def test_pruned_scan_matches_brute_force_on_grids():
    for label, rank in (("A", 2), ("C", 2)):
        rs = build(label, rank)
        for a in (0, Fraction(1, 2), 1, 2):
            for b in (0, Fraction(1, 2), 1, 2):
                t = gamma_with_pairings(rs, (a, b))
                for J, F in rg.fibers(t).items():
                    assert rg.chamber_set_pruned(t, J).elements == F.elements
    # rank 3 and 4, integral and half-integral pairings
    for label, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)):
        rs = build(label, rank)
        for pairings in itertools.product((0, Fraction(1, 2), 1),
                                          repeat=rank):
            t = gamma_with_pairings(rs, pairings)
            for J, F in rg.fibers(t).items():
                assert rg.chamber_set_pruned(t, J).elements == F.elements, (
                    label, rank, pairings, J)


# -- nonemptiness ------------------------------------------------------------

def test_nonempty_criterion_against_enumeration():
    for label in ("A", "C"):
        rs = build(label, 2)
        for a in (0, Fraction(1, 2), 1, 2):
            for b in (0, Fraction(1, 2), 1, 2):
                t = gamma_with_pairings(rs, (a, b))
                _, P = t.zp_sets()
                P = sorted(P)
                for mask in range(1 << len(P)):
                    J = frozenset(P[i] for i in range(len(P))
                                  if mask >> i & 1)
                    assert rg.nonempty_criterion(t, J) == (
                        len(rg.chamber_set(t, J)) > 0)


def test_empty_region_example():
    rs = build("C", 2)
    t = weight(rs, (0, 1))
    J = [(Fraction(1), Fraction(1))]  # the sum of the two P-roots' closure gap
    assert not rg.nonempty_criterion(t, J)
    assert len(rg.chamber_set(t, J)) == 0
    with pytest.raises(EmptyRegion):
        rg.is_skew(rg.local_region(t, J))
    with pytest.raises(EmptyRegion):
        rg.interval_structure(t, J)


# -- validation ---------------------------------------------------------------

def test_local_region_validation():
    rs = build("C", 2)
    with pytest.raises(NotDominant):
        rg.local_region(weight(rs, (1, 0)), [])
    t = weight(rs, (Fraction(1, 5), Fraction(7, 9)))
    with pytest.raises(JNotSubsetOfP):
        rg.local_region(t, [rs.simple_roots[0]])


def test_generic_mode_only_operations():
    rs = build("A", 3, lattice_mode="GL")
    t = weight(rs, (0, 0, 1, 2), ell=3)
    with pytest.raises(UnsupportedType):
        rg.interval_structure(t, [])
    with pytest.raises(UnsupportedType):
        rg.conjugate(rg.local_region(t, []))


# -- calibratable weights and skew regions ------------------------------------

def test_calibratable_goldens():
    assert rg.is_calibratable(height_character(build("C", 2)))
    assert not rg.is_calibratable(weight(build("C", 2), (0, 0)))
    assert not rg.is_calibratable(weight(build("C", 2), (0, 1)))
    t_b = gamma_with_pairings(build("C", 2), (1, 0))
    assert t_b.gamma == (Fraction(1, 2), Fraction(1, 2))
    assert not rg.is_calibratable(t_b)  # a simple root lies in Z
    s1 = t_b.rs.simple_reflection(0)
    assert rg.is_calibratable(t_b.weyl_act(s1))  # Z moves off the simples


def sweep_skew(rs, grid):
    """(pairings, J) for every skew region with nonregular center in the grid."""
    found = []
    for pair in grid:
        t = gamma_with_pairings(rs, pair)
        Z, _ = t.zp_sets()
        for J, F in rg.fibers(t).items():
            region = rg.LocalRegion(t, J)
            if rg.is_skew(region):
                if Z:
                    found.append((pair, J))
            elif not Z:
                raise AssertionError("regular centers always give skew regions")
    return found


@pytest.mark.parametrize("label,rank", [("A", 4), ("B", 4), ("C", 3),
                                        ("D", 4), ("G", 2)])
def test_rank_two_subsystems_are_the_reflection_closures(label, rank):
    # the roots of R_ij are the orbit of a_i and a_j under s_i and s_j
    rs = build(label, rank)
    for i, j in itertools.combinations(range(rank), 2):
        pair = (rs.simple_roots[i], rs.simple_roots[j])
        orbit, frontier = set(pair), list(pair)
        while frontier:
            frontier = [reflect(a, b) for a in pair for b in frontier
                        if reflect(a, b) not in orbit]
            orbit.update(frontier)
        sub = rg.rank_two_positive(rs, i, j)
        assert sub == tuple(a for a in rs.positive_roots if a in orbit)
        assert rg.rank_two_positive(rs, i, j) is sub


def test_rank_two_skew_classification():
    grid = [(a, b)
            for a in (0, Fraction(1, 2), 1, 2)
            for b in (0, Fraction(1, 2), 1, 2)]

    # type A2: no skew region has a nonregular center
    assert sweep_skew(build("A", 2), grid) == []

    # type C2: exactly two, over the weight with pairings (1, 0)
    rs = build("C", 2)
    a1 = rs.simple_roots[0]
    a12 = (Fraction(1), Fraction(1))
    assert sorted(sweep_skew(rs, grid), key=lambda x: len(x[1])) == [
        ((1, 0), frozenset({a1})),
        ((1, 0), frozenset({a1, a12})),
    ]

    # type G2: every proper nonempty J over the weight with pairings (0, 1)
    rs = build("G", 2)
    hits = sweep_skew(rs, grid + [(Fraction(1, 3), 0), (0, Fraction(1, 3))])
    t_e = gamma_with_pairings(rs, (0, 1))
    _, P = t_e.zp_sets()
    assert len(P) == 4
    assert all(pair == (0, 1) and J and J != P for pair, J in hits)
    expected = {J for J in rg.fibers(t_e) if J and J != P}
    assert {J for _, J in hits} == expected
    assert len(hits) >= 2


def test_almost_regular_failure_is_not_skew():
    # satisfies the rank-1 condition everywhere but fails the rank-2 one
    rs = build("A", 2)
    t_c = gamma_with_pairings(rs, (0, 1))
    region = rg.local_region(t_c, [rs.simple_roots[1]])
    for w in rg.chamber_set_pruned(t_c, region.J):
        Zw, _ = t_c.weyl_act(w).zp_sets()
        assert not Zw & set(rs.simple_roots)
    assert not rg.is_skew(region)

    rs = build("G", 2)
    t_f = gamma_with_pairings(rs, (1, 0))
    assert not rg.is_skew(rg.local_region(t_f, [rs.simple_roots[0]]))


# -- interval structure --------------------------------------------------------

def test_interval_structure_c2_half_integral():
    rs = build("C", 2)
    t = weight(rs, (0, Fraction(1, 2)))
    Z, P = t.zp_sets()
    assert Z == {(Fraction(2), Fraction(0))}
    assert P == {(Fraction(0), Fraction(2))}
    ivs = rg.interval_structure(t, P)
    # the extremes of F differ from the subsystem endpoints here
    assert ivs.w_min.inversion_set() == {
        (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(2))}
    assert ivs.w_max.inversion_set() == {
        (Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(2))}
    assert ivs.tau_lo == ivs.tau_hi == rs.reflection((0, 2))
    assert [w.reduced_word() for w in ivs.upper] == [(), (1,)]
    assert len(ivs.interval) == 1
    assert all(ivs.verification.values())
    assert ivs.integral_roots == {
        (Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))}


def test_interval_factorization_on_grid():
    # the F-extremes are only unique modulo the coset factor, so those two
    # flags are informational; the factorization flags must always hold
    required = ("tau_lo_found", "tau_hi_found", "tau_lo_matches",
                "tau_hi_matches", "endpoints_nested", "product_matches")
    for label in ("A", "C", "G"):
        rs = build(label, 2)
        for a in (0, Fraction(1, 2), 1):
            for b in (0, Fraction(1, 2), 1):
                t = gamma_with_pairings(rs, (a, b))
                for J, F in rg.fibers(t).items():
                    ivs = rg.interval_structure(t, J)
                    for key in required:
                        assert ivs.verification[key], (label, a, b, J, key)
                    assert set(ivs.upper) == {
                        w for w in rs.weyl_elements()
                        if not w.inversion_set() & ivs.integral_roots}
                    for part in (ivs.upper, ivs.interval):
                        assert list(part) == sorted(
                            part, key=lambda w: w.sort_key())
                    if ivs.w_min is not None and ivs.w_max is not None:
                        meet = ivs.w_min.inversion_set()
                        join = ivs.w_max.inversion_set()
                        for w in F:
                            assert meet <= w.inversion_set() <= join
                    if ivs.integral_roots:
                        sub = rs.subgroup(
                            [rs.reflection(x) for x in ivs.integral_roots])
                        lo = ivs.tau_lo.inversion_set() & ivs.integral_roots
                        hi = ivs.tau_hi.inversion_set() & ivs.integral_roots
                        expected = {
                            v for v in sub
                            if lo <= (v.inversion_set()
                                      & ivs.integral_roots) <= hi}
                        assert set(ivs.interval) == expected


def test_integral_center_interval_is_descent_class():
    rs = build("A", 3)
    t = height_character(rs)
    for J, F in rg.fibers(t).items():
        ivs = rg.interval_structure(t, J)
        assert ivs.verification["product_matches"]
        assert len(ivs.upper) == 1
        assert set(ivs.interval) == set(F.elements)
        assert ivs.verification["unique_min"]
        assert ivs.verification["unique_max"]


def test_interval_is_weak_order_convex_in_subsystem():
    rs = build("C", 2)
    t = weight(rs, (0, Fraction(1, 2)))
    _, P = t.zp_sets()
    ivs = rg.interval_structure(t, P)
    sub = rs.subgroup([rs.reflection(a) for a in ivs.integral_roots])
    lo = ivs.tau_lo.inversion_set() & ivs.integral_roots
    hi = ivs.tau_hi.inversion_set() & ivs.integral_roots
    expected = {
        v for v in sub
        if lo <= (v.inversion_set() & ivs.integral_roots) <= hi}
    assert set(ivs.interval) == expected


def test_interval_structure_large_symmetric_group():
    # |W| = 5040; the pruned scans must succeed without enumerating W
    rs = build("A", 6, lattice_mode="GL")
    t = weight(rs, (-1, -1, -1, 0, 0, 1, 1))
    J = [eps7(4, 2), eps7(4, 3), eps7(6, 5), eps7(7, 5)]
    ivs = rg.interval_structure(t, J)
    assert ivs.w_min.one_line() == (1, 3, 4, 2, 7, 5, 6)
    assert ivs.w_max.one_line() == (1, 5, 6, 2, 7, 3, 4)
    assert all(ivs.verification.values())
    assert len(ivs.upper) == 1  # integral center: the coset part is trivial
    assert len(ivs.interval) == 6
    assert ivs.w_min.inversion_set() == frozenset(J)


# -- conjugation ----------------------------------------------------------------

def test_conjugation_golden_seven_coordinates():
    rs = build("A", 6, lattice_mode="GL")
    t = weight(rs, (-1, -1, -1, 0, 0, 1, 1))
    J = [eps7(4, 2), eps7(4, 3), eps7(6, 5), eps7(7, 5)]
    reg = rg.local_region(t, J)
    conj = rg.conjugate(reg)
    assert conj.u.one_line() == (5, 6, 7, 3, 4, 1, 2)
    assert conj.region.t.gamma == tuple(
        Fraction(c) for c in (-1, -1, 0, 0, 1, 1, 1))
    assert conj.region.J == {
        eps7(5, 3), eps7(5, 4), eps7(6, 4), eps7(7, 4),
        eps7(3, 1), eps7(3, 2)}

    back = rg.conjugate(conj.region)
    assert back.region.t == t
    assert back.region.J == reg.J

    # the carried element lands in the conjugate chamber set, bijectively
    F = rg.chamber_set_pruned(t, reg.J).elements
    F2 = set(rg.chamber_set_pruned(conj.region.t, conj.region.J).elements)
    assert {w * conj.u.inverse() for w in F} == F2


def test_conjugation_small_properties():
    rs = build("C", 2)
    t = weight(rs, (0, 1))
    Z, _ = t.zp_sets()
    a2 = rs.simple_roots[1]
    reg = rg.local_region(t, [a2])
    conj = rg.conjugate(reg)
    assert conj.u.inversion_set() == frozenset(rs.positive_roots) - Z
    # this region is its own conjugate
    assert conj.region.t == t
    assert conj.region.J == reg.J
    w = rg.chamber_set(t, [a2]).elements[0]
    assert rg.conjugate(reg, w=w).w_image == w * conj.u.inverse()


def test_conjugation_involution_with_coset_tags():
    rs = build("A", 3, lattice_mode="GL")
    a, b = make_tag("a", 1), make_tag("b", 1)
    t = weight(rs, (0, 1, 0, 1), tags=(a, a, b, b))
    _, P = t.zp_sets()
    assert len(P) == 2  # cross-page roots carry tags and drop out
    reg = rg.local_region(t, [sorted(P)[0]])
    conj = rg.conjugate(reg)
    assert conj.region.t != t
    back = rg.conjugate(conj.region)
    assert back.region.t == t
    assert back.region.J == reg.J


def test_conjugation_refuses_a_z_outside_every_standard_parabolic():
    # the tags leave only e3 - e1 with a trivial tag, so t is dominant and
    # Z(t) = {e3 - e1}, which no standard parabolic subgroup has as roots
    b = make_tag("b")
    t = weight(build("A", 2, "GL"), (0, 5, 0), (b, (), b))
    Z, _ = t.zp_sets()
    assert Z == {(-1, 0, 1)}
    with pytest.raises(UnsupportedType, match="standard parabolic"):
        rg.conjugate(rg.local_region(t, ()))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        st.sampled_from([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3]),
        st.sampled_from([0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3])),
    st.randoms(use_true_random=False))
def test_region_properties_random_centers(pair, rnd):
    rs = build("C", 2)
    t = gamma_with_pairings(rs, pair)
    fib = rg.fibers(t)
    _, W_t = t.stabilizer()
    assert sum(len(F) for F in fib.values()) == rs.weyl_order() // len(W_t)
    J = rnd.choice(list(fib))
    assert rg.chamber_set_pruned(t, J).elements == fib[J].elements
    assert rg.nonempty_criterion(t, J)
    back = rg.conjugate(rg.conjugate(rg.LocalRegion(t, J)).region)
    assert back.region.t == t and back.region.J == J


def test_chamber_set_describe_is_serializable():
    import json

    rs = build("C", 2)
    t = weight(rs, (0, 1))
    out = rg.chamber_set(t, [rs.simple_roots[1]]).describe()
    assert out["size"] == 2
    json.dumps(out)
