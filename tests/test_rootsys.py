"""Root system and Weyl group tests.

Weyl elements are permutations of the roots. Two oracles stand apart from
that machinery: type A inversion sets computed straight from permutation
combinatorics, and ambient matrices multiplied out from simple reflections.
"""

import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke.errors import BadCap, GroupTooLarge, UnsupportedType
from affine_hecke.rootsys import (
    DEFAULT_WEYL_CAP,
    WEYL_CAP_ENV,
    RootSystem,
    build,
    element_from_one_line,
    mat_transpose,
    reflect,
    vec,
    weyl_cap,
)
from affine_hecke.weights import weight


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def perm_inversion_roots(perm):
    """Inversion set of a permutation in one-line notation, as epsilon vectors.

    For w in S_n acting by w(e_i) = e_{w(i)}, the positive root e_j - e_i
    (i < j) is an inversion exactly when w(j) < w(i).
    """
    n = len(perm)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if perm[j] < perm[i]:
                root = [0] * n
                root[j] = 1
                root[i] = -1
                out.add(vec(root))
    return frozenset(out)


def reflection_matrix(alpha):
    """I - alpha (alpha^vee)^T: the reflection in the hyperplane normal to alpha."""
    norm = sum(c * c for c in alpha)
    n = len(alpha)
    return tuple(tuple((1 if i == j else 0) - 2 * alpha[i] * alpha[j] / norm
                       for j in range(n)) for i in range(n))


def identity_matrix(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def matvec(m, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in m)


def word_matrix(rs, word):
    """Ambient matrix of s_{word[0]} ... s_{word[-1]}, a product of reflections."""
    m = identity_matrix(rs.dim)
    for i in word:
        m = matmul(m, reflection_matrix(rs.simple_roots[i]))
    return m


def lex_least_reduced_words(rs):
    """Matrix -> lexicographically least reduced word, by brute force.

    Level l holds every reduced word of length l: a word is reduced exactly
    when no shorter word reaches its matrix.
    """
    gens = [reflection_matrix(a) for a in rs.simple_roots]
    best = {identity_matrix(rs.dim): ()}
    level = {(): identity_matrix(rs.dim)}
    while level:
        nxt = {}
        for word, m in level.items():
            for i, g in enumerate(gens):
                mg = matmul(m, g)
                if mg not in best:
                    nxt[word + (i,)] = mg
        for word in sorted(nxt):
            best.setdefault(nxt[word], word)
        level = nxt
    return best


ORDERS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("B", 3): 48,
          ("C", 2): 8, ("C", 3): 48, ("D", 2): 4, ("D", 3): 24, ("D", 4): 192,
          ("G", 2): 12}
POS_COUNTS = {("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("B", 2): 4, ("B", 3): 9,
              ("C", 2): 4, ("C", 3): 9, ("D", 2): 2, ("D", 3): 6, ("D", 4): 12,
              ("G", 2): 6}


# ---------------------------------------------------------------------------
# construction and enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,rank", sorted(ORDERS))
def test_orders_and_root_counts(label, rank):
    rs = build(label, rank)
    assert len(rs.positive_roots) == POS_COUNTS[(label, rank)]
    elements = rs.weyl_elements()
    assert len(elements) == ORDERS[(label, rank)]
    assert len({w.matrix for w in elements}) == len(elements)
    # deterministic order: identity first, longest last
    assert elements[0] == rs.identity()
    assert elements[-1].length() == len(rs.positive_roots)


def test_enumeration_cap():
    rs = build("A", 6)
    with pytest.raises(GroupTooLarge):
        rs.weyl_elements()
    assert len(build("A", 4).weyl_elements()) == 120


def test_cap_holds_after_the_first_enumeration(monkeypatch):
    rs = build("A", 4)
    monkeypatch.setenv(WEYL_CAP_ENV, "200")
    assert len(rs.weyl_elements()) == 120
    monkeypatch.setenv(WEYL_CAP_ENV, "10")
    with pytest.raises(GroupTooLarge):
        rs.weyl_elements()
    monkeypatch.setenv(WEYL_CAP_ENV, "100")
    with pytest.raises(GroupTooLarge):
        rs.weyl_elements()
    monkeypatch.setenv(WEYL_CAP_ENV, "120")
    assert len(rs.weyl_elements()) == 120


def test_a_blank_weyl_cap_means_the_default(monkeypatch):
    monkeypatch.setenv(WEYL_CAP_ENV, "")
    assert weyl_cap() == DEFAULT_WEYL_CAP
    monkeypatch.setenv(WEYL_CAP_ENV, " 24 ")
    assert weyl_cap() == 24


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "2.5"])
def test_a_weyl_cap_that_is_not_a_positive_integer_is_refused(monkeypatch,
                                                               raw):
    monkeypatch.setenv(WEYL_CAP_ENV, raw)
    with pytest.raises(BadCap, match=WEYL_CAP_ENV):
        weyl_cap()
    with pytest.raises(BadCap):
        build("A", 2).weyl_elements()


def test_a6_enumerates_past_the_default_cap(monkeypatch):
    rs = build("A", 6)
    monkeypatch.setenv(WEYL_CAP_ENV, "5040")
    elements = rs.weyl_elements()
    assert len(elements) == len(set(elements)) == 5040
    assert elements[0] == rs.identity()
    assert elements[-1].length() == 21
    assert elements[-1] == rs.long_element()


def test_unsupported_inputs():
    with pytest.raises(UnsupportedType):
        build("E", 8)
    with pytest.raises(UnsupportedType):
        build("C", 1)
    with pytest.raises(UnsupportedType):
        build("B", 3, lattice_mode="GL")


def test_type_a_realization():
    rs = build("A", 2, lattice_mode="GL")
    assert rs.dim == 3
    pos = set(rs.positive_roots)
    expect = {vec([-1, 1, 0]), vec([0, -1, 1]), vec([-1, 0, 1])}
    assert pos == expect


def test_type_c_realization():
    rs = build("C", 2)
    assert set(rs.positive_roots) == {
        vec([2, 0]), vec([-1, 1]), vec([1, 1]), vec([0, 2])}
    assert rs.simple_roots == (vec([2, 0]), vec([-1, 1]))
    # Cartan matrix entries <a_i, a_j^vee>
    assert rs.cartan_matrix == ((2, -2), (-1, 2))


def test_g2_cartan():
    rs = build("G", 2)
    assert rs.cartan_matrix == ((2, -1), (-3, 2))
    long_roots = [a for a in rs.positive_roots
                  if sum(c * c for c in a) == 6]
    assert len(long_roots) == 3


# ---------------------------------------------------------------------------
# inversion sets and words
# ---------------------------------------------------------------------------

def test_inversion_sets_match_permutation_oracle():
    rs = build("A", 3, lattice_mode="GL")
    for perm in itertools.permutations(range(1, 5)):
        w = element_from_one_line(rs, perm)
        assert w.inversion_set() == perm_inversion_roots(perm)
        assert w.length() == len(perm_inversion_roots(perm))


@pytest.mark.parametrize("label,rank", [("A", 3), ("C", 2), ("G", 2)])
def test_inversion_injective(label, rank):
    rs = build(label, rank)
    seen = {w.inversion_set() for w in rs.weyl_elements()}
    assert len(seen) == rs.weyl_order()


def test_reduced_words_s3():
    rs = build("A", 2)
    by_word = {w.reduced_word(): w for w in rs.weyl_elements()}
    assert set(by_word) == {(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)}
    for word, w in by_word.items():
        assert rs.element_from_word(word) == w


@pytest.mark.parametrize("label,rank", [("C", 3), ("G", 2), ("D", 3)])
def test_reduced_words_consistent(label, rank):
    rs = build(label, rank)
    for w in rs.weyl_elements():
        word = w.reduced_word()
        assert len(word) == w.length()
        assert rs.element_from_word(word) == w


def test_long_element():
    for label, rank in [("A", 3), ("C", 2), ("G", 2), ("B", 3)]:
        rs = build(label, rank)
        w0 = rs.long_element()
        assert w0.length() == len(rs.positive_roots)
        assert w0.inversion_set() == frozenset(rs.positive_roots)
        assert w0 * w0 == rs.identity()


def test_weak_order():
    rs = build("C", 2)
    e = rs.identity()
    w0 = rs.long_element()
    for w in rs.weyl_elements():
        assert e.inversion_set() <= w.inversion_set()
        assert w.inversion_set() <= w0.inversion_set()
        for v in rs.weyl_elements():
            if w.inversion_set() == v.inversion_set():
                assert v == w


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 47), st.integers(0, 47))
def test_length_subadditive(i, j):
    rs = build("C", 3)
    elements = rs.weyl_elements()
    v, w = elements[i], elements[j]
    prod = v * w
    assert prod.length() <= v.length() + w.length()
    assert (prod.length() - v.length() - w.length()) % 2 == 0


def test_reflection_conjugation():
    rs = build("C", 3)
    rng = random.Random(7)
    elements = rs.weyl_elements()
    for _ in range(25):
        w = rng.choice(elements)
        alpha = rng.choice(rs.positive_roots)
        lhs = w * rs.reflection(alpha) * w.inverse()
        img = w.act(alpha)
        if not rs.is_positive_root(img):
            img = vec([-c for c in img])
        assert lhs == rs.reflection(img)


def test_inverse_is_transpose():
    rs = build("G", 2)
    for w in rs.weyl_elements():
        assert w * w.inverse() == rs.identity()
        assert w.inverse().matrix == mat_transpose(w.matrix)


# ---------------------------------------------------------------------------
# the permutation route against ambient matrices
# ---------------------------------------------------------------------------

LADDER = ([("A", r, m) for r in range(1, 5) for m in ("P", "GL")]
          + [("B", r, "P") for r in (2, 3, 4)]
          + [("C", r, "P") for r in (2, 3)]
          + [("D", r, "P") for r in (2, 3, 4)]
          + [("G", 2, "P")])


def half_integer_gammas(dim):
    """Probes with odd halves, with halves and thirds, and with plain ints:
    the integer action puts each over one common denominator."""
    return (tuple(Fraction(2 * k + 1, 2) for k in range(dim)),
            tuple(Fraction(k - 2, 3 - k % 2) for k in range(dim)),
            tuple(range(dim)))


@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_permutations_agree_with_reflection_matrices(label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    positives = set(rs.positive_roots)
    probes = rs.roots + rs.fundamental_weights + half_integer_gammas(rs.dim)
    matrices = set()
    for w in rs.weyl_elements():
        m = word_matrix(rs, w.reduced_word())
        matrices.add(m)
        assert w.matrix == m
        assert all(type(c) is Fraction for row in w.matrix for c in row)
        for x in probes:
            assert w.act(x) == matvec(m, x)
            assert all(type(c) is Fraction for c in w.act(x))
            assert w.inverse().act(w.act(x)) == x
            assert w.act_inverse(w.act(x)) == x
        assert w.inversion_set() == frozenset(
            a for a in rs.positive_roots
            if tuple(-c for c in matvec(m, a)) in positives)
        assert w.inversions() == tuple(
            k for k, a in enumerate(rs.positive_roots)
            if a in w.inversion_set())
    assert len(matrices) == rs.weyl_order()
    elements = rs.weyl_elements()
    assert elements == rs.subgroup(
        [rs.simple_reflection(i) for i in range(rs.rank)])
    rng = random.Random(f"{label}{rank}{mode}")
    for _ in range(50):
        u, v = rng.choice(elements), rng.choice(elements)
        for x in probes:
            assert (u * v).act(x) == u.act(v.act(x))


def one_line_from_matrix(m):
    """Signed one-line notation read off the columns of an ambient matrix."""
    out = []
    for k, col in enumerate(zip(*m)):
        nonzero = [j for j, c in enumerate(col) if c]
        if len(nonzero) != 1 or abs(col[nonzero[0]]) != 1:
            return None
        j = nonzero[0]
        out.append(j + 1 if col[j] > 0 else -(j + 1))
    return tuple(out)


ONE_LINE_LADDER = ([("A", r, m) for r in range(1, 7) for m in ("P", "GL")]
                   + [(t, r, "P") for t in "BCD" for r in range(2, 6)]
                   + [("G", 2, "P")])


@pytest.mark.parametrize("label,rank,mode", ONE_LINE_LADDER)
def test_one_line_agrees_with_reflection_matrices(label, rank, mode,
                                                  monkeypatch):
    rs = build(label, rank, lattice_mode=mode)
    monkeypatch.setenv(WEYL_CAP_ENV, str(rs.weyl_order()))
    # integer entries in types A-D keep the products cheap
    gens = [tuple(tuple(int(c) if c.denominator == 1 else c for c in row)
                  for row in reflection_matrix(a)) for a in rs.simple_roots]
    identity = tuple(tuple(int(i == j) for j in range(rs.dim))
                     for i in range(rs.dim))
    # w = s_i (s_i w) with i the first letter of w's reduced word, and s_i w
    # is shorter, so it comes earlier in the (length, word) order
    matrices = {}
    for w in rs.weyl_elements():
        word = w.reduced_word()
        if not word:
            m = identity
        else:
            m = matmul(gens[word[0]],
                       matrices[rs.simple_reflection(word[0]) * w])
        matrices[w] = m
        # G2 has no one-line notation, though some of its matrices are
        # signed permutations (the identity, for one)
        expected = None if label == "G" else one_line_from_matrix(m)
        assert w.one_line() == expected
    assert len(set(matrices.values())) == rs.weyl_order()


WALK_LADDER = ([("A", r, "P") for r in range(1, 6)] + [("A", 3, "GL")]
               + [(t, r, "P") for t in "BC" for r in (2, 3, 4)]
               + [("D", 4, "P"), ("G", 2, "P")])


@pytest.mark.parametrize("label,rank,mode", WALK_LADDER)
def test_the_ordered_walk_agrees_with_the_sorted_closure(label, rank, mode):
    # two fresh systems, so the closure's lengths, words (by descent
    # stripping) and inversion sets (from inversions()) are its own
    walked = build(label, rank, lattice_mode=mode).weyl_elements()
    other = build(label, rank, lattice_mode=mode)
    closed = other.subgroup([other.simple_reflection(i)
                             for i in range(rank)])
    assert len(walked) == len(closed) == other.weyl_order()
    for w, v in zip(walked, closed):
        assert w.perm == v.perm
        assert w.length() == v.length()
        assert w.reduced_word() == v.reduced_word()
        assert w.inversion_set() == v.inversion_set()


def banned_sets(rs, rng):
    """Root sets to ban in a lower ideal: none, a random third of R+,
    Z(t) + (P(t) - J) of a nonempty region (t, J), and all of R+."""
    pos = rs.positive_roots
    den, dual = rs._dual_basis
    pairings = [k % 2 for k in range(rs.rank)]   # <gamma, a_k> in {0, 1}
    t = weight(rs, tuple(Fraction(sum(map(operator.mul, pairings, col)), den)
                         for col in zip(*dual)))
    Z, P = t.zp_sets()
    w = rng.choice([w for w in rs.weyl_elements()
                    if not w.inversion_set() & Z])
    J = w.inversion_set() & P
    return (frozenset(), frozenset(rng.sample(pos, len(pos) // 3)),
            Z | (P - J), frozenset(pos))


@pytest.mark.parametrize("label,rank,mode", WALK_LADDER)
def test_lower_ideals_are_the_filtered_walk_of_w(label, rank, mode):
    # each ideal on a fresh system, so its lengths, words and inversion
    # sets are seeded by its own walk
    other = build(label, rank, lattice_mode=mode)
    rng = random.Random(f"{label}{rank}{mode}")
    for banned in banned_sets(other, rng):
        ideal = build(label, rank, lattice_mode=mode)._lower_ideal(banned)
        filtered = [w for w in other.weyl_elements()
                    if not w.inversion_set() & banned]
        assert len(ideal) == len(filtered)
        for w, v in zip(ideal, filtered):
            assert w.perm == v.perm
            assert w.length() == v.length()
            assert w.reduced_word() == v.reduced_word()
            assert w.inversion_set() == v.inversion_set()


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_reduced_words_are_lex_least_by_brute_force(label, rank):
    rs = build(label, rank)
    best = lex_least_reduced_words(rs)
    assert len(best) == rs.weyl_order()
    for w in rs.weyl_elements():
        assert w.reduced_word() == best[w.matrix]


# ---------------------------------------------------------------------------
# elements as handles: one element however it is reached
# ---------------------------------------------------------------------------

def five_routes(system, word):
    """The reflection in the highest root of B3, of reduced word `word`,
    reached five ways, each on the root system system() returns: a
    conjugate s_i s_beta' s_i, the walk of W, element_from_word,
    inverse().inverse() and reflection."""
    rs = system()
    s = rs.simple_reflection(word[0])
    by_product = s * rs.reflection(reflect(rs.simple_roots[word[0]],
                                           HIGHEST_B3)) * s
    rs = system()
    by_walk = next(w for w in rs.weyl_elements() if w.reduced_word() == word)
    by_word = system().element_from_word(word)
    rs = system()  # a reflection is its own inverse: the word reversed
    by_inverse = rs.element_from_word(word[::-1]).inverse().inverse()
    by_reflection = system().reflection(HIGHEST_B3)
    return by_product, by_walk, by_word, by_inverse, by_reflection


HIGHEST_B3 = vec([1, 1, 0])


@pytest.mark.parametrize("shared", [True, False], ids=["one", "fresh"])
def test_every_route_reaches_one_element(shared):
    # on one root system the routes share an id; on fresh ones each route
    # finds its length, word and inversion set on its own
    one = build("B", 3)
    ref = build("B", 3).reflection(HIGHEST_B3)
    word = ref.reduced_word()
    routes = five_routes((lambda: one) if shared else (lambda: build("B", 3)),
                         word)
    first = routes[0]
    table = {first: "found"}
    for w in routes:
        assert w == first and first == w and not w != first
        assert w == ref and w.perm == ref.perm
        assert hash(w) == hash(first) == hash(ref)
        assert table[w] == "found"
        assert w.length() == len(word) == len(w.inversion_set()) == 7
        assert w.reduced_word() == first.reduced_word()
        assert w.inversion_set() == first.inversion_set()
    assert len(set(routes)) == 1
    if shared:
        assert len({w.id for w in routes}) == 1


def test_b_and_c_elements_with_one_permutation_stay_unequal():
    # B3 and C3 index their roots alike; e and w0 = -1 permute them alike
    b, c = build("B", 3), build("C", 3)
    pairs = [(b.identity(), c.identity()),
             (b.long_element(), c.long_element())]
    assert ({w.perm for w in b.weyl_elements()}
            & {w.perm for w in c.weyl_elements()}) == {u.perm for u, _ in pairs}
    for u, v in pairs:
        assert u.perm == v.perm
        assert u != v and not u == v
        assert {u: "B"}.get(v) is None
        assert len({u, v}) == 2
        assert u == build("B", 3).element_from_word(u.reduced_word())


def test_an_element_outlives_the_name_of_its_root_system():
    rs = build("A", 3)
    w = rs.element_from_word((0, 1, 2))
    del rs
    assert w.length() == 3
    assert w.reduced_word() == (0, 1, 2)
    assert w.inverse() * w == w.rs.identity()
    assert w.act(w.inverse().act((1, 2, 3, 4))) == vec([1, 2, 3, 4])
    assert w in w.rs.weyl_elements()


# ---------------------------------------------------------------------------
# closed subsets of R+
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,rank", [("A", 2), ("C", 2), ("G", 2)])
def test_biclosed_sets_are_inversion_sets(label, rank):
    # K and its complement both closed <=> K = R(w) for exactly one w
    rs = build(label, rank)
    inv_sets = {w.inversion_set() for w in rs.weyl_elements()}
    pos = list(rs.positive_roots)
    hits = set()
    for bits in itertools.product([0, 1], repeat=len(pos)):
        K = frozenset(a for a, b in zip(pos, bits) if b)
        _, k_closed, comp_closed = rs.closure(K)
        if k_closed and comp_closed:
            hits.add(K)
    assert hits == inv_sets


def test_closure_grows():
    rs = build("G", 2)
    a1, a2 = rs.simple_roots
    closed, was_closed, _ = rs.closure({a1, a2})
    assert not was_closed
    assert closed == frozenset(rs.positive_roots)


# ---------------------------------------------------------------------------
# lattices and weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_fundamental_weight_pairings(label, rank, mode):
    # <w_i, a_j^vee> = 2 (w_i, a_j) / (a_j, a_j), by plain dot products
    rs = build(label, rank, lattice_mode=mode)
    for i, omega in enumerate(rs.fundamental_weights):
        for j, alpha in enumerate(rs.simple_roots):
            pairing = (2 * sum(o * a for o, a in zip(omega, alpha))
                       / sum(a * a for a in alpha))
            assert pairing == (1 if i == j else 0)


def test_lattice_membership():
    gl = build("A", 2, lattice_mode="GL")
    assert gl.in_lattice(vec([3, 0, -2]))
    assert not gl.in_lattice(vec([Fraction(1, 2), 0, 0]))
    b3 = build("B", 3)
    assert b3.in_lattice(vec([Fraction(1, 2)] * 3))
    assert not b3.in_lattice(vec([Fraction(1, 2), 0, 0]))
    c3 = build("C", 3)
    assert c3.in_lattice(vec([1, 2, 3]))
    assert not c3.in_lattice(vec([Fraction(1, 2)] * 3))
    # type A weight lattice sits in the sum-zero hyperplane
    a2 = build("A", 2)
    assert a2.in_lattice(a2.fundamental_weights[0])
    assert not a2.in_lattice(vec([1, 0, 0]))


@pytest.mark.parametrize("label,rank,mode,x,coords", [
    ("A", 2, "GL", (3, 0, -2), (3, 0, -2)),
    ("A", 2, "GL", (Fraction(1, 2), 0, 0), None),
    ("A", 2, "GL", (1, 2), None),
    ("B", 3, "P", (Fraction(1, 2),) * 3, (0, 0, 1)),
    ("B", 3, "P", (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
     (0, 1, -1)),
    ("B", 3, "P", (Fraction(1, 2), 0, 0), None),
    ("C", 3, "P", (1, 2, 3), (1, 1, 1)),
    ("C", 3, "P", (Fraction(1, 2),) * 3, None),
    ("A", 2, "P", (1, -1, 0), (-2, 1)),
    ("A", 2, "P", (1, 0, 0), None),
])
def test_lattice_coordinates(label, rank, mode, x, coords):
    rs = build(label, rank, lattice_mode=mode)
    assert rs.lattice_coords(x) == coords
    assert rs.lattice_coords(vec(x)) == coords
    assert rs.in_lattice(x) == (coords is not None)
    if coords is not None:
        total = vec([0] * rs.dim)
        for c, g in zip(coords, rs.lattice_generators()):
            total = tuple(a + c * b for a, b in zip(total, g))
        assert total == vec(x)


@pytest.mark.parametrize("label,rank,oracle", [
    ("A", 3, lambda v: sorted(v) == [-1, 0, 0, 1]),
    ("B", 2, lambda v: any(v) and max(map(abs, v)) == 1),
    ("C", 2, lambda v: sorted(map(abs, v)) in ([0, 2], [1, 1])),
])
def test_is_root_matches_the_textbook_root_sets(label, rank, oracle):
    rs = build(label, rank)
    for v in itertools.product(range(-2, 3), repeat=rs.dim):
        assert (vec(v) in rs.root_index) == oracle(v), v


def test_dominance():
    gl = build("A", 3, lattice_mode="GL")
    assert weight(gl, [1, 1, 2, 5]).is_dominant()
    assert not weight(gl, [2, 1, 3, 4]).is_dominant()
    c2 = build("C", 2)
    assert weight(c2, [0, 2]).is_dominant()
    assert not weight(c2, [2, 1]).is_dominant()
    assert not weight(c2, [-1, 0]).is_dominant()


# ---------------------------------------------------------------------------
# one-line notation
# ---------------------------------------------------------------------------

def test_one_line_roundtrip_a():
    rs = build("A", 3, lattice_mode="GL")
    for w in rs.weyl_elements():
        line = w.one_line()
        assert element_from_one_line(rs, line) == w


def test_one_line_roundtrip_c():
    rs = build("C", 2)
    lines = set()
    for w in rs.weyl_elements():
        line = w.one_line()
        lines.add(line)
        assert element_from_one_line(rs, line) == w
    assert len(lines) == 8


def test_one_line_validation():
    rs = build("A", 2, lattice_mode="GL")
    with pytest.raises(ValueError):
        element_from_one_line(rs, (1, 1, 2))
    with pytest.raises(ValueError):
        element_from_one_line(rs, (-1, 2, 3))
    d3 = build("D", 3)
    with pytest.raises(ValueError):
        element_from_one_line(d3, (-1, 2, 3))
    assert element_from_one_line(d3, (-2, -1, 3)) is not None


def test_reflect_is_involution():
    rs = build("B", 3)
    for alpha in rs.positive_roots:
        for beta in rs.positive_roots:
            assert reflect(alpha, reflect(alpha, beta)) == beta


def bourbaki_cartan(label, n):
    """Cartan matrix (<a_i, a_j^vee>) in Bourbaki's numbering (Lie Groups and
    Lie Algebras, ch. VI, plates I-IV and IX), from the Dynkin diagram."""
    if label == "G":
        return ((2, -1), (-3, 2))
    m = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
         for i in range(n)]
    if label == "B":
        m[n - 2][n - 1] = -2        # a_n short
    elif label == "C":
        m[n - 1][n - 2] = -2        # a_n long
    elif label == "D":
        m[n - 2][n - 1] = m[n - 1][n - 2] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return tuple(map(tuple, m))


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 5), ("B", 2), ("B", 3), ("B", 5), ("C", 2),
    ("C", 3), ("C", 5), ("D", 3), ("D", 4), ("D", 5), ("G", 2)])
def test_cartan_matrix_is_bourbakis(label, rank):
    rs = build(label, rank)
    expected = bourbaki_cartan(label, rank)
    if label == "C":
        # this realization numbers type C from the long root 2e_1
        expected = tuple(row[::-1] for row in expected[::-1])
    assert rs.cartan_matrix == expected


@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_public_root_data_is_in_fractions(label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    vectors = (rs.roots + rs.positive_roots + rs.simple_roots
               + rs.fundamental_weights + rs.cartan_matrix
               + tuple(map(rs.simple_coefficients, rs.positive_roots)))
    assert all(type(c) is Fraction for v in vectors for c in v)


def test_describe_is_unchanged_over_the_ladder():
    # recorded from the construction that ran in Fraction arithmetic
    assert build("G", 2).describe() == {
        "type": "G", "rank": 2, "lattice_mode": "P", "ambient_dim": 3,
        "simple_roots": [["1", "-1", "0"], ["-2", "1", "1"]],
        "cartan_matrix": [["2", "-1"], ["-3", "2"]],
        "positive_roots": [["-2", "1", "1"], ["1", "-1", "0"],
                           ["-1", "0", "1"], ["0", "-1", "1"],
                           ["1", "-2", "1"], ["-1", "-1", "2"]],
        "fundamental_weights": [["0", "-1", "1"], ["-1", "-1", "2"]],
        "weyl_order": 12}
    doc = json.dumps([build(*key).describe() for key in LADDER],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "ef4098159383e3113cb34964807c6f1df37940b95ecbb4fa7c9066e452a069a5")


# A1-A5 on both lattices, the other types on P: the ladder of the Weyl tests
GOLDEN_LADDER = ([("A", r, m) for r in range(1, 6) for m in ("P", "GL")]
                 + [(t, r, "P") for t in "BCD" for r in (2, 3, 4)]
                 + [("G", 2, "P")])


def test_describe_and_dual_basis_are_pinned_over_the_ladder():
    # recorded from the construction that solved one system per weight
    doc = json.dumps([[rs.describe(), rs._dual_basis]
                      for rs in (build(*key) for key in GOLDEN_LADDER)],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "a732e917867cec029e39969179f4685887ea08736539fd10324d4ded7be69b53")


class HalfIntegerF4(RootSystem):
    """F4's simple roots (Bourbaki, plate VIII), one of them with halves."""

    @staticmethod
    def _simple_roots(t, r):
        half = Fraction(1, 2)
        return (vec([0, 1, -1, 0]), vec([0, 0, 1, -1]), vec([0, 0, 0, 1]),
                vec([half, -half, -half, -half]))


def test_a_root_coordinate_that_is_not_an_integer_is_refused():
    with pytest.raises(UnsupportedType, match="integers"):
        HalfIntegerF4("F", 4)


def test_describe_shape():
    rs = build("C", 2)
    doc = rs.describe()
    assert doc["weyl_order"] == 8
    assert len(doc["positive_roots"]) == 4
    assert doc["lattice_mode"] == "P"
