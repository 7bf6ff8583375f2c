"""The Weyl-side fast paths against the plain formulas they replace.

Inversion sets and Z(t), P(t) are unions of cached root singletons, weight
signatures pair in integers, characters are evaluated once per lattice
vector, and weight groups are found once per module with a windowed search.
Each is checked here against the direct Fraction formula, over the ladder.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from affine_hecke import regions as rg
from affine_hecke import repn
from affine_hecke.errors import NumericIllConditioned, UndefinedTau
from affine_hecke.rootsys import build, vec, vec_dot, vec_neg
from affine_hecke.scalars import near
from affine_hecke.weights import TRIVIAL_TAG, Weight, combine_tags, make_tag

LADDER = ([("A", r, m) for r in range(1, 5) for m in ("P", "GL")]
          + [("B", r, "P") for r in (2, 3, 4)]
          + [("C", r, "P") for r in (2, 3)]
          + [("D", r, "P") for r in (2, 3, 4)]
          + [("G", 2, "P")])


def ladder_weights(rs):
    """Integral and half-integral weights; tagged ones in types A and C, and
    root-of-unity ones in type A."""
    rng = random.Random(repr(rs))
    gammas = [tuple(rng.randint(-2, 2) for _ in range(rs.dim))
              for _ in range(4)]
    gammas += [tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(rs.dim))
               for _ in range(2)]
    out = [Weight(rs, g) for g in gammas]
    if rs.type_label in "AC":
        z = make_tag("z")
        tags = tuple(z if k % 2 else TRIVIAL_TAG for k in range(rs.dim))
        out += [Weight(rs, g, tags) for g in gammas[:2]]
    if rs.type_label == "A":
        out += [Weight(rs, g, None, ell) for g in gammas[:2] for ell in (3, 4)]
    return out


def reference_inversion_set(w):
    """{a in R+ : w(a) < 0}, from the action on roots."""
    rs = w.rs
    return frozenset(a for a in rs.positive_roots
                     if rs.is_positive_root(vec_neg(w.act(a))))


def reference_zp_sets(t):
    """Z(t) and P(t) from Fraction pairings with gamma."""
    Z, P = set(), set()
    for alpha in t.rs.positive_roots:
        if t.tag_of(alpha) != TRIVIAL_TAG:
            continue
        c = vec_dot(t.gamma, alpha)
        if t.ell is not None:
            c = Fraction(int(c) % t.ell)
            units = (1, t.ell - 1)
        else:
            units = (1, -1)
        if c == 0:
            Z.add(alpha)
        elif c in units:
            P.add(alpha)
    return frozenset(Z), frozenset(P)


def reference_signature(t):
    """Values of t on the lattice generators, paired in Fractions."""
    sig = []
    for g in t.rs.lattice_generators():
        net = combine_tags((t.tags[i], int(c)) for i, c in enumerate(g)
                           if c.denominator == 1)
        expo = vec_dot(t.gamma, g)
        if t.ell is not None:
            expo = Fraction(int(expo) % t.ell)
        sig.append((net, expo))
    return (t.rs.key, t.ell, tuple(sig))


def reference_fibers(t):
    """{J: elements} with R(w) cap Z empty and R(w) cap P = J, in W order."""
    Z, P = reference_zp_sets(t)
    out = {}
    for w in t.rs.weyl_elements():
        inv = reference_inversion_set(w)
        if not inv & Z:
            out.setdefault(inv & P, []).append(w)
    return out


@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_weak_order_is_the_subset_order_on_inversion_sets(label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    elements = rs.weyl_elements()
    rng = random.Random(f"{label}{rank}{mode}")
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(200)]
    pairs += [(u, u * v) for u, v in pairs[:50]]
    for u, v in pairs:
        subset = reference_inversion_set(u) <= reference_inversion_set(v)
        assert u.weak_leq(v) == subset
        # R(u) <= R(v) exactly when v = x u with l(v) = l(x) + l(u)
        assert subset == (v.length()
                          == (v * u.inverse()).length() + u.length())


@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_zp_sets_fibers_and_signatures_match_the_fraction_formulas(
        label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    elements = rs.weyl_elements()
    for t in ladder_weights(rs):
        assert t.zp_sets() == reference_zp_sets(t)
        assert t._signature() == reference_signature(t)
        assert hash(t) == hash(reference_signature(t))
        for w in elements[::max(1, len(elements) // 8)]:
            moved = t.weyl_act(w)
            assert moved.zp_sets() == reference_zp_sets(moved)
            assert moved._signature() == reference_signature(moved)
        dom, _ = t.dominant_representative()
        if not dom.is_dominant():
            continue
        fibers = rg.fibers(dom)
        expected = reference_fibers(dom)
        assert set(fibers) == set(expected)
        for J, chambers in fibers.items():
            assert chambers.elements == tuple(expected[J])
            assert all(type(c) is Fraction for a in J for c in a)


def count_fraction_hashes(monkeypatch):
    calls = []
    plain = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    return calls


@pytest.mark.parametrize("label,rank", [("A", 4), ("B", 4), ("D", 4),
                                        ("G", 2)])
def test_inversion_sets_and_fibers_hash_no_fraction(label, rank, monkeypatch):
    rs = build(label, rank)
    elements = rs.weyl_elements()
    rs._positive_singletons()
    t = Weight(rs, (2, 1, 1, 0, 0)[:rs.dim])
    calls = count_fraction_hashes(monkeypatch)
    inv = [w.inversion_set() for w in elements]
    Z, P = t.zp_sets()
    fibers = rg.fibers(t)
    assert calls == []
    monkeypatch.undo()
    assert inv == [reference_inversion_set(w) for w in elements]
    assert sum(map(len, fibers.values())) == sum(
        1 for r in inv if not r & Z)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def reference_numeric_ev(t, q0):
    """The numeric character of t, evaluated afresh on every call."""
    syms = sorted({s for tag in t.tags for s, _ in tag})
    vals = {s: cmath.exp(2j * math.pi * (((k + 1) * repn._GOLDEN) % 1.0))
            for k, s in enumerate(syms)}

    def ev(lam):
        expo = 2 * vec_dot(t.gamma, lam)
        if t.ell is not None:
            expo = Fraction(2 * (int(expo // 2) % t.ell))
        out = q0 ** float(expo)
        for sym, k in t.tag_of(lam):
            out *= vals[sym] ** k
        return complex(out)

    return ev


def lattice_probes(rs):
    rng = random.Random(repr(rs))
    gens = rs.lattice_generators()
    probes = []
    for _ in range(6):
        coeffs = [rng.randint(-2, 2) for _ in gens]
        probes.append(vec(sum(c * g[i] for c, g in zip(coeffs, gens))
                          for i in range(rs.dim)))
    return list(gens) + probes + [vec_neg(g) for g in gens]


@pytest.mark.parametrize("label,rank,mode", LADDER)
def test_memoized_characters_are_the_plain_evaluations(label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    probes = lattice_probes(rs)
    for t in ladder_weights(rs):
        ops = repn._NumericScalars(t)
        plain = reference_numeric_ev(t, ops.q0)
        for lam in probes + probes:
            assert ops.ev(lam) == plain(lam)
            assert ops.ev(list(lam)) == plain(lam)
        if t.ell is not None or any(t.tag_of(a) for a in rs.positive_roots):
            continue
        exact = repn._ExactScalars(t)
        for lam in probes + probes:
            assert exact.ev(lam) == Weight(rs, t.gamma).eval(lam)


# ---------------------------------------------------------------------------
# weight groups
# ---------------------------------------------------------------------------

def reference_character_groups(keys):
    """The pairwise clustering: each key joins the first cluster whose first
    key is near it, and no two first keys may sit within 10 RANK_TOL."""
    tol = repn.RANK_TOL
    groups, reps = [], []
    for idx, key in enumerate(keys):
        for group, first in zip(groups, reps):
            if all(near(x, y, tol) for x, y in zip(key, first)):
                group.append(idx)
                break
        else:
            groups.append([idx])
            reps.append(key)
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            gap = max(abs(x - y) for x, y in zip(reps[a], reps[b]))
            if gap < 10 * tol:
                raise NumericIllConditioned(
                    f"weight clusters separated by only {gap:.3g}")
    return groups


def outcome(fn, keys):
    try:
        return fn(keys)
    except NumericIllConditioned as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(40))
def test_windowed_character_groups_match_the_pairwise_scan(seed):
    rng = random.Random(seed)
    tol = repn.RANK_TOL
    width = rng.randint(1, 3)
    scale = rng.choice((1.0, 1e3, 1e-3))
    centres = [tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * scale
                     for _ in range(width)) for _ in range(rng.randint(1, 30))]
    if rng.random() < 0.5:   # characters that agree on the first generator
        centres = [centres[0][:1] + c[1:] for c in centres]
    # shifts inside one tolerance, at the cluster edge, inside the
    # ten-tolerance exclusion and well apart; real parts often tie
    shifts = (0.0, 0.3 * tol, 0.99 * tol, 1.01 * tol, 3 * tol, 9.9 * tol,
              10.1 * tol, 1e-3)
    keys = []
    for _ in range(rng.randint(1, 80)):
        c = rng.choice(centres)
        mag = max(1.0, abs(c[0]))
        keys.append(tuple(
            x + complex(rng.choice((0, 1)) * rng.choice(shifts),
                        rng.choice((0, 1)) * rng.choice(shifts)) * mag
            * rng.choice((1, -1))
            for x in c))
    if rng.random() < 0.5:   # some keys far apart only: no raise
        keys = [c for c in dict.fromkeys(centres)]
    assert (outcome(lambda k: repn._character_groups(k, False), keys)
            == outcome(reference_character_groups, keys))


def numeric_a3_series():
    rs = build("A", 3, lattice_mode="GL")
    z = make_tag("z")
    return repn.principal_series(Weight(rs, (1, 2, 1, 2),
                                        (z, z, TRIVIAL_TAG, TRIVIAL_TAG)))


def weight_answers(rep):
    """Weight decomposition, commutant and every tau operator of rep."""
    out = [repn.weight_decomposition(rep).describe(), repn.commutant_dim(rep)]
    for t in dict.fromkeys(rep.basis_weights):
        out.append(repn.generalized_weight_basis(rep, t))
        for i in range(rep.rs.rank):
            try:
                out.append(repn.tau_operator(i, t, rep).matrix)
            except UndefinedTau:
                out.append(None)
    return out


def test_weight_groups_are_found_once_per_module(monkeypatch):
    rep = numeric_a3_series()
    calls = []
    plain = repn._character_groups

    def counted(keys, exact):
        calls.append(len(keys))
        return plain(keys, exact)

    monkeypatch.setattr(repn, "_character_groups", counted)
    cached = weight_answers(rep)
    assert calls == [rep.dim]
    # the same answers when every call groups afresh
    cached_groups = repn._weight_groups

    def regrouped(m):
        m._groups = None
        return cached_groups(m)

    monkeypatch.setattr(repn, "_weight_groups", regrouped)
    assert weight_answers(numeric_a3_series()) == cached
    assert len(calls) > 2
