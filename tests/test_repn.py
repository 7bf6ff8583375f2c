"""Principal series, weight decompositions, intertwiners, calibrated modules."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_hecke import regions as rg
from affine_hecke import repn
from affine_hecke import tableaux as tb
from affine_hecke.algebra import bernstein_string
from affine_hecke.errors import (
    DivisionByZero,
    GroupTooLarge,
    HeckeError,
    MixedCosetExact,
    NotRegular,
    NotSkew,
    NumericIllConditioned,
    TooLarge,
    UndefinedTau,
    UnsupportedType,
)
from affine_hecke.rootsys import (_rank_nullspace, _rref, build,
                                   mat_transpose, vec_neg)
from affine_hecke.scalars import ExactScalar, near
from affine_hecke.weights import Weight, height_character, make_tag, weight

Q = ExactScalar.q_power(1)


def gamma_with_pairings(rs, pairings, tags=None, ell=None):
    """The weight in the span of the simple roots with the given root
    pairings p_i = <gamma, a_i>: the sum of p_i d_i over the dual basis."""
    den, dual = rs._dual_basis
    return weight(rs, tuple(
        sum(Fraction(p) * c for p, c in zip(pairings, col)) / den
        for col in zip(*dual)), tags, ell)


# -- principal series --------------------------------------------------------

def test_rank_one_matrices_are_the_textbook_pair():
    rs = build("A", 1)
    t = gamma_with_pairings(rs, ("2",))
    rep = repn.principal_series(t)
    assert rep.dim == 2
    assert rep.backend == "exact"
    assert rep.report["all_pass"]

    tm = rep.t_mats[0]
    assert not tm[0][0]
    assert tm[0][1] == 1
    assert tm[1][0] == 1
    assert tm[1][1] == Q - 1 / Q

    om = rs.lattice_generators()[0]
    s = rs.simple_reflection(0)
    xm = rep.x_mats[0]
    assert not xm[1][0]
    assert xm[0][0] == t.eval(om)
    assert xm[1][1] == t.eval(s.act(om))
    assert xm[0][1] == (Q - 1 / Q) * t.eval(om)


@pytest.mark.parametrize("label,rank,pairings", [
    ("A", 2, ("5/2", "7/3")),
    ("C", 2, ("3/2", "5/7")),
])
def test_defining_relations_hold_exactly(label, rank, pairings):
    t = gamma_with_pairings(build(label, rank), pairings)
    report = repn.principal_series(t).report
    assert report["backend"] == "exact"
    assert report["all_pass"]
    for key in ("quadratic", "braid", "x_commute", "cross"):
        assert report[key]["failures"] == []
        assert report[key]["checked"] > 0


def test_corrupted_generator_is_flagged():
    rs = build("A", 1)
    t = gamma_with_pairings(rs, ("2",))
    good = repn.principal_series(t, backend="numeric")
    bad = ((good.t_mats[0][0][0] + 1.0, good.t_mats[0][0][1]),
           (good.t_mats[0][1][0], good.t_mats[0][1][1]))
    rep = repn.ModuleRep.from_matrices(
        rs, good.basis, (bad,), good.x_mats, weight=t,
        basis_weights=good.basis_weights, backend="numeric", q0=good.q0)
    assert not rep.report["all_pass"]
    assert "T_1" in rep.report["quadratic"]["failures"]

    with pytest.raises(ValueError):
        repn.ModuleRep.from_matrices(
            build("C", 2), good.basis, (bad,), good.x_mats)


def dense_failures(rep):
    """The relation failures of a numeric module found by dense numpy
    products, as an oracle for the column by column check."""
    rs = rep.rs
    ts = [np.array(m, dtype=complex) for m in rep.t_mats]
    xs = [np.array(m, dtype=complex) for m in rep.x_mats]
    eye = np.eye(rep.dim)
    qm = rep._ops.qm

    def same(a, b):
        return all(near(x, y, repn.NUMERIC_TOL)
                   for x, y in zip(a.flat, b.flat))

    def x_power(mu):
        out = eye
        for x, c in zip(xs, rs.lattice_coords(mu)):
            out = out @ np.linalg.matrix_power(x, c)
        return out

    def alternating(a, b, m):
        out = a
        for k in range(1, m):
            out = out @ (b if k % 2 else a)
        return out

    found = {"quadratic": [f"T_{i + 1}" for i, t in enumerate(ts)
                           if not same(t @ t, qm * t + eye)],
             "braid": [], "x_commute": [], "cross": []}
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            m = repn._braid_order(rs, i, j)
            if not same(alternating(ts[i], ts[j], m),
                        alternating(ts[j], ts[i], m)):
                found["braid"].append(f"(T_{i + 1}, T_{j + 1}) order {m}")
    gens = rs.lattice_generators()
    for k in range(len(gens)):
        for l in range(k + 1, len(gens)):
            if not same(xs[k] @ xs[l], xs[l] @ xs[k]):
                found["x_commute"].append(f"(X_{k + 1}, X_{l + 1})")
    for i, alpha in enumerate(rs.simple_roots):
        s = rs.simple_reflection(i)
        for k, g in enumerate(gens):
            sign, terms = bernstein_string(g, alpha, rs.coroot(alpha))
            rhs = ts[i] @ x_power(s.act(g))
            for mu in terms:
                rhs = rhs + (qm if sign > 0 else -qm) * x_power(mu)
            if not same(xs[k] @ ts[i], rhs):
                found["cross"].append(f"(T_{i + 1}, X_{k + 1})")
    return found


def perturbed(rep, family, row, col, delta):
    """rep with delta added to entry (row, col) of the first T or X matrix."""
    mats = {"t": [list(map(list, m)) for m in rep.t_mats],
            "x": [list(map(list, m)) for m in rep.x_mats]}
    mats[family][0][row][col] += delta
    return repn.ModuleRep.from_matrices(
        rep.rs, rep.basis, mats["t"], mats["x"], weight=rep.weight,
        basis_weights=rep.basis_weights, backend=rep.backend,
        q0=rep.q0)


FAMILIES = ("quadratic", "braid", "x_commute", "cross")


def three_separate_boxes():
    """The exact calibrated module of three unlinked boxes, dim 6."""
    cfg = tb.region_to_configuration(*tb.skew_to_region((3, 2, 1), (2, 1)))
    return repn.calibrated_module(rg.local_region(cfg.t, cfg.J),
                                  backend="exact")


def tagged_a3_series():
    """The numeric A3 GL principal series of the weyl_numeric items, dim 24."""
    t = weight(build("A", 3, lattice_mode="GL"), (1, 2, 1, 2),
               (make_tag("z"), make_tag("z"), (), ()))
    return repn.principal_series(t, backend="numeric")


@pytest.mark.parametrize("fixture", [three_separate_boxes, tagged_a3_series],
                         ids=["calibrated", "series"])
def test_the_column_check_flags_a_perturbed_last_column(fixture):
    rep = fixture()
    d = rep.dim
    assert d >= 6 and rep.report["all_pass"]
    one = rep._ops.one()

    bad_t = perturbed(rep, "t", d - 1, d - 1, one)
    assert "T_1" in bad_t.report["quadratic"]["failures"]
    assert bad_t.report["x_commute"]["failures"] == []

    bad_x = perturbed(rep, "x", 0, d - 1, one)
    assert (bad_x.report["x_commute"]["failures"]
            or bad_x.report["cross"]["failures"])
    assert bad_x.report["quadratic"]["failures"] == []
    assert bad_x.report["braid"]["failures"] == []
    assert not bad_t.report["all_pass"] and not bad_x.report["all_pass"]

    if rep.backend == "numeric":
        for module in (rep, bad_t, bad_x):
            found = dense_failures(module)
            for family in FAMILIES:
                assert module.report[family]["failures"] == found[family]


def test_numeric_column_comparison_is_near_on_every_row():
    # one pass per column, with near's rule row by row and a missing row
    # reading zero; gaps sit just inside and just outside the tolerance at
    # sizes below, at and above 1
    ops = repn._NumericScalars()
    tol = repn.NUMERIC_TOL
    rng = np.random.default_rng(7)
    cases = 0
    for scale in (1e-12, 1e-9, 1.0, 3.0, 1e6):
        for gap in (0.5, 0.999, 1.0, 1.001, 2.0):
            for _ in range(20):
                rows = rng.choice(6, size=rng.integers(1, 6), replace=False)
                u = {int(r): complex(*rng.normal(size=2)) * scale
                     for r in rows}
                v = dict(u)
                r = int(rng.choice(rows))
                bound = tol * max(1.0, abs(u[r]))
                v[r] = u[r] + gap * bound * complex(*rng.normal(size=2)) / (
                    2 ** 0.5)
                if rng.random() < 0.3:
                    v[6] = gap * tol  # a row missing from u
                expected = all(near(u.get(k, 0j), v.get(k, 0j), tol)
                               for k in u.keys() | v.keys())
                assert ops.col_eq(u, v) == ops.col_eq(v, u) == expected
                cases += expected
    assert 0 < cases < 500


def test_exact_column_comparison_reads_a_missing_row_as_zero():
    ops = repn._ExactScalars()
    one, zero = ops.one(), ops.zero()
    assert ops.col_eq({0: one, 1: zero}, {0: one})
    assert not ops.col_eq({0: one}, {0: one, 2: one})
    assert not ops.col_eq({0: one}, {0: ExactScalar.q_power(1)})


def test_the_column_check_agrees_with_dense_products_on_a_failing_series():
    # the P lattice at a root of unity fails cross relations (a known defect
    # of the exponent reduction), which both checks must find alike
    t = weight(build("A", 3), (0, 1, 2, 3), ell=4)
    rep = repn.principal_series(t, backend="numeric")
    assert rep.report["cross"]["failures"]
    found = dense_failures(rep)
    for family in FAMILIES:
        assert rep.report[family]["failures"] == found[family]


def test_group_size_cap():
    rs = build("A", 7)
    with pytest.raises(GroupTooLarge):
        repn.principal_series(weight(rs, (0,) * 8))


def test_mixed_tags_force_the_numeric_backend():
    rs = build("C", 2)
    base = gamma_with_pairings(rs, ("2", "1/2"))
    t = weight(rs, base.gamma, (make_tag("b"), make_tag("b", 0)))
    rep = repn.principal_series(t)
    assert rep.backend == "numeric"
    assert rep.report["all_pass"]
    with pytest.raises(MixedCosetExact):
        repn.principal_series(t, backend="exact")


def test_constant_tags_keep_the_exact_backend():
    # a shared tag multiplies every character value by the same unit, so
    # detagging is a module isomorphism and exact arithmetic still applies
    rs = build("A", 2)
    base = gamma_with_pairings(rs, ("2", "3"))
    t = weight(rs, base.gamma, (make_tag("u"),) * 3)
    rep = repn.principal_series(t)
    assert rep.backend == "exact"
    assert rep.report["all_pass"]


def test_root_of_unity_mode_is_numeric_only():
    rs = build("A", 3, lattice_mode="GL")
    t = weight(rs, (0, 0, 1, 2), None, 3)
    rep = repn.principal_series(t)
    assert rep.backend == "numeric"
    assert rep.report["all_pass"]
    with pytest.raises(UnsupportedType):
        repn.principal_series(t, backend="exact")


# -- weight decomposition ----------------------------------------------------

def test_regular_weight_splits_into_lines():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("2", "3"))
    rep = repn.principal_series(t)
    dec = repn.weight_decomposition(rep)
    assert dec.dim == 6
    assert len(dec.labels) == 6
    assert set(dec.labels) == {t.weyl_act(w) for w in rs.weyl_elements()}
    assert all(v == (1, 1) for v in dec.spaces.values())


def test_nonregular_weight_has_nilpotent_parts():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    dec = repn.weight_decomposition(repn.principal_series(t))
    assert len(dec.labels) == 4
    assert all(v == (1, 2) for v in dec.spaces.values())


def test_numeric_decomposition_matches_exact():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("2", "3"))
    exact = repn.weight_decomposition(repn.principal_series(t))
    numeric = repn.weight_decomposition(
        repn.principal_series(t, backend="numeric"))
    assert exact.spaces == numeric.spaces


@pytest.mark.parametrize("gamma", [(0, Fraction(1, 2), 3, Fraction(7, 2)),
                                   (0, 1, 2, 3), (0, 0, 1, 1)])
def test_exact_a3_decomposition_matches_its_numeric_twin(gamma):
    t = weight(build("A", 3), gamma)
    exact = repn.weight_decomposition(repn.principal_series(t, backend="exact"))
    numeric = repn.weight_decomposition(
        repn.principal_series(t, backend="numeric"))
    assert exact.spaces == numeric.spaces


def test_generalized_dimension_multiset_is_orbit_invariant():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    spaces = repn.weight_decomposition(repn.principal_series(t)).spaces
    base = sorted(gen for _, gen in spaces.values())
    assert base == [2, 2, 2]
    for w in rs.weyl_elements():
        moved = repn.weight_decomposition(
            repn.principal_series(t.weyl_act(w)))
        assert sorted(gen for _, gen in moved.spaces.values()) == base


def test_fibers_see_constant_generalized_dimension():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    dec = repn.weight_decomposition(repn.principal_series(t))
    fib = rg.fibers(t)
    assert sorted(len(F) for F in fib.values()) == [1, 1, 2]
    for F in fib.values():
        dims = {dec.spaces[t.weyl_act(w)][1] for w in F}
        assert dims == {2}


# -- spherical vector --------------------------------------------------------

def test_spherical_vector_checks_on_a_generic_line():
    rs = build("A", 1)
    t = gamma_with_pairings(rs, ("2",))
    sp = repn.spherical(t)
    assert sp.vector[0] == 1
    assert sp.vector[1] == Q
    assert sp.eigen_pass
    assert sp.generates
    assert not sp.criterion.is_zero()
    assert sp.expansion_check


def test_generation_fails_exactly_at_the_critical_value():
    rs = build("A", 1)
    # pairing -1 puts the value q^2 on the negative root (q^-2 on the
    # positive one), which is precisely where the generation product dies
    t = gamma_with_pairings(rs, ("-1",))
    sp = repn.spherical(t)
    assert sp.eigen_pass
    assert not sp.generates
    assert sp.criterion.is_zero()
    assert sp.expansion_check

    # the mirror weight with q^2 on the positive root still generates
    assert repn.spherical(gamma_with_pairings(rs, ("1",))).generates


def test_expansion_needs_a_regular_weight():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    rep = repn.principal_series(t)
    assert repn.spherical(t, rep=rep).expansion_check is None
    with pytest.raises(NotRegular):
        repn.tau_basis(rep)


def test_expansion_holds_on_a_regular_rank_two_weight():
    t = gamma_with_pairings(build("A", 2), ("5/2", "7/3"))
    sp = repn.spherical(t)
    assert sp.eigen_pass
    assert sp.generates
    assert sp.expansion_check


def test_root_of_unity_generation_flag():
    rs = build("A", 3, lattice_mode="GL")
    # the pairing 2 == ell - 1 root makes the generation product vanish
    t = weight(rs, (0, 0, 1, 2), None, 3)
    sp = repn.spherical(t)
    assert sp.eigen_pass
    assert not sp.generates
    assert sp.criterion is None


# -- irreducibility ----------------------------------------------------------

def test_kato_criterion_examples():
    assert repn.kato_irreducible(
        gamma_with_pairings(build("A", 2), ("5/2", "7/3")))
    assert not repn.kato_irreducible(height_character(build("A", 2)))
    assert not repn.kato_irreducible(height_character(build("C", 2)))


def test_kato_matches_commutant_on_generic_seeds():
    # prime denominators keep every root pairing non-integral, so both sides
    # land on the irreducible case and have to agree
    for label, rank in (("A", 2), ("C", 2)):
        rs = build(label, rank)
        for a, b in [(1, 1), (2, 3), (3, 5), (4, 2), (6, 4), (2, 6)]:
            t = gamma_with_pairings(rs, (Fraction(a, 5), Fraction(b, 7)))
            assert repn.kato_irreducible(t)
            rep = repn.principal_series(t, backend="numeric")
            assert repn.commutant_dim(rep) == 1


def test_opposite_unit_pairings_split_the_module():
    t = gamma_with_pairings(build("A", 2), ("1", "-1"))
    assert not repn.kato_irreducible(t)
    numeric = repn.principal_series(t, backend="numeric")
    assert repn.commutant_dim(numeric) == 2
    exact = repn.principal_series(t)
    assert repn.commutant_dim(exact) == repn._block_commutant(exact) == 2
    assert dense_exact_commutant(exact) == 2


def test_uniserial_module_hides_from_the_commutant():
    # the height character is reducible (P is nonempty) yet indecomposable,
    # so its endomorphisms are scalars; only Kato's criterion sees this
    t = height_character(build("A", 2))
    assert not repn.kato_irreducible(t)
    rep = repn.principal_series(t, backend="numeric")
    assert repn.commutant_dim(rep) == 1


# -- intertwiners ------------------------------------------------------------

def test_tau_needs_the_character_off_the_wall():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    rep = repn.principal_series(t)
    with pytest.raises(UndefinedTau):
        repn.tau_operator(0, t, rep)


def test_tau_basis_is_unitriangular_and_diagonalizes_x():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("2", "3"))
    rep = repn.principal_series(t)
    basis = repn.tau_basis(rep)
    assert set(basis) == set(rep.basis)
    index = {w: k for k, w in enumerate(rep.basis)}
    ops = rep._ops
    for w, v in basis.items():
        k = index[w]
        assert v[k] == 1
        assert all(not v[j] for j in range(k + 1, len(v)))
        wt = t.weyl_act(w)
        for g in rs.lattice_generators():
            moved = [sum((a * b for a, b in zip(row, v)), ops.zero())
                     for row in rep.x_power(g)]
            c = wt.eval(g)
            assert all(ops.eq(a, c * b) for a, b in zip(moved, v))


def mat_eq(a, b, ops) -> bool:
    """Entrywise equality of two dense matrices of the same shape."""
    return (len(a) == len(b)
            and all(len(ra) == len(rb) and all(map(ops.eq, ra, rb))
                    for ra, rb in zip(a, b)))


# small dense helpers on matrices given by rows, independent of the library's
# column kernel

def mat_mul(a, b, ops):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ops.zero())
                       for col in zip(*b)) for row in a)


def mat_id(n, ops):
    return tuple(tuple(ops.one() if i == j else ops.zero() for j in range(n))
                 for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def solve_in_span(basis, target, ops):
    """C with basis . C = target, from one elimination of [B | T]. The
    pivots must be B's columns: B has independent columns and T lies in
    their span."""
    m = len(basis[0])
    work = [list(b) + list(t) for b, t in zip(basis, target)]
    assert _rref(work, m + len(target[0]), ops) == list(range(m))
    return tuple(tuple(row[m:]) for row in work[:m])


def test_tau_intertwines_the_lattice_action():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    rep = repn.principal_series(t)
    op = repn.tau_operator(1, t, rep)
    s = rs.simple_reflection(1)
    ops = rep._ops
    for g in rs.lattice_generators():
        tgt = solve_in_span(
            op.target_basis, mat_mul(rep.x_power(g), op.target_basis, ops), ops)
        src = solve_in_span(
            op.source_basis,
            mat_mul(rep.x_power(s.act(g)), op.source_basis, ops), ops)
        assert mat_eq(mat_mul(tgt, op.matrix, ops),
                      mat_mul(op.matrix, src, ops), ops)


def test_tau_square_is_the_rational_operator():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    rep = repn.principal_series(t)
    ops = rep._ops
    fwd = repn.tau_operator(1, t, rep)
    back = repn.tau_operator(1, fwd.target, rep)
    square = mat_mul(back.matrix, fwd.matrix, ops)

    alpha = rs.simple_roots[1]
    restrict = lambda mu: solve_in_span(
        fwd.source_basis, mat_mul(rep.x_power(mu), fwd.source_basis, ops),
        ops)
    xp, xm = restrict(alpha), restrict(vec_neg(alpha))
    eye = mat_id(len(square), ops)
    factor = lambda x: mat_sub(mat_scale(Q, eye), mat_scale(1 / Q, x))
    num = mat_mul(factor(xp), factor(xm), ops)
    den = mat_mul(mat_sub(eye, xp), mat_sub(eye, xm), ops)
    assert mat_eq(mat_mul(square, den, ops), num, ops)


def test_tau_pair_invertibility_tracks_the_q2_wall():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("2", "3"))
    rep = repn.principal_series(t)
    for i in range(2):
        fwd = repn.tau_operator(i, t, rep)
        back = repn.tau_operator(i, fwd.target, rep)
        assert fwd.is_invertible()
        assert back.is_invertible()

    rsc = build("C", 2)
    tc = gamma_with_pairings(rsc, ("0", "1"))
    repc = repn.principal_series(tc)
    fwd = repn.tau_operator(1, tc, repc)  # value q^2 on that root
    back = repn.tau_operator(1, fwd.target, repc)
    assert fwd.is_invertible()
    assert not back.is_invertible()


def test_tau_braid_relation():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("2", "3"))
    rep = repn.principal_series(t)
    ops = rep._ops

    def compose(word):
        out, cur = None, t
        for i in reversed(word):
            op = repn.tau_operator(i, cur, rep)
            out = op.matrix if out is None else mat_mul(op.matrix, out, ops)
            cur = op.target
        return out, cur

    m010, end010 = compose([0, 1, 0])
    m101, end101 = compose([1, 0, 1])
    assert end010 == end101
    assert mat_eq(m010, m101, ops)


@pytest.mark.parametrize("label,pairings,i", [
    ("A", ("2", "3"), 0), ("A", ("2", "3"), 1), ("C", ("0", "1"), 1)])
def test_numeric_tau_is_the_exact_one_at_q0(label, pairings, i):
    t = gamma_with_pairings(build(label, 2), pairings)
    exact = repn.principal_series(t, backend="exact")
    numeric = repn.principal_series(t, backend="numeric")

    def close(a, b):
        return (len(a) == len(b) and all(
            len(ra) == len(rb) and all(near(x.specialize(numeric.q0), y, 1e-7)
                                       for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)))

    # the operator and the one back from its target
    for source in (t, t.weyl_act(build(label, 2).simple_reflection(i))):
        ex = repn.tau_operator(i, source, exact)
        nu = repn.tau_operator(i, source, numeric)
        assert ex.target == nu.target
        assert close(ex.matrix, nu.matrix)
        assert close(ex.source_basis, nu.source_basis)
        assert ex.is_invertible() == nu.is_invertible()


@pytest.mark.parametrize("backend,upper", [
    pytest.param("exact", True, id="exact"),
    pytest.param("numeric", True, id="numeric"),
    pytest.param("numeric", False, id="numeric-lower"),
])
def test_a_singular_x_on_the_p_lattice_is_reported(backend, upper):
    # on the P lattice s_1 sends the generator to its inverse, so the cross
    # relation needs X^-1; with the bottom row of X zeroed there is none; with
    # the top row moved down and zeroed X is not triangular, and is refused
    rs = build("A", 1)
    rep = repn.principal_series(gamma_with_pairings(rs, ("2",)),
                                backend=backend)
    x = [list(rep.x_mats[0][0]), [rep._ops.zero()] * 2]
    build_broken = lambda: repn.ModuleRep.from_matrices(
        rs, rep.basis, rep.t_mats, [x], weight=rep.weight, backend=backend)
    if not upper:
        x.reverse()
        with pytest.raises(UnsupportedType, match="upper triangular"):
            build_broken()
        return
    broken = build_broken()
    assert broken.report["cross"]["failures"] == [
        "(T_1, X_1): matrix is singular"]
    assert not broken.report["all_pass"]


@pytest.mark.parametrize("top", [45, 60])
def test_a_wide_x_diagonal_is_inverted_as_in_the_exact_twin(top):
    # X_2 runs from 1 to q0^(2 top), about 1.1e9 at top = 45, and the cross
    # relations need its inverse
    rs = build("A", 1, lattice_mode="GL")
    t = weight(rs, (0, top))
    numeric = repn.principal_series(t, backend="numeric")
    exact = repn.principal_series(t, backend="exact")
    assert numeric.report["all_pass"]
    for g in rs.lattice_generators():
        got = numeric._x_power_columns(vec_neg(g))
        want = exact._x_power_columns(vec_neg(g))
        for a, b in zip(got, want, strict=True):
            assert a.keys() == b.keys()
            for r, x in b.items():
                y = x.specialize(numeric.q0)
                assert abs(a[r] - y) <= 1e-12 * abs(y)


def calibrated_skew(backend):
    """The calibrated module of the skew shape (3, 2)/(1), dim 5."""
    cfg = tb.region_to_configuration(*tb.skew_to_region((3, 2), (1,)))
    return repn.calibrated_module(rg.local_region(cfg.t, cfg.J),
                                  backend=backend)


@pytest.mark.parametrize("make", [
    lambda: repn.principal_series(weight(
        build("A", 3, lattice_mode="GL"), (0, 0, 1, 1)), backend="exact"),
    lambda: repn.principal_series(weight(
        build("A", 3, lattice_mode="GL"), (0, 1, 2, 3)), backend="numeric"),
    lambda: repn.principal_series(weight(build("C", 3), (3, 2, 1)),
                                  backend="exact"),
    lambda: calibrated_skew("exact"),
    lambda: calibrated_skew("numeric"),
], ids=["a3-exact", "a3-numeric", "c3-exact", "skew-exact", "skew-numeric"])
def test_x_times_its_inverse_is_the_identity_column_by_column(make):
    rep = make()
    ops = rep._ops
    for x in rep.x_cols:
        inverse = repn._inverse(x, ops)
        assert len(inverse) == rep.dim
        for k, col in enumerate(inverse):
            assert ops.col_eq(repn._apply(x, col, ops), {k: ops.one()})


@pytest.mark.parametrize("ops", [repn._ExactScalars(), repn._NumericScalars()],
                         ids=["exact", "numeric"])
def test_a_zero_pivot_leaves_a_triangular_matrix_without_inverse(ops):
    one = ops.one()
    cols = ({0: one}, {0: one}, {0: one, 1: one, 2: one})
    with pytest.raises(DivisionByZero, match="matrix is singular"):
        repn._inverse(cols, ops)


def test_tau_raises_named_errors_where_its_denominator_is_singular():
    # the P lattice at a root of unity (the known defect of its exponent
    # reduction) leaves 1 - X^-alpha_1 singular on the first basis weight
    t = weight(build("A", 3), (0, 1, 2, 3), ell=4)
    rep = repn.principal_series(t, backend="numeric")
    with pytest.raises(DivisionByZero, match="matrix is singular"):
        repn.tau_operator(0, rep.basis_weights[0], rep)
    for i in range(rep.rs.rank):
        for source in dict.fromkeys(rep.basis_weights):
            try:
                repn.tau_operator(i, source, rep)
            except HeckeError:
                pass


# -- calibrated modules ------------------------------------------------------

def test_calibrated_rank_one_entries():
    rs = build("A", 1)
    t = gamma_with_pairings(rs, ("7/2",))
    mod = repn.calibrated_module(rg.local_region(t, frozenset()))
    assert mod.dim == 2
    assert mod.report["all_pass"]

    va = t.eval(rs.simple_roots[0])
    qm = Q - 1 / Q
    tm = mod.t_mats[0]
    assert tm[0][0] == qm / (1 - 1 / va)
    assert tm[1][1] == qm / (1 - va)
    assert tm[1][0] == 1 / Q + tm[0][0]
    assert tm[0][1] == 1 / Q + tm[1][1]

    om = rs.lattice_generators()[0]
    xm = mod.x_mats[0]
    assert not xm[0][1] and not xm[1][0]
    assert xm[0][0] == t.eval(om)
    assert xm[1][1] == t.eval(rs.simple_reflection(0).act(om))


def test_calibrated_skew_region_in_type_c():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("1", "1/2"))
    J = frozenset({rs.simple_roots[0]})
    region = rg.local_region(t, J)
    assert rg.is_skew(region)
    mod = repn.calibrated_module(region)
    chambers = rg.chamber_set_pruned(t, J)
    assert mod.dim == len(chambers) == 4
    assert list(mod.basis) == list(chambers)
    assert mod.report["all_pass"]

    dec = repn.weight_decomposition(mod)
    assert len(dec.labels) == 4
    assert all(v == (1, 1) for v in dec.spaces.values())

    # each T column touches the chamber itself and at most its reflection
    for tm in mod.t_mats:
        for col in range(mod.dim):
            nonzero = [r for r in range(mod.dim) if tm[r][col]]
            assert 1 <= len(nonzero) <= 2

    assert repn.commutant_dim(mod) == 1
    numeric = repn.calibrated_module(region, backend="numeric")
    assert repn.commutant_dim(numeric) == 1


def test_non_skew_region_is_rejected_unless_forced():
    rs = build("A", 2)
    t = gamma_with_pairings(rs, ("0", "1"))
    region = rg.local_region(t, frozenset({rs.simple_roots[1]}))
    with pytest.raises(NotSkew):
        repn.calibrated_module(region)
    forced = repn.calibrated_module(region, force=True)
    assert forced.dim == 1
    assert not forced.report["all_pass"]
    assert forced.report["braid"]["failures"] == ["(T_1, T_2) order 3"]


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_forced_build_that_divides_by_zero_raises_a_named_error(backend):
    t = weight(build("A", 2, lattice_mode="GL"), (0, 0, 1))
    region = rg.local_region(t, frozenset())
    with pytest.raises(DivisionByZero, match="divides by zero"):
        repn.calibrated_module(region, force=True, backend=backend)


# -- commutants and direct sums ----------------------------------------------

def numeric_copy(rep):
    """The numeric shadow of an exact module: the same basis, entries at
    q0."""
    ops = repn._NumericScalars(rep.weight)

    def spec(m):
        return [{r: ops.lift(x) for r, x in col.items()} for col in m]

    return repn.ModuleRep(rep.rs, rep.kind, rep.basis,
                          [spec(m) for m in rep.t_cols],
                          [spec(m) for m in rep.x_cols], ops,
                          weight=rep.weight, basis_weights=rep.basis_weights,
                          region=rep.region)


def dense_commutant(rep):
    """The commutant by a dense numeric Kronecker solve over all d^2
    unknowns, as an oracle for both commutant routes; an exact module is
    solved on its numeric copy at q0."""
    if rep._ops.exact:
        rep = numeric_copy(rep)
    d = rep.dim
    eye = np.eye(d)
    gens = rep.t_mats + rep.x_mats
    dd = d * d
    # filled in place: stacking per-generator blocks held each twice
    stacked = np.empty((len(gens) * dd, dd), dtype=complex)
    for k, g in enumerate(gens):
        m = np.array(g, dtype=complex)
        block = stacked[k * dd:(k + 1) * dd]
        block[...] = np.kron(eye, m)
        block -= np.kron(m.T, eye)
    return repn._numeric_nullity(stacked)


def dense_exact_commutant(rep):
    """The commutant of an exact module by exact elimination of G C - C G
    over all d^2 unknowns, as an oracle for the exact routes. Rows are
    reduced one at a time against the pivot rows found so far; the identity
    always commutes, so the answer is 1 once the rank reaches d^2 - 1."""
    ops = rep._ops
    d = rep.dim
    zero = ops.zero()
    pivots = {}   # leading unknown -> its row, 1 there, as {unknown: entry}
    for g in rep.t_mats + rep.x_mats:
        for r in range(d):
            for c in range(d):
                # entry (r, c) of G C - C G, with C flattened row by row
                row = {}
                for k in range(d):
                    if g[r][k]:
                        row[k * d + c] = row.get(k * d + c, zero) + g[r][k]
                    if g[k][c]:
                        row[r * d + k] = row.get(r * d + k, zero) - g[k][c]
                row = {k: x for k, x in row.items() if x}
                while row:
                    lead = min(row)
                    if lead not in pivots:
                        pivots[lead] = {k: x / row[lead]
                                        for k, x in row.items()}
                        break
                    f = row[lead]
                    for k, x in pivots[lead].items():
                        y = row.get(k, zero) - f * x
                        if y:
                            row[k] = y
                        else:
                            row.pop(k, None)
                if len(pivots) == d * d - 1:
                    return 1
    return d * d - len(pivots)


def test_direct_sum_doubles_into_a_matrix_commutant():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("1", "1/2"))
    region = rg.local_region(t, frozenset({rs.simple_roots[0]}))
    mod = repn.calibrated_module(region, backend="numeric")
    doubled = repn.direct_sum(mod, mod)
    assert doubled.dim == 8
    assert repn.commutant_dim(doubled) == 4
    assert dense_commutant(doubled) == 4

    exact = repn.calibrated_module(region)
    exact_doubled = repn.direct_sum(exact, exact)
    assert repn.commutant_dim(exact_doubled) == 4
    assert dense_exact_commutant(exact_doubled) == 4

    rs1 = build("A", 1)
    line = repn.principal_series(gamma_with_pairings(rs1, ("2",)))
    doubled_line = repn.direct_sum(line, line)
    assert repn.commutant_dim(doubled_line) == 4
    assert dense_exact_commutant(doubled_line) == 4
    assert dense_commutant(doubled_line) == 4


def test_direct_sum_needs_one_q0():
    # the sum's relations are checked at one q0: summed anyway, a generic
    # and a root-of-unity module fail T_1 and both cross relations
    rs = build("A", 1, lattice_mode="GL")
    generic = repn.principal_series(weight(rs, (0, 1)), backend="numeric")
    rooted = repn.principal_series(weight(rs, (0, 1), None, 3))
    assert generic.q0 != rooted.q0
    with pytest.raises(ValueError, match="q0"):
        repn.direct_sum(generic, rooted)


@pytest.mark.parametrize("gamma,tagged,ell,gen_dims,expected", [
    # the numeric A3 modules of the weyl_numeric benchmark
    ((0, 1, 0, 1), True, None, {1}, 1),
    ((1, 2, 1, 2), True, None, {1}, 1),
    ((2, 3, 2, 3), True, None, {1}, 1),
    ((0, 1, 2, 3), False, 3, {2}, 2),
    ((0, 1, 2, 3), False, 4, {1}, 1),
    ((0, 1, 2, 3), False, 5, {1}, 1),
    # six 4-dimensional blocks, and a single 24-dimensional one
    ((0, 1, 0, 1), False, None, {4}, 3),
    ((0, 0, 0, 0), False, None, {24}, 1),
])
def test_block_commutant_matches_the_dense_solve_on_a3(gamma, tagged, ell,
                                                       gen_dims, expected):
    z = make_tag("z")
    tags = (z, z, (), ()) if tagged else None
    t = weight(build("A", 3, lattice_mode="GL"), gamma, tags, ell)
    rep = repn.principal_series(t, backend="numeric")
    spaces = repn.weight_decomposition(rep).spaces
    assert {gen for _, gen in spaces.values()} == gen_dims
    assert (repn.commutant_dim(rep) == repn._block_commutant(rep)
            == dense_commutant(rep) == expected)


H = Fraction(1, 2)


# the principal_exact benchmark weights: regular, on a Z(t) wall, P(t)
# nonempty
DENSE_SOLVE_WEIGHTS = [
    ("A", 2, (0, H, 3), 1), ("A", 2, (0, 0, 3), 1), ("A", 2, (0, 1, 4), 1),
    ("B", 2, (5 * H, H), 1), ("B", 2, (2, 0), 1), ("B", 2, (2, 1), 1),
    ("C", 2, (3, 1), 1), ("C", 2, (2, 0), 1), ("C", 2, (2, 1), 1),
    ("B", 2, (0, 1), 2), ("G", 2, (0, 1, 2), 2),
]


@pytest.mark.parametrize("label,rank,gamma,expected", DENSE_SOLVE_WEIGHTS)
def test_block_commutant_matches_the_dense_solves(label, rank, gamma,
                                                  expected):
    t = weight(build(label, rank), gamma)
    exact = repn.principal_series(t)
    numeric = repn.principal_series(t, backend="numeric")
    for rep in (exact, numeric):
        assert (repn.commutant_dim(rep) == repn._block_commutant(rep)
                == dense_commutant(rep) == expected)
    if exact.dim <= 8:
        assert dense_exact_commutant(exact) == expected


def stacked_power_nullspace(rep, t):
    """The nullspace of the stacked (chi_g - X_g)^m, m the multiplicity of t,
    by dense elimination: the generalized weight space at t, as an oracle for
    the back-substitution of _weight_basis."""
    ops = rep._ops
    ev = ops.at(t).ev
    eye = mat_id(rep.dim, ops)
    rows = []
    for g, x in zip(rep.rs.lattice_generators(), rep.x_mats):
        shifted = power = mat_sub(mat_scale(ev(g), eye), x)
        for _ in range(rep.basis_weights.count(t) - 1):
            power = mat_mul(shifted, power, ops)
        rows.extend(power)
    return list(_rank_nullspace(rows, ops)[1])


@pytest.mark.parametrize("label,rank,gamma", [
    (label, rank, gamma) for label, rank, gamma, _ in DENSE_SOLVE_WEIGHTS])
def test_weight_basis_is_the_generalized_weight_basis(label, rank, gamma):
    # back-substitution against the elimination of the stacked powers: both
    # give the one basis that is 1 at its own index and 0 at the others
    rep = repn.principal_series(weight(build(label, rank), gamma))
    ops = rep._ops
    for t in dict.fromkeys(rep.basis_weights):
        group = [k for k, bw in enumerate(rep.basis_weights) if bw == t]
        vectors = repn._weight_basis(rep.x_cols, group, ops)
        assert list(vectors) == group
        dense = [tuple(v.get(r, ops.zero()) for r in range(rep.dim))
                 for v in vectors.values()]
        assert dense == stacked_power_nullspace(rep, t)
        assert dense == list(mat_transpose(
            repn.generalized_weight_basis(rep, t)))


def dense_plain_dimensions(rep):
    """{weight: plain dimension} by the joint kernel of the dense X_g - chi_g
    over all d columns: exact elimination, or singular values at RANK_TOL
    times the largest; an oracle for weight_decomposition."""
    ops = rep._ops
    eye = mat_id(rep.dim, ops)
    out = {}
    for t in dict.fromkeys(rep.basis_weights):
        ev = ops.at(t).ev
        rows = [row for g, x in zip(rep.rs.lattice_generators(), rep.x_mats)
                for row in mat_sub(x, mat_scale(ev(g), eye))]
        if ops.exact:
            out[t] = len(_rank_nullspace(rows, ops)[1])
        else:
            sv = np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)
            out[t] = rep.dim - int(sum(sv > repn.RANK_TOL * sv[0]))
    return out


@pytest.mark.parametrize("backend", ["exact", "numeric"])
@pytest.mark.parametrize("label,rank,mode,gamma", [
    *((label, rank, "P", gamma) for label, rank, gamma, _ in
      DENSE_SOLVE_WEIGHTS),
    ("A", 3, "GL", (0, 0, 1, 1)), ("A", 3, "GL", (0, 1, 0, 1))])
def test_plain_dimensions_are_the_dense_joint_kernels(label, rank, mode,
                                                      gamma, backend):
    t = weight(build(label, rank, lattice_mode=mode), gamma)
    rep = repn.principal_series(t, backend=backend)
    spaces = repn.weight_decomposition(rep).spaces
    assert ({lab: plain for lab, (plain, _) in spaces.items()}
            == dense_plain_dimensions(rep))


@pytest.mark.parametrize("rank,mode,gamma,ell,backend", [
    (("A", 2), "P", ("2", "3"), None, "exact"),
    (("B", 2), "P", (5 * H, H), None, "exact"),
    (("A", 3), "GL", (0, 1, 2, 3), 4, "numeric"),
    (("D", 4), "P", (4, 3, 2, 1), None, "numeric"),
])
def test_tau_basis_is_the_weight_basis_of_each_line(rank, mode, gamma, ell,
                                                    backend):
    # the intertwiner recursion and the back-substitution build the same
    # vector of each weight line, 1 at its own index and 0 below it
    rs = build(*rank, lattice_mode=mode)
    t = (gamma_with_pairings(rs, gamma) if isinstance(gamma[0], str)
         else weight(rs, gamma, None, ell))
    rep = repn.principal_series(t, backend=backend)
    ops = rep._ops
    for w, vector in repn.tau_basis(rep).items():
        k = rep._index[w]
        line = repn._weight_basis(rep.x_cols, [k], ops)[k]
        assert all(ops.eq(x, line.get(r, ops.zero()))
                   for r, x in enumerate(vector))


def lower_conjugate(rep):
    """The matrices of rep conjugated by the unit lower bidiagonal matrix L
    with ones below the diagonal (L^-1 has (-1)^(i-j) at i >= j), built as a
    module on the same scalars: the relations still hold, but the X are no
    longer upper triangular."""
    d = rep.dim
    low = [[int(i - j in (0, 1)) for j in range(d)] for i in range(d)]
    low_inv = [[(-1) ** (i - j) if i >= j else 0 for j in range(d)]
               for i in range(d)]
    product = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(d))
                             for j in range(d)] for i in range(d)]
    conj = lambda m: product(product(low, m), low_inv)
    return repn.ModuleRep.from_matrices(
        rep.rs, rep.basis, [conj(m) for m in rep.t_mats],
        [conj(m) for m in rep.x_mats], weight=rep.weight,
        basis_weights=rep.basis_weights, backend=rep.backend, q0=rep.q0)


def test_x_that_is_not_upper_triangular_is_refused():
    # both constructions present X upper triangular, and every module routine
    # reads weight spaces off that shape, so another basis is refused at once
    t = weight(build("A", 2), (0, H, 3))
    for backend in ("exact", "numeric"):
        with pytest.raises(UnsupportedType, match="upper triangular"):
            lower_conjugate(repn.principal_series(t, backend=backend))
    # entries the numeric scalars count as zero are dropped first
    rep = repn.principal_series(t, backend="numeric")

    def below_diagonal(delta):
        x = [[y + delta if r > c else y for c, y in enumerate(row)]
             for r, row in enumerate(rep.x_mats[0])]
        return repn.ModuleRep.from_matrices(
            rep.rs, rep.basis, rep.t_mats, [x, *rep.x_mats[1:]], weight=t,
            basis_weights=rep.basis_weights, backend="numeric")

    near_twin = below_diagonal(0.5 * repn.NUMERIC_TOL)
    assert near_twin.x_cols == rep.x_cols
    assert near_twin.report["all_pass"]
    with pytest.raises(UnsupportedType, match="upper triangular"):
        below_diagonal(2 * repn.NUMERIC_TOL)


def test_weight_spaces_need_upper_triangular_x():
    # the weight space and tau routines never see such a module: it is
    # refused when it is built
    t = gamma_with_pairings(build("A", 1), ("2",))
    with pytest.raises(UnsupportedType, match="upper triangular"):
        lower_conjugate(repn.principal_series(t, backend="numeric"))


def test_x_matrices_that_do_not_commute_are_refused():
    # X_2 v_2 leaves the generalized weight space {0, 2} of X_1: with
    # v_2 = e_2 - e_1 / (q^5 - q^2), (X_2 - q^3) v_2 is a multiple of e_1
    rs = build("A", 1, lattice_mode="GL")
    one, zero = ExactScalar.one(), ExactScalar.zero()
    q = ExactScalar.q_power
    x1 = ((q(2), zero, zero), (zero, q(5), one), (zero, zero, q(2)))
    x2 = ((q(3), zero, zero), (zero, q(7), zero), (zero, zero, q(3)))
    t1 = tuple(tuple(one if i == j else zero for j in range(3))
               for i in range(3))
    rep = repn.ModuleRep.from_matrices(rs, range(3), [t1], [x1, x2])
    assert rep.report["x_commute"]["failures"] == ["(X_1, X_2)"]
    with pytest.raises(NumericIllConditioned, match="leaves the span"):
        repn.weight_decomposition(rep)


@pytest.mark.parametrize("make", [
    lambda: repn.principal_series(weight(
        build("A", 3, lattice_mode="GL"), (0, 1, 2, 3), None, 3)),
    lambda: repn.principal_series(weight(build("C", 2), (1, 0))),
])
def test_weight_routines_leave_the_dense_view_unbuilt(make):
    rep = make()
    repn.weight_decomposition(rep)
    repn.commutant_dim(rep)
    for t in dict.fromkeys(rep.basis_weights):
        repn.generalized_weight_basis(rep, t)
        for i in range(rep.rs.rank):
            try:
                repn.tau_operator(i, t, rep)
            except UndefinedTau:
                pass
    assert rep._dense is None


@pytest.mark.parametrize("gamma,expected", [((0, 1, 0, 1), 3),
                                            ((0, 0, 1, 1), 1)])
def test_exact_block_commutant_on_a3(gamma, expected):
    t = weight(build("A", 3, lattice_mode="GL"), gamma)
    exact = repn.principal_series(t)
    assert exact.backend == "exact" and exact.dim == 24
    assert (repn.commutant_dim(exact) == repn._block_commutant(exact)
            == dense_commutant(exact) == expected)


def test_triangular_exact_module_is_solved_in_its_weight_basis():
    # X = T upper triangular, not diagonal, with two distinct characters: the
    # commutant is the polynomials in X, although the T graph is connected
    rs = build("A", 1)
    x = ((Q, ExactScalar.one()), (ExactScalar.zero(), 1 / Q))
    rep = repn.ModuleRep.from_matrices(rs, range(2), [x], [x], verify=False)
    assert repn.commutant_dim(rep) == 2
    assert dense_exact_commutant(rep) == 2


def test_exact_commutant_needs_upper_triangular_x():
    # X lower triangular: the block route would have no weight basis to work
    # in, and the module is refused before any commutant is asked for
    rs = build("A", 1)
    x = ((Q, ExactScalar.zero()), (ExactScalar.one(), 1 / Q))
    with pytest.raises(UnsupportedType, match="upper triangular"):
        repn.ModuleRep.from_matrices(rs, range(2), [x], [x], verify=False)


@pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-9])
def test_one_character_block_absorbs_rounding_on_the_diagonal(spread):
    # one character cluster spans the whole space, so it is one block even
    # when rounding spreads its diagonal entries
    rs = build("A", 1)
    x = ((1 + 0j, 1 + 0j), (0j, 1 + spread + 0j))
    rep = repn.ModuleRep.from_matrices(rs, range(2), [x], [x],
                                       backend="numeric", verify=False)
    assert repn.commutant_dim(rep) == dense_commutant(rep) == 2


def test_commutant_refuses_characters_closer_than_ten_tolerances():
    rs = build("A", 1)
    near_one = 1 + 5 * repn.RANK_TOL
    x = ((1 + 0j, 0j), (0j, near_one + 0j))
    tm = ((0j, 1 + 0j), (1 + 0j, 0j))
    rep = repn.ModuleRep.from_matrices(rs, range(2), [tm], [x],
                                       backend="numeric", verify=False)
    with pytest.raises(NumericIllConditioned, match="separated by only"):
        repn.commutant_dim(rep)


BACKEND_BUILDERS = {
    "principal_series": lambda backend: repn.principal_series(
        weight(build("A", 2), (0, 1, 3)), backend=backend),
    "calibrated_module": lambda backend: repn.calibrated_module(
        rg.local_region(gamma_with_pairings(build("C", 2), ("1", "1/2")),
                        frozenset({build("C", 2).simple_roots[0]})),
        backend=backend),
    "spherical": lambda backend: repn.spherical(
        weight(build("A", 2), (0, 1, 3)), backend=backend),
    "spherical_of_a_module": lambda backend: repn.spherical(
        weight(build("A", 2), (0, 1, 3)), backend=backend,
        rep=repn.principal_series(weight(build("A", 2), (0, 1, 3)))),
    "from_matrices": lambda backend: repn.ModuleRep.from_matrices(
        build("A", 1), range(1), [((1 + 0j,),)], [((1 + 0j,),)],
        backend=backend),
}


@pytest.mark.parametrize("builder", sorted(BACKEND_BUILDERS))
@pytest.mark.parametrize("backend", ["Exact", "numerical", ""])
def test_unknown_backend_is_rejected(builder, backend):
    with pytest.raises(ValueError, match="unknown backend"):
        BACKEND_BUILDERS[builder](backend)


def test_spherical_backend_must_match_the_given_module():
    t = weight(build("A", 2), (0, 1, 3))
    rep = repn.principal_series(t)
    assert repn.spherical(t, backend="exact", rep=rep).eigen_pass
    with pytest.raises(ValueError, match="does not match"):
        repn.spherical(t, backend="numeric", rep=rep)


def test_spherical_refuses_a_module_built_at_another_weight():
    rs = build("A", 1, lattice_mode="GL")
    rep = repn.principal_series(weight(rs, (1, 0)))
    assert repn.spherical(weight(rs, (1, 0)), rep=rep).eigen_pass
    with pytest.raises(ValueError, match="another weight"):
        repn.spherical(weight(rs, (3, 0)), rep=rep)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_from_matrices_needs_one_basis_weight_per_basis_vector(count):
    rs = build("A", 1)
    rep = repn.principal_series(gamma_with_pairings(rs, ("2",)))
    weights = (rep.basis_weights * 2)[:count]
    with pytest.raises(ValueError, match="one basis weight per basis vector"):
        repn.ModuleRep.from_matrices(rs, rep.basis, rep.t_mats, rep.x_mats,
                                     weight=rep.weight, basis_weights=weights)


@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_from_matrices_checks_basis_weights_against_the_x_diagonals(backend):
    # reversed, the weights still partition the basis as the diagonals do,
    # so only the characters themselves tell them apart
    rep = repn.principal_series(weight(build("A", 2), (0, H, 3)),
                                backend=backend)
    rebuild = lambda weights: repn.ModuleRep.from_matrices(
        rep.rs, rep.basis, rep.t_mats, rep.x_mats, weight=rep.weight,
        basis_weights=weights, backend=backend, q0=rep.q0)
    assert rebuild(rep.basis_weights).report["all_pass"]
    with pytest.raises(ValueError, match="does not match the X diagonals"):
        rebuild(rep.basis_weights[::-1])


def test_from_matrices_needs_a_concrete_backend():
    with pytest.raises(ValueError, match="'exact' or 'numeric'"):
        BACKEND_BUILDERS["from_matrices"]("auto")


def test_numeric_module_without_weight_or_q0_uses_the_default_q0():
    rs = build("A", 1)
    good = repn.principal_series(gamma_with_pairings(rs, ("2",)),
                                 backend="numeric")
    rep = repn.ModuleRep.from_matrices(rs, good.basis, good.t_mats,
                                       good.x_mats, backend="numeric")
    assert rep.q0 == repn.DEFAULT_Q0
    assert rep.report["all_pass"]
    assert rep.describe()["q0"] == [repn.DEFAULT_Q0, 0.0]


def test_structural_commutant_has_no_size_limit():
    # diagonal X with distinct characters: every generalized weight space is
    # a line and the commutant counts the components of the T graph, here
    # 100 linked pairs and 1 lone vertex
    rs = build("A", 1)
    d = 201
    linked = lambda r, k: r == k or (r < 200 and k == r ^ 1)
    x = tuple(tuple(complex(k + 1) if r == k else 0j for k in range(d))
              for r in range(d))
    tm = tuple(tuple(1 + 0j if linked(r, k) else 0j for k in range(d))
               for r in range(d))
    big = repn.ModuleRep.from_matrices(rs, range(d), [tm], [x],
                                       backend="numeric", verify=False)
    assert repn.commutant_dim(big) == 101
    # the exact twin, with X diagonal at q^(k+1)
    zero, one = ExactScalar.zero(), ExactScalar.one()
    x = tuple(tuple(Q ** (k + 1) if r == k else zero for k in range(d))
              for r in range(d))
    tm = tuple(tuple(one if linked(r, k) else zero for k in range(d))
               for r in range(d))
    twin = repn.ModuleRep.from_matrices(rs, range(d), [tm], [x],
                                        verify=False)
    assert repn.commutant_dim(twin) == 101


def test_block_commutant_refuses_wide_weight_spaces_past_its_limit(
        monkeypatch):
    # the A3 GL series at 0 is one 24-wide generalized weight space, 576
    # unknowns: at the limit, solved
    at_limit = repn.principal_series(
        weight(build("A", 3, lattice_mode="GL"), (0,) * 4), backend="numeric")
    assert repn._block_commutant(at_limit) == 1
    # the A4 P series at 0 is one 120-wide space, 14,400 unknowns: refused
    # before any weight basis or row is built
    big = repn.principal_series(weight(build("A", 4), (0,) * 5),
                                backend="numeric")

    def no_basis(*args):
        raise AssertionError("a weight basis was built past the limit")

    monkeypatch.setattr(repn, "_weight_basis", no_basis)
    with pytest.raises(TooLarge, match="14400 unknowns"):
        repn._block_commutant(big)


# the principal series whose wide spaces hold more than BLOCK_UNKNOWNS_LIMIT
# unknowns: the A4 P series at 0 (one 120-wide space), D4 (32 spaces of width
# 6) and B4 (96 of width 4) at simple root pairings (1, 0, 1, 0), and B3 and
# C3 at 0 (one 48-wide space)
GUARDED_SERIES = [
    ("A", 4, None, "numeric"),
    ("D", 4, ("1", "0", "1", "0"), "numeric"),
    ("B", 4, ("1", "0", "1", "0"), "numeric"),
    ("B", 3, None, "exact"),
    ("C", 3, None, "exact"),
]


@pytest.mark.parametrize("label,rank,pairings,backend", GUARDED_SERIES)
def test_principal_series_past_the_block_guard_get_a_commutant(
        label, rank, pairings, backend):
    rs = build(label, rank)
    t = (weight(rs, (0,) * rs.dim) if pairings is None
         else gamma_with_pairings(rs, pairings))
    rep = repn.principal_series(t, backend=backend)
    assert rep.backend == backend
    with pytest.raises(TooLarge):
        repn._block_commutant(rep)
    assert repn.commutant_dim(rep) == 1


def test_from_matrices_refuses_the_principal_series_label():
    # commutant_dim answers that label by Frobenius reciprocity, which holds
    # only for the induced module: a module from matrices is always custom,
    # so a principal series summed with itself takes the block route
    rs = build("A", 1)
    line = repn.principal_series(gamma_with_pairings(rs, ("2",)))
    doubled = repn.direct_sum(line, line)
    assert repn.commutant_dim(doubled) == 4
    rebuilt = repn.ModuleRep.from_matrices(
        rs, doubled.basis, doubled.t_mats, doubled.x_mats,
        weight=line.weight, basis_weights=doubled.basis_weights)
    assert rebuilt.kind == "custom"
    assert repn.commutant_dim(rebuilt) == 4


def test_commutant_methods_agree_on_a_simple_module():
    rs = build("A", 1)
    t = gamma_with_pairings(rs, ("2",))
    rep = repn.principal_series(t)
    assert repn.commutant_dim(rep) == repn._block_commutant(rep) == 1
    assert dense_exact_commutant(rep) == 1
    numeric = repn.principal_series(t, backend="numeric")
    assert repn.commutant_dim(numeric) == 1


# -- serialization -----------------------------------------------------------

def test_describe_is_json_ready():
    rs = build("C", 2)
    t = gamma_with_pairings(rs, ("1", "1/2"))
    mod = repn.calibrated_module(
        rg.local_region(t, frozenset({rs.simple_roots[0]})))
    blob = json.loads(json.dumps(mod.describe()))
    assert blob["dim"] == 4
    assert len(blob["basis"]) == 4
    dec = json.loads(json.dumps(
        repn.weight_decomposition(mod).describe()))
    assert dec["module_dim"] == 4
    assert len(dec["weights"]) == 4


# -- random weights ----------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4)))
def test_relations_hold_for_random_rational_weights(pairings):
    t = gamma_with_pairings(build("A", 2), pairings)
    rep = repn.principal_series(t, backend="numeric")
    assert rep.report["all_pass"]
    dec = repn.weight_decomposition(rep)
    assert sum(gen for _, gen in dec.spaces.values()) == 6
    sp = repn.spherical(t, rep=rep)
    assert sp.eigen_pass
    if sp.expansion_check is not None:
        assert sp.expansion_check


BRAID_LADDER = ([("A", r, m) for r in range(2, 5) for m in ("P", "GL")]
                + [("B", r, "P") for r in (2, 3, 4)]
                + [("C", r, "P") for r in (2, 3)]
                + [("D", r, "P") for r in (2, 3, 4)]
                + [("G", 2, "P")])


@pytest.mark.parametrize("label,rank,mode", BRAID_LADDER)
def test_braid_orders_are_the_orders_of_s_i_s_j(label, rank, mode):
    rs = build(label, rank, lattice_mode=mode)
    for i in range(rank):
        for j in range(i + 1, rank):
            m = repn._braid_order(rs, i, j)
            s = rs.simple_reflection(i) * rs.simple_reflection(j)
            powers = [s]
            for _ in range(m - 1):
                powers.append(powers[-1] * s)
            assert powers[-1] == rs.identity()
            assert rs.identity() not in powers[:-1]
