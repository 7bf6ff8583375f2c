"""Placed configurations and standard fillings, checked against chamber sets.

verify_bijection compares the standard fillings of a configuration with the
chamber set computed by regions, so every test here checks the tableau route
against the independent chamber route.
"""

import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from affine_hecke import regions as rg
from affine_hecke import repn
from affine_hecke import tableaux as tb
from affine_hecke.errors import (BadCap, BadEll, CaseMismatch, EmptyRegion,
                                 HeckeError, JCrossesPages, JNotSubsetOfP,
                                 NotContained, NotDominant, NotSkew,
                                 NotStandard, TooLarge, UnsupportedType)
from affine_hecke.rootsys import build
from affine_hecke.scalars import ExactScalar
from affine_hecke.weights import weight


def skew_shapes(k):
    """Every skew shape lam/mu with 2..k boxes inside the k x k box, with no
    empty row and some row starting in column 1."""
    out = []
    for rows in range(1, k + 1):
        for lam in itertools.combinations_with_replacement(range(k, 0, -1),
                                                           rows):
            for mu in itertools.combinations_with_replacement(
                    range(k - 1, -1, -1), rows):
                if mu[-1] != 0 or any(m >= l for m, l in zip(mu, lam)):
                    continue
                if 2 <= sum(lam) - sum(mu) <= k:
                    out.append((lam, tuple(m for m in mu if m)))
    return sorted(out)


def subsets(roots):
    roots = sorted(roots)
    for r in range(len(roots) + 1):
        yield from itertools.combinations(roots, r)


SHAPES = skew_shapes(4)


def test_the_shape_list_is_complete():
    assert len(SHAPES) == 68


@pytest.mark.parametrize("lam,mu", SHAPES, ids=[f"{l}/{m}" for l, m in SHAPES])
def test_skew_shape_fillings_match_chambers(lam, mu):
    gamma, J = tb.skew_to_region(lam, mu)
    cfg = tb.region_to_configuration(gamma, J)
    report = tb.verify_bijection(cfg)
    assert report.ok, report.witness
    assert report.filling_count == report.chamber_count > 0
    assert tb.classify_configuration(cfg)[0] == rg.is_skew(cfg.region)
    twice = tb.conjugate_configuration(tb.conjugate_configuration(cfg))
    assert twice.t.gamma == cfg.t.gamma
    assert twice.J == cfg.J


@pytest.mark.parametrize("lam,mu", SHAPES, ids=[f"{l}/{m}" for l, m in SHAPES])
def test_reading_tableaux_are_the_chamber_extremes(lam, mu):
    gamma, J = tb.skew_to_region(lam, mu, 0)
    cfg = tb.region_to_configuration(gamma, J)
    p_min, p_max = tb.reading_tableaux(cfg)
    chambers = rg.chamber_set_pruned(cfg.t, cfg.J)
    assert tb.filling_to_word(cfg, p_min)[0] == chambers.elements[0]
    ivs = rg.interval_structure(cfg.t, cfg.J)
    assert tuple(p_max.entries) == ivs.w_max.one_line()
    fillings = tb.enumerate_standard(cfg)
    assert p_min in fillings and p_max in fillings


@pytest.mark.parametrize("lam,mu", SHAPES, ids=[f"{l}/{m}" for l, m in SHAPES])
def test_calibrated_diagonal_is_youngs_seminormal_form(lam, mu):
    # the q-analogue of Young's seminormal form: on the chamber of a filling,
    # T_j acts on the diagonal by (q - q^-1)/(1 - q^(-2a)), where a is the
    # content of the box of j + 1 minus that of the box of j
    gamma, J = tb.skew_to_region(lam, mu, 0)
    cfg = tb.region_to_configuration(gamma, J)
    mod = repn.calibrated_module(cfg.region, backend="exact")
    index = {w: k for k, w in enumerate(mod.basis)}
    fillings = tb.enumerate_standard(cfg)
    assert len(fillings) == mod.dim
    q = ExactScalar.q_power(1)
    for filling in fillings:
        w, axial = tb.filling_to_word(cfg, filling)
        k = index[w]
        for j in range(1, cfg.n):
            a = axial[(j + 1, j)]
            expected = (q - 1 / q) / (1 - ExactScalar.q_power(-2 * a))
            assert mod.t_mats[j - 1][k][k] == expected


def test_configuration_to_skew_normalises_the_picture():
    # shifted west past the empty columns, mu padded with zeros, and the
    # placement adjusted so that contents are unchanged
    gamma, J = tb.skew_to_region((3, 2), (1, 1))
    cfg = tb.region_to_configuration(gamma, J)
    assert tb.configuration_to_skew(cfg) == ((2, 1), (0, 0), 1)
    assert tb.skew_to_region((2, 1), (0, 0), 1) == (gamma, J)


@pytest.mark.parametrize("lam,mu", [((2, 1), ()), ((3, 2), (1,)),
                                    ((3, 3, 1), (2,))])
def test_conjugating_a_filling_twice_gives_it_back(lam, mu):
    cfg = tb.region_to_configuration(*tb.skew_to_region(lam, mu))
    fillings = tb.enumerate_standard(cfg)
    assert fillings
    for filling in fillings:
        conj, conj_filling = tb.conjugate_filling(cfg, filling)
        back, back_filling = tb.conjugate_filling(conj, conj_filling)
        assert back_filling == filling
        assert back.region == cfg.region


def test_render_text_shows_contents_or_the_filling():
    # box 1 (content -1) sits under box 2 (content 0), box 3 (content 1)
    # east of box 2
    cfg = tb.region_to_configuration(*tb.skew_to_region((2, 1)))
    assert tb.render_text(cfg) == "[ 0][ 1]\n[-1]"
    assert tb.render_text(cfg, [2, 1, 3]) == "[1][3]\n[2]"
    filling = tb.filling_from_entries(cfg, [2, 1, 3])
    assert tb.render_text(cfg, filling) == "[1][3]\n[2]"


def test_to_dict_survives_a_json_round_trip():
    cfg = tb.region_to_configuration(*tb.skew_to_region((3, 2), (1,)))
    for filling in (None,) + tb.enumerate_standard(cfg):
        out = tb.to_dict(cfg, filling)
        assert json.loads(json.dumps(out)) == out
        assert out["n"] == 4
    assert out["filling"] == [{"index": i, "entry": e} for i, e in
                              zip(filling.indices, filling.entries)]


def test_wrap_flags_name_the_pairs_across_the_period():
    cfg = tb.periodic_configuration((0, 0, 1, 2, 3), [], ell=4)
    assert cfg.wrap_flags == {(1, 5): "NW", (2, 5): "NW"}


def periodic_copies_are_disjoint(cfg):
    """The period raises each content (x + y up to a constant) by ell, spans
    the window's columns, and the window misses its next copy."""
    dx, dy = cfg.period
    cells = {(b.x, b.y) for b in cfg.boxes}
    return (dx + dy == cfg.ell
            and dx == max(x for x, _ in cells) - min(x for x, _ in cells) + 1
            and not cells & {(x + dx, y + dy) for x, y in cells})


def test_a_window_wider_than_ell_is_one_period_of_its_picture():
    cfg = tb.periodic_configuration((0, 0, 1, 2, 3), [], ell=4)
    assert cfg.period == (5, -1)
    assert tb.render_text(cfg).endswith("period: (5, -1)")
    assert periodic_copies_are_disjoint(cfg)
    assert tb.verify_bijection(cfg).ok
    # every 4-box window at ell = 3, wider than ell or not
    rs = build("A", 3, lattice_mode="GL")
    widths = set()
    for gamma in itertools.combinations_with_replacement(range(3), 4):
        t = weight(rs, gamma, ell=3)
        for J in subsets(t.zp_sets()[1]):
            try:
                cfg = tb.periodic_configuration(t, J)
            except HeckeError:
                continue
            assert periodic_copies_are_disjoint(cfg), (gamma, J)
            widths.add(cfg.period[0])
    assert widths == {2, 3, 4}


@pytest.mark.parametrize("lam,mu,match", [
    ((2, -1), (), "partitions"), ((2,), (1, 1), "partitions"),
    ((1, 2), (), "lambda must be weakly decreasing"),
    ((3, 3), (1, 2), "mu must be weakly decreasing"),
    ((2, 1), (3,), "not contained"), ((2, 1), (2, 1), "no boxes"),
])
def test_a_shape_that_is_not_skew_is_refused(lam, mu, match):
    with pytest.raises(NotContained, match=match):
        tb.skew_to_region(lam, mu)


@pytest.mark.parametrize("lam,mu", [((Fraction(5, 2),), ()),
                                    ((2.5,), ()), ((2, 1), (0.5,))])
def test_a_fractional_part_is_refused(lam, mu):
    with pytest.raises(NotContained, match="whole numbers"):
        tb.skew_to_region(lam, mu)


def test_whole_parts_of_any_type_and_a_fractional_placement_are_kept():
    assert (tb.skew_to_region((2.0, Fraction(1)), (Fraction(1),))
            == tb.skew_to_region((2, 1), (1,)))
    gamma, _ = tb.skew_to_region((2, 1), (), Fraction(1, 2))
    assert gamma == (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))


def test_a_fractional_entry_is_refused():
    cfg = tb.region_to_configuration(*tb.skew_to_region((2, 1)))
    for call in (tb.filling_from_entries, tb.validate_filling,
                 tb.filling_to_word, tb.conjugate_filling):
        with pytest.raises(NotStandard, match="whole numbers"):
            call(cfg, (1.5, 2.2, 3.9))
    assert (tb.filling_from_entries(cfg, (2.0, 1, Fraction(3))).entries
            == (2, 1, 3))


def test_a_filling_that_is_not_standard_is_refused():
    cfg = tb.region_to_configuration(*tb.skew_to_region((2, 1)))
    with pytest.raises(NotStandard, match="one entry per box"):
        tb.filling_from_entries(cfg, [1, 2])
    with pytest.raises(NotStandard, match="violates standardness"):
        tb.filling_to_word(cfg, (3, 2, 1))
    with pytest.raises(NotStandard, match="only standard fillings"):
        tb.conjugate_filling(cfg, (3, 2, 1))


def test_a_root_of_j_across_pages_is_refused():
    with pytest.raises(JCrossesPages):
        tb.build_book((0, Fraction(1, 2)), [(-1, 1)])


H = Fraction(1, 2)
T = Fraction(1, 3)
TYPEC_WEIGHTS = {
    "beta": [(T, T, 1 + T), (T, 1 + T, 2 + T), (T - 1, T, T, 1 + T),
             (T, T, 1 + T, 1 + T), (T, 1 + T, 1 + T, 2 + T)],
    "half": [(H, H, 1 + H), (H, 1 + H, 2 + H), (H, H, 1 + H, 1 + H),
             (H, 1 + H, 1 + H, 2 + H)],
    "zero": [(0, 1, 1), (0, 1, 2), (0, 0, 1, 2), (0, 1, 1, 2)],
}


@pytest.mark.parametrize("case", sorted(TYPEC_WEIGHTS))
def test_typec_fillings_match_chambers(case):
    accepted = 0
    for gamma in TYPEC_WEIGHTS[case]:
        t = weight(build("C", len(gamma)), gamma)
        for J in subsets(t.zp_sets()[1]):
            try:
                cfg = tb.typec_configuration(t, J, case)
            except HeckeError:
                continue
            accepted += 1
            fillings = tb.enumerate_standard(cfg)
            assert all(not tb.validate_filling(cfg, f) for f in fillings)
            report = tb.verify_bijection(cfg)
            assert report.ok, (gamma, J, report.witness)
    assert accepted == {"beta": 31, "half": 62, "zero": 40}[case]


@pytest.mark.parametrize("gamma,case,match", [
    ((0, 1), "gamma", "unknown case"),
    ((0, 1), "half", "case 'zero', not 'half'"),
    ((H, 1), "half", "one fractional part"),
])
def test_typec_configuration_refuses_the_wrong_case(gamma, case, match):
    t = weight(build("C", 2), gamma)
    with pytest.raises(CaseMismatch, match=match):
        tb.typec_configuration(t, (), case)


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_periodic_fillings_match_chambers(ell):
    rs = build("A", 2, lattice_mode="GL")
    accepted = rejected = 0
    for gamma in itertools.combinations_with_replacement(range(ell), 3):
        t = weight(rs, gamma, ell=ell)
        for J in subsets(t.zp_sets()[1]):
            try:
                cfg = tb.periodic_configuration(t, J)
            except HeckeError as exc:
                assert type(exc) is not HeckeError
                rejected += 1
                continue
            accepted += 1
            report = tb.verify_bijection(cfg)
            assert report.ok, (gamma, J, report.witness)
    assert (accepted, rejected) == {3: (31, 4), 4: (50, 6), 5: (77, 8)}[ell]


def one_row(n):
    return tb.region_to_configuration(*tb.skew_to_region((n,)))


def half_chain(n):
    t = weight(build("C", n), tuple(H + k for k in range(n)))
    return tb.typec_configuration(t, (), "half")


def test_the_enumeration_cap_is_set_by_its_environment_variable(monkeypatch):
    monkeypatch.delenv(tb.ENUM_CAP_ENV, raising=False)
    assert len(tb.enumerate_standard(one_row(tb.FINITE_ENUM_CAP))) == 1
    with pytest.raises(TooLarge):
        tb.enumerate_standard(one_row(tb.FINITE_ENUM_CAP + 1))
    assert len(tb.enumerate_standard(half_chain(tb.TYPEC_ENUM_CAP))) == 1
    with pytest.raises(TooLarge):
        tb.enumerate_standard(half_chain(tb.TYPEC_ENUM_CAP + 1))
    monkeypatch.setenv(tb.ENUM_CAP_ENV, "2")
    assert len(tb.enumerate_standard(one_row(2))) == 1
    with pytest.raises(TooLarge):
        tb.enumerate_standard(one_row(3))


def test_a_blank_enumeration_cap_means_the_default(monkeypatch):
    monkeypatch.setenv(tb.ENUM_CAP_ENV, "")
    assert tb._enum_cap("finite") == tb.FINITE_ENUM_CAP
    assert tb._enum_cap("typec") == tb.TYPEC_ENUM_CAP
    assert len(tb.enumerate_standard(one_row(tb.FINITE_ENUM_CAP))) == 1


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "2.5"])
def test_an_enumeration_cap_that_is_not_a_positive_integer_is_refused(
        monkeypatch, raw):
    monkeypatch.setenv(tb.ENUM_CAP_ENV, raw)
    for mode in ("finite", "typec"):
        with pytest.raises(BadCap, match=tb.ENUM_CAP_ENV):
            tb._enum_cap(mode)
    with pytest.raises(BadCap):
        tb.enumerate_standard(one_row(2))


# -- outputs pinned over a fixed grid ------------------------------------------

def _pinned_builds():
    """(builder, args) over skew shapes at two placements, every J of a
    two-page weight, periodic weights at ell 3..5 and the type C weights."""
    for lam, mu in SHAPES:
        for placement in (0, 2):
            yield tb.region_to_configuration, tb.skew_to_region(lam, mu,
                                                                placement)
    t = weight(build("A", 3, lattice_mode="GL"), (0, 1, H, 1 + H))
    for J in subsets(t.zp_sets()[1]):
        yield tb.region_to_configuration, (t, J)
    rs = build("A", 2, lattice_mode="GL")
    for ell in (3, 4, 5):
        for gamma in itertools.combinations_with_replacement(range(ell), 3):
            t = weight(rs, gamma, ell=ell)
            for J in subsets(t.zp_sets()[1]):
                yield tb.periodic_configuration, (t, J)
    for case, gammas in sorted(TYPEC_WEIGHTS.items()):
        for gamma in gammas:
            t = weight(build("C", len(gamma)), gamma)
            for J in subsets(t.zp_sets()[1]):
                yield tb.typec_configuration, (t, J, case)


def _pinned_record(builder, args):
    try:
        cfg = builder(*args)
    except HeckeError as exc:
        return [type(exc).__name__, str(exc)]
    return [tb.to_dict(cfg), [f.entries for f in tb.enumerate_standard(cfg)]]


def test_configurations_and_fillings_are_unchanged_over_a_grid():
    # recorded before the three builders shared their assembly; a refused
    # build records its error class and message
    records = [_pinned_record(*call) for call in _pinned_builds()]
    assert len(records) == 692
    doc = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "c5179cadab98200868ce1be79128cc68b47394065b8179b4ac290c3cf00c9f83")


# -- builder errors ---------------------------------------------------------------

A_ROOT = (-1, 1, 0)   # eps_2 - eps_1 in three coordinates


@pytest.mark.parametrize("t,J,error,match", [
    (weight(build("C", 2), (0, 1)), [], UnsupportedType, "typec_configuration"),
    (weight(build("A", 2, lattice_mode="GL"), (0, 1, 2), ell=3), [], BadEll,
     "periodic_configuration"),
    ((0, H, 1), [], NotDominant, "coset must be consecutive"),
    ((1, 0, H), [], NotDominant, "increase weakly along each page"),
    ((0, 2, 3), [A_ROOT], JNotSubsetOfP, r"q\^\(\+-2\)"),
    ((0, 0, 1), [(-1, 0, 1)], EmptyRegion, "not closed under Z"),
])
def test_region_to_configuration_refuses_bad_input(t, J, error, match):
    with pytest.raises(error, match=match):
        tb.region_to_configuration(t, J)


A2_GL = build("A", 2, lattice_mode="GL")


@pytest.mark.parametrize("t,J,ell,error,match", [
    (weight(A2_GL, (0, 1, 2)), [], None, BadEll, "root-of-unity weight"),
    (weight(A2_GL, (0, 1, 2), ell=3), [], 4, BadEll, "ell = 3, got ell = 4"),
    ((0, 1, 2), [], None, BadEll, "pass ell"),
    ((0, 1, 1), [], 2, BadEll, "ell > 2"),
    ((0, 2, 1), [], 3, NotDominant, "weakly increasing"),
    ((0, 0, 2), [A_ROOT], 4, JNotSubsetOfP, r"q\^\(\+-2\)"),
    ((0, 0, 1), [(-1, 0, 1)], 3, EmptyRegion, "in-window pairs"),
])
def test_periodic_configuration_refuses_bad_input(t, J, ell, error, match):
    with pytest.raises(error, match=match):
        tb.periodic_configuration(t, J, ell)


@pytest.mark.parametrize("t,J,case,error,match", [
    (weight(A2_GL, (0, 1, 2)), [], "zero", UnsupportedType, "type C weight"),
    ((1, 0), [], "zero", NotDominant, "weakly increasing"),
    ((-H, H), [], "half", NotDominant, "nonnegative entries"),
    ((0, 3), [(1, 1)], "zero", JNotSubsetOfP, r"q\^\(\+-2\)"),
    ((0, 1), [(1, 1)], "zero", EmptyRegion, "not closed under Z"),
])
def test_typec_configuration_refuses_bad_input(t, J, case, error, match):
    with pytest.raises(error, match=match):
        tb.typec_configuration(t, J, case)


# -- books of pages ---------------------------------------------------------------

TWO_PAGES = (0, 1, H, 1 + H)


def test_a_book_has_one_configuration_per_page():
    # J flips the first page only; each page keeps its own numbering
    cfg = tb.region_to_configuration(TWO_PAGES, [(-1, 1, 0, 0)])
    assert cfg.pages() == (0, H)
    book = tb.build_book(TWO_PAGES, [(-1, 1, 0, 0)])
    assert [(lab, page.t.gamma, page.J) for lab, page in book] == [
        (0, (0, 1), frozenset({(-1, 1)})), (H, (H, 1 + H), frozenset())]
    assert all(tb.verify_bijection(page) for _, page in book)


@pytest.mark.parametrize("J", [[], [(-1, 1, 0, 0)], [(0, 0, -1, 1)],
                               [(-1, 1, 0, 0), (0, 0, -1, 1)]])
def test_two_pages_are_classified_page_by_page(J):
    cfg = tb.region_to_configuration(TWO_PAGES, J)
    assert tb.classify_configuration(cfg) == (True, True)


def test_render_text_heads_each_page_and_ends_with_the_period():
    two = tb.region_to_configuration(TWO_PAGES, [])
    assert tb.render_text(two) == "page 0:\n[0][1]\npage 1/2:\n[1/2][3/2]"
    typec = tb.typec_configuration(weight(build("C", 2), (0, 1)), [], "zero")
    assert tb.render_text(typec) == "page 0:\n[-1][ 0]\n        [ 0][ 1]"
    periodic = tb.periodic_configuration((0, 1, 2), [], ell=4)
    assert tb.render_text(periodic) == "[0][1][2]\nperiod: (3, 1)"


# -- fillings that are not standard --------------------------------------------------

def test_validate_filling_names_each_kind_of_violation():
    hook = tb.region_to_configuration(*tb.skew_to_region((2, 1)))
    assert tb.validate_filling(hook, [1, 1, 2]) == ({
        "i": None, "j": None, "kind": "support",
        "required": "entries must use 1..n once each"},)
    assert tb.validate_filling(hook, [1, 3, 2]) == (
        {"i": 1, "j": 2, "kind": "P", "required": "p(1) > p(2) (root in J)"},
        {"i": 2, "j": 3, "kind": "P",
         "required": "p(2) < p(3) (root not in J)"})
    column = tb.region_to_configuration((0, 0, 1), [])
    assert tb.validate_filling(column, [2, 1, 3]) == ({
        "i": 1, "j": 2, "kind": "Z",
        "required": "p(1) < p(2) along the diagonal"},)
    typec = tb.typec_configuration(weight(build("C", 2), (0, 1)), [], "zero")
    assert tb.validate_filling(typec, [2, -1, 1, 2]) == ({
        "i": -2, "j": 2, "kind": "symmetry", "required": "p(-b) = -p(b)"},)
    assert tb.validate_filling(typec, [-2, -1, 1, 2]) == ()
    assert tb.validate_filling(typec, [1, 2]) == ()


# -- pictures that are not skew shapes -----------------------------------------------

def test_a_picture_that_is_not_a_skew_shape_is_refused():
    # two boxes on one diagonal step down to the east, and a gap between
    # diagonals splits a row; the window scan finds both
    for gamma, match in (((0, 0), "nest like a skew shape"),
                         ((0, 0, 2), "contiguous segment")):
        cfg = tb.region_to_configuration(gamma, [])
        assert tb.classify_configuration(cfg) == (False, False)
        with pytest.raises(NotSkew, match=match):
            tb.configuration_to_skew(cfg)
    row = tb.region_to_configuration((0, 1), [])
    lifted = dataclasses.replace(row, boxes=(
        row.boxes[0], dataclasses.replace(row.boxes[1], y=2)))
    with pytest.raises(NotSkew, match="rows must be contiguous"):
        tb.configuration_to_skew(lifted)
    halves = tb.region_to_configuration(
        *tb.skew_to_region((2, 1), (), Fraction(1, 2)))
    with pytest.raises(NotSkew, match="integer placement"):
        tb.configuration_to_skew(halves)
    with pytest.raises(UnsupportedType):
        tb.configuration_to_skew(
            tb.periodic_configuration((0, 1, 2), [], ell=4))


def test_a_mismatch_with_the_chamber_set_names_a_witness(monkeypatch):
    # the hook's fillings against the region of its transpose J, one row's
    # filling against a generic weight, whose chamber set is all of W, and
    # a row past the enumeration cap
    hook = tb.region_to_configuration(*tb.skew_to_region((2, 1)))
    report = tb.verify_bijection(hook, rg.local_region(hook.t, []))
    assert report == tb.BijectionReport(
        False, 2, 1, "word (2, 1, 3) not in the chamber set")
    generic = weight(A2_GL, (0, Fraction(1, 3), Fraction(2, 3)))
    report = tb.verify_bijection(one_row(3), rg.local_region(generic, []))
    assert report == tb.BijectionReport(
        False, 1, 6, "word (1, 3, 2) has no standard filling")
    monkeypatch.setenv(tb.ENUM_CAP_ENV, "2")
    assert tb.verify_bijection(one_row(3)) == tb.BijectionReport(
        False, -1, -1, "enumeration failed: 3 boxes exceeds the enumeration "
        "cap 2")


def test_one_page_finite_routines_refuse_other_configurations():
    periodic = tb.periodic_configuration((0, 1, 2), [], ell=4)
    two = tb.region_to_configuration(TWO_PAGES, [])
    with pytest.raises(UnsupportedType, match="finite type A pages"):
        tb.classify_configuration(periodic)
    for call in (tb.conjugate_configuration, tb.reading_tableaux):
        with pytest.raises(UnsupportedType, match="one-page finite region"):
            call(two)
