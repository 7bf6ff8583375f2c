"""Local regions (t, J): chamber sets, skewness, interval structure, conjugation.

The chamber set F^(t,J) = {w in W : R(w) cap Z(t) empty, R(w) cap P(t) = J}
is computed two ways: a brute-force filter over all of W (the oracle, capped)
and a walk up the weak order that never enumerates W and therefore scales to
large symmetric groups. The two agree wherever both run; tests cross-check
them on small ranks.

The lower ideals of the weak order come from the ordered walk of W,
RootSystem._lower_ideal: {w : R(w) cap Z empty, R(w) cap P subset J}, which
chamber_set_pruned filters to F^(t,J), and the coset part
W^[gamma] = {sigma : R(sigma) cap R_[gamma] empty}. The one walk that starts
elsewhere, _walk_up, gives the interval [tau_lo, tau_hi] of the integral
reflection subgroup; the coset part times the interval is F^(t,J) (Bjoerner
and Brenti, Combinatorics of Coxeter Groups, GTM 231, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add

from .errors import (
    EmptyRegion,
    JNotSubsetOfP,
    NotDominant,
    UnsupportedType,
)
from .rootsys import (RootSystem, WeylElt, sub_closure, vec_add, vec_dot,
                      vec_neg)
from .weights import Weight, invert_tag

# ---------------------------------------------------------------------------
# regions and chamber sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalRegion:
    """A dominant weight together with a choice of J inside P(t)."""

    t: Weight
    J: frozenset


def _checked_J(t: Weight, J):
    """(J, Z, P): J as a frozenset of root tuples, JNotSubsetOfP unless it
    sits inside P(t)."""
    J = frozenset(tuple(a) for a in J)
    Z, P = t.zp_sets()
    if not J <= P:
        raise JNotSubsetOfP(f"J has {len(J - P)} roots outside P(t)")
    return J, Z, P


def local_region(t: Weight, J) -> LocalRegion:
    if not t.is_dominant():
        raise NotDominant("local regions are labelled by dominant weights")
    return LocalRegion(t, _checked_J(t, J)[0])


@dataclass
class ChamberSet:
    """The elements of F^(t,J), sorted by (length, reduced word)."""

    t: Weight
    J: frozenset
    elements: tuple[WeylElt, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def describe(self) -> dict:
        out = {
            "J": sorted([str(c) for c in a] for a in self.J),
            "size": len(self.elements),
            "elements": [
                {
                    "word": [i + 1 for i in w.reduced_word()],
                    "length": w.length(),
                    **({"one_line": list(w.one_line())}
                       if w.one_line() else {}),
                }
                for w in self.elements
            ],
        }
        return out


def chamber_set(t: Weight, J) -> ChamberSet:
    """Brute-force filter of W; the ground truth everything else tests against."""
    J, Z, P = _checked_J(t, J)
    hits = []
    for w in t.rs.weyl_elements():
        inv = w.inversion_set()
        if inv & Z:
            continue
        if inv & P == J:
            hits.append(w)
    return ChamberSet(t, J, tuple(hits))


def _walk_up(rs: RootSystem, start: WeylElt, roots, banned) -> tuple:
    """Everything reachable from start by upward steps x -> s_beta x: the
    interval above tau_lo, which is not a lower ideal of W.

    A step by a root beta in `roots` adds the single inversion x^{-1}(beta);
    it is taken when that root is positive and outside `banned`. The result
    is sorted by (length, reduced word).
    """
    n = len(rs.positive_roots)
    banned = {rs.root_index[a] for a in banned}
    steps = [(rs.root_index[b], rs.reflection(b)) for b in roots]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            x_inv = x.inverse().perm
            for k, s in steps:
                j = x_inv[k]
                if j >= n or j in banned:
                    continue
                y = s * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: w.sort_key()))


def chamber_set_pruned(t: Weight, J) -> ChamberSet:
    """Same contract as chamber_set, but walks the weak-order ideal
    {w : R(w) cap Z = empty, R(w) cap P subset J} up from the identity."""
    J, Z, P = _checked_J(t, J)
    ideal = t.rs._lower_ideal(Z | (P - J))
    return ChamberSet(t, J, tuple(w for w in ideal
                                  if w.inversion_set() & P == J))


def fibers(t: Weight) -> dict:
    """All nonempty F^(t,J) keyed by J, partitioning {w : R(w) cap Z = empty}."""
    Z, P = t.zp_sets()
    buckets: dict[frozenset, list[WeylElt]] = {}
    for w in t.rs.weyl_elements():
        inv = w.inversion_set()
        if inv & Z:
            continue
        buckets.setdefault(frozenset(inv & P), []).append(w)
    ordered = sorted(buckets, key=lambda J: (len(J), sorted(J)))
    return {J: ChamberSet(t, J, tuple(buckets[J])) for J in ordered}


# ---------------------------------------------------------------------------
# calibratable weights, skew regions
# ---------------------------------------------------------------------------

def rank_two_positive(rs: RootSystem, i: int, j: int):
    """Positive roots of the rank-two subsystem spanned by simples i and j,
    found once per root system and pair from the integer simple
    coefficients."""
    sub = rs._rank_two.get((i, j))
    if sub is None:
        sub = rs._rank_two[i, j] = tuple(
            a for a, coeffs in rs._simple_coeffs.items()
            if not any(c for k, c in enumerate(coeffs) if k not in (i, j)))
    return sub


def is_calibratable(t: Weight) -> bool:
    """Regular on rank-1 simple subsystems, almost regular on rank-2 ones.

    Requires (a) t(X^{alpha_i}) != 1 for every simple root, and (b) whenever a
    rank-two subsystem R_ij meets Z(t), more than two of its positive roots
    lie in P(t).
    """
    rs = t.rs
    Z, P = t.zp_sets()
    if any(a in Z for a in rs.simple_roots):
        return False
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            sub = rank_two_positive(rs, i, j)
            if any(a in Z for a in sub):
                if sum(1 for a in sub if a in P) <= 2:
                    return False
    return True


def is_skew(region: LocalRegion) -> bool:
    """True when every weight wt over the chamber set is calibratable."""
    F = chamber_set_pruned(region.t, region.J)
    if not F.elements:
        raise EmptyRegion("skewness is defined for nonempty regions")
    return all(is_calibratable(region.t.weyl_act(w)) for w in F)


def nonempty_criterion(t: Weight, J) -> bool:
    """beta in J, alpha in Z(t), beta - alpha in R+ must force beta - alpha in J."""
    J = frozenset(tuple(a) for a in J)
    Z, _ = t.zp_sets()
    rs = t.rs
    for beta in J:
        for alpha in Z:
            diff = vec_add(beta, vec_neg(alpha))
            if rs.is_positive_root(diff) and diff not in J:
                return False
    return True


# ---------------------------------------------------------------------------
# interval structure (integral factorization of the chamber set)
# ---------------------------------------------------------------------------

@dataclass
class IntervalStructure:
    w_min: WeylElt
    w_max: WeylElt
    tau_lo: WeylElt | None
    tau_hi: WeylElt | None
    upper: tuple[WeylElt, ...]       # W^[gamma]
    interval: tuple[WeylElt, ...]    # weak-order interval [tau_lo, tau_hi] in W_[gamma]
    integral_roots: frozenset        # positive roots of R_[gamma]
    verification: dict


def _integral_positive_roots(t: Weight) -> frozenset:
    out = set()
    for a in t.rs.positive_roots:
        if t.tag_of(a) != ():
            continue
        if vec_dot(t.gamma, a).denominator == 1:
            out.add(a)
    return frozenset(out)


def _sub_simples(rs: RootSystem, sub_pos: frozenset):
    """The roots of sub_pos that are not a sum of two roots of sub_pos."""
    coords = {a: rs._root_coords[rs.root_index[a]] for a in sub_pos}
    sums = {tuple(map(add, x, y))
            for x, y in combinations_with_replacement(coords.values(), 2)}
    return tuple(a for a in sorted(sub_pos) if coords[a] not in sums)


def _element_with_sub_inversions(rs: RootSystem, sub_simples, K: frozenset):
    """The element of the reflection subgroup whose sub-inversion set is K.

    Strips K by right multiplication: a sub-simple beta in K is a right
    descent, and R'(tau s_beta) = s_beta (K minus {beta}). K is carried as
    root indices and reflected through the permutation of s_beta.
    """
    n = len(rs.positive_roots)
    simple_index = [rs.root_index[b] for b in sub_simples]
    K = {rs.root_index[a] for a in K}
    tau = rs.identity()
    while K:
        beta = next((b for b in simple_index if b in K), None)
        if beta is None:
            return None  # K is not a sub-inversion set
        s = rs.reflection(rs.roots[beta])
        K = {s.perm[a] for a in K if a != beta}
        if any(a >= n for a in K):
            return None
        tau = s * tau
    return tau


def interval_structure(t: Weight, J) -> IntervalStructure:
    """Chamber set extremes plus the coset-times-interval factorization.

    Computes F^(t,J) exactly, its unique weak-order minimum and maximum, the
    integral subsystem R_[gamma], the complement set W^[gamma], the two
    endpoints tau determined by sub-inversion sets closure(J) and
    closure((P minus J) union Z)^c, and verifies the product decomposition
    F = W^[gamma] . [tau_lo, tau_hi] by brute force.
    """
    if t.ell is not None:
        raise UnsupportedType("interval structure applies to generic weights")
    rs = t.rs
    J = frozenset(tuple(a) for a in J)
    F = chamber_set_pruned(t, J).elements
    if not F:
        raise EmptyRegion("no interval structure for an empty chamber set")
    Z, P = t.zp_sets()

    inv_sets = {w: w.inversion_set() for w in F}
    meet = frozenset.intersection(*inv_sets.values())
    join = frozenset.union(*inv_sets.values())
    w_min = next((w for w, r in inv_sets.items() if r == meet), None)
    w_max = next((w for w, r in inv_sets.items() if r == join), None)

    integral = _integral_positive_roots(t)
    simples = _sub_simples(rs, integral)
    lo_target = sub_closure(J, integral)
    hi_target = integral - sub_closure((P - J) | Z, integral)
    tau_lo = _element_with_sub_inversions(rs, simples, lo_target)
    tau_hi = _element_with_sub_inversions(rs, simples, hi_target)

    verification = {
        "unique_min": w_min is not None,
        "unique_max": w_max is not None,
        "tau_lo_found": tau_lo is not None,
        "tau_hi_found": tau_hi is not None,
    }

    upper: tuple = ()
    interval: tuple = ()
    if tau_lo is not None and tau_hi is not None:
        verification["tau_lo_matches"] = (
            tau_lo.inversion_set() & integral == lo_target)
        verification["tau_hi_matches"] = (
            tau_hi.inversion_set() & integral == hi_target)
        verification["endpoints_nested"] = lo_target <= hi_target
        if verification["endpoints_nested"]:
            # W^[gamma] = {sigma : R(sigma) cap R_[gamma] empty}; the walk
            # from tau_lo stays in W_[gamma], which maps R_[gamma] to itself,
            # so each new inversion is integral and banned outside hi_target
            upper = rs._lower_ideal(integral)
            interval = _walk_up(rs, tau_lo, simples, integral - hi_target)
            product = {sigma * x for sigma in upper for x in interval}
            verification["product_matches"] = product == set(F)

    return IntervalStructure(
        w_min=w_min, w_max=w_max, tau_lo=tau_lo, tau_hi=tau_hi,
        upper=upper, interval=interval, integral_roots=integral,
        verification=verification)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conjugation:
    region: LocalRegion
    u: WeylElt
    w_image: WeylElt | None


def conjugate(region: LocalRegion, w: WeylElt | None = None) -> Conjugation:
    """(gamma, J) -> (-u gamma, -u(P minus J)) with u = w0 v, v longest in W_gamma.

    When w is supplied it is carried to w u^{-1}, which lies in the conjugate
    chamber set whenever w was in the original one.
    """
    t = region.t
    rs = t.rs
    if t.ell is not None:
        raise UnsupportedType("conjugation applies to generic weights")
    if not t.is_dominant():
        raise NotDominant("conjugation needs a dominant weight")
    Z, P = t.zp_sets()

    _, W_gamma = t.stabilizer()
    v = max(W_gamma, key=lambda x: x.length())
    if v.inversion_set() != Z:
        raise UnsupportedType(
            "conjugation needs Z(t) to be a standard parabolic root system")
    u = rs.long_element() * v
    if u.inversion_set() != frozenset(rs.positive_roots) - Z:
        raise AssertionError("u must invert the complement of Z")

    moved = t.weyl_act(u)
    new_t = Weight(rs, vec_neg(moved.gamma),
                   tuple(invert_tag(tag) for tag in moved.tags), None)
    new_J = frozenset(vec_neg(u.act(b)) for b in P - region.J)
    image = w * u.inverse() if w is not None else None
    return Conjugation(local_region(new_t, new_J), u, image)
