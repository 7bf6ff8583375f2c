"""Central characters t: X -> C*, their evaluation and W-action.

A weight is stored pre-decomposed as an exponent vector gamma (rationals, one
per ambient coordinate) plus per-coordinate coset tags. The character value on
X^lambda is xi(lambda) * q^{2<gamma,lambda>}, where xi collects the tags.
Tags are opaque symbols naming a coset of the subgroup generated by q^2; the
value of X^lambda is an exact scalar only when every tag cancels out of
lambda, otherwise exact evaluation raises MixedCosetExact. Roots whose tags
do not cancel can never land in Z(t) or P(t), which is all the region
machinery needs.

Root-of-unity mode (q^2 a primitive ell-th root of unity) is supported for
type A only; exponents live mod ell and Z/P membership becomes a congruence.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import BadEll, MixedCosetExact, UnsupportedType, WrongLattice
from .rootsys import (RootSystem, WeylElt, _over_common_denominator,
                      element_from_one_line, vec, vec_dot)
from .scalars import ExactScalar

TRIVIAL_TAG: tuple = ()


def make_tag(symbol: str, power: int = 1) -> tuple:
    """Canonical tag value: sorted tuple of (symbol, nonzero integer power)."""
    return ((symbol, power),) if power else TRIVIAL_TAG


def combine_tags(pairs) -> tuple:
    """Formal product of tags, each raised to an integer multiple."""
    acc: dict[str, int] = {}
    for tag, mult in pairs:
        if mult == 0:
            continue
        for sym, k in tag:
            acc[sym] = acc.get(sym, 0) + k * mult
    return tuple(sorted((s, k) for s, k in acc.items() if k))


def invert_tag(tag: tuple) -> tuple:
    return tuple(sorted((s, -k) for s, k in tag))


def parse_tag(text: str) -> tuple:
    """Parse a CLI tag literal: "1" (trivial), "beta", "beta^-1"."""
    text = text.strip()
    if text in ("", "1"):
        return TRIVIAL_TAG
    if "^" in text:
        sym, _, k = text.partition("^")
        return make_tag(sym.strip(), int(k))
    return make_tag(text, 1)


def format_tag(tag: tuple) -> str:
    if not tag:
        return "1"
    return "*".join(s if k == 1 else f"{s}^{k}" for s, k in tag)


class Weight:
    """A point of the torus T = Hom(X, C*), with exact coset bookkeeping."""

    __slots__ = ("rs", "gamma", "tags", "ell", "_zp", "_sig")

    def __init__(self, rs: RootSystem, gamma, tags=None, ell: int | None = None):
        self.rs = rs
        gamma = vec(gamma)
        if len(gamma) != rs.dim:
            raise ValueError("gamma length must match the ambient dimension")
        if tags is None:
            tags = (TRIVIAL_TAG,) * rs.dim
        else:
            tags = tuple(tuple(t) for t in tags)
            if len(tags) != rs.dim:
                raise ValueError("one coset tag per coordinate")
        if any(t != TRIVIAL_TAG for t in tags) and rs.type_label not in ("A", "C"):
            raise UnsupportedType("coset tags are supported for types A and C")
        if ell is not None:
            if rs.type_label != "A":
                raise UnsupportedType("root-of-unity mode is type A only")
            if ell < 2:
                raise BadEll(f"ell must be at least 2, got {ell}")
            if any(c.denominator != 1 for c in gamma):
                raise BadEll("root-of-unity mode needs integer exponents")
            gamma = vec(int(c) % ell for c in gamma)
        self.gamma = gamma
        self.tags = tags
        self.ell = ell
        self._zp = None
        self._sig = None

    @property
    def mode(self) -> str:
        return "generic" if self.ell is None else f"root_of_unity({self.ell})"

    # -- evaluation -----------------------------------------------------------

    def tag_of(self, lam) -> tuple:
        """Net coset tag of X^lambda; trivial means the value is a q-power."""
        return combine_tags((self.tags[i], int(c)) for i, c in enumerate(lam))

    def eval(self, lam) -> ExactScalar:
        lam = vec(lam)
        if not self.rs.in_lattice(lam):
            raise WrongLattice(f"{lam} is not in the lattice")
        net = self.tag_of(lam)
        if net != TRIVIAL_TAG:
            raise MixedCosetExact(
                f"X^{lam} carries coset tag {format_tag(net)}; no exact value")
        return ExactScalar.q_power(self._exponent(lam))

    def _exponent(self, lam) -> Fraction:
        """The power of q in t(X^lam): 2<gamma, lam>, or at a root of unity
        2 (floor(<gamma, lam>) mod ell)."""
        expo = 2 * vec_dot(self.gamma, lam)
        if self.ell is not None:
            expo = Fraction(2 * (int(expo // 2) % self.ell))
        return expo

    # -- W-action ---------------------------------------------------------------

    def weyl_act(self, w: WeylElt) -> "Weight":
        """(wt)(X^lambda) = t(X^{w^{-1} lambda})."""
        if w.rs.key != self.rs.key:
            raise ValueError("Weyl element acts on a different root system")
        new_gamma = w.act(self.gamma)
        if all(t == TRIVIAL_TAG for t in self.tags):
            return Weight(self.rs, new_gamma, None, self.ell)
        # nontrivial tags: W acts by signed permutation in types A and C
        line = w.one_line()
        if line is None:
            raise UnsupportedType("tagged weights need a signed-permutation action")
        inv = [0] * len(line)
        for k, j in enumerate(line):
            # w^{-1} e_{|j|} = sign(j) e_{k+1}
            inv[abs(j) - 1] = (k + 1) if j > 0 else -(k + 1)
        new_tags = []
        for i in range(self.rs.dim):
            j = inv[i]
            tag = self.tags[abs(j) - 1]
            new_tags.append(tag if j > 0 else invert_tag(tag))
        return Weight(self.rs, new_gamma, tuple(new_tags), self.ell)

    # -- Z(t) and P(t) -----------------------------------------------------------

    def zp_sets(self):
        """(Z(t), P(t)): positive roots where t(X^alpha) is 1, resp. q^{+-2}.

        <gamma, alpha> is paired in integers over gamma's denominator, and
        each set is a union of the root system's singletons, so no Fraction
        is built or hashed."""
        if self._zp is not None:
            return self._zp
        rs = self.rs
        den, nums = _over_common_denominator(self.gamma)
        tagged = any(self.tags)
        Z, P = [], []
        for k, alpha in enumerate(rs._root_coords[:len(rs.positive_roots)]):
            if tagged and self.tag_of(alpha) != TRIVIAL_TAG:
                continue
            c = sum(map(mul, nums, alpha))   # den * <gamma, alpha>
            if self.ell is not None:   # den is 1: gamma is integral here
                c %= self.ell
                if c == 0:
                    Z.append(k)
                elif c == 1 or c == self.ell - 1:
                    P.append(k)
                continue
            if c == 0:
                Z.append(k)
            elif c == den or c == -den:
                P.append(k)
        single = rs._positive_singletons()
        self._zp = tuple(frozenset().union(*map(single.__getitem__, ks))
                         for ks in (Z, P))
        return self._zp

    def is_regular(self) -> bool:
        return not self.zp_sets()[0]

    def stabilizer(self):
        """({s_alpha : alpha in Z(t)}, the subgroup they generate)."""
        Z, _ = self.zp_sets()
        gens = tuple(self.rs.reflection(a) for a in sorted(Z))
        return gens, self.rs.subgroup(gens)

    # -- canonical representative --------------------------------------------

    def is_dominant(self) -> bool:
        """Nonnegative pairing with every simple root whose tag cancels."""
        for alpha in self.rs.simple_roots:
            if self.tag_of(alpha) != TRIVIAL_TAG:
                continue
            if vec_dot(self.gamma, alpha) < 0:
                return False
        return True

    def dominant_representative(self):
        """(dominant weight in the W-orbit, w with w * self = result).

        With coset tags present, coordinates are grouped by tag and sorted
        within each group (type A), flipping signs first so every tag has
        positive leading power (type C).
        """
        if any(t != TRIVIAL_TAG for t in self.tags):
            return self._sorted_representative()
        rs = self.rs
        gamma = self.gamma
        w = rs.identity()
        while True:
            i = next((i for i, a in enumerate(rs.simple_roots)
                      if vec_dot(gamma, a) < 0), None)
            if i is None:
                break
            s = rs.simple_reflection(i)
            gamma = s.act(gamma)
            w = s * w
        return Weight(rs, gamma, None, self.ell), w

    def _sorted_representative(self):
        rs = self.rs
        n = rs.dim
        entries = []
        for i in range(n):
            tag, g = self.tags[i], self.gamma[i]
            sign = 1
            flip = (tag[0][1] < 0) if tag else (g < 0)
            if rs.type_label == "C" and flip:
                # flip so the tag's leading power is positive (trivial tags:
                # so the exponent is nonnegative)
                tag, g, sign = invert_tag(tag), -g, -1
            entries.append((tag, g, sign * (i + 1)))
        entries.sort(key=lambda e: (e[0], e[1]))
        line = [0] * n
        for new_pos, (_, _, signed_src) in enumerate(entries):
            # w sends source coordinate to its sorted position
            line[abs(signed_src) - 1] = ((new_pos + 1) if signed_src > 0
                                         else -(new_pos + 1))
        w = element_from_one_line(rs, line)
        result = self.weyl_act(w)
        return result, w

    # -- equality and display --------------------------------------------------

    def _signature(self):
        """Values on the lattice generators, each pairing <gamma, g> taken in
        integers; weights are never mutated, so it is computed once."""
        if self._sig is None:
            rs = self.rs
            den, nums = _over_common_denominator(self.gamma)
            tagged = any(self.tags)
            sig = []
            for g, (gden, gnums) in zip(rs.lattice_generators(),
                                        rs._lattice_ints):
                net = TRIVIAL_TAG if not tagged else combine_tags(
                    (self.tags[i], int(c)) for i, c in enumerate(g)
                    if c.denominator == 1)
                expo = Fraction(sum(map(mul, nums, gnums)), den * gden)
                if self.ell is not None:
                    expo = Fraction(int(expo) % self.ell)
                sig.append((net, expo))
            self._sig = (rs.key, self.ell, tuple(sig))
        return self._sig

    def __eq__(self, other):
        return isinstance(other, Weight) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def describe(self) -> dict:
        out = {
            "gamma": [str(c) for c in self.gamma],
            "coset": [format_tag(t) for t in self.tags],
            "mode": self.mode,
        }
        if self.ell is not None:
            out["ell"] = self.ell
        return out

    def __repr__(self):
        parts = []
        for g, t in zip(self.gamma, self.tags):
            q_part = f"q^{2 * g}" if g else "1"
            parts.append(q_part if not t else f"{format_tag(t)}*{q_part}")
        return "Weight(" + ", ".join(parts) + ")"


def weight(rs: RootSystem, gamma, tags=None, ell: int | None = None) -> Weight:
    return Weight(rs, gamma, tags, ell)


def height_character(rs: RootSystem) -> Weight:
    """The weight with <gamma, alpha_i> = 1 for every simple root: the sum
    of the dual basis d_i of the simple roots in their span.

    Its value on X^alpha is q^{2 ht(alpha)}, so Z is empty and P is exactly
    the set of simple roots.
    """
    den, dual = rs._dual_basis
    return Weight(rs, tuple(Fraction(sum(col), den) for col in zip(*dual)))


def parse_gamma(text: str) -> tuple[Fraction, ...]:
    """CLI literal "a/b,c/d,..." to a rational vector."""
    return vec(Fraction(part.strip()) for part in text.split(","))
