"""The affine Hecke algebra in the T_w X^lambda basis, and its center.

Elements are finite linear combinations of T_w X^lambda with exact scalar
coefficients. Multiplication rewrites every product into that normal form
using the quadratic relation T_i^2 = (q - q^-1) T_i + 1 and the cross
relation X^lambda T_i = T_i X^{s_i lambda} + (q - q^-1) S, where S is the
finite geometric string

    m >= 0:  S =  X^lambda + X^{lambda - a_i} + ... + X^{lambda - (m-1) a_i}
    m <  0:  S = -(X^{lambda + a_i} + ... + X^{lambda + |m| a_i})

for m = <lambda, a_i^vee>.  The string is the expansion of
(X^lambda - X^{s_i lambda}) / (1 - X^{-a_i}), which is always a polynomial.

The center is the ring of W-symmetric Laurent polynomials; over it the group
algebra is free with the basis X^{lambda_w} indexed by W, and the change of
basis is controlled by a determinant of monomials that factors as
prod_{a > 0} (1 - X^a)^{|W|/2} up to a monomial unit.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GroupTooLarge, WrongLattice
from .rootsys import RootSystem, WeylElt, vec, vec_add, vec_dot, vec_neg, vec_sub
from .scalars import ExactScalar


Q_MINUS = ExactScalar.q_power(1) - ExactScalar.q_power(-1)  # q - q^-1


# ---------------------------------------------------------------------------
# the Laurent group algebra with rational coefficients
# ---------------------------------------------------------------------------

class GroupAlgebraElt:
    """Finitely supported rational combination of lattice monomials X^lambda."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms=None):
        self.rs = rs
        clean: dict[tuple, Fraction] = {}
        for lam, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[vec(lam)] = c
        self.terms = clean

    @classmethod
    def monomial(cls, rs: RootSystem, lam, coeff=1) -> "GroupAlgebraElt":
        return cls(rs, {vec(lam): Fraction(coeff)})

    @classmethod
    def zero(cls, rs: RootSystem) -> "GroupAlgebraElt":
        return cls(rs, {})

    @classmethod
    def one(cls, rs: RootSystem) -> "GroupAlgebraElt":
        return cls.monomial(rs, (0,) * rs.dim)

    def __add__(self, other: "GroupAlgebraElt") -> "GroupAlgebraElt":
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return GroupAlgebraElt(self.rs, out)

    def __sub__(self, other: "GroupAlgebraElt") -> "GroupAlgebraElt":
        return self + (-other)

    def __neg__(self) -> "GroupAlgebraElt":
        return GroupAlgebraElt(
            self.rs, {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, other: "GroupAlgebraElt") -> "GroupAlgebraElt":
        out: dict[tuple, Fraction] = {}
        for lam, c in self.terms.items():
            for mu, d in other.terms.items():
                key = vec_add(lam, mu)
                out[key] = out.get(key, Fraction(0)) + c * d
        return GroupAlgebraElt(self.rs, out)

    def scale(self, c) -> "GroupAlgebraElt":
        c = Fraction(c)
        return GroupAlgebraElt(
            self.rs, {lam: c * d for lam, d in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElt)
                and self.rs.key == other.rs.key
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def weyl_image(self, w: WeylElt) -> "GroupAlgebraElt":
        return GroupAlgebraElt(
            self.rs, {w.act(lam): c for lam, c in self.terms.items()})

    def is_invariant(self) -> bool:
        return all(
            self.weyl_image(self.rs.simple_reflection(i)) == self
            for i in range(self.rs.rank))

    def lead(self) -> tuple:
        lam = max(self.terms)
        return lam, self.terms[lam]

    def is_monomial_unit(self) -> bool:
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def exact_div(self, other: "GroupAlgebraElt") -> "GroupAlgebraElt":
        """Quotient self / other, which must be exact in the Laurent ring."""
        if not other:
            raise ZeroDivisionError("division by the zero element")
        if not self:
            return GroupAlgebraElt.zero(self.rs)
        b_lam, b_c = other.lead()
        rem = dict(self.terms)
        quo: dict[tuple, Fraction] = {}
        # lex-leading terms strictly decrease; an inexact division would
        # descend forever, so cap the number of quotient terms
        for _ in range(len(self.terms) * max(len(other.terms), 2) + 1000):
            if not rem:
                return GroupAlgebraElt(self.rs, quo)
            r_lam = max(rem)
            t_lam = vec_sub(r_lam, b_lam)
            t_c = rem[r_lam] / b_c
            quo[t_lam] = t_c
            for lam, c in other.terms.items():
                key = vec_add(t_lam, lam)
                val = rem.get(key, Fraction(0)) - t_c * c
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        raise ValueError("quotient is not exact in the group algebra")

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupAlgebraElt(0)"
        bits = [f"{c}*X^{tuple(str(x) for x in lam)}"
                for lam, c in sorted(self.terms.items())]
        return "GroupAlgebraElt(" + " + ".join(bits) + ")"

    def describe(self) -> dict:
        return {
            "terms": [
                {"exponent": [str(x) for x in lam], "coeff": str(c)}
                for lam, c in sorted(self.terms.items())],
        }


def orbit_sum(rs: RootSystem, lam) -> GroupAlgebraElt:
    """Sum of X^mu over the W-orbit of lambda, each orbit element once."""
    lam = vec(lam)
    orbit = {w.act(lam) for w in rs.weyl_elements()}
    return GroupAlgebraElt(rs, {mu: Fraction(1) for mu in orbit})


# ---------------------------------------------------------------------------
# the affine Hecke algebra
# ---------------------------------------------------------------------------

def bernstein_string(lam, alpha, alpha_check) -> tuple[int, list]:
    """(sign, exponents) with S = sign * sum of X^mu over the exponents, for
    the string S of the cross relation of X^lam and T_i (alpha = a_i and
    alpha_check its coroot; see the module docstring)."""
    m = int(vec_dot(lam, alpha_check))
    if m >= 0:
        return 1, [vec_sub(lam, tuple(k * a for a in alpha)) for k in range(m)]
    return -1, [vec_add(lam, tuple(j * a for a in alpha))
                for j in range(1, -m + 1)]


class AlgebraElt:
    """Combination of T_w X^lambda terms with exact scalar coefficients."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms=None):
        self.rs = rs
        clean: dict[tuple, ExactScalar] = {}
        for (w, lam), c in (terms or {}).items():
            if not c.is_zero():
                key = (w, vec(lam))
                if key in clean:
                    c = clean[key] + c
                    if c.is_zero():
                        del clean[key]
                        continue
                clean[key] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, rs: RootSystem) -> "AlgebraElt":
        return cls(rs, {})

    @classmethod
    def term(cls, rs: RootSystem, w: WeylElt, lam, coeff=None) -> "AlgebraElt":
        lam = vec(lam)
        if not rs.in_lattice(lam):
            raise WrongLattice(f"{lam} is outside the chosen lattice")
        return cls(rs, {(w, lam): coeff if coeff is not None
                        else ExactScalar.one()})

    @classmethod
    def one(cls, rs: RootSystem) -> "AlgebraElt":
        return cls.term(rs, rs.identity(), (0,) * rs.dim)

    @classmethod
    def t_generator(cls, rs: RootSystem, i: int) -> "AlgebraElt":
        return cls.term(rs, rs.simple_reflection(i), (0,) * rs.dim)

    @classmethod
    def t_word(cls, rs: RootSystem, word) -> "AlgebraElt":
        out = cls.one(rs)
        for i in word:
            out = out * cls.t_generator(rs, i)
        return out

    @classmethod
    def x_monomial(cls, rs: RootSystem, lam, coeff=None) -> "AlgebraElt":
        return cls.term(rs, rs.identity(), lam, coeff)

    @classmethod
    def from_group_algebra(cls, f: GroupAlgebraElt) -> "AlgebraElt":
        e = f.rs.identity()
        return cls(f.rs, {(e, lam): ExactScalar.from_rational(c)
                          for lam, c in f.terms.items()})

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "AlgebraElt") -> "AlgebraElt":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return AlgebraElt(self.rs, out)

    def __sub__(self, other: "AlgebraElt") -> "AlgebraElt":
        return self + other.scale(ExactScalar.from_rational(-1))

    def scale(self, c: ExactScalar) -> "AlgebraElt":
        return AlgebraElt(
            self.rs, {key: c * d for key, d in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElt)
                and self.rs.key == other.rs.key
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- normal-form multiplication ----------------------------------------------

    def _times_x(self, mu) -> "AlgebraElt":
        mu = vec(mu)
        return AlgebraElt(
            self.rs,
            {(w, vec_add(lam, mu)): c for (w, lam), c in self.terms.items()})

    def _times_ti(self, i: int) -> "AlgebraElt":
        rs = self.rs
        s = rs.simple_reflection(i)
        alpha = rs.simple_roots[i]
        alpha_check = rs.coroot(alpha)
        qm = Q_MINUS
        out: dict[tuple, ExactScalar] = {}

        def put(w, lam, c):
            key = (w, lam)
            c = out[key] + c if key in out else c
            if c.is_zero():
                out.pop(key, None)
            else:
                out[key] = c

        for (w, lam), c in self.terms.items():
            # T_w X^lam T_i = T_w T_i X^{s_i lam} + (q - q^-1) T_w S
            ws = w * s
            s_lam = s.act(lam)
            put(ws, s_lam, c)
            if ws.length() < w.length():
                put(w, s_lam, c * qm)
            sign, string = bernstein_string(lam, alpha, alpha_check)
            if string:
                cq = c * qm if sign > 0 else -(c * qm)
                for mu in string:
                    put(w, mu, cq)
        return AlgebraElt(rs, out)

    def __mul__(self, other: "AlgebraElt") -> "AlgebraElt":
        if self.rs.key != other.rs.key:
            raise ValueError("elements live in different algebras")
        total = AlgebraElt.zero(self.rs)
        for (v, mu), c in other.terms.items():
            acc = self
            for i in v.reduced_word():
                acc = acc._times_ti(i)
            total = total + acc._times_x(mu).scale(c)
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElt(0)"
        bits = []
        for (w, lam), c in sorted(
                self.terms.items(),
                key=lambda kv: (kv[0][0].sort_key(), kv[0][1])):
            word = "".join(str(i + 1) for i in w.reduced_word()) or "e"
            bits.append(f"({c}) T[{word}] X^{tuple(str(x) for x in lam)}")
        return "AlgebraElt(" + " + ".join(bits) + ")"

    def describe(self) -> dict:
        return {
            "terms": [
                {
                    "word": [i + 1 for i in w.reduced_word()],
                    "exponent": [str(x) for x in lam],
                    "coeff": str(c),
                }
                for (w, lam), c in sorted(
                    self.terms.items(),
                    key=lambda kv: (kv[0][0].sort_key(), kv[0][1]))],
        }


def is_central(z: AlgebraElt) -> bool:
    """Commutation with the T_i and the lattice generators suffices."""
    rs = z.rs
    for i in range(rs.rank):
        t = AlgebraElt.t_generator(rs, i)
        if z * t != t * z:
            return False
    for g in rs.lattice_generators():
        x = AlgebraElt.x_monomial(rs, g)
        if z * x != x * z:
            return False
    return True


# ---------------------------------------------------------------------------
# the Pittie-Steinberg basis of C[X] over the center
# ---------------------------------------------------------------------------

def steinberg_basis(rs: RootSystem) -> dict:
    """lambda_w = w^{-1}(sum of omega_i over left descents of w), per w."""
    if rs.lattice_mode != "P":
        raise WrongLattice("the basis is defined over the full weight lattice")
    out = {}
    for w in rs.weyl_elements():
        total = (Fraction(0),) * rs.dim
        for i in range(rs.rank):
            # left descent: l(s_i w) < l(w), i.e. w^{-1}(alpha_i) < 0
            if not rs.is_positive_root(w.act_inverse(rs.simple_roots[i])):
                total = vec_add(total, rs.fundamental_weights[i])
        out[w] = w.act_inverse(total)
    return out


def group_determinant(rs: RootSystem, rows) -> GroupAlgebraElt:
    """Determinant by row-by-row expansion with memoized column subsets."""
    n = len(rows)
    level = {0: GroupAlgebraElt.one(rs)}
    for k in range(n):
        nxt: dict[int, GroupAlgebraElt] = {}
        for mask, minor in level.items():
            if not minor:
                continue
            for j in range(n):
                if mask >> j & 1:
                    continue
                entry = rows[k][j]
                if not entry:
                    continue
                # parity of the earlier-placed columns above j
                sign = -1 if bin(mask >> (j + 1)).count("1") % 2 else 1
                term = minor * entry
                if sign < 0:
                    term = -term
                key = mask | 1 << j
                nxt[key] = nxt[key] + term if key in nxt else term
        level = nxt
    full = (1 << n) - 1
    return level.get(full, GroupAlgebraElt.zero(rs))


def _steinberg_matrix(rs: RootSystem):
    elements = rs.weyl_elements()
    if len(elements) > 12:
        raise GroupTooLarge(
            f"determinant over {len(elements)} x {len(elements)} monomials")
    basis = steinberg_basis(rs)
    rows = [
        [GroupAlgebraElt.monomial(rs, z.act(basis[y])) for y in elements]
        for z in elements]
    return elements, basis, rows


def steinberg_determinant(rs: RootSystem):
    """det(z X^{lambda_y}) and whether it is a unit multiple of the root product."""
    _, _, rows = _steinberg_matrix(rs)
    det = group_determinant(rs, rows)
    target = GroupAlgebraElt.one(rs)
    factor_power = len(rows) // 2
    for alpha in rs.positive_roots:
        base = (GroupAlgebraElt.one(rs)
                - GroupAlgebraElt.monomial(rs, alpha))
        for _ in range(factor_power):
            target = target * base
    verified = False
    if det and len(det) == len(target):
        d_lam, d_c = det.lead()
        t_lam, t_c = target.lead()
        unit = GroupAlgebraElt.monomial(rs, vec_sub(d_lam, t_lam), d_c / t_c)
        verified = unit.is_monomial_unit() and unit * target == det
    return det, verified


def decompose_over_center(f: GroupAlgebraElt) -> dict:
    """Invariant coefficients a_w with sum a_w X^{lambda_w} = f, via Cramer."""
    rs = f.rs
    elements, basis, rows = _steinberg_matrix(rs)
    denom = group_determinant(rs, rows)
    images = [f.weyl_image(z) for z in elements]
    out = {}
    for col, y in enumerate(elements):
        replaced = [
            [images[r] if j == col else rows[r][j] for j in range(len(rows))]
        for r in range(len(rows))]
        out[y] = group_determinant(rs, replaced).exact_div(denom)
    return out


def reassemble(coeffs: dict) -> GroupAlgebraElt:
    """Sum a_w X^{lambda_w} from a decomposition, for round-trip checks."""
    some = next(iter(coeffs.values()))
    rs = some.rs
    basis = steinberg_basis(rs)
    out = GroupAlgebraElt.zero(rs)
    for w, a in coeffs.items():
        out = out + a * GroupAlgebraElt.monomial(rs, basis[w])
    return out
