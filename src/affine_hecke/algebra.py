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

The center is the ring of W-symmetric Laurent polynomials in the X^lambda.
It is spanned by the orbit sums (orbit_sum), and is_central checks that an
element commutes with every generator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WrongLattice
from .rootsys import RootSystem, WeylElt, vec, vec_add, vec_dot, vec_sub
from .scalars import ExactScalar


Q_MINUS = ExactScalar.q_power(1) - ExactScalar.q_power(-1)  # q - q^-1


# ---------------------------------------------------------------------------
# the Laurent group algebra with rational coefficients
# ---------------------------------------------------------------------------

class GroupAlgebraElt:
    """A record of terms: a finitely supported rational combination of lattice
    monomials X^lambda, read through describe() and lifted into the algebra by
    AlgebraElt.from_group_algebra. It carries no arithmetic of its own."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms=None):
        self.rs = rs
        clean: dict[tuple, Fraction] = {}
        for lam, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[vec(lam)] = c
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAlgebraElt)
                and self.rs.key == other.rs.key
                and self.terms == other.terms)

    def __len__(self) -> int:
        return len(self.terms)

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

