"""Exact and numeric scalar arithmetic for coefficients in the Hecke parameter q.

Exact scalars are rational functions in a single formal variable v = q^(1/D),
where the denominator scale D is a positive integer fixed per computation.
Coefficients are exact rationals. Numeric scalars are complex doubles, used
when q is specialized (for instance at a root of unity).

Every ExactScalar is kept reduced: numerator and denominator coprime, the
denominator monic, zero as 0/1. The ring operations rely on their operands
being reduced and only test the factors that can cancel (Henrici, J. ACM 3,
1956; Knuth, TAOCP vol. 2, 4.5.1). A product n1/d1 * n2/d2 can cancel only
gcd(n1, d2) and gcd(n2, d1). In a sum, with g = gcd(d1, d2), only a factor
of g can cancel from n1*(d2/g) + n2*(d1/g). The constructor on raw input
reduces fully.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, PoleAtSpecialization, ScaleMismatch

# Tolerances for the numeric backend.
EQ_TOL = 1e-9
POLE_TOL = 1e-12

_ZERO = Fraction(0)
_ONE = Fraction(1)
_P_ONE = (_ONE,)


# ---------------------------------------------------------------------------
# polynomial helpers on ascending-coefficient tuples of Fractions
# ---------------------------------------------------------------------------

def _ptrim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _ZERO) + (b[i] if i < len(b) else _ZERO)
           for i in range(n)]
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    # long division; b must be nonzero
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = coef
        for i, y in enumerate(b):
            a[shift + i] -= coef * y
        a.pop()
    return _ptrim(q), _ptrim(a)


def _pord(a) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _pgcd(a, b):
    """Monic gcd of the nonzero polynomials a and b.

    A constant argument gives 1 and a monomial c*v^k gives v^min(k, ord),
    both without division; anything else runs monic Euclid.
    """
    if len(a) == 1 or len(b) == 1:
        return _P_ONE
    ka, kb = _pord(a), _pord(b)
    if ka == len(a) - 1 or kb == len(b) - 1:
        return (_ZERO,) * min(ka, kb) + _P_ONE
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    inv = 1 / a[-1]
    return tuple(x * inv for x in a)


def _pquo(a, b):
    """Exact quotient a / b by a monic divisor b of a.

    A monomial v^k divides by slicing; anything else is long division with
    no division by the leading coefficient.
    """
    n = len(b) - 1
    if not any(b[:n]):
        return a[n:]
    a = list(a)
    q = [_ZERO] * (len(a) - n)
    for shift in range(len(q) - 1, -1, -1):
        coef = q[shift] = a[shift + n]
        if coef:
            for i in range(n):
                a[shift + i] -= coef * b[i]
    return tuple(q)


def _pmonic(num, den):
    """Scale num/den by 1/lead(den) so that den becomes monic."""
    lead = den[-1]
    if lead == 1:
        return num, den
    c = 1 / lead
    return tuple(x * c for x in num), tuple(x * c for x in den)


def _pstretch(a, k: int):
    """Substitute v -> v^k."""
    if k == 1 or not a:
        return tuple(a)
    out = [_ZERO] * ((len(a) - 1) * k + 1)
    for i, x in enumerate(a):
        out[i * k] = x
    return _ptrim(out)


def _peval(a, z: complex) -> complex:
    acc = 0j
    for c in reversed(a):
        acc = acc * z + complex(c)
    return acc


# ---------------------------------------------------------------------------
# ExactScalar
# ---------------------------------------------------------------------------

class ExactScalar:
    """A rational function in v = q^(1/scale) with exact rational coefficients.

    Normal form: numerator and denominator are coprime, the denominator is
    monic, and zero is stored as 0/1. Instances are immutable and hashable.
    """

    __slots__ = ("num", "den", "scale", "_hash")

    def __init__(self, num, den=(_ONE,), scale: int = 1, _normalized=False):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        num = tuple(num)
        den = tuple(den)
        if not _normalized:
            num = _ptrim([Fraction(c) for c in num])
            den = _ptrim([Fraction(c) for c in den])
            if not den:
                raise DivisionByZero("zero denominator")
            if not num:
                den = _P_ONE
            else:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num, den = _pquo(num, g), _pquo(den, g)
                num, den = _pmonic(num, den)
        self.num = num
        self.den = den
        self.scale = scale
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(a, scale: int = 1) -> "ExactScalar":
        a = Fraction(a)
        if a == 0:
            return ExactScalar((), (_ONE,), scale, _normalized=True)
        return ExactScalar((a,), (_ONE,), scale, _normalized=True)

    @staticmethod
    def zero(scale: int = 1) -> "ExactScalar":
        return ExactScalar((), (_ONE,), scale, _normalized=True)

    @staticmethod
    def one(scale: int = 1) -> "ExactScalar":
        return ExactScalar((_ONE,), (_ONE,), scale, _normalized=True)

    @staticmethod
    def v_power(k: int, scale: int = 1) -> "ExactScalar":
        """The monomial v^k (k may be negative)."""
        if k >= 0:
            num = tuple([_ZERO] * k) + (_ONE,)
            return ExactScalar(num, (_ONE,), scale, _normalized=True)
        den = tuple([_ZERO] * (-k)) + (_ONE,)
        return ExactScalar((_ONE,), den, scale, _normalized=True)

    @staticmethod
    def q_power(r, scale: int | None = None) -> "ExactScalar":
        """q^r for rational r, as the monomial v^(r*scale)."""
        r = Fraction(r)
        if scale is None:
            scale = r.denominator
        k = r * scale
        if k.denominator != 1:
            raise ScaleMismatch(
                f"scale {scale} does not clear exponent denominator of {r}")
        return ExactScalar.v_power(int(k), scale)

    # -- scale handling -----------------------------------------------------

    def rescaled(self, scale: int) -> "ExactScalar":
        if scale == self.scale:
            return self
        if scale % self.scale != 0:
            raise ScaleMismatch(f"cannot rescale {self.scale} -> {scale}")
        k = scale // self.scale
        return ExactScalar(_pstretch(self.num, k), _pstretch(self.den, k),
                           scale, _normalized=True)

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            if other.scale == self.scale:
                return self, other
            s = lcm(self.scale, other.scale)
            return self.rescaled(s), other.rescaled(s)
        if isinstance(other, (int, Fraction)):
            return self, ExactScalar.from_rational(other, self.scale)
        return self, NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a._sum(b.num, b.den)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(_pneg(self.num), self.den, self.scale,
                           _normalized=True)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a._sum(_pneg(b.num), b.den)

    def __rsub__(self, other):
        return (-self) + other

    def _sum(self, n2, d2):
        """self + n2/d2 for a reduced n2/d2 with monic d2.

        With g = gcd(d1, d2), t = n1*(d2/g) + n2*(d1/g) is coprime to d1/g
        and to d2/g, so only h = gcd(t, g) can cancel.
        """
        n1, d1 = self.num, self.den
        if not n2:
            return self
        if not n1:
            return ExactScalar(n2, d2, self.scale, _normalized=True)
        if d1 == d2:
            g, d1g = d1, _P_ONE
            t = _padd(n1, n2)
        else:
            g = _pgcd(d1, d2)
            d1g = _pquo(d1, g)
            t = _padd(_pmul(n1, _pquo(d2, g)), _pmul(n2, d1g))
        if not t:
            return ExactScalar.zero(self.scale)
        h = _pgcd(t, g)
        return ExactScalar(_pquo(t, h), _pmul(d1g, _pquo(d2, h)), self.scale,
                           _normalized=True)

    def __mul__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        if not n1 or not n2:
            return ExactScalar.zero(a.scale)
        # a factor can cancel only across the pairs (n1, d2) and (n2, d1)
        g1, g2 = _pgcd(n1, d2), _pgcd(n2, d1)
        return ExactScalar(_pmul(_pquo(n1, g1), _pquo(n2, g2)),
                           _pmul(_pquo(d1, g2), _pquo(d2, g1)), a.scale,
                           _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        num, den = _pmonic(self.den, self.num)
        return ExactScalar(num, den, self.scale, _normalized=True)

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        if not b.num:
            raise DivisionByZero("division by zero")
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k == 0:
            return ExactScalar.one(self.scale)
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (_ONE,) and self.den == (_ONE,)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other, self.scale)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.scale != other.scale:
            s = lcm(self.scale, other.scale)
            return self.rescaled(s) == other.rescaled(s)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            # equal values at different scales must hash alike: hash the value
            # at its least scale, where v^k becomes v for the largest k that
            # divides the scale and every exponent in use
            k = self.scale
            for poly in (self.num, self.den):
                for i, c in enumerate(poly):
                    if c:
                        k = gcd(k, i)
            num, den = self.num[::k], self.den[::k]
            if den == (_ONE,) and len(num) <= 1:
                # constants compare equal to rationals, so hash like them
                self._hash = hash(num[0] if num else _ZERO)
            else:
                self._hash = hash((num, den, self.scale // k))
        return self._hash

    # -- conversions --------------------------------------------------------

    def specialize(self, q0: complex) -> complex:
        """Evaluate at q = q0 via the principal branch of q0^(1/scale)."""
        v0 = complex(q0) ** (1.0 / self.scale)
        den = _peval(self.den, v0)
        if abs(den) <= POLE_TOL:
            raise PoleAtSpecialization(f"denominator vanishes at q={q0!r}")
        num = _peval(self.num, v0)
        value = num / den
        if not (cmath.isfinite(value)):
            raise PoleAtSpecialization(f"non-finite value at q={q0!r}")
        return value

    def serialize(self) -> dict:
        return {
            "num": [f"{c.numerator}/{c.denominator}" for c in self.num],
            "den": [f"{c.numerator}/{c.denominator}" for c in self.den],
            "scale": self.scale,
        }

    @staticmethod
    def parse(doc: dict) -> "ExactScalar":
        num = tuple(Fraction(s) for s in doc["num"])
        den = tuple(Fraction(s) for s in doc["den"])
        return ExactScalar(num, den, int(doc.get("scale", 1)))

    def __repr__(self):
        return f"ExactScalar({self._poly_str(self.num)!r}/{self._poly_str(self.den)!r}, scale={self.scale})"

    def __str__(self):
        n = self._poly_str(self.num)
        if self.den == (_ONE,):
            return n
        return f"({n})/({self._poly_str(self.den)})"

    @staticmethod
    def _poly_str(coeffs) -> str:
        if not coeffs:
            return "0"
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*v" if c != 1 else "v")
            else:
                parts.append(f"{c}*v^{i}" if c != 1 else f"v^{i}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def near(a: complex, b: complex, tol: float = EQ_TOL) -> bool:
    """Approximate equality with a relative-absolute mixed tolerance."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
