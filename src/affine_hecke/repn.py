"""Finite dimensional modules: principal series, intertwiners, calibrated bases.

Each generator matrix is stored as sparse columns: column k is a {row: entry}
dict of the nonzero entries of the image of basis vector k. In both bases
built here a T column has at most two entries. Every X is upper triangular in
the module basis, as both constructions of the paper present it (the
length-ordered T_w basis and the seminormal weight basis); ModuleRep refuses
any other X. Products, shifts and powers apply the columns (_apply), and
triangular solves, X^-1 and tau's (1 - X^-alpha)^-1 included, are one
back-substitution (_coordinates). The dense row tuples t_mats and x_mats are
a view, built once from the columns, for describe(). _weight_basis is the one
basis of each generalized weight space: weight spaces, the commutant and tau
operators read coordinates in it and rank them with _nullity.

Entries live over the scalars object each module holds, which gives its
backend, q0, tolerance (also what counts as a zero entry), q-powers and weight
character. Exact scalars are rational functions in q, available whenever every
root evaluates to a plain q-power under the weight (in particular for untagged
generic weights; a common coset tag on all coordinates is fine in type A,
where it scales each X-generator matrix by a fixed formal unit that cancels
from every defining relation, so the stored entries simply drop it). Weights
that put a coset tag on some root, and root-of-unity weights, take numeric
scalars: complex numbers at q0 (exp(i pi / ell) at a root of unity), with unit
values for the tags.

Verification is built in rather than trusted: every constructed module stores
a relation report, checked column by column, weight space data is recomputed
from the matrices, and irreducibility is measured as commutant dimension 1:
the t-weight space of a principal series (Frobenius reciprocity), else solved
block by block in a basis of generalized weight vectors.
"""

from __future__ import annotations

import bisect
import cmath
import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from .algebra import Q_MINUS, AlgebraElt, bernstein_string
from .errors import (DivisionByZero, EmptyRegion, MixedCosetExact, NotRegular,
                     NotSkew, NumericIllConditioned, TooLarge, UndefinedTau,
                     UnsupportedType)
from .regions import LocalRegion, chamber_set_pruned, is_skew
from .rootsys import (RootSystem, WeylElt, _rank_nullspace, vec, vec_dot,
                      vec_neg)
from .scalars import ExactScalar, near
from .weights import TRIVIAL_TAG, Weight

NUMERIC_TOL = 1e-9   # entrywise tolerance for relation checks
RANK_TOL = 1e-7      # singular value and clustering threshold
# the block commutant solves dense rows over m^2 unknowns per generalized
# weight space of width m > 1; past one width-24 space, refuse
BLOCK_UNKNOWNS_LIMIT = 24 * 24

# 2^(1/3): real and > 1, so distinct rational exponents give distinct powers
DEFAULT_Q0 = 1.2599210498948732

_GOLDEN = 0.6180339887498949


# ---------------------------------------------------------------------------
# scalars: rational functions in q, or complex numbers at q0
# ---------------------------------------------------------------------------

def _memoized(f):
    """f on lattice vectors, evaluated once per vector: a character value
    costs a pairing with gamma and a power each time."""
    memo = {}

    def ev(lam):
        lam = tuple(lam)
        out = memo.get(lam)
        if out is None:
            out = memo[lam] = f(lam)
        return out

    return ev


class _ExactScalars:
    """Rational functions in q; ev is the character of t with its coset tags
    dropped, None without a weight."""

    backend = "exact"
    exact = True
    tol = q0 = None
    qm = Q_MINUS
    zero = staticmethod(ExactScalar.zero)
    one = staticmethod(ExactScalar.one)
    q = staticmethod(ExactScalar.q_power)
    is_zero = staticmethod(ExactScalar.is_zero)
    eq = staticmethod(operator.eq)
    size = staticmethod(bool)
    entry = staticmethod(ExactScalar.serialize)

    def __init__(self, t: Weight | None = None):
        self.ev = None if t is None else _memoized(Weight(t.rs, t.gamma).eval)

    @staticmethod
    def col_eq(u: dict, v: dict) -> bool:
        """Sparse columns u and v agree row by row, a missing row reading
        zero."""
        zero = ExactScalar.zero()
        return all(u.get(r, zero) == v.get(r, zero)
                   for r in u.keys() | v.keys())

    def at(self, t: Weight) -> "_ExactScalars":
        return _ExactScalars(t)

    @staticmethod
    def lift(c: ExactScalar):
        return c


class _NumericScalars:
    """Complex numbers at q = q0, worked out from t unless given; each tag
    symbol of t takes a unit value, golden-angle spaced in sorted order."""

    backend = "numeric"
    exact = False
    tol = NUMERIC_TOL
    size = staticmethod(abs)

    def __init__(self, t: Weight | None = None, q0=None):
        if q0 is None:
            q0 = (cmath.exp(1j * math.pi / t.ell)
                  if t is not None and t.ell is not None else DEFAULT_Q0)
        self.q0 = q0 = complex(q0)
        self.qm = q0 - 1 / q0
        self.ev = None
        if t is None:
            return
        syms = sorted({s for tag in t.tags for s, _ in tag})
        vals = {s: cmath.exp(2j * math.pi * (((k + 1) * _GOLDEN) % 1.0))
                for k, s in enumerate(syms)}

        def ev(lam):
            out = q0 ** float(t._exponent(lam))
            for sym, k in t.tag_of(lam):
                out *= vals[sym] ** k
            return complex(out)

        self.ev = _memoized(ev)

    def at(self, t: Weight) -> "_NumericScalars":
        return _NumericScalars(t, self.q0)

    @staticmethod
    def zero():
        return 0j

    @staticmethod
    def one():
        return 1 + 0j

    # plain methods reading the constant: the hottest calls of the column
    # kernel, and self.tol or static methods made relation checks slower
    def is_zero(self, x) -> bool:
        return abs(x) <= NUMERIC_TOL

    def eq(self, x, y) -> bool:
        return near(x, y, NUMERIC_TOL)

    def col_eq(self, u: dict, v: dict) -> bool:
        """eq on every row of the sparse columns u and v, a missing row
        reading zero, in one inline pass: |a - b| <= NUMERIC_TOL * max(1,
        |a|, |b|), which holds when it holds for one of the three."""
        for r in u.keys() | v.keys():
            a = u.get(r, 0j)
            b = v.get(r, 0j)
            d = abs(a - b)
            if (d > NUMERIC_TOL and d > NUMERIC_TOL * abs(a)
                    and d > NUMERIC_TOL * abs(b)):
                return False
        return True

    def q(self, k):
        return self.q0 ** k

    def lift(self, c: ExactScalar):
        return c.specialize(self.q0)

    @staticmethod
    def entry(x):
        return [x.real, x.imag]


def _check_backend(backend: str, choices=("auto", "exact", "numeric")):
    if backend not in choices:
        raise ValueError(f"unknown backend {backend!r}; use "
                         + " or ".join(map(repr, choices)))


def _scalars(t: Weight, backend: str):
    """The scalars of a module built at t for backend auto, exact or numeric;
    exact ones need every root to evaluate to a plain q-power."""
    _check_backend(backend)
    tagged = any(t.tag_of(a) != TRIVIAL_TAG for a in t.rs.positive_roots)
    if backend == "auto":
        backend = "numeric" if tagged or t.ell is not None else "exact"
    if backend == "numeric":
        return _NumericScalars(t)
    if t.ell is not None:
        raise UnsupportedType("root-of-unity weights need the numeric backend")
    if tagged:
        raise MixedCosetExact(
            "some root carries a coset tag; use the numeric backend")
    return _ExactScalars(t)


# ---------------------------------------------------------------------------
# sparse columns: the stored form of every generator matrix
# ---------------------------------------------------------------------------

def _sparse_columns(cols, d: int, ops) -> tuple:
    """d columns ({row: entry} dicts) with the entries ops counts as zero
    dropped."""
    if len(cols) != d:
        raise ValueError("matrices must be square of the basis size")
    is_zero = ops.is_zero
    return tuple({r: x for r, x in col.items() if not is_zero(x)}
                 for col in cols)


def _dense_to_columns(m, d: int) -> list:
    """The columns of a d x d matrix given by rows, zeros included."""
    if len(m) != d or any(len(row) != d for row in m):
        raise ValueError("matrices must be square of the basis size")
    return [{r: m[r][c] for r in range(d)} for c in range(d)]


def _columns_to_dense(cols, d: int, ops) -> tuple:
    """The d rows of the matrix whose columns are the sparse vectors cols."""
    zero = ops.zero()
    rows = [[zero] * len(cols) for _ in range(d)]
    for c, col in enumerate(cols):
        for r, x in col.items():
            rows[r][c] = x
    return tuple(map(tuple, rows))


def _apply(cols, v: dict, ops) -> dict:
    """A v for a column matrix A and a sparse vector v, as a fresh dict."""
    out = {}
    is_zero = ops.is_zero
    for k, x in v.items():
        if is_zero(x):
            continue
        for r, a in cols[k].items():
            y = a * x
            out[r] = out[r] + y if r in out else y
    return out


def _add_scaled(y: dict, c, x: dict) -> dict:
    """y + c x for sparse vectors, updating y."""
    for r, v in x.items():
        v = c * v
        y[r] = y[r] + v if r in y else v
    return y


def _is_upper(cols) -> bool:
    return all(r <= c for c, col in enumerate(cols) for r in col)


def _inverse(cols, ops) -> tuple:
    """The sparse columns of the inverse of an upper triangular matrix given
    by sparse columns, by _coordinates; DivisionByZero if it is singular."""
    basis = dict(enumerate(cols))
    return tuple(_coordinates({k: ops.one()}, basis, ops)
                 for k in range(len(cols)))


# ---------------------------------------------------------------------------
# the module type
# ---------------------------------------------------------------------------

class ModuleRep:
    """Generator matrices on a labeled basis, with the relation report attached.

    t_cols[i] is the action of the i-th standard generator, x_cols[k] the
    action of X^g for the k-th lattice generator g, each a tuple of sparse
    {row: entry} columns without zero entries. Every X is upper triangular,
    UnsupportedType otherwise. t_mats and x_mats are the same matrices as
    dense row tuples, built on first use. Matrices are immutable; the caches
    only hold views and products of them, and the weight groups.
    """

    __slots__ = ("rs", "kind", "basis", "basis_weights", "t_cols", "x_cols",
                 "weight", "region", "report", "_ops", "_index", "_dense",
                 "_xpow_cache", "_groups")

    def __init__(self, rs: RootSystem, kind: str, basis, t_cols, x_cols,
                 scalars, weight: Weight | None = None, basis_weights=None,
                 region: LocalRegion | None = None):
        self.rs = rs
        self.kind = kind
        self.basis = tuple(basis)
        d = len(self.basis)
        if len(t_cols) != rs.rank:
            raise ValueError("one T matrix per simple root")
        if len(x_cols) != len(rs.lattice_generators()):
            raise ValueError("one X matrix per lattice generator")
        self.t_cols = tuple(_sparse_columns(m, d, scalars) for m in t_cols)
        self.x_cols = tuple(_sparse_columns(m, d, scalars) for m in x_cols)
        if not all(map(_is_upper, self.x_cols)):
            raise UnsupportedType(
                "X matrices must be upper triangular in the module basis")
        self.weight = weight
        self.basis_weights = (None if basis_weights is None
                              else tuple(basis_weights))
        if self.basis_weights is not None and len(self.basis_weights) != d:
            raise ValueError("one basis weight per basis vector")
        self.region = region
        self.report = None
        self._ops = scalars
        self._index = {w: k for k, w in enumerate(self.basis)}
        self._dense = None
        self._xpow_cache = {}
        self._groups = None   # _weight_groups

    @classmethod
    def from_matrices(cls, rs: RootSystem, basis, t_mats, x_mats, *,
                      weight=None, basis_weights=None, backend="exact",
                      q0=None, kind="custom", verify=True):
        """A module from dense matrices, given as sequences of rows.

        Every X must be upper triangular once the entries the scalars count
        as zero are dropped (UnsupportedType otherwise), and basis_weights,
        when given, must match the X diagonals. kind "principal_series" is
        refused: commutant_dim reads it as a module induced from t."""
        _check_backend(backend, ("exact", "numeric"))
        if kind == "principal_series":
            raise ValueError("only principal_series() builds that kind")
        if backend == "numeric":
            scalars = _NumericScalars(weight, q0)
        elif q0 is None:
            scalars = _ExactScalars(weight)
        else:
            raise ValueError("q0 applies to the numeric backend only")
        basis = tuple(basis)
        rep = cls(rs, kind, basis,
                  [_dense_to_columns(m, len(basis)) for m in t_mats],
                  [_dense_to_columns(m, len(basis)) for m in x_mats],
                  scalars, weight=weight, basis_weights=basis_weights)
        if rep.basis_weights is not None:
            zero = scalars.zero()
            gens = rs.lattice_generators()
            for k, wt in enumerate(rep.basis_weights):
                ev = scalars.at(wt).ev
                if not all(scalars.eq(m[k].get(k, zero), ev(g))
                           for g, m in zip(gens, rep.x_cols)):
                    raise ValueError(f"basis weight {k} does not match the "
                                     f"X diagonals at {k}")
        if verify:
            rep.report = verify_relations(rep)
        return rep

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def backend(self) -> str:
        return self._ops.backend

    @property
    def q0(self) -> complex | None:
        return self._ops.q0

    def _dense_view(self):
        if self._dense is None:
            self._dense = tuple(
                tuple(_columns_to_dense(m, self.dim, self._ops) for m in mats)
                for mats in (self.t_cols, self.x_cols))
        return self._dense

    @property
    def t_mats(self) -> tuple:
        return self._dense_view()[0]

    @property
    def x_mats(self) -> tuple:
        return self._dense_view()[1]

    def _x_power_columns(self, mu) -> tuple:
        """Columns of X^mu, the product of generator powers in lattice
        coordinate order; computed once per mu."""
        mu = vec(mu)
        cols = self._xpow_cache.get(mu)
        if cols is None:
            ops = self._ops
            coords = self.rs.lattice_coords(mu)
            if coords is None:
                raise ValueError(f"{mu} is not in the lattice")
            for k, c in enumerate(coords):
                base = self.x_cols[k]
                if c < 0:   # X^-g is the cached power at -g
                    neg = vec_neg(self.rs.lattice_generators()[k])
                    base = (_inverse(base, ops) if neg == mu
                            else self._x_power_columns(neg))
                for _ in range(abs(c)):
                    cols = base if cols is None else tuple(
                        _apply(cols, col, ops) for col in base)
            if cols is None:
                cols = tuple({k: ops.one()} for k in range(self.dim))
            self._xpow_cache[mu] = cols
        return cols

    def x_power(self, mu):
        """Dense matrix of X^mu."""
        return _columns_to_dense(self._x_power_columns(mu), self.dim,
                                 self._ops)

    def describe(self) -> dict:
        def matrix(m):
            return [[self._ops.entry(x) for x in row] for row in m]

        out = {
            "kind": self.kind,
            "dim": self.dim,
            "backend": self.backend,
            "basis": [list(w.reduced_word()) for w in self.basis],
            "x_exponents": [[str(c) for c in g]
                            for g in self.rs.lattice_generators()],
            "t_matrices": [matrix(m) for m in self.t_mats],
            "x_matrices": [matrix(m) for m in self.x_mats],
        }
        if self.weight is not None:
            out["weight"] = self.weight.describe()
        if self.region is not None:
            out["region"] = {
                "J": sorted(str(list(map(str, a))) for a in self.region.J)}
        if self.q0 is not None:
            out["q0"] = [self.q0.real, self.q0.imag]
        if self.report is not None:
            out["report"] = self.report
        return out

    def __repr__(self):
        return (f"ModuleRep({self.kind}, dim={self.dim}, "
                f"backend={self.backend})")


def direct_sum(a: ModuleRep, b: ModuleRep) -> ModuleRep:
    """Block-diagonal sum; mainly a commutant test fixture."""
    if a.rs.key != b.rs.key or (a.backend, a.q0) != (b.backend, b.q0):
        raise ValueError("summands must share the root system, the backend "
                         "and q0")
    shift = a.dim

    def block(m1, m2):
        return m1 + tuple({r + shift: x for r, x in col.items()} for col in m2)

    weights = None
    if a.basis_weights and b.basis_weights:
        weights = a.basis_weights + b.basis_weights
    rep = ModuleRep(a.rs, "direct_sum", a.basis + b.basis,
                    [block(m1, m2) for m1, m2 in zip(a.t_cols, b.t_cols)],
                    [block(m1, m2) for m1, m2 in zip(a.x_cols, b.x_cols)],
                    a._ops, basis_weights=weights)
    rep.report = verify_relations(rep)
    return rep


# ---------------------------------------------------------------------------
# principal series
# ---------------------------------------------------------------------------

# normal forms of T_i T_w and X^g T_w are weight independent; computing them
# once per root system makes weight sweeps cheap
_PRINCIPAL_CACHE: dict = {}


def _principal_terms(rs: RootSystem):
    """(t_terms, x_terms, coeffs, exponents): t_terms[w][i] lists (row, c)
    for T_i T_w and x_terms[w][k] lists (row, e, c) for X^g T_w, where c
    indexes the distinct coefficients and e the distinct X exponents."""
    cached = _PRINCIPAL_CACHE.get(rs.key)
    if cached is not None:
        return cached
    basis = rs.weyl_elements()
    index = {w: k for k, w in enumerate(basis)}
    coeffs, exponents = {}, {}
    t_terms, x_terms = [], []
    # the T_i T_w, then the X^g T_w, for w of this length and the one before:
    # each is that of w s_j times T_j, j the last letter of w's reduced word
    # (a prefix of a lexicographically least reduced word is again one)
    shorter, current, length = {}, {}, 0
    for w in basis:
        word = w.reduced_word()
        if len(word) > length:
            shorter, current, length = current, {}, len(word)
        if word:
            prods = [p._times_ti(word[-1])
                     for p in shorter[w * rs.simple_reflection(word[-1])]]
        else:
            prods = ([AlgebraElt.t_generator(rs, i) for i in range(rs.rank)]
                     + [AlgebraElt.x_monomial(rs, g)
                        for g in rs.lattice_generators()])
        current[w] = prods
        t_terms.append(tuple(
            tuple((index[u], coeffs.setdefault(c, len(coeffs)))
                  for (u, _), c in p.terms.items())
            for p in prods[:rs.rank]))
        x_terms.append(tuple(
            tuple((index[u], exponents.setdefault(lam, len(exponents)),
                   coeffs.setdefault(c, len(coeffs)))
                  for (u, lam), c in p.terms.items())
            for p in prods[rs.rank:]))
    cached = (t_terms, x_terms, tuple(coeffs), tuple(exponents))
    _PRINCIPAL_CACHE[rs.key] = cached
    return cached


def principal_series(t: Weight, backend: str = "auto") -> ModuleRep:
    """The module induced from the one-dimensional X-module at t.

    The basis is the Weyl group in length order, so the X matrices come out
    upper triangular with the orbit characters on the diagonal. T generators
    act by left multiplication, X generators by normal-forming X^g T_w and
    evaluating the X part at t. Each distinct coefficient is lifted to the
    scalars, and each distinct X exponent evaluated at t, once per build.
    """
    rs = t.rs
    basis = rs.weyl_elements()
    ops = _scalars(t, backend)
    t_terms, x_terms, coeffs, exponents = _principal_terms(rs)
    values = [ops.lift(c) for c in coeffs]
    chars = [ops.ev(lam) for lam in exponents]
    zero = ops.zero()

    t_cols = [[] for _ in range(rs.rank)]
    x_cols = [[] for _ in rs.lattice_generators()]
    for col_t, col_x in zip(t_terms, x_terms):
        for cols, terms in zip(t_cols, col_t):
            col = {}
            for row, c in terms:
                col[row] = col.get(row, zero) + values[c]
            cols.append(col)
        for cols, terms in zip(x_cols, col_x):
            col = {}
            for row, e, c in terms:
                col[row] = col.get(row, zero) + values[c] * chars[e]
            cols.append(col)

    rep = ModuleRep(rs, "principal_series", basis, t_cols, x_cols, ops,
                    weight=t, basis_weights=[t.weyl_act(w) for w in basis])
    rep.report = verify_relations(rep)
    return rep


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

def _braid_order(rs: RootSystem, i: int, j: int) -> int:
    """Order m_ij of s_i s_j, read from the Cartan product a_ij a_ji."""
    a = rs.cartan_matrix
    return {0: 2, 1: 3, 2: 4, 3: 6}[a[i][j] * a[j][i]]


def verify_relations(rep: ModuleRep) -> dict:
    """Check the defining relations and report failures.

    Each identity A = B between words in the generators is checked as
    A e_k = B e_k for every basis vector e_k, applying the sparse columns of
    the word right to left; X^mu e_k is a column of the module's cached
    X-powers.
    """
    rs = rep.rs
    ops = rep._ops
    col_eq = ops.col_eq
    d = rep.dim
    one = ops.one()
    qm = ops.qm
    t, x = rep.t_cols, rep.x_cols
    gens = rs.lattice_generators()
    report = {"backend": rep.backend, "dim": d, "tolerance": ops.tol}

    def holds(lhs, rhs) -> bool:
        return all(col_eq(lhs(k), rhs(k)) for k in range(d))

    def word(mats, k: int) -> dict:
        v = mats[-1][k]
        for m in reversed(mats[:-1]):
            v = _apply(m, v, ops)
        return v

    failures = []
    for i, m in enumerate(t):
        if not holds(lambda k: word((m, m), k),
                     lambda k: _add_scaled({k: one}, qm, m[k])):
            failures.append(f"T_{i + 1}")
    report["quadratic"] = {"checked": rs.rank, "failures": failures}

    failures, checked = [], 0
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            m = _braid_order(rs, i, j)
            checked += 1
            lhs = [t[(i, j)[p % 2]] for p in range(m)]
            rhs = [t[(j, i)[p % 2]] for p in range(m)]
            if not holds(lambda k: word(lhs, k), lambda k: word(rhs, k)):
                failures.append(f"(T_{i + 1}, T_{j + 1}) order {m}")
    report["braid"] = {"checked": checked, "failures": failures}

    failures, checked = [], 0
    for k in range(len(gens)):
        for l in range(k + 1, len(gens)):
            checked += 1
            if not holds(lambda c: word((x[k], x[l]), c),
                         lambda c: word((x[l], x[k]), c)):
                failures.append(f"(X_{k + 1}, X_{l + 1})")
    report["x_commute"] = {"checked": checked, "failures": failures}

    # X^g T_i = T_i X^{s_i g} + sign (q - q^-1) (sum of the Bernstein string)
    failures, checked = [], 0
    for i in range(rs.rank):
        alpha = rs.simple_roots[i]
        alpha_check = rs.coroot(alpha)
        s = rs.simple_reflection(i)
        for k, g in enumerate(gens):
            checked += 1
            label = f"(T_{i + 1}, X_{k + 1})"
            try:
                moved = rep._x_power_columns(s.act(g))
                sign, terms = bernstein_string(g, alpha, alpha_check)
                string = [rep._x_power_columns(mu) for mu in terms]
                sign_qm = qm if sign > 0 else -qm

                def rhs(c):
                    out = _apply(t[i], moved[c], ops)
                    for cols in string:
                        _add_scaled(out, sign_qm, cols[c])
                    return out

                if not holds(lambda c: word((x[k], t[i]), c), rhs):
                    failures.append(label)
            except (ValueError, ZeroDivisionError, DivisionByZero) as exc:
                failures.append(f"{label}: {exc}")
    report["cross"] = {"checked": checked, "failures": failures}

    report["all_pass"] = all(not report[key]["failures"]
                             for key in ("quadratic", "braid", "x_commute",
                                         "cross"))
    return report


# ---------------------------------------------------------------------------
# weight space decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpaceDecomp:
    """Per-character dimensions: spaces maps a weight label to (dim, gen_dim)."""

    dim: int
    labels: tuple
    spaces: dict

    def gen_dimensions(self) -> dict:
        return {lab: self.spaces[lab][1] for lab in self.labels}

    def dimensions(self) -> dict:
        return {lab: self.spaces[lab][0] for lab in self.labels}

    def describe(self) -> dict:
        rows = []
        for lab in self.labels:
            dim, gen = self.spaces[lab]
            shown = lab.describe() if isinstance(lab, Weight) else str(lab)
            rows.append({"weight": shown, "dim": dim, "gen_dim": gen})
        return {"module_dim": self.dim, "weights": rows}


def _group_equal(keys) -> list:
    """Indices grouped by equal keys, groups in first-seen order."""
    groups: dict = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    return list(groups.values())


def weight_decomposition(rep: ModuleRep) -> WeightSpaceDecomp:
    """Generalized and plain weight space dimensions, read off the matrices.

    Basis vectors are grouped by joint X character, read off the diagonals
    of the upper triangular X (_weight_groups). A group's size is its
    generalized dimension. A group of one is a weight line; for a larger one
    the plain dimension is the joint kernel of the X_g - chi_g, read in the
    group's _weight_basis and ranked by _nullity. An X leaving a generalized
    weight space, as X that do not commute do, raises NumericIllConditioned.
    """
    ops = rep._ops
    d = rep.dim
    groups, keys = _weight_groups(rep)

    if rep.basis_weights is not None:
        by_weight = _group_equal(rep.basis_weights)
        if sorted(map(sorted, by_weight)) != sorted(map(sorted, groups)):
            raise NumericIllConditioned(
                "diagonal clustering disagrees with the stored weights")

    labels, spaces = [], {}
    for group in groups:
        key = keys[group[0]]
        if rep.basis_weights is not None:
            label = rep.basis_weights[group[0]]
        else:
            label = "diag:" + ",".join(str(x) for x in key)
        if len(group) == 1:
            # commuting operators share an eigenvector in each nonzero
            # generalized weight space, so a line is a weight line
            plain = 1
        else:
            plain = _plain_dimension(
                rep, _weight_basis(rep.x_cols, group, ops), key)
        labels.append(label)
        spaces[label] = (plain, len(group))
    total = sum(v[1] for v in spaces.values())
    if total != d:
        raise NumericIllConditioned("generalized dimensions do not sum up")
    return WeightSpaceDecomp(dim=d, labels=tuple(labels), spaces=spaces)


def _plain_dimension(rep: ModuleRep, space: dict, chi) -> int:
    """Dimension of the joint kernel of the X_g - chi_g on the generalized
    weight space with _weight_basis space, ranked by _nullity."""
    ops = rep._ops
    rows = [row for m, c in zip(rep.x_cols, chi)
            for row in _coordinate_matrix(
                [_add_scaled(_apply(m, v, ops), -c, v) for v in space.values()],
                space, ops)]
    return _nullity(rows, len(space), ops)


def _weight_groups(rep: ModuleRep):
    """(groups, keys): basis indices grouped by joint X character, and
    keys[k] the character at basis vector k, read off the diagonals of the
    upper triangular X, one entry per X generator. Computed once per module;
    callers do not modify the lists.
    """
    if rep._groups is None:
        zero = rep._ops.zero()
        keys = [tuple(m[k].get(k, zero) for m in rep.x_cols)
                for k in range(rep.dim)]
        rep._groups = _character_groups(keys, rep._ops.exact), keys
    return rep._groups


def _character_groups(keys, exact: bool) -> list:
    """Indices grouped by joint character: equal keys when exact, else
    clusters at RANK_TOL whose first keys sit 10 RANK_TOL apart.

    A key joins the first cluster whose first key is near it entrywise. Both
    searches look only along a generic real projection of the keys, kept
    sorted: it moves by at most the largest entry gap, and near(x, y,
    RANK_TOL) bounds that gap by 2 RANK_TOL max(1, |x|). The windows carry a
    slack for the rounding of the projection."""
    if exact:
        return _group_equal(keys)
    m = len(keys[0]) if keys else 0
    # unit directions at golden angles, weighted 1/m: |p(x) - p(y)| is at
    # most max |x_k - y_k|; the first entries alone repeat across clusters
    dirs = [cmath.exp(-2j * math.pi * (((k + 1) * _GOLDEN) % 1.0)) / m
            for k in range(m)]
    scale = max((abs(x) for key in keys for x in key), default=0.0)
    slack = 1e-12 * max(1.0, scale)
    groups, reps = [], []
    line = []   # (projection of the cluster's first key, cluster), sorted
    for idx, key in enumerate(keys):
        p = sum((x * d).real for x, d in zip(key, dirs))
        r = 2 * RANK_TOL * max(1.0, *map(abs, key)) + slack
        window = line[bisect.bisect_left(line, (p - r,)):
                      bisect.bisect_right(line, (p + r, math.inf))]
        near_ones = [g for _, g in window
                     if all(near(a, b, RANK_TOL) for a, b in zip(key, reps[g]))]
        if near_ones:
            groups[min(near_ones)].append(idx)
            continue
        bisect.insort(line, (p, len(groups)))
        groups.append([idx])
        reps.append(key)
    close = []   # (a, b, gap) for clusters a < b too close
    for i, (p, a) in enumerate(line):
        j = i + 1
        while j < len(line) and line[j][0] - p < 10 * RANK_TOL + slack:
            b = line[j][1]
            gap = max(abs(u - v) for u, v in zip(reps[a], reps[b]))
            if gap < 10 * RANK_TOL:
                close.append((min(a, b), max(a, b), gap))
            j += 1
    if close:
        gap = min(close)[2]
        raise NumericIllConditioned(
            f"weight clusters separated by only {gap:.3g}")
    return groups


def _nullity(rows, n: int, ops) -> int:
    """Nullity of rows of n entries: exact elimination or _numeric_nullity."""
    if not rows:
        return n
    if ops.exact:
        # sparsest rows first: the same rank, with far less fill-in
        rows = sorted(rows, key=lambda row: sum(not ops.is_zero(x)
                                                for x in row))
        return n - _rank_nullspace(rows, ops)[0]
    return _numeric_nullity(rows)


def _numeric_nullity(rows) -> int:
    """Column count minus the rank at RANK_TOL times the top singular value;
    NumericIllConditioned when a singular value sits near that threshold."""
    import numpy as np
    a = np.asarray(rows, dtype=complex)
    if not a.size:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv[0] if len(sv) else 0.0
    if top == 0.0:
        return a.shape[1]
    thresh = RANK_TOL * top
    if any(thresh / 10 < s < thresh * 10 for s in sv):
        raise NumericIllConditioned("singular values hug the rank threshold")
    return int(a.shape[1] - sum(s > thresh for s in sv))


# ---------------------------------------------------------------------------
# spherical vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalCheck:
    vector: tuple
    eigen_pass: bool
    generates: bool
    criterion: object
    expansion_check: bool | None

    def describe(self) -> dict:
        return {
            "eigen_pass": self.eigen_pass,
            "generates": self.generates,
            "criterion": str(self.criterion) if self.criterion is not None
            else None,
            "expansion_check": self.expansion_check,
        }


def _generation_criterion(t: Weight):
    """(generates, product value); the product is None when tags interfere."""
    q = ExactScalar.q_power(1)
    q_inv = ExactScalar.q_power(-1)
    if t.ell is not None:
        ok = True
        for alpha in t.rs.positive_roots:
            if t.tag_of(alpha) != TRIVIAL_TAG:
                continue
            c = vec_dot(t.gamma, alpha)
            if c.denominator == 1 and int(c) % t.ell == t.ell - 1:
                ok = False
        return ok, None
    prod = ExactScalar.one()
    skipped = False
    for alpha in t.rs.positive_roots:
        if t.tag_of(alpha) != TRIVIAL_TAG:
            skipped = True  # a unit times a q-power can never equal q^{-2}
            continue
        prod = prod * (q_inv - q * t.eval(alpha))
    return not prod.is_zero(), (None if skipped else prod)


def tau_basis(rep: ModuleRep) -> dict:
    """For a regular base weight: the weight basis built by intertwiners.

    Returns {w: vector} where the vector spans the w-translate weight line and
    is normalized with coefficient 1 on the leading basis element.
    """
    if rep.weight is None:
        raise ValueError("module lacks a backing weight")
    if not rep.weight.is_regular():
        raise NotRegular("the intertwiner basis needs a regular weight")
    rs = rep.rs
    ops = rep._ops
    zero = ops.zero()
    one = ops.one()
    qm = ops.qm
    vectors: dict[WeylElt, tuple] = {}
    for w in rep.basis:
        word = w.reduced_word()
        if not word:
            unit = [zero] * rep.dim
            unit[rep._index[w]] = one
            vectors[w] = tuple(unit)
            continue
        i = word[0]
        u = rs.simple_reflection(i) * w
        prev = vectors[u]
        val = ops.ev(u.act_inverse(vec_neg(rs.simple_roots[i])))
        c = qm / (one - val)
        moved = _apply(rep.t_cols[i], dict(enumerate(prev)), ops)
        vectors[w] = tuple(moved.get(r, zero) - c * y
                           for r, y in enumerate(prev))
    return vectors


def spherical(t: Weight, backend: str = "auto",
              rep: ModuleRep | None = None) -> SphericalCheck:
    """The q-symmetrizing vector of the principal series and its checks.

    The closed-form comparison runs exactly when the weight is regular;
    otherwise expansion_check is None. A given rep is used as the principal
    series; backend must then be "auto" or its backend, and its weight t.
    """
    if rep is None:
        rep = principal_series(t, backend=backend)
    elif backend not in ("auto", rep.backend):
        _check_backend(backend)
        raise ValueError(f"backend {backend!r} does not match the "
                         f"{rep.backend!r} module passed as rep")
    elif rep.weight != t:
        raise ValueError("the module passed as rep is built at another "
                         "weight than t")
    ops = rep._ops
    q = ops.q(1)
    vector = tuple(ops.q(w.length()) for w in rep.basis)
    zero = ops.zero()
    eigen_pass = all(
        ops.eq(moved.get(r, zero), q * b)
        for moved in (_apply(m, dict(enumerate(vector)), ops)
                      for m in rep.t_cols)
        for r, b in enumerate(vector))
    generates, criterion = _generation_criterion(t)

    expansion_check = None
    if t.is_regular():
        # closed form: the coefficient of the intertwiner basis vector at z is
        # q^len(w0) times the product of (q^-1 - q t(X^a))/(1 - t(X^a)) over
        # the inversions of w0 z (the same factors as the generation test),
        # each taken once per positive root and multiplied in root index order
        basis_vectors = tau_basis(rep)
        w0 = rep.rs.long_element()
        one = ops.one()
        factors = [(one / q - q * val) / (one - val)
                   for val in map(ops.ev, rep.rs.positive_roots)]
        total = [ops.zero()] * rep.dim
        for z in rep.basis:
            coeff = ops.q(w0.length())
            for k in (w0 * z).inversions():
                coeff = coeff * factors[k]
            vz = basis_vectors[z]
            total = [acc + coeff * x for acc, x in zip(total, vz)]
        expansion_check = all(ops.eq(a, b) for a, b in zip(total, vector))
    return SphericalCheck(vector=vector, eigen_pass=eigen_pass,
                          generates=generates, criterion=criterion,
                          expansion_check=expansion_check)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def kato_irreducible(t: Weight) -> bool:
    """Irreducibility of the principal series from the root data alone."""
    return not t.zp_sets()[1]


def commutant_dim(rep: ModuleRep) -> int:
    """Dimension of the algebra of matrices commuting with all generators,
    solved in the module's own scalars: exact for an exact module.

    A principal series M(t) = H (x)_C[X] C_t has End_H(M(t)) =
    Hom_C[X](C_t, M(t)) by Frobenius reciprocity: the plain t-weight space.
    Every other module goes through _block_commutant, which raises TooLarge
    past BLOCK_UNKNOWNS_LIMIT unknowns, m^2 per space of width m > 1.
    """
    if rep.kind == "principal_series":
        # the identity comes first in the basis, at the weight t
        return _plain_dimension(rep, _weight_space(rep, rep.weight),
                                _weight_groups(rep)[1][0])
    return _block_commutant(rep)


def _block_commutant(rep: ModuleRep) -> int:
    """The commutant of a module with upper triangular X, in the basis of
    _weight_basis: X is block diagonal there, and so is a commuting matrix,
    one block C_a per generalized weight space a. Each generator block G_ab
    asks G_ab C_b = C_a G_ab. Between two weight lines that merges them
    where G_ab is nonzero; blocks touching a wider space give the rows of a
    linear system over the merged lines and the wider blocks. Raises TooLarge
    when the wider blocks hold more than BLOCK_UNKNOWNS_LIMIT unknowns."""
    ops = rep._ops
    d = rep.dim
    groups, _ = _weight_groups(rep)
    wide = sum(len(group) ** 2 for group in groups if len(group) > 1)
    if wide > BLOCK_UNKNOWNS_LIMIT:
        raise TooLarge(f"the commutant has {wide} unknowns in generalized "
                       f"weight spaces wider than a line, past "
                       f"{BLOCK_UNKNOWNS_LIMIT}")
    basis, owner, pos = {}, [0] * d, [0] * d
    for a, group in enumerate(groups):
        basis.update(_weight_basis(rep.x_cols, group, ops))
        for p, k in enumerate(group):
            owner[k], pos[k] = a, p
    sizes = [len(group) for group in groups]
    parent = list(range(len(groups)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    entries = []   # (generator, a, b, p, q, entry (p, q) of G_ab)
    for g, gen in enumerate(rep.t_cols + rep.x_cols):
        for s, v in basis.items():
            image = gen[s] if len(v) == 1 else _apply(gen, v, ops)
            for r, c in _coordinates(image, basis, ops).items():
                a, b = owner[r], owner[s]
                if a != b and g >= len(rep.t_cols):
                    raise NumericIllConditioned(
                        "an X matrix leaves a generalized weight space")
                if sizes[a] > 1 or sizes[b] > 1:
                    entries.append((g, a, b, pos[r], pos[s], c))
                elif a != b:
                    parent[find(a)] = find(b)

    # C_a[i][k] is unknown offset[find(a)] + i m_a + k: lines share their
    # component's one unknown, and a wider space is never merged
    offset, n = {}, 0
    for a, m in enumerate(sizes):
        if find(a) not in offset:
            offset[find(a)], n = n, n + m * m
    zero = ops.zero()
    rows: dict = {}

    def add(key, col, x):
        row = rows.setdefault(key, [zero] * n)
        row[col] = row[col] + x

    for g, a, b, p, q, c in entries:
        ma, mb = sizes[a], sizes[b]
        for j in range(mb):   # (G_ab C_b)[p][j] takes c C_b[q][j]
            add((g, a, b, p, j), offset[find(b)] + q * mb + j, c)
        for i in range(ma):   # (C_a G_ab)[i][q] takes c C_a[i][p]
            add((g, a, b, i, q), offset[find(a)] + i * ma + p, -c)
    system = [row for row in rows.values() if not all(map(ops.is_zero, row))]
    return _nullity(system, n, ops)


def _weight_basis(x_cols, group, ops) -> dict:
    """The basis {s: v_s} (s in group, sparse) of the generalized weight space
    of commuting upper triangular X whose diagonals share one joint character
    chi at the indices of group: v_s is 1 at s, 0 below s and 0 at the rest of
    group. It exists and is unique, as reading off the coordinates in group
    maps the space one to one onto their span. v_s is solved from row s - 1
    upward: (X_g - chi_g) v_s has coordinate c_u on v_u at a row u of group,
    and row j of (X_g - chi_g) v_s = sum c_u v_u fixes v_s[j] at a row j off
    group, for the generator g with the widest gap X_g[j][j] - chi_g.
    """
    members = set(group)
    zero = ops.zero()
    basis: dict = {}
    for s in group:
        chi = [m[s].get(s, zero) for m in x_cols]
        v = {s: ops.one()}
        # acc[g] is X_g v so far: at row j it sums over the k > j of v
        acc = [dict(m[s]) for m in x_cols]
        coeffs = {}   # u -> c_u, one per generator
        low = min([s, *itertools.chain(*acc)])   # no row below is reached
        j = s
        while j > low:
            j -= 1
            if j in members:
                c = [a.get(j, zero) for a in acc]
                if not all(map(ops.is_zero, c)):
                    coeffs[j] = c
                    low = min([low, *basis[j]])
                continue
            gaps = [m[j].get(j, zero) - x for m, x in zip(x_cols, chi)]
            g = max(range(len(gaps)), key=lambda k: ops.size(gaps[k]))
            rhs = -acc[g].get(j, zero)
            for u, c in coeffs.items():
                rhs = rhs + c[g] * basis[u].get(j, zero)
            x = rhs / gaps[g]
            if not ops.is_zero(x):
                v[j] = x
                for a, m in zip(acc, x_cols):
                    _add_scaled(a, x, m[j])
                    low = min([low, *m[j]])
        basis[s] = v
    return basis


def _coordinates(y: dict, basis: dict, ops) -> dict:
    """Coordinates of the sparse vector y over sparse vectors basis[r] that
    are 0 below row r, by back-substitution from the last row up: with basis
    the columns of an upper triangular matrix, its inverse applied to y.
    NumericIllConditioned off the basis, DivisionByZero at a zero pivot."""
    y = dict(y)
    heap = [-r for r in y]
    heapq.heapify(heap)
    one = ops.one()
    out = {}
    while heap:
        r = -heapq.heappop(heap)
        c = y[r]
        if not ops.is_zero(c):
            v = basis.get(r)
            if v is None:
                raise NumericIllConditioned(
                    f"a vector leaves the span of the basis at row {r}")
            pivot = v.get(r)
            if pivot is None:
                raise DivisionByZero("matrix is singular")
            out[r] = c = c if pivot == one else c / pivot
            if len(v) > 1:   # else v is a multiple of e_r: nothing to take
                for k in v:
                    if k not in y:
                        heapq.heappush(heap, -k)
                _add_scaled(y, -c, v)
    return out


def _coordinate_matrix(vectors, basis: dict, ops) -> tuple:
    """Columns of coordinates over basis, one per vector, rows in key order."""
    pos = {r: p for p, r in enumerate(basis)}
    return _columns_to_dense(
        [{pos[r]: c for r, c in _coordinates(y, basis, ops).items()}
         for y in vectors], len(basis), ops)


# ---------------------------------------------------------------------------
# tau operators on generalized weight spaces
# ---------------------------------------------------------------------------

def _weight_space(rep: ModuleRep, t: Weight) -> dict:
    """The _weight_basis {s: v_s} of the generalized weight space at t, over
    the positions whose basis weight is t."""
    if rep.basis_weights is None:
        raise ValueError("module lacks per-basis weight data")
    group = [k for k, bw in enumerate(rep.basis_weights) if bw == t]
    if not group:
        raise ValueError("weight does not occur in this module")
    if group not in _weight_groups(rep)[0]:
        raise NumericIllConditioned(
            "diagonal clustering disagrees with the stored weights")
    return _weight_basis(rep.x_cols, group, rep._ops)


def generalized_weight_basis(rep: ModuleRep, t: Weight):
    """Column basis (d x m matrix) of the generalized weight space at t, the
    vectors of _weight_space."""
    return _columns_to_dense(_weight_space(rep, t).values(), rep.dim, rep._ops)


@dataclass(frozen=True)
class TauOperator:
    """A local intertwiner between two generalized weight spaces."""

    rep: ModuleRep
    index: int
    source: Weight
    target: Weight
    source_basis: tuple
    target_basis: tuple
    matrix: tuple

    def is_invertible(self) -> bool:
        m = self.matrix
        return (len(m) == len(m[0])
                and _nullity(m, len(m), self.rep._ops) == 0)


def tau_operator(i: int, t: Weight, rep: ModuleRep) -> TauOperator:
    """The intertwiner from the t space to the reflected one.

    Only defined when t is off the reflection wall for the i-th simple root;
    UndefinedTau otherwise. DivisionByZero where 1 - X^-alpha is singular
    on the t space.
    """
    rs = rep.rs
    alpha = rs.simple_roots[i]
    if alpha in t.zp_sets()[0]:
        raise UndefinedTau(
            f"weight takes value 1 on X^{alpha}; no intertwiner there")
    ops, d = rep._ops, rep.dim
    source = _weight_space(rep, t)
    target_weight = t.weyl_act(rs.simple_reflection(i))
    target = _weight_space(rep, target_weight)
    vectors = list(source.values())
    # tau_i = T_i - (q - q^-1) (1 - X^-alpha)^-1, the inverse taken in source
    # coordinates, where 1 - X^-alpha keeps the generalized weight space and
    # is upper triangular: (1 - X^-alpha) v_s and v_s have no row past s
    one = ops.one()
    x_neg = rep._x_power_columns(vec_neg(alpha))
    shift = {s: _coordinates(_add_scaled(dict(v), -one, _apply(x_neg, v, ops)),
                             source, ops) for s, v in source.items()}
    action = [_add_scaled(_apply(rep.t_cols[i], v, ops), -ops.qm,
                          _apply(source, _coordinates({s: one}, shift, ops),
                                 ops))
              for s, v in source.items()]
    return TauOperator(rep=rep, index=i, source=t, target=target_weight,
                       source_basis=_columns_to_dense(vectors, d, ops),
                       target_basis=_columns_to_dense(target.values(), d, ops),
                       matrix=_coordinate_matrix(action, target, ops))


# ---------------------------------------------------------------------------
# calibrated modules
# ---------------------------------------------------------------------------

def calibrated_module(region: LocalRegion, force: bool = False,
                      backend: str = "auto") -> ModuleRep:
    """One-dimensional weight space module carried by a skew local region.

    X acts diagonally through the chamber weights; each T generator mixes a
    basis vector with at most its reflected partner, with the partner term
    dropped when the reflection leaves the region. force=True skips the skew
    check so that the failure mode itself can be observed.
    """
    t, J = region.t, region.J
    if not force and not is_skew(region):
        raise NotSkew("region is not skew; pass force=True to build anyway")
    basis = chamber_set_pruned(t, J).elements
    if not basis:
        raise EmptyRegion("no chambers index this region")
    rs = t.rs
    ops = _scalars(t, backend)
    ev = ops.ev
    index = {w: k for k, w in enumerate(basis)}
    one = ops.one()
    qm = ops.qm
    q_inv = ops.q(-1)

    x_cols = [[{k: ev(w.act_inverse(g))} for k, w in enumerate(basis)]
              for g in rs.lattice_generators()]
    t_cols = []
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        neg_alpha = vec_neg(rs.simple_roots[i])
        cols = []
        for w in basis:
            den = one - ev(w.act_inverse(neg_alpha))
            if ops.is_zero(den):
                raise DivisionByZero(
                    f"T_{i + 1} divides by zero at the chamber "
                    f"{list(w.reduced_word())}, whose weight takes value 1 on "
                    f"X^(-alpha_{i + 1})")
            diag = qm / den
            col = {index[w]: diag}
            sw = s * w
            if sw in index:
                col[index[sw]] = q_inv + diag
            cols.append(col)
        t_cols.append(cols)

    rep = ModuleRep(rs, "calibrated", basis, t_cols, x_cols, ops, weight=t,
                    basis_weights=[t.weyl_act(w) for w in basis],
                    region=region)
    rep.report = verify_relations(rep)
    return rep
