"""Root system data and Weyl group combinatorics.

Realizations: type A lives in R^n with positive roots e_j - e_i (i < j) and
simple roots e_{i+1} - e_i; type C lives in R^n with simple roots
2e_1, e_2 - e_1, ..., e_n - e_{n-1}; types B, D, G2 use the usual Bourbaki
coordinates. All realizations carry the standard inner product, so Weyl
elements are orthogonal matrices and inverse = transpose.

A Weyl element is its exact ambient matrix, and two elements are equal iff
their matrices agree. Reduced words are derived lazily by descent stripping
and are lexicographically least.

Exact Gaussian elimination lives here once (_rref) and serves every caller:
solve_linear over Fractions, and the module code over exact or complex
scalars through an ops object.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial

from .errors import GroupTooLarge, UnsupportedType

DEFAULT_WEYL_CAP = 1152
WEYL_CAP_ENV = "AFFINE_HECKE_WEYL_CAP"

F0 = Fraction(0)
F1 = Fraction(1)
F2 = Fraction(2)


def weyl_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(WEYL_CAP_ENV)
    return int(env) if env else DEFAULT_WEYL_CAP


# ---------------------------------------------------------------------------
# small exact vector/matrix helpers (tuples of Fractions)
# ---------------------------------------------------------------------------

def vec(xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def vec_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), F0)


def mat_vec(m, x):
    return tuple(vec_dot(row, x) for row in m)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_transpose(m):
    return tuple(zip(*m))


def identity_matrix(n):
    return tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))


class _FractionOps:
    """Scalar ops for the elimination helpers below, over Fractions."""

    exact = True

    @staticmethod
    def zero():
        return F0

    @staticmethod
    def one():
        return F1

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0


def _rref(rows, ncols: int, ops, pivot_limit: int | None = None):
    """In-place reduced row echelon form; returns the pivot column list.

    pivot_limit restricts pivot search to the first columns, which is how the
    subspace solvers detect inconsistency (a pivot needed past the limit).
    Exact ops take the first nonzero pivot; numeric ops pivot on the largest
    entry and treat entries up to tol * max(1, largest entry) as zero.
    """
    limit = ncols if pivot_limit is None else pivot_limit
    if not ops.exact:
        scale = max((abs(x) for r in rows for x in r), default=0.0)
        zero_tol = ops.tol * max(1.0, scale)
    pivots = []
    r = 0
    for c in range(limit):
        if r >= len(rows):
            break
        if ops.exact:
            p = next((k for k in range(r, len(rows))
                      if not ops.is_zero(rows[k][c])), None)
        else:
            p = max(range(r, len(rows)), key=lambda k: abs(rows[k][c]))
            if abs(rows[p][c]) <= zero_tol:
                p = None
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                f = rows[k][c]
                if not ops.is_zero(f):
                    rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _rank_nullspace(rows, ops):
    """(rank, nullspace basis) of the linear map given by the stacked rows."""
    if not rows:
        return 0, ()
    ncols = len(rows[0])
    work = [list(r) for r in rows]
    pivots = _rref(work, ncols, ops)
    pivot_set = set(pivots)
    zero, one = ops.zero(), ops.one()
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row_idx, pc in enumerate(pivots):
            v[pc] = -work[row_idx][f]
        basis.append(tuple(v))
    return len(pivots), tuple(basis)


def _solve_in_span(basis_mat, target_mat, ops):
    """C with basis_mat . C = target_mat; ValueError if the target leaves the span.

    basis_mat is d x m, target_mat is d x k. Unknowns of dependent columns
    of basis_mat are set to zero.
    """
    d, m = len(basis_mat), len(basis_mat[0]) if basis_mat else 0
    k = len(target_mat[0]) if target_mat else 0
    work = [list(basis_mat[i]) + list(target_mat[i]) for i in range(d)]
    pivots = _rref(work, m + k, ops, pivot_limit=m)
    zero = ops.zero()
    # rows with no pivot must be zero across the target block
    for idx in range(len(pivots), d):
        if any(not ops.is_zero(work[idx][m + j]) for j in range(k)):
            raise ValueError("target is not in the span of the basis")
    sol = [[zero] * k for _ in range(m)]
    for row_idx, pc in enumerate(pivots):
        for j in range(k):
            sol[pc][j] = work[row_idx][m + j]
    return tuple(tuple(row) for row in sol)


def solve_linear(rows, rhs):
    """Solve A x = b exactly, free unknowns set to 0; None if inconsistent."""
    try:
        sol = _solve_in_span(rows, tuple((b,) for b in rhs), _FractionOps)
    except ValueError:
        return None
    return tuple(row[0] for row in sol)


# ---------------------------------------------------------------------------
# RootSystem
# ---------------------------------------------------------------------------

_KNOWN_ORDERS = {
    "A": lambda r: factorial(r + 1),
    "B": lambda r: 2 ** r * factorial(r),
    "C": lambda r: 2 ** r * factorial(r),
    "D": lambda r: 2 ** (r - 1) * factorial(r) if r >= 2 else 2,
    "G": lambda r: 12,
}

_POSITIVE_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
}


class RootSystem:
    """Crystallographic root data with exact rational coordinates."""

    def __init__(self, type_label: str, rank: int, lattice_mode: str = "P"):
        type_label = type_label.upper()
        if lattice_mode not in ("P", "GL"):
            raise UnsupportedType(f"unknown lattice mode {lattice_mode!r}")
        if lattice_mode == "GL" and type_label != "A":
            raise UnsupportedType("GL lattice mode is a type A feature")
        self.type_label = type_label
        self.rank = rank
        self.lattice_mode = lattice_mode
        self.simple_roots = self._simple_roots(type_label, rank)
        self.dim = len(self.simple_roots[0])
        self._generate_roots()
        self._compute_weights()
        self.key = (type_label, rank, lattice_mode)
        self._element_cache: dict = {}
        self._all_elements: tuple | None = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _simple_roots(t: str, r: int):
        if t == "A":
            if r < 1:
                raise UnsupportedType("type A needs rank >= 1")
            n = r + 1
            return tuple(
                vec([-1 if k == i else (1 if k == i + 1 else 0) for k in range(n)])
                for i in range(r))
        if t == "C":
            if r < 2:
                raise UnsupportedType("type C needs rank >= 2")
            first = vec([2 if k == 0 else 0 for k in range(r)])
            rest = tuple(
                vec([1 if k == i else (-1 if k == i - 1 else 0) for k in range(r)])
                for i in range(1, r))
            return (first,) + rest
        if t == "B":
            if r < 2:
                raise UnsupportedType("type B needs rank >= 2")
            diff = tuple(
                vec([1 if k == i else (-1 if k == i + 1 else 0) for k in range(r)])
                for i in range(r - 1))
            last = vec([1 if k == r - 1 else 0 for k in range(r)])
            return diff + (last,)
        if t == "D":
            if r < 2:
                raise UnsupportedType("type D needs rank >= 2")
            diff = tuple(
                vec([1 if k == i else (-1 if k == i + 1 else 0) for k in range(r)])
                for i in range(r - 1))
            last = vec([1 if k in (r - 2, r - 1) else 0 for k in range(r)])
            return diff + (last,)
        if t == "G":
            if r != 2:
                raise UnsupportedType("type G needs rank 2")
            return (vec([1, -1, 0]), vec([-2, 1, 1]))
        raise UnsupportedType(f"unsupported type {t!r}")

    def _generate_roots(self):
        # close the simple roots under simple reflections
        simples = self.simple_roots
        seen = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for beta in frontier:
                for alpha in simples:
                    img = reflect(alpha, beta)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        # positives: nonnegative coordinates in the simple-root basis
        basis_rows = mat_transpose(simples)  # dim x rank
        positives = []
        for root in seen:
            coeffs = solve_linear(basis_rows, root)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                positives.append((sum(coeffs), coeffs, root))
        positives.sort(key=lambda t: (t[0], t[1]))
        self.positive_roots = tuple(p[2] for p in positives)
        self._simple_coeffs = {p[2]: p[1] for p in positives}
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self._pos_set = frozenset(self.positive_roots)
        self._neg_set = frozenset(vec_neg(r) for r in self.positive_roots)
        expected = _POSITIVE_COUNTS[self.type_label](self.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError("positive root count mismatch")

    def _compute_weights(self):
        # solve <w_i, a_j^vee> = delta_ij inside the span of the simple roots
        simples = self.simple_roots
        r = self.rank
        cartan_t = [[vec_dot(simples[i], self.coroot(simples[j]))
                     for j in range(r)] for i in range(r)]
        self.cartan_matrix = tuple(
            tuple(vec_dot(self.coroot(simples[j]), simples[i]) for j in range(r))
            for i in range(r))
        omegas = []
        for i in range(r):
            rhs = [F1 if j == i else F0 for j in range(r)]
            coeffs = solve_linear(mat_transpose(cartan_t), rhs)
            omega = vec([0] * self.dim)
            for c, a in zip(coeffs, simples):
                omega = vec_add(omega, vec_scale(c, a))
            omegas.append(omega)
        if self.lattice_mode == "GL":
            # integral representatives in Z^n: w_i = e_{i+1} + ... + e_n
            n = self.dim
            omegas = [vec([1 if k > i else 0 for k in range(n)])
                      for i in range(r)]
        self.fundamental_weights = tuple(omegas)

    # -- root utilities -------------------------------------------------------

    def coroot(self, alpha):
        return vec_scale(F2 / vec_dot(alpha, alpha), alpha)

    def is_positive_root(self, x) -> bool:
        return x in self._pos_set

    def is_root(self, x) -> bool:
        return x in self._pos_set or x in self._neg_set

    def simple_coefficients(self, root):
        """Coordinates of a positive root in the simple-root basis."""
        return self._simple_coeffs[root]

    # -- lattice --------------------------------------------------------------

    def lattice_generators(self):
        """Generators of the lattice X used for the algebra's X^lambda."""
        if self.lattice_mode == "GL":
            n = self.dim
            return tuple(vec([1 if k == i else 0 for k in range(n)])
                         for i in range(n))
        return self.fundamental_weights

    def in_lattice(self, x) -> bool:
        if self.lattice_mode == "GL":
            return all(Fraction(c).denominator == 1 for c in x)
        coeffs = self.to_weight_basis(x)
        return coeffs is not None and all(c.denominator == 1 for c in coeffs)

    def to_weight_basis(self, x):
        """Coordinates in the fundamental-weight basis, or None if outside their span."""
        rows = mat_transpose(self.fundamental_weights)
        coeffs = solve_linear(rows, x)
        if coeffs is None:
            return None
        back = vec([0] * self.dim)
        for c, w in zip(coeffs, self.fundamental_weights):
            back = vec_add(back, vec_scale(c, w))
        return coeffs if back == tuple(Fraction(c) for c in x) else None

    def is_dominant(self, x) -> bool:
        return all(vec_dot(x, a) >= 0 for a in self.simple_roots)

    # -- Weyl elements ---------------------------------------------------------

    def identity(self) -> "WeylElt":
        return self._elt(identity_matrix(self.dim))

    def simple_reflection(self, i: int) -> "WeylElt":
        return self.reflection(self.simple_roots[i])

    def reflection(self, alpha) -> "WeylElt":
        alpha = vec(alpha)
        if not self.is_root(alpha):
            raise ValueError("reflection requires a root")
        co = self.coroot(alpha)
        mat = tuple(
            tuple((F1 if i == j else F0) - alpha[i] * co[j]
                  for j in range(self.dim))
            for i in range(self.dim))
        return self._elt(mat)

    def _elt(self, matrix) -> "WeylElt":
        w = self._element_cache.get(matrix)
        if w is None:
            w = WeylElt(self, matrix)
            self._element_cache[matrix] = w
        return w

    def element_from_word(self, word) -> "WeylElt":
        w = self.identity()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def weyl_order(self) -> int:
        return _KNOWN_ORDERS[self.type_label](self.rank)

    def weyl_elements(self, cap: int | None = None) -> tuple["WeylElt", ...]:
        """Every Weyl element exactly once, sorted by (length, reduced word)."""
        if self._all_elements is not None:
            return self._all_elements
        limit = weyl_cap(cap)
        if self.weyl_order() > limit:
            raise GroupTooLarge(
                f"|W| = {self.weyl_order()} exceeds cap {limit}")
        gens = [self.simple_reflection(i) for i in range(self.rank)]
        seen = {self.identity().matrix: self.identity()}
        frontier = [self.identity()]
        while frontier:
            nxt = []
            for w in frontier:
                for s in gens:
                    ws = w * s
                    if ws.matrix not in seen:
                        seen[ws.matrix] = ws
                        nxt.append(ws)
            frontier = nxt
        elements = sorted(seen.values(), key=lambda w: w.sort_key())
        if len(elements) != self.weyl_order():
            raise AssertionError("Weyl enumeration count mismatch")
        self._all_elements = tuple(elements)
        return self._all_elements

    def long_element(self) -> "WeylElt":
        w = self.identity()
        while True:
            i = next((i for i in range(self.rank)
                      if self.is_positive_root(w.act(self.simple_roots[i]))), None)
            if i is None:
                return w
            w = w * self.simple_reflection(i)

    def subgroup(self, generators, cap: int | None = None) -> tuple["WeylElt", ...]:
        """Enumerate the subgroup generated by the given elements."""
        limit = weyl_cap(cap)
        seen = {self.identity().matrix: self.identity()}
        frontier = [self.identity()]
        gens = list(generators)
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    wg = w * g
                    if wg.matrix not in seen:
                        if len(seen) >= limit:
                            raise GroupTooLarge(f"subgroup exceeds cap {limit}")
                        seen[wg.matrix] = wg
                        nxt.append(wg)
            frontier = nxt
        return tuple(sorted(seen.values(), key=lambda w: w.sort_key()))

    # -- closure on positive root subsets --------------------------------------

    def closure(self, roots):
        """(closure of K, K closed?, complement of K closed?) for K inside R+."""
        K = set(roots)
        for root in K:
            if root not in self._pos_set:
                raise ValueError("closure operates on positive roots")
        closed = set(K)
        changed = True
        while changed:
            changed = False
            items = list(closed)
            for i, a in enumerate(items):
                for b in items[i:]:
                    s = vec_add(a, b)
                    if s in self._pos_set and s not in closed:
                        closed.add(s)
                        changed = True
        is_closed = closed == K
        comp = self._pos_set - K
        comp_closed = True
        items = list(comp)
        for i, a in enumerate(items):
            if not comp_closed:
                break
            for b in items[i:]:
                s = vec_add(a, b)
                if s in self._pos_set and s not in comp:
                    comp_closed = False
                    break
        return frozenset(closed), is_closed, comp_closed

    # -- export -----------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "type": self.type_label,
            "rank": self.rank,
            "lattice_mode": self.lattice_mode,
            "ambient_dim": self.dim,
            "simple_roots": [[str(c) for c in a] for a in self.simple_roots],
            "cartan_matrix": [[str(c) for c in row] for row in self.cartan_matrix],
            "positive_roots": [[str(c) for c in a] for a in self.positive_roots],
            "fundamental_weights": [[str(c) for c in w]
                                    for w in self.fundamental_weights],
            "weyl_order": self.weyl_order(),
        }

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank}, {self.lattice_mode})"


def reflect(alpha, x):
    """Reflection of x in the hyperplane normal to the root alpha."""
    c = F2 * vec_dot(x, alpha) / vec_dot(alpha, alpha)
    return vec_sub(x, vec_scale(c, alpha))


def build(type_label: str, rank: int, lattice_mode: str = "P") -> RootSystem:
    return RootSystem(type_label, rank, lattice_mode)


# ---------------------------------------------------------------------------
# WeylElt
# ---------------------------------------------------------------------------

class WeylElt:
    """A Weyl group element, stored as its exact ambient matrix.

    Two elements are equal iff their matrices are equal. Each root system
    keeps one instance per matrix.
    """

    __slots__ = ("rs", "matrix", "_len", "_inv", "_word", "_inverse")

    def __init__(self, rs: RootSystem, matrix):
        self.rs = rs
        self.matrix = matrix
        self._len = None
        self._inv = None
        self._word = None
        self._inverse = None

    # -- basic group structure ----------------------------------------------

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.rs._elt(mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "WeylElt":
        if self._inverse is None:
            self._inverse = self.rs._elt(mat_transpose(self.matrix))
        return self._inverse

    def act(self, x):
        return mat_vec(self.matrix, vec(x))

    def act_inverse(self, x):
        return mat_vec(mat_transpose(self.matrix), vec(x))

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(self.rs.dim)

    # -- length, inversions, words --------------------------------------------

    def inversion_set(self) -> frozenset:
        """R(w) = positive roots sent negative by w."""
        if self._inv is None:
            self._inv = frozenset(
                a for a in self.rs.positive_roots
                if not self.rs.is_positive_root(self.act(a)))
        return self._inv

    def length(self) -> int:
        if self._len is None:
            self._len = len(self.inversion_set())
        return self._len

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word, via left descent stripping."""
        if self._word is None:
            word = []
            w = self
            while True:
                i = next((i for i in range(self.rs.rank)
                          if not self.rs.is_positive_root(
                              w.act_inverse(self.rs.simple_roots[i]))), None)
                if i is None:
                    break
                word.append(i)
                w = self.rs.simple_reflection(i) * w
            self._word = tuple(word)
        return self._word

    def descent_set(self) -> frozenset:
        """Simple roots a_i with w s_i < w (right descents)."""
        return frozenset(
            a for a in self.rs.simple_roots
            if not self.rs.is_positive_root(self.act(a)))

    def weak_leq(self, other: "WeylElt") -> bool:
        return self.inversion_set() <= other.inversion_set()

    def sort_key(self):
        return (self.length(), self.reduced_word())

    # -- display ---------------------------------------------------------------

    def one_line(self) -> tuple[int, ...] | None:
        """Signed one-line notation for types A, B, C, D; None otherwise.

        Entry k is j if w e_k = e_j, and -j if w e_k = -e_j (1-indexed).
        """
        if self.rs.type_label == "G":
            return None
        n = self.rs.dim
        out = []
        for k in range(n):
            col = [self.matrix[j][k] for j in range(n)]
            j = next((j for j, c in enumerate(col) if c != 0), None)
            if j is None or abs(col[j]) != 1:
                return None
            if sum(1 for c in col if c != 0) != 1:
                return None
            out.append(j + 1 if col[j] > 0 else -(j + 1))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, WeylElt) and self.rs.key == other.rs.key
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        word = self.reduced_word()
        if not word:
            return "WeylElt(e)"
        return "WeylElt(" + "*".join(f"s{i + 1}" for i in word) + ")"


def element_from_one_line(rs: RootSystem, images) -> WeylElt:
    """Weyl element from signed one-line notation (types A, B, C, D).

    images[k] = j means w e_{k+1} = e_j, with negative j for w e_{k+1} = -e_{|j|}.
    """
    if rs.type_label == "G":
        raise UnsupportedType("one-line notation needs a classical type")
    n = rs.dim
    images = tuple(images)
    if sorted(abs(j) for j in images) != list(range(1, n + 1)):
        raise ValueError("not a signed permutation")
    signs = sum(1 for j in images if j < 0)
    if rs.type_label == "A" and signs:
        raise ValueError("type A elements are unsigned permutations")
    if rs.type_label == "D" and signs % 2:
        raise ValueError("type D elements flip an even number of signs")
    mat = [[F0] * n for _ in range(n)]
    for k, j in enumerate(images):
        mat[abs(j) - 1][k] = F1 if j > 0 else -F1
    return rs._elt(tuple(tuple(row) for row in mat))
