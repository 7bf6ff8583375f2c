"""Root system data and Weyl group combinatorics.

Realizations: type A lives in R^n with positive roots e_j - e_i (i < j) and
simple roots e_{i+1} - e_i; type C lives in R^n with simple roots
2e_1, e_2 - e_1, ..., e_n - e_{n-1}; types B, D, G2 use the usual Bourbaki
coordinates. All realizations carry the standard inner product.

The 2N roots are indexed: the positive roots at 0..N-1 in (height, simple
coefficients) order, then their negatives at N..2N-1 in the same order. A
Weyl element is the permutation it induces on these indices, as in CHEVIE
(Geck, Hiss, Luebeck, Malle, Pfeiffer, AAECC 7, 1996). Products compose
index tuples, and inversion sets, descents and the lexicographically least
reduced word are read off the permutation (Bjoerner and Brenti,
Combinatorics of Coxeter Groups, GTM 231). Roots are built and moved in
Python ints, as every root coordinate and Cartan integer here is one
(Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates I-IX), and only
public values are Fractions: acting on a root is a lookup, on any other
vector an integer matrix product, the matrix built once per element.

W and each lower ideal {w : R(w) cap B empty} of its left weak order come
from one walk (RootSystem._lower_ideal), one length layer at a time and
already in (length, reduced word) order.

Exact Gaussian elimination lives here once (_rref): the fundamental weights
over Fractions, and the module ranks over exact scalars through an ops
object. Lattice coordinates need none: on the P lattice they are the coroot
pairings <x, a_i^vee> (Bourbaki, ch. VI, 1.10). Elimination is exact only:
numeric modules rank by singular values (repn._numeric_nullity), and every
module inverts its upper triangular X by back-substitution
(repn._coordinates).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .errors import BadCap, GroupTooLarge, UnsupportedType

DEFAULT_WEYL_CAP = 1152
WEYL_CAP_ENV = "AFFINE_HECKE_WEYL_CAP"

F0 = Fraction(0)
F1 = Fraction(1)
F2 = Fraction(2)


def _parse_cap(name: str, raw: str | None, default: int) -> int:
    """The cap set by the value raw of environment variable name: default
    when unset or blank, BadCap unless a positive integer."""
    if raw is None or not raw.strip():
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadCap(f"{name} must be a positive integer, got {raw!r}")
    return cap


def weyl_cap() -> int:
    """The Weyl enumeration cap: AFFINE_HECKE_WEYL_CAP, else DEFAULT_WEYL_CAP."""
    return _parse_cap(WEYL_CAP_ENV, os.environ.get(WEYL_CAP_ENV),
                      DEFAULT_WEYL_CAP)


# ---------------------------------------------------------------------------
# small exact vector helpers on public values (tuples of Fractions); roots
# and Weyl matrices are integers inside (_root_coords, WeylElt._imat)
# ---------------------------------------------------------------------------

def vec(xs) -> tuple[Fraction, ...]:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in xs)


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


def _over_common_denominator(x) -> tuple[int, list[int]]:
    """(den, nums) with x = nums / den in integers, for a vector of
    Fractions."""
    den = lcm(*(c.denominator for c in x))
    return den, [c.numerator * (den // c.denominator) for c in x]


def mat_transpose(m):
    return tuple(zip(*m))


def identity_matrix(n):
    return tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))


class _FractionOps:
    """Scalar ops for _rref below, over Fractions."""

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0


def _rref(rows, ncols: int, ops):
    """In-place reduced row echelon form over exact scalars, pivoting on the
    first nonzero entry; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        p = next((k for k in range(r, len(rows))
                  if not ops.is_zero(rows[k][c])), None)
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
        simple_perms = self._generate_roots()
        self._compute_weights()
        self.key = (type_label, rank, lattice_mode)
        self._element_cache: dict = {}
        self._coords_cache: dict = {}
        self._rank_two: dict = {}  # regions.rank_two_positive, per (i, j)
        self._singletons: tuple | None = None  # see _positive_singletons
        self._lattice = (tuple(vec([int(k == i) for k in range(self.dim)])
                               for i in range(self.dim))
                         if lattice_mode == "GL" else self.fundamental_weights)
        # (den, nums) of each lattice generator, for Weight._signature
        self._lattice_ints = tuple(map(_over_common_denominator,
                                       self._lattice))
        self._all_elements: tuple | None = None
        self._identity = self._elt(tuple(range(len(self.roots))))
        self._simple_reflections = tuple(self._elt(p) for p in simple_perms)
        # keyed by positive root index, like reflection() below
        self._reflections = dict(zip(self._simple_index,
                                     self._simple_reflections))
        self._one_line_roots = self._unit_vector_roots()

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
        if t in ("B", "D"):
            if r < 2:
                raise UnsupportedType(f"type {t} needs rank >= 2")
            diff = tuple(
                vec([1 if k == i else (-1 if k == i + 1 else 0) for k in range(r)])
                for i in range(r - 1))
            ends = (r - 1,) if t == "B" else (r - 2, r - 1)
            return diff + (vec([1 if k in ends else 0 for k in range(r)]),)
        if t == "G":
            if r != 2:
                raise UnsupportedType("type G needs rank 2")
            return (vec([1, -1, 0]), vec([-2, 1, 1]))
        raise UnsupportedType(f"unsupported type {t!r}")

    def _generate_roots(self):
        """Index the roots; return the root permutation of each s_i."""
        # close the simple roots under simple reflections in integers,
        # carrying each root's coordinates in the simple-root basis:
        # s_i(beta) = beta - c a_i, c = 2 (beta, a_i) / (a_i, a_i)
        if any(c.denominator != 1 for a in self.simple_roots for c in a):
            raise UnsupportedType("simple root coordinates must be integers")
        simples = [tuple(c.numerator for c in a) for a in self.simple_roots]
        norms = [sum(map(mul, a, a)) for a in simples]
        r = len(simples)
        coeffs = {a: tuple(int(k == i) for k in range(r))
                  for i, a in enumerate(simples)}
        images = [{} for _ in simples]  # images[i][beta] = s_i(beta)
        frontier = simples
        while frontier:
            nxt = []
            for beta in frontier:
                b = coeffs[beta]
                for i, (alpha, norm) in enumerate(zip(simples, norms)):
                    c = 2 * sum(map(mul, beta, alpha)) // norm
                    img = tuple(x - c * y for x, y in zip(beta, alpha))
                    images[i][beta] = img
                    if img not in coeffs:
                        coeffs[img] = b[:i] + (b[i] - c,) + b[i + 1:]
                        nxt.append(img)
            frontier = nxt
        # positives: nonnegative coordinates in the simple-root basis; all
        # 2N roots: positives at 0..N-1, their negatives at N..2N-1
        _, pos_coeffs, pos = zip(*sorted(
            (sum(cs), cs, root) for root, cs in coeffs.items()
            if all(c >= 0 for c in cs)))
        self._root_coords = pos + tuple(tuple(-x for x in a) for a in pos)
        # the public roots share one Fraction per distinct coordinate
        frac = {x: Fraction(x) for x in set().union(*self._root_coords)}
        self.roots = tuple(tuple(map(frac.__getitem__, a))
                           for a in self._root_coords)
        self.positive_roots = self.roots[:len(pos)]
        self._simple_coeffs = dict(zip(self.positive_roots, pos_coeffs))
        self.root_index = {a: k for k, a in enumerate(self.roots)}
        index = {a: k for k, a in enumerate(self._root_coords)}
        self._simple_index = tuple(map(index.__getitem__, simples))
        self._pos_set = frozenset(self.positive_roots)
        expected = _POSITIVE_COUNTS[self.type_label](self.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError("positive root count mismatch")
        return tuple(tuple(index[img[b]] for b in self._root_coords)
                     for img in images)

    def _compute_weights(self):
        # Cartan integers <a_i, a_j^vee> = 2 (a_i, a_j) / (a_j, a_j) from
        # integer dot products, then <w_i, a_j^vee> = delta_ij solved inside
        # the span of the simple roots, all r weights at once
        simples = [self._root_coords[k] for k in self._simple_index]
        r = self.rank
        gram = [[sum(map(mul, a, b)) for b in simples] for a in simples]
        self.cartan_matrix = tuple(
            tuple(Fraction(2 * gram[i][j] // gram[j][j]) for j in range(r))
            for i in range(r))
        # one elimination of [C^T | I] leaves [I | (C^T)^-1], whose column
        # i holds the simple-root coordinates of w_i
        work = [list(row) + [F1 if j == i else F0 for j in range(r)]
                for i, row in enumerate(mat_transpose(self.cartan_matrix))]
        _rref(work, 2 * r, _FractionOps)
        omegas = [tuple(sum(row[r + i] * c for row, c in zip(work, col))
                        for col in zip(*simples)) for i in range(r)]
        # d_i in the root span with <d_i, a_j> = delta_ij, for WeylElt's
        # matrix, kept as (den, integer numerators of each d_i)
        dual = [vec_scale(Fraction(2, gram[i][i]), omega)
                for i, omega in enumerate(omegas)]
        den = lcm(*(c.denominator for d in dual for c in d))
        self._dual_basis = (den, tuple(tuple(int(c * den) for c in d)
                                       for d in dual))
        if self.lattice_mode == "GL":
            # integral representatives in Z^n: w_i = e_{i+1} + ... + e_n
            omegas = [vec([int(k > i) for k in range(self.dim)])
                      for i in range(r)]
        self.fundamental_weights = tuple(omegas)

    def _unit_vector_roots(self):
        """Per k, root indices whose images under w pin down w(e_k).

        Type A: (e_k - e_m, None); the +1 entry of w(e_k - e_m) is at
        sigma(k). Types B, C, D: (e_k - e_m, e_k + e_m), whose half-sum is
        e_k. None for G2, which has no one-line notation.
        """
        if self.type_label == "G":
            return None
        n = self.dim
        out = []
        for k in range(n):
            m = 1 if k == 0 else 0
            minus = self.root_index[vec([1 if i == k else (-1 if i == m else 0)
                                         for i in range(n)])]
            plus = None if self.type_label == "A" else self.root_index[
                vec([1 if i in (k, m) else 0 for i in range(n)])]
            out.append((minus, plus))
        return tuple(out)

    # -- root utilities -------------------------------------------------------

    def coroot(self, alpha):
        return vec_scale(F2 / vec_dot(alpha, alpha), alpha)

    def _positive_singletons(self) -> tuple[frozenset, ...]:
        """frozenset((a,)) for each positive root a, in index order, built
        once. Unions of them reuse the stored hashes, so inversion sets and
        Z, P are assembled without hashing a Fraction."""
        if self._singletons is None:
            self._singletons = tuple(frozenset((a,))
                                     for a in self.positive_roots)
        return self._singletons

    def is_positive_root(self, x) -> bool:
        return x in self._pos_set

    def is_root(self, x) -> bool:
        return x in self.root_index

    def simple_coefficients(self, root):
        """Coordinates of a positive root in the simple-root basis."""
        return tuple(map(Fraction, self._simple_coeffs[root]))

    # -- lattice --------------------------------------------------------------

    def lattice_generators(self):
        """Generators of the lattice X used for the algebra's X^lambda."""
        return self._lattice

    def lattice_coords(self, x):
        """Integer coordinates of x over lattice_generators(), or None off
        the lattice: x itself on GL, else the coroot pairings
        <x, a_i^vee>, which sum back to x over the fundamental weights
        exactly when x lies in the root span; read once per vector."""
        key = tuple(x)
        if len(key) != self.dim:
            return None
        if self.lattice_mode == "P" and key not in self._coords_cache:
            x = vec(key)
            pairings = tuple(vec_dot(x, self.coroot(a))
                             for a in self.simple_roots)
            back = tuple(sum(map(mul, pairings, col))
                         for col in zip(*self.fundamental_weights))
            self._coords_cache[key] = pairings if back == x else None
        coeffs = key if self.lattice_mode == "GL" else self._coords_cache[key]
        coords = None if coeffs is None else tuple(map(int, coeffs))
        return coords if coords == coeffs else None

    def in_lattice(self, x) -> bool:
        return self.lattice_coords(x) is not None

    def is_dominant(self, x) -> bool:
        return all(vec_dot(x, a) >= 0 for a in self.simple_roots)

    # -- Weyl elements ---------------------------------------------------------

    def identity(self) -> "WeylElt":
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElt":
        return self._simple_reflections[i]

    def reflection(self, alpha) -> "WeylElt":
        k = self.root_index.get(vec(alpha))
        if k is None:
            raise ValueError("reflection requires a root")
        k %= len(self.positive_roots)
        w = self._reflections.get(k)
        if w is None:
            alpha = self.roots[k]
            w = self._elt(tuple(self.root_index[reflect(alpha, b)]
                                for b in self.roots))
            self._reflections[k] = w
        return w

    def _elt(self, perm) -> "WeylElt":
        w = self._element_cache.get(perm)
        if w is None:
            w = WeylElt(self, perm)
            self._element_cache[perm] = w
        return w

    def element_from_word(self, word) -> "WeylElt":
        w = self.identity()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def weyl_order(self) -> int:
        return _KNOWN_ORDERS[self.type_label](self.rank)

    def weyl_elements(self) -> tuple["WeylElt", ...]:
        """Every Weyl element exactly once, sorted by (length, reduced word):
        the lower ideal with nothing banned. Raises GroupTooLarge when |W|
        exceeds weyl_cap(), which the AFFINE_HECKE_WEYL_CAP environment
        variable sets."""
        limit = weyl_cap()
        if self.weyl_order() > limit:
            raise GroupTooLarge(
                f"|W| = {self.weyl_order()} exceeds cap {limit}")
        if self._all_elements is None:
            elements = self._lower_ideal(())
            if len(elements) != self.weyl_order():
                raise AssertionError("Weyl enumeration count mismatch")
            self._all_elements = elements
        return self._all_elements

    def _lower_ideal(self, banned) -> tuple["WeylElt", ...]:
        """{w : R(w) cap banned empty} for positive roots banned, a lower
        ideal of the left weak order, sorted by (length, reduced word).

        It is walked up one length layer at a time, so nothing is sorted
        afterwards. For each i in turn, and each v of layer l in order, s_i v
        lies in layer l + 1 exactly when v^-1(a_i) = root j is positive, and
        then R(s_i v) = R(v) + {root j}; the step is skipped when root j is
        banned. Each w of the ideal is first reached through its least left
        descent i, the first letter of its lexicographically least reduced
        word, as R(s_i w) lies inside R(w) and so s_i w in the previous layer
        of the same ideal; each layer thus comes out in (length, reduced
        word) order (Bjoerner and Brenti, GTM 231, ch. 3; Casselman,
        Electron. J. Combin. 9, 2002). Each element gets its length, reduced
        word and inversion set as it is found.
        """
        n = len(self.positive_roots)
        single = self._positive_singletons()
        banned = {self.root_index[a] for a in banned}
        gens = [(i, k, s.perm) for i, (k, s) in enumerate(
            zip(self._simple_index, self._simple_reflections))]
        e = self._identity
        e._len, e._word, e._inv = 0, (), frozenset()
        elements = [e]
        layer = [e]
        while layer:
            found = {}  # keyed by inversion set, which determines w
            for i, k, s in gens:
                for v in layer:
                    j = v.perm.index(k)
                    if j >= n or j in banned:
                        continue
                    inv = v._inv | single[j]
                    if inv not in found:
                        w = found[inv] = self._elt(
                            tuple(map(s.__getitem__, v.perm)))
                        w._len = v._len + 1
                        w._word = (i,) + v._word
                        w._inv = inv
            layer = list(found.values())
            elements += layer
        return tuple(elements)

    def long_element(self) -> "WeylElt":
        w = self.identity()
        while True:
            i = next((i for i in range(self.rank)
                      if self.is_positive_root(w.act(self.simple_roots[i]))), None)
            if i is None:
                return w
            w = w * self.simple_reflection(i)

    def subgroup(self, generators) -> tuple["WeylElt", ...]:
        """Enumerate the subgroup generated by the given elements, closed
        breadth first and sorted by (length, reduced word). Raises
        GroupTooLarge past weyl_cap() elements, which the
        AFFINE_HECKE_WEYL_CAP environment variable sets. It serves arbitrary
        generators, such as the reflections of Weight.stabilizer; W and its
        lower ideals come from _lower_ideal, which walks them in order with
        no sort."""
        limit = weyl_cap()
        seen = {self.identity()}
        frontier = [self.identity()]
        gens = list(generators)
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    wg = w * g
                    if wg not in seen:
                        if len(seen) >= limit:
                            raise GroupTooLarge(f"subgroup exceeds cap {limit}")
                        seen.add(wg)
                        nxt.append(wg)
            frontier = nxt
        return tuple(sorted(seen, key=lambda w: w.sort_key()))

    # -- closure on positive root subsets --------------------------------------

    def closure(self, roots):
        """(closure of K, K closed?, complement of K closed?) for K inside R+."""
        K = set(roots)
        for root in K:
            if root not in self._pos_set:
                raise ValueError("closure operates on positive roots")
        closed = sub_closure(K, self._pos_set)
        comp = self._pos_set - K
        return closed, closed == K, sub_closure(comp, self._pos_set) == comp

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


def sub_closure(roots, universe: frozenset) -> frozenset:
    """Closure of a root set under addition, restricted to the universe."""
    closed = set(roots)
    changed = True
    while changed:
        changed = False
        items = list(closed)
        for i, a in enumerate(items):
            for b in items[i:]:
                s = vec_add(a, b)
                if s in universe and s not in closed:
                    closed.add(s)
                    changed = True
    return frozenset(closed)


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
    """A Weyl group element, stored as the permutation it induces on the roots.

    perm[k] is the index in rs.roots of w(rs.roots[k]), so w sends the
    positive root k to a negative root exactly when perm[k] >= N. Each root
    system keeps one instance per permutation. Equality also compares the
    root system, since B_n and C_n index their roots alike. The ambient
    matrix is cached in integers, as den and the rows of den * matrix, on
    first use by `act` on a vector that is not a root; `matrix` is a
    Fraction view of it.
    """

    __slots__ = ("rs", "perm", "_hash", "_imat", "_len", "_inv", "_word",
                 "_inverse")

    def __init__(self, rs: RootSystem, perm):
        self.rs = rs
        self.perm = perm
        self._hash = hash(perm)
        self._imat = None
        self._len = None
        self._inv = None
        self._word = None
        self._inverse = None

    # -- basic group structure ----------------------------------------------

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.rs._elt(tuple(map(self.perm.__getitem__, other.perm)))

    def inverse(self) -> "WeylElt":
        if self._inverse is None:
            inv = [0] * len(self.perm)
            for k, j in enumerate(self.perm):
                inv[j] = k
            self._inverse = self.rs._elt(tuple(inv))
            self._inverse._inverse = self
        return self._inverse

    @property
    def matrix(self):
        """Exact ambient matrix of w, in Fractions: column k is w(e_k)."""
        n = self.rs.dim
        return tuple(zip(*(self.act(tuple(int(i == k) for i in range(n)))
                           for k in range(n))))

    def act(self, x):
        x = vec(x)
        rs = self.rs
        k = rs.root_index.get(x)
        if k is not None:
            return rs.roots[self.perm[k]]
        if self._imat is None:
            # w(x) = x + sum_i <x, d_i> (w(a_i) - a_i), d_i dual to the simple
            # roots a_i in their span (w fixes its complement); den * matrix
            den, dual = rs._dual_basis
            coords = rs._root_coords
            rows = [[den * (i == j) for j in range(rs.dim)]
                    for i in range(rs.dim)]
            for k, d in zip(rs._simple_index, dual):
                for p, (a, b) in enumerate(zip(coords[self.perm[k]],
                                               coords[k])):
                    if a != b:
                        rows[p] = [u + (a - b) * v for u, v in zip(rows[p], d)]
            self._imat = (den, rows)
        # x = nums / xden in integers, then one Fraction per coordinate
        den, rows = self._imat
        xden, nums = _over_common_denominator(x)
        return tuple(Fraction(sum(map(mul, row, nums)), den * xden)
                     for row in rows)

    def act_inverse(self, x):
        return self.inverse().act(x)

    def is_identity(self) -> bool:
        return self.perm == self.rs.identity().perm

    # -- length, inversions, words --------------------------------------------

    def inversions(self) -> tuple[int, ...]:
        """Indices k < N of R(w), increasing: the positive roots k with
        perm[k] >= N."""
        n = len(self.rs.positive_roots)
        return tuple(k for k in range(n) if self.perm[k] >= n)

    def inversion_set(self) -> frozenset:
        """R(w) = positive roots sent negative by w, a union of the root
        system's _positive_singletons: seeded by weyl_elements as it walks
        W, else the union over inversions()."""
        if self._inv is None:
            single = self.rs._positive_singletons()
            self._inv = frozenset().union(*map(single.__getitem__,
                                               self.inversions()))
        return self._inv

    def length(self) -> int:
        if self._len is None:
            n = len(self.rs.positive_roots)
            self._len = sum(1 for j in self.perm[:n] if j >= n)
        return self._len

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word, via left descent stripping.

        Its first letter is the least left descent i, that is the least i
        with w^-1(a_i) < 0, and the rest is the word of s_i w, which is
        cached on that element in turn.
        """
        if self._word is None:
            rs = self.rs
            n = len(rs.positive_roots)
            chain = []
            w = self
            while w._word is None:
                i = next((i for i, k in enumerate(rs._simple_index)
                          if w.perm.index(k) >= n), None)
                if i is None:
                    w._word = ()
                    break
                chain.append((w, i))
                w = rs.simple_reflection(i) * w
            word = w._word
            for v, i in reversed(chain):
                word = (i,) + word
                v._word = word
        return self._word

    def descent_set(self) -> frozenset:
        """Simple roots a_i with w s_i < w (right descents)."""
        n = len(self.rs.positive_roots)
        return frozenset(
            a for a, k in zip(self.rs.simple_roots, self.rs._simple_index)
            if self.perm[k] >= n)

    def weak_leq(self, other: "WeylElt") -> bool:
        return self.inversion_set() <= other.inversion_set()

    def sort_key(self):
        return (self.length(), self.reduced_word())

    # -- display ---------------------------------------------------------------

    def one_line(self) -> tuple[int, ...] | None:
        """Signed one-line notation for types A, B, C, D; None otherwise.

        Entry k is j if w e_k = e_j, and -j if w e_k = -e_j (1-indexed).
        """
        pairs = self.rs._one_line_roots
        if pairs is None:
            return None
        coords = self.rs._root_coords
        out = []
        for minus, plus in pairs:
            img = coords[self.perm[minus]]
            if plus is None:
                out.append(img.index(1) + 1)
                continue
            # 2 w(e_k) = w(e_k - e_m) + w(e_k + e_m) = +-2 e_j
            img = [a + b for a, b in zip(img, coords[self.perm[plus]])]
            j = next(j for j, c in enumerate(img) if c)
            out.append(j + 1 if img[j] > 0 else -(j + 1))
        return tuple(out)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeylElt) and self.rs.key == other.rs.key
            and self.perm == other.perm)

    def __hash__(self):
        return self._hash

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

    def image(root):
        # w(sum_k c_k e_k) = sum_k c_k sign(j_k) e_|j_k|
        out = [F0] * n
        for c, j in zip(root, images):
            out[abs(j) - 1] = c if j > 0 else -c
        return tuple(out)

    return rs._elt(tuple(rs.root_index[image(r)] for r in rs.roots))
