"""Placed configurations of boxes and their standard fillings.

A local region (t, J) in type A is drawn as a configuration of boxes on
pages indexed by the coset of the entries of t: boxes sit on diagonals
(one diagonal per content value), J decides for each pair of boxes on
adjacent diagonals whether the later box sits northwest or southeast of
the earlier one, and the standard fillings of the configuration are in
bijection with the chamber set F^(t,J).  Here "northwest" means strictly
north and weakly west; "southeast" means weakly south and strictly east.

Only the adjacency relation is intrinsic; boxes may slide along their
diagonals.  The renderer below picks one canonical picture: each box is
pushed as far west as its southeast constraints allow and then slid east
until it hits the nearest of its northwest partners, so connected strips
come out as actual skew shapes whenever the region is skew.  Everything
downstream (fillings, words, bijections) depends only on the relation,
never on the picture.

Root-of-unity regions use the same pictures with contents read modulo
ell, and type C regions use books of pages that are stable under rotation
by 180 degrees (with box -b the rotation of box b and content negated).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import regions
from .errors import (
    BadEll,
    CaseMismatch,
    EmptyRegion,
    HeckeError,
    JCrossesPages,
    JNotSubsetOfP,
    NotContained,
    NotDominant,
    NotSkew,
    NotStandard,
    TooLarge,
    UnsupportedType,
)
from .rootsys import _parse_cap, build, element_from_one_line
from .weights import Weight, weight

ENUM_CAP_ENV = "AFFINE_HECKE_ENUM_CAP"
FINITE_ENUM_CAP = 12
TYPEC_ENUM_CAP = 8

# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """One box: planar coordinates have x growing east and y growing north."""

    index: int
    content: Fraction
    page: Fraction
    x: int
    y: int


@dataclass(frozen=True)
class BoxPair:
    """A pair of boxes whose root eps_j - eps_i is in Z(t) or P(t).

    For P pairs the flag records the planar relation of box j relative to
    box i ("NW" or "SE").  Pairs crossing the period boundary of a
    root-of-unity region carry wrap=True; their flag follows the placement
    table but is recorded as data only, the renderer realises just the
    pairs inside one period window.
    """

    i: int
    j: int
    root: tuple
    kind: str            # "Z" | "P"
    in_J: bool
    flag: str | None     # "NW" | "SE" for P pairs
    wrap: bool = False


@dataclass(frozen=True)
class StandardFilling:
    """Entries of a standard filling, aligned with the boxes of its
    configuration (entries[k] fills configuration.boxes[k])."""

    indices: tuple
    entries: tuple

    def as_dict(self) -> dict:
        return dict(zip(self.indices, self.entries))


@dataclass
class PlacedConfiguration:
    """A placed configuration of boxes for a local region.

    mode is "finite", "periodic" or "typec"; case is None except in type C
    ("beta", "half" or "zero").  Boxes are listed in index order (signed
    order -n..-1,1..n in type C), pairs in lexicographic order.  z_chains
    lists the boxes of each diagonal from northwest to southeast, which by
    construction is increasing index order.
    """

    mode: str
    case: str | None
    ell: int | None
    t: Weight
    J: frozenset
    boxes: tuple
    pairs: tuple
    z_chains: tuple
    period: tuple | None
    n: int

    def pages(self) -> tuple:
        out = []
        for b in self.boxes:
            if b.page not in out:
                out.append(b.page)
        return tuple(out)

    def cells(self, page=None) -> dict:
        """(x, y) -> box index for one page (or the only page)."""
        labels = self.pages()
        if page is None:
            if len(labels) > 1:
                raise HeckeError("configuration has several pages; pick one")
            page = labels[0]
        return {(b.x, b.y): b.index for b in self.boxes if b.page == page}

    @property
    def region(self) -> regions.LocalRegion:
        return regions.local_region(self.t, self.J)


@dataclass(frozen=True)
class BijectionReport:
    ok: bool
    filling_count: int
    chamber_count: int
    witness: str | None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _basis_vec(dim: int, j: int, i: int) -> tuple:
    """eps_j - eps_i with signed 1-based indices (eps_-k = -eps_k)."""
    v = [Fraction(0)] * dim
    v[abs(j) - 1] += 1 if j > 0 else -1
    v[abs(i) - 1] -= 1 if i > 0 else -1
    return tuple(v)


def _coerce_weight(t, type_label: str = "A"):
    if isinstance(t, Weight):
        return t
    gamma = tuple(Fraction(c) for c in t)
    if type_label == "A":
        rs = build("A", len(gamma) - 1, lattice_mode="GL")
    else:
        rs = build(type_label, len(gamma))
    return weight(rs, gamma)


def _coerce_J(J) -> frozenset:
    return frozenset(tuple(Fraction(c) for c in a) for a in J)


def _enum_cap(mode: str) -> int:
    return _parse_cap(
        ENUM_CAP_ENV, os.environ.get(ENUM_CAP_ENV),
        TYPEC_ENUM_CAP if mode == "typec" else FINITE_ENUM_CAP)


# ---------------------------------------------------------------------------
# canonical placement
# ---------------------------------------------------------------------------


def _least_positions(nodes, lower_edges, start=None) -> dict:
    """Least solution x >= start of x[v] >= x[u] + w over the given edges
    (start defaults to zero everywhere)."""
    x = {b: 0 for b in nodes} if start is None else dict(start)
    for _ in range(len(nodes) + 1):
        changed = False
        for u, v, w in lower_edges:
            if x[u] + w > x[v]:
                x[v] = x[u] + w
                changed = True
        if not changed:
            return x
    raise HeckeError("placement constraints contain a cycle")


def _slide_east(nodes, content_of, lower_in, ceilings, succ, x) -> dict:
    """Slide each box with northwest partners east until it sits against
    the nearest partner, keeping every lower bound and the diagonal order.
    A box that cannot reach its nearest partner (the next box of its own
    diagonal is in the way) does not move at all.

    The sweep runs over contents in increasing order and within a diagonal
    from southeast to northwest; values only ever increase, so the loop is
    a monotone fixpoint and terminates.
    """
    order = sorted(nodes, key=lambda b: (content_of[b], -b))
    for _ in range(2 * len(nodes) + 8):
        changed = False
        for b in order:
            lo = max((x[u] + w for u, w in lower_in[b]), default=0)
            val = lo
            if ceilings[b]:
                nearest = min(x[c] for c in ceilings[b])
                s = succ.get(b)
                if s is None or nearest < x[s]:
                    val = max(lo, nearest)
            val = max(val, x[b])
            if val != x[b]:
                x[b] = val
                changed = True
        if not changed:
            return x
    raise HeckeError("slide pass failed to stabilise")


def _solve_page(nodes, content_of, pairs, chains):
    """x coordinates for one page from its Z chains and P flags, with the
    lower edges and ceilings they were solved under.

    Lower bounds: consecutive boxes of a diagonal differ by at least one
    column; a SE pair pushes the later box strictly east; a NW pair keeps
    the earlier box weakly east of the later one (weight-zero edge) and
    caps the later box at the earlier box's column.  Wrap pairs do not
    constrain the picture.  Every ceiling is also a weight-zero lower edge,
    so checking the lower bounds checks the ceilings too.
    """
    lower_edges = [(u, v, 1) for chain in chains
                   for u, v in zip(chain, chain[1:])]
    succ = {u: v for u, v, _ in lower_edges}
    ceilings = {b: [] for b in nodes}
    for p in pairs:
        if p.kind != "P" or p.wrap:
            continue
        if p.flag == "SE":
            lower_edges.append((p.i, p.j, 1))
        else:
            lower_edges.append((p.j, p.i, 0))
            ceilings[p.j].append(p.i)
    lower_in = {b: [] for b in nodes}
    for u, v, w in lower_edges:
        lower_in[v].append((u, w))
    x = _least_positions(nodes, lower_edges)
    x = _slide_east(nodes, content_of, lower_in, ceilings, succ, x)
    for u, v, w in lower_edges:
        if x[v] < x[u] + w:
            raise HeckeError("placement violates a lower bound")
    return x, lower_edges, ceilings


def _page_components(nodes, content_of):
    """Split a page into runs of consecutive contents (pairs never cross a
    gap, so the runs are the connected components of the constraint graph)."""
    contents = sorted({content_of[b] for b in nodes})
    runs, current = [], [contents[0]]
    for c in contents[1:]:
        if c - current[-1] == 1:
            current.append(c)
        else:
            runs.append(current)
            current = [c]
    runs.append(current)
    out = []
    for run in runs:
        members = sorted(b for b in nodes if content_of[b] in run)
        out.append((run[0], run[-1], members))
    return out


def _render_page(nodes, content_of, pairs, chains) -> dict:
    """Canonical (x, y) per box for one page.

    Components are rendered independently and stacked along the staircase:
    the next component starts one column east per missing diagonal between
    them, so a skew shape broken only by empty diagonals still reads as a
    single picture.  Pairs and chains may reach beyond the page; each
    component keeps those inside it.
    """
    placements = {}
    prev_max_x = None
    prev_max_content = None
    for c_min, c_max, members in _page_components(nodes, content_of):
        member_set = set(members)
        sub_pairs = [p for p in pairs if p.i in member_set and p.j in member_set]
        sub_chains = [ch for ch in chains if ch[0] in member_set]
        x, _, _ = _solve_page(members, content_of, sub_pairs, sub_chains)
        base = min(x.values())
        if prev_max_x is None:
            offset = -base
        else:
            offset = prev_max_x + (c_min - prev_max_content - 1) - base
        for b in members:
            placements[b] = x[b] + offset
        prev_max_x = max(placements[b] for b in members)
        prev_max_content = c_max
    return _heights(placements, content_of)


def _heights(x, content_of) -> dict:
    """(x, y) per box from its column x: columns start at 0, and y is the
    content minus the column, shifted so the lowest box sits at height 0.
    Stacked columns arrive as Fractions (the offsets add contents)."""
    base = min(x.values())
    k = max(x[b] - base - content_of[b] for b in x)
    out = {}
    for b in x:
        col = Fraction(x[b] - base)
        y = content_of[b] - col + k
        if col.denominator != 1 or y.denominator != 1 or y < 0:
            raise HeckeError("box coordinates must be nonnegative integers")
        out[b] = (int(col), int(y))
    return out


def _render_symmetric_page(nodes, content_of, pairs, chains) -> dict:
    """Canonical placement for a type C page that must equal its own
    rotation by 180 degrees (box -b at the rotation of box b).

    After the usual least solution and eastward slide, mirror sums
    x[b] + x[-b] are equalised by repeatedly lifting each box to the
    rotation of its mirror and re-closing the lower bounds.
    """
    x, lower_edges, ceilings = _solve_page(nodes, content_of, pairs, chains)

    def sums():
        return {x[b] + x[-b] for b in nodes}

    def lift_side(b, need):
        # Lift one side of the orbit {b, -b} by `need`.  A side is usable
        # when the lift keeps it weakly west of its nearest NW partner;
        # among usable sides prefer the one still short of that partner
        # (it is drifting east anyway), breaking ties towards -b.
        usable = []
        for s in (b, -b):
            ceil = min((x[c] for c in ceilings[s]), default=None)
            if ceil is None or x[s] + need <= ceil:
                slack = ceil is not None and x[s] < ceil
                usable.append((not slack, s > 0, s))
        if usable:
            x[min(usable)[2]] += need
        else:
            x[b] += need

    positives = sorted(b for b in nodes if b > 0)
    for _ in range(2 * len(nodes) + 8):
        s = sums()
        if len(s) == 1:
            break
        target = max(s)
        for b in positives:
            need = target - x[b] - x[-b]
            if need > 0:
                lift_side(b, need)
        # returns only once every lower bound holds again
        x = _least_positions(nodes, lower_edges, x)
    if len(sums()) != 1:
        raise HeckeError("rotation symmetrisation failed to converge")
    out = _heights(x, content_of)
    sx = {out[b][0] + out[-b][0] for b in nodes}
    sy = {out[b][1] + out[-b][1] for b in nodes}
    if len(sx) != 1 or len(sy) != 1:
        raise HeckeError("page is not stable under rotation")
    return out


# ---------------------------------------------------------------------------
# skew shapes in and out
# ---------------------------------------------------------------------------


def _whole(values, error, what: str) -> tuple:
    """values as ints; error when one of them is not a whole number."""
    values = tuple(values)
    if any(int(x) != x for x in values):
        raise error(f"{what} must be whole numbers: {values}")
    return tuple(map(int, values))


def skew_to_region(lam, mu=(), placement=0):
    """Weight and J for the skew shape lam/mu drawn with the given placement
    (the content of a box is column - row + placement).

    Boxes are numbered along diagonals, contents increasing, and within a
    diagonal from northwest to southeast.  A pair of boxes on adjacent
    diagonals puts its root into J exactly when the later box sits weakly
    west (hence strictly north) of the earlier one.
    """
    lam = _whole(lam, NotContained, "parts")
    mu = _whole(mu, NotContained, "parts")
    mu = mu + (0,) * (len(lam) - len(mu))
    if any(a < 0 for a in lam + mu) or len(mu) > len(lam):
        raise NotContained("shapes must be partitions with mu inside lambda")
    if any(lam[r] < lam[r + 1] for r in range(len(lam) - 1)):
        raise NotContained("lambda must be weakly decreasing")
    if any(mu[r] < mu[r + 1] for r in range(len(mu) - 1)):
        raise NotContained("mu must be weakly decreasing")
    if any(mu[r] > lam[r] for r in range(len(lam))):
        raise NotContained("mu is not contained in lambda")
    k = len(lam)
    cells = []
    for r in range(1, k + 1):
        for col in range(mu[r - 1] + 1, lam[r - 1] + 1):
            x, y = col - 1, k - r
            cells.append((Fraction(col - r + placement), x, y))
    if not cells:
        raise NotContained("the skew shape has no boxes")
    cells.sort(key=lambda t: (t[0], t[1]))
    gamma = tuple(c for c, _, _ in cells)
    n = len(cells)
    J = set()
    for a in range(n):
        for b in range(a + 1, n):
            if cells[b][0] - cells[a][0] == 1 and cells[b][1] <= cells[a][1]:
                J.add(_basis_vec(n, b + 1, a + 1))
    return gamma, frozenset(J)


def configuration_to_skew(config: PlacedConfiguration):
    """(lam, mu, placement) of the canonical picture of a one-page finite
    configuration, provided it is literally a skew shape.

    The result is normalised, so it need not repeat the shape the region
    came from: the picture sits against column 1 (columns empty in every
    row are dropped), mu has one entry per row of lam (zeros included), and
    placement is chosen so every box keeps its content.  For example the
    region of (3, 2)/(1, 1) comes back as ((2, 1), (0, 0), 1), and
    skew_to_region gives the same region for both."""
    if config.mode != "finite":
        raise UnsupportedType("skew shapes live on finite type A pages")
    cells = config.cells()
    ys = sorted({y for _, y in cells}, reverse=True)
    if ys != list(range(max(ys), -1, -1)):
        raise NotSkew("rows must be contiguous")
    k = max(ys) + 1
    lam, mu = [], []
    for r in range(1, k + 1):
        xs = sorted(x for x, y in cells if y == k - r)
        if not xs or xs != list(range(xs[0], xs[-1] + 1)):
            raise NotSkew("each row must be a contiguous segment")
        lam.append(xs[-1] + 1)
        mu.append(xs[0])
    for r in range(k - 1):
        if lam[r] < lam[r + 1] or mu[r] < mu[r + 1]:
            raise NotSkew("rows must nest like a skew shape")
    b0 = config.boxes[0]
    placement = b0.content - (b0.x + b0.y + 1 - k)
    if placement.denominator != 1:
        raise NotSkew("contents are not aligned with an integer placement")
    return tuple(lam), tuple(mu), int(placement)


# ---------------------------------------------------------------------------
# configurations from regions
# ---------------------------------------------------------------------------


def _page_label(c: Fraction) -> Fraction:
    return c - (c.numerator // c.denominator)


def _pairs_and_chains(t, J, indices, content_of, page_of):
    """(J, pairs, chains) of a region drawn on the boxes with the given
    indices (signed in type C, where the ambient dimension is the largest
    index).

    J must sit inside P(t) and, away from a root of unity, be closed under
    Z(t) (the theorem's nonemptiness criterion, regions.nonempty_criterion);
    otherwise the chamber set is empty and there is nothing to draw.  Pairs
    (a, b), a < b, are the boxes whose root lies in Z(t) or P(t).  At a root
    of unity, pairs whose contents differ by ell - 1 are wrap pairs, flagged
    by the root-of-unity placement table: an in-J wrap pair is drawn
    southeast, an out-of-J wrap pair northwest, the reverse of the rule
    inside one period.  Chains list the boxes of each diagonal of each page.
    """
    J = _coerce_J(J)
    Z, P = t.zp_sets()
    if not J <= P:
        raise JNotSubsetOfP("J must consist of roots with t(X^alpha) = q^(+-2)")
    if t.ell is None and not regions.nonempty_criterion(t, J):
        raise EmptyRegion("J is not closed under Z(t); the chamber set is empty")
    indices = sorted(indices)
    n = indices[-1]
    pairs = []
    for k, a in enumerate(indices):
        for b in indices[k + 1:]:
            root = _basis_vec(n, b, a)
            if root in Z:
                pairs.append(BoxPair(a, b, root, "Z", False, None))
            elif root in P:
                in_J = root in J
                wrap = (t.ell is not None
                        and content_of[b] - content_of[a] != 1)
                flag = "NW" if in_J != wrap else "SE"
                pairs.append(BoxPair(a, b, root, "P", in_J, flag, wrap))
    by_diag = {}
    for b in indices:
        by_diag.setdefault((page_of[b], content_of[b]), []).append(b)
    chains = tuple(tuple(by_diag[key]) for key in
                   sorted(by_diag, key=lambda k: (str(k[0]), k[1])))
    return J, tuple(pairs), chains


def region_to_configuration(t, J) -> PlacedConfiguration:
    """Canonical placed configuration of the region (t, J) in finite type A.

    The entries of t must be arranged page by page (all entries of one
    coset consecutive and weakly increasing); J must sit inside P(t) and be
    closed under Z(t), otherwise the chamber set is empty and there is
    nothing to draw.
    """
    t = _coerce_weight(t)
    if t.rs.type_label != "A":
        raise UnsupportedType("use typec_configuration for type C regions")
    if t.ell is not None:
        raise BadEll("use periodic_configuration for root-of-unity weights")
    gamma = t.gamma
    n = len(gamma)
    seen = []
    for c in gamma:
        lab = _page_label(c)
        if seen and seen[-1] != lab and lab in seen:
            raise NotDominant("entries of each coset must be consecutive")
        if not seen or seen[-1] != lab:
            seen.append(lab)
    for a in range(n - 1):
        if _page_label(gamma[a]) == _page_label(gamma[a + 1]) and gamma[a] > gamma[a + 1]:
            raise NotDominant("entries must increase weakly along each page")
    content_of = {b: gamma[b - 1] for b in range(1, n + 1)}
    page_of = {b: _page_label(gamma[b - 1]) for b in range(1, n + 1)}
    J, pairs, chains = _pairs_and_chains(t, J, range(1, n + 1), content_of,
                                         page_of)
    boxes = []
    for lab in seen:
        members = [b for b in range(1, n + 1) if page_of[b] == lab]
        placed = _render_page(members, content_of, pairs, chains)
        for b in members:
            x, y = placed[b]
            boxes.append(Box(b, content_of[b], lab, x, y))
    boxes.sort(key=lambda bb: bb.index)
    return PlacedConfiguration(
        mode="finite", case=None, ell=None, t=t, J=J,
        boxes=tuple(boxes), pairs=pairs, z_chains=chains, period=None, n=n)


def build_book(t, J):
    """One standalone configuration per page of the region (t, J).

    Each page keeps its own box numbering 1..n_k and its own weight; a
    root of J joining boxes on different pages cannot lie in P(t) for a
    finite weight, and is reported as JCrossesPages.
    """
    t = _coerce_weight(t)
    J = _coerce_J(J)
    gamma = t.gamma
    n = len(gamma)
    page_of = {b: _page_label(gamma[b - 1]) for b in range(1, n + 1)}
    for root in J:
        support = [k + 1 for k, c in enumerate(root) if c != 0]
        if len({page_of[b] for b in support}) > 1:
            raise JCrossesPages("a root of J joins boxes on different pages")
    full = region_to_configuration(t, J)
    book = []
    for lab in full.pages():
        members = [b for b in range(1, n + 1) if page_of[b] == lab]
        block = [gamma[b - 1] for b in members]
        sub_rs = build("A", len(block) - 1, lattice_mode="GL")
        sub_t = weight(sub_rs, block)
        sub_J = set()
        pos = {b: k + 1 for k, b in enumerate(members)}
        for p in full.pairs:
            if p.in_J and page_of[p.i] == lab and page_of[p.j] == lab:
                sub_J.add(_basis_vec(len(block), pos[p.j], pos[p.i]))
        book.append((lab, region_to_configuration(sub_t, frozenset(sub_J))))
    return book


# ---------------------------------------------------------------------------
# standard fillings
# ---------------------------------------------------------------------------


def _order_edges(config):
    """Directed edges u -> v meaning the entry of u must be below the entry
    of v (in the signed order for type C): a diagonal increases to the
    southeast, and a P pair inverts exactly when its root lies in J."""
    edges = []
    for chain in config.z_chains:
        for u, v in zip(chain, chain[1:]):
            edges.append((u, v))
    for p in config.pairs:
        if p.kind != "P":
            continue
        edges.append((p.j, p.i) if p.in_J else (p.i, p.j))
    return edges


def enumerate_standard(config: PlacedConfiguration):
    """All standard fillings, in increasing lexicographic order of their
    entry tuples.  Raises TooLarge past the enumeration cap, which the
    AFFINE_HECKE_ENUM_CAP environment variable sets (FINITE_ENUM_CAP, or
    TYPEC_ENUM_CAP in type C, when it is unset).

    Fillings are the linear extensions of the order edges: values are dealt
    in increasing order, each to a box whose predecessors all hold smaller
    values.  In type C only -n..-1 are dealt; dealing -v to box b puts v in
    the mirror box -b, which takes that box out of play.  The edge set is
    closed under (u, v) -> (-v, -u), so the forced values 1..n respect it.
    A box on a cycle of the edges (and, in type C, its mirror) is never
    dealt, so an order with a cycle has no fillings.
    """
    limit = _enum_cap(config.mode)
    if config.n > limit:
        raise TooLarge(f"{config.n} boxes exceeds the enumeration cap {limit}")
    signed = config.mode == "typec"
    indices = [b.index for b in config.boxes]
    succs = {b: [] for b in indices}
    preds = {b: 0 for b in indices}
    for u, v in _order_edges(config):
        succs[u].append(v)
        preds[v] += 1
    last = -1 if signed else config.n
    entry = {}
    out = []

    def rec(value, avail):
        if value > last:
            out.append(tuple(entry[b] for b in indices))
            return
        for b in avail:
            entry[b] = value
            if signed:
                entry[-b] = -value
            nxt = [a for a in avail if a not in entry]
            for v in succs[b]:
                preds[v] -= 1
                if preds[v] == 0 and v not in entry:
                    nxt.append(v)
            rec(value + 1, sorted(nxt))
            for v in succs[b]:
                preds[v] += 1
            del entry[b]
            if signed:
                del entry[-b]

    rec(-config.n if signed else 1,
        sorted(b for b in indices if preds[b] == 0))
    del rec  # it holds itself through its closure cell: break that cycle
    out.sort()
    return tuple(StandardFilling(tuple(indices), e) for e in out)


def filling_from_entries(config: PlacedConfiguration, entries) -> StandardFilling:
    """Wrap raw entries as a filling; for type C, entries may cover just the
    positive boxes (the negative half is forced by p(-b) = -p(b)).  A
    StandardFilling comes back as it is."""
    if isinstance(entries, StandardFilling):
        return entries
    indices = tuple(b.index for b in config.boxes)
    entries = _whole(entries, NotStandard, "entries")
    if config.mode == "typec" and len(entries) == config.n:
        by_idx = dict(zip([i for i in indices if i > 0], entries))
        entries = tuple(by_idx[i] if i > 0 else -by_idx[-i] for i in indices)
    if len(entries) != len(indices):
        raise NotStandard("one entry per box")
    return StandardFilling(indices, entries)


def validate_filling(config: PlacedConfiguration, filling) -> tuple:
    """Violated conditions of the filling, empty when it is standard.

    Each violation is a dict naming the offending pair of boxes: entries
    must increase to the southeast along a diagonal, and an adjacent pair
    inverts exactly when its root lies in J (entries compared in the signed
    order for type C)."""
    filling = filling_from_entries(config, filling)
    val = filling.as_dict()
    bad = []
    if config.mode == "typec":
        pos = sorted(abs(v) for i, v in val.items() if i > 0)
    else:
        pos = sorted(val.values())
    if pos != list(range(1, config.n + 1)):
        bad.append({"i": None, "j": None, "kind": "support",
                    "required": "entries must use 1..n once each"})
        return tuple(bad)
    if config.mode == "typec":
        for b in range(1, config.n + 1):
            if val[-b] != -val[b]:
                bad.append({"i": -b, "j": b, "kind": "symmetry",
                            "required": "p(-b) = -p(b)"})
        if bad:
            return tuple(bad)
    for p in config.pairs:
        if p.kind == "Z":
            if not val[p.i] < val[p.j]:
                bad.append({"i": p.i, "j": p.j, "kind": "Z",
                            "required": f"p({p.i}) < p({p.j}) along the diagonal"})
            continue
        if p.in_J and not val[p.i] > val[p.j]:
            bad.append({"i": p.i, "j": p.j, "kind": "P",
                        "required": f"p({p.i}) > p({p.j}) (root in J)"})
        if not p.in_J and not val[p.i] < val[p.j]:
            bad.append({"i": p.i, "j": p.j, "kind": "P",
                        "required": f"p({p.i}) < p({p.j}) (root not in J)"})
    return tuple(bad)


def filling_to_word(config: PlacedConfiguration, filling):
    """The Weyl group element of a standard filling, with axial distances.

    The one-line word lists the entries of boxes 1..n; the axial distance
    from entry i to entry j is the content of the box of j minus the
    content of the box of i."""
    filling = filling_from_entries(config, filling)
    bad = validate_filling(config, filling)
    if bad:
        pairs = sorted((v["i"], v["j"]) for v in bad if v["i"] is not None)
        raise NotStandard(f"filling violates standardness at {pairs}")
    val = filling.as_dict()
    word = tuple(val[b] for b in range(1, config.n + 1))
    w = element_from_one_line(config.t.rs, word)
    content_of_entry = {}
    for b in config.boxes:
        content_of_entry[val[b.index]] = b.content
    axial = {}
    for i in range(1, config.n + 1):
        for j in range(i + 1, config.n + 1):
            axial[(j, i)] = content_of_entry[j] - content_of_entry[i]
    return w, axial


def verify_bijection(config: PlacedConfiguration, region=None) -> BijectionReport:
    """Compare standard fillings with the chamber set, as sets of one-line
    words.  Never raises on mismatch: the report carries a witness."""
    try:
        fillings = enumerate_standard(config)
        words = []
        for f in fillings:
            w, _ = filling_to_word(config, f)
            words.append(w.one_line())
    except HeckeError as e:
        return BijectionReport(False, -1, -1, f"enumeration failed: {e}")
    t = config.t if region is None else region.t
    J = config.J if region is None else region.J
    chamber = {w.one_line() for w in regions.chamber_set_pruned(t, J)}
    tab = set(words)
    if len(tab) != len(words):
        dup = sorted(w for w in tab if words.count(w) > 1)[0]
        return BijectionReport(False, len(words), len(chamber),
                               f"two fillings share the word {dup}")
    if tab == chamber:
        return BijectionReport(True, len(words), len(chamber), None)
    extra = sorted(tab - chamber)
    missing = sorted(chamber - tab)
    witness = extra[0] if extra else missing[0]
    side = "not in the chamber set" if extra else "has no standard filling"
    return BijectionReport(False, len(words), len(chamber),
                           f"word {witness} {side}")


# ---------------------------------------------------------------------------
# shape classification
# ---------------------------------------------------------------------------

# The three local obstructions to being a skew shape, as occupancy of a
# 2x2 window (NW, NE, SW, SE present/absent).
_FORBIDDEN_WINDOWS = (
    (True, True, False, True),     # missing SW corner
    (True, False, True, True),     # missing NE corner
    (True, False, False, True),    # antidiagonal only
)


def _page_is_skew(cells) -> bool:
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    for x in range(min(xs) - 1, max(xs) + 1):
        for y in range(min(ys) - 1, max(ys) + 1):
            window = ((x, y + 1) in cells, (x + 1, y + 1) in cells,
                      (x, y) in cells, (x + 1, y) in cells)
            if window in _FORBIDDEN_WINDOWS:
                return False
    return True


def classify_configuration(config: PlacedConfiguration):
    """(is_skew_shape, is_border_strip) for a finite configuration.

    Skewness is read off the canonical picture by scanning all 2x2 windows
    for the three forbidden patterns.  On small regions (at most 8 boxes,
    where the chamber set is cheap to enumerate) the answer is also checked
    against the calibratability of every weight of the chamber set; a
    disagreement is an internal error.  A border strip has at most one box
    per diagonal.
    """
    if config.mode != "finite":
        raise UnsupportedType("classification applies to finite type A pages")
    geometric = all(
        _page_is_skew(set(config.cells(lab))) for lab in config.pages())
    border = all(len(ch) == 1 for ch in config.z_chains)
    if config.n <= 8:
        if len(config.pages()) == 1:
            algebraic = regions.is_skew(config.region)
        else:
            algebraic = all(regions.is_skew(page.region)
                            for _, page in build_book(config.t, config.J))
        if geometric != algebraic:
            raise HeckeError(
                "window scan and calibratability disagree on skewness")
    return geometric, geometric and border


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def _conjugate(config: PlacedConfiguration):
    """(conjugate configuration, one-line word of u): box b of the region
    becomes box u(b) of its conjugate."""
    conj = regions.conjugate(config.region)
    return (region_to_configuration(conj.region.t, conj.region.J),
            conj.u.one_line())


def conjugate_configuration(config: PlacedConfiguration) -> PlacedConfiguration:
    """The conjugate configuration (contents negated, box b sent to box
    u(b)); applying it twice returns the original region."""
    if config.mode != "finite" or len(config.pages()) != 1:
        raise UnsupportedType("conjugation needs a one-page finite region")
    return _conjugate(config)[0]


def conjugate_filling(config: PlacedConfiguration, filling):
    """Carry a standard filling across conjugation: box u(b) of the
    conjugate receives the entry of box b."""
    filling = filling_from_entries(config, filling)
    bad = validate_filling(config, filling)
    if bad:
        raise NotStandard("only standard fillings are carried across")
    cfg2, u = _conjugate(config)
    val = filling.as_dict()
    entries2 = {u[b - 1]: val[b] for b in range(1, config.n + 1)}
    f2 = filling_from_entries(cfg2, [entries2[b] for b in range(1, config.n + 1)])
    if validate_filling(cfg2, f2):
        raise HeckeError("conjugate of a standard filling must be standard")
    return cfg2, f2


# ---------------------------------------------------------------------------
# reading tableaux and the chamber interval
# ---------------------------------------------------------------------------


def _minimal_box(config, remaining) -> int:
    info = {b.index: (b.x, b.y, b.content) for b in config.boxes
            if b.index in remaining}
    cells = {(x, y): b for b, (x, y, _) in info.items()}
    cands = []
    for b in remaining:
        x, y, c = info[b]
        if (x, y + 1) in cells or (x - 1, y) in cells:
            continue
        if any(info[o][2] == c and info[o][0] < x for o in remaining if o != b):
            continue
        cands.append(b)
    cands.sort(key=lambda b: (info[b][2], info[b][0]))
    if not cands:
        raise HeckeError("no minimal box; the picture is not column convex")
    if len(cands) > 1 and info[cands[0]][2] == info[cands[1]][2]:
        raise HeckeError("minimal box is not unique")
    return cands[0]


def _column_reading(config) -> dict:
    """Entry of each box when entries 1, 2, ... are dealt to the minimal
    box of what remains (no box above, none to the left, none northwest on
    the same diagonal, content smallest)."""
    remaining = {b.index for b in config.boxes}
    entry = {}
    for v in range(1, config.n + 1):
        b = _minimal_box(config, remaining)
        entry[b] = v
        remaining.remove(b)
    return entry


def reading_tableaux(config: PlacedConfiguration):
    """(first, last) standard fillings of a one-page finite region.

    The first filling is read off the picture by repeatedly filling the
    minimal box; its word is checked against the algebraic least element
    of the chamber set.  The last filling places entry w_max(b) in box b,
    and is cross-checked by reading the conjugate picture minimally and
    carrying the result back."""
    if config.mode != "finite" or len(config.pages()) != 1:
        raise UnsupportedType("reading tableaux need a one-page finite region")
    if not config.t.is_dominant():
        raise NotDominant("reading tableaux are defined for dominant weights")
    entry_min = _column_reading(config)
    p_min = filling_from_entries(
        config, [entry_min[b] for b in range(1, config.n + 1)])
    if validate_filling(config, p_min):
        raise HeckeError("minimal reading is not standard")
    ivs = regions.interval_structure(config.t, config.J)
    w_min, _ = filling_to_word(config, p_min)
    if w_min.one_line() != ivs.w_min.one_line():
        raise HeckeError("minimal reading disagrees with the interval floor")
    p_max = filling_from_entries(config, ivs.w_max.one_line())
    if validate_filling(config, p_max):
        raise HeckeError("interval ceiling is not a standard filling")
    cfg2, u = _conjugate(config)
    entry2 = _column_reading(cfg2)
    carried = tuple(entry2[u[b - 1]] for b in range(1, config.n + 1))
    if carried != tuple(p_max.entries):
        raise HeckeError("conjugate reading disagrees with the interval top")
    return p_min, p_max


# ---------------------------------------------------------------------------
# root-of-unity configurations
# ---------------------------------------------------------------------------


def periodic_configuration(t, J, ell=None) -> PlacedConfiguration:
    """One period window of the configuration of a root-of-unity region.

    Contents live in 0..ell-1; a pair with contents (0, ell-1) wraps
    around the period and follows the inverted placement rule (in J means
    southeast).  Only the in-window pairs constrain the picture; wrap
    pairs are kept as data and still order the entries of fillings.

    The period (width, ell - width) is the step from the window to its next
    copy: it raises every content by ell, and each copy starts one column
    past the last column of the one before, so copies never overlap.  A
    window may hold more than ell columns, as two boxes may share a
    diagonal; its copies then step down, and the period's second entry is
    negative, as (5, -1) for (0, 0, 1, 2, 3) at ell = 4."""
    if isinstance(t, Weight):
        if t.ell is None:
            raise BadEll("periodic configurations need a root-of-unity weight")
        if ell is not None and ell != t.ell:
            raise BadEll(f"weight has ell = {t.ell}, got ell = {ell}")
        ell = t.ell
    else:
        if ell is None:
            raise BadEll("pass ell or a root-of-unity weight")
        rs = build("A", len(tuple(t)) - 1, lattice_mode="GL")
        t = weight(rs, tuple(t), ell=ell)
    if ell <= 2:
        raise BadEll("configurations need ell > 2 (contents must spread)")
    gamma = t.gamma
    n = len(gamma)
    if any(gamma[a] > gamma[a + 1] for a in range(n - 1)):
        raise NotDominant("arrange the entries weakly increasing in 0..ell-1")
    content_of = {b: gamma[b - 1] for b in range(1, n + 1)}
    page_of = {b: Fraction(0) for b in range(1, n + 1)}
    J, pairs, chains = _pairs_and_chains(t, J, range(1, n + 1), content_of,
                                         page_of)
    try:
        placed = _render_page(list(range(1, n + 1)), content_of, pairs, chains)
    except HeckeError as e:
        raise EmptyRegion(f"no placement satisfies the in-window pairs: {e}")
    boxes = tuple(Box(b, content_of[b], Fraction(0), *placed[b])
                  for b in range(1, n + 1))
    width = max(b.x for b in boxes) - min(b.x for b in boxes) + 1
    return PlacedConfiguration(
        mode="periodic", case=None, ell=ell, t=t, J=J,
        boxes=boxes, pairs=pairs, z_chains=chains,
        period=(width, ell - width), n=n)


# ---------------------------------------------------------------------------
# type C configurations
# ---------------------------------------------------------------------------


def _typec_case(gamma) -> str:
    fracs = {_page_label(c) for c in gamma}
    if len(fracs) != 1:
        raise CaseMismatch("entries must share one fractional part")
    f = fracs.pop()
    if f == 0:
        return "zero"
    if f == Fraction(1, 2):
        return "half"
    return "beta"


def typec_configuration(t, J) -> PlacedConfiguration:
    """Rotation-stable configuration of a type C region.

    Boxes come in pairs b, -b with opposite contents; box -b sits at the
    rotation of box b by 180 degrees.  The entries' one fractional part sets
    the case (_typec_case): "beta" gives a two-page book (the second page
    the rotation of the first), "half" and "zero" one self-rotating page.
    """
    t = _coerce_weight(t, type_label="C")
    if t.rs.type_label != "C":
        raise UnsupportedType("typec_configuration needs a type C weight")
    gamma = t.gamma
    n = len(gamma)
    case = _typec_case(gamma)
    if any(gamma[a] > gamma[a + 1] for a in range(n - 1)):
        raise NotDominant("arrange the entries weakly increasing")
    if case in ("half", "zero") and gamma[0] < 0:
        raise NotDominant("cases half and zero list the nonnegative entries")
    indices = list(range(-n, 0)) + list(range(1, n + 1))
    f = _page_label(gamma[0]) if case == "beta" else Fraction(0)
    content_of = {}
    for b in range(1, n + 1):
        content_of[b] = gamma[b - 1] - f
        content_of[-b] = -content_of[b]
    page_of = {b: (f if b > 0 else -f) for b in indices}
    J, pairs, chains = _pairs_and_chains(t, J, indices, content_of, page_of)
    for p in pairs:
        if page_of[p.i] != page_of[p.j]:
            raise CaseMismatch("a coupled pair of boxes crosses pages")
        if p.kind == "Z" and content_of[p.i] != content_of[p.j]:
            raise HeckeError("a Z pair must share its diagonal")
        if p.kind == "P" and content_of[p.j] - content_of[p.i] != 1:
            raise HeckeError("a P pair must join adjacent diagonals")
    boxes = {}
    if case == "beta":
        pos = list(range(1, n + 1))
        placed = _render_page(pos, content_of, pairs, chains)
        mx = max(x for x, _ in placed.values())
        my = max(y for _, y in placed.values())
        for b in pos:
            x, y = placed[b]
            boxes[b] = (x, y)
            boxes[-b] = (mx - x, my - y)
    else:
        placed = _render_symmetric_page(indices, content_of, pairs, chains)
        boxes.update(placed)
    for ch in chains:
        xs = [boxes[b][0] for b in ch]
        if xs != sorted(xs) or len(set(xs)) != len(xs):
            raise HeckeError("diagonal order must follow the signed index order")
    box_list = tuple(Box(b, content_of[b], page_of[b], *boxes[b])
                     for b in indices)
    return PlacedConfiguration(
        mode="typec", case=case, ell=None, t=t, J=J,
        boxes=box_list, pairs=pairs, z_chains=chains, period=None, n=n)


# ---------------------------------------------------------------------------
# display and export
# ---------------------------------------------------------------------------


def render_text(config: PlacedConfiguration, filling=None) -> str:
    """ASCII picture, one block per page, y decreasing down the screen."""
    if filling is not None:
        filling = filling_from_entries(config, filling)
    val = filling.as_dict() if filling else None
    lines = []
    labels = config.pages()
    for lab in labels:
        page_boxes = [b for b in config.boxes if b.page == lab]
        if len(labels) > 1 or config.mode == "typec":
            lines.append(f"page {lab}:")
        cells = {}
        for b in page_boxes:
            text = str(val[b.index]) if val else str(b.content)
            cells[(b.x, b.y)] = text
        width = max(len(s) for s in cells.values())
        max_x = max(x for x, _ in cells)
        max_y = max(y for _, y in cells)
        for y in range(max_y, -1, -1):
            row = []
            for x in range(0, max_x + 1):
                if (x, y) in cells:
                    row.append("[" + cells[(x, y)].rjust(width) + "]")
                else:
                    row.append(" " * (width + 2))
            lines.append("".join(row).rstrip())
    if config.mode == "periodic":
        lines.append(f"period: {config.period}")
    return "\n".join(lines)


def to_dict(config: PlacedConfiguration, filling=None) -> dict:
    """JSON-ready description: every Fraction is rendered as a string."""
    pages = []
    for lab in config.pages():
        pages.append({
            "label": str(lab),
            "boxes": [
                {"index": b.index, "content": str(b.content),
                 "x": b.x, "y": b.y}
                for b in config.boxes if b.page == lab],
        })
    out = {
        "mode": config.mode,
        "case": config.case,
        "ell": config.ell,
        "n": config.n,
        "gamma": [str(c) for c in config.t.gamma],
        "J": sorted([str(c) for c in root] for root in config.J),
        "pages": pages,
        "pairs": [
            {"i": p.i, "j": p.j, "root": [str(c) for c in p.root],
             "kind": p.kind, "in_J": p.in_J, "flag": p.flag, "wrap": p.wrap}
            for p in sorted(config.pairs, key=lambda p: (p.i, p.j))],
        "period": list(config.period) if config.period else None,
    }
    if filling is not None:
        filling = filling_from_entries(config, filling)
        out["filling"] = [
            {"index": i, "entry": e}
            for i, e in zip(filling.indices, filling.entries)]
    return out
