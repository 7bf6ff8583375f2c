"""The benchmark workloads: seeded inputs and one checked pipeline per item.

Each workload turns a seed into a plan: the items of one pass, in seeded
order, plus the root systems whose principal-series tables set-up builds.
Items call the library only through ``Tracer.call``/``Tracer.span`` so that a
traced run can attribute time to layers, and every item checks its answers
against an independent route. A failure that matches a known defect of the
library is still counted as a failure; the report names it.

Why these workloads (measured on the parent library, Python 3.11, 2 cores):

* ``skew_sweep`` is the paper's end-to-end use: every skew shape with at most
  3 boxes goes region -> chamber set -> exact calibrated module -> relations
  -> irreducibility -> bijection with standard fillings. Exact module
  construction and its relation check dominate, so the tableau fast path and
  exact-scalar work show here. Four boxes would take about 40 s per pass.
* ``principal_exact`` runs exact principal series on A2, B2 and C2 at
  regular weights, weights on a Z(t) wall and weights with P(t) non-empty.
  |W| <= 8, so exact scalars and exact elimination dominate and Weyl work is
  negligible. G2 (about 20-60 s per weight_decomposition) and A3 do not fit
  a run. It is not a BENCHMARK.json workload: skew_sweep already puts exact
  scalars on the end-to-end path, and two workloads leave room for runs long
  enough to be steady. It runs from the command line and in the traced
  runs' ladder, which times its layers.
* ``weyl_numeric`` builds a fresh A4, D4 or B4 root system per item and
  enumerates W, so Weyl-group representation dominates, then runs a numeric
  A3 principal series, where exact scalars play no part.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

KNOWN_DEFECTS = {
    "one_box_rank_zero": (
        "the one-box shape needs RootSystem('A', 0), which is rejected",
        ("UnsupportedType",)),
    "p_lattice_root_of_unity": (
        "principal_series on the P lattice at a root of unity fails the "
        "(T_i, X_i) cross relations", ("relations", "NumericIllConditioned")),
}

@dataclass
class ItemRecord:
    """What one item did: checks, exact work counts, provenance, modules."""

    id: str
    known: str | None
    checks: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    provenance: list = field(default_factory=list)
    modules: list = field(default_factory=list)   # (builder span, module)
    error: str | None = None
    traceback: str | None = None
    seconds: float = 0.0

    def check(self, name: str, ok) -> None:
        self.checks[name] = bool(ok)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    @property
    def ok(self) -> bool:
        return self.error is None and all(self.checks.values())

    @property
    def reason(self) -> str | None:
        if self.ok:
            return None
        parts = [f"check failed: {k}" for k, v in self.checks.items() if not v]
        if self.error:
            parts.append(f"raised {self.error}")
        return "; ".join(parts)

    @property
    def expected(self) -> bool:
        """True when the item passed or failed the way its known defect does."""
        if self.ok:
            return True
        if self.known is None:
            return False
        return any(tag in self.reason for tag in KNOWN_DEFECTS[self.known][1])

    def summary(self) -> dict:
        return {"id": self.id, "ok": self.ok, "seconds": self.seconds,
                "reason": self.reason, "known": self.known,
                "counts": self.counts, "provenance": self.provenance}


@dataclass
class Item:
    id: str
    run: object          # run(lib, tracer, record)
    known: str | None = None


@dataclass
class Plan:
    items: list
    table_systems: list  # root systems whose principal-series tables set-up built


def build_module(tr, rec: ItemRecord, op: str, fn, *args, **kwargs):
    """Call a module builder, keep it for the traced re-verification."""
    with tr.span("repn", op) as span:
        m = fn(*args, **kwargs)
    rec.modules.append((span, m))
    q0 = None if m.q0 is None else [m.q0.real, m.q0.imag]
    rec.provenance.append({"step": op, "backend": m.backend, "q0": q0,
                           "dim": m.dim})
    rec.count("module_dim", m.dim)
    rec.check(f"{op}.relations", m.report["all_pass"])
    return m


def warm_tables(lib, systems) -> None:
    """Build the process-wide normal-form tables behind principal_series."""
    for rs in systems:
        t = lib.weights.weight(rs, (0,) * rs.dim)
        lib.repn.principal_series(t, backend="numeric")


# ---------------------------------------------------------------------------
# skew_sweep
# ---------------------------------------------------------------------------

def skew_shapes(k: int) -> list:
    """Every skew shape lam/mu with 1..k boxes inside the k x k box, with no
    empty row and some row starting in column 1 (69 shapes for k = 4)."""
    out = []
    for rows in range(1, k + 1):
        for lam in itertools.combinations_with_replacement(range(k, 0, -1),
                                                           rows):
            for mu in itertools.combinations_with_replacement(
                    range(k - 1, -1, -1), rows):
                if mu[-1] != 0 or any(m >= l for m, l in zip(mu, lam)):
                    continue
                if sum(lam) - sum(mu) <= k:
                    out.append((lam, tuple(m for m in mu if m)))
    out.sort(key=lambda s: (sum(s[0]) - sum(s[1]), s))
    return out


def _skew_item(lam, mu, placement):
    def run(lib, tr, rec):
        tab, reg, repn = lib.tableaux, lib.regions, lib.repn
        gamma, J = tr.call("tableaux", "skew_to_region", tab.skew_to_region,
                           lam, mu, placement)
        cfg = tr.call("tableaux", "region_to_configuration",
                      tab.region_to_configuration, gamma, J)
        rec.count("weyl_order", cfg.t.rs.weyl_order())
        region = tr.call("regions", "local_region", reg.local_region,
                         cfg.t, cfg.J)
        chambers = tr.call("regions", "chamber_set_pruned",
                           reg.chamber_set_pruned, cfg.t, cfg.J)
        rec.count("chambers", len(chambers))
        rec.check("is_skew", tr.call("regions", "is_skew", reg.is_skew,
                                     region))
        m = build_module(tr, rec, "calibrated_module",
                         repn.calibrated_module, region, backend="exact")
        rec.check("commutant_dim == 1",
                  tr.call("repn", "commutant_dim", repn.commutant_dim, m) == 1)
        fillings = tr.call("tableaux", "enumerate_standard",
                           tab.enumerate_standard, cfg)
        rec.count("fillings", len(fillings))
        report = tr.call("tableaux", "verify_bijection", tab.verify_bijection,
                         cfg, region)
        rec.check("verify_bijection", report.ok)
        rec.check("#fillings == #chambers == dim",
                  len(fillings) == len(chambers) == m.dim)
    return run


def skew_sweep(lib, seed: int, size: str) -> Plan:
    rng = random.Random(seed)
    placement = rng.randrange(-2, 3)
    items = []
    for lam, mu in skew_shapes(3 if size == "full" else 2):
        known = ("one_box_rank_zero" if sum(lam) - sum(mu) == 1 else None)
        items.append(Item(f"skew:{lam}/{mu}@{placement}",
                          _skew_item(lam, mu, placement), known))
    rng.shuffle(items)
    return Plan(items, [])


# ---------------------------------------------------------------------------
# principal_exact
# ---------------------------------------------------------------------------

H = Fraction(1, 2)

# One weight per (root system, class). Kept small: the exact cost grows with
# the q-degrees the weight produces. The seed picks the item order and the
# orbit sum, not the weights: a seeded Weyl conjugate moved the per-item
# times by up to 40 % between seeds.
PRINCIPAL_WEIGHTS = {
    ("A", 2): {"regular": (0, H, 3), "wall": (0, 0, 3), "p_nonempty": (0, 1, 4)},
    ("B", 2): {"regular": (5 * H, H), "wall": (2, 0), "p_nonempty": (2, 1)},
    ("C", 2): {"regular": (3, 1), "wall": (2, 0), "p_nonempty": (2, 1)},
}


def _principal_item(rs, gamma, lam):
    def run(lib, tr, rec):
        repn, alg = lib.repn, lib.algebra
        rec.count("weyl_order", rs.weyl_order())
        t = tr.call("weights", "weight", lib.weights.weight, rs, gamma)
        m = build_module(tr, rec, "principal_series_exact",
                         repn.principal_series, t, backend="exact")
        wd = tr.call("repn", "weight_decomposition_exact",
                     repn.weight_decomposition, m)
        cd = tr.call("repn", "commutant_dim", repn.commutant_dim, m)
        if repn.kato_irreducible(t):
            rec.check("kato_irreducible -> commutant_dim == 1", cd == 1)
        sph = tr.call("repn", "spherical_exact", repn.spherical, t, rep=m)
        rec.check("spherical.eigen", sph.eigen_pass)
        if sph.expansion_check is not None:
            rec.check("spherical.expansion", sph.expansion_check)
        z = alg.AlgebraElt.from_group_algebra(
            tr.call("algebra", "orbit_sum", alg.orbit_sum, rs, lam))
        rec.check("is_central(orbit sum)",
                  tr.call("algebra", "is_central", alg.is_central, z))
        twin = build_module(tr, rec, "principal_series_numeric",
                            repn.principal_series, t, backend="numeric")
        wdn = tr.call("repn", "weight_decomposition_numeric",
                      repn.weight_decomposition, twin)
        rec.check("exact == numeric weight_decomposition",
                  _spaces(wd) == _spaces(wdn))
    return run


def _spaces(wd) -> dict:
    return {str(label): wd.spaces[label] for label in wd.labels}


def principal_exact(lib, seed: int, size: str) -> Plan:
    rng = random.Random(seed)
    keys = list(PRINCIPAL_WEIGHTS) if size == "full" else [("A", 2)]
    systems, items = [], []
    for key in keys:
        rs = lib.rootsys.build(*key)
        systems.append(rs)
        for cls, gamma in PRINCIPAL_WEIGHTS[key].items():
            lam = rng.choice(rs.lattice_generators())
            items.append(Item(f"principal:{key[0]}{key[1]}:{cls}:"
                              f"{tuple(str(c) for c in gamma)}",
                              _principal_item(rs, gamma, lam)))
    warm_tables(lib, systems)
    rng.shuffle(items)
    return Plan(items, systems)


# ---------------------------------------------------------------------------
# weyl_numeric
# ---------------------------------------------------------------------------

# (type, rank) of the fresh root system, a dominant weight on it, and the
# kind of numeric weight the item runs on A3. The pairing is fixed so every
# pass has the same make-up; the seed conjugates the weight by a Weyl element
# (dominant_representative undoes it), so fibers and chamber sets, and their
# cost, do not depend on the seed.
WEYL_ITEMS = {
    "full": (("A", 4, (0, 0, 1, 2, 2), "tagged_gl"),
             ("D", 4, (2, 1, 1, 0), "root_of_unity_gl"),
             ("B", 4, (2, 1, 1, 0), "root_of_unity_p")),
    "tiny": (("A", 3, (0, 0, 1, 2), "tagged_gl"),
             ("B", 3, (2, 1, 0), "root_of_unity_gl"),
             ("C", 3, (2, 1, 0), "root_of_unity_p")),
}


def _weyl_item(type_label, rank, gamma, word, rs3, weight3):
    def run(lib, tr, rec):
        rootsys, weights, reg, repn = (lib.rootsys, lib.weights, lib.regions,
                                       lib.repn)
        rs = tr.call("rootsys", "build", rootsys.build, type_label, rank)
        elements = tr.call("rootsys", "weyl_elements", rs.weyl_elements)
        rec.count("weyl_order", len(elements))
        rec.check("len(weyl_elements) == weyl_order",
                  len(elements) == rs.weyl_order())
        t = weights.weight(rs, gamma).weyl_act(rs.element_from_word(word))
        dom, w = tr.call("weights", "dominant_representative",
                         t.dominant_representative)
        rec.check("dominant_representative",
                  dom.is_dominant() and t.weyl_act(w) == dom)
        fibers = tr.call("regions", "fibers", reg.fibers, dom)
        Z, _ = dom.zp_sets()
        allowed = {u for u in elements if not u.inversion_set() & Z}
        covered = [u for f in fibers.values() for u in f]
        rec.check("fibers partition the chambers",
                  len(covered) == len(set(covered)) and set(covered) == allowed)
        J = max(fibers, key=lambda key: len(fibers[key]))
        brute = tr.call("regions", "chamber_set", reg.chamber_set, dom, J)
        pruned = tr.call("regions", "chamber_set_pruned",
                         reg.chamber_set_pruned, dom, J)
        rec.count("chambers", len(brute))
        rec.check("chamber_set == chamber_set_pruned",
                  brute.elements == pruned.elements
                  and set(brute) == set(fibers[J]))

        t3 = weights.weight(rs3, *weight3)
        m = build_module(tr, rec, "principal_series_numeric",
                         repn.principal_series, t3, backend="numeric")
        wd = tr.call("repn", "weight_decomposition_numeric",
                     repn.weight_decomposition, m)
        rec.check("weight dims sum to dim",
                  sum(g for _, g in wd.spaces.values()) == m.dim)
        if m.dim <= 24:
            cd = tr.call("repn", "commutant_dim", repn.commutant_dim, m)
            if repn.kato_irreducible(t3):
                rec.check("kato_irreducible -> commutant_dim == 1", cd == 1)
        sph = tr.call("repn", "spherical_numeric", repn.spherical, t3, rep=m)
        rec.check("spherical.eigen", sph.eigen_pass)
    return run


def weyl_numeric(lib, seed: int, size: str) -> Plan:
    rng = random.Random(seed)
    rs_p = lib.rootsys.build("A", 3)
    rs_gl = lib.rootsys.build("A", 3, lattice_mode="GL")
    z = lib.weights.make_tag("z")
    items = []
    for type_label, rank, gamma, kind in WEYL_ITEMS[size]:
        word = tuple(rng.randrange(rank) for _ in range(rng.randint(4, 8)))
        if kind == "tagged_gl":
            rs3 = rs_gl
            c = rng.randint(0, 2)
            weight3 = ((c, c + 1, c, c + 1), (z, z, (), ()))
            known = None
        else:
            rs3 = rs_p if kind == "root_of_unity_p" else rs_gl
            weight3 = ((0, 1, 2, 3), None, rng.choice((3, 4, 5)))
            known = ("p_lattice_root_of_unity"
                     if kind == "root_of_unity_p" else None)
        items.append(Item(f"weyl:{type_label}{rank}:{gamma}:{word}:{kind}:"
                          f"{weight3[0]}:{weight3[-1]}",
                          _weyl_item(type_label, rank, gamma, word, rs3,
                                     weight3), known))
    warm_tables(lib, [rs_p, rs_gl])
    rng.shuffle(items)
    return Plan(items, [rs_p, rs_gl])


PLANS = {"skew_sweep": skew_sweep, "principal_exact": principal_exact,
         "weyl_numeric": weyl_numeric}
WORKLOADS = tuple(PLANS)
