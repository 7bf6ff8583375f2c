"""Dropped work is freed by reference counting alone.

Every benchmark item and every shape of a theorem sweep builds fresh root
systems, walks W and builds modules over them. Nothing of that may wait for
the cyclic garbage collector: a Weyl element is a handle that points at its
root system's data, and nothing there points back at an element.
"""

import gc
import weakref

from affine_hecke import regions as rg
from affine_hecke import repn
from affine_hecke import tableaux as tb
from affine_hecke.rootsys import build
from affine_hecke.weights import weight


def work():
    """Weyl, module and tableau work on fresh root systems; returns weak
    references to those root systems."""
    refs = []
    for label in "BD":
        rs = build(label, 4)
        refs.append(weakref.ref(rs))
        elements = rs.weyl_elements()
        w = elements[len(elements) // 2]
        assert w.inverse().inverse() == w
        s = rs.reflection(rs.positive_roots[-1])
        assert s * s == rs.identity() != s
        t = weight(rs, (2, 1, 1, 0))
        fibers = rg.fibers(t)
        J = max(fibers, key=lambda key: len(fibers[key]))
        assert rg.chamber_set_pruned(t, J).elements == fibers[J].elements
    rs = build("A", 3)
    refs.append(weakref.ref(rs))
    module = repn.principal_series(weight(rs, (0, 1, 2, 3)),
                                   backend="numeric")
    assert module.report["all_pass"]
    cfg = tb.region_to_configuration(*tb.skew_to_region((3, 2), (1,)))
    refs.append(weakref.ref(cfg.t.rs))
    module = repn.calibrated_module(cfg.region, backend="exact")
    assert len(tb.enumerate_standard(cfg)) == module.dim
    assert tb.verify_bijection(cfg).ok
    return refs


def test_dropped_work_leaves_no_cyclic_garbage():
    work()  # once first, for lazy imports and the process-wide tables
    gc.collect()
    gc.disable()
    try:
        refs = work()
        alive = [repr(ref()) for ref in refs if ref() is not None]
        found = gc.collect()
    finally:
        gc.enable()
    assert not alive, f"root systems still referenced: {alive}"
    assert found == 0, f"{found} objects waited for the cyclic collector"
