"""Run one benchmark workload of affine_hecke and print its metrics.

    python3 bench/run.py --workload skew_sweep --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` of that checkout and nowhere else; without it the script exits with
code 2 and prints no result. One process, one thread (BLAS included).

A run sets up (imports the library, generates the seeded inputs, builds the
per-root-system tables behind principal_series) once in its own process and
four more times in fresh child processes, and reports the median as
``setup_s``. It then runs whole passes over the workload's items
for about ``--seconds`` and checks every item. Report lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Full results,
provenance and (traced) spans go to ``bench/out/``.

``--trace 1`` alternates untraced and traced passes, so the two item rates
give the tracing overhead. Traced items are followed, outside their timing,
by a second ``verify_relations`` on each module they built; afterwards the
run times normal forms and exact-versus-numeric relation checks directly,
and runs one small pass of the other workloads (the ladder), which supplies
the per-layer metrics of layers this workload does not call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
from workloads import KNOWN_DEFECTS, PLANS, WORKLOADS, ItemRecord

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# the library's modules, which are also the layers of the traced run
LIB_MODULES = ("rootsys", "weights", "regions", "algebra", "scalars", "repn",
               "tableaux")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SCALARS_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
                    "item_p90_s": "s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}
# module builders: construction time is the builder span minus a second
# verify_relations on the module it returned
BUILDERS = ("repn.calibrated_module", "repn.principal_series_exact",
            "repn.principal_series_numeric")
OP_SPANS = (
    "rootsys.build", "rootsys.weyl_elements",
    "weights.dominant_representative",
    "regions.chamber_set_pruned", "regions.is_skew", "regions.chamber_set",
    "regions.fibers",
    "algebra.normal_form", "algebra.is_central",
    "scalars.verify_exact", "scalars.verify_numeric",
    "repn.verify_relations", "repn.commutant_dim",
    "repn.weight_decomposition_exact", "repn.weight_decomposition_numeric",
    "repn.spherical_exact", "repn.spherical_numeric",
    "tableaux.region_to_configuration", "tableaux.enumerate_standard",
    "tableaux.verify_bijection",
)
COUNT_METRICS = {"rootsys.weyl_order": "weyl_order",
                 "regions.chambers": "chambers",
                 "repn.module_dim": "module_dim",
                 "tableaux.fillings": "fillings"}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_library() -> SimpleNamespace:
    import numpy  # noqa: F401  the library imports it lazily; pay it here
    mods = {name: importlib.import_module(f"affine_hecke.{name}")
            for name in LIB_MODULES}
    origin = Path(mods["rootsys"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"affine_hecke came from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def timed_setup(workload: str, seed: int, size: str):
    """Import the library, generate inputs, build tables; (lib, plan, s)."""
    start = perf_counter()
    lib = import_library()
    plan = PLANS[workload](lib, seed, size)
    return lib, plan, perf_counter() - start


# one set-up in a fresh interpreter; prints its time
SETUP_CHILD = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import run
print(run.timed_setup({workload!r}, {seed!r}, {size!r})[2])
"""


def set_up(workload: str, seed: int, size: str, repeats: int = SETUP_REPEATS):
    """Set up here, then `repeats` - 1 more times, each in a fresh child
    process, so every repeat pays the imports and tables a one-shot process
    pays. Returns the library and plan set up here, and all the times."""
    lib, plan, first = timed_setup(workload, seed, size)
    times = [first]
    code = SETUP_CHILD.format(bench=str(BENCH_DIR), src=str(SRC),
                              workload=workload, seed=seed, size=size)
    for _ in range(repeats - 1):
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]))
    return lib, plan, times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_item(lib, tracer: spans.Tracer, item) -> ItemRecord:
    rec = ItemRecord(item.id, item.known)
    tracer.item = item.id
    start = perf_counter()
    with tracer.span("bench", "item"):
        try:
            item.run(lib, tracer, rec)
        except Exception as exc:  # a raising item is a failed item; go on
            rec.error = f"{type(exc).__name__}: {exc}"
            rec.traceback = traceback.format_exc(limit=-3)
    rec.seconds = perf_counter() - start
    return rec


def reverify(lib, tracer: spans.Tracer, rec: ItemRecord) -> list:
    """Second verify_relations on each built module; returns the modules."""
    mods = []
    for builder, m in rec.modules:
        with tracer.span("repn", "verify_relations", of=builder["id"]):
            lib.repn.verify_relations(m)
        mods.append(m)
    rec.modules = []
    return mods


def run_passes(lib, plan, tracer: spans.Tracer, seconds: float, trace: bool):
    """Whole passes over the plan, while another pass brings the elapsed
    time nearer to `seconds` (judged by the mean pass so far). Elapsed time
    includes the second verify_relations of traced passes, which item times
    leave out, so a traced run lasts about as long as an untraced one.

    With trace, passes alternate untraced and traced, starting untraced.
    Returns (passes, largest exact module of the traced passes); each pass
    is {"traced": bool, "seconds": float, "records": [ItemRecord]}, where
    "seconds" sums the pass's item times.
    """
    passes, largest, elapsed = [], None, 0.0
    while (not passes or (trace and len(passes) < 2)
           or elapsed + elapsed / len(passes) / 2 < seconds):
        traced = trace and len(passes) % 2 == 1
        tracer.enabled, tracer.phase = traced, "loop"
        records, busy, start = [], 0.0, perf_counter()
        for item in plan.items:
            rec = run_item(lib, tracer, item)
            busy += rec.seconds
            if traced:
                largest = largest_exact(largest, reverify(lib, tracer, rec))
            rec.modules = []
            records.append(rec)
        passes.append({"traced": traced, "seconds": busy, "records": records})
        elapsed += perf_counter() - start
    tracer.enabled = False
    return passes, largest


def largest_exact(best, modules):
    for m in modules:
        if m.backend == "exact" and (best is None or m.dim > best.dim):
            best = m
    return best


# ---------------------------------------------------------------------------
# traced-run probes
# ---------------------------------------------------------------------------

def normal_form_probe(lib, tracer: spans.Tracer, systems) -> int:
    """Time T_i * T_w and X^g * T_w over W, the products behind the tables."""
    alg = lib.algebra.AlgebraElt
    terms = 0
    tracer.enabled, tracer.phase, tracer.item = True, "probe", "normal_form"
    for rs in systems:
        for w in rs.weyl_elements():
            tw = alg.t_word(rs, w.reduced_word())
            left = ([alg.t_generator(rs, i) for i in range(rs.rank)]
                    + [alg.x_monomial(rs, g) for g in rs.lattice_generators()])
            for a in left:
                terms += len(tracer.call("algebra", "normal_form",
                                         a.__mul__, tw).terms)
    tracer.enabled = False
    return terms


def scalars_probe(lib, tracer: spans.Tracer, module) -> dict:
    """verify_relations on an exact module and on its numeric copy."""
    repn = lib.repn
    q0 = repn.DEFAULT_Q0
    tracer.enabled, tracer.phase, tracer.item = True, "probe", "scalars"

    def specialize(mats):
        return [[[x.specialize(q0) for x in row] for row in m] for m in mats]

    t_mats = tracer.call("scalars", "specialize", specialize, module.t_mats)
    x_mats = tracer.call("scalars", "specialize", specialize, module.x_mats)
    copy = repn.ModuleRep.from_matrices(
        module.rs, module.basis, t_mats, x_mats, backend="numeric", q0=q0,
        verify=False)
    for _ in range(SCALARS_REPEATS):
        tracer.call("scalars", "verify_exact", repn.verify_relations, module)
        tracer.call("scalars", "verify_numeric", repn.verify_relations, copy)
    tracer.enabled = False
    return {"kind": module.kind, "dim": module.dim,
            "root_system": repr(module.rs)}


def ladder(lib, tracer: spans.Tracer, workload: str, seed: int):
    """One traced pass of the tiny size of every other workload."""
    records, systems, largest = [], [], None
    for other in WORKLOADS:
        if other == workload:
            continue
        plan = PLANS[other](lib, seed, "tiny")
        systems += plan.table_systems
        for item in plan.items:
            tracer.enabled, tracer.phase = True, "ladder"
            rec = run_item(lib, tracer, item)
            largest = largest_exact(largest, reverify(lib, tracer, rec))
            tracer.enabled = False
            records.append(rec)
    return records, systems, largest


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(values, p: float) -> float:
    """The p-th percentile by nearest rank."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def pass_counts(records) -> dict:
    out = {"items": len(records)}
    for rec in records:
        for key, n in rec.counts.items():
            out[key] = out.get(key, 0) + n
    return out


def end_to_end(setup_times, passes) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes.

    Every pass runs the same items, so a percentile is taken within each
    pass and the median over passes is reported: pooling k passes would make
    the p90 order statistic, and with it the metric, depend on k.
    """
    records = [r for p in passes for r in p["records"]]
    busy = sum(p["seconds"] for p in passes)
    times = [[r.seconds for r in p["records"]] for p in passes]
    ok = sum(r.ok for r in records)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(records) / busy,
        "item_p50_s": statistics.median(statistics.median(t) for t in times),
        "item_p90_s": statistics.median(nearest_rank(t, 0.9)
                                        for t in times),
        "ok_frac": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    beyond = sum(r.seconds > values["item_p90_s"] for r in records)
    notes = {"samples": len(records), "p90_beyond": beyond,
             "fail_frac": 1 - ok / len(records), "passes": len(passes),
             "timed_s": busy, "setup_repeats_s": setup_times}
    return values, notes


def per_layer(passes, ladder_records, probe: dict, all_spans) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    by_phase = {phase: [s for s in all_spans if s["phase"] == phase]
                for phase in ("loop", "ladder", "probe")}
    summaries = {phase: spans.summarize(s) for phase, s in by_phase.items()}
    selfs = {phase: spans.layer_self_time(s) for phase, s in by_phase.items()}
    per_pass = {"loop": len(traced), "ladder": 1, "probe": 1}
    out, source = {}, {}

    def first(phases, table, name):
        for phase in phases:
            if name in table[phase]:
                return phase, table[phase][name]
        return None, None

    for name in OP_SPANS:
        phase, summ = first(("loop", "ladder", "probe"), summaries, name)
        out[f"{name}_s"] = summ["median_s"] if summ else 0.0
        source[f"{name}_s"] = phase

    for builder in BUILDERS:
        for phase in ("loop", "ladder"):
            spans_ = by_phase[phase]
            builds = {s["id"]: spans.duration(s) for s in spans_
                      if s["name"] == builder}
            net = [builds[s["of"]] - spans.duration(s) for s in spans_
                   if s["name"] == "repn.verify_relations"
                   and s["of"] in builds]
            if net:
                out[f"{builder}_s"] = statistics.median(net)
                source[f"{builder}_s"] = phase
                break
        else:
            out[f"{builder}_s"] = 0.0
            source[f"{builder}_s"] = None

    for layer in LIB_MODULES:
        phase = next((ph for ph in ("loop", "ladder", "probe")
                      if layer in selfs[ph]), None)
        out[f"{layer}.self_s"] = (selfs[phase][layer] / per_pass[phase]
                                  if phase else 0.0)
        source[f"{layer}.self_s"] = phase

    loop_counts = pass_counts(traced[0]["records"])
    ladder_counts = pass_counts(ladder_records)
    for metric, key in COUNT_METRICS.items():
        use = loop_counts if loop_counts.get(key) else ladder_counts
        out[metric] = use.get(key, 0)
        source[metric] = "loop" if use is loop_counts else "ladder"
    out["algebra.normal_form_terms"] = probe["normal_form_terms"]
    out["scalars.exact_over_numeric"] = (out["scalars.verify_exact_s"]
                                         / out["scalars.verify_numeric_s"])
    out["bench.items_per_pass"] = loop_counts["items"]

    rate = {}
    for label, group in (("traced", traced), ("untraced", untraced)):
        rate[label] = (sum(len(p["records"]) for p in group)
                       / sum(p["seconds"] for p in group))
    out["trace.items_per_s"] = rate["traced"]
    out["trace.untraced_items_per_s"] = rate["untraced"]
    out["trace.overhead"] = rate["untraced"] / rate["traced"] - 1
    return {"values": out, "source": source, "spans": summaries}


PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in OP_SPANS + BUILDERS},
    **{f"{layer}.self_s": "s" for layer in LIB_MODULES},
    **{name: "count" for name in COUNT_METRICS},
    "algebra.normal_form_terms": "count", "bench.items_per_pass": "count",
    "scalars.exact_over_numeric": "ratio", "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s", "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(lib, workload, seed, seconds, trace, size) -> dict:
    import numpy
    tab = lib.tableaux
    enum_env = os.environ.get(tab.ENUM_CAP_ENV)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caps": {
            lib.rootsys.WEYL_CAP_ENV: lib.rootsys.weyl_cap(),
            tab.ENUM_CAP_ENV: (int(enum_env) if enum_env is not None else
                               {"finite": tab.FINITE_ENUM_CAP,
                                "typec": tab.TYPEC_ENUM_CAP}),
        },
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", setup_repeats: int = SETUP_REPEATS
                  ) -> dict:
    # setup_s is an end-to-end metric only, so a traced run sets up once
    lib, plan, setup_times = set_up(workload, seed, size,
                                    1 if trace else setup_repeats)
    tracer = spans.Tracer()
    passes, largest = run_passes(lib, plan, tracer, seconds, trace)
    records = [r for p in passes for r in p["records"]]
    counts = [pass_counts(p["records"]) for p in passes]
    ladder_records = []
    result = {"provenance": provenance(lib, workload, seed, seconds, trace,
                                       size),
              "counts_per_pass": counts[0],
              "counts_repeat": all(c == counts[0] for c in counts)}
    if trace:
        ladder_records, systems, ladder_largest = ladder(lib, tracer,
                                                         workload, seed)
        probe = {"normal_form_terms": normal_form_probe(
            lib, tracer, plan.table_systems or systems)}
        probe["scalars_base"] = scalars_probe(lib, tracer,
                                              largest or ladder_largest)
        layer = per_layer(passes, ladder_records, probe, tracer.spans)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in layer["values"].items()}
        result.update(layer_source=layer["source"], span_summary=layer["spans"],
                      probe=probe, spans=tracer.spans,
                      ladder=[r.summary() for r in ladder_records])
    else:
        values, notes = end_to_end(setup_times, passes)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        result["notes"] = notes
    failures = {}  # one entry per failed item id, however many passes
    for ladder_item, group in ((False, records), (True, ladder_records)):
        for r in group:
            if not r.ok:
                failures[r.id] = {
                    "id": r.id, "reason": r.reason, "ladder": ladder_item,
                    "expected": r.expected, "traceback": r.traceback,
                    "known": r.known and KNOWN_DEFECTS[r.known][0]}
    unexpected = sorted(f["id"] for f in failures.values()
                        if not f["expected"])
    result.update(
        correct=not unexpected and result["counts_repeat"],
        attempted=len(records), failed=sum(not r.ok for r in records),
        metrics=metrics, passes=[{"traced": p["traced"],
                                  "seconds": p["seconds"]} for p in passes],
        items=[r.summary() for r in records],
        failures=list(failures.values()), unexpected=unexpected)
    return result


def report_lines(result: dict) -> list[str]:
    prov = result["provenance"]
    lines = [
        "workload={workload} seed={seed} trace={trace} size={size} "
        "commit={commit} python={python} numpy={numpy} nproc={nproc}"
        .format(**prov),
        "caps: " + " ".join(f"{k}={v}" for k, v in prov["caps"].items()),
    ]
    source = result.get("layer_source", {})
    for name, m in result["metrics"].items():
        where = source.get(name)
        where = f" [{where}]" if where not in (None, "loop") else ""
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{where}")
    probe = result.get("probe")
    if probe:
        base = probe["scalars_base"]
        values = {k: result["metrics"][f"scalars.{k}_s"]["value"]
                  for k in ("verify_exact", "verify_numeric")}
        lines.append(
            f"scalars probe: verify_relations on a {base['kind']} module of "
            f"dim {base['dim']} over {base['root_system']}: exact "
            f"{values['verify_exact']:.6g} s, numeric copy "
            f"{values['verify_numeric']:.6g} s")
    notes = result.get("notes")
    if notes:
        lines.append(
            f"item times: {notes['samples']} samples in {notes['passes']} "
            f"passes ({notes['p90_beyond']} beyond p90; percentiles taken per"
            f" pass, median over passes); timed={notes['timed_s']:.3f} s; setup "
            "repeats="
            + ", ".join(f"{t:.4f}" for t in notes["setup_repeats_s"]) + " s")
        lines.append(f"fail_frac = {notes['fail_frac']:.6g} ratio "
                     "(1 - ok_frac; not a BENCHMARK.json metric, as it is 0 "
                     "on principal_exact and once the known defects are "
                     "fixed)")
    lines.append("counts per pass: " + " ".join(
        f"{k}={v}" for k, v in sorted(result["counts_per_pass"].items()))
        + ("" if result["counts_repeat"] else " (DIFFER between passes)"))
    lines.append(f"checks: attempted={result['attempted']} "
                 f"failed={result['failed']} correct={result['correct']}")
    for f in result["failures"]:
        tag = (f"known defect: {f['known']}" if f["expected"]
               else "UNEXPECTED")
        where = "FAILED (ladder)" if f["ladder"] else "FAILED"
        lines.append(f"  {where} {f['id']}: {f['reason']} [{tag}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affine_hecke" / "__init__.py").is_file():
        print(f"error: no affine_hecke package under {SRC}", file=sys.stderr)
        return 2
    # one thread: numpy's BLAS would otherwise start one per core
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    out.write_text(json.dumps(result, indent=1, default=str))
    for line in report_lines(result):
        print(line)
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
