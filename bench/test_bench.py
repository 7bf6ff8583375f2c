"""Tests of the benchmark itself, on the tiny size of each workload."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import KNOWN_DEFECTS, WORKLOADS, skew_shapes

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace, seed=7):
    return run.run_benchmark(workload, seed, seconds=0, trace=trace,
                             size="tiny", setup_repeats=1)


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


def assert_only_known_failures(result):
    assert result["correct"]
    assert result["unexpected"] == []
    for f in result["failures"]:
        assert f["known"] in {text for text, _ in KNOWN_DEFECTS.values()}
        assert f["id"] and f["reason"]


def test_spec_names_the_workloads_and_metrics():
    # principal_exact runs in the ladder and from the command line only
    assert [w["name"] for w in SPEC["workloads"]] == ["skew_sweep",
                                                      "weyl_numeric"]
    assert set(WORKLOADS) == {"skew_sweep", "principal_exact",
                              "weyl_numeric"}
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.PER_LAYER_UNITS)


def test_skew_shapes_are_normalised():
    assert len(skew_shapes(4)) == 69
    assert len(skew_shapes(3)) == 16
    assert ((1,), ()) in skew_shapes(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    result = tiny(workload, trace=False)
    assert_metrics(result, SPEC["end_to_end"])
    assert_only_known_failures(result)
    assert result["attempted"] == result["counts_per_pass"]["items"] >= 1
    prov = result["provenance"]
    for key in ("commit", "seed", "python", "numpy", "nproc", "caps"):
        assert key in prov
    for item in result["items"]:
        for step in item["provenance"]:
            assert step["backend"] in ("exact", "numeric")


def test_known_defects_stay_in_and_are_named():
    skew = tiny("skew_sweep", trace=False)
    weyl = tiny("weyl_numeric", trace=False)
    assert len(skew["failures"]) == 1
    assert skew["failures"][0]["id"].startswith("skew:(1,)/()@")
    assert "UnsupportedType" in skew["failures"][0]["reason"]
    assert len(weyl["failures"]) == 1
    assert "root_of_unity_p" in weyl["failures"][0]["id"]


def test_traced_run_emits_every_per_layer_metric_and_same_counts():
    traced = tiny("skew_sweep", trace=True)
    assert_metrics(traced, SPEC["per_layer"])
    assert_only_known_failures(traced)
    assert traced["counts_repeat"]
    assert traced["counts_per_pass"] == tiny("skew_sweep", False)[
        "counts_per_pass"]
    assert all(traced["layer_source"][name] for name in run.PER_LAYER_UNITS
               if name in traced["layer_source"])
    for rec in traced["spans"]:
        assert {"name", "start", "end", "parent", "item", "raised"} <= set(rec)
        assert rec["end"] >= rec["start"]


def test_setup_repeats_run_in_child_processes():
    lib, plan, times = run.set_up("skew_sweep", 1, "tiny", repeats=2)
    assert len(times) == 2 and all(t > 0 for t in times)
    assert plan.items and lib.repn is sys.modules["affine_hecke.repn"]


def test_second_verify_is_left_out_of_layer_self_time():
    tracer = spans.Tracer()
    tracer.enabled = True
    with tracer.span("repn", "calibrated_module") as build:
        pass
    with tracer.span("repn", "verify_relations", of=build["id"]):
        pass
    assert spans.layer_self_time(tracer.spans)["repn"] == spans.duration(
        tracer.spans[0])
    assert spans.summarize(tracer.spans)["repn.verify_relations"]["calls"] == 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "skew_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
