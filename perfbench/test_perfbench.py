"""Tests of the benchmark itself: metric names, spans and output gates."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.bench import END_TO_END, PER_LAYER, result_line, run_workload  # noqa: E402
from perfbench.spans import Tracer, layer_totals  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    TINY,
    WORKLOADS,
    Gate,
    Workload,
    check_against_reference,
    check_rows,
    persisted_rows,
    reference_engine,
)


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.slow
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric_at_tiny_size(name, tmp_path):
    # One traced run covers both metric sets: its untraced units give the
    # end-to-end metrics, its traced units the per-layer ones.
    report = run_workload(name, seed=3, seconds=0.0, trace=True,
                          out_dir=tmp_path, sizes=TINY)
    assert report["correct"], report["gate"]
    spec = _spec()
    for trace, listed in ((False, spec["end_to_end"]),
                          (True, spec["per_layer"])):
        line = json.loads(json.dumps(result_line(report, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric in listed:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
    for metric in spec["end_to_end"]:
        assert report["metrics"][metric["name"]] > 0.0
    assert report["metrics"]["trace.coverage"] > 0.9
    assert not list(tmp_path.glob("work-*"))


def test_warm_restart_shows_recomputed_latency_rows(tmp_path):
    report = run_workload("warm-restart", seed=1, seconds=0.0, trace=True,
                          out_dir=tmp_path, sizes=TINY)
    assert report["correct"], report["gate"]
    assert report["metrics"]["engine.cache.rows_computed"] > 0
    assert 0.0 < report["metrics"]["runtime.store.served_ratio"] < 1.0


def _harness(tmp_path):
    from repro.runtime.harness import RunHarness, RuntimeConfig

    harness = RunHarness(RuntimeConfig(
        algorithm="random", samples=3, fast=True, seed=5,
        latency_weight=0.5, store_dir=str(tmp_path / "store")))
    harness.run()
    return harness


def test_row_gate_trips_on_one_corrupted_row(tmp_path):
    from repro.engine.cache import IndicatorCache
    from repro.runtime.store import RuntimeStore

    harness = _harness(tmp_path)
    store_dir = str(tmp_path / "store")
    rows = persisted_rows(store_dir, harness.fingerprint)
    gate = Gate()
    check_rows(rows, reference_engine(harness), gate, "clean")
    assert gate.checked == len(rows) > 0 and not gate.failures

    key, value = next((k, v) for k, v in rows
                      if k[0] == "ntk" and math.isfinite(v))
    corrupted = IndicatorCache()
    corrupted.put(key, value * (1.0 + 1e-12))
    RuntimeStore(store_dir).save_cache(corrupted, harness.fingerprint)
    gate = Gate()
    check_rows(persisted_rows(store_dir, harness.fingerprint),
               reference_engine(harness), gate, "corrupted")
    assert len(gate.failures) == 1 and str(key[1]) in gate.failures[0]


def test_reference_gate_trips_on_one_corrupted_ntk_row(tmp_path):
    harness = _harness(tmp_path)
    gate = Gate()
    check_against_reference(harness, 1, gate)
    assert gate.checked == 3 and not gate.failures

    cache = harness.engine.cache
    key = min((k for k, _ in cache.items() if k[0] == "ntk"),
              key=lambda k: k[1])
    cache.put(key, cache.get(key) * (1.0 + 1e-5))
    gate = Gate()
    check_against_reference(harness, 1, gate)
    assert len(gate.failures) == 1 and "NTK" in gate.failures[0]


def test_determinism_gate_trips_when_one_input_disagrees(tmp_path):
    workload = Workload(0, TINY, str(tmp_path))
    workload.results = {0: (7, ("a", ())), 1: (7, ("a", ())),
                        2: (8, ("b", ())), 3: (7, ("c", ()))}
    gate = Gate()
    workload.check(gate)
    assert gate.checked == 4 and len(gate.failures) == 1


def test_self_time_subtracts_children_and_nested_spans_count_once():
    # name, start, end, parent, nested
    spans = [
        ["bench.unit", 0.0, 10.0, -1, False],
        ["search", 1.0, 9.0, 0, False],
        ["proxies.ntk", 2.0, 6.0, 1, False],
        ["proxies.ntk", 3.0, 5.0, 2, True],
        ["autograd.conv2d", 3.5, 4.5, 3, False],
        ["search", 20.0, 21.0, -1, False],  # outside the unit
    ]
    totals = layer_totals(spans, [0])
    assert totals["search"] == {"s": 8.0, "self_s": 4.0, "calls": 1}
    assert totals["proxies.ntk"] == {"s": 4.0, "self_s": 3.0, "calls": 1}
    assert totals["autograd.conv2d"]["self_s"] == 1.0
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_tracer_restores_every_original():
    import repro.autograd.functional as functional
    from repro.runtime.harness import ALGORITHMS, RunHarness

    before = (functional.conv2d, RunHarness.__init__, dict(ALGORITHMS))
    tracer = Tracer()
    tracer.install()
    try:
        assert functional.conv2d is not before[0]
        assert ALGORITHMS["random"] is not before[2]["random"]
    finally:
        tracer.uninstall()
    assert (functional.conv2d, RunHarness.__init__, dict(ALGORITHMS)) \
        == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
