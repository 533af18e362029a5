"""Measurement loop, metrics and report of one workload run.

A run sets the workload up :data:`SETUP_REPEATS` times, then times units
(one harness lifecycle each) back to back until ``--seconds`` have passed,
then checks every output.  End-to-end metrics come from untraced units.
A traced run alternates untraced and traced units over the same inputs:
the per-layer metrics come from the traced units (averaged per unit), and
the ratio of traced to untraced run time is the tracing overhead.

Everything the run writes stays under ``.perfbench/`` in the checkout:
the stores the workloads use while running (removed at exit), and a
report with provenance, every metric, every unit and, for traced runs,
the spans.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.spans import LAYERS, UNIT, Tracer, layer_totals
from perfbench.workloads import FULL, WORKLOADS, Gate, Sizes

SETUP_REPEATS = 3

#: name -> unit, as BENCHMARK.json lists them (printed with --trace 0).
END_TO_END = {
    "search_s": "s",
    "rows_per_s": "1/s",
    "restart_ms.p50": "ms",
    "restart_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the per-layer metrics (printed with --trace 1).
PER_LAYER = {
    "autograd.conv2d.s": "s",
    "autograd.conv2d.calls": "count",
    "autograd.backward.s": "s",
    "nn.forward.s": "s",
    "engine.kernels.ntk_jacobian.s": "s",
    "engine.kernels.ntk_jacobian.self_s": "s",
    "engine.kernels.eig.s": "s",
    "searchspace.build.s": "s",
    "searchspace.build.calls": "count",
    "proxies.ntk.s": "s",
    "proxies.line_regions.s": "s",
    "search.self_s": "s",
    "search.rank.s": "s",
    "search.supernets.self_s": "s",
    "engine.evaluate_population.s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.rows_computed": "count",
    "hardware.latency.s": "s",
    "hardware.latency.calls": "count",
    "runtime.pool.warm.self_s": "s",
    "runtime.store.load.s": "s",
    "runtime.store.rows_loaded": "count",
    "runtime.store.served_ratio": "ratio",
    "runtime.store.save.s": "s",
    "runtime.store.rows_saved": "count",
    "runtime.harness.init.s": "s",
    "runtime.harness.close.s": "s",
    "runtime.async_pool.submit.s": "s",
    "runtime.async_pool.gather.s": "s",
    "runtime.async_pool.idle_frac": "ratio",
    "runtime.async_pool.worker_s": "s",
    "runtime.async_pool.tasks": "count",
    "runtime.async_pool.retries": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    ("unknown" outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _time_unit(workload, unit: int, tracer: Optional[Tracer]) -> Dict:
    """Run and time one harness lifecycle; traced when ``tracer`` is set."""
    from repro.runtime.harness import RunHarness

    config = workload.config(unit)
    workload.prepare(unit)
    record: Dict = {"unit": unit, "traced": tracer is not None,
                    "input_seed": config.seed,
                    "async": config.async_mode}
    if tracer is not None:
        tracer.install()
    try:
        with (tracer.span(UNIT) if tracer is not None
              else nullcontext(None)) as root:
            start = time.perf_counter()
            harness = RunHarness(config)
            built = time.perf_counter()
            report = harness.run()
            ran = time.perf_counter()
            harness.close()
            closed = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.finish(unit, harness, report)
    record.update(
        root=root, init_s=built - start, search_s=ran - built,
        restart_s=closed - start,
        hits=report.cache["hits"], misses=report.cache["misses"],
        loaded=report.store["cache_loaded"],
        saved=report.store["cache_saved"],
        chunks=report.pool.get("chunks", 0),
        faults=sum(report.pool.get(k, 0) for k in
                   ("retries", "timeouts", "quarantined")),
        pool=report.pool, arch=report.arch_str)
    return record


def measure(workload, seconds: float, tracer: Optional[Tracer]) -> List[Dict]:
    """Time units until ``seconds`` pass (and the workload's minimum
    count is met); a unit that raises is recorded as an error."""
    units: List[Dict] = []
    min_units = max(workload.min_units, 2 if tracer is not None else 1)
    start = time.perf_counter()
    unit = 0
    while unit < min_units or time.perf_counter() - start < seconds:
        # Pairs alternate which side runs first, so whatever the second
        # run of an input gains from the first does not bias the ratio.
        traced = tracer is not None and unit % 2 != (unit // 2) % 2
        try:
            units.append(_time_unit(workload, unit,
                                    tracer if traced else None))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            units.append({"unit": unit, "traced": traced,
                          "error": repr(exc)})
        unit += 1
    return units


def end_to_end(units: List[Dict], setup_s: float) -> Dict[str, float]:
    runs = [u for u in units if not u["traced"] and "error" not in u]
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    restarts_ms = [u["restart_s"] * 1000.0 for u in runs]
    return {
        "search_s": _median([u["search_s"] for u in runs]),
        "rows_per_s": _median([(u["misses"] + u["loaded"]) / u["search_s"]
                               for u in runs]),
        "restart_ms.p50": _median(restarts_ms),
        "restart_ms.p90": _p90(restarts_ms),
        "setup_s": setup_s,
        "peak_rss_mb": usage / 1024.0,
    }


def per_layer(units: List[Dict], spans: List[list]) -> Dict[str, float]:
    """Per traced unit: layer times from the spans, counts from the
    harness reports."""
    traced = [u for u in units if u["traced"] and "error" not in u]
    n = max(len(traced), 1)
    totals = layer_totals(spans, [u["root"] for u in traced])
    values: Dict[str, float] = {}
    for name, _ in LAYERS:
        entry = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for field in ("s", "self_s", "calls"):
            values[f"{name}.{field}"] = entry[field] / n
    unit_seconds = sum(spans[u["root"]][2] - spans[u["root"]][1]
                       for u in traced)
    named = sum(entry["self_s"] for name, entry in totals.items()
                if name != UNIT)
    values["trace.coverage"] = named / unit_seconds if unit_seconds else 0.0
    # Units 2k and 2k+1 run one input, one of them traced.
    by_unit = {u["unit"]: u for u in units if "error" not in u}
    ratios = [u["search_s"] / by_unit[u["unit"] ^ 1]["search_s"]
              for u in traced if u["unit"] ^ 1 in by_unit]
    values["trace.overhead"] = _median(ratios)

    hits = sum(u["hits"] for u in traced)
    misses = sum(u["misses"] for u in traced)
    loaded = sum(u["loaded"] for u in traced)
    values["engine.cache.hit_ratio"] = (hits / (hits + misses)
                                        if hits + misses else 0.0)
    values["engine.cache.rows_computed"] = misses / n
    values["runtime.store.rows_loaded"] = loaded / n
    values["runtime.store.served_ratio"] = (loaded / (loaded + misses)
                                            if loaded + misses else 0.0)
    values["runtime.store.rows_saved"] = sum(u["saved"] for u in traced) / n
    pools = [u["pool"] for u in traced if u["async"]]
    idle = [p["idle_fraction"] for p in pools
            if p.get("idle_fraction") is not None]
    values["runtime.async_pool.idle_frac"] = (statistics.fmean(idle)
                                              if idle else 0.0)
    for metric, key in (("worker_s", "worker_seconds"), ("tasks", "tasks"),
                        ("retries", "retries")):
        values[f"runtime.async_pool.{metric}"] = (
            sum(p[key] for p in pools) / n)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, sizes: Sizes = FULL) -> Dict:
    """Set up, measure and check one workload; returns the report."""
    started = time.perf_counter()
    import numpy

    import repro.runtime.harness  # noqa: F401  (import time is set-up)

    import_s = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    workload = WORKLOADS[name](seed, sizes, work_dir, trace)
    tracer = Tracer() if trace else None
    gate = Gate()
    setup_times: List[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
        units = measure(workload, seconds, tracer)
        workload.check(gate)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = [u for u in units if "error" in u]
    attempted = (len(units) + sum(u.get("chunks", 0) for u in units)
                 + gate.checked)
    failed = (len(errors) + sum(u.get("faults", 0) for u in units)
              + len(gate.failures))
    untraced = sum(1 for u in units if not u["traced"] and "error" not in u)
    metrics = end_to_end(units, import_s + _median(setup_times))
    if tracer is not None:
        metrics.update(per_layer(units, tracer.spans))
    metrics["error_rate"] = failed / attempted
    report = {
        "provenance": {
            "git_sha": git_sha(out_dir.parent),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "workload": name,
            "seed": seed,
            "scale": workload.scale(),
            "seconds": seconds,
            "trace": trace,
            "setup_repeats": SETUP_REPEATS,
            "units": len(units),
            "untraced_units": untraced,
            "traced_units": sum(1 for u in units if u["traced"]),
        },
        "correct": not gate.failures and not errors and untraced > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "gate": {"checked": gate.checked, "failures": gate.failures},
        "units": [{k: v for k, v in u.items() if k != "root"}
                  for u in units],
    }
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(f"{stem}-spans.json")
    return report


def result_line(report: Dict, trace: bool) -> Dict:
    """The run's final stdout line: the metrics BENCHMARK.json lists for
    this mode, each with its unit."""
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in names.items()},
    }
