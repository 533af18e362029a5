"""Parallel-runtime speedup: serial vs pool, cold vs persisted warm-start.

Times one population evaluation four ways:

* **serial cold** — a fresh engine, no executor, empty cache: the PR-1
  baseline every run used to pay.
* **pool cold** — a fresh engine fanned out over fork worker processes
  through the :class:`~repro.runtime.async_pool.AsyncPopulationExecutor`
  ``warm_population`` hook.
  Verifies the acceptance criterion that pool-evaluated populations are
  **bit-identical** to serial evaluation (same ``IndicatorTable`` rows).
* **store warm** — a fresh engine whose cache is warm-started from a
  :class:`~repro.runtime.store.RuntimeStore` persisted by the cold run:
  what every repeated benchmark run, CI job and multi-device study pays
  after the first run on a machine.
* **stale store** — a fingerprint-mismatched store must load nothing
  (cold-path timing with a poisoned-store guard, not a wrong answer).

Results land in ``BENCH_parallel.json`` at the repo root, next to
``BENCH_engine.json``, so the perf trajectory is tracked per PR.

Run directly (``python benchmarks/bench_parallel_speedup.py``) or via
pytest (``pytest benchmarks/bench_parallel_speedup.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.engine import Engine
from repro.eval.benchconfig import bench_scale, search_proxy_config
from repro.runtime import (
    AsyncPopulationExecutor,
    RuntimeStore,
    cache_fingerprint,
)
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer, format_duration

POPULATION_SIZE = 48
N_WORKERS = max(2, multiprocessing.cpu_count())
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _fresh_engine(proxy_config) -> Engine:
    return Engine(proxy_config=proxy_config, macro_config=MacroConfig.full())


def _tables_bit_identical(a, b) -> bool:
    return all(np.array_equal(a.columns[name], b.columns[name])
               for name in a.columns)


def run_parallel_speedup() -> Dict:
    proxy_config = search_proxy_config()
    population = NasBench201Space().sample(POPULATION_SIZE, rng=7)
    fingerprint = cache_fingerprint(proxy_config, MacroConfig.full())

    serial_engine = _fresh_engine(proxy_config)
    with Timer() as serial_timer:
        serial_table = serial_engine.evaluate_population(population)

    pool_engine = _fresh_engine(proxy_config)
    with AsyncPopulationExecutor(n_workers=N_WORKERS, chunk_size=4,
                                 mode="fork") as executor:
        with Timer() as pool_timer:
            pool_table = pool_engine.evaluate_population(population,
                                                         executor=executor)

    with tempfile.TemporaryDirectory() as tmp:
        store = RuntimeStore(tmp)
        persisted = store.save_cache(serial_engine.cache, fingerprint)

        warm_engine = _fresh_engine(proxy_config)
        with Timer() as load_timer:
            loaded = store.load_cache_into(warm_engine.cache, fingerprint)
        with Timer() as warm_timer:
            warm_table = warm_engine.evaluate_population(population)

        # A stale store (different proxy/macro fingerprint) must be
        # rejected outright — warm-start never trades speed for poison.
        stale_fingerprint = cache_fingerprint(
            proxy_config.with_seed(proxy_config.seed + 1), MacroConfig.full()
        )
        stale_engine = _fresh_engine(proxy_config)
        stale_loaded = store.load_cache_into(stale_engine.cache,
                                             stale_fingerprint)

    warm_seconds = load_timer.elapsed + warm_timer.elapsed
    result = {
        "bench_scale": bench_scale(),
        "population_size": POPULATION_SIZE,
        "unique_canonical": serial_table.unique_canonical,
        "n_workers": N_WORKERS,
        "cpu_count": multiprocessing.cpu_count(),
        "pool_mode": executor.stats.mode,
        "serial_cold_seconds": serial_timer.elapsed,
        "pool_cold_seconds": pool_timer.elapsed,
        "store_load_seconds": load_timer.elapsed,
        "warm_eval_seconds": warm_timer.elapsed,
        "warm_total_seconds": warm_seconds,
        "pool_speedup": serial_timer.elapsed / max(pool_timer.elapsed, 1e-9),
        "warm_speedup": serial_timer.elapsed / max(warm_seconds, 1e-9),
        "pool_bit_identical": _tables_bit_identical(serial_table, pool_table),
        "warm_bit_identical": _tables_bit_identical(serial_table, warm_table),
        "store_entries_persisted": persisted,
        "store_entries_loaded": loaded,
        "stale_store_entries_loaded": stale_loaded,
        "pool": executor.stats.to_dict(),
    }
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_parallel_speedup(benchmark):
    result = benchmark.pedantic(run_parallel_speedup, rounds=1, iterations=1)
    _report(result)
    assert result["pool_bit_identical"]
    assert result["warm_bit_identical"]
    assert result["store_entries_loaded"] == result["store_entries_persisted"]
    assert result["stale_store_entries_loaded"] == 0
    # The persisted-store warm path must beat cold evaluation soundly;
    # pool speedup is hardware-dependent (== serial on 1-core CI) and is
    # recorded rather than asserted.
    assert result["warm_speedup"] >= 3.0


def _report(result: Dict) -> None:
    print()
    print(f"population              : {result['population_size']} "
          f"({result['unique_canonical']} unique canonical)")
    print(f"serial cold             : "
          f"{format_duration(result['serial_cold_seconds'])}")
    print(f"pool cold ({result['n_workers']} workers)    : "
          f"{format_duration(result['pool_cold_seconds'])}"
          f"  -> {result['pool_speedup']:.2f}x ({result['pool_mode']})")
    print(f"store warm (load+eval)  : "
          f"{format_duration(result['warm_total_seconds'])}"
          f"  -> {result['warm_speedup']:.0f}x")
    print(f"pool bit-identical      : {result['pool_bit_identical']}")
    print(f"warm bit-identical      : {result['warm_bit_identical']}")
    print(f"stale store rejected    : "
          f"{result['stale_store_entries_loaded'] == 0}")
    print(f"written                 : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_parallel_speedup())
