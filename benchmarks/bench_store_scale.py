"""Store scaling: O(delta) format-2 appends vs the format-1 rewrite.

The format-1 store made every ``save_cache`` a locked read-merge-rewrite
of one monolithic JSON file, so persisting the handful of rows a run just
computed cost O(total store size) — exactly the wrong scaling for process
fleets flushing into one shared directory.  Store format 2 appends only
the dirty delta to per-shard segment logs.

This benchmark pins the scaling claim: with a pre-existing store of
``size`` rows, it times persisting a fixed 256-row delta

* **format 2** — :meth:`~repro.runtime.store.RuntimeStore.save_cache`
  against a compacted store (auto-compaction disabled so the append cost
  is measured in isolation), and
* **format 1** — a faithful replica of the seed's read-merge-rewrite
  against a monolithic file of the same ``size`` rows,

then asserts the format-2 cost stays roughly flat across store sizes
while the rewrite grows linearly (≥10× slower by ~100k rows).  A
round-trip check guards against benchmarking a store that drops rows.

**Warm-start load scaling** (the read-side claim): against stores of up
to 1M+ rows, a fixed ~16-key population is read through both
``load_cache_into`` paths — a whole-store replay (``keys=None``,
O(store)) and per-shard index point lookups (``keys=``,
O(population)).  The bench asserts both paths return bit-identical
rows for the population, that the index path stays flat as the store
grows 100×, and reports the index hit rate.

Results land in ``BENCH_store.json`` at the repo root.  Run directly
(``python benchmarks/bench_store_scale.py``) or via pytest
(``pytest benchmarks/bench_store_scale.py``).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, Tuple

from repro.engine.cache import IndicatorCache
from repro.proxies.base import ProxyConfig
from repro.runtime.store import (
    RuntimeStore,
    _decode_key,
    _encode_key,
    cache_fingerprint,
)
from repro.searchspace.network import MacroConfig
from repro.utils.timing import Timer, format_duration

STORE_SIZES = (1_000, 10_000, 100_000)
DELTA_ROWS = 256
#: Read-side scaling: stores of these sizes, a fixed small population.
LOAD_STORE_SIZES = (10_000, 100_000, 1_000_000)
LOAD_SHARDS = 64          # a fleet-scale shard count
LOAD_POPULATION = 16      # keys one warm-start asks for
LOAD_FILL_BATCH = 100_000  # rows per save while building big stores
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def _key(i: int) -> Tuple:
    # Realistic key shape: kind, canonical index, repeat, config tuple.
    return ("ntk", i, 1, (4, 1, 8, 10, 8, 32))


def _filled_cache(start: int, count: int) -> IndicatorCache:
    cache = IndicatorCache()
    for i in range(start, start + count):
        cache.put(_key(i), float(i) * 1.5)
    return cache


def _format1_rewrite_save(path: Path, fingerprint: Dict,
                          cache: IndicatorCache) -> int:
    """The seed store's save algorithm: read the whole monolithic file,
    merge the cache in, sort, rewrite — O(total store size)."""
    entries = {}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("fingerprint") == fingerprint:
            for encoded_key, value in payload.get("entries", []):
                entries[_decode_key(encoded_key)] = value
    for key, value in cache.items():
        entries[key] = value
    ordered = sorted(entries.items(), key=lambda kv: repr(kv[0]))
    payload = {
        "fingerprint": fingerprint,
        "entries": [[_encode_key(key), value] for key, value in ordered],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return len(ordered)


class _PopulationSink:
    """A duck-typed cache that keeps only the population's rows: the
    replay still parses and merges every row, but a 1M-row store is not
    held in memory a second time."""

    def __init__(self, keys) -> None:
        self.keys = set(keys)
        self.rows: Dict = {}

    def __contains__(self, key) -> bool:
        return False

    def put(self, key, value) -> None:
        if key in self.keys:
            self.rows[key] = value


def run_load_scale() -> Dict:
    """Warm-start read cost for a fixed population vs store size."""
    proxy_config = ProxyConfig()
    macro_config = MacroConfig.full()
    fingerprint = cache_fingerprint(proxy_config, macro_config)

    load_points = []
    bit_identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for size in LOAD_STORE_SIZES:
            root = Path(tmp) / f"load_store_{size}"
            store = RuntimeStore(root, shards=LOAD_SHARDS,
                                 auto_compact_segments=None)
            # Build in batches (one cache of 1M rows would be most of a
            # GB of tuples); compact once, so reads hit per-shard bases
            # + fresh indexes — the steady state of a long-lived store.
            filled = 0
            while filled < size:
                batch = min(LOAD_FILL_BATCH, size - filled)
                store.save_cache(_filled_cache(filled, batch), fingerprint)
                filled += batch
            store.compact_cache(fingerprint)

            # A population's worth of keys, spread across the store.
            stride = size // LOAD_POPULATION
            population = [_key(j * stride) for j in range(LOAD_POPULATION)]

            sink = _PopulationSink(population)
            with Timer() as full_timer:
                loaded = store.load_cache_into(sink, fingerprint)
            assert loaded == size, loaded
            target = IndicatorCache()
            with Timer() as index_timer:
                loaded = store.load_cache_into(target, fingerprint,
                                               keys=population)
            assert loaded == LOAD_POPULATION, loaded
            stats = store.last_load_stats  # the index load's stats
            if sink.rows != dict(target.items()):
                bit_identical = False

            load_points.append({
                "store_size": size,
                "requested": LOAD_POPULATION,
                "full_load_seconds": full_timer.elapsed,
                "index_load_seconds": index_timer.elapsed,
                "index_hit_rate": (stats["index_hits"]
                                   / max(stats["requested"], 1)),
                "index_speedup": (full_timer.elapsed
                                  / max(index_timer.elapsed, 1e-9)),
            })

    index_flat = (load_points[-1]["index_load_seconds"]
                  / max(load_points[0]["index_load_seconds"], 1e-9))
    return {
        "load_store_sizes": list(LOAD_STORE_SIZES),
        "load_shards": LOAD_SHARDS,
        "load_population": LOAD_POPULATION,
        "load_points": load_points,
        # Index-mode load time at the largest store over the smallest:
        # ~1.0 means warm-start latency is O(population), flat in store
        # size across a 100x growth.
        "index_load_flatness_ratio": index_flat,
        "index_load_speedup_at_largest": load_points[-1]["index_speedup"],
        "index_hit_rate": load_points[-1]["index_hit_rate"],
        "read_paths_bit_identical": bit_identical,
    }


def run_store_scale() -> Dict:
    proxy_config = ProxyConfig()
    macro_config = MacroConfig.full()
    fingerprint = cache_fingerprint(proxy_config, macro_config)
    legacy_fingerprint = dict(fingerprint, format=1)

    points = []
    with tempfile.TemporaryDirectory() as tmp:
        for size in STORE_SIZES:
            root = Path(tmp) / f"store_{size}"
            store = RuntimeStore(root, auto_compact_segments=None)

            # Pre-existing state: `size` rows compacted into the base.
            pre = _filled_cache(0, size)
            store.save_cache(pre, fingerprint)
            store.compact_cache(fingerprint)

            delta = _filled_cache(size, DELTA_ROWS)
            with Timer() as format2_timer:
                appended = store.save_cache(delta, fingerprint)
            assert appended == DELTA_ROWS

            # Round-trip guard: the appended rows actually persisted.
            check = IndicatorCache()
            loaded = store.load_cache_into(check, fingerprint, strict=True)
            assert loaded == size + DELTA_ROWS

            # Format-1 baseline: same pre-existing size, same delta,
            # via the monolithic read-merge-rewrite.
            legacy_path = root / "format1_cache.json"
            _format1_rewrite_save(legacy_path, legacy_fingerprint, pre)
            with Timer() as format1_timer:
                _format1_rewrite_save(legacy_path, legacy_fingerprint,
                                      delta)

            points.append({
                "store_size": size,
                "delta_rows": DELTA_ROWS,
                "format2_save_seconds": format2_timer.elapsed,
                "format1_save_seconds": format1_timer.elapsed,
                "rewrite_over_append":
                    format1_timer.elapsed / max(format2_timer.elapsed,
                                                1e-9),
            })

    flat_ratio = (points[-1]["format2_save_seconds"]
                  / max(points[0]["format2_save_seconds"], 1e-9))
    result = {
        "store_sizes": list(STORE_SIZES),
        "delta_rows": DELTA_ROWS,
        "points": points,
        # Format-2 append cost at the largest store over the smallest:
        # ~1.0 means save cost is independent of store size.
        "format2_flatness_ratio": flat_ratio,
        "speedup_at_largest": points[-1]["rewrite_over_append"],
    }
    result.update(run_load_scale())
    OUTPUT_PATH.write_text(json.dumps(result, indent=2) + "\n",
                           encoding="utf-8")
    return result


def test_store_scale(benchmark):
    result = benchmark.pedantic(run_store_scale, rounds=1, iterations=1)
    _report(result)
    # The acceptance criterion: appending a fixed delta to a ~100k-row
    # store beats the monolithic rewrite by >= 10x...
    assert result["speedup_at_largest"] >= 10.0
    # ...and append cost is roughly flat in store size (generous bound:
    # the rewrite grows ~100x over the same range).
    assert result["format2_flatness_ratio"] <= 10.0
    # Read side: replay and index reads must agree bit-for-bit...
    assert result["read_paths_bit_identical"] is True
    # ...every requested key must come off the index (fresh after
    # compaction; hit rate 1.0 means zero replay fallbacks)...
    assert result["index_hit_rate"] == 1.0
    # ...and indexed warm-start latency must stay flat while the store
    # grows 100x (generous bound — full replay grows ~100x; a truly
    # store-size-dependent index path would blow far past this).
    assert result["index_load_flatness_ratio"] <= 10.0


def _report(result: Dict) -> None:
    print()
    for point in result["points"]:
        print(f"store {point['store_size']:>9,} rows | "
              f"append {point['delta_rows']}: "
              f"{format_duration(point['format2_save_seconds'])}"
              f" | format-1 rewrite: "
              f"{format_duration(point['format1_save_seconds'])}"
              f" | {point['rewrite_over_append']:.1f}x")
    print(f"format-2 flatness ratio : "
          f"{result['format2_flatness_ratio']:.2f} "
          f"(largest/smallest store)")
    print(f"speedup at largest      : "
          f"{result['speedup_at_largest']:.1f}x")
    print()
    for point in result["load_points"]:
        print(f"store {point['store_size']:>9,} rows | "
              f"load {point['requested']} keys | "
              f"replay: {format_duration(point['full_load_seconds'])} | "
              f"index: {format_duration(point['index_load_seconds'])} "
              f"({point['index_speedup']:.1f}x, "
              f"hit rate {point['index_hit_rate']:.2f})")
    print(f"index flatness ratio    : "
          f"{result['index_load_flatness_ratio']:.2f} "
          f"(largest/smallest store)")
    print(f"read paths bit-identical: "
          f"{result['read_paths_bit_identical']}")
    print(f"written                 : {OUTPUT_PATH}")


if __name__ == "__main__":
    _report(run_store_scale())
