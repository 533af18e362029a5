"""Store round-trips and fingerprint rejection."""

import json

import pytest

pytestmark = pytest.mark.store

from repro.engine import Engine, IndicatorCache
from repro.hardware.device import NUCLEO_F411RE, NUCLEO_F746ZG
from repro.hardware.latency import LatencyEstimator
from repro.runtime.store import (
    RuntimeStore,
    StoreError,
    cache_fingerprint,
    _decode_key,
    _encode_key,
)
from repro.searchspace.network import MacroConfig
from repro.searchspace.space import NasBench201Space


@pytest.fixture()
def store(tmp_path):
    return RuntimeStore(tmp_path / "store")


class TestKeyCodec:
    def test_nested_tuples_round_trip(self):
        keys = [
            ("ntk", 123, 1, (4, 1, 8, 10, 8, 32, 4, 2, 1, 1, 7,
                             "batched", "batched")),
            ("supernet_ntk", (("none", "skip_connect"), ("nor_conv_3x3",)),
             (1, 2)),
            ("latency", 5, "nucleo-f746zg", "float32", (16, 5, 10, 3, 32)),
        ]
        for key in keys:
            assert _decode_key(json.loads(json.dumps(_encode_key(key)))) == key


class TestIndicatorCachePersistence:
    def test_round_trip_bit_identical(self, store, tiny_proxy_config):
        population = NasBench201Space().sample(6, rng=13)
        engine = Engine(proxy_config=tiny_proxy_config)
        table = engine.evaluate_population(population)
        fingerprint = cache_fingerprint(tiny_proxy_config, MacroConfig.full())
        written = store.save_cache(engine.cache, fingerprint)
        assert written == len(engine.cache)

        warm = Engine(proxy_config=tiny_proxy_config)
        loaded = store.load_cache_into(warm.cache, fingerprint)
        assert loaded == written
        warm_table = warm.evaluate_population(population)
        assert warm_table.cache_misses == 0
        for name in table.columns:
            assert list(table.columns[name]) == list(warm_table.columns[name])

    def test_nonfinite_values_survive(self, store):
        cache = IndicatorCache()
        cache.put(("ntk", 1, 1, ()), float("inf"))
        fingerprint = cache_fingerprint_default()
        store.save_cache(cache, fingerprint)
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 1
        assert restored.get(("ntk", 1, 1, ())) == float("inf")

    def test_missing_file_loads_nothing(self, store):
        assert store.load_cache_into(IndicatorCache(),
                                     cache_fingerprint_default()) == 0
        assert "no persisted cache" in store.last_rejection

    def test_fingerprint_mismatch_rejected(self, store, tiny_proxy_config):
        fingerprint = cache_fingerprint(tiny_proxy_config, MacroConfig.full())
        cache = IndicatorCache()
        cache.put(("flops", 9, (16, 5, 10, 3, 32)), 1.0)
        store.save_cache(cache, fingerprint)

        # Different fingerprints key different files: a changed config
        # starts cold rather than reading (or clobbering) foreign data.
        stale = cache_fingerprint(tiny_proxy_config.with_seed(99),
                                  MacroConfig.full())
        target = IndicatorCache()
        assert store.load_cache_into(target, stale) == 0
        assert "no persisted cache" in store.last_rejection

        # A cache directory copied across fingerprint keys (or
        # hand-edited) is still rejected by the fingerprint embedded in
        # its meta/base payloads.
        import shutil

        shutil.copytree(store.cache_dir(fingerprint), store.cache_dir(stale))
        assert store.load_cache_into(target, stale) == 0
        assert len(target) == 0
        assert "fingerprint mismatch" in store.last_rejection
        with pytest.raises(StoreError):
            store.load_cache_into(target, stale, strict=True)

    def test_configs_coexist_in_one_store(self, store, tiny_proxy_config):
        first = cache_fingerprint(tiny_proxy_config, MacroConfig.full())
        second = cache_fingerprint(tiny_proxy_config.with_seed(99),
                                   MacroConfig.full())
        cache_a = IndicatorCache()
        cache_a.put(("flops", 1, (16,)), 1.0)
        cache_b = IndicatorCache()
        cache_b.put(("flops", 2, (16,)), 2.0)
        store.save_cache(cache_a, first)
        store.save_cache(cache_b, second)  # must not clobber `first`
        restored = IndicatorCache()
        assert store.load_cache_into(restored, first) == 1
        assert restored.get(("flops", 1, (16,))) == 1.0

    def test_macro_config_part_of_fingerprint(self, tiny_proxy_config):
        full = cache_fingerprint(tiny_proxy_config, MacroConfig.full())
        reduced = cache_fingerprint(tiny_proxy_config, MacroConfig.proxy())
        assert full != reduced

    def test_corrupt_file_rejected(self, store):
        # A torn meta.json leaves the rows unguarded by any fingerprint:
        # lenient loads still replay them but say why, strict loads
        # refuse — through both read paths.
        fingerprint = cache_fingerprint_default()
        cache = IndicatorCache()
        key = ("flops", 1, (4,))
        cache.put(key, 1.0)
        store.save_cache(cache, fingerprint)
        (store.cache_dir(fingerprint) / "meta.json").write_text(
            "{not json", encoding="utf-8")
        for keys in (None, [key]):
            assert store.load_cache_into(IndicatorCache(), fingerprint,
                                         keys=keys) == 1
            assert "unreadable store meta" in store.last_rejection
            with pytest.raises(StoreError):
                store.load_cache_into(IndicatorCache(), fingerprint,
                                      strict=True, keys=keys)

    def test_in_memory_entries_win_over_persisted(self, store):
        fingerprint = cache_fingerprint_default()
        cache = IndicatorCache()
        key = ("flops", 1, (4,))
        cache.put(key, 10.0)
        store.save_cache(cache, fingerprint)
        target = IndicatorCache()
        target.put(key, 99.0)
        assert store.load_cache_into(target, fingerprint) == 0
        assert target.get(key) == 99.0


def cache_fingerprint_default():
    from repro.proxies.base import ProxyConfig

    return cache_fingerprint(ProxyConfig(), MacroConfig.full())


class TestConcurrentWriters:
    """Two processes saving into one store directory lose nothing."""

    def test_merge_on_save_unions_disjoint_caches(self, store):
        fingerprint = cache_fingerprint_default()
        first = IndicatorCache()
        first.put(("flops", 1, (4,)), 1.0)
        second = IndicatorCache()
        second.put(("flops", 2, (4,)), 2.0)
        assert store.save_cache(first, fingerprint) == 1
        # The second save appends its own delta (returning only its own
        # row count) without clobbering the first writer's segments.
        assert store.save_cache(second, fingerprint) == 1
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 2
        assert restored.get(("flops", 1, (4,))) == 1.0
        assert restored.get(("flops", 2, (4,))) == 2.0

    def test_in_memory_wins_on_collision(self, store):
        fingerprint = cache_fingerprint_default()
        stale = IndicatorCache()
        stale.put(("flops", 1, (4,)), 1.0)
        store.save_cache(stale, fingerprint)
        newer = IndicatorCache()
        newer.put(("flops", 1, (4,)), 99.0)
        store.save_cache(newer, fingerprint)
        restored = IndicatorCache()
        store.load_cache_into(restored, fingerprint)
        assert restored.get(("flops", 1, (4,))) == 99.0

    def test_corrupt_existing_base_rebuilt_from_memory(self, store):
        fingerprint = cache_fingerprint_default()
        directory = store.cache_dir(fingerprint)
        directory.mkdir(parents=True)
        (directory / "shard-00.base.jsonl").write_text(
            "{torn", encoding="utf-8")
        cache = IndicatorCache()
        cache.put(("flops", 7, (4,)), 7.0)
        assert store.save_cache(cache, fingerprint) == 1
        restored = IndicatorCache()
        assert store.load_cache_into(restored, fingerprint) == 1
        assert restored.get(("flops", 7, (4,))) == 7.0
        # Compaction drops the unreadable base lines and rebuilds the
        # bases from the surviving rows.
        store.compact_cache(fingerprint)
        fresh = IndicatorCache()
        assert store.load_cache_into(fresh, fingerprint, strict=True) == 1

    def test_two_processes_racing_drop_no_rows(self, store):
        """Atomic-write property test: each forked writer repeatedly
        saves its own growing row set; the union must survive and the
        file must parse at every observation point."""
        import multiprocessing
        import time

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        fingerprint = cache_fingerprint_default()
        rows_per_writer = 8

        def writer(writer_id: int) -> None:
            cache = IndicatorCache()
            for row in range(rows_per_writer):
                cache.put(("ntk", writer_id * 1000 + row, 1, ()),
                          float(writer_id * 1000 + row))
                store.save_cache(cache, fingerprint)
                time.sleep(0.001)

        context = multiprocessing.get_context("fork")
        processes = [context.Process(target=writer, args=(writer_id,))
                     for writer_id in (1, 2)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        restored = IndicatorCache()
        loaded = store.load_cache_into(restored, fingerprint, strict=True)
        assert loaded == 2 * rows_per_writer
        for writer_id in (1, 2):
            for row in range(rows_per_writer):
                key = ("ntk", writer_id * 1000 + row, 1, ())
                assert restored.get(key) == float(writer_id * 1000 + row)


class TestLutStore:
    def test_round_trip_same_estimates(self, store, tiny_macro_config,
                                       heavy_genotype):
        first = LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                                 lut_store=store)
        assert not first.lut_from_store
        second = LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                                  lut_store=store)
        assert second.lut_from_store
        assert second.lut.entries == first.lut.entries
        assert second.lut.network_overhead_ms == first.lut.network_overhead_ms
        assert second.estimate_ms(heavy_genotype) == \
            first.estimate_ms(heavy_genotype)

    def test_keys_are_device_specific(self, store, tiny_macro_config):
        LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                         lut_store=store)
        assert store.lut_get(NUCLEO_F411RE.name, "float32",
                             tiny_macro_config) is None
        other = LatencyEstimator(NUCLEO_F411RE, config=tiny_macro_config,
                                 lut_store=store)
        assert not other.lut_from_store
        devices = sorted(meta["device"] for meta in store.lut_keys())
        assert devices == sorted([NUCLEO_F746ZG.name, NUCLEO_F411RE.name])

    def test_keys_are_precision_and_macro_specific(self, store,
                                                   tiny_macro_config):
        estimator = LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                                     lut_store=store)
        assert store.lut_get(NUCLEO_F746ZG.name, "int8",
                             tiny_macro_config) is None
        assert store.lut_get(NUCLEO_F746ZG.name, "float32",
                             MacroConfig.full()) is None
        assert store.lut_get(NUCLEO_F746ZG.name, "float32",
                             tiny_macro_config).entries == \
            estimator.lut.entries

    def test_tampered_meta_rejected(self, store, tiny_macro_config):
        LatencyEstimator(NUCLEO_F746ZG, config=tiny_macro_config,
                         lut_store=store)
        meta_path = next(store.root.glob("lut__*.meta.json"))
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["precision"] = "int8"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert store.lut_get(NUCLEO_F746ZG.name, "float32",
                             tiny_macro_config) is None
        assert "mismatch" in store.last_rejection

    def test_engine_composes_store(self, store, tiny_proxy_config,
                                   tiny_macro_config, heavy_genotype):
        cold = Engine(proxy_config=tiny_proxy_config,
                      macro_config=tiny_macro_config, lut_store=store)
        cold_ms = cold.latency_ms(heavy_genotype)
        warm = Engine(proxy_config=tiny_proxy_config,
                      macro_config=tiny_macro_config, lut_store=store)
        assert warm.latency_estimator.lut_from_store
        assert warm.latency_ms(heavy_genotype) == cold_ms
