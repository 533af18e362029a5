"""One RuntimeConfig wires engine + pool + store and runs any algorithm."""

import pytest

from repro.errors import SearchError
from repro.runtime import (
    ALGORITHMS,
    RunHarness,
    RuntimeConfig,
    register_algorithm,
)


def _quick_config(**overrides):
    defaults = dict(algorithm="random", samples=6, seed=3, fast=True)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


class TestRunHarness:
    def test_random_run_reports(self):
        report = RunHarness(_quick_config()).run()
        assert report.algorithm == "random-zeroshot"
        assert report.arch_str
        assert set(report.indicators) >= {"ntk", "linear_regions", "flops"}
        assert report.cache["misses"] > 0
        assert report.pool["n_workers"] == 1
        assert report.store["dir"] is None

    def test_store_warm_start_round_trip(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = RunHarness(_quick_config(store_dir=store_dir)).run()
        assert cold.cache["warm_start_entries"] == 0
        assert cold.store["cache_saved"] > 0

        warm = RunHarness(_quick_config(store_dir=store_dir)).run()
        assert warm.cache["warm_start_entries"] == cold.store["cache_saved"]
        assert warm.cache["misses"] == 0
        assert warm.arch_str == cold.arch_str

    def test_luts_shared_across_devices_in_one_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        config = _quick_config(latency_weight=0.5, store_dir=store_dir)
        first = RunHarness(config).run()
        assert [meta["device"] for meta in first.store["luts"]] == \
            ["nucleo-f746zg"]
        second = RunHarness(_quick_config(latency_weight=0.5,
                                          store_dir=store_dir,
                                          device="nucleo-l432kc")).run()
        devices = sorted(meta["device"] for meta in second.store["luts"])
        assert devices == ["nucleo-f746zg", "nucleo-l432kc"]
        third = RunHarness(config)
        assert third.engine.latency_estimator.lut_from_store

    def test_trainless_evolutionary_and_pruning_run(self, tmp_path):
        store_dir = str(tmp_path / "store")
        evo = RunHarness(_quick_config(
            algorithm="trainless-evolutionary", population_size=5,
            sample_size=2, cycles=4, store_dir=store_dir,
        )).run()
        assert evo.algorithm == "evolutionary-trainless"
        pruning = RunHarness(_quick_config(
            algorithm="pruning", flops_weight=0.5, store_dir=store_dir,
        )).run()
        assert pruning.algorithm == "micronas"
        assert pruning.cache["warm_start_entries"] > 0  # shared store

    def test_train_based_evolutionary_rejects_indicator_weights(self):
        base = dict(algorithm="evolutionary", population_size=4,
                    sample_size=2, cycles=2)
        with pytest.raises(SearchError):
            RunHarness(_quick_config(latency_weight=0.5, **base)).run()
        report = RunHarness(_quick_config(**base)).run()
        assert report.algorithm == "evolutionary-munas"

    def test_macro_algorithm_needs_arch(self):
        with pytest.raises(SearchError):
            RunHarness(_quick_config(algorithm="macro")).run()
        report = RunHarness(_quick_config(algorithm="macro",
                                          arch=1462)).run()
        assert report.algorithm == "macro-stage"
        assert report.indicators["latency"] > 0
        assert report.history[0]["skeleton"]["init_channels"] >= 4

    def test_unknown_algorithm_and_device_rejected(self):
        with pytest.raises(SearchError):
            RunHarness(_quick_config(algorithm="quantum"))
        with pytest.raises(SearchError):
            RunHarness(_quick_config(device="esp32"))

    def test_report_serialises(self, tmp_path):
        report = RunHarness(_quick_config()).run()
        path = tmp_path / "report.json"
        report.save_json(str(path))
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["algorithm"] == "random-zeroshot"
        assert payload["config"]["algorithm"] == "random"
        assert payload["pool"]["mode"] in ("serial", "fork")

    def test_async_mode_runs_any_algorithm(self):
        report = RunHarness(_quick_config(async_mode=True)).run()
        assert report.algorithm == "random-zeroshot"
        assert report.pool["mode"] == "serial"  # n_workers=1 fallback
        assert "idle_fraction" in report.pool

    def test_steady_state_same_rows_async_on_or_off(self):
        """Every run gets the same executor: async_mode only changes
        store reads, flushes and signal handling, none of which a
        store-less serial run touches."""
        runs = []
        for async_mode in (False, True):
            harness = RunHarness(_quick_config(algorithm="steady-state",
                                               async_mode=async_mode,
                                               population_size=4,
                                               cycles=3))
            report = harness.run()
            assert report.algorithm == "evolutionary-steady-state"
            rows = {key: repr(value)
                    for key, value in harness.engine.cache.items()}
            runs.append((report.arch_str, report.indicators,
                         report.cache["misses"], rows))
        assert runs[0] == runs[1]
        assert runs[0][3]  # rows were computed

    def test_steady_state_serial_reproducible(self):
        config = _quick_config(algorithm="steady-state", async_mode=True,
                               population_size=4, cycles=3)
        first = RunHarness(config).run()
        second = RunHarness(config).run()
        assert first.arch_index == second.arch_index
        assert first.indicators == second.indicators

    def test_steady_state_warm_starts_from_store(self, tmp_path):
        config = _quick_config(algorithm="steady-state", async_mode=True,
                               population_size=4, cycles=3,
                               store_dir=str(tmp_path / "store"))
        cold = RunHarness(config).run()
        assert cold.store["cache_saved"] > 0
        warm = RunHarness(config).run()
        assert warm.cache["warm_start_entries"] == cold.store["cache_saved"]
        assert warm.cache["misses"] == 0
        assert warm.arch_index == cold.arch_index

    def test_executors_closed_deterministically_no_leaked_processes(self):
        """The harness (not GC timing) ends worker lifetimes: after run()
        or the context manager, no forked worker may survive."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        for async_mode in (False, True):
            config = _quick_config(n_workers=2, chunk_size=2,
                                   async_mode=async_mode)
            with RunHarness(config) as harness:
                harness.run()  # run() closes on completion...
                assert multiprocessing.active_children() == []
            assert multiprocessing.active_children() == []

        # ...and the context manager alone closes a pool that was used
        # without run() (executor handed straight to an engine).
        from repro.searchspace.space import NasBench201Space

        config = _quick_config(n_workers=2, chunk_size=2)
        with RunHarness(config) as harness:
            harness.engine.evaluate_population(
                NasBench201Space().sample(5, rng=2),
                executor=harness.executor,
            )
            assert len(multiprocessing.active_children()) > 0
        assert multiprocessing.active_children() == []

    def test_register_algorithm_extends_registry(self):
        @register_algorithm("noop-test")
        def _noop(harness):
            from repro.search.result import SearchResult
            from repro.searchspace.genotype import Genotype

            return SearchResult(genotype=Genotype.from_index(0),
                                algorithm="noop-test")

        try:
            assert "noop-test" in ALGORITHMS
            report = RunHarness(_quick_config(algorithm="noop-test")).run()
            assert report.algorithm == "noop-test"
        finally:
            ALGORITHMS.pop("noop-test", None)
