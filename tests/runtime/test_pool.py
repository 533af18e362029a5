"""Chunk workers and executor-warmed populations match serial evaluation.

The executor is the runtime's one population executor,
:class:`~repro.runtime.async_pool.AsyncPopulationExecutor`, driven through
the blocking ``warm_population``/``warm_supernets`` hooks the engine and
search loops duck-type.
"""

import numpy as np
import pytest

from repro.engine import Engine, supernet_state_key
from repro.errors import SearchError
from repro.runtime.async_pool import AsyncPopulationExecutor
from repro.runtime.pool import (
    _chunked,
    _evaluate_genotype_chunk,
    _evaluate_supernet_chunk,
)
from repro.search.objective import HybridObjective
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.space import NasBench201Space
from tests.runtime.test_async_pool import (
    OrderFuzzedAsyncExecutor,
    _shuffled_order,
)


@pytest.fixture()
def population():
    space = NasBench201Space()
    sample = space.sample(8, rng=21)
    return sample + sample[:3]  # duplicates exercise canonical dedupe


def _engine(tiny_proxy_config):
    return Engine(proxy_config=tiny_proxy_config)


class TestBitIdentical:
    def test_fork_pool_matches_serial(self, tiny_proxy_config, population):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        with AsyncPopulationExecutor(n_workers=2, chunk_size=3,
                                     mode="fork") as executor:
            pooled = _engine(tiny_proxy_config).evaluate_population(
                population, executor=executor
            )
        assert executor.stats.mode == "fork"
        assert executor.stats.tasks == serial.unique_canonical
        for name in serial.columns:
            np.testing.assert_array_equal(serial.columns[name],
                                          pooled.columns[name])
        assert [g.to_index() for g in serial.genotypes] == \
            [g.to_index() for g in pooled.genotypes]

    def test_shuffled_completion_order_identical_table(self,
                                                       tiny_proxy_config,
                                                       population):
        serial = _engine(tiny_proxy_config).evaluate_population(population)
        for seed in (1, 2, 3):
            shuffled = _engine(tiny_proxy_config).evaluate_population(
                population,
                executor=OrderFuzzedAsyncExecutor(_shuffled_order(seed))
            )
            assert shuffled.unique_canonical == serial.unique_canonical
            for name in serial.columns:
                np.testing.assert_array_equal(serial.columns[name],
                                              shuffled.columns[name])

    def test_supernet_rows_match_serial(self, tiny_proxy_config):
        base = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        states = [[base[0].without(op)] + base[1:]
                  for op in CANDIDATE_OPS[:3]]
        serial_obj = HybridObjective(engine=_engine(tiny_proxy_config))
        serial_rows = serial_obj.supernet_population(states)
        for executor in (
                AsyncPopulationExecutor(n_workers=2, chunk_size=1,
                                        mode="fork"),
                OrderFuzzedAsyncExecutor(_shuffled_order(9), chunk_size=1)):
            with executor:
                pooled_obj = HybridObjective(
                    engine=_engine(tiny_proxy_config), executor=executor)
                assert pooled_obj.supernet_population(states) == serial_rows
                assert executor.stats.tasks == len(states)

    def test_search_loop_executor_hook(self, tiny_proxy_config):
        from repro.search.random_search import ZeroShotRandomSearch

        serial = ZeroShotRandomSearch(
            HybridObjective(engine=_engine(tiny_proxy_config)),
            num_samples=6, seed=4,
        ).search()
        with AsyncPopulationExecutor(n_workers=2,
                                     chunk_size=2) as executor:
            pooled = ZeroShotRandomSearch(
                HybridObjective(engine=_engine(tiny_proxy_config)),
                num_samples=6, seed=4, executor=executor,
            ).search()
        assert pooled.genotype == serial.genotype
        assert executor.stats.merged_rows > 0


class TestIncrementalMergeHook:
    """Engine.merge_indicator_rows: the seam every executor merges through."""

    def test_first_write_wins_and_counts_misses(self, tiny_proxy_config):
        engine = _engine(tiny_proxy_config)
        key = ("flops", 123, ("macro",))
        assert engine.merge_indicator_rows([(key, 7.0)]) == 1
        assert engine.cache.get(key) == 7.0
        assert engine.cache.misses == 1
        # A duplicate (re-ordered / double-delivered chunk) changes nothing.
        assert engine.merge_indicator_rows([(key, 99.0)]) == 0
        assert engine.cache.get(key) == 7.0
        assert engine.cache.misses == 1

    def test_pool_merge_delegates_to_engine_hook(self, tiny_proxy_config,
                                                 heavy_genotype):
        engine = _engine(tiny_proxy_config)
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2)
        merged = executor.warm_population(engine, [heavy_genotype])
        assert merged == 3  # ntk + linear_regions + flops
        assert executor.stats.merged_rows == 3
        assert engine.cache.misses == 3


class TestDispatchMechanics:
    def test_serial_fallback_single_worker(self, tiny_proxy_config,
                                           population):
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=4)
        _engine(tiny_proxy_config).evaluate_population(population,
                                                       executor=executor)
        assert executor.stats.mode == "serial"

    def test_partially_warm_cache_skips_cached_indicators(
        self, tiny_proxy_config, heavy_genotype
    ):
        engine = _engine(tiny_proxy_config)
        engine.ntk(heavy_genotype)
        engine.linear_regions(heavy_genotype)
        # Only FLOPs missing: the worker must not re-pay the proxies.
        rows, _ = _evaluate_genotype_chunk(
            (((heavy_genotype.ops, (False, False, True)),),
             tiny_proxy_config, engine.macro_config)
        )
        assert set(rows[0][1]) == {"flops"}
        executor = AsyncPopulationExecutor(n_workers=1, chunk_size=2)
        merged = executor.warm_population(engine, [heavy_genotype])
        assert merged == 1  # flops row only
        table = engine.evaluate_population([heavy_genotype])
        assert table.cache_misses == 0

    def test_warm_cache_dispatches_nothing(self, tiny_proxy_config,
                                           population):
        engine = _engine(tiny_proxy_config)
        engine.evaluate_population(population)
        with AsyncPopulationExecutor(n_workers=2,
                                     chunk_size=2) as executor:
            engine.evaluate_population(population, executor=executor)
        assert executor.stats.dispatches == 0
        assert executor.stats.tasks == 0
        assert executor.stats.gathers == 0

    def test_chunking_covers_everything_once(self):
        items = list(range(10))
        chunks = _chunked(items, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for chunk in chunks for x in chunk] == items

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SearchError):
            AsyncPopulationExecutor(n_workers=0)
        with pytest.raises(SearchError):
            AsyncPopulationExecutor(chunk_size=0)

    def test_worker_chunk_functions_round_trip(self, tiny_proxy_config,
                                               tiny_macro_config,
                                               heavy_genotype):
        rows, seconds = _evaluate_genotype_chunk(
            (((heavy_genotype.ops, (True, True, True)),),
             tiny_proxy_config, tiny_macro_config)
        )
        engine = Engine(proxy_config=tiny_proxy_config,
                        macro_config=tiny_macro_config)
        assert rows[0][0] == heavy_genotype.to_index()
        assert rows[0][1]["ntk"] == engine.ntk(heavy_genotype)
        assert seconds >= 0.0

        specs = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
        state = supernet_state_key(specs)
        srows, _ = _evaluate_supernet_chunk(
            (((state, (True, True)),), tiny_proxy_config)
        )
        assert srows[0][0] == state
        assert srows[0][1]["supernet_ntk"] == engine.supernet_ntk(specs)
        partial, _ = _evaluate_supernet_chunk(
            (((state, (False, True)),), tiny_proxy_config)
        )
        assert set(partial[0][1]) == {"supernet_lr"}
