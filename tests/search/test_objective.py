"""Hybrid objective: indicators, expected costs, rank combination."""

import numpy as np
import pytest

from repro.proxies.flops import count_flops
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.ops import CANDIDATE_OPS


@pytest.fixture(scope="module")
def objective(tiny_proxy_config, shared_latency_estimator):
    return HybridObjective(
        proxy_config=tiny_proxy_config,
        weights=ObjectiveWeights(latency=0.5, flops=0.5),
        macro_config=MacroConfig.full(),
        latency_estimator=shared_latency_estimator,
    )


class TestWeights:
    def test_defaults_no_hardware(self):
        w = ObjectiveWeights()
        assert w.weighted() == ("ntk", "linear_regions")
        assert w.weight("flops") == 0.0 and w.weight("latency") == 0.0

    def test_scaled_hardware(self):
        w = ObjectiveWeights(flops=0.5, latency=0.25).scaled_hardware(2.0)
        assert w.weight("flops") == 1.0 and w.weight("latency") == 0.5
        assert w.weight("ntk") == 1.0  # proxies untouched

    def test_with_weights_shares_estimator_and_ledger(self, objective):
        clone = objective.with_weights(ObjectiveWeights())
        assert clone.built_latency_estimator is objective.built_latency_estimator
        assert clone.built_latency_estimator is not None
        assert clone.ledger is objective.ledger


class TestGenotypeIndicators:
    def test_all_indicators_present(self, objective, heavy_genotype):
        ind = objective.genotype_indicators(heavy_genotype)
        assert set(ind) == {"ntk", "linear_regions", "flops", "latency"}
        assert ind["flops"] == count_flops(heavy_genotype, objective.macro_config)
        assert ind["latency"] > 0

    def test_ledger_records_evaluations(self, tiny_proxy_config,
                                        shared_latency_estimator, heavy_genotype):
        obj = HybridObjective(proxy_config=tiny_proxy_config,
                              latency_estimator=shared_latency_estimator)
        obj.genotype_indicators(heavy_genotype)
        assert obj.ledger.counts.get("ntk_eval") == 1
        assert obj.ledger.counts.get("lr_eval") == 1

    def test_latency_skipped_when_unweighted(self, tiny_proxy_config,
                                             heavy_genotype):
        obj = HybridObjective(proxy_config=tiny_proxy_config)
        ind = obj.genotype_indicators(heavy_genotype)
        assert ind["latency"] == 0.0


class TestExpectedCosts:
    def test_expected_flops_matches_concrete_for_singletons(self, objective,
                                                            heavy_genotype):
        specs = [EdgeSpec(i, (op,)) for i, op in enumerate(heavy_genotype.ops)]
        expected = objective.expected_flops(specs)
        assert expected == pytest.approx(
            count_flops(heavy_genotype, objective.macro_config)
        )

    def test_expected_flops_decreases_when_pruning_conv(self, objective):
        full = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        pruned = [spec.without("nor_conv_3x3") for spec in full]
        assert objective.expected_flops(pruned) < objective.expected_flops(full)

    def test_expected_latency_close_to_concrete_for_singletons(self, objective,
                                                               heavy_genotype):
        specs = [EdgeSpec(i, (op,)) for i, op in enumerate(heavy_genotype.ops)]
        expected = objective.expected_latency_ms(specs)
        concrete = objective.latency_estimator.estimate_ms(heavy_genotype)
        assert abs(expected - concrete) / concrete < 0.02

    def test_expected_latency_decreases_when_pruning_conv(self, objective):
        full = [EdgeSpec(i, CANDIDATE_OPS) for i in range(6)]
        pruned = [spec.without("nor_conv_3x3") for spec in full]
        assert objective.expected_latency_ms(pruned) < \
            objective.expected_latency_ms(full)


class TestRankCombination:
    def test_infinite_ntk_ranks_worst(self, objective):
        rows = [
            {"ntk": np.inf, "linear_regions": 10.0, "flops": 1.0, "latency": 1.0},
            {"ntk": 5.0, "linear_regions": 10.0, "flops": 1.0, "latency": 1.0},
        ]
        ranks = objective.combined_ranks(rows)
        assert ranks[1] < ranks[0]

    def test_hardware_weight_changes_winner(self, tiny_proxy_config,
                                            shared_latency_estimator):
        rows = [
            {"ntk": 5.0, "linear_regions": 20.0, "flops": 100.0, "latency": 100.0},
            {"ntk": 6.0, "linear_regions": 18.0, "flops": 1.0, "latency": 1.0},
        ]
        proxy_only = HybridObjective(tiny_proxy_config,
                                     ObjectiveWeights(),
                                     latency_estimator=shared_latency_estimator)
        assert proxy_only.combined_ranks(rows)[0] < \
            proxy_only.combined_ranks(rows)[1]
        hw_heavy = proxy_only.with_weights(
            ObjectiveWeights(flops=3.0, latency=3.0))
        assert hw_heavy.combined_ranks(rows)[1] < hw_heavy.combined_ranks(rows)[0]

    def test_score_genotypes_prefers_connected(self, objective, heavy_genotype,
                                               disconnected_genotype):
        scores = objective.score_genotypes([heavy_genotype, disconnected_genotype])
        assert scores[0] < scores[1]
