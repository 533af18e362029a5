"""Crowding-distance-weighted parent selection (steady-state evolution)."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.search.evolutionary import (
    EvolutionConfig,
    SteadyStateEvolutionarySearch,
)
from repro.search.objective import HybridObjective
from repro.search.pareto import crowding_distance, crowding_selection_weights


def _front():
    """A 5-point front: two boundary points, one lonely interior point,
    two tightly clustered interior points."""
    return np.array([
        [0.0, 10.0],   # boundary (inf crowding)
        [1.0, 8.0],    # clustered with the next point
        [1.1, 7.9],    # clustered
        [5.0, 3.0],    # lonely interior point
        [10.0, 0.0],   # boundary (inf crowding)
    ])


def test_weights_are_a_distribution():
    weights = crowding_selection_weights(_front())
    assert weights.shape == (5,)
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)


def test_selection_probabilities_follow_crowding_order():
    """The satellite contract: probability ordering == crowding ordering."""
    points = _front()
    distance = crowding_distance(points)
    weights = crowding_selection_weights(points)
    # Compare every pair: lonelier never gets a smaller probability, and
    # strictly lonelier (among finite distances) gets strictly more.
    for i in range(len(points)):
        for j in range(len(points)):
            if distance[i] > distance[j] or (
                np.isinf(distance[i]) and np.isfinite(distance[j])
            ):
                assert weights[i] > weights[j], (i, j)
            elif distance[i] == distance[j]:
                assert weights[i] == pytest.approx(weights[j])


def test_empirical_frequencies_follow_crowding_order():
    points = _front()
    weights = crowding_selection_weights(points)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(points), size=20_000, p=weights)
    frequencies = np.bincount(picks, minlength=len(points)) / picks.size
    # The lonely interior point (index 3) beats the clustered ones (1, 2);
    # boundary points beat everyone.
    assert frequencies[3] > frequencies[1]
    assert frequencies[3] > frequencies[2]
    assert frequencies[0] > frequencies[3]
    assert frequencies[4] > frequencies[3]
    np.testing.assert_allclose(frequencies, weights, atol=0.02)


def test_degenerate_fronts_fall_back_to_uniform():
    # <= 2 points: every distance is inf.
    np.testing.assert_allclose(
        crowding_selection_weights(np.array([[0.0, 1.0], [1.0, 0.0]])),
        [0.5, 0.5],
    )
    # Coincident points: zero spread on every axis.
    np.testing.assert_allclose(
        crowding_selection_weights(np.full((4, 2), 3.0)),
        np.full(4, 0.25),
    )


def test_infinite_objectives_are_handled():
    """κ = inf candidates can sit on the front via their other axes."""
    points = np.array([
        [np.inf, 0.0],
        [1.0, 5.0],
        [2.0, 4.0],
        [3.0, 1.0],
    ])
    weights = crowding_selection_weights(points)
    assert np.all(np.isfinite(weights))
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0)


def test_empty_front_rejected():
    with pytest.raises(SearchError):
        crowding_selection_weights(np.empty((0, 2)))


# ----------------------------------------------------------------------
# Search-loop integration
# ----------------------------------------------------------------------
def _search(parent_selection, seed=0):
    from repro.eval.benchconfig import reduced_proxy_config

    objective = HybridObjective(proxy_config=reduced_proxy_config(seed=0))
    return SteadyStateEvolutionarySearch(
        objective,
        EvolutionConfig(population_size=6, sample_size=2, cycles=8),
        seed=seed,
        parent_selection=parent_selection,
    )


def test_unknown_parent_selection_rejected():
    with pytest.raises(SearchError):
        _search("roulette")


@pytest.mark.parametrize("parent_selection", ["crowding", "uniform"])
def test_steady_state_runs_under_both_selection_modes(parent_selection):
    result = _search(parent_selection).search()
    assert result.genotype is not None
    assert result.algorithm == "evolutionary-steady-state"
    assert "ntk" in result.indicators


def test_parent_front_spans_every_weighted_cost_axis():
    """Extra cost axes are ordinary axes: the Pareto parent set sees
    every weighted one, in the weights' canonical order."""
    from repro.search.objective import ObjectiveWeights

    search = _search("crowding")
    search.objective = search.objective.with_weights(
        ObjectiveWeights(latency=0.5, costs={"energy": 1.0}))
    row = {"ntk": 3.0, "linear_regions": 5.0, "flops": 7.0,
           "latency": 11.0, "energy": 13.0}
    assert search._objective_vector(row) == (3.0, -5.0, 11.0, 13.0)
