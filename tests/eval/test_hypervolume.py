"""2-D hypervolume indicator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.eval.hypervolume import (
    front_hypervolume,
    hypervolume_2d,
    hypervolume_ratio,
)

points_strategy = st.lists(
    st.tuples(st.floats(0.0, 9.0), st.floats(0.0, 9.0)),
    min_size=1, max_size=20,
)


class TestHypervolume2D:
    def test_single_point(self):
        assert hypervolume_2d([(1.0, 1.0)], (3.0, 3.0)) == pytest.approx(4.0)

    def test_two_point_staircase(self):
        # (1,2) and (2,1) against ref (3,3): 2 + 2 - overlap 1 = 3.
        assert hypervolume_2d([(1, 2), (2, 1)], (3, 3)) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume_2d([(1, 1)], (3, 3))
        with_dominated = hypervolume_2d([(1, 1), (2, 2)], (3, 3))
        assert with_dominated == pytest.approx(base)

    def test_point_beyond_reference_ignored(self):
        assert hypervolume_2d([(4, 4)], (3, 3)) == 0.0
        assert hypervolume_2d([(1, 5)], (3, 3)) == 0.0

    def test_order_invariant(self):
        points = [(2, 1), (1, 2), (0.5, 2.5)]
        ref = (4, 4)
        assert (hypervolume_2d(points, ref)
                == pytest.approx(hypervolume_2d(list(reversed(points)), ref)))

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_monotone_in_points(self, points):
        """Adding a point can never shrink the dominated area."""
        ref = (10.0, 10.0)
        for k in range(1, len(points) + 1):
            assert (hypervolume_2d(points[:k], ref)
                    >= hypervolume_2d(points[:k - 1], ref) - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(points=points_strategy)
    def test_bounded_by_box(self, points):
        # Summing staircase slabs can overshoot the exact box area by an
        # ulp (e.g. points (0, 1.02) and (ε, 0) give 89.80000000000001 +
        # 10.2), so the upper bound gets the same float slack the
        # monotonicity property above uses.
        ref = (10.0, 10.0)
        assert 0.0 <= hypervolume_2d(points, ref) <= 100.0 + 1e-9


class TestHypervolumeRatio:
    def test_ideal_corner_is_one(self):
        assert hypervolume_ratio([(0, 0)], (2, 2), (0, 0)) == pytest.approx(1.0)

    def test_empty_contribution_is_zero(self):
        assert hypervolume_ratio([(3, 3)], (2, 2), (0, 0)) == 0.0

    def test_invalid_ideal(self):
        with pytest.raises(ReproError):
            hypervolume_ratio([(1, 1)], (2, 2), (2, 2))


class TestFrontHypervolume:
    def test_default_reference(self):
        value = front_hypervolume([100, 200], [5.0, 2.0])
        assert value > 0

    def test_better_front_larger_volume(self):
        ref = (300.0, 10.0)
        worse = front_hypervolume([100, 200], [6.0, 4.0], reference=ref)
        better = front_hypervolume([100, 200], [5.0, 2.0], reference=ref)
        assert better > worse

    def test_validation(self):
        with pytest.raises(ReproError):
            front_hypervolume([1.0], [1.0, 2.0])
        with pytest.raises(ReproError):
            front_hypervolume([], [])

    def test_on_pareto_result_axes(self):
        """Integrates with the ParetoResult field layout."""
        from repro.search.pareto import ParetoPoint
        from repro.searchspace.genotype import Genotype

        front = [
            ParetoPoint(Genotype(("skip_connect",) * 6), quality_rank=8.0,
                        costs={"latency": 50.0, "flops": 1.0}),
            ParetoPoint(Genotype(("nor_conv_3x3",) * 6), quality_rank=2.0,
                        costs={"latency": 200.0, "flops": 9.0}),
        ]
        value = front_hypervolume(
            [p.latency_ms for p in front],
            [p.quality_rank for p in front],
        )
        assert value > 0
