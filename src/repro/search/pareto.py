"""Multi-objective zero-shot search: the quality/cost Pareto front.

MicroNAS scalarises its objectives with tunable weights (``w_F``,
``w_L``); picking those weights *is* picking a point on the quality/
latency trade-off curve.  This module exposes the whole curve instead:
rank a zero-shot architecture sample by non-dominated sorting (NSGA-II's
fronts + crowding distance, without the genetic loop — the proxies are
cheap enough to score a sample directly) over

* **trainless quality** — the rank-combined NTK + linear-region score
  (lower is better, exactly the hybrid objective's trainless part),
* one column per named cost axis (``objectives=``, default
  ``("latency",)``): any registered
  :class:`~repro.search.costs.CostModel` axis — ``latency``, ``flops``,
  ``energy``, ``peak-mem``, ``int8-latency``, ... — each priced on the
  canonical form through the engine's cache (lower is better).

The objective's weights never enter the front: they change neither the
quality column nor how an axis is priced.  :func:`first_front` is the
one front builder (sort, crowding, order, knee) that both
:class:`ParetoZeroShotSearch` and the runtime's device-matrix mode use.
The deliverable is the first front plus a knee point, which a user can
hand to the secondary stage (:mod:`repro.search.macro`) per deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SearchError
from repro.search.objective import HybridObjective, ObjectiveWeights
from repro.searchspace.genotype import Genotype
from repro.searchspace.space import NasBench201Space
from repro.utils.timing import Timer


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance for minimisation: a <= b everywhere, < somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SearchError("objective vectors must have equal length")
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_sort(points: np.ndarray) -> List[List[int]]:
    """NSGA-II fast non-dominated sort (minimisation).

    Returns fronts as lists of row indices; front 0 is the Pareto set.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = np.zeros(n, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(points[j], points[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        nxt: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def crowding_distance(points: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance within one front (larger = lonelier)."""
    points = np.asarray(points, dtype=float)
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for k in range(m):
        order = np.argsort(points[:, k])
        spread = points[order[-1], k] - points[order[0], k]
        distance[order[0]] = distance[order[-1]] = np.inf
        if spread == 0:
            continue
        for pos in range(1, n - 1):
            gap = points[order[pos + 1], k] - points[order[pos - 1], k]
            distance[order[pos]] += gap / spread
    return distance


def crowding_selection_weights(points: np.ndarray) -> np.ndarray:
    """Parent-selection probabilities proportional to crowding distance.

    The steady-state evolutionary loop samples parents from its Pareto
    front; weighting the pick by NSGA-II crowding distance biases
    exploration toward under-populated regions of the front instead of
    wherever non-dominated points happen to cluster.  Guarantees, pinned
    by ``tests/search/test_crowding_selection.py``:

    * probabilities are positive and sum to 1,
    * they are **monotone in crowding distance** — a lonelier point is
      never less likely than a more crowded one (boundary points, whose
      distance is ``inf``, are capped at twice the largest finite
      distance, keeping them the most likely picks without degenerating
      to certainty),
    * fully crowded members (distance 0) keep a small floor probability
      (1% of the maximum weight) so no front member is unreachable,
    * degenerate fronts (≤ 2 points, or all distances equal) fall back
      to the uniform pick.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        raise SearchError("cannot build selection weights for an empty front")
    # Objective axes may carry ±inf (an untrainable candidate's κ can sit
    # on the front through its other axes); clamp each column to its
    # finite range so distances stay defined — infinite members become
    # boundary points, which is exactly their geometric role.
    points = points.copy()
    for k in range(points.shape[1]):
        column = points[:, k]
        finite_mask = np.isfinite(column)
        if not finite_mask.any():
            points[:, k] = 0.0
            continue
        points[:, k] = np.clip(column, column[finite_mask].min(),
                               column[finite_mask].max())
    distance = crowding_distance(points)
    finite = distance[np.isfinite(distance)]
    if finite.size == 0 or finite.max() == 0.0:
        # All-boundary or all-coincident front: nothing to discriminate.
        return np.full(n, 1.0 / n)
    cap = 2.0 * finite.max()
    weights = np.where(np.isfinite(distance), distance, cap)
    weights = weights + weights.max() * 0.01
    return weights / weights.sum()


def knee_index(vectors: np.ndarray) -> int:
    """The balanced pick among objective vectors (rows, minimisation).

    Every column is min-max normalised; the knee is the row closest (L2)
    to the utopian corner (0, ..., 0).
    """
    vectors = np.asarray(vectors, dtype=float)
    if len(vectors) == 0:
        raise SearchError("empty Pareto front")
    lo, hi = vectors.min(axis=0), vectors.max(axis=0)
    normed = (vectors - lo) / np.where(hi > lo, hi - lo, 1.0)
    if normed.shape[1] == 2:
        distance = np.hypot(normed[:, 0], normed[:, 1])
    else:
        distance = np.sqrt((normed ** 2).sum(axis=1))
    return int(np.argmin(distance))


@dataclass(frozen=True)
class FirstFront:
    """The first Pareto front of one sample (see :func:`first_front`)."""

    #: Sample indices of the front's members, sorted by the first cost axis.
    members: List[int]
    #: NSGA-II crowding distance of each member, aligned with ``members``.
    crowding: List[float]
    #: Position of the knee point in ``members``.
    knee: int
    num_fronts: int


def first_front(quality: Sequence[float],
                costs: Sequence[Sequence[float]]) -> FirstFront:
    """Sort a sample over (quality, *cost columns) and annotate its first
    front: members ordered by the first cost column (stable), their
    crowding distances, and the knee."""
    vectors = np.column_stack([np.asarray(quality, dtype=float)]
                              + [np.asarray(c, dtype=float) for c in costs])
    fronts = non_dominated_sort(vectors)
    first = fronts[0]
    crowd = crowding_distance(vectors[first])
    order = sorted(range(len(first)), key=lambda k: vectors[first[k], 1])
    members = [first[k] for k in order]
    return FirstFront(members=members,
                      crowding=[float(crowd[k]) for k in order],
                      knee=knee_index(vectors[members]),
                      num_fronts=len(fronts))


@dataclass(frozen=True)
class ParetoPoint:
    """One architecture with its objective vector."""

    genotype: Genotype
    quality_rank: float      # trainless combined rank (lower = better)
    #: Cost-axis values (name, value), canonically sorted; a mapping is
    #: accepted and normalised.
    costs: Union[Mapping[str, float], Tuple[Tuple[str, float], ...]] = ()
    crowding: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        pairs = (self.costs.items() if isinstance(self.costs, Mapping)
                 else self.costs)
        object.__setattr__(self, "costs", tuple(sorted(
            (str(name), float(value)) for name, value in pairs)))

    def cost(self, axis: str) -> float:
        """The value of one named cost axis on this point."""
        for name, value in self.costs:
            if name == axis:
                return value
        raise SearchError(f"point carries no cost axis {axis!r}")

    @property
    def latency_ms(self) -> float:
        return self.cost("latency")

    def vector(self, axes: Sequence[str]) -> Tuple[float, ...]:
        """(quality, *costs) objective vector over the named axes."""
        return (self.quality_rank,) + tuple(self.cost(a) for a in axes)

    def objectives(self, use_flops: bool) -> Tuple[float, ...]:
        """(quality, latency[, flops]): :meth:`vector` over the default
        axes, with ``include_flops``'s extra column."""
        return self.vector(("latency", "flops") if use_flops
                           else ("latency",))


@dataclass
class ParetoResult:
    """The discovered front plus bookkeeping."""

    front: List[ParetoPoint]
    population_size: int
    wall_seconds: float
    num_fronts: int
    #: Cost axes the front was sorted over (quality is always implicit).
    axes: Tuple[str, ...] = ("latency",)

    def knee_point(self) -> ParetoPoint:
        """The balanced pick (see :func:`knee_index`)."""
        if not self.front:
            raise SearchError("empty Pareto front")
        return self.front[knee_index(
            [p.vector(self.axes) for p in self.front])]

    def fastest(self) -> ParetoPoint:
        return min(self.front, key=lambda p: p.latency_ms)

    def best_quality(self) -> ParetoPoint:
        return min(self.front, key=lambda p: p.quality_rank)


class ParetoZeroShotSearch:
    """Score a sample with the trainless proxies; return the Pareto front.

    ``objectives`` names the cost axes — any registered
    :class:`~repro.search.costs.CostModel` axis (e.g. ``("energy",
    "peak-mem")``); the default is ``("latency",)``.
    ``include_flops=True`` appends ``flops`` (useful when the deployment
    board is undecided and latency is board-specific).
    """

    algorithm_name = "pareto-zeroshot"

    def __init__(
        self,
        objective: HybridObjective,
        num_samples: int = 64,
        seed: int = 0,
        include_flops: bool = False,
        space: Optional[NasBench201Space] = None,
        objectives: Optional[Sequence[str]] = None,
    ) -> None:
        if num_samples < 2:
            raise SearchError("need at least two samples")
        self.objective = objective
        self.num_samples = num_samples
        self.seed = seed
        self.space = space or NasBench201Space()
        axes = list(objectives) if objectives else ["latency"]
        if include_flops and "flops" not in axes:
            axes.append("flops")
        if len(set(axes)) != len(axes):
            raise SearchError(f"duplicate objective axes in {axes}")
        self.axes: Tuple[str, ...] = tuple(axes)

    # ------------------------------------------------------------------
    def _score_population(
        self, genotypes: Sequence[Genotype]
    ) -> List[ParetoPoint]:
        # One population call: canonical dedupe plus the parallel
        # runtime's executor hook (when the objective carries one).
        table = self.objective.evaluate_population(genotypes)
        # Quality is the *trainless* part only (NTK + linear regions);
        # hardware enters as its own objective axes, not via the weights.
        trainless = self.objective.with_weights(ObjectiveWeights())
        quality = trainless.combined_ranks(table.rows())
        engine = self.objective.engine
        return [
            ParetoPoint(genotype=genotype, quality_rank=float(q),
                        costs={axis: engine.cost(genotype, axis)
                               for axis in self.axes})
            for genotype, q in zip(genotypes, quality)
        ]

    def search(self) -> ParetoResult:
        """Sample, score, sort; return the first front (crowding-annotated)."""
        genotypes = self.space.sample(self.num_samples, rng=self.seed)
        with Timer() as timer:
            points = self._score_population(genotypes)
            front = first_front(
                [p.quality_rank for p in points],
                [[p.cost(axis) for p in points] for axis in self.axes])
        return ParetoResult(
            front=[replace(points[idx], crowding=crowding)
                   for idx, crowding in zip(front.members, front.crowding)],
            population_size=self.num_samples,
            wall_seconds=timer.elapsed,
            num_fronts=front.num_fronts,
            axes=self.axes,
        )
