"""The hybrid objective function (paper contribution #2).

Combines indicators by *relative ranking*: every candidate in a
comparison batch is ranked per axis, and ranks are summed with tunable
weights::

    score = rank(κ_NTK; ↓) + rank(LR; ↑) + w_F · rank(F; ↓) + w_L · rank(L; ↓)

Lower combined score is better.  ``w_F``/``w_L`` are the paper's "tunable
weight factors for precise control over the contributions of F and L".

:class:`ObjectiveWeights` is one axis → weight map.  The paper's four
indicators are its default entries, and every other registered
:class:`~repro.search.costs.CostModel` axis (``energy``, ``peak-mem``,
``int8-latency``, ...) is an entry like them: it adds its own
``w · rank(axis; ↓)`` term.  Only linear regions rank higher-is-better.

Indicator values come from the batched evaluation engine
(:class:`repro.engine.Engine`): one canonicalization-aware cache shared
across repeats, search cycles and algorithms, with vectorized proxy
kernels underneath.  The objective layer owns only weighting, rank
combination and the supernet *expectation* terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.core import INDICATOR_NAMES, Engine
from repro.engine.table import IndicatorTable
from repro.errors import SearchError
from repro.hardware.latency import LatencyEstimator
from repro.hardware.layers import op_layer
from repro.proxies.base import ProxyConfig
from repro.proxies.flops import count_flops
from repro.proxies.ranking import combine_ranks
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import MacroConfig
from repro.searchspace.ops import EDGES, NUM_NODES, op_flops
from repro.utils.timing import CostLedger

#: A large-but-finite stand-in for infinite condition numbers so ranking
#: never sees NaN/inf arithmetic surprises.
_INF_SENTINEL = 1e30

#: The paper's four axes and their default weights, in the rank sum's
#: column order; every other axis follows them, sorted by name.
_DEFAULT_WEIGHTS = {"ntk": 1.0, "linear_regions": 1.0,
                    "flops": 0.0, "latency": 0.0}

#: The trainless axes; every other axis is a hardware cost.
TRAINLESS_AXES = ("ntk", "linear_regions")


@dataclass(frozen=True, init=False)
class ObjectiveWeights:
    """Relative importance of each axis in the combined rank.

    One axis → weight map.  ``ntk=``, ``linear_regions=``, ``flops=``
    and ``latency=`` are sugar for entries of ``costs``, which accepts
    any registered axis as a mapping or pairs — so
    ``ObjectiveWeights(costs={"latency": 0.5})`` equals
    ``ObjectiveWeights(latency=0.5)``.  Giving one axis twice raises.
    The paper's four axes are always present (κ_NTK and linear regions
    at 1.0, FLOPs and latency at 0.0 unless given); the map is stored
    as canonically ordered pairs, so weights stay hashable and two
    objectives over the same axes compare equal.
    """

    axes: Tuple[Tuple[str, float], ...]

    def __init__(
        self,
        ntk: Optional[float] = None,
        linear_regions: Optional[float] = None,
        flops: Optional[float] = None,
        latency: Optional[float] = None,
        costs: Union[Mapping[str, float], Sequence[Tuple[str, float]]] = (),
    ) -> None:
        pairs = list(costs.items() if isinstance(costs, Mapping) else costs)
        pairs += [(axis, weight) for axis, weight in
                  (("ntk", ntk), ("linear_regions", linear_regions),
                   ("flops", flops), ("latency", latency))
                  if weight is not None]
        given: Dict[str, float] = {}
        for axis, weight in pairs:
            axis = str(axis)
            if axis in given:
                raise SearchError(f"duplicate weight for axis {axis!r}")
            if weight < 0:
                raise SearchError(f"negative weight {weight} for axis {axis!r}")
            given[axis] = float(weight)
        ordered = [(axis, given.pop(axis, default))
                   for axis, default in _DEFAULT_WEIGHTS.items()]
        object.__setattr__(self, "axes", tuple(ordered + sorted(given.items())))

    def weight(self, axis: str) -> float:
        """The weight of one axis (0.0 for an axis the map does not name)."""
        return self.as_dict().get(axis, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """The flat axis → weight map, in rank-sum column order."""
        return dict(self.axes)

    def weighted(self) -> Tuple[str, ...]:
        """The axes with positive weight, in rank-sum column order."""
        return tuple(axis for axis, weight in self.axes if weight > 0.0)

    def scaled_hardware(self, factor: float) -> "ObjectiveWeights":
        """Multiply every hardware weight (constraint adaptation step):
        every axis but κ_NTK and linear regions."""
        return ObjectiveWeights(costs={
            axis: weight if axis in TRAINLESS_AXES else weight * factor
            for axis, weight in self.axes})


#: Rank directions: True = higher raw value is better.  Axes missing
#: here (every extra cost axis) rank lower-is-better.
_DIRECTIONS = {
    "ntk": False,
    "linear_regions": True,
    "flops": False,
    "latency": False,
}


class HybridObjective:
    """Evaluates and rank-combines indicators for genotypes and supernets."""

    def __init__(
        self,
        proxy_config: Optional[ProxyConfig] = None,
        weights: Optional[ObjectiveWeights] = None,
        macro_config: Optional[MacroConfig] = None,
        latency_estimator: Optional[LatencyEstimator] = None,
        ledger: Optional[CostLedger] = None,
        engine: Optional[Engine] = None,
        executor=None,
    ) -> None:
        self.weights = weights or ObjectiveWeights()
        self.executor = executor
        if engine is None:
            engine = Engine(
                proxy_config=proxy_config,
                macro_config=macro_config,
                latency_estimator=latency_estimator,
                ledger=ledger,
            )
        elif any(arg is not None for arg in
                 (proxy_config, macro_config, latency_estimator, ledger)):
            raise SearchError(
                "pass either a pre-built engine or its configuration, not "
                "both — the engine's config would silently win"
            )
        self.engine = engine
        self.proxy_config = engine.proxy_config
        self.macro_config = engine.macro_config

    # ------------------------------------------------------------------
    @property
    def ledger(self) -> CostLedger:
        """The engine's cost ledger (shared across objective clones)."""
        return self.engine.ledger

    @property
    def latency_estimator(self) -> LatencyEstimator:
        """Lazily profiled latency estimator (built on first use)."""
        return self.engine.latency_estimator

    @property
    def built_latency_estimator(self) -> Optional[LatencyEstimator]:
        """The estimator if already built, else None (no profiling cost).

        The public seam for composing layers — constraint checkers and
        search loops reuse an existing estimator through this instead of
        reaching into engine internals.
        """
        return self.engine.built_latency_estimator

    def cost_models(self) -> List:
        """The registered models behind the weighted axes that an engine
        row does not already carry."""
        return [self.engine.cost_model(axis)
                for axis in self.weights.weighted()
                if axis not in INDICATOR_NAMES]

    def with_weights(self, weights: ObjectiveWeights) -> "HybridObjective":
        """Same engine (estimators, cache, ledger), different weights."""
        return HybridObjective(weights=weights, engine=self.engine,
                               executor=self.executor)

    # ------------------------------------------------------------------
    # Genotype-level indicators (engine-cached, canonicalization-aware)
    # ------------------------------------------------------------------
    def genotype_indicators(self, genotype: Genotype) -> Dict[str, float]:
        """Raw indicator values for a concrete architecture (the engine
        row, plus one entry per other weighted axis)."""
        row = self.engine.evaluate(
            genotype, with_latency=self.weights.weight("latency") > 0.0)
        for model in self.cost_models():
            row[model.name] = self.engine.cost(genotype, model)
        return row

    def evaluate_population(
        self, genotypes: Sequence[Genotype],
        executor=None,
    ) -> IndicatorTable:
        """Indicator table for a population (the search loops' entry point).

        ``executor`` overrides the objective's default executor for this
        call; either is handed to the engine's parallel-runtime hook.
        """
        return self.engine.evaluate_population(
            genotypes,
            with_latency=self.weights.weight("latency") > 0.0,
            executor=executor if executor is not None else self.executor,
            cost_models=self.cost_models() or None,
        )

    # ------------------------------------------------------------------
    # Supernet-level indicators (for the pruning search)
    # ------------------------------------------------------------------
    def supernet_indicators(self, edge_specs: Sequence[EdgeSpec]) -> Dict[str, float]:
        """Indicator values for a supernet state (alive-op sets)."""
        extra = [axis for axis in self.weights.weighted()
                 if axis not in INDICATOR_NAMES]
        if extra:
            raise SearchError(
                "extra cost axes are genotype-level models; the supernet "
                "(pruning) path supports only the paper's four indicators "
                f"— drop cost weights {extra} or use a genotype-level "
                "algorithm")
        return {
            "ntk": self.engine.supernet_ntk(edge_specs),
            "linear_regions": self.engine.supernet_linear_regions(edge_specs),
            "flops": self.expected_flops(edge_specs),
            "latency": (self.expected_latency_ms(edge_specs)
                        if self.weights.weight("latency") > 0.0 else 0.0),
        }

    def supernet_population(
        self, spec_lists: Sequence[Sequence[EdgeSpec]],
        executor=None,
    ) -> List[Dict[str, float]]:
        """Indicator rows for a batch of supernet states (pruning rounds).

        Repeated states — e.g. identical candidate prunings re-scored by
        the constraint-adaptation outer loop — resolve from the cache.
        An ``executor`` (the objective's by default) pre-computes missing
        states in worker processes before the serial assembly below.
        """
        executor = executor if executor is not None else self.executor
        if executor is not None:
            executor.warm_supernets(self.engine, spec_lists)
        return [self.supernet_indicators(specs) for specs in spec_lists]

    def expected_flops(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Expected deployment FLOPs under a uniform op choice per edge."""
        config = self.macro_config
        total = float(count_flops(Genotype(("none",) * 6), config))  # fixed parts
        for c, s in zip(config.stage_channels, config.stage_sizes):
            per_cell = 0.0
            for spec in edge_specs:
                if not spec.alive_ops:
                    continue
                per_cell += np.mean([op_flops(op, c, s, s) for op in spec.alive_ops])
            total += config.cells_per_stage * per_cell
        return total

    def expected_latency_ms(self, edge_specs: Sequence[EdgeSpec]) -> float:
        """Expected deployment latency under a uniform op choice per edge.

        Fixed parts (stem, reductions, head, constant overhead) come from
        the empty-cell network; per-edge terms average the LUT latency of
        each alive op; node-add kernels are included in expectation via the
        probability that each edge is active (non-``none``).
        """
        estimator = self.latency_estimator
        config = self.macro_config
        total = estimator.estimate_ms(Genotype(("none",) * 6))
        lut = estimator.lut
        for c, s in zip(config.stage_channels, config.stage_sizes):
            per_cell = 0.0
            active_prob = [0.0] * len(EDGES)
            for spec in edge_specs:
                if not spec.alive_ops:
                    continue
                entries = []
                for op in spec.alive_ops:
                    layer = op_layer(op, c, s)
                    entries.append(0.0 if layer is None else lut.lookup(layer))
                per_cell += float(np.mean(entries))
                active_prob[spec.edge_index] = np.mean(
                    [op != "none" for op in spec.alive_ops]
                )
            add_ms = lut.entries.get(("add", c, c, s, s, 1, 1), 0.0)
            for node in range(1, NUM_NODES):
                expected_in = sum(
                    active_prob[idx] for idx, (_, dst) in enumerate(EDGES) if dst == node
                )
                per_cell += max(0.0, expected_in - 1.0) * add_ms
            total += config.cells_per_stage * per_cell
        return total

    # ------------------------------------------------------------------
    # Rank combination
    # ------------------------------------------------------------------
    def combined_ranks(self, indicator_rows: List[Dict[str, float]]) -> np.ndarray:
        """Weighted rank sum across a comparison batch (lower = better).

        One column per weighted axis, summed in the weights' canonical
        order (the paper's four, then extra axes sorted by name).
        """
        weights = self.weights.as_dict()
        columns = {}
        for axis in self.weights.weighted():
            raw = np.array([row[axis] for row in indicator_rows], dtype=float)
            raw[~np.isfinite(raw)] = _INF_SENTINEL
            columns[axis] = raw
        directions = {axis: _DIRECTIONS.get(axis, False) for axis in columns}
        return combine_ranks(columns, directions, weights)

    def score_genotypes(self, genotypes: Sequence[Genotype]) -> np.ndarray:
        """Combined rank score for a batch of architectures.

        Routed through the engine's population API: the batch is
        deduplicated canonically and every indicator comes from (or lands
        in) the shared cache.
        """
        return self.combined_ranks(self.evaluate_population(genotypes).rows())
