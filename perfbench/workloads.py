"""The four benchmark workloads and their correctness gates.

Every workload drives the public runtime API -- ``RunHarness(RuntimeConfig
(...))``, ``.run()``, ``.close()`` -- from this process, and every one
weights latency at 0.5, because MicroNAS is hardware-aware.  A *unit* is
one harness lifecycle (construct, run, close); the benchmark times units
back to back and each workload says which config unit ``i`` runs.

Why these four (each stresses a different layer, and each bypasses what
another one stresses):

* ``cold-paper`` -- the paper-scale proxy kernels (conv, backward,
  per-sample gradients); store, executor and search loop are nearly idle.
* ``micronas-prune`` -- the paper's own pruning search over multi-op
  supernets: the same kernels at other shapes, through another caller.
* ``steady-async`` -- main-process dispatch, gather, merge and store
  appends while forked workers run the kernels.
* ``warm-restart`` -- the store's read side, the cache, ranking and harness
  construction; no kernel runs.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional, Tuple

LATENCY_WEIGHT = 0.5

#: Relative tolerance between the batched NTK kernel and its reference
#: per-sample loop (float summation order differs; see
#: ``tests/engine/test_kernels.py``).
NTK_REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Workload scale; :data:`FULL` is the benchmark, :data:`TINY` the
    smoke test."""

    cold_samples: int = 32
    reference_archs: int = 4
    async_cycles: int = 64
    rows_checked_per_unit: int = 8
    fill_samples: int = 512
    min_restarts: int = 100


FULL = Sizes()
TINY = Sizes(cold_samples=2, reference_archs=1, async_cycles=4,
             rows_checked_per_unit=2, fill_samples=8, min_restarts=3)


@dataclass
class Gate:
    """Counts checked outputs and keeps a line for each one that failed."""

    checked: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)


def same_value(a: float, b: float) -> bool:
    """Bit-level float equality, treating NaN as equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _result(report) -> Tuple:
    """What must repeat exactly for one input: the selected cell and its
    indicator values."""
    return report.arch_str, tuple(sorted(report.indicators.items()))


class Workload:
    """One benchmark workload: configs per unit, set-up and checks."""

    name = ""
    #: Units the run makes even when ``--seconds`` has already passed.
    min_units = 1

    def __init__(self, seed: int, sizes: Sizes, work_dir: str,
                 paired: bool = False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        #: Traced runs time units in (untraced, traced) pairs that must
        #: run the same input, so the two can be compared.
        self.paired = paired
        #: Unit index -> (input seed, result) for the determinism gate.
        self.results: Dict[int, Tuple[int, Tuple]] = {}

    # Unit inputs ------------------------------------------------------
    def input_seed(self, unit: int) -> int:
        """Seed of unit ``unit``'s input, derived from the run's seed.
        Units draw distinct inputs (shared by each pair when paired):
        the median over many inputs varies less from seed to seed than
        any one input's time does."""
        return self.seed * 1000 + (unit // 2 if self.paired else unit)

    def config(self, unit: int):
        raise NotImplementedError

    def scale(self) -> Dict[str, object]:
        """The workload's size, for the report's provenance block."""
        raise NotImplementedError

    # Phases -------------------------------------------------------------
    def setup(self) -> None:
        """One set-up repetition (timed by the caller)."""

    def prepare(self, unit: int) -> None:
        """Untimed preparation right before unit ``unit``."""

    def finish(self, unit: int, harness, report) -> None:
        """Record unit ``unit``'s outputs for :meth:`check`."""
        self.results[unit] = (self.input_seed(unit), _result(report))

    def check(self, gate: Gate) -> None:
        """Every unit that ran the same input selected the same cell."""
        first: Dict[int, Tuple] = {}
        for unit, (seed, result) in sorted(self.results.items()):
            first.setdefault(seed, result)
            gate.expect(result == first[seed],
                        f"unit {unit} (input seed {seed}) selected "
                        f"{result[0]}, an earlier run selected "
                        f"{first[seed][0]}")

    def close(self) -> None:
        """Drop what the workload keeps between units."""


def _runtime():
    from repro.runtime.harness import RunHarness, RuntimeConfig

    return RunHarness, RuntimeConfig


# ----------------------------------------------------------------------
class ColdPaper(Workload):
    """Random search at the paper's proxy scale, serial, no store."""

    name = "cold-paper"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._first_harness = None

    def config(self, unit: int):
        _, RuntimeConfig = _runtime()
        return RuntimeConfig(algorithm="random",
                             samples=self.sizes.cold_samples, fast=False,
                             seed=self.input_seed(unit),
                             latency_weight=LATENCY_WEIGHT)

    def scale(self) -> Dict[str, object]:
        return {"proxy": "paper", "samples": self.sizes.cold_samples,
                "n_workers": 1, "store": None}

    def setup(self) -> None:
        """Lazy imports and LUT profiling, through a two-sample run."""
        RunHarness, RuntimeConfig = _runtime()
        RunHarness(RuntimeConfig(algorithm="random", samples=2, fast=False,
                                 seed=self.seed,
                                 latency_weight=LATENCY_WEIGHT)).run()

    def finish(self, unit: int, harness, report) -> None:
        super().finish(unit, harness, report)
        if self._first_harness is None:
            self._first_harness = harness

    def check(self, gate: Gate) -> None:
        """Reruns the first unit's input (its selected cell and values
        must repeat), then checks rows against the reference paths."""
        super().check(gate)
        if 0 in self.results:
            RunHarness, _ = _runtime()
            seed, expected = self.results[0]
            rerun = _result(RunHarness(self.config(0)).run())
            gate.expect(rerun == expected,
                        f"rerun of input seed {seed} selected {rerun[0]}, "
                        f"the timed run selected {expected[0]}")
        if self._first_harness is not None:
            check_against_reference(self._first_harness,
                                    self.sizes.reference_archs, gate)

    def close(self) -> None:
        self._first_harness = None


def check_against_reference(harness, count: int, gate: Gate) -> None:
    """Re-derive ``count`` of the harness's cached genotype rows on the
    pre-vectorisation reference paths: NTK within
    :data:`NTK_REFERENCE_RTOL`, line regions and FLOPs exactly."""
    from repro.proxies.flops import count_flops
    from repro.proxies.linear_regions import count_line_regions
    from repro.proxies.ntk import ntk_condition_number
    from repro.runtime.pool import genotype_indicator_keys
    from repro.searchspace.genotype import Genotype

    cache = harness.engine.cache
    proxy_key = astuple(harness.proxy_config)
    macro_key = astuple(harness.macro_config)
    indices = sorted(key[1] for key, _ in cache.items()
                     if key[0] == "ntk" and key[3] == proxy_key)
    reference = harness.proxy_config.reference()
    for index in indices[:count]:
        keys = genotype_indicator_keys(index, proxy_key, macro_key)
        genotype = Genotype.from_index(index)
        ntk = cache.get(keys["ntk"])
        ref_ntk = ntk_condition_number(genotype, reference)
        gate.expect(
            same_value(ntk, ref_ntk)
            or abs(ntk - ref_ntk) <= NTK_REFERENCE_RTOL * abs(ref_ntk),
            f"arch {index}: NTK {ntk!r} vs reference {ref_ntk!r}")
        lr = cache.get(keys["linear_regions"])
        ref_lr = count_line_regions(genotype, reference)
        gate.expect(same_value(lr, ref_lr),
                    f"arch {index}: line regions {lr!r} vs reference "
                    f"{ref_lr!r}")
        flops = cache.get(keys["flops"])
        ref_flops = float(count_flops(genotype, harness.macro_config))
        gate.expect(same_value(flops, ref_flops),
                    f"arch {index}: FLOPs {flops!r} vs {ref_flops!r}")


# ----------------------------------------------------------------------
class MicronasPrune(Workload):
    """The paper's pruning search at reduced scale, serial, no store."""

    name = "micronas-prune"

    def input_seed(self, unit: int) -> int:
        # The pruning search does the same work for every seed, so every
        # unit reruns one input and all of them must agree.
        return self.seed

    def config(self, unit: int):
        _, RuntimeConfig = _runtime()
        return RuntimeConfig(algorithm="pruning", fast=True,
                             seed=self.input_seed(unit),
                             latency_weight=LATENCY_WEIGHT)

    def scale(self) -> Dict[str, object]:
        return {"proxy": "reduced", "n_workers": 1, "store": None}

    def setup(self) -> None:
        RunHarness, RuntimeConfig = _runtime()
        RunHarness(RuntimeConfig(algorithm="random", samples=2, fast=True,
                                 seed=self.seed,
                                 latency_weight=LATENCY_WEIGHT)).run()


# ----------------------------------------------------------------------
def persisted_rows(store_dir: str, fingerprint: Dict) -> List[Tuple]:
    """Every ``(key, value)`` row the store holds under ``fingerprint``."""
    from repro.engine.cache import IndicatorCache
    from repro.runtime.store import RuntimeStore

    cache = IndicatorCache()
    RuntimeStore(store_dir).load_cache_into(cache, fingerprint)
    return cache.items()


def reference_engine(harness):
    """A fresh serial engine with the harness's configs and device."""
    from repro.engine.core import Engine

    return Engine(proxy_config=harness.proxy_config,
                  macro_config=harness.macro_config, device=harness.device)


def check_rows(rows, engine, gate: Gate, label: str) -> None:
    """Each row must be bit-identical to the serial engine's value for
    its key (the engine computes a genotype's four rows at once)."""
    from repro.searchspace.genotype import Genotype

    for key, value in rows:
        if key not in engine.cache:
            engine.evaluate(Genotype.from_index(key[1]), with_latency=True)
        expected = engine.cache.get(key)
        gate.expect(expected is not None and same_value(value, expected),
                    f"{label}: persisted {key[0]} row for arch {key[1]} "
                    f"is {value!r}, serial evaluation gives {expected!r}")


class SteadyAsync(Workload):
    """Steady-state evolution on the async runtime, a fresh store per
    unit, so every gathered chunk is flushed as an append."""

    name = "steady-async"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._harnesses: Dict[int, object] = {}

    def _store(self, unit: int) -> str:
        return os.path.join(self.work_dir, f"unit-{unit}")

    def config(self, unit: int):
        _, RuntimeConfig = _runtime()
        return RuntimeConfig(algorithm="steady-state", async_mode=True,
                             n_workers=2, cycles=self.sizes.async_cycles,
                             fast=True, seed=self.input_seed(unit),
                             latency_weight=LATENCY_WEIGHT,
                             store_dir=self._store(unit))

    def scale(self) -> Dict[str, object]:
        return {"proxy": "reduced", "cycles": self.sizes.async_cycles,
                "n_workers": 2, "store": "fresh per unit"}

    def setup(self) -> None:
        """Lazy imports, a forked pool and a store, through a short run."""
        RunHarness, RuntimeConfig = _runtime()
        store = tempfile.mkdtemp(dir=self.work_dir)
        try:
            RunHarness(RuntimeConfig(
                algorithm="steady-state", async_mode=True, n_workers=2,
                cycles=2, fast=True, seed=self.seed,
                latency_weight=LATENCY_WEIGHT, store_dir=store)).run()
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def finish(self, unit: int, harness, report) -> None:
        self._harnesses[unit] = harness

    def check(self, gate: Gate) -> None:
        """Every persisted row of the first unit, and a seeded sample of
        each later unit's rows, against a serial engine with the unit's
        configs."""
        import random

        sampler = random.Random(self.seed)
        for unit, harness in sorted(self._harnesses.items()):
            rows = persisted_rows(self._store(unit), harness.fingerprint)
            gate.expect(bool(rows), f"unit {unit} persisted no rows")
            if unit > 0:
                rows = sampler.sample(
                    rows, min(len(rows), self.sizes.rows_checked_per_unit))
            check_rows(rows, reference_engine(harness), gate, f"unit {unit}")

    def close(self) -> None:
        for unit in self._harnesses:
            shutil.rmtree(self._store(unit), ignore_errors=True)
        self._harnesses.clear()


# ----------------------------------------------------------------------
class WarmRestart(Workload):
    """Restarts of one async random search against copies of a store
    that one cold run of the same config filled.

    Async mode, the ``auto`` read mode (index reads) and ``save_store``
    stay at their defaults: together they expose that index reads never
    load latency rows, so each restart recomputes and re-appends them.
    """

    name = "warm-restart"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.min_units = self.sizes.min_restarts
        self._fill_dir: Optional[str] = None
        self._fill_results: List[Tuple] = []

    def input_seed(self, unit: int) -> int:
        return self.seed

    def _config(self, store_dir: str):
        _, RuntimeConfig = _runtime()
        return RuntimeConfig(algorithm="random", async_mode=True,
                             n_workers=2, samples=self.sizes.fill_samples,
                             fast=True, seed=self.seed,
                             latency_weight=LATENCY_WEIGHT,
                             store_dir=store_dir)

    def _unit_dir(self, unit: int) -> str:
        return os.path.join(self.work_dir, f"restart-{unit}")

    def config(self, unit: int):
        return self._config(self._unit_dir(unit))

    def scale(self) -> Dict[str, object]:
        return {"proxy": "reduced", "fill_samples": self.sizes.fill_samples,
                "n_workers": 2, "store_read_mode": "auto"}

    def setup(self) -> None:
        """Fill a fresh store with one cold run (the previous fill goes)."""
        RunHarness, _ = _runtime()
        if self._fill_dir is not None:
            shutil.rmtree(self._fill_dir, ignore_errors=True)
        self._fill_dir = tempfile.mkdtemp(dir=self.work_dir)
        report = RunHarness(self._config(self._fill_dir)).run()
        self._fill_results.append(_result(report))

    def prepare(self, unit: int) -> None:
        shutil.copytree(self._fill_dir, self._unit_dir(unit))

    def finish(self, unit: int, harness, report) -> None:
        super().finish(unit, harness, report)
        shutil.rmtree(self._unit_dir(unit), ignore_errors=True)

    def check(self, gate: Gate) -> None:
        """Every fill and every restart reproduces the first fill's
        result."""
        if not self._fill_results:
            return
        first = self._fill_results[0]
        for index, result in enumerate(self._fill_results[1:], 1):
            gate.expect(result == first,
                        f"fill {index} selected {result[0]}, fill 0 "
                        f"selected {first[0]}")
        for unit, (_, result) in sorted(self.results.items()):
            gate.expect(result == first,
                        f"restart {unit} selected {result[0]}, the fill "
                        f"selected {first[0]}")

    def close(self) -> None:
        if self._fill_dir is not None:
            shutil.rmtree(self._fill_dir, ignore_errors=True)
            self._fill_dir = None


WORKLOADS = {cls.name: cls for cls in
             (ColdPaper, MicronasPrune, SteadyAsync, WarmRestart)}
