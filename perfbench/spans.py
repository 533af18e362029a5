"""Layer spans recorded from outside the program.

A traced run replaces each layer's public function with a timing wrapper
*where its caller looks the name up* -- a module attribute, a class
attribute or a registry entry -- and puts every original back on exit.
The program's own code is never edited.

Spans stay in memory as ``[name, start, end, parent, nested]`` rows
(``parent`` is the index of the enclosing span on the same thread, -1 at
the top; ``nested`` is true when a span of the same name encloses it, so
a layer that calls itself is not counted twice).  A layer's self time is
its span minus the time its child spans cover.

Spans recorded inside forked workers die with those workers: worker-side
kernel time is only visible through the pool's own ``worker_seconds``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

#: Every traced layer, with the places its callers look it up.  An owner
#: is ``module`` or ``module:attribute`` (a class or a dict); the name
#: ``*`` wraps every entry of a dict.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("runtime.harness.init", (
        ("repro.runtime.harness:RunHarness", "__init__"),)),
    ("runtime.harness.close", (
        ("repro.runtime.harness:RunHarness", "close"),)),
    ("search", (
        ("repro.runtime.harness:ALGORITHMS", "*"),)),
    ("search.rank", (
        ("repro.search.objective:HybridObjective", "combined_ranks"),)),
    ("search.supernets", (
        ("repro.search.objective:HybridObjective", "supernet_population"),)),
    ("engine.evaluate_population", (
        ("repro.engine.core:Engine", "evaluate_population"),)),
    ("runtime.pool.warm", (
        ("repro.runtime.pool:PopulationExecutor", "warm_population"),
        ("repro.runtime.pool:PopulationExecutor", "warm_supernets"))),
    ("runtime.async_pool.submit", (
        ("repro.runtime.async_pool:AsyncPopulationExecutor",
         "submit_population"),
        ("repro.runtime.async_pool:AsyncPopulationExecutor",
         "submit_supernets"))),
    ("runtime.async_pool.gather", (
        ("repro.runtime.async_pool:AsyncPopulationExecutor", "gather"),)),
    ("runtime.store.load", (
        ("repro.runtime.store:RuntimeStore", "load_cache_into"),)),
    ("runtime.store.save", (
        ("repro.runtime.store:RuntimeStore", "save_cache"),)),
    ("proxies.ntk", (
        ("repro.proxies.ntk", "ntk_grams"),
        ("repro.proxies.ntk", "ntk_condition_number"),
        ("repro.proxies.ntk", "supernet_ntk_condition_number"),
        ("repro.engine.core", "ntk_grams"),
        ("repro.engine.core", "ntk_condition_number"),
        ("repro.engine.core", "supernet_ntk_condition_number"))),
    ("proxies.line_regions", (
        ("repro.proxies.linear_regions", "count_line_regions"),
        ("repro.proxies.linear_regions", "supernet_line_regions"),
        ("repro.engine.core", "count_line_regions"),
        ("repro.engine.core", "supernet_line_regions"))),
    ("searchspace.build", (
        ("repro.searchspace.network", "build_network"),
        ("repro.searchspace.network", "build_supernet"),
        ("repro.searchspace", "build_network"),
        ("repro.proxies.ntk", "build_network"))),
    ("engine.kernels.ntk_jacobian", (
        ("repro.engine.kernels", "batched_ntk_jacobian"),
        ("repro.engine", "batched_ntk_jacobian"))),
    # The stacked eigensolve, plus the per-candidate one the proxy calls
    # when an executor computes rows chunk by chunk (every harness run).
    ("engine.kernels.eig", (
        ("repro.engine.kernels", "batched_condition_numbers"),
        ("repro.engine.core", "batched_condition_numbers"),
        ("repro.engine", "batched_condition_numbers"),
        ("repro.proxies.ntk", "_eigvalsh_desc"))),
    ("nn.forward", (
        ("repro.searchspace.network:NasBench201Network", "forward"),
        ("repro.proxies.linear_regions:LinearRegionNetwork", "forward"))),
    ("autograd.conv2d", (
        ("repro.autograd.functional", "conv2d"),
        ("repro.autograd", "conv2d"))),
    ("autograd.backward", (
        ("repro.autograd.tensor:Tensor", "backward"),)),
    ("hardware.latency", (
        ("repro.hardware.latency:LatencyEstimator", "estimate_ms"),
        ("repro.search.objective:HybridObjective", "expected_latency_ms"))),
)

#: Span name of the benchmark's own root span around one timed unit.
UNIT = "bench.unit"


class Tracer:
    """Records nested spans in memory; patches and restores layers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its index."""
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        nested = any(self.spans[i][0] == name for i in stack)
        row = [name, time.perf_counter(), None, parent, nested]
        self.spans.append(row)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            row[2] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point; one wrapper per original, so a
        function re-exported under several names is still one span."""
        wrappers: Dict[int, object] = {}
        for name, sites in LAYERS:
            for owner_spec, attr in sites:
                owner = _resolve(owner_spec)
                keys = list(owner) if attr == "*" else [attr]
                for key in keys:
                    original = (owner[key] if isinstance(owner, dict)
                                else getattr(owner, key))
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self.wrap(name, original)
                    self._set(owner, key, wrappers[id(original)])
                    self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            self._set(owner, key, original)

    @staticmethod
    def _set(owner, key: str, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def write(self, path: str) -> None:
        """Dump the spans as JSON rows ``[name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([row[:4] for row in self.spans], fh)


def _resolve(spec: str):
    module_name, _, attribute = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


def layer_totals(spans: Sequence[list], roots: Sequence[int]
                 ) -> Dict[str, Dict[str, float]]:
    """Per-layer ``s`` (outermost span time), ``self_s`` and ``calls``
    summed over the spans under the given root spans.

    ``self_s`` of a span is its duration minus its children's; children
    of one span never overlap because spans on one thread nest.
    """
    inside = set(roots)
    child_time = [0.0] * len(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent, nested) in enumerate(spans):
        if parent in inside:
            inside.add(index)
        if index not in inside or end is None:
            continue
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
    for index in sorted(inside):
        name, start, end, parent, nested = spans[index]
        if end is None:
            continue
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0,
                                         "calls": 0})
        entry["self_s"] += (end - start) - child_time[index]
        if not nested:
            entry["s"] += end - start
            entry["calls"] += 1
    return totals
