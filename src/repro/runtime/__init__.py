"""The parallel evaluation runtime.

:mod:`repro.engine` owns *what* trainless evaluation computes (vectorized
proxy kernels, the canonicalization-aware cache, the population API).
This package owns *how* populations get evaluated at scale — without the
engine ever importing it:

1. **Executor** (:mod:`repro.runtime.async_pool`, chunk workers in
   :mod:`repro.runtime.pool`) — :class:`AsyncPopulationExecutor` maps
   proxy evaluation over the unique canonical genotypes (or supernet
   states) of a population in DeepHyper-style submit/gather halves:
   per-chunk futures on serial, thread or pure-NumPy fork backends whose
   indicator rows merge into the shared
   :class:`~repro.engine.cache.IndicatorCache` **the moment each chunk
   lands** (via :meth:`~repro.engine.core.Engine.merge_indicator_rows`),
   under the engine's exact cache keys.  Workers are deterministic because
   every proxy seeds from the canonical key, so results are bit-identical
   to serial evaluation regardless of worker count or completion order.
   Its blocking ``warm_population``/``warm_supernets`` hooks serve every
   search loop; the steady-state evolutionary search keeps ``n_workers``
   candidates in flight on the split halves, overlapping mutation with
   evaluation instead of idling at generation barriers.
2. **Persistent store** (:mod:`repro.runtime.store`) —
   :class:`RuntimeStore` serialises the indicator cache (JSON round-trip
   with fingerprint validation, so stale proxy/macro configurations never
   poison results) and keeps a device-keyed latency-LUT store built on
   :meth:`~repro.hardware.profiler.LatencyLUT.save_json`, so repeated
   runs, multi-device Pareto searches and CI all warm-start.
3. **Run harness** (:mod:`repro.runtime.harness`) — one
   :class:`RuntimeConfig` configures engine + pool + store, runs any
   registered search algorithm against them and emits a structured
   :class:`RunReport`.  The harness owns executor lifecycle: pools are
   closed deterministically when the run finishes (or via the harness's
   context manager), never left to GC timing.
4. **Fault tolerance** (:mod:`repro.runtime.faults`) — the failure
   policy the async layers execute: transient-vs-poison classification,
   deterministic retry backoff, per-chunk deadlines, pool respawn after
   worker death, a persistent quarantine ledger for poison candidates,
   and a deterministic fault-injection harness (:class:`FaultPlan`) that
   makes every failure mode replayable in tests.  SIGINT/SIGTERM during
   an async harness run triggers a graceful drain: submission stops,
   in-flight chunks land and flush, and the report comes back marked
   ``interrupted`` with nothing lost.
5. **Telemetry** (:mod:`repro.runtime.telemetry` +
   :mod:`repro.runtime.tracing`) — a strict-observer instrumentation
   substrate: one run-scoped :class:`Telemetry` object threaded through
   harness → executors → pool → store → engine records spans (dispatch,
   worker compute, gather, merge, flush, compaction, backoff, respawn)
   and a lock-free metrics registry; fork workers self-report through a
   ``flock``'d JSONL sidecar.  Exports Chrome ``trace_event`` JSON
   (Perfetto-loadable) plus a metrics snapshot in the
   :class:`RunReport`; disabled by default with <2% armed overhead and
   zero effect on computed rows.

6. **Distributed fleet** (:mod:`repro.runtime.fleet`) — a TCP socket
   broker (:class:`FleetBroker`) leasing picklable chunk payloads to an
   elastic set of worker processes (``micronas fleet worker``), with
   per-lease deadlines, exactly-once re-lease of expired chunks, and
   requeue of chunks a disconnected worker held.  The driver-side
   :class:`FleetPool` implements the ``FuturePool`` submit/gather
   contract, so the async executor, fault taxonomy, quarantine ledger,
   telemetry and graceful drain compose unchanged; workers warm-start
   from — and flush freshly computed rows into — the shared store, so
   late joiners inherit everything already computed.

The composition seam is deliberately thin: ``Engine.evaluate_population``
and every search loop accept an optional ``executor=`` object they only
duck-type (``warm_population`` / ``warm_supernets`` for barrier-style
warming, ``submit_population`` / ``gather`` for event-driven loops), the
engine/estimator accept a duck-typed ``lut_store``, and the async
executor accepts any ``pool=`` honouring the ``FuturePool`` contract —
which is exactly how the fleet transport plugs in.
"""

from repro.runtime.async_pool import (
    AsyncPoolStats,
    AsyncPopulationExecutor,
    ChunkGatherError,
    FuturePool,
    GatheredChunk,
)
from repro.runtime.faults import (
    ChunkTimeoutError,
    FaultPlan,
    FaultPolicy,
    QuarantineLedger,
    TransientWorkerError,
    classify_failure,
)
from repro.runtime.fleet import (
    FleetBroker,
    FleetPool,
    FleetWorkerLostError,
    FleetWorkerStats,
    run_worker,
    spawn_local_worker,
)
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.runtime.harness import (
    ALGORITHMS,
    DeviceMatrixReport,
    MatrixCell,
    RunHarness,
    RunReport,
    RuntimeConfig,
    register_algorithm,
    run_matrix,
)
from repro.runtime.telemetry import (
    Heartbeat,
    MetricsRegistry,
    Telemetry,
    load_trace,
    span_coverage,
    summarize_trace,
)
from repro.runtime.tracing import Tracer, write_chrome_trace

__all__ = [
    "AsyncPopulationExecutor",
    "AsyncPoolStats",
    "ChunkGatherError",
    "ChunkTimeoutError",
    "FaultPlan",
    "FaultPolicy",
    "FuturePool",
    "GatheredChunk",
    "QuarantineLedger",
    "TransientWorkerError",
    "classify_failure",
    "FleetBroker",
    "FleetPool",
    "FleetWorkerLostError",
    "FleetWorkerStats",
    "run_worker",
    "spawn_local_worker",
    "RuntimeStore",
    "cache_fingerprint",
    "RuntimeConfig",
    "RunHarness",
    "RunReport",
    "MatrixCell",
    "DeviceMatrixReport",
    "ALGORITHMS",
    "register_algorithm",
    "run_matrix",
    "Heartbeat",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "load_trace",
    "span_coverage",
    "summarize_trace",
    "write_chrome_trace",
]
