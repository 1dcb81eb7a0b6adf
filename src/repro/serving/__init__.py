"""Asynchronous request-level serving over the emulated edge fleet.

Pipeline: clients ``submit()`` requests -> the batcher hands a request
that finds the fleet idle over at once and coalesces whatever queued up
behind the batch in flight (up to the max batch size) -> the dispatcher
scatters each
batch to every live worker concurrently and gathers by polling all pipes
at once -> dead or timed-out workers are marked down and zero-filled
(degraded fusion) -> the fusion MLP classifies -> per-request futures
resolve with labels and a full latency breakdown.

See :mod:`repro.serving.loadgen` for the Poisson open-loop / concurrent
closed-loop / trace-replay load generator, :mod:`repro.serving.traffic`
for the arrival-trace model and traffic-shape generators it shares with
the fleet simulator, and :mod:`repro.serving.demo` for the demo training
recipe and the in-process fusion reference.  A served fleet itself is a
:class:`repro.planning.PlannedSystem` (``make_server()``); the CLI, the
tests and the benchmarks stand one up with
:func:`repro.planning.plan_demo_system`.
"""

from .batcher import (
    Batch,
    BatchingConfig,
    DynamicBatcher,
    QueueFullError,
    RequestError,
    ServedFuture,
)
from .loadgen import (
    LoadgenConfig,
    LoadgenResult,
    run_load,
    sweep_offered_load,
)
from .server import InferenceServer, ServerConfig
from .telemetry import RequestTelemetry, ServingReport, percentile
from .traffic import (
    ArrivalTrace,
    burst_trace,
    diurnal_trace,
    flash_crowd_trace,
    mmpp_trace,
    poisson_trace,
)

__all__ = [
    "ArrivalTrace",
    "Batch",
    "BatchingConfig",
    "DynamicBatcher",
    "InferenceServer",
    "LoadgenConfig",
    "LoadgenResult",
    "QueueFullError",
    "RequestError",
    "RequestTelemetry",
    "ServedFuture",
    "ServerConfig",
    "ServingReport",
    "burst_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "mmpp_trace",
    "percentile",
    "poisson_trace",
    "run_load",
    "sweep_offered_load",
]
