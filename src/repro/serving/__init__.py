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
the fleet simulator, and :mod:`repro.serving.demo` for one-call demo
fleets used by the CLI, the tests and the benchmarks.
"""

from .batcher import (
    Batch,
    BatchingConfig,
    DynamicBatcher,
    QueueFullError,
    RequestError,
    ServedFuture,
)
from .demo import DemoSystem, build_demo_system
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
    "DemoSystem",
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
    "build_demo_system",
    "burst_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "mmpp_trace",
    "percentile",
    "poisson_trace",
    "run_load",
    "sweep_offered_load",
]
