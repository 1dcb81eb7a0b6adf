"""Deployment planning: one declarative plan from partition to serving.

The planning layer closes the paper's Algorithm 1 loop into a single
artifact: a :class:`DeploymentPlan` (class partition, per-sub-model
head-pruning number, device mapping, predicted latency/energy/accuracy)
produced by a :class:`Planner` that composes the class partitioner, the
analytic head-pruning schedule, greedy device assignment, analytic
profiling, and the discrete-event simulator — then executed directly:
:class:`PlannedSystem` boots an edge cluster and inference server from the
plan, and :func:`replan_on_failure` reassigns a failed device's sub-models
onto surviving devices' residual capacity at runtime so fusion recovers
real features instead of zero-filling forever.

:mod:`repro.planning.capacity` scales the planning question up from one
cluster to a fleet: :func:`plan_capacity` sweeps device class × fleet
size × codec/quant against an arrival trace through the vectorized DES
and returns the cost/latency Pareto frontier (the ``repro capacity``
CLI).
"""

from .capacity import (
    DEVICE_CLASSES,
    CapacityPoint,
    CapacityReport,
    DeviceClass,
    cheapest_within_slo,
    pareto_frontier,
    plan_capacity,
)
from .execute import (
    PlannedSystem,
    plan_artifact_digests,
    plan_demo_system,
    quantize_plan_artifacts,
)
from .plan import (
    FUSION_ARTIFACT,
    DeploymentPlan,
    PlanPrediction,
    PlannedSubModel,
)
from .planner import (
    DEFAULT_CANDIDATE_CODECS,
    Planner,
    PlannerConfig,
    PlanningError,
    score_plan,
)
from .replan import ReplanInfeasible, replan_on_failure, residual_capacity

__all__ = [
    "CapacityPoint",
    "CapacityReport",
    "DEFAULT_CANDIDATE_CODECS",
    "DEVICE_CLASSES",
    "DeploymentPlan",
    "DeviceClass",
    "FUSION_ARTIFACT",
    "PlanPrediction",
    "PlannedSubModel",
    "PlannedSystem",
    "Planner",
    "PlannerConfig",
    "PlanningError",
    "ReplanInfeasible",
    "cheapest_within_slo",
    "pareto_frontier",
    "plan_artifact_digests",
    "plan_capacity",
    "plan_demo_system",
    "quantize_plan_artifacts",
    "replan_on_failure",
    "residual_capacity",
    "score_plan",
]
