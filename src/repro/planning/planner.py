"""The planner: Algorithm 1 end to end, scored by the DES simulator.

:class:`Planner` composes the pieces the repo previously exercised only in
isolation — balanced class partitioning (:mod:`repro.splitting.
class_assignment`), the analytic head-pruning schedule loop
(:func:`repro.splitting.schedule.plan_head_schedule`), greedy device
assignment (:mod:`repro.assignment`), analytic profiling
(:mod:`repro.profiling`), and the discrete-event simulator
(:mod:`repro.edge.simulator`) — into one pipeline that emits a scored
:class:`~repro.planning.plan.DeploymentPlan`.

Codec search: :meth:`Planner.select_codec` scores every codec of
:data:`DEFAULT_CANDIDATE_CODECS` — each candidate's *encoded* per-sample
payload bytes flow into the DES link model, and the lowest-predicted-
latency codec wins among those whose fused-accuracy cost stays within
:data:`ACCURACY_DROP_BOUND`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..assignment import InfeasibleAssignment, greedy_assign
from ..edge.codec import get_codec
from ..edge.device import DeviceModel
from ..edge.network import LinkModel, uniform_star
from ..edge.simulator import energy_report, simulate_inference
from ..models.fusion import FusionConfig
from ..models.vit import ViTConfig
from ..profiling import fusion_flops
from ..splitting.class_assignment import balanced_class_partition
from ..splitting.schedule import ScheduleInfeasible, plan_head_schedule
from .plan import (
    DeploymentPlan,
    PlanPrediction,
    PlannedSubModel,
)


class PlanningError(RuntimeError):
    """No candidate plan satisfied the constraints."""


# Codecs select_codec scores, and the most fused accuracy one may cost.
DEFAULT_CANDIDATE_CODECS = ("raw32", "f16", "q8", "q8+zlib")
ACCURACY_DROP_BOUND = 0.01

# Workload sizing for assignment (Algorithm 3's L): one sample.
NUM_SAMPLES = 1

# How score_plan loads the DES: four samples arriving together.
DES_SAMPLES = 4
ARRIVAL_INTERVAL_S = 0.0


@dataclasses.dataclass(frozen=True)
class PlannerConfig:
    """What a plan is built for: its seed, wire codec and memory budget."""

    memory_budget_bytes: int | None = None  # None = fleet-wide sum
    seed: int = 0
    codec: str = "raw32"               # wire codec recorded in the plan


def score_plan(plan: DeploymentPlan,
               accuracy: float | None = None) -> PlanPrediction:
    """Predict latency/energy for ``plan`` with the DES simulator."""
    spec = plan.deployment_spec()
    result = simulate_inference(spec, num_samples=DES_SAMPLES,
                                arrival_interval=ARRIVAL_INTERVAL_S)
    energy = sum(energy_report(spec, result).values())
    return PlanPrediction(latency_s=result.mean_latency,
                          max_latency_s=result.max_latency,
                          makespan_s=result.makespan,
                          throughput_sps=result.throughput,
                          energy_j=energy,
                          accuracy=accuracy)


class Planner:
    """Builds and scores :class:`DeploymentPlan` candidates for a fleet."""

    def __init__(self, devices: list[DeviceModel],
                 fusion_device: DeviceModel | None = None,
                 link: LinkModel | None = None,
                 config: PlannerConfig | None = None):
        if not devices:
            raise ValueError("need at least one device")
        self.devices = list(devices)
        self.fusion_device = fusion_device or DeviceModel(device_id="fusion")
        # Every device's uplink, the fusion device's included, is ``link``.
        self.topology = uniform_star(
            [d.device_id for d in self.devices]
            + [self.fusion_device.device_id], link)
        self.config = config or PlannerConfig()

    # ------------------------------------------------------------------
    def _memory_budget(self) -> int:
        if self.config.memory_budget_bytes is not None:
            return self.config.memory_budget_bytes
        return sum(d.memory_bytes for d in self.devices)

    # ------------------------------------------------------------------
    def plan_vit(self, base: ViTConfig, num_groups: int) -> DeploymentPlan:
        """Full analytic pipeline for a ViT split into ``num_groups``
        sub-models (Algorithm 1 + scoring).

        Raises :class:`PlanningError` when no head schedule fits the
        fleet.
        """
        rng = np.random.default_rng(self.config.seed)
        try:
            partition = balanced_class_partition(base.num_classes,
                                                 num_groups, rng=rng)
            schedule = plan_head_schedule(base, partition, self.devices,
                                          self._memory_budget(), NUM_SAMPLES)
            return self._assemble(base.num_classes, partition,
                                  schedule.submodels,
                                  mapping=dict(schedule.plan.mapping))
        except (ScheduleInfeasible, InfeasibleAssignment, ValueError) as exc:
            raise PlanningError(
                f"no feasible plan for N={num_groups}: {exc}") from exc

    # ------------------------------------------------------------------
    def plan_submodels(self, num_classes: int, partition: list[list[int]],
                       submodels: list[PlannedSubModel],
                       build: dict | None = None,
                       quant: str | None = None,
                       int8_sizes: dict[str, int] | None = None,
                       ) -> DeploymentPlan:
        """Assign and score pre-built sub-models (no head schedule).

        This is the path for concrete, already-trained fleets (e.g. the
        demo systems): footprints come from the real modules, placement
        from :func:`repro.assignment.greedy_assign`, prediction from the
        DES simulator.

        ``quant`` selects the weight scheme the fleet serves: ``"fp32"``
        (or ``None``) keeps the sub-models as given, ``"int8"`` plans
        the per-channel-quantized variants, and ``"auto"`` tries fp32
        first and falls back to int8 only when the fp32 footprints do
        not fit the device memory budgets — the planner's knob for
        memory-constrained fleets.  ``int8_sizes`` supplies the exact
        quantized byte size of every model id (e.g. from
        ``nn.state_dict_num_bytes(nn.quantize_module(m).state_dict())``);
        it is required whenever int8 is planned.  The search is recorded
        in ``build["quant_selection"]``.
        """
        if quant not in (None, "fp32", "int8", "auto"):
            raise ValueError(f"unknown quant scheme {quant!r}; "
                             "choose from 'fp32', 'int8', 'auto'")
        schemes = {"int8": ("int8",), "auto": ("fp32", "int8")}.get(
            quant, ("fp32",))
        attempts: list[dict] = []
        failure: InfeasibleAssignment | None = None
        for scheme in schemes:
            candidates = submodels if scheme == "fp32" else [
                dataclasses.replace(
                    m, quant="int8",
                    size_bytes=int((int8_sizes or {})[m.model_id]))
                for m in submodels]
            try:
                assignment = greedy_assign(self.devices, candidates,
                                           NUM_SAMPLES)
            except InfeasibleAssignment as exc:
                attempts.append({"quant": scheme, "feasible": False,
                                 "error": str(exc)})
                failure = exc
                continue
            attempts.append({"quant": scheme, "feasible": True})
            build = dict(build or {})
            if quant not in (None, "fp32"):
                build["quant_selection"] = {"requested": quant,
                                            "selected": scheme,
                                            "attempts": attempts}
            return self._assemble(num_classes, partition, candidates,
                                  mapping=dict(assignment.mapping),
                                  build=build)
        raise failure

    # ------------------------------------------------------------------
    def _assemble(self, num_classes: int, partition: list[list[int]],
                  submodels: list[PlannedSubModel], mapping: dict[str, str],
                  build: dict | None = None) -> DeploymentPlan:
        input_dim = sum(m.feature_dim for m in submodels)
        fusion_config = FusionConfig(input_dim=input_dim,
                                     num_classes=num_classes)
        plan = DeploymentPlan(
            num_classes=num_classes,
            partition=[list(group) for group in partition],
            submodels=list(submodels),
            devices=list(self.devices),
            mapping=mapping,
            fusion_device=self.fusion_device,
            topology=self.topology,
            fusion_flops=float(fusion_flops(input_dim, num_classes)),
            fusion_config=fusion_config.to_dict(),
            num_samples=NUM_SAMPLES,
            seed=self.config.seed,
            codec=self.config.codec,
            build=dict(build or {}),
        )
        plan.validate()
        plan.prediction = score_plan(plan)
        return plan

    # ------------------------------------------------------------------
    def select_codec(self, plan: DeploymentPlan,
                     measure_accuracy=None) -> DeploymentPlan:
        """Pick the wire codec with the best predicted latency.

        Every codec of :data:`DEFAULT_CANDIDATE_CODECS` is scored
        through the DES simulator with its *reduced* per-sample payload
        bytes; candidates whose fused accuracy costs more than
        :data:`ACCURACY_DROP_BOUND` are rejected.  The drop is measured
        by calling ``measure_accuracy(codec_name) -> float`` (e.g. fused
        accuracy with the codec's encode→decode round trip applied to
        the features) against its ``raw32`` value; without a measurement
        hook — untrained, analytic plans — each codec's
        ``nominal_accuracy_drop`` stands in.  ``raw32`` is lossless, so
        it is always admitted.

        Returns a rescored copy of ``plan`` carrying the winning codec
        (``plan.build["codec_selection"]`` records the search).
        """
        baseline = (measure_accuracy("raw32")
                    if measure_accuracy is not None else None)
        best: DeploymentPlan | None = None
        considered: list[dict] = []
        for name in DEFAULT_CANDIDATE_CODECS:
            codec = get_codec(name)
            if baseline is not None:
                accuracy = float(measure_accuracy(name))
                drop = baseline - accuracy
            else:
                accuracy = plan.prediction.accuracy if name == "raw32" \
                    and plan.prediction is not None else None
                drop = codec.nominal_accuracy_drop
            candidate = DeploymentPlan.from_dict(plan.to_dict())
            candidate.codec = name
            candidate.prediction = score_plan(candidate, accuracy=accuracy)
            admitted = bool(drop <= ACCURACY_DROP_BOUND + 1e-12)
            considered.append({"codec": name,
                               "latency_s": candidate.prediction.latency_s,
                               "accuracy_drop": drop,
                               "admitted": admitted})
            if admitted and (best is None or candidate.prediction.latency_s
                             < best.prediction.latency_s):
                best = candidate
        best.build["codec_selection"] = {
            "candidates": considered,
            "accuracy_drop_bound": ACCURACY_DROP_BOUND}
        return best
