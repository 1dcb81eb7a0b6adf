"""The planner: Algorithm 1 end to end, scored by the DES simulator.

:class:`Planner` composes the pieces the repo previously exercised only in
isolation — balanced class partitioning (:mod:`repro.splitting.
class_assignment`), the analytic head-pruning schedule loop
(:func:`repro.splitting.schedule.plan_head_schedule`), greedy device
assignment (:mod:`repro.assignment`), analytic profiling
(:mod:`repro.profiling`), and the discrete-event simulator
(:mod:`repro.edge.simulator`) — into one pipeline that emits a scored
:class:`~repro.planning.plan.DeploymentPlan`.

Candidate search: when the number of sub-models is not pinned, the planner
builds one candidate plan per feasible group count, scores each with the
DES simulator, and returns the plan with the lowest predicted mean
latency — the paper's latency-vs-N trade-off, automated.

Codec search: :meth:`Planner.select_codec` plays the same game over wire
codecs — each candidate's *encoded* per-sample payload bytes flow into
the DES link model, and the lowest-predicted-latency codec wins among
those whose fused-accuracy cost stays within the configured bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..assignment import InfeasibleAssignment, greedy_assign
from ..edge.codec import get_codec
from ..edge.device import DeviceModel
from ..edge.network import LinkModel, tc_capped_link
from ..edge.simulator import energy_report, simulate_inference
from ..models.fusion import FusionConfig
from ..models.vit import ViTConfig
from ..profiling import fusion_flops
from ..splitting.class_assignment import balanced_class_partition
from ..splitting.schedule import ScheduleInfeasible, plan_head_schedule
from .plan import (
    DeploymentPlan,
    PlanPrediction,
    PlannedDevice,
    PlannedSubModel,
)


class PlanningError(RuntimeError):
    """No candidate plan satisfied the constraints."""


# Codecs the planner tries when asked to pick one (see select_codec).
DEFAULT_CANDIDATE_CODECS = ("raw32", "f16", "q8", "q8+zlib")


@dataclasses.dataclass(frozen=True)
class PlannerConfig:
    """Knobs for plan construction and scoring."""

    num_samples: int = 1               # workload sizing for assignment (L)
    des_samples: int = 4               # samples simulated when scoring
    arrival_interval_s: float = 0.0    # 0 = batch arrivals in the DES run
    candidate_groups: tuple[int, ...] | None = None  # group counts to try
    memory_budget_bytes: int | None = None  # None = fleet-wide sum
    seed: int = 0
    codec: str = "raw32"               # wire codec recorded in the plan
    candidate_codecs: tuple[str, ...] | None = None  # select_codec pool
    accuracy_drop_bound: float = 0.01  # max fused-accuracy cost of a codec


def score_plan(plan: DeploymentPlan, des_samples: int = 4,
               arrival_interval_s: float = 0.0,
               accuracy: float | None = None) -> PlanPrediction:
    """Predict latency/energy for ``plan`` with the DES simulator."""
    spec = plan.deployment_spec()
    result = simulate_inference(spec, num_samples=des_samples,
                                arrival_interval=arrival_interval_s)
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
        self.link = link or tc_capped_link()
        self.config = config or PlannerConfig()

    # ------------------------------------------------------------------
    def _planned_devices(self) -> list[PlannedDevice]:
        return [PlannedDevice.from_device(d, self.link) for d in self.devices]

    def _memory_budget(self) -> int:
        if self.config.memory_budget_bytes is not None:
            return self.config.memory_budget_bytes
        return sum(d.memory_bytes for d in self.devices)

    # ------------------------------------------------------------------
    def plan_vit(self, base: ViTConfig,
                 num_groups: int | None = None) -> DeploymentPlan:
        """Full analytic pipeline for a ViT split (Algorithm 1 + scoring).

        ``num_groups`` pins the number of sub-models; when ``None`` the
        planner tries every count in ``config.candidate_groups`` (default:
        2..len(devices)) and keeps the best-scoring feasible plan.
        """
        if num_groups is not None:
            counts: tuple[int, ...] = (num_groups,)
        elif self.config.candidate_groups is not None:
            counts = self.config.candidate_groups
        else:
            counts = tuple(range(2, len(self.devices) + 1)) or (1,)

        best: DeploymentPlan | None = None
        failures: list[str] = []
        for count in counts:
            try:
                candidate = self._plan_vit_candidate(base, count)
            except (ScheduleInfeasible, InfeasibleAssignment, ValueError) as exc:
                failures.append(f"N={count}: {exc}")
                continue
            if best is None or (candidate.prediction.latency_s
                                < best.prediction.latency_s):
                best = candidate
        if best is None:
            raise PlanningError(
                "no feasible plan for any candidate group count: "
                + "; ".join(failures))
        return best

    def _plan_vit_candidate(self, base: ViTConfig,
                            num_groups: int) -> DeploymentPlan:
        config = self.config
        rng = np.random.default_rng(config.seed)
        partition = balanced_class_partition(base.num_classes, num_groups,
                                             rng=rng)
        schedule = plan_head_schedule(
            base, partition, [d.to_spec() for d in self.devices],
            self._memory_budget(), config.num_samples)
        submodels = [PlannedSubModel.from_footprint(foot, group)
                     for foot, group in zip(schedule.footprints, partition)]
        return self._assemble(base.num_classes, partition, submodels,
                              mapping=dict(schedule.plan.mapping))

    # ------------------------------------------------------------------
    def plan_submodels(self, num_classes: int, partition: list[list[int]],
                       submodels: list[PlannedSubModel],
                       build: dict | None = None,
                       accuracy: float | None = None,
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
        quantized byte sizes per model id (e.g. from
        ``nn.state_dict_num_bytes(nn.quantize_state_dict(...))``);
        without it a conservative ~3x shrink estimate stands in.  The
        search is recorded in ``build["quant_selection"]``.
        """
        if quant not in (None, "fp32", "int8", "auto"):
            raise ValueError(f"unknown quant scheme {quant!r}; "
                             "choose from 'fp32', 'int8', 'auto'")
        schemes = {"int8": ("int8",), "auto": ("fp32", "int8")}.get(
            quant, ("fp32",))
        attempts: list[dict] = []
        failure: InfeasibleAssignment | None = None
        for scheme in schemes:
            candidates = submodels if scheme == "fp32" \
                else [self._int8_variant(m, int8_sizes) for m in submodels]
            try:
                assignment = greedy_assign(
                    [d.to_spec() for d in self.devices],
                    [m.to_spec() for m in candidates],
                    self.config.num_samples)
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
                                  build=build, accuracy=accuracy)
        raise failure

    @staticmethod
    def _int8_variant(sub: PlannedSubModel,
                      int8_sizes: dict[str, int] | None) -> PlannedSubModel:
        if int8_sizes is not None and sub.model_id in int8_sizes:
            size = int(int8_sizes[sub.model_id])
        else:
            # Per-channel int8 keeps biases/norms and the scale vectors
            # in fp32, so the true shrink is a bit under 4x; ~3x is a
            # safe planning estimate when exact sizes are not supplied.
            size = max(1, sub.size_bytes // 3)
        return dataclasses.replace(sub, quant="int8", size_bytes=size)

    # ------------------------------------------------------------------
    def _assemble(self, num_classes: int, partition: list[list[int]],
                  submodels: list[PlannedSubModel], mapping: dict[str, str],
                  build: dict | None = None,
                  accuracy: float | None = None) -> DeploymentPlan:
        config = self.config
        input_dim = sum(m.feature_dim for m in submodels)
        fusion_config = FusionConfig(input_dim=input_dim,
                                     num_classes=num_classes)
        build = dict(build or {})
        # Record the scoring knobs so replanning re-scores the recovered
        # plan under the same load assumptions.
        build["scoring"] = {"des_samples": config.des_samples,
                            "arrival_interval_s": config.arrival_interval_s}
        plan = DeploymentPlan(
            num_classes=num_classes,
            partition=[list(group) for group in partition],
            submodels=list(submodels),
            devices=self._planned_devices(),
            mapping=mapping,
            fusion_device=PlannedDevice.from_device(self.fusion_device,
                                                    self.link),
            fusion_flops=float(fusion_flops(input_dim, num_classes)),
            fusion_config=fusion_config.to_dict(),
            num_samples=config.num_samples,
            seed=config.seed,
            codec=config.codec,
            build=build,
        )
        plan.validate()
        plan.prediction = score_plan(plan, config.des_samples,
                                     config.arrival_interval_s,
                                     accuracy=accuracy)
        return plan

    # ------------------------------------------------------------------
    def select_codec(self, plan: DeploymentPlan,
                     candidates: tuple[str, ...] | None = None,
                     measure_accuracy=None) -> DeploymentPlan:
        """Pick the wire codec with the best predicted latency.

        Every candidate codec is scored through the DES simulator with
        its *reduced* per-sample payload bytes; candidates whose fused
        accuracy costs more than ``config.accuracy_drop_bound`` are
        rejected.  The drop is measured by calling
        ``measure_accuracy(codec_name) -> float`` (e.g. fused accuracy
        with the codec's encode→decode round trip applied to the
        features) against its ``raw32`` value; without a measurement
        hook — untrained, analytic plans — each codec's
        ``nominal_accuracy_drop`` stands in.

        Returns a rescored copy of ``plan`` carrying the winning codec
        (``plan.build["codec_selection"]`` records the search); raises
        :class:`PlanningError` if no candidate passes the bound.
        """
        config = self.config
        candidates = tuple(candidates or config.candidate_codecs
                           or DEFAULT_CANDIDATE_CODECS)
        bound = config.accuracy_drop_bound
        baseline = (measure_accuracy("raw32")
                    if measure_accuracy is not None else None)
        best: DeploymentPlan | None = None
        considered: list[dict] = []
        for name in candidates:
            codec = get_codec(name)    # KeyError on unknown candidates
            if baseline is not None:
                accuracy = float(measure_accuracy(name))
                drop = baseline - accuracy
            else:
                accuracy = plan.prediction.accuracy if name == "raw32" \
                    and plan.prediction is not None else None
                drop = codec.nominal_accuracy_drop
            candidate = DeploymentPlan.from_dict(plan.to_dict())
            candidate.codec = name
            candidate.prediction = score_plan(
                candidate, config.des_samples, config.arrival_interval_s,
                accuracy=accuracy)
            considered.append({"codec": name,
                               "latency_s": candidate.prediction.latency_s,
                               "accuracy_drop": drop,
                               "admitted": bool(drop <= bound + 1e-12)})
            if drop > bound + 1e-12:
                continue
            if best is None or (candidate.prediction.latency_s
                                < best.prediction.latency_s):
                best = candidate
        if best is None:
            raise PlanningError(
                f"no candidate codec within accuracy drop bound {bound}: "
                f"{considered}")
        best.build["codec_selection"] = {"candidates": considered,
                                         "accuracy_drop_bound": bound}
        return best
