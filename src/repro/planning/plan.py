"""The :class:`DeploymentPlan`: one declarative object for a whole fleet.

A plan captures everything the paper's Algorithm 1 decides — the class
partition, each sub-model's head-pruning number and resource footprint,
the device fleet, the sub-model→device mapping — plus the predicted
latency/energy/accuracy the planner scored it with.  The same plan object
drives the analytic simulator (:meth:`DeploymentPlan.deployment_spec`),
the process-based emulation (``WorkerSpec.from_plan`` /
``EdgeCluster.from_plan``), and the serving layer
(:class:`repro.planning.execute.PlannedSystem`), and it round-trips
through JSON so operators can version, diff, and ship it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from ..assignment import PlannedSubModel, validate_plan
from ..edge.codec import get_codec
from ..edge.device import DeviceModel
from ..edge.network import LinkModel, StarTopology
from ..edge.simulator import DeploymentSpec, SubModelProfile
from ..splitting.class_assignment import validate_partition
from .. import store as store_recipes

FORMAT_VERSION = 1
# Top-level keys a plan JSON cannot do without (the rest have defaults).
_REQUIRED_KEYS = ("num_classes", "partition", "submodels", "devices",
                  "mapping", "fusion_device", "fusion_flops", "fusion_config")

# Key under which the fusion MLP's artifact ref is recorded in
# DeploymentPlan.artifacts (sub-models are keyed by their model_id).
FUSION_ARTIFACT = "fusion"

# The subset of DeploymentPlan.build that determines the trained weights.
# Search records ("codec_selection"; "scoring" in plans written while the
# DES scoring knobs were plan fields) and the wire codec change
# predictions, not parameters, so they must not change artifact digests.
_TRAIN_BUILD_KEYS = ("recipe", "model_kind", "image_size", "train_fusion",
                     "fusion_epochs")


# A device entry of the plan JSON: the DeviceModel's fields, then its
# uplink's under these keys, flat.
_DEVICE_FIELDS = tuple(f.name for f in dataclasses.fields(DeviceModel))
_LINK_KEYS = ("link_bandwidth_bps", "link_overhead_s")


def _read_device(entry: dict, where: str) -> tuple[DeviceModel, LinkModel]:
    """The device and uplink of one plan JSON device entry, its values
    kept as JSON gave them; a ``ValueError`` naming ``where`` if the
    entry is malformed."""
    keys = _DEVICE_FIELDS + _LINK_KEYS
    try:
        missing = [key for key in keys if key not in entry]
        unknown = [key for key in entry if key not in keys]
        if missing or unknown:
            raise ValueError(f"missing keys {missing}, unknown keys {unknown}")
        device = DeviceModel(**{key: entry[key] for key in _DEVICE_FIELDS})
        link = LinkModel(*(entry[key] for key in _LINK_KEYS))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"plan {where} {entry.get('device_id')!r}: "
                         f"{exc}") from None
    return device, link


@dataclasses.dataclass(frozen=True)
class PlanPrediction:
    """What the planner expects the deployment to deliver."""

    latency_s: float                   # mean per-sample end-to-end latency
    max_latency_s: float
    makespan_s: float
    throughput_sps: float              # samples / second over the DES run
    energy_j: float                    # fleet-wide joules for the DES run
    accuracy: float | None = None      # None when no trained system exists

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "PlanPrediction":
        return PlanPrediction(**data)


@dataclasses.dataclass
class DeploymentPlan:
    """A complete, executable deployment decision (Algorithm 1's output).

    ``mapping`` assigns every sub-model to a device; several sub-models may
    share one device.  ``build`` is a free-form recipe dict recording how
    the concrete model weights are (re)produced — deterministic seeds make
    a JSON plan sufficient to reboot an identical fleet.  ``history``
    accumulates replanning events (see :func:`repro.planning.replan.
    replan_on_failure`) so a recovered plan documents what failed and what
    moved.
    """

    num_classes: int
    partition: list[list[int]]
    submodels: list[PlannedSubModel]
    devices: list[DeviceModel]
    mapping: dict[str, str]            # model_id -> device_id
    fusion_device: DeviceModel
    topology: StarTopology             # every device's uplink, fusion's too
    fusion_flops: float
    fusion_config: dict                # repro.models.fusion.FusionConfig dict
    num_samples: int = 1               # workload sizing used for assignment
    seed: int = 0
    codec: str = "raw32"               # wire codec for shipped features
    # Artifact refs: model_id (plus FUSION_ARTIFACT) -> recipe digest in
    # a repro.store.ArtifactStore.  Populated the first time the plan is
    # materialized against a store; a later boot with the same store
    # warm-loads the checkpoints instead of retraining.
    artifacts: dict[str, str] = dataclasses.field(default_factory=dict)
    prediction: PlanPrediction | None = None
    build: dict = dataclasses.field(default_factory=dict)
    history: list[dict] = dataclasses.field(default_factory=list)
    format_version: int = FORMAT_VERSION

    # -- lookups -------------------------------------------------------
    @property
    def model_ids(self) -> list[str]:
        return [m.model_id for m in self.submodels]

    @property
    def device_ids(self) -> list[str]:
        return [d.device_id for d in self.devices]

    def submodel(self, model_id: str) -> PlannedSubModel:
        for model in self.submodels:
            if model.model_id == model_id:
                return model
        raise KeyError(f"unknown sub-model {model_id!r}")

    def device(self, device_id: str) -> DeviceModel:
        for dev in self.devices:
            if dev.device_id == device_id:
                return dev
        if device_id == self.fusion_device.device_id:
            return self.fusion_device
        raise KeyError(f"unknown device {device_id!r}")

    def models_on(self, device_id: str) -> list[str]:
        return [m for m, d in self.mapping.items() if d == device_id]

    def deployment_spec(self) -> DeploymentSpec:
        """The DES-simulator view of this plan (for scoring/what-ifs)."""
        return DeploymentSpec(
            devices=self.devices,
            placement=dict(self.mapping),
            # The codec sets the per-sample feature bytes the DES sends,
            # so scoring sees the payload the live fleet would.
            profiles={m.model_id: SubModelProfile(
                model_id=m.model_id, flops_per_sample=m.flops_per_sample,
                feature_dim=m.feature_dim, codec=self.codec)
                for m in self.submodels},
            fusion_device=self.fusion_device,
            fusion_flops=self.fusion_flops,
            topology=self.topology)

    # -- artifact rebuild recipes --------------------------------------
    def train_recipe(self) -> dict:
        """The weight-determining slice of ``build`` (digest-stable)."""
        return {key: self.build[key] for key in _TRAIN_BUILD_KEYS
                if key in self.build}

    def submodel_recipe(self, model_id: str,
                        quant: str | None = None) -> dict:
        """The deterministic rebuild recipe one sub-model is keyed by.

        Everything that determines the served weights — kind, exact
        config, head-pruning number, class group, per-model seed, the
        training protocol, and the quantization scheme — and nothing
        that doesn't (codec, mapping, search records), so a replanned or
        re-scored plan keeps its artifacts.  The shape is
        :func:`repro.store.submodel_recipe`.  ``quant`` overrides
        the sub-model's recorded scheme, letting callers address a
        sibling variant (e.g. the fp32 artifact an int8 one is derived
        from) without mutating the plan.
        """
        index = self.model_ids.index(model_id)
        sub = self.submodels[index]
        return store_recipes.submodel_recipe(
            kind=sub.model_kind, config=sub.model_config, hp=sub.hp,
            classes=sub.classes, seed=self.seed + index,
            train=self.train_recipe(), quant=quant or sub.quant)

    def fusion_recipe(self) -> dict:
        """The fusion MLP's rebuild recipe.

        Fusion trains on the concatenated features of *all* sub-models,
        so its identity embeds every sub-model recipe: retrain any
        sub-model and the fusion artifact is invalidated with it.  The
        embedded recipes are always the fp32 ones — fusion trains
        against full-precision features, and serving a quantized weight
        variant must not orphan the shared fusion artifact.
        """
        return store_recipes.fusion_recipe(
            config=self.fusion_config, seed=self.seed + 1000,
            train=self.train_recipe(),
            submodels=[self.submodel_recipe(m.model_id, quant="fp32")
                       for m in self.submodels])

    def artifact_recipes(self) -> dict[str, dict]:
        """All rebuild recipes, keyed like :attr:`artifacts`."""
        recipes = {m.model_id: self.submodel_recipe(m.model_id)
                   for m in self.submodels}
        recipes[FUSION_ARTIFACT] = self.fusion_recipe()
        return recipes

    def validate(self) -> None:
        """Raise if the plan is internally inconsistent or over capacity."""
        validate_partition(self.partition, self.num_classes)
        get_codec(self.codec)          # KeyError on an unknown codec name
        validate_plan(self.mapping, self.devices, self.submodels,
                      num_samples=self.num_samples)

    # -- serialization -------------------------------------------------
    def _device_entry(self, device: DeviceModel) -> dict:
        link = self.topology.link_of(device.device_id)
        return {**dataclasses.asdict(device), **dict(zip(
            _LINK_KEYS, (link.bandwidth_bps, link.overhead_seconds)))}

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "num_classes": self.num_classes,
            "partition": [list(group) for group in self.partition],
            "submodels": [m.to_dict() for m in self.submodels],
            "devices": [self._device_entry(d) for d in self.devices],
            "mapping": dict(self.mapping),
            "fusion_device": self._device_entry(self.fusion_device),
            "fusion_flops": self.fusion_flops,
            "fusion_config": dict(self.fusion_config),
            "num_samples": self.num_samples,
            "seed": self.seed,
            "codec": self.codec,
            "artifacts": dict(self.artifacts),
            "prediction": None if self.prediction is None
            else self.prediction.to_dict(),
            "build": dict(self.build),
            "history": [dict(event) for event in self.history],
        }

    @staticmethod
    def from_dict(data: dict) -> "DeploymentPlan":
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported plan format_version {version!r}")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise ValueError(f"plan is missing required keys {missing}")
        prediction = data.get("prediction")
        fleet = [_read_device(entry, f"devices[{i}]")
                 for i, entry in enumerate(data["devices"])]
        fusion = _read_device(data["fusion_device"], "fusion_device")
        return DeploymentPlan(
            num_classes=int(data["num_classes"]),
            partition=[[int(c) for c in group] for group in data["partition"]],
            submodels=[PlannedSubModel.from_dict(m) for m in data["submodels"]],
            devices=[device for device, _ in fleet],
            mapping={str(m): str(d) for m, d in data["mapping"].items()},
            fusion_device=fusion[0],
            topology=StarTopology(device_links={
                device.device_id: link for device, link in fleet + [fusion]}),
            fusion_flops=float(data["fusion_flops"]),
            fusion_config=dict(data["fusion_config"]),
            num_samples=int(data.get("num_samples", 1)),
            seed=int(data.get("seed", 0)),
            codec=str(data.get("codec", "raw32")),
            artifacts={str(k): str(v)
                       for k, v in data.get("artifacts", {}).items()},
            prediction=None if prediction is None
            else PlanPrediction.from_dict(prediction),
            build=dict(data.get("build", {})),
            history=[dict(event) for event in data.get("history", [])],
        )

    def to_json(self) -> str:
        # allow_nan=False: a NaN prediction field would otherwise ship as
        # the non-standard `NaN` token and break strict JSON readers.
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    @staticmethod
    def from_json(text: str) -> "DeploymentPlan":
        return DeploymentPlan.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @staticmethod
    def load(path: str | Path) -> "DeploymentPlan":
        return DeploymentPlan.from_json(Path(path).read_text())
