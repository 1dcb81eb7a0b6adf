"""Plan → execution bridge: boot and operate a fleet from a plan.

:class:`PlannedSystem` pairs a :class:`~repro.planning.plan.DeploymentPlan`
with the concrete modules it describes and turns it into running
infrastructure: ``make_cluster()`` boots an
:class:`~repro.edge.runtime.EdgeCluster` (one worker per sub-model, on the
plan-assigned devices), ``make_server()`` wraps it in a
:class:`~repro.serving.server.InferenceServer` whose replanner hook calls
:func:`repro.planning.replan.replan_on_failure` when a device dies and
spawns replacement workers on the surviving devices — so fusion recovers
real features instead of zero-filling the dead slots forever.

Because a demo plan carries a deterministic ``build`` recipe (seeds,
training protocol), :meth:`PlannedSystem.from_plan` can rebuild the exact
same weights from nothing but the JSON plan — the round trip
``plan → JSON → plan → serve`` is lossless.  An ED-ViT plan
(:func:`repro.core.build_edvit`) or a baseline's
(:func:`repro.baselines.build_split`) round-trips as a plan, but its
pruned weights come only from the build, so ``from_plan`` refuses to
cold-rebuild it.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from .. import nn
from ..edge.device import DeviceModel
from ..edge.network import LinkModel
from ..edge.runtime import EdgeCluster, WorkerSpec, build_model
from ..models.fusion import FusionConfig, FusionMLP
from ..serving.demo import (
    DEMO_CLASSES,
    DEMO_RECIPE,
    _tiny_model,
    demo_dataset,
    fused_labels,
    train_demo_system,
)
from ..serving.server import InferenceServer, ServerConfig
from ..splitting.class_assignment import balanced_class_partition
from ..store import ArtifactStore, recipe_digest
from .plan import FUSION_ARTIFACT, DeploymentPlan, PlannedSubModel
from .planner import Planner, PlannerConfig
from .replan import replan_on_failure


def _build_submodel(plan: DeploymentPlan, index: int,
                    quant: str) -> nn.Module:
    """Fresh module for planned sub-model ``index`` in weight scheme
    ``quant``: built from its plan config with the plan-seeded rng.

    A quantized module gets its surgery *before* any state load:
    :func:`repro.nn.quantize_module` renames the weight buffers
    (``weight`` → ``weight_q8``/``weight_scale``), so the module must
    already be quantized for an int8 artifact's state dict to load
    strictly.
    """
    sub = plan.submodels[index]
    model = build_model(sub.model_kind, sub.model_config,
                        np.random.default_rng(plan.seed + index))
    if quant != "fp32":
        model = nn.quantize_module(model, scheme=quant)
    return model


def plan_artifact_digests(plan: DeploymentPlan) -> dict[str, str]:
    """Recipe digests for every artifact a plan rebuilds (incl. fusion)."""
    return {name: recipe_digest(recipe)
            for name, recipe in plan.artifact_recipes().items()}


def _put(store: ArtifactStore, plan: DeploymentPlan, name: str,
         module: nn.Module, quant: str) -> None:
    """Store artifact ``name`` of ``plan`` (a sub-model in scheme
    ``quant``, or the fusion MLP) under its recipe digest, with the
    recipe as its meta."""
    if name == FUSION_ARTIFACT:
        recipe, kind, config = (plan.fusion_recipe(), FUSION_ARTIFACT,
                                plan.fusion_config)
    else:
        sub = plan.submodel(name)
        recipe, kind, config = (plan.submodel_recipe(name, quant=quant),
                                sub.model_kind, sub.model_config)
    store.put(recipe_digest(recipe), module, config=dict(config), kind=kind,
              meta={"model_id": name, "quant": quant, "recipe": recipe})


def _derive_quantized(plan: DeploymentPlan, store: ArtifactStore, index: int,
                      scheme: str) -> dict:
    """Store sub-model ``index``'s ``scheme`` artifact, derived from its
    fp32 one, unless the store already has it; its report row.  The fp32
    artifact is read only to derive: both byte sizes are measured on
    unwritten builds, which depend only on shapes."""
    sub = plan.submodels[index]
    fp32_digest = recipe_digest(
        plan.submodel_recipe(sub.model_id, quant="fp32"))
    if sub.quant == "fp32" and plan.artifacts.get(sub.model_id):
        fp32_digest = plan.artifacts[sub.model_id]
    quant_digest = recipe_digest(
        plan.submodel_recipe(sub.model_id, quant=scheme))
    if not store.has(fp32_digest):
        raise KeyError(
            f"store has no fp32 artifact for {sub.model_id!r} "
            f"(digest {fp32_digest[:12]}); run the plan against the "
            "store first to populate it")
    with nn.init.unwritten():          # measured, and loaded to derive
        model = _build_submodel(plan, index, "fp32")
        quant_bytes = nn.state_dict_num_bytes(
            _build_submodel(plan, index, scheme).state_dict())
    fp32_bytes = PlannedSubModel.from_module(
        sub.model_id, model, sub.model_kind, sub.classes).size_bytes
    if not store.has(quant_digest):
        state, _ = store.get(fp32_digest)
        model.load_state_dict(state)
        _put(store, plan, sub.model_id,
             nn.quantize_module(model, scheme=scheme), scheme)
    return {"model_id": sub.model_id,
            "fp32_digest": fp32_digest,
            "quant_digest": quant_digest,
            "fp32_bytes": fp32_bytes,
            "quant_bytes": quant_bytes}


def quantize_plan_artifacts(plan: DeploymentPlan, store: ArtifactStore,
                            scheme: str = "int8") -> list[dict]:
    """Derive quantized store artifacts from a plan's fp32 artifacts.

    For every sub-model whose quantized artifact the store lacks, the
    fp32 checkpoint is loaded from ``store`` (by the plan's recorded ref
    or the fp32 recipe digest) into an fp32 module,
    :func:`repro.nn.quantize_module` rewrites it per channel, and the
    result is stored under the quantized recipe's own digest — so fp32
    and int8 variants coexist and dedup independently.  Existing
    quantized artifacts are kept, not rebuilt (the derivation is
    deterministic).  Returns one report row per sub-model with both
    digests and byte sizes; raises ``KeyError`` when a needed fp32
    artifact is absent.
    """
    return [_derive_quantized(plan, store, index, scheme)
            for index in range(len(plan.submodels))]


@dataclasses.dataclass
class PlannedSystem:
    """A deployment plan plus the concrete models/fusion it describes."""

    plan: DeploymentPlan
    models: list[nn.Module]            # aligned with plan.submodels
    fusion: FusionMLP
    time_scale: float = 0.0
    transport: str = "multiprocess"    # repro.edge.transport substrate
    warm_booted: bool = False          # weights came from an artifact store

    def __post_init__(self):
        # worker_id -> model_id; starts as identity (plan-booted clusters
        # name workers after their sub-model) and grows with every
        # replanning respawn ("submodel-0@edge-1" and the like).
        self._worker_model = {m.model_id: m.model_id
                              for m in self.plan.submodels}

    # -- plumbing ------------------------------------------------------
    @property
    def input_shape(self) -> tuple[int, int, int]:
        config = self.plan.submodels[0].model_config
        return (int(config["in_channels"]), int(config["image_size"]),
                int(config["image_size"]))

    @property
    def num_classes(self) -> int:
        return self.plan.num_classes

    def make_cluster(self) -> EdgeCluster:
        return EdgeCluster.from_plan(self.plan, self.models,
                                     time_scale=self.time_scale,
                                     transport=self.transport)

    def make_server(self, config: ServerConfig | None = None,
                    replan: bool = True) -> InferenceServer:
        """A serving stack for this plan; ``replan=False`` keeps the old
        zero-fill-forever failure behaviour (the comparison baseline)."""
        return InferenceServer(self.make_cluster(), self.fusion,
                               config=config,
                               replanner=self.replan_hook if replan else None)

    # -- local (in-process) reference predictions ----------------------
    def local_fused_labels(self, x: np.ndarray,
                           zero_models: tuple[int, ...] = ()) -> np.ndarray:
        """Reference fused prediction; ``zero_models`` emulates dead slots.

        The plan's wire codec is round-tripped over each feature array,
        so the reference matches what the served fleet actually fuses.
        """
        return fused_labels(self.models, self.fusion, x,
                            zero_indices=zero_models,
                            codec=self.plan.codec)

    def local_accuracy(self, x: np.ndarray, y: np.ndarray,
                       zero_models: tuple[int, ...] = ()) -> float:
        return float((self.local_fused_labels(x, zero_models) == y).mean())

    def eval_dataset(self):
        """The (seeded) dataset of the demo recipe, for accuracy checks."""
        build = self.plan.build
        if build.get("recipe") != DEMO_RECIPE:
            raise ValueError("plan has no demo dataset recipe")
        return demo_dataset(int(build["image_size"]), self.plan.seed)

    # -- replanning ----------------------------------------------------
    def replan_hook(self, server: InferenceServer,
                    down_workers: list[str]) -> dict[str, str] | None:
        """``InferenceServer`` replanner: respawn orphans on survivors.

        Failure is treated at device granularity (the paper's scenario):
        every sub-model on a dead worker's device is reassigned via
        :func:`replan_on_failure` and gets a fresh worker on its new
        device.  Returns the slot→worker hosting updates, or raises
        :class:`~repro.planning.replan.ReplanInfeasible` (the server then
        stays in zero-fill degraded mode).
        """
        down_models = {self._worker_model[w] for w in down_workers
                       if w in self._worker_model}
        down_devices = {self.plan.mapping[m] for m in down_models
                        if m in self.plan.mapping}
        if not down_devices:
            return None
        new_plan = replan_on_failure(self.plan, down_devices)
        moved = {m: d for m, d in new_plan.mapping.items()
                 if self.plan.mapping[m] != d}
        model_index = {m.model_id: i
                       for i, m in enumerate(self.plan.submodels)}
        hosting: dict[str, str] = {}
        spawned: list[str] = []
        try:
            for model_id, device_id in sorted(moved.items()):
                worker_id = f"{model_id}@{device_id}"
                spec = WorkerSpec.from_plan(
                    new_plan, model_id, self.models[model_index[model_id]],
                    worker_id=worker_id)
                server.cluster.add_worker(spec)
                spawned.append(worker_id)
                self._worker_model[worker_id] = model_id
                hosting[model_id] = worker_id
        except Exception:
            # Roll back a partial recovery: retire replacements already
            # spawned so they neither leak as idle processes nor leave
            # the hosting map split-brained; the plan stays unchanged and
            # the server keeps zero-filling the failed slots.
            for worker_id in spawned:
                server.cluster.mark_down(worker_id, "replan rolled back")
                self._worker_model.pop(worker_id, None)
            raise
        # Retire live co-hosted workers on the failed devices: the device
        # is considered gone, and their sub-models have moved.
        for worker_id, model_id in list(self._worker_model.items()):
            if model_id in moved and worker_id != hosting[model_id] \
                    and server.cluster.is_alive(worker_id):
                server.cluster.mark_down(worker_id,
                                         "device retired by replanning")
        self.plan = new_plan
        return hosting

    # -- rolling deployment --------------------------------------------
    def swap_from_store(self, server: InferenceServer, model_id: str,
                        store: ArtifactStore,
                        quant: str | None = None) -> str:
        """Zero-downtime rolling swap of one sub-model from an artifact.

        Boots a fresh worker for ``model_id`` from its store artifact
        (the plan's recorded ref, falling back to the recipe digest),
        then hands it to
        :meth:`~repro.serving.server.InferenceServer.swap_worker`, which
        drains in-flight batches and atomically retargets the fusion
        slot — no request is dropped.  Returns the new worker id.

        ``quant`` retargets the slot to another weight scheme mid-flight
        (the live fp32→int8 rollout): the plan's sub-model entry is
        switched to the scheme, and a missing quantized artifact of this
        sub-model (only) is derived on demand from its fp32 one in the
        store.
        """
        index = self.plan.model_ids.index(model_id)
        sub = self.plan.submodels[index]
        if quant is not None and quant != sub.quant:
            if quant != "fp32":
                _derive_quantized(self.plan, store, index, quant)
            sub = dataclasses.replace(sub, quant=quant)
            self.plan.submodels[index] = sub
            self.plan.artifacts.pop(model_id, None)  # old variant's ref
        digest = self.plan.artifacts.get(model_id) \
            or recipe_digest(self.plan.submodel_recipe(model_id))
        state, _ = store.get(digest)
        with nn.init.unwritten():
            model = _build_submodel(self.plan, index, sub.quant)
        model.load_state_dict(state)
        size = nn.state_dict_num_bytes(state)
        if size != sub.size_bytes:     # keep assignment bookkeeping honest
            sub = dataclasses.replace(sub, size_bytes=size)
            self.plan.submodels[index] = sub
        generation = 1 + sum(
            1 for worker in server.cluster.worker_ids
            if worker.startswith(f"{model_id}@swap"))
        worker_id = f"{model_id}@swap{generation}"
        spec = WorkerSpec.from_plan(self.plan, model_id, model,
                                    worker_id=worker_id)
        swapped = server.swap_worker(model_id, spec)
        self._worker_model[worker_id] = model_id
        self.models[index] = model     # keep the local twin in sync
        self.plan.artifacts[model_id] = digest
        return swapped

    # -- deterministic rebuild -----------------------------------------
    @staticmethod
    def from_plan(plan: DeploymentPlan,
                  time_scale: float = 0.0,
                  transport: str = "multiprocess",
                  store: ArtifactStore | None = None) -> "PlannedSystem":
        """Rebuild models, weights, and fusion from a plan's recipe.

        Every module is constructed from its stored config with the
        plan-seeded rng, then (for trained recipes) re-trained with the
        recorded deterministic protocol — so a JSON plan alone is enough
        to reproduce the exact system that was planned.  Only the
        ``demo-v1`` recipe (and analytic plans, which record none) can be
        rebuilt this way; any other recipe raises ``ValueError`` unless
        ``store`` holds its artifacts.

        ``store`` short-circuits the expensive part: when every artifact
        the plan references is present, weights are checkpoint-loaded
        (warm boot, no training); otherwise the cold rebuild runs and its
        results populate the store.  Either way ``plan.artifacts``
        records the refs afterwards.

        The plan is validated first, so a mapping onto a device the plan
        does not hold fails naming that device, before anything is built.
        """
        plan.validate()
        return _boot(plan, None, time_scale, transport, store)


def _boot(plan: DeploymentPlan, models: list[nn.Module] | None,
          time_scale: float, transport: str,
          store: ArtifactStore | None) -> PlannedSystem:
    """:meth:`PlannedSystem.from_plan`, given the plan's fp32 sub-models
    as ``_build_submodel(plan, index, "fp32")`` builds them under
    :func:`repro.nn.init.unwritten` (:func:`plan_demo_system` built them
    to measure them), or ``None``.  A warm boot loads into them; a cold
    boot draws each sub-model once, here."""
    digests = plan_artifact_digests(plan) if store is not None else {}
    warm = store is not None \
        and all(store.has(digest) for digest in digests.values())
    build = plan.build
    if not warm and build.get("recipe", DEMO_RECIPE) != DEMO_RECIPE:
        # Only the demo recipe retrains from the plan alone; any other
        # recipe would come back with untrained weights.
        raise ValueError(f"cannot rebuild the weights of training "
                         f"recipe {build['recipe']!r} from a plan")
    if warm:
        # The store overwrites every slot, so nothing built here is
        # drawn.  A present-but-corrupt artifact raises ArtifactCorrupt
        # below rather than silently retraining over a tampered store.
        with nn.init.unwritten():
            fusion = _build_fusion(plan)
            models = [_build_submodel(plan, index, sub.quant)
                      for index, sub in enumerate(plan.submodels)] \
                if models is None else _quantize_planned(plan, models)
        for name, module in zip((*plan.model_ids, FUSION_ARTIFACT),
                                (*models, fusion)):
            state, _ = store.get(digests[name])
            module.load_state_dict(state)
    else:
        # Cold rebuild always trains in fp32; quantized serving schemes
        # are applied afterwards (quantization is post-training, and the
        # shared fusion artifact is defined over fp32 features).
        fusion = _build_fusion(plan)
        models = [_build_submodel(plan, index, "fp32")
                  for index in range(len(plan.submodels))]
        if build.get("train_fusion"):
            train_demo_system(
                models, fusion, image_size=int(build["image_size"]),
                seed=plan.seed,
                fusion_epochs=int(build.get("fusion_epochs", 8)))
        models = _quantize_planned(plan, models)
        if store is not None:
            for sub, model in zip(plan.submodels, models):
                _put(store, plan, sub.model_id, model, sub.quant)
            _put(store, plan, FUSION_ARTIFACT, fusion, "fp32")
    if store is not None:
        plan.artifacts = dict(digests)
    return PlannedSystem(plan=plan, models=models, fusion=fusion,
                         time_scale=time_scale, transport=transport,
                         warm_booted=warm)


def _build_fusion(plan: DeploymentPlan) -> FusionMLP:
    return FusionMLP(FusionConfig.from_dict(dict(plan.fusion_config)),
                     rng=np.random.default_rng(plan.seed + 1000))


def _quantize_planned(plan: DeploymentPlan,
                      models: list[nn.Module]) -> list[nn.Module]:
    """``models`` in the weight schemes ``plan`` serves them in."""
    return [nn.quantize_module(model, scheme=sub.quant)
            if sub.quant != "fp32" else model
            for sub, model in zip(plan.submodels, models)]


def plan_demo_system(num_workers: int = 2, model_kind: str = "vit",
                     image_size: int = 8,
                     seed: int = 0, throughputs: list[float] | None = None,
                     train_fusion: bool = False, fusion_epochs: int = 8,
                     time_scale: float = 0.0,
                     codec: str = "raw32",
                     transport: str = "multiprocess",
                     store: ArtifactStore | None = None,
                     quant: str = "fp32",
                     memory_headroom: float = 3.0) -> PlannedSystem:
    """Plan a small (optionally heterogeneous) serveable demo fleet.

    Builds one tiny sub-model per group of the ``DEMO_CLASSES`` classes,
    profiles them, sizes a fleet of ``num_workers`` devices with
    per-device ``throughputs`` multipliers, and runs the
    :class:`~repro.planning.planner.Planner` (greedy assignment + DES
    scoring) to produce an executable
    :class:`DeploymentPlan`.  Device budgets leave enough residual memory
    and energy that one failed device's sub-model fits on a survivor —
    the replanning path is exercisable out of the box.

    ``codec`` names the wire codec recorded in the plan; ``"auto"`` lets
    :meth:`Planner.select_codec` search the candidate pool for the best
    predicted latency within the accuracy-drop bound — measured against
    the trained system when ``train_fusion`` is set, by nominal codec
    drops otherwise.

    The weights come from :meth:`PlannedSystem.from_plan` on the fresh
    plan, so ``store`` warm-boots them from artifacts when every ref of
    the plan's rebuild recipe is present (skipping training), and
    populates the store after a cold build; the emitted plan records the
    artifact refs either way.

    ``quant`` selects the served weight scheme: ``"fp32"``, ``"int8"``
    (per-channel post-training quantization, ~3-4x smaller artifacts),
    or ``"auto"`` — fp32 when it fits the device memory budgets,
    falling back to int8 otherwise.  ``memory_headroom`` scales each
    device's memory budget in units of the largest fp32 sub-model (the
    default 3.0 keeps replanning headroom; below ~1.0 fp32 no longer
    fits and ``"auto"`` selects int8).
    """
    if throughputs is None:
        throughputs = [1.0 / (1 + 0.5 * i) for i in range(num_workers)]
    if len(throughputs) != num_workers:
        raise ValueError("need one throughput multiplier per worker")

    # Sizes, FLOPs, feature widths and int8 sizes depend only on shapes,
    # so the modules planned on are unwritten: a warm boot loads into
    # them, and a cold boot draws each sub-model once.
    with nn.init.unwritten():
        models = [_tiny_model(model_kind, DEMO_CLASSES, image_size,
                              np.random.default_rng(seed + index))
                  for index in range(num_workers)]
        int8_sizes = None
        if quant in ("int8", "auto"):
            # On copies: the planned modules stay fp32 until the boot
            # quantizes the ones the plan serves in int8.
            int8_sizes = {
                f"submodel-{index}": nn.state_dict_num_bytes(
                    nn.quantize_module(copy.deepcopy(model)).state_dict())
                for index, model in enumerate(models)}
    build = {"recipe": DEMO_RECIPE, "model_kind": model_kind,
             "image_size": image_size, "train_fusion": bool(train_fusion),
             "fusion_epochs": fusion_epochs}

    partition = balanced_class_partition(DEMO_CLASSES, num_workers,
                                         rng=np.random.default_rng(seed))
    submodels = [
        PlannedSubModel.from_module(f"submodel-{index}", model, model_kind,
                                    partition[index])
        for index, model in enumerate(models)]

    # Budgets sized so every device can absorb one orphaned sub-model on
    # top of its own (the replanning headroom).
    max_size = max(m.size_bytes for m in submodels)
    max_flops = max(m.flops_per_sample for m in submodels)
    devices = [DeviceModel(device_id=f"edge-{index}",
                           macs_per_second=1e12 * factor,
                           memory_bytes=max(1, int(memory_headroom
                                                   * max_size)),
                           energy_flops=3 * max_flops)
               for index, factor in enumerate(throughputs)]
    fusion_device = DeviceModel(device_id="fusion", macs_per_second=1e12)
    link = LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)

    select = codec == "auto"
    planner = Planner(devices, fusion_device, link, PlannerConfig(
        seed=seed, codec="raw32" if select else codec))
    # The plan is assembled from untrained models; its artifact recipes
    # are then the single source of truth for warm boot or training.
    plan = planner.plan_submodels(DEMO_CLASSES, partition, submodels,
                                  build=build,
                                  quant=None if quant == "fp32" else quant,
                                  int8_sizes=int8_sizes)

    system = _boot(plan, models, time_scale, transport, store)
    if train_fusion:
        dataset = demo_dataset(image_size, seed)

        def accuracy(codec_name: str | None = None) -> float:
            labels = fused_labels(system.models, system.fusion,
                                  dataset.x_test, codec=codec_name)
            return float((labels == dataset.y_test).mean())

        plan.prediction = dataclasses.replace(plan.prediction,
                                              accuracy=accuracy())
    if select:
        system.plan = planner.select_codec(
            plan, measure_accuracy=accuracy if train_fusion else None)
    return system
