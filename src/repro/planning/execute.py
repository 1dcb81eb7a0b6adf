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
(:func:`repro.core.build_edvit`) round-trips as a plan, but its pruned
weights come only from the build, so ``from_plan`` refuses to cold-rebuild
it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..edge.device import DeviceModel
from ..edge.network import LinkModel
from ..edge.runtime import EdgeCluster, WorkerSpec, build_model
from ..models.fusion import FusionConfig, FusionMLP
from ..profiling import model_flops, module_param_count, param_bytes
from ..serving.demo import (
    DEMO_RECIPE,
    _tiny_model,
    demo_dataset,
    fused_labels,
    train_demo_system,
)
from ..serving.server import InferenceServer, ServerConfig
from ..splitting.class_assignment import balanced_class_partition
from ..store import ArtifactStore, recipe_digest, warm_load
from .plan import FUSION_ARTIFACT, DeploymentPlan, PlannedSubModel
from .planner import Planner, PlannerConfig
from .replan import replan_on_failure


def _build_submodel(plan: DeploymentPlan, index: int) -> nn.Module:
    """Fresh module for one planned sub-model, in its serving scheme.

    A quantized sub-model gets its module surgery applied *before* any
    state load: :func:`repro.nn.quantize_module` renames the weight
    buffers (``weight`` → ``weight_q8``/``weight_scale``), so the module
    must already be quantized for an int8 artifact's state dict to load
    strictly.
    """
    sub = plan.submodels[index]
    model = build_model(sub.model_kind, sub.model_config,
                        np.random.default_rng(plan.seed + index))
    if sub.quant != "fp32":
        model = nn.quantize_module(model, scheme=sub.quant)
    return model


def plan_artifact_digests(plan: DeploymentPlan) -> dict[str, str]:
    """Recipe digests for every artifact a plan rebuilds (incl. fusion)."""
    return {name: recipe_digest(recipe)
            for name, recipe in plan.artifact_recipes().items()}


def _warm_boot_from_store(plan: DeploymentPlan, store: ArtifactStore,
                          digests: dict[str, str],
                          ) -> tuple[list[nn.Module], FusionMLP] | None:
    """Checkpoint-load every module of ``plan`` from ``store``.

    Returns ``None`` when any artifact is missing (caller falls back to
    the deterministic rebuild); integrity failures raise
    :class:`repro.store.ArtifactCorrupt` rather than silently retraining
    over a tampered store.
    """
    if not all(store.has(digest) for digest in digests.values()):
        return None
    models = [_build_submodel(plan, index)
              for index in range(len(plan.submodels))]
    fusion = FusionMLP(FusionConfig.from_dict(dict(plan.fusion_config)),
                       rng=np.random.default_rng(plan.seed + 1000))
    modules: dict[str, nn.Module] = {
        sub.model_id: model
        for sub, model in zip(plan.submodels, models)}
    modules[FUSION_ARTIFACT] = fusion
    if not warm_load(store, digests, modules):
        return None                    # pragma: no cover - raced removal
    return models, fusion


def _populate_store(plan: DeploymentPlan, store: ArtifactStore,
                    digests: dict[str, str], models: list[nn.Module],
                    fusion: FusionMLP) -> None:
    """Write every module of a cold-built system into the store."""
    recipes = plan.artifact_recipes()
    for sub, model in zip(plan.submodels, models):
        store.put(digests[sub.model_id], model,
                  config=dict(sub.model_config), kind=sub.model_kind,
                  meta={"model_id": sub.model_id,
                        "quant": sub.quant,
                        "recipe": recipes[sub.model_id]})
    store.put(digests[FUSION_ARTIFACT], fusion,
              config=dict(plan.fusion_config), kind=FUSION_ARTIFACT,
              meta={"model_id": FUSION_ARTIFACT,
                    "quant": "fp32",
                    "recipe": recipes[FUSION_ARTIFACT]})


def quantize_plan_artifacts(plan: DeploymentPlan, store: ArtifactStore,
                            scheme: str = "int8") -> list[dict]:
    """Derive quantized store artifacts from a plan's fp32 artifacts.

    For every sub-model the fp32 checkpoint is loaded from ``store``
    (by the plan's recorded ref or the fp32 recipe digest), its weights
    are per-channel quantized, and the result is stored under the
    quantized recipe's own digest — so fp32 and int8 variants coexist
    and dedup independently.  Existing quantized artifacts are kept
    (the derivation is deterministic).  Returns one report row per
    sub-model with both digests and byte sizes; raises ``KeyError``
    when a needed fp32 artifact is absent.
    """
    rows: list[dict] = []
    for index, sub in enumerate(plan.submodels):
        fp32_digest = recipe_digest(
            plan.submodel_recipe(sub.model_id, quant="fp32"))
        if sub.quant == "fp32" and plan.artifacts.get(sub.model_id):
            fp32_digest = plan.artifacts[sub.model_id]
        quant_recipe = plan.submodel_recipe(sub.model_id, quant=scheme)
        quant_digest = recipe_digest(quant_recipe)
        if not store.has(fp32_digest):
            raise KeyError(
                f"store has no fp32 artifact for {sub.model_id!r} "
                f"(digest {fp32_digest[:12]}); run the plan against the "
                "store first to populate it")
        state, config = store.get(fp32_digest)
        qstate = nn.quantize_state_dict(state)
        if not store.has(quant_digest):
            model = build_model(sub.model_kind, config or sub.model_config,
                                np.random.default_rng(plan.seed + index))
            model = nn.quantize_module(model, scheme=scheme)
            model.load_state_dict(qstate)
            store.put(quant_digest, model,
                      config=dict(config or sub.model_config),
                      kind=sub.model_kind,
                      meta={"model_id": sub.model_id, "quant": scheme,
                            "recipe": quant_recipe})
        rows.append({"model_id": sub.model_id,
                     "fp32_digest": fp32_digest,
                     "quant_digest": quant_digest,
                     "fp32_bytes": nn.state_dict_num_bytes(state),
                     "quant_bytes": nn.state_dict_num_bytes(qstate)})
    return rows


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
                        digest: str | None = None,
                        quant: str | None = None) -> str:
        """Zero-downtime rolling swap of one sub-model from an artifact.

        Boots a fresh worker for ``model_id`` from the store artifact
        (``digest`` defaults to the plan's recorded ref, falling back to
        the recipe digest), then hands it to
        :meth:`~repro.serving.server.InferenceServer.swap_worker`, which
        drains in-flight batches and atomically retargets the fusion
        slot — no request is dropped.  Returns the new worker id.

        ``quant`` retargets the slot to another weight scheme mid-flight
        (the live fp32→int8 rollout): the plan's sub-model entry is
        switched to the scheme, and a missing quantized artifact is
        derived on demand from the fp32 one in the store.
        """
        index = self.plan.model_ids.index(model_id)
        sub = self.plan.submodels[index]
        if quant is not None and quant != sub.quant:
            if quant != "fp32":
                quantize_plan_artifacts(self.plan, store, scheme=quant)
            sub = dataclasses.replace(sub, quant=quant)
            self.plan.submodels[index] = sub
            self.plan.artifacts.pop(model_id, None)  # old variant's ref
            if digest is None:
                digest = recipe_digest(self.plan.submodel_recipe(model_id))
        if digest is None:
            digest = self.plan.artifacts.get(model_id) \
                or recipe_digest(self.plan.submodel_recipe(model_id))
        state, config = store.get(digest)
        model = build_model(sub.model_kind, config or sub.model_config,
                            np.random.default_rng(self.plan.seed + index))
        if sub.quant != "fp32":
            model = nn.quantize_module(model, scheme=sub.quant)
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
        """
        digests: dict[str, str] = {}
        if store is not None:
            digests = plan_artifact_digests(plan)
            loaded = _warm_boot_from_store(plan, store, digests)
            if loaded is not None:
                models, fusion = loaded
                plan.artifacts = dict(digests)
                return PlannedSystem(plan=plan, models=models, fusion=fusion,
                                     time_scale=time_scale,
                                     transport=transport, warm_booted=True)
        build = plan.build
        if build.get("recipe", DEMO_RECIPE) != DEMO_RECIPE:
            # Only the demo recipe retrains from the plan alone; any other
            # recipe would come back with untrained weights.
            raise ValueError(f"cannot rebuild the weights of training "
                             f"recipe {build['recipe']!r} from a plan")
        # Cold rebuild always trains in fp32; quantized serving schemes
        # are applied afterwards (quantization is post-training, and the
        # shared fusion artifact is defined over fp32 features).
        models = [build_model(sub.model_kind, sub.model_config,
                              np.random.default_rng(plan.seed + index))
                  for index, sub in enumerate(plan.submodels)]
        fusion = FusionMLP(FusionConfig.from_dict(dict(plan.fusion_config)),
                           rng=np.random.default_rng(plan.seed + 1000))
        if build.get("train_fusion"):
            train_demo_system(models, fusion,
                              image_size=int(build["image_size"]),
                              seed=plan.seed,
                              fusion_epochs=int(build.get("fusion_epochs", 8)))
        models = [nn.quantize_module(model, scheme=sub.quant)
                  if sub.quant != "fp32" else model
                  for sub, model in zip(plan.submodels, models)]
        if store is not None:
            _populate_store(plan, store, digests, models, fusion)
            plan.artifacts = dict(digests)
        return PlannedSystem(plan=plan, models=models, fusion=fusion,
                             time_scale=time_scale, transport=transport)


def plan_demo_system(num_workers: int = 2, model_kind: str = "vit",
                     num_classes: int = 10, image_size: int = 8,
                     seed: int = 0, throughputs: list[float] | None = None,
                     train_fusion: bool = False, fusion_epochs: int = 8,
                     time_scale: float = 0.0,
                     config: PlannerConfig | None = None,
                     codec: str = "raw32",
                     transport: str = "multiprocess",
                     store: ArtifactStore | None = None,
                     quant: str = "fp32",
                     memory_headroom: float = 3.0) -> PlannedSystem:
    """Plan a small (optionally heterogeneous) serveable demo fleet.

    Builds one tiny sub-model per class group, profiles them, sizes a
    fleet of ``num_workers`` devices with per-device ``throughputs``
    multipliers, and runs the :class:`~repro.planning.planner.Planner`
    (greedy assignment + DES scoring) to produce an executable
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

    models = [_tiny_model(model_kind, num_classes, image_size,
                          np.random.default_rng(seed + index))
              for index in range(num_workers)]
    build = {"recipe": DEMO_RECIPE, "model_kind": model_kind,
             "image_size": image_size, "train_fusion": bool(train_fusion),
             "fusion_epochs": fusion_epochs}

    partition = balanced_class_partition(num_classes, num_workers,
                                         rng=np.random.default_rng(seed))
    submodels = [
        PlannedSubModel(model_id=f"submodel-{index}",
                        classes=tuple(int(c) for c in partition[index]),
                        hp=0,
                        size_bytes=param_bytes(module_param_count(model)),
                        flops_per_sample=float(model_flops(model_kind,
                                                           model.config)),
                        feature_dim=int(model.feature_dim()),
                        model_kind=model_kind,
                        model_config=model.config.to_dict())
        for index, model in enumerate(models)]

    # Budgets sized so every device can absorb one orphaned sub-model on
    # top of its own (the replanning headroom).
    max_size = max(m.size_bytes for m in submodels)
    max_flops = max(m.flops_per_sample for m in submodels)
    select = codec == "auto"
    if config is None:
        planner_config = PlannerConfig(seed=seed,
                                       codec="raw32" if select else codec)
    elif not select and codec != "raw32" and config.codec != codec:
        # An explicit codec argument must not be silently dropped just
        # because an explicit PlannerConfig was also supplied.
        if config.codec != "raw32":
            raise ValueError(
                f"conflicting codecs: codec={codec!r} vs "
                f"PlannerConfig.codec={config.codec!r}")
        planner_config = dataclasses.replace(config, codec=codec)
    else:
        planner_config = config
    if planner_config.seed != seed:
        # The models, partition, and training protocol are all seeded by
        # the ``seed`` argument; the plan (and therefore every artifact
        # recipe and the cold rebuild) records ``config.seed``.  A split
        # seed would store weights under a recipe digest the rebuild
        # cannot reproduce — keep one seed source.
        planner_config = dataclasses.replace(planner_config, seed=seed)
    devices = [DeviceModel(device_id=f"edge-{index}",
                           macs_per_second=1e12 * factor,
                           memory_bytes=max(1, int(memory_headroom
                                                   * max_size)),
                           energy_flops=3 * max_flops
                           * max(1, planner_config.num_samples))
               for index, factor in enumerate(throughputs)]
    fusion_device = DeviceModel(device_id="fusion", macs_per_second=1e12)
    link = LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0)

    int8_sizes = None
    if quant in ("int8", "auto"):
        int8_sizes = {
            f"submodel-{index}": nn.state_dict_num_bytes(
                nn.quantize_state_dict(model.state_dict()))
            for index, model in enumerate(models)}
    planner = Planner(devices, fusion_device, link, planner_config)
    # The plan is assembled from untrained models; its artifact recipes
    # are then the single source of truth for warm boot or training.
    plan = planner.plan_submodels(num_classes, partition, submodels,
                                  build=build,
                                  quant=None if quant == "fp32" else quant,
                                  int8_sizes=int8_sizes)

    system = PlannedSystem.from_plan(plan, time_scale=time_scale,
                                     transport=transport, store=store)
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
