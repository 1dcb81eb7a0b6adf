"""ED-ViT reproduction: partitioning Vision Transformers across edge devices.

Reproduction of "Efficient Partitioning Vision Transformer on Edge Devices
for Distributed Inference" (ICDCS 2025).  Subpackages:

* :mod:`repro.nn` — from-scratch numpy autograd framework (the PyTorch
  substitute everything else is built on);
* :mod:`repro.models` — ViT (S/B/L + scaled), VGG and ConvSNN comparators,
  the tower fusion MLP;
* :mod:`repro.profiling` — Section III analytic FLOPs/memory/energy;
* :mod:`repro.data` — synthetic stand-ins for the five benchmark datasets;
* :mod:`repro.pruning` — the three-stage KL structured pruner (Alg. 2) and
  channel pruning for the baselines;
* :mod:`repro.splitting` — class partitioning, head scheduling (Alg. 1),
  fusion training (Section IV-E);
* :mod:`repro.assignment` — greedy placement (Alg. 3) plus an optimal
  reference;
* :mod:`repro.edge` — calibrated Raspberry-Pi device models, tc-capped
  links, a discrete-event simulator, and process-based device emulation;
* :mod:`repro.serving` — asynchronous request-level serving: dynamic
  batching, concurrent scatter/gather dispatch, failure-aware degraded
  fusion, telemetry, and a Poisson load generator;
* :mod:`repro.obs` — observability: cross-process request tracing,
  a metrics registry, kernel/store profiling hooks, and Perfetto/JSONL
  trace export;
* :mod:`repro.planning` — the declarative deployment layer: a
  :class:`repro.planning.DeploymentPlan` scored by the DES simulator,
  JSON round-tripping, plan→serving execution, and online replanning
  after device failures;
* :mod:`repro.core` — the :func:`repro.core.build_edvit` orchestrator
  (plans through :class:`repro.planning.Planner` and returns a servable
  :class:`repro.planning.PlannedSystem`), training loops, and the
  experiment harness regenerating every table and figure;
* :mod:`repro.baselines` — Split-CNN (NNFacet) and Split-SNN (EC-SNN)
  comparator systems.
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": ("EDViTConfig", "build_edvit"),
}, submodules=(
    "assignment", "baselines", "core", "data", "edge", "models", "nn", "obs",
    "planning", "profiling", "pruning", "serving", "splitting", "store",
))
__all__.append("__version__")
