"""ED-ViT core: orchestrator, training loops, inference engine, metrics,
experiment harness."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".edvit": ("EDViTConfig", "build_edvit"),
    ".inference": ("evaluate", "extract_features", "iter_batches", "predict",
                   "predict_labels", "predict_probabilities",
                   "split_batch"),
    ".metrics": ("format_mean_std", "format_table", "mean_std"),
    ".training": ("TrainConfig", "TrainResult", "train_classifier"),
})
