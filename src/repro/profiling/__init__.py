"""Analytic FLOPs / memory profiling (Section III of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".flops": ("FlopsBreakdown", "fusion_flops", "mlp_flops", "model_flops",
               "paper_flops", "snn_flops", "vgg_flops"),
    ".memory": ("BYTES_PER_PARAM", "module_param_count", "module_size_mb",
                "param_bytes", "size_mb", "vit_param_count"),
})
