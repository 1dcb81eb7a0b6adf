"""Model zoo: Vision Transformers, the VGG/SNN comparators, and fusion MLP."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fusion": ("FusionConfig", "FusionMLP", "build_fusion_for"),
    ".snn": ("ConvSNN", "LIFConvLayer", "SNNConfig", "csnn_tiny_config",
             "spike_fn"),
    ".vgg": ("VGG", "VGGConfig", "vgg11_tiny_config", "vgg8_micro_config"),
    ".vit": ("Block", "FeedForward", "MultiHeadSelfAttention", "PatchEmbed",
             "STANDARD_CONFIGS", "ViTConfig", "VisionTransformer",
             "vit_base_config", "vit_large_config", "vit_small_config",
             "vit_tiny_config"),
})
