"""Profiling a forward must not change it.

Golden check: for each model family, the forward pass under a fresh
``ArrayBackend`` and under the ``ProfilingBackend`` that wraps one is
compared against the reference instance (``use_backend("numpy")``) —
fp32 bit-close, quantized weights within the int8 tolerance.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.backend import ArrayBackend, use_backend
from repro.obs import ProfilingBackend
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, VGGConfig
from repro.models.vit import ViTConfig, VisionTransformer

BACKENDS = pytest.mark.parametrize(
    "backend", (ArrayBackend(), ProfilingBackend()), ids=("numpy", "profiled"))


def _build(kind: str):
    rng = np.random.default_rng(17)
    if kind == "vit":
        model = VisionTransformer(
            ViTConfig(image_size=16, patch_size=4, num_classes=10,
                      depth=2, embed_dim=32, num_heads=4), rng=rng)
        x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    elif kind == "vgg":
        model = VGG(VGGConfig(plan="vgg8", image_size=16, num_classes=10,
                              width_scale=0.125, classifier_hidden=32),
                    rng=rng)
        x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    else:
        model = ConvSNN(SNNConfig(image_size=16, num_classes=10,
                                  channels=(4, 8), time_steps=2,
                                  classifier_hidden=16), rng=rng)
        x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    model.eval()
    return model, x


def _forward(model, x):
    with nn.inference_mode():
        return model(nn.Tensor(x)).data.copy()


@BACKENDS
@pytest.mark.parametrize("kind", ["vit", "vgg", "snn"])
def test_fp32_forward_matches_numpy_reference(kind, backend):
    model, x = _build(kind)
    with use_backend("numpy"):
        ref = _forward(model, x)
    with use_backend(backend):
        out = _forward(model, x)
    np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5,
                               err_msg=f"{kind} under {backend.name!r}")


@BACKENDS
@pytest.mark.parametrize("kind", ["vit", "vgg", "snn"])
def test_int8_forward_within_quantization_tolerance(kind, backend):
    model, x = _build(kind)
    with use_backend("numpy"):
        ref = _forward(model, x)
    qmodel = nn.quantize_module(model)
    with use_backend(backend):
        out = _forward(qmodel, x)
    # int8 weights change the numbers; the error must stay quantization-
    # sized, and identical-scheme backends must agree with each other.
    assert np.abs(out - ref).max() < 0.5, (
        f"{kind} int8 under {backend.name!r}: {np.abs(out - ref).max()}")
    with use_backend("numpy"):
        ref_q = _forward(qmodel, x)
    np.testing.assert_allclose(out, ref_q, rtol=2e-3, atol=2e-3,
                               err_msg=f"{kind} int8 under {backend.name!r}")


@BACKENDS
def test_predicted_labels_are_backend_invariant(backend):
    """The end-to-end serving contract: argmax labels never depend on
    which fp32 backend computed them."""
    model, x = _build("vit")
    with use_backend("numpy"):
        ref = _forward(model, x).argmax(axis=-1)
    with use_backend(backend):
        labels = _forward(model, x).argmax(axis=-1)
    np.testing.assert_array_equal(labels, ref)
