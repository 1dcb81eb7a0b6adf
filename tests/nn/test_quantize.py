"""Post-training int8 weight quantization (repro.nn.quantize)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.quantize import (
    QuantizedConv2d,
    QuantizedLinear,
    dequantize_array,
    is_quantized,
    quantize_array,
    quantize_module,
)


# ----------------------------------------------------------------------
# Array-level scheme
# ----------------------------------------------------------------------
def test_quantize_array_per_channel_roundtrip():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 17)).astype(np.float32)
    q8, scale = quantize_array(w)
    assert q8.dtype == np.int8 and scale.dtype == np.float32
    assert q8.shape == w.shape and scale.shape == (6,)
    deq = dequantize_array(q8, scale)
    # Per-channel symmetric int8: error bounded by half a step per channel.
    err = np.abs(deq - w)
    bound = scale[:, None] * 0.5 + 1e-8
    assert (err <= bound).all()


def test_quantize_array_uses_full_int8_range():
    w = np.array([[1.0, -2.0, 0.5]], dtype=np.float32)
    q8, scale = quantize_array(w)
    assert q8.min() == -127 or q8.max() == 127
    np.testing.assert_allclose(scale, [2.0 / 127], rtol=1e-6)


def test_quantize_array_zero_channel_is_safe():
    w = np.zeros((2, 4), dtype=np.float32)
    w[1] = 3.0
    q8, scale = quantize_array(w)
    assert scale[0] == 1.0                    # no divide-by-zero poison
    np.testing.assert_array_equal(q8[0], 0)
    np.testing.assert_allclose(dequantize_array(q8, scale)[0], 0.0)


def test_quantize_array_rejects_vectors():
    with pytest.raises(ValueError):
        quantize_array(np.ones(4, dtype=np.float32))


# ----------------------------------------------------------------------
# Module surgery
# ----------------------------------------------------------------------
def _mlp(rng):
    return nn.Sequential(nn.Linear(8, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, 4, rng=rng))


def test_quantize_module_replaces_linears_in_sequential():
    rng = np.random.default_rng(1)
    model = _mlp(rng)
    x = rng.normal(size=(3, 8)).astype(np.float32)
    with nn.inference_mode():
        ref = model(nn.Tensor(x)).data.copy()
    qmodel = quantize_module(model)
    assert is_quantized(qmodel)
    layers = list(qmodel.modules())
    assert any(isinstance(m, QuantizedLinear) for m in layers)
    assert not any(type(m) is nn.Linear for m in layers)
    with nn.inference_mode():
        out = qmodel(nn.Tensor(x)).data
    assert np.abs(out - ref).max() < 0.05     # int8 tolerance, not exact


def test_quantize_module_replaces_conv_and_matches():
    rng = np.random.default_rng(2)
    conv = nn.Conv2d(3, 8, kernel_size=3, padding=1, rng=rng)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    with nn.inference_mode():
        ref = conv(nn.Tensor(x)).data.copy()
    qconv = quantize_module(conv)
    assert isinstance(qconv, QuantizedConv2d)
    with nn.inference_mode():
        out = qconv(nn.Tensor(x)).data
    assert np.abs(out - ref).max() < 0.05


def test_quantized_forward_requires_no_grad():
    q = QuantizedLinear.from_linear(
        nn.Linear(4, 2, rng=np.random.default_rng(3)))
    x = nn.Tensor(np.ones((1, 4), dtype=np.float32))
    with pytest.raises(RuntimeError, match="grad"):
        q(x)
    with nn.no_grad():
        q(x)                                  # graph-free path works


def test_int8_state_dict_loads_strict_into_a_fresh_quantized_module():
    """A quantized module's state dict (the int8 artifact) must load
    strict into a freshly built, quantized module — that is how workers
    and warm boots rebuild int8 models."""
    rng = np.random.default_rng(4)
    direct = quantize_module(_mlp(rng))
    rebuilt = quantize_module(_mlp(np.random.default_rng(99)))
    rebuilt.load_state_dict(direct.state_dict())   # strict: keys must align
    x = rng.normal(size=(2, 8)).astype(np.float32)
    with nn.inference_mode():
        np.testing.assert_array_equal(rebuilt(nn.Tensor(x)).data,
                                      direct(nn.Tensor(x)).data)


def test_int8_state_dict_shrinks_vit():
    from repro.models.vit import VisionTransformer, vit_tiny_config

    model = VisionTransformer(vit_tiny_config(),
                              rng=np.random.default_rng(5))
    fp32 = nn.state_dict_num_bytes(model.state_dict())
    int8 = nn.state_dict_num_bytes(quantize_module(model).state_dict())
    assert fp32 >= 2 * int8, (fp32, int8)     # the artifact-size gate


def test_quantized_vit_forward_is_close():
    from repro.models.vit import VisionTransformer, vit_tiny_config

    rng = np.random.default_rng(6)
    model = VisionTransformer(vit_tiny_config(), rng=rng)
    x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    with nn.inference_mode():
        ref = model(nn.Tensor(x)).data.copy()
    qmodel = quantize_module(model)
    assert is_quantized(qmodel)
    with nn.inference_mode():
        out = qmodel(nn.Tensor(x)).data
    assert np.abs(out - ref).max() < 0.25, np.abs(out - ref).max()


def test_is_quantized_false_for_plain_modules():
    assert not is_quantized(_mlp(np.random.default_rng(7)))
