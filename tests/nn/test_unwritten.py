"""``nn.init.unwritten()``: a model built only to be loaded draws nothing.

What the context owes its one caller (an edge worker's boot): after a
strict load the model is the model a normal build would have been, a
state that misses a parameter is refused, and neither construction nor
int8 surgery reads the placeholder storage.
"""

import contextlib
import threading
import warnings

import numpy as np
import pytest

from repro import nn
from repro.core.inference import extract_features
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, VGGConfig
from repro.models.vit import ViTConfig, VisionTransformer

X = np.random.default_rng(7).normal(size=(3, 3, 16, 16)).astype(np.float32)

BUILDERS = {
    "vit": lambda rng=None: VisionTransformer(
        ViTConfig(image_size=16, patch_size=4, num_classes=5, depth=2,
                  embed_dim=16, num_heads=2), rng=rng),
    "vit-pruned-shape": lambda rng=None: VisionTransformer(
        ViTConfig(image_size=16, patch_size=4, num_classes=5, depth=2,
                  embed_dim=16, num_heads=2, attn_dim=12, mlp_hidden=37),
        rng=rng),
    "vgg": lambda rng=None: VGG(
        VGGConfig(plan="vgg8", image_size=16, num_classes=5,
                  width_scale=0.125, classifier_hidden=32), rng=rng),
    "snn": lambda rng=None: ConvSNN(
        SNNConfig(image_size=16, num_classes=5, channels=(4, 8),
                  time_steps=2, classifier_hidden=16), rng=rng),
}


def trained_state(kind, quantized):
    model = BUILDERS[kind](np.random.default_rng(3))
    return (nn.quantize_module(model) if quantized else model).state_dict()


def loaded(kind, quantized, state, unwritten):
    """A model built (normally, or under the context) and strictly loaded."""
    with nn.init.unwritten() if unwritten else contextlib.nullcontext():
        model = BUILDERS[kind]()
        if quantized:
            model = nn.quantize_module(model)
    model.load_state_dict(dict(state), strict=True, adopt=True)
    return model.eval()


@pytest.mark.parametrize("quantized", [False, True], ids=["fp32", "int8"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_unwritten_build_then_load_is_bit_identical(kind, quantized):
    state = trained_state(kind, quantized)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lean = loaded(kind, quantized, state, unwritten=True)
    reference = loaded(kind, quantized, state, unwritten=False)
    assert extract_features(lean, X).tobytes() \
        == extract_features(reference, X).tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_state_missing_one_key_fails_the_strict_load(kind):
    state = trained_state(kind, quantized=False)
    dropped = sorted(name for name in state if name.endswith("bias"))[0]
    del state[dropped]
    with nn.init.unwritten():
        model = BUILDERS[kind]()
    with pytest.raises(KeyError, match=dropped.replace(".", r"\.")):
        model.load_state_dict(state, strict=True, adopt=True)


@pytest.mark.parametrize("kind", ["vit", "vgg"])
def test_int8_surgery_does_not_read_unwritten_weights(kind, monkeypatch):
    """``np.empty`` pages are usually zero, so a read would rarely warn:
    pin that the weights are not looked at."""
    def refuse(weight):
        raise AssertionError("quantized a placeholder weight")

    monkeypatch.setattr("repro.nn.quantize.quantize_array", refuse)
    with nn.init.unwritten():
        model = nn.quantize_module(BUILDERS[kind]())
    assert nn.is_quantized(model)
    assert {buf.dtype for name, buf in model.named_buffers()
            if name.endswith("weight_q8")} == {np.dtype(np.int8)}


def test_nothing_is_drawn_inside_the_context():
    before = nn.init.default_rng().bit_generator.state
    with nn.init.unwritten():
        for build in BUILDERS.values():
            build()
    assert nn.init.default_rng().bit_generator.state == before


def test_the_context_is_per_thread_and_restores():
    seen = {}

    def other_thread():
        seen["other"] = nn.init.is_unwritten()

    with nn.init.unwritten():
        with nn.init.unwritten():
            pass
        seen["nested exit"] = nn.init.is_unwritten()
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(timeout=5)
    seen["after"] = nn.init.is_unwritten()
    assert seen == {"nested exit": True, "other": False, "after": False}


def test_default_build_is_unchanged_by_the_lazy_generator():
    """``rng=None`` still means one shared, seeded stream, drawn in the
    same order: two fresh default streams give the same model."""
    generator = nn.init.default_rng()
    try:
        nn.init._default_rng = np.random.default_rng(11)
        first = BUILDERS["vit"]().state_dict()
        nn.init._default_rng = np.random.default_rng(11)
        second = BUILDERS["vit"](nn.init.default_rng()).state_dict()
    finally:
        nn.init._default_rng = generator   # later tests keep their stream
    assert first.keys() == second.keys()
    assert all(np.array_equal(first[k], second[k]) for k in first)
