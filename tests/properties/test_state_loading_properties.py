"""``Module.load_state_dict`` over a lazy stream of pairs (hypothesis).

One loader serves the dict a checkpoint decodes to and the generator an
edge worker reads off its connection; whatever the order and whatever the
model family, both must leave the same model and raise the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, VGGConfig
from repro.models.vit import ViTConfig, VisionTransformer

BUILDERS = {
    "vit": lambda seed: VisionTransformer(
        ViTConfig(image_size=8, patch_size=4, num_classes=3, depth=2,
                  embed_dim=8, num_heads=2),
        rng=np.random.default_rng(seed)),
    "vgg": lambda seed: VGG(
        VGGConfig(plan="vgg11", image_size=32, num_classes=3,
                  width_scale=1 / 16, classifier_hidden=8),
        rng=np.random.default_rng(seed)),
    "snn": lambda seed: ConvSNN(
        SNNConfig(image_size=8, num_classes=3, channels=(4, 8),
                  time_steps=2, classifier_hidden=8),
        rng=np.random.default_rng(seed)),
}


def build(family, quant, seed):
    model = BUILDERS[family](seed)
    return nn.quantize_module(model) if quant == "int8" else model


def assert_same_model(a, b):
    state_a, state_b = a.state_dict(), b.state_dict()
    assert list(state_a) == list(state_b)
    for name in state_a:
        assert state_a[name].dtype == state_b[name].dtype, name
        np.testing.assert_array_equal(state_a[name], state_b[name], name)


def one_at_a_time(pairs, alive):
    """A generator that, like a worker's connection, hands each array
    over once and counts how many it has handed out."""
    for name, array in pairs:
        alive.append(name)
        yield name, array.copy()


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(BUILDERS)),
       quant=st.sampled_from(["fp32", "int8"]),
       seed=st.integers(0, 2 ** 16), order=st.randoms(use_true_random=False),
       adopt=st.booleans())
def test_a_stream_of_pairs_loads_like_a_dict(family, quant, seed, order,
                                             adopt):
    state = build(family, quant, seed).state_dict()
    from_dict = build(family, quant, seed + 1)
    from_dict.load_state_dict(state)

    pairs = list(state.items())
    order.shuffle(pairs)
    handed_out = []
    from_stream = build(family, quant, seed + 2)
    from_stream.load_state_dict(one_at_a_time(pairs, handed_out),
                                adopt=adopt)

    assert handed_out == [name for name, _ in pairs]   # consumed once, whole
    assert_same_model(from_dict, from_stream)
    # And it serves: the K-major relayout eval() does sees loaded weights.
    x = np.random.default_rng(seed).normal(
        size=(2, 3, from_dict.config.image_size,
              from_dict.config.image_size)).astype(np.float32)
    from_dict.eval(), from_stream.eval()
    with nn.no_grad():
        np.testing.assert_array_equal(
            from_dict.forward_features(nn.Tensor(x)).data,
            from_stream.forward_features(nn.Tensor(x)).data)


def as_dict(pairs):
    return dict(pairs)


def as_stream(pairs):
    return iter(pairs)


@pytest.mark.parametrize("quant", ["fp32", "int8"])
@pytest.mark.parametrize("form", [as_dict, as_stream])
class TestStrictChecksDoNotDependOnTheForm:
    def pairs(self, quant):
        return list(build("vit", quant, 0).state_dict().items())

    def test_missing_key(self, form, quant):
        pairs = [p for p in self.pairs(quant) if p[0] != "norm.weight"]
        with pytest.raises(KeyError) as info:
            build("vit", quant, 1).load_state_dict(form(pairs))
        assert info.value.args[0] \
            == "missing keys in state dict: ['norm.weight']"

    def test_unexpected_keys_are_listed_sorted(self, form, quant):
        pairs = [("zz.ghost", np.zeros(1)), *self.pairs(quant),
                 ("aa.ghost", np.zeros(1))]
        with pytest.raises(KeyError) as info:
            build("vit", quant, 1).load_state_dict(form(pairs))
        assert info.value.args[0] \
            == "unexpected keys in state dict: ['aa.ghost', 'zz.ghost']"

    def test_shape_mismatch(self, form, quant):
        name = "blocks.0.mlp.fc1.weight_q8" if quant == "int8" \
            else "blocks.0.mlp.fc1.weight"
        pairs = [(n, np.zeros((3, 3), dtype=v.dtype) if n == name else v)
                 for n, v in self.pairs(quant)]
        with pytest.raises(ValueError) as info:
            build("vit", quant, 1).load_state_dict(form(pairs))
        assert info.value.args[0] == (
            f"shape mismatch for {name}: checkpoint (3, 3) vs model "
            f"(32, 8)")

    def test_non_strict_tolerates_both(self, form, quant):
        pairs = [("ghost", np.zeros(1)), *self.pairs(quant)[1:]]
        build("vit", quant, 1).load_state_dict(form(pairs), strict=False)


class TestAdoption:
    def test_default_copies_so_the_caller_keeps_its_arrays(self):
        src, dst = nn.Linear(3, 4), nn.Linear(3, 4)
        state = src.state_dict()
        dst.load_state_dict(state)
        assert not np.shares_memory(dst.weight.data, state["weight"])
        state["weight"][:] = 99.0
        assert not (dst.weight.data == 99.0).any()

    def test_adopt_makes_the_array_the_parameter(self):
        src, dst = nn.Linear(3, 4), nn.Linear(3, 4)
        state = src.state_dict()
        dst.load_state_dict(state, adopt=True)
        assert dst.weight.data is state["weight"]
        assert dst.bias.data is state["bias"]

    def test_adopt_still_converts_what_does_not_fit_the_slot(self):
        dst = nn.Linear(3, 4)
        weight = np.asfortranarray(np.arange(12, dtype=np.float64)
                                   .reshape(4, 3))
        dst.load_state_dict({"weight": weight, "bias": np.zeros(4)},
                            adopt=True)
        assert dst.weight.data.dtype == np.float32
        assert dst.weight.data.flags.c_contiguous
        np.testing.assert_array_equal(dst.weight.data, weight)

    def test_adopt_reaches_the_int8_buffers(self):
        src = nn.quantize_module(nn.Sequential(nn.Linear(3, 4)))
        dst = nn.quantize_module(nn.Sequential(nn.Linear(3, 4)))
        state = src.state_dict()
        dst.load_state_dict(state, adopt=True)
        (_, layer), = [(n, m) for n, m in dst.named_modules()
                       if isinstance(m, nn.QuantizedLinear)]
        assert layer.weight_q8 is state["0.weight_q8"]
        assert layer.weight_q8.dtype == np.int8

    def test_replaced_arrays_are_released_as_the_stream_advances(self):
        import weakref

        dst = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2))
        old = {name: weakref.ref(param.data)
               for name, param in dst.named_parameters()}
        src = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2)).state_dict()
        still_held = []

        def stream():
            for name, array in src.items():
                yield name, array
                # Resumed: the entry just yielded has landed.
                still_held.append(old[name]() is not None)

        dst.load_state_dict(stream())
        assert still_held == [False] * 4
