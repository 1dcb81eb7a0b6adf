"""ConvSNN baseline tests: LIF dynamics, rate coding, trainability."""

import numpy as np
import pytest

from repro import nn
from repro.models.snn import ConvSNN, LIFConvLayer, SNNConfig, csnn_tiny_config, spike_fn
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(0)


def tiny_snn(num_classes=4, image_size=16, channels=(4, 8)):
    cfg = SNNConfig(image_size=image_size, num_classes=num_classes,
                    channels=channels, time_steps=3, classifier_hidden=16)
    return ConvSNN(cfg, rng=RNG)


class TestSpikeFunction:
    def test_binary_output(self):
        x = Tensor(RNG.normal(size=(10,)).astype(np.float32))
        out = spike_fn(x).data
        assert set(np.unique(out)).issubset({0.0, 1.0})

    def test_threshold_boundary(self):
        x = Tensor(np.array([0.99, 1.0, 1.01], dtype=np.float32))
        np.testing.assert_array_equal(spike_fn(x, threshold=1.0).data,
                                      [0.0, 1.0, 1.0])

    def test_surrogate_peaks_at_threshold(self):
        x = Tensor(np.array([0.0, 1.0, 2.0], dtype=np.float32),
                   requires_grad=True)
        spike_fn(x, threshold=1.0).sum().backward()
        assert x.grad[1] > x.grad[0]
        assert x.grad[1] > x.grad[2]


class TestLIFLayer:
    def test_membrane_accumulates_over_steps(self):
        layer = LIFConvLayer(1, 1, decay=1.0, threshold=100.0, rng=RNG)
        layer.conv.weight.data[:] = 1.0
        layer.conv.bias.data[:] = 0.0
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        layer(x)
        first = layer.state.membrane.data.copy()
        layer(x)
        second = layer.state.membrane.data
        assert (second > first).all()  # sub-threshold: charge accumulates

    def test_reset_by_subtraction(self):
        layer = LIFConvLayer(1, 1, decay=0.0, threshold=1.0, rng=RNG)
        layer.conv.weight.data[:] = 0.0
        layer.conv.bias.data[:] = 1.5  # drives every neuron over threshold
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        spikes = layer(x)
        assert (spikes.data == 1.0).all()
        np.testing.assert_allclose(layer.state.membrane.data, 0.5, atol=1e-6)

    def test_reset_state(self):
        layer = LIFConvLayer(1, 2, rng=RNG)
        layer(Tensor(np.ones((1, 1, 4, 4), dtype=np.float32)))
        layer.reset_state()
        assert layer.state.membrane is None


class TestConvSNN:
    def test_logits_shape(self):
        model = tiny_snn()
        x = nn.Tensor(RNG.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (2, 4)

    def test_features_shape(self):
        model = tiny_snn()
        x = nn.Tensor(RNG.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert model.forward_features(x).shape == (2, model.feature_dim())

    def test_forward_is_deterministic_after_reset(self):
        model = tiny_snn()
        x = nn.Tensor(RNG.normal(size=(1, 3, 16, 16)).astype(np.float32))
        with nn.no_grad():
            a = model(x).data.copy()
            b = model(x).data.copy()
        np.testing.assert_allclose(a, b)

    def test_gradients_flow_through_time(self):
        model = tiny_snn()
        x = nn.Tensor(RNG.normal(size=(2, 3, 16, 16)).astype(np.float32))
        nn.cross_entropy(model(x), np.array([0, 1])).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_more_time_steps_changes_output(self):
        cfg1 = SNNConfig(image_size=16, num_classes=3, channels=(4,),
                         time_steps=1)
        cfg2 = SNNConfig(image_size=16, num_classes=3, channels=(4,),
                         time_steps=4)
        m1, m2 = ConvSNN(cfg1, rng=np.random.default_rng(3)), ConvSNN(
            cfg2, rng=np.random.default_rng(3))
        m2.load_state_dict(m1.state_dict())
        x = nn.Tensor(RNG.normal(size=(1, 3, 16, 16)).astype(np.float32))
        with nn.no_grad():
            assert not np.allclose(m1(x).data, m2(x).data)

    def test_config_dict_roundtrip(self):
        cfg = csnn_tiny_config()
        assert SNNConfig.from_dict(cfg.to_dict()) == cfg

    def test_too_deep_for_image_raises(self):
        with pytest.raises(ValueError):
            ConvSNN(SNNConfig(image_size=4, channels=(4, 4, 4)))
