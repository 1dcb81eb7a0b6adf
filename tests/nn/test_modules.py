"""Tests for the module system: registration, traversal, state dicts, layers."""

import numpy as np
import pytest

from repro import nn


class TestModuleRegistration:
    def test_parameters_registered_on_assignment(self):
        layer = nn.Linear(3, 4)
        names = {name for name, _ in layer.named_parameters()}
        assert names == {"weight", "bias"}

    def test_nested_module_names(self):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 2))
        names = {name for name, _ in model.named_parameters()}
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters(self):
        layer = nn.Linear(3, 4)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_modules_traversal_includes_self(self):
        model = nn.Sequential(nn.Linear(2, 2))
        assert model in list(model.modules())

    def test_named_buffers(self):
        bn = nn.BatchNorm2d(3)
        buffer_names = {name for name, _ in bn.named_buffers()}
        assert buffer_names == {"running_mean", "running_var"}

    def test_module_list_indexing(self):
        ml = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(ml) == 2
        assert isinstance(ml[1], nn.Linear)
        assert len(list(ml[0].parameters())) == 2

    def test_module_list_params_visible_from_parent(self):
        class Holder(nn.Module):
            def __init__(self):
                super().__init__()
                self.layers = nn.ModuleList([nn.Linear(2, 2)])

        names = {name for name, _ in Holder().named_parameters()}
        assert "layers.0.weight" in names


class TestTrainEval:
    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Dropout(0.5))
        model.eval()
        assert not model[1].training
        model.train()
        assert model[1].training

    def test_dropout_identity_in_eval(self):
        drop = nn.Dropout(0.9)
        drop.eval()
        x = nn.Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_scales_in_train(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = nn.Tensor(np.ones((100, 100)))
        out = drop(x).data
        # Inverted dropout: surviving entries are scaled by 1/keep.
        assert set(np.unique(out)).issubset({0.0, 2.0})
        assert abs(out.mean() - 1.0) < 0.1

    def test_zero_grad_clears_all(self):
        model = nn.Linear(2, 2)
        out = model(nn.Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


class TestStateDict:
    def test_roundtrip(self):
        src = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        dst = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        dst.load_state_dict(src.state_dict())
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 3)).astype(np.float32))
        np.testing.assert_allclose(src(x).data, dst(x).data)

    def test_state_dict_is_a_copy(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"][:] = 99.0
        assert not (layer.weight.data == 99.0).any()

    def test_missing_key_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_unexpected_key_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            layer.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_non_strict_ignores_missing(self):
        layer = nn.Linear(2, 2)
        layer.load_state_dict({}, strict=False)  # no error

    def test_batchnorm_buffers_roundtrip(self):
        src = nn.BatchNorm2d(3)
        src.running_mean[:] = 7.0
        dst = nn.BatchNorm2d(3)
        dst.load_state_dict(src.state_dict())
        np.testing.assert_allclose(dst.running_mean, 7.0)


class TestLayerForward:
    def test_linear_shape(self):
        assert nn.Linear(5, 7)(nn.Tensor(np.zeros((3, 5)))).shape == (3, 7)

    def test_linear_3d_input(self):
        assert nn.Linear(5, 7)(nn.Tensor(np.zeros((2, 4, 5)))).shape == (2, 4, 7)

    def test_layernorm_normalizes(self):
        ln = nn.LayerNorm(8)
        x = nn.Tensor(np.random.default_rng(0).normal(2.0, 3.0, (4, 8)).astype(np.float32))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_conv2d_output_shape(self):
        conv = nn.Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        assert conv(nn.Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_conv2d_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 3, 3)).astype(np.float32)
        out = conv(nn.Tensor(x)).data
        w = conv.weight.data[0, 0]
        expected = np.array([[(x[0, 0, i:i + 2, j:j + 2] * w).sum()
                              for j in range(2)] for i in range(2)])
        np.testing.assert_allclose(out[0, 0], expected + conv.bias.data[0],
                                   rtol=1e-5)

    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2)(nn.Tensor(x)).data
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = nn.AvgPool2d(2)(nn.Tensor(x)).data
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_flatten(self):
        assert nn.Flatten()(nn.Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)

    def test_sequential_iteration_and_len(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(model) == 2
        assert isinstance(list(model)[1], nn.ReLU)

    def test_batchnorm_train_normalizes_batch(self):
        bn = nn.BatchNorm2d(2)
        x = nn.Tensor(np.random.default_rng(0).normal(3.0, 2.0, (8, 2, 4, 4)).astype(np.float32))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_batchnorm_updates_running_stats(self):
        bn = nn.BatchNorm2d(2)
        x = nn.Tensor(np.full((4, 2, 3, 3), 10.0, dtype=np.float32))
        bn(x)
        assert (bn.running_mean > 0).all()

    def test_batchnorm_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(1)
        bn.running_mean[:] = 1.0
        bn.running_var[:] = 4.0
        bn.eval()
        x = nn.Tensor(np.full((1, 1, 2, 2), 3.0, dtype=np.float32))
        np.testing.assert_allclose(bn(x).data, (3.0 - 1.0) / 2.0, rtol=1e-3)
