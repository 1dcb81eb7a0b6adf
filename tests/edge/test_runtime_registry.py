"""Model kinds: every architecture in the fixed table can be served."""

import numpy as np
import pytest

from repro import nn
from repro.core.inference import extract_features
from repro.edge.device import DeviceModel
from repro.edge.network import LinkModel
from repro.edge.runtime import (MODEL_KINDS, EdgeCluster, WorkerSpec,
                                build_model)
from repro.serving.demo import _tiny_model


def make_spec(worker_id, model, kind):
    return WorkerSpec.from_model(
        worker_id, model, kind, flops_per_sample=1e6,
        device=DeviceModel(device_id=worker_id, macs_per_second=1e12),
        link=LinkModel(bandwidth_bps=1e9, overhead_seconds=0.0))


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(MODEL_KINDS) == {"vit", "vgg", "snn"}

    def test_unknown_kind_rejected_at_spec_build(self):
        model = _tiny_model("vit", 10, 8, np.random.default_rng(0))
        with pytest.raises(KeyError):
            make_spec("w", model, "transformerx")

    def test_unknown_kind_rejected_at_model_build(self):
        with pytest.raises(KeyError, match="transformerx.*known kinds"):
            build_model("transformerx", {})

    def test_from_model_records_feature_dim(self):
        for kind in ("vit", "vgg", "snn"):
            model = _tiny_model(kind, 10, 8, np.random.default_rng(0))
            spec = make_spec("w", model, kind)
            assert spec.feature_dim == model.feature_dim()

    def test_an_unstarted_cluster_knows_every_feature_width(self):
        models = {kind: _tiny_model(kind, 10, 8, np.random.default_rng(0))
                  for kind in ("vit", "vgg", "snn")}
        cluster = EdgeCluster([make_spec(kind, model, kind)
                               for kind, model in models.items()])
        assert cluster.feature_dims() == {
            kind: model.feature_dim() for kind, model in models.items()}


@pytest.mark.parametrize("kind", ["vit", "vgg", "snn"])
def test_build_model_draws_only_from_the_given_rng(kind):
    """Same seed, same weights as the constructor called directly; the
    process-global generator of ``nn.init`` plays no part."""
    direct = _tiny_model(kind, 10, 8, np.random.default_rng(5))
    config = direct.config.to_dict()

    def weights(seed):
        model = build_model(kind, config, rng=np.random.default_rng(seed))
        assert type(model) is type(direct)
        return nn.state_dict_to_bytes(model.state_dict())

    first = weights(5)
    nn.init.default_rng().random(16)   # move the process-global generator
    assert weights(5) == first == nn.state_dict_to_bytes(direct.state_dict())
    assert weights(6) != first


@pytest.mark.parametrize("kind", ["vgg", "snn"])
def test_non_vit_kinds_serve_through_cluster(kind):
    model = _tiny_model(kind, 10, 8, np.random.default_rng(3))
    x = np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32)
    with EdgeCluster([make_spec("w0", model, kind)]) as cluster:
        features, _ = cluster.infer_features(x)
    local = extract_features(model, x)
    np.testing.assert_allclose(features["w0"], local, atol=1e-5)
