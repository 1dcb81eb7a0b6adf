"""Graph-free fast path: autograd equivalence and mode semantics.

The acceptance bar for the execution engine: for every model family the
``no_grad()``/``inference_mode()`` forward must be numerically
indistinguishable (rtol 1e-5) from the graph-building autograd forward,
and the mode context managers must restore global state even on
exceptions.
"""

import numpy as np
import pytest

from repro import nn
from repro.models.snn import ConvSNN, SNNConfig
from repro.models.vgg import VGG, vgg8_micro_config
from repro.models.vit import ViTConfig, VisionTransformer


def _vit():
    cfg = ViTConfig(image_size=16, patch_size=4, num_classes=10, depth=2,
                    embed_dim=32, num_heads=4)
    return (VisionTransformer(cfg, rng=np.random.default_rng(0)),
            (2, 3, 16, 16))


def _vgg():
    cfg = vgg8_micro_config(num_classes=10, image_size=16, width_scale=0.25)
    return VGG(cfg, rng=np.random.default_rng(0)), (2, 3, 16, 16)


def _snn():
    cfg = SNNConfig(image_size=16, num_classes=10, channels=(8, 16),
                    time_steps=2, classifier_hidden=32)
    return ConvSNN(cfg, rng=np.random.default_rng(0)), (2, 3, 16, 16)


MODELS = {"vit": _vit, "vgg": _vgg, "snn": _snn}


@pytest.mark.parametrize("family", sorted(MODELS))
def test_fast_path_matches_autograd_forward(family):
    model, shape = MODELS[family]()
    model.eval()
    x = np.random.default_rng(1).normal(size=shape).astype(np.float32)

    ref = model(nn.Tensor(x))                      # graph-building forward
    assert ref.requires_grad                        # i.e. a graph was built

    with nn.no_grad():
        fast = model(nn.Tensor(x))
    assert not fast.requires_grad and fast._backward is None
    np.testing.assert_allclose(fast.data, ref.data, rtol=1e-5, atol=1e-5)

    with nn.inference_mode():
        cached = model(nn.Tensor(x)).data.copy()
        cached2 = model(nn.Tensor(x)).data.copy()  # workspaces now warm
    np.testing.assert_allclose(cached, ref.data, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(cached2, ref.data, rtol=1e-5, atol=1e-5)
    assert (cached.argmax(axis=-1) == ref.data.argmax(axis=-1)).all()


def test_inference_mode_outputs_alias_workspaces():
    """Documented invariant: under inference_mode repeated forwards reuse
    the same output storage; under plain no_grad they never do."""
    model, shape = _vit()
    model.eval()
    x = nn.Tensor(np.random.default_rng(2).normal(size=shape).astype(np.float32))
    with nn.inference_mode():
        first = model(x).data
        second = model(x).data
    assert np.shares_memory(first, second)          # head Linear's workspace
    with nn.no_grad():
        first = model(x).data
        second = model(x).data
    assert not np.shares_memory(first, second)


def test_no_grad_restores_on_exception():
    assert nn.is_grad_enabled()
    with pytest.raises(ValueError):
        with nn.no_grad():
            assert not nn.is_grad_enabled()
            raise ValueError("boom")
    assert nn.is_grad_enabled()


def test_inference_mode_restores_on_exception():
    assert nn.is_grad_enabled() and not nn.is_inference()
    with pytest.raises(ValueError):
        with nn.inference_mode():
            assert not nn.is_grad_enabled() and nn.is_inference()
            raise ValueError("boom")
    assert nn.is_grad_enabled() and not nn.is_inference()


def test_nested_modes_restore_inner_state_on_exception():
    with nn.no_grad():
        with pytest.raises(RuntimeError):
            with nn.inference_mode():
                raise RuntimeError("boom")
        # Back inside no_grad: grad still off, inference off again.
        assert not nn.is_grad_enabled()
        assert not nn.is_inference()
    assert nn.is_grad_enabled()


def test_no_grad_suspends_workspace_reuse_inside_inference_mode():
    """no_grad() promises indefinitely-valid outputs, so entering it inside
    inference_mode() must switch workspace aliasing off until it exits."""
    with nn.inference_mode():
        with nn.no_grad():
            assert not nn.is_inference()            # reuse suspended
            assert not nn.is_grad_enabled()
        assert nn.is_inference()                    # restored on exit
    assert not nn.is_inference()

    model, shape = _vit()
    model.eval()
    x = nn.Tensor(np.random.default_rng(4).normal(size=shape).astype(np.float32))
    with nn.inference_mode():
        with nn.no_grad():
            first = model(x).data
        second = model(x).data
    assert not np.shares_memory(first, second)      # first stays valid


def test_tensors_created_graph_free_never_require_grad():
    with nn.inference_mode():
        t = nn.Tensor([1.0, 2.0], requires_grad=True)
        assert not t.requires_grad
        out = t * 2.0 + 1.0
        assert not out.requires_grad and out._parents == ()


def test_backward_graph_unaffected_by_prior_inference():
    """Training still works after inference passes over the same model."""
    model, shape = _vit()
    x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
    with nn.inference_mode():
        model(nn.Tensor(x))
    model.train()
    loss = nn.cross_entropy(model(nn.Tensor(x)), np.zeros(shape[0], dtype=np.int64))
    loss.backward()
    grads = [p.grad for p in model.parameters()]
    assert all(g is not None for g in grads)
    assert all(np.isfinite(g).all() for g in grads)


def test_mode_flags_are_thread_local():
    import threading

    seen = {}

    def probe():
        seen["grad"] = nn.is_grad_enabled()
        seen["inference"] = nn.is_inference()

    with nn.inference_mode():
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
    assert seen == {"grad": True, "inference": False}
