"""Batched inference entrypoint: repro.core.predict and friends."""

import numpy as np
import pytest

from repro import nn
from repro.core import inference
from repro.data.loaders import DataLoader
from repro.models.vit import ViTConfig, VisionTransformer


@pytest.fixture(scope="module")
def model():
    cfg = ViTConfig(image_size=16, patch_size=4, num_classes=10, depth=2,
                    embed_dim=32, num_heads=4)
    return VisionTransformer(cfg, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=10)
    return x, y


def _reference_logits(model, x):
    model.eval()
    with nn.no_grad():
        return model(nn.Tensor(x)).data.copy()


def test_predict_matches_single_batch_forward(model, data):
    x, _ = data
    ref = _reference_logits(model, x)
    np.testing.assert_allclose(inference.predict(model, x, batch_size=64),
                               ref, rtol=1e-5, atol=1e-5)


def test_predict_is_batch_size_invariant(model, data):
    x, _ = data
    full = inference.predict(model, x, batch_size=64)
    for bs in (1, 3, 10):
        np.testing.assert_allclose(inference.predict(model, x, batch_size=bs),
                                   full, rtol=1e-5, atol=1e-5)


def test_predict_accepts_dataloader(model, data):
    x, y = data
    loader = DataLoader(x, y, batch_size=4, shuffle=False)
    np.testing.assert_allclose(inference.predict(model, loader),
                               inference.predict(model, x), rtol=1e-5, atol=1e-5)


def test_predict_accepts_batch_iterable(model, data):
    x, _ = data
    batches = [x[:4], x[4:]]
    np.testing.assert_allclose(inference.predict(model, batches),
                               inference.predict(model, x), rtol=1e-5, atol=1e-5)


def test_predict_outputs_are_caller_owned(model, data):
    x, _ = data
    first = inference.predict(model, x)
    second = inference.predict(model, x)
    assert first is not second
    np.testing.assert_allclose(first, second, rtol=0, atol=0)


def test_single_batch_output_survives_the_next_forward(model, data):
    """One batch skips the concatenate, not the copy out of the warm
    workspaces a server keeps."""
    x, _ = data
    first = inference.predict(model, x, keep_workspaces=True)
    kept = first.copy()
    inference.predict(model, x[::-1].copy(), keep_workspaces=True)
    model.clear_workspaces()
    np.testing.assert_array_equal(first, kept)


def test_predict_puts_only_a_training_model_into_eval(model, data, monkeypatch):
    x, _ = data
    model.train()
    inference.predict(model, x)
    assert not model.training
    assert not any(m.training for m in model.modules())

    def no_walk():
        raise AssertionError("eval() re-walked a model already in eval")

    monkeypatch.setattr(model, "eval", no_walk, raising=False)
    inference.predict(model, x)


def test_predict_empty_raises(model):
    with pytest.raises(ValueError):
        inference.predict(model, [])


def test_predict_labels_and_evaluate(model, data):
    x, y = data
    labels = inference.predict_labels(model, x)
    assert labels.shape == (10,)
    acc = inference.evaluate(model, x, y)
    assert acc == pytest.approx(float((labels == y).mean()))


def test_predict_probabilities_normalized(model, data):
    x, _ = data
    probs = inference.predict_probabilities(model, x)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
    assert (probs >= 0).all()


def test_extract_features_matches_forward_features(model, data):
    x, _ = data
    model.eval()
    with nn.no_grad():
        ref = model.forward_features(nn.Tensor(x)).data.copy()
    np.testing.assert_allclose(inference.extract_features(model, x, batch_size=3),
                               ref, rtol=1e-5, atol=1e-5)


def test_iter_batches_shapes(data):
    x, y = data
    batches = list(inference.iter_batches(x, 4))
    assert [len(b) for b in batches] == [4, 4, 2]
    loader = DataLoader(x, y, batch_size=5, shuffle=False)
    assert [len(b) for b in inference.iter_batches(loader)] == [5, 5]


def test_predict_releases_workspaces_by_default(model, data):
    x, _ = data
    inference.predict(model, x, batch_size=4)
    sizes = [len(m.workspace) for m in model.modules()
             if "_workspace" in m.__dict__]
    assert sum(sizes) == 0
    inference.predict(model, x, batch_size=4, keep_workspaces=True)
    sizes = [len(m.__dict__["_workspace"]) for m in model.modules()
             if "_workspace" in m.__dict__]
    assert sum(sizes) > 0
    model.clear_workspaces()


def test_concurrent_predict_on_shared_model_is_correct(model, data):
    """Per-thread workspace storage: concurrent inference on one model must
    match the single-threaded result exactly (regression for a scratch
    corruption bug where threads shared workspace buffers)."""
    import threading

    x, _ = data
    expected = inference.predict(model, x, batch_size=4)
    results = [None] * 4

    def worker(i):
        results[i] = inference.predict(model, x, batch_size=4)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results:
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)
