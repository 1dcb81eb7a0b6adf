"""The flat graph-free ViT schedule: equal to the autograd forward, never
stale, layout-invisible to serialization, thread-safe, profiler-visible.

The autograd forward (``MultiHeadSelfAttention.forward`` ->
``FeedForward.forward`` -> ``Block.forward`` with gradients enabled) is
the reference implementation; ``_block_forward`` / ``_infer_features``
are the one graph-free path every server runs.
"""

import copy
import dataclasses
import io
import sys
import threading
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn, obs
from repro.core.inference import extract_features, predict
from repro.models import vit
from repro.models.vit import (
    ARENA_BYTES,
    ViTConfig,
    VisionTransformer,
    vit_base_config,
)
from repro.pruning.surgery import prune_ffn_hidden
from repro.store import ArtifactStore, recipe_digest

TOL = dict(rtol=1e-5, atol=1e-5)
# The reference kernels, and the same kernels under the profiler.
BACKENDS = (nn.ArrayBackend(), obs.ProfilingBackend())


def _vit(depth=2, embed_dim=16, heads=2, head_dim=4, mlp_hidden=21,
         image_size=8, seed=0) -> VisionTransformer:
    cfg = ViTConfig(image_size=image_size, patch_size=4, num_classes=3,
                    depth=depth, embed_dim=embed_dim, num_heads=heads,
                    attn_dim=heads * head_dim, mlp_hidden=mlp_hidden)
    return VisionTransformer(cfg, rng=np.random.default_rng(seed))


def _images(model, batch, seed=1) -> np.ndarray:
    size = model.config.image_size
    return np.random.default_rng(seed).normal(
        size=(batch, 3, size, size)).astype(np.float32)


def _dequantized_twin(model, qmodel) -> VisionTransformer:
    """An fp32 copy of ``model`` holding ``qmodel``'s int8 weights widened
    back — the autograd-capable reference for a quantized forward."""
    qstate = qmodel.state_dict()
    state = {}
    for name, value in model.state_dict().items():
        if name + "_q8" in qstate:
            value = nn.dequantize_array(qstate[name + "_q8"],
                                        qstate[name + "_scale"])
        state[name] = value
    twin = copy.deepcopy(model)
    twin.load_state_dict(state)
    return twin


# ----------------------------------------------------------------------
# Part 1: the flat path equals the autograd forward.
@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 3), heads=st.integers(1, 4),
       head_dim=st.integers(1, 4), embed_dim=st.integers(6, 14),
       mlp_hidden=st.sampled_from([3, 5, 9, 13]), batch=st.integers(1, 5),
       image_size=st.sampled_from([8, 12]),
       backend=st.sampled_from(BACKENDS),
       quantized=st.booleans())
def test_flat_path_equals_autograd_forward(depth, heads, head_dim, embed_dim,
                                           mlp_hidden, batch, image_size,
                                           backend, quantized):
    model = _vit(depth, embed_dim, heads, head_dim, mlp_hidden, image_size)
    model.eval()
    served = model
    if quantized:
        served = nn.quantize_module(copy.deepcopy(model))
        model = _dequantized_twin(model, served)
    x = nn.Tensor(_images(model, batch))

    reference = model.forward_features(x)
    assert reference.requires_grad              # a graph was built
    tokens = model._embed(x)
    block_reference = model.blocks[0](tokens)

    with nn.use_backend(backend):
        with nn.no_grad():
            fresh = served.forward_features(x).data
            block_out = served.blocks[0](nn.Tensor(tokens.data)).data
        with nn.inference_mode():
            cold = served.forward_features(x).data.copy()
            warm = served.forward_features(x).data.copy()
    for out in (fresh, cold, warm):
        np.testing.assert_allclose(out, reference.data, **TOL)
    np.testing.assert_allclose(block_out, block_reference.data, **TOL)


def test_block_under_no_grad_leaves_its_input_alone():
    model = _vit()
    tokens = model._embed(nn.Tensor(_images(model, 2))).data
    before = tokens.copy()
    with nn.no_grad():
        out = model.blocks[0](nn.Tensor(tokens)).data
    np.testing.assert_array_equal(tokens, before)
    assert not np.shares_memory(out, tokens)


def test_features_are_fresh_even_under_inference_mode():
    """The arena is scratch only: what ``forward_features`` hands back is
    never a view of it, so a second forward cannot overwrite the first."""
    model = _vit()
    model.eval()
    with nn.inference_mode():
        first = model.forward_features(nn.Tensor(_images(model, 2, seed=1)))
        kept = first.data.copy()
        model.forward_features(nn.Tensor(_images(model, 2, seed=2)))
    np.testing.assert_array_equal(first.data, kept)


# ----------------------------------------------------------------------
# Part 2: weights are never stale, bytes never move.
def _serve(model, x, backend="numpy") -> np.ndarray:
    with nn.use_backend(backend):
        return extract_features(model, x, keep_workspaces=True)


def _autograd_features(model, x) -> np.ndarray:
    return model.forward_features(nn.Tensor(x)).data


@pytest.mark.parametrize("backend", BACKENDS, ids=("numpy", "profiled"))
class TestServedWeightsAreNeverStale:
    def test_load_state_dict(self, backend):
        model, other = _vit(seed=0), _vit(seed=5)
        x = _images(model, 3)
        _serve(model, x, backend)
        model.load_state_dict(other.state_dict())
        np.testing.assert_allclose(_serve(model, x, backend),
                                   _autograd_features(other, x), **TOL)

    def test_optimizer_step(self, backend):
        model = _vit()
        x = _images(model, 3)
        before = _serve(model, x, backend)
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        model.train()
        loss = nn.cross_entropy(model(nn.Tensor(x)), np.array([0, 1, 2]))
        loss.backward()
        optimizer.step()
        after = _serve(model, x, backend)
        assert np.abs(after - before).max() > 1e-3      # the step moved it
        np.testing.assert_allclose(after, _autograd_features(model, x),
                                   **TOL)

    def test_in_place_weight_edit(self, backend):
        """Importance scoring zeroes weight slices in place and restores
        them (``pruning.importance._zeroed``): both must be served."""
        model = _vit()
        x = _images(model, 3)
        before = _serve(model, x, backend)
        weight = model.blocks[0].mlp.fc1.weight
        saved = weight.data[:7].copy()
        weight.data[:7] = 0.0
        zeroed = _serve(model, x, backend)
        assert np.abs(zeroed - before).max() > 1e-4
        np.testing.assert_allclose(zeroed, _autograd_features(model, x),
                                   **TOL)
        weight.data[:7] = saved
        np.testing.assert_allclose(_serve(model, x, backend), before, **TOL)

    def test_pruning_surgery(self, backend):
        model = _vit()
        x = _images(model, 3)
        _serve(model, x, backend)
        keep = [np.arange(0, 21, 2)] * model.config.depth
        pruned = prune_ffn_hidden(model, keep)
        np.testing.assert_allclose(_serve(pruned, x, backend),
                                   _autograd_features(pruned, x), **TOL)

    def test_quantize_module(self, backend):
        model = _vit()
        x = _images(model, 3)
        _serve(model, x, backend)
        served = nn.quantize_module(model)          # in-place surgery
        twin = _dequantized_twin(_vit(), served)    # same seed, unserved
        np.testing.assert_allclose(_serve(served, x, backend),
                                   _autograd_features(twin, x), **TOL)


def _npy_members(blob: bytes) -> dict[str, bytes]:
    """The ``.npy`` payloads of an ``.npz`` blob (headers carry the
    ``fortran_order`` flag; zip timestamps are left out)."""
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


@pytest.mark.parametrize("quantized", [False, True])
def test_serving_a_model_does_not_move_its_bytes(tmp_path, quantized):
    model = _vit()
    if quantized:
        model = nn.quantize_module(model)
    store = ArtifactStore(tmp_path / "store")
    config = model.config.to_dict()
    digests = [recipe_digest({"served": flag}) for flag in (False, True)]

    blob = nn.state_dict_to_bytes(model.state_dict())
    store.put(digests[0], model, config=config, kind="vit")
    for backend in BACKENDS:
        _serve(model, _images(model, 2), backend)
    qkv = model.blocks[0].attn.qkv
    assert qkv.kmajor_weight().flags.f_contiguous        # it was rebound
    store.put(digests[1], model, config=config, kind="vit")

    assert _npy_members(nn.state_dict_to_bytes(model.state_dict())) \
        == _npy_members(blob)
    before, after = (_npy_members(store.object_path(d).read_bytes())
                     for d in digests)
    assert after == before
    assert all(v.flags.c_contiguous for v in model.state_dict().values())


def test_serving_shape_arena_after_batch_8_stays_under_4_mib():
    """The sub-model the e2e ``compute_bound`` fleet serves (32 px / patch
    4 / depth 6 / dim 192) keeps one scratch arena: 3.54 MiB after a
    batch-8 forward, with the MLP's hidden layer in the ``qkv`` tag's
    storage (4.68 MiB when the two had a tag each).  The bound leaves
    13 % over the measurement."""
    model = _vit(depth=6, embed_dim=192, heads=6, head_dim=32,
                 mlp_hidden=768, image_size=32)
    model.eval()
    extract_features(model, _images(model, 8), keep_workspaces=True)
    arena = sum(m.workspace.nbytes() for m in model.modules()
                if "_workspace" in m.__dict__)
    assert arena <= 4 << 20, f"{arena / 2**20:.2f} MiB"


def _arena(model) -> int:
    return sum(m.workspace.nbytes() for m in model.modules()
               if "_workspace" in m.__dict__)


def _serving_shape() -> VisionTransformer:
    model = _vit(depth=6, embed_dim=192, heads=6, head_dim=32,
                 mlp_hidden=768, image_size=32)
    model.eval()
    return model


def test_serving_shape_arena_after_batch_64_stays_under_arena_bytes():
    """A one-shot 64-image pass runs as passes of 18 images (0.44 MiB
    each): 7.96 MiB of arena where the whole batch at once held 28.31."""
    model = _serving_shape()
    extract_features(model, _images(model, 64), keep_workspaces=True)
    arena = _arena(model)
    assert arena <= ARENA_BYTES, f"{arena / 2**20:.2f} MiB"
    # The largest served batch (16 images) is still a single pass.
    model.clear_workspaces()
    extract_features(model, _images(model, 16), keep_workspaces=True)
    assert _arena(model) == 16 * model._arena_bytes_per_image(np.float32)


@pytest.mark.parametrize("batch", [8, 16])
def test_a_first_forward_allocates_its_scratch_once(batch):
    """A pass takes its arena as one block at its final size: the first
    forward of the serving shape peaks at its ``n * per_image`` plus the
    GELU chunk and the result.  With a buffer per tag, ``qkv`` and
    ``branch`` were asked for smaller first and grown mid-forward: +1.8
    MiB at batch 8 and +3.3 MiB at batch 16 above the arena."""
    model = _serving_shape()
    x = nn.Tensor(_images(model, batch))
    per_image = model._arena_bytes_per_image(np.float32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with nn.inference_mode():
            model.forward_features(x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert _arena(model) == batch * per_image
    excess = peak - batch * per_image
    assert excess <= 512 << 10, f"{excess / 2**20:.2f} MiB over the arena"


def test_the_arena_is_the_pass_times_the_per_image_table():
    """Resident scratch is ``min(batch, pass) * per_image`` after every
    forward, and the per-image size is the sum of the seven tags'."""
    model = _serving_shape()
    table = model._arena_table()
    assert list(table) == ["fields", "tokens", "branch", "qkv", "query",
                           "scores", "context"]
    per_image = model._arena_bytes_per_image(np.float32)
    assert per_image == 4 * sum(table.values())
    step = ARENA_BYTES // per_image
    for batch in (1, 8, 16, 64):
        extract_features(model, _images(model, batch), keep_workspaces=True)
        assert _arena(model) == min(batch, step) * per_image, batch


def test_passes_equal_the_unsplit_schedule(monkeypatch):
    model = _serving_shape()
    x = _images(model, 64)
    split = extract_features(model, x)
    split_labels = predict(model, x).argmax(axis=-1)
    monkeypatch.setattr(vit, "ARENA_BYTES", 1 << 40)       # one pass
    whole = extract_features(model, x)
    np.testing.assert_allclose(split, whole, rtol=1e-5, atol=1e-6)
    np.testing.assert_array_equal(split_labels,
                                  predict(model, x).argmax(axis=-1))


def test_one_image_passes_equal_the_autograd_forward(monkeypatch):
    """The smallest pass: every image alone."""
    model = _vit(depth=3)
    model.eval()
    x = _images(model, 5)
    reference = model.forward_features(nn.Tensor(x)).data
    monkeypatch.setattr(vit, "ARENA_BYTES", 1)
    with nn.inference_mode():
        served = model.forward_features(nn.Tensor(x)).data
    np.testing.assert_allclose(served, reference, **TOL)


def test_vit_base_arena_is_one_image_at_a_time():
    """ViT-Base/16 at 224 px needs 6.39 MiB of arena per image, so a
    batch of 2 runs as two passes.  Depth 2 is the shallowest config
    whose first block runs for every token, so it asks for the whole
    per-image arena while its weights stay near 60 MB."""
    config = dataclasses.replace(vit_base_config(num_classes=10), depth=2)
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    model.eval()
    per_image = model._arena_bytes_per_image(np.float32)
    assert round(per_image / 2**20, 2) == 6.39
    extract_features(model, _images(model, 2), keep_workspaces=True)
    assert _arena(model) == per_image <= ARENA_BYTES


def test_kmajor_rebind_happens_at_eval_not_on_a_request():
    model = _vit()
    qkv = model.blocks[0].attn.qkv
    assert not qkv.weight.data.flags.f_contiguous
    values = qkv.weight.data.copy()
    model.eval()
    assert qkv.weight.data.flags.f_contiguous
    np.testing.assert_array_equal(qkv.weight.data, values)
    held = qkv.weight.data
    extract_features(model, _images(model, 1))
    assert qkv.weight.data is held              # nothing left to rebind


def test_threads_sharing_one_model_match_the_serial_result():
    """More threads than this host has cores, switching every 10 us, on
    one model: per-thread arenas and a rebind that only ever swaps in an
    equal array mean every result equals the serial one, bit for bit."""
    model = _vit(depth=3)
    model.eval()
    batches = [_images(model, 4, seed=s) for s in (1, 2, 3, 4)]
    serial = [extract_features(model, x) for x in batches]
    results: list = [None] * len(batches)
    start = threading.Barrier(len(batches))

    def worker(index: int) -> None:
        start.wait(timeout=10)
        results[index] = [extract_features(model, batches[index],
                                           keep_workspaces=True)
                          for _ in range(25)]

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for outs, expected in zip(results, serial):
        assert len(outs) == 25
        for out in outs:
            np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Part 3: the schedule stays visible to the kernel profiler.
@pytest.mark.parametrize("quantized", [False, True])
def test_profiler_sees_the_schedules_kernel_calls(quantized):
    depth = 3
    model = _vit(depth=depth)
    if quantized:
        model = nn.quantize_module(model)
    model.eval()
    x = _images(model, 2)
    inner = nn.ArrayBackend()
    registry = obs.get_registry()

    def counts() -> dict[str, int]:
        return {op: registry.histogram(f"kernel.{op}_seconds",
                                       backend=inner.name).count
                for op in obs.PROFILED_KERNELS}

    with nn.use_backend(obs.ProfilingBackend(inner)):
        before = counts()
        extract_features(model, x)
        after = counts()
    calls = {op: after[op] - before[op] for op in obs.PROFILED_KERNELS}
    # qkv, proj, fc1, fc2 per block; the CLS-only tail splits qkv in two.
    gemm = "linear_q8" if quantized else "linear_act"
    expected = dict.fromkeys(obs.PROFILED_KERNELS, 0)
    expected.update({gemm: 4 * depth + 1,
                     "matmul": 2 * depth + 1,       # + the patch GEMM
                     "softmax": depth,
                     "layer_norm": 2 * depth + 1})  # + the final norm
    assert calls == expected
