"""Unit tests for the autograd Tensor: forward semantics and graph behavior."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, as_tensor, concat, stack, where


class TestConstruction:
    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_float64_input_downcast(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float32

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))

    def test_rejects_tensor_input(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        assert as_tensor(2.0).item() == pytest.approx(2.0)


class TestArithmetic:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_add_scalar_broadcast(self):
        out = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).data, [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])

    def test_rtruediv(self):
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_matmul_batched(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 2, 3)).astype(np.float32))
        b = Tensor(np.random.default_rng(1).normal(size=(5, 3, 4)).astype(np.float32))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data, rtol=1e-5)

    def test_comparisons_return_numpy(self):
        out = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [False, True])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum().item() == pytest.approx(6.0)
        assert t.sum(axis=0).shape == (3,)
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_allclose(Tensor(x).mean(axis=1).data,
                                   x.mean(axis=1), rtol=1e-5)

    def test_var_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_allclose(Tensor(x).var(axis=-1).data,
                                   x.var(axis=-1), rtol=1e-4)

    def test_max(self):
        x = np.array([[1.0, 5.0], [2.0, 0.0]], dtype=np.float32)
        np.testing.assert_allclose(Tensor(x).max(axis=1).data, [5.0, 2.0])

    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(6, dtype=np.float32))
        assert t.reshape(2, 3).reshape(-1).shape == (6,)

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)

    def test_transpose_axes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose(1, 0, 2).shape == (3, 2, 4)

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(0, 2).shape == (4, 3, 2)

    def test_T_on_matrix(self):
        t = Tensor(np.zeros((2, 5)))
        assert t.T.shape == (5, 2)

    def test_getitem_slice(self):
        t = Tensor(np.arange(10, dtype=np.float32))
        np.testing.assert_allclose(t[2:5].data, [2.0, 3.0, 4.0])

    def test_getitem_fancy(self):
        t = Tensor(np.arange(10, dtype=np.float32))
        np.testing.assert_allclose(t[np.array([1, 1, 3])].data, [1.0, 1.0, 3.0])

    def test_pad(self):
        t = Tensor(np.ones((2, 2)))
        out = t.pad(((1, 1), (0, 0)))
        assert out.shape == (4, 2)
        assert out.data[0, 0] == 0.0


class TestCombinators:
    def test_concat(self):
        out = concat([Tensor(np.ones((2, 2))), Tensor(np.zeros((3, 2)))], axis=0)
        assert out.shape == (5, 2)

    def test_stack(self):
        out = stack([Tensor(np.ones(3)), Tensor(np.zeros(3))])
        assert out.shape == (2, 3)

    def test_where(self):
        cond = np.array([True, False])
        out = where(cond, Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])


class TestAutogradGraph:
    def test_backward_accumulates_leaf_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_backward_twice_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).sum().backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        assert not x.detach().requires_grad

    def test_diamond_graph_gradient(self):
        # y = x*x + x*x should give dy/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        h = x * 3.0
        (h + h).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_broadcast_add_gradient_shapes(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_grad_not_tracked_for_intermediates(self):
        x = Tensor([1.0], requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        assert h.grad is None  # only leaves accumulate
