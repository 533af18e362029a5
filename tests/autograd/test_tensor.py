"""Tensor basics: construction, tape plumbing, backward mechanics."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.errors import AutogradError, ShapeError


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_from_numpy_shares_memory(self):
        arr = np.zeros((2, 2))
        t = Tensor.from_numpy(arr)
        arr[0, 0] = 5.0
        assert t.data[0, 0] == 5.0

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert float(Tensor.ones(2, 2).data.sum()) == 4.0

    def test_item_scalar(self):
        assert Tensor([[3.5]]).item() == 3.5

    def test_item_non_scalar_raises(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b.data[0] == 2.0

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.backward()
        assert np.allclose(x.grad, [5.0])  # 2x + 1 at x=2

    def test_backward_accumulates_across_calls_to_same_leaf(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 3.0
        y.backward()
        first = x.grad.copy()
        y.clear_tape_grads()
        y.backward()
        assert np.allclose(x.grad, first)

    def test_backward_without_grad_flag_raises(self):
        x = Tensor([1.0])
        with pytest.raises(AutogradError):
            x.backward()

    def test_backward_seed_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ShapeError):
            y.backward(np.ones(3))

    def test_diamond_graph_gradient(self):
        # y = a*b + a: gradient wrt a must sum both paths.
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        y = a * b + a
        y.backward()
        assert np.allclose(a.grad, [5.0])
        assert np.allclose(b.grad, [3.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        s = x * x
        y = s + s
        y.backward()
        assert np.allclose(x.grad, [8.0])

    def test_custom_seed(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 0.0]))
        assert np.allclose(x.grad, [2.0, 0.0])

    def test_clear_tape_grads_zeroes_everything(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        y.backward()
        assert x.grad is not None
        y.clear_tape_grads()
        assert x.grad is None and y.grad is None

    def test_tape_nodes_collects_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0 + x
        nodes = y.tape_nodes()
        assert any(node is x for node in nodes)


class TestGradOwnership:
    """Leaves own private gradient copies; intermediates own (and may
    share) the arrays their consumers produced, never mutated in place."""

    def test_leaf_grad_is_a_private_copy(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        h = a + b  # add hands one gradient array to both operands
        y = h * 3.0
        y.backward()
        a.grad *= 2.0  # in place, as gradient clipping does
        assert np.array_equal(a.grad, [6.0, 6.0])
        assert np.array_equal(b.grad, [3.0, 3.0])
        assert np.array_equal(h.grad, [3.0, 3.0])
        assert np.array_equal(y.grad, [1.0, 1.0])

    def test_mutating_the_seed_changes_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([5.0, 7.0], requires_grad=True)
        y = x * w
        seed = np.array([1.0, -1.0])
        y.backward(seed)
        seed[...] = 100.0
        assert np.array_equal(x.grad, [5.0, -7.0])
        assert np.array_equal(w.grad, [1.0, -2.0])
        assert np.array_equal(y.grad, [1.0, -1.0])

    def test_intermediate_owns_its_consumers_array(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 2.0
        y = h + 1.0
        y.backward()
        assert h.grad is y.grad  # add's gradient, not a copy
        assert x.grad is not h.grad

    def test_non_contiguous_grad_is_stored_contiguous(self):
        x = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
        h = x * 2.0
        h.sum(axis=(2, 3)).backward()  # a broadcast view reaches h
        assert h.grad.flags.c_contiguous
        assert np.array_equal(x.grad, np.full((2, 3, 4, 4), 2.0))


class TestNoGrad:
    def test_no_grad_disables_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_requires_grad_flag_ignored_inside_no_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestOperatorSugar:
    def test_add_scalar_broadcast(self):
        t = Tensor([1.0, 2.0]) + 1.0
        assert np.allclose(t.data, [2.0, 3.0])

    def test_radd(self):
        t = 1.0 + Tensor([1.0])
        assert np.allclose(t.data, [2.0])

    def test_sub_rsub(self):
        assert np.allclose((Tensor([3.0]) - 1.0).data, [2.0])
        assert np.allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_div(self):
        assert np.allclose((Tensor([6.0]) / 2.0).data, [3.0])
        assert np.allclose((6.0 / Tensor([2.0])).data, [3.0])

    def test_pow(self):
        assert np.allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0], [2.0]])
        assert np.allclose((a @ b).data, [[1.0], [2.0]])

    def test_getitem(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert np.allclose(t[1:].data, [2.0, 3.0])

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((2, 3)).transpose().shape == (3, 2)

    def test_sum_mean_axes(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum().item() == 6.0
        assert t.mean(axis=0).shape == (3,)
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)
