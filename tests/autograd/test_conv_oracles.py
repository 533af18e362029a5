"""The vectorised conv-path primitives equal their loop oracles bit for bit.

``np.array_equal`` (not a tolerance): the unfold, fold, pooling and
eval-mode BatchNorm rewrites reorder no floating-point arithmetic, so any
difference at all is a bug.
"""

import itertools

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, precision
from tests.autograd import oracles

pytestmark = pytest.mark.precision

DTYPES = (np.float32, np.float64)
GEOMETRIES = list(itertools.product((1, 2, 3), (1, 2), (0, 1)))
SIZES = ((5, 5), (7, 7))


def _data(shape, dtype, seed):
    values = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    values[..., 0, 0] = -0.0  # exercise zero handling (±0 compare equal)
    return values


def _same(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
class TestUnfoldFold:
    def test_im2col(self, kernel, stride, padding, size, dtype):
        x = _data((2, 3) + size, dtype, 0)
        cols, out_hw = F._im2col(x, kernel, stride, padding)
        ref, ref_hw = oracles.im2col(x, kernel, stride, padding)
        assert out_hw == ref_hw
        _same(cols, ref)

    def test_col2im(self, kernel, stride, padding, size, dtype):
        x_shape = (2, 3) + size
        oh, ow = (oracles.out_size(s, kernel, stride, padding) for s in size)
        cols = _data((2, 3 * kernel * kernel, oh * ow), dtype, 1)
        _same(F._col2im(cols, x_shape, kernel, stride, padding),
              oracles.col2im(cols, x_shape, kernel, stride, padding))

    def test_conv2d_forward_and_backward(self, kernel, stride, padding, size,
                                         dtype):
        x = _data((2, 3) + size, dtype, 2)
        weight = _data((4, 3, kernel, kernel), dtype, 3)
        with precision(np.dtype(dtype).name):
            tx = Tensor(x, requires_grad=True)
            tw = Tensor(weight, requires_grad=True)
            out = F.conv2d(tx, tw, stride=stride, padding=padding)
            grad = _data(out.shape, dtype, 4)
            out.backward(grad)
        ref_out, ref_gx, ref_gw = oracles.conv2d(x, weight, grad, stride,
                                                 padding)
        _same(out.data, ref_out)
        _same(tx.grad, ref_gx)
        _same(tw.grad, ref_gw)

    def test_avg_pool2d_forward_and_backward(self, kernel, stride, padding,
                                             size, dtype):
        x = _data((2, 3) + size, dtype, 5)
        with precision(np.dtype(dtype).name):
            tx = Tensor(x, requires_grad=True)
            out = F.avg_pool2d(tx, kernel, stride=stride, padding=padding)
            grad = _data(out.shape, dtype, 6)
            out.backward(grad)
        ref_out, ref_grad = oracles.avg_pool2d(x, grad, kernel, stride, padding)
        _same(out.data, ref_out)
        _same(tx.grad, ref_grad)


class TestPointwiseView:
    def test_unfold_is_a_view_of_the_input(self):
        x = _data((2, 3, 5, 5), np.float64, 7)
        cols, out_hw = F._im2col(x, 1, 1, 0)
        assert out_hw == (5, 5)
        assert np.shares_memory(cols, x)
        _same(cols, oracles.im2col(x, 1, 1, 0)[0])

    def test_non_contiguous_input_is_copied_contiguous(self):
        x = _data((2, 5, 5, 3), np.float64, 8).transpose(0, 3, 1, 2)
        cols, _ = F._im2col(x, 1, 1, 0)
        assert cols.flags.c_contiguous
        _same(cols, oracles.im2col(x, 1, 1, 0)[0])

    def test_fold_is_a_view_of_the_columns(self):
        cols = _data((2, 3, 25), np.float64, 9)
        folded = F._col2im(cols, (2, 3, 5, 5), 1, 1, 0)
        assert np.shares_memory(folded, cols)
        assert np.array_equal(folded, oracles.col2im(cols, (2, 3, 5, 5),
                                                     1, 1, 0))

    def test_strided_or_padded_one_by_one_still_copies(self):
        x = _data((2, 3, 5, 5), np.float64, 10)
        for stride, padding in ((2, 0), (1, 1)):
            cols, _ = F._im2col(x, 1, stride, padding)
            assert not np.shares_memory(cols, x)
            _same(cols, oracles.im2col(x, 1, stride, padding)[0])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kernel,stride,padding", ((3, 1, 1), (2, 2, 0)))
def test_cell_avg_pool_shapes(kernel, stride, padding, dtype):
    """The cell's avg_pool_3x3 and the reduction block's 2×2/s2 pool at a
    paper-scale feature map."""
    x = _data((4, 16, 16, 16), dtype, 11)
    with precision(np.dtype(dtype).name):
        tx = Tensor(x, requires_grad=True)
        out = F.avg_pool2d(tx, kernel, stride=stride, padding=padding)
        grad = _data(out.shape, dtype, 12)
        out.backward(grad)
    ref_out, ref_grad = oracles.avg_pool2d(x, grad, kernel, stride, padding)
    _same(out.data, ref_out)
    _same(tx.grad, ref_grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("affine", (True, False))
@pytest.mark.parametrize("param_grads", (True, False))
def test_batch_norm_eval_matches_op_chain(dtype, affine, param_grads):
    """One tape node, the same forward and x/weight/bias gradients as the
    four-op chain (``param_grads`` is the reference NTK mode's case)."""
    channels = 5
    rng = np.random.default_rng(13)
    x = _data((3, channels, 7, 7), dtype, 14)
    running_mean = rng.normal(size=channels).astype(dtype)
    running_var = rng.uniform(0.1, 2.0, size=channels).astype(dtype)
    weight = rng.normal(size=channels).astype(dtype)
    bias = rng.normal(size=channels).astype(dtype)
    results = []
    with precision(np.dtype(dtype).name):
        grad = _data(x.shape, dtype, 15)
        for op in (F.batch_norm_eval, oracles.batch_norm_eval_chain):
            tx = Tensor(x, requires_grad=True)
            params = ((Tensor(weight, requires_grad=param_grads),
                       Tensor(bias, requires_grad=param_grads))
                      if affine else ())
            out = op(tx, running_mean, running_var, 1e-5, *params)
            out.backward(grad)
            results.append((out, tx, params))
    (out, tx, params), (ref_out, ref_tx, ref_params) = results
    assert out._parents[0] is tx  # one node, straight onto the input
    _same(out.data, ref_out.data)
    _same(tx.grad, ref_tx.grad)
    for param, ref_param in zip(params, ref_params):
        if param_grads:
            _same(param.grad, ref_param.grad)
        else:
            assert param.grad is None and ref_param.grad is None


def test_batch_norm_layer_eval_is_one_node():
    from repro.nn.layers.norm import BatchNorm2d

    bn = BatchNorm2d(4)
    bn.train(False)
    x = Tensor(_data((2, 4, 3, 3), np.float64, 16), requires_grad=True)
    out = bn(x)
    assert len(out.tape_nodes()) == 4  # output, x, weight, bias
    bn.train(True)
    assert len(bn(x).tape_nodes()) > 4  # training keeps the op chain
