"""Loop reference implementations of the conv-path primitives.

These are the straightforward K×K-loop versions of im2col, col2im and
average pooling, plus eval-mode BatchNorm as a chain of tape ops.  The
library's vectorised versions must reproduce them bit for bit (same
values, same dtype), forward and backward; ``test_conv_oracles.py`` and
``tests/engine/test_kernels.py`` hold them to it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import Tensor, functional as F


def out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int,
           padding: int) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NCHW ``x`` into (N, C*K*K, OH*OW) columns, one window
    offset at a time."""
    n, c, h, w = x.shape
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ki in range(kernel):
        i_end = ki + stride * oh
        for kj in range(kernel):
            j_end = kj + stride * ow
            cols[:, :, ki, kj, :, :] = x[:, :, ki:i_end:stride, kj:j_end:stride]
    return cols.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kernel: int, stride: int, padding: int) -> np.ndarray:
    """Fold columns back onto the (padded) input, summing overlaps."""
    n, c, h, w = x_shape
    oh = out_size(h, kernel, stride, padding)
    ow = out_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ki in range(kernel):
        i_end = ki + stride * oh
        for kj in range(kernel):
            j_end = kj + stride * ow
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols[:, :, ki, kj, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def avg_pool2d(x: np.ndarray, grad: np.ndarray, kernel: int, stride: int,
               padding: int) -> Tuple[np.ndarray, np.ndarray]:
    """(output, input gradient for output gradient ``grad``): the mean
    over im2col columns, and its backward by ``np.repeat`` + col2im."""
    n, c, h, w = x.shape
    cols, (oh, ow) = im2col(x.reshape(n * c, 1, h, w), kernel, stride, padding)
    out = cols.mean(axis=1).reshape(n, c, oh, ow)
    grad_cols = np.repeat(grad.reshape(n * c, 1, oh * ow) / (kernel * kernel),
                          kernel * kernel, axis=1)
    folded = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, padding)
    return out, folded.reshape(n, c, h, w)


def conv2d(x: np.ndarray, weight: np.ndarray, grad: np.ndarray, stride: int,
           padding: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(output, input gradient, weight gradient) of a bias-free conv
    built on the loop im2col/col2im, with the library's matmul calls."""
    n = x.shape[0]
    c_out, c_in, kernel, _ = weight.shape
    cols, (oh, ow) = im2col(x, kernel, stride, padding)
    w_mat = weight.reshape(c_out, c_in * kernel * kernel)
    out = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    grad_mat = grad.reshape(n, c_out, oh * ow)
    grad_w = np.tensordot(grad_mat, cols, axes=([0, 2], [0, 2]))
    grad_x = col2im(np.matmul(w_mat.T, grad_mat), x.shape, kernel, stride,
                    padding)
    return out, grad_x, grad_w.reshape(weight.shape)


def batch_norm_eval_chain(x: Tensor, running_mean: np.ndarray,
                          running_var: np.ndarray, eps: float,
                          weight: Tensor = None, bias: Tensor = None) -> Tensor:
    """Eval-mode BatchNorm as the four-op tape chain
    ``(x - mean) * ((var + eps) ** -0.5) * scale + shift``."""
    mean = Tensor(running_mean.reshape(1, -1, 1, 1))
    var = Tensor(running_var.reshape(1, -1, 1, 1))
    normalised = (x - mean) * ((var + eps) ** -0.5)
    if weight is None:
        return normalised
    scale = F.reshape(weight, (1, -1, 1, 1))
    shift = F.reshape(bias, (1, -1, 1, 1))
    return normalised * scale + shift
