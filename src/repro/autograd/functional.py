"""Differentiable operations on :class:`~repro.autograd.tensor.Tensor`.

Each function computes the forward result eagerly with NumPy and attaches a
backward closure to the output.  Convolution and pooling use im2col/col2im
so that the NTK proxy's many backward passes stay fast.

Every op is dtype-preserving: forwards compute with NumPy (which keeps the
operand dtype), outputs are wrapped by :class:`Tensor` (which allocates in
the active precision policy's compute dtype — a no-op when operands already
match it), and backward closures accumulate into each parent's own dtype.
Under ``precision("float32")`` the whole tape — im2col buffers, BLAS
matmuls, gradient accumulation — therefore runs in float32; the float64
default is bit-identical to the historical hard-coded behaviour.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.precision import default_dtype
from repro.autograd.tensor import Tensor, _as_tensor, _unbroadcast
from repro.errors import ShapeError

Axis = Union[None, int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return out._attach((a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-grad)

    return out._attach((a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * b.data)
        if b.requires_grad:
            b._accumulate(grad * a.data)

    return out._attach((a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / b.data)
        if b.requires_grad:
            b._accumulate(-grad * a.data / (b.data**2))

    return out._attach((a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    out = Tensor(a.data**exponent)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return out._attach((a,), backward)


def exp(a: Tensor) -> Tensor:
    value = np.exp(a.data)
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * value)

    return out._attach((a,), backward)


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / a.data)

    return out._attach((a,), backward)


def sqrt(a: Tensor) -> Tensor:
    return power(a, 0.5)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    mask = a.data >= b.data
    out = Tensor(np.where(mask, a.data, b.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)
        if b.requires_grad:
            b._accumulate(grad * ~mask)

    return out._attach((a, b), backward)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    out = Tensor(a.data * mask)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return out._attach((a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * value * (1.0 - value))

    return out._attach((a,), backward)


def tanh(a: Tensor) -> Tensor:
    value = np.tanh(a.data)
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - value**2))

    return out._attach((a,), backward)


# ----------------------------------------------------------------------
# Reductions and shape ops
# ----------------------------------------------------------------------
def sum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % a.data.ndim for ax in axes)
            g = np.expand_dims(g, axis=tuple(sorted(axes)))
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return out._attach((a,), backward)


def mean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    if axis is None:
        denom = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        denom = 1
        for ax in axes:
            denom *= a.data.shape[ax % a.data.ndim]
    return sum(a, axis=axis, keepdims=keepdims) * (1.0 / denom)


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.data.shape))

    return out._attach((a,), backward)


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    out = Tensor(a.data.transpose(axes))

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axes is None:
            a._accumulate(grad.transpose())
        else:
            inverse = np.argsort(axes)
            a._accumulate(grad.transpose(tuple(inverse)))

    return out._attach((a,), backward)


def getitem(a: Tensor, index) -> Tensor:
    out = Tensor(a.data[index])

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return out._attach((a,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return out._attach(tuple(tensors), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)

    return out._attach((a, b), backward)


def _zero_padded(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` with ``padding`` zeros around its last two (spatial) axes."""
    if not padding:
        return x
    h, w = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (h + 2 * padding, w + 2 * padding),
                   dtype=x.dtype)
    out[..., padding:padding + h, padding:padding + w] = x
    return out


def pad2d(a: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return a
    out = Tensor(_zero_padded(a.data, padding))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            slicer = (
                (slice(None),) * (a.data.ndim - 2)
                + (slice(padding, -padding), slice(padding, -padding))
            )
            a._accumulate(grad[slicer])

    return out._attach((a,), backward)


# ----------------------------------------------------------------------
# im2col-based convolution and pooling
# ----------------------------------------------------------------------
def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _is_pointwise(kernel: int, stride: int, padding: int) -> bool:
    """A 1×1/stride-1/unpadded window: its columns are the input itself."""
    return kernel == 1 and stride == 1 and padding == 0


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NCHW ``x`` into columns of shape (N, C*K*K, OH*OW).

    A pointwise window returns ``x`` reshaped (a view when ``x`` is
    C-contiguous); every other window is one contiguous copy of the
    strided sliding-window view of the zero-padded input.
    """
    n, c, h, w = x.shape
    if _is_pointwise(kernel, stride, padding):
        return np.ascontiguousarray(x).reshape(n, c, h * w), (h, w)
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    windows = sliding_window_view(_zero_padded(x, padding), (kernel, kernel),
                                  axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kernel * kernel, oh * ow), (oh, ow)


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back onto the (padded) input, summing overlaps."""
    if _is_pointwise(kernel, stride, padding):
        return cols.reshape(x_shape)
    n, c, h, w = x_shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
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


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of NCHW input with OIHW weights.

    When the call records a tape node, the output's ``_saved`` slot holds
    the im2col columns of ``x`` (which the backward needs anyway), so
    per-sample gradient reconstruction never unfolds the input again.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d expects OIHW weight, got shape {weight.shape}")
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError("only square kernels are supported")
    if c_in != c_in_w:
        raise ShapeError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    kernel = kh
    cols, (oh, ow) = _im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(c_out, c_in * kernel * kernel)
    # Batched BLAS matmul ((o,k) broadcast against (n,k,p)) — measurably
    # faster than the equivalent einsum, which bypasses BLAS.
    out_data = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, c_out, oh * ow)
        if weight.requires_grad:
            grad_w = np.tensordot(grad_mat, cols, axes=([0, 2], [0, 2]))
            weight._accumulate(grad_w.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, grad_mat)
            x._accumulate(_col2im(grad_cols, x.data.shape, kernel, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return out._attach(parents, backward, saved=cols)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW input (count includes padded zeros,
    matching the ``count_include_pad=True`` convention NAS-Bench-201 uses).

    The forward adds the K×K shifted strided windows of the padded input
    in ``(ki, kj)`` order and divides by K² exactly as ``ndarray.mean``
    does: bit for bit the mean over im2col columns, which reduces
    sequentially over its non-inner window axis, without unfolding.  The
    backward adds ``grad / K²`` back through the same windows in the same
    order.
    """
    if stride is None:
        stride = kernel
    _, _, h, w = x.shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    padded = _zero_padded(x.data, padding)
    padded_shape = padded.shape

    def window(buffer: np.ndarray, ki: int, kj: int) -> np.ndarray:
        return buffer[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]

    offsets = [(ki, kj) for ki in range(kernel) for kj in range(kernel)]
    out_data = window(padded, *offsets[0]).copy()
    for ki, kj in offsets[1:]:
        out_data += window(padded, ki, kj)
    np.true_divide(out_data, np.intp(kernel * kernel), out=out_data,
                   casting="unsafe")
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        share = grad / (kernel * kernel)
        grad_padded = np.zeros(padded_shape, dtype=share.dtype)
        for ki, kj in offsets:
            target = window(grad_padded, ki, kj)
            target += share
        if padding:
            grad_padded = grad_padded[:, :, padding:-padding, padding:-padding]
        x._accumulate(grad_padded)

    return out._attach((x,), backward)


def batch_norm_eval(
    x: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """Eval-mode batch normalisation of NCHW ``x`` as ONE tape node:
    ``(x − mean) · (var + eps)^−½ · weight + bias`` per channel, with the
    running statistics as constants.

    Forward and every gradient are bit-identical to the tape-op chain
    ``(x - mean) * ((var + eps) ** -0.5) * scale + shift`` (kept as the
    reference in ``tests/autograd/oracles.py``): each step is the same
    NumPy operation in the same order, cast to the active compute dtype
    where that chain's output tensors are.
    """
    dtype = default_dtype()
    channel = (1, -1, 1, 1)
    mean = np.asarray(running_mean.reshape(channel), dtype=dtype)
    var = np.asarray(running_var.reshape(channel), dtype=dtype)
    inv_std = (var + np.asarray(eps, dtype=dtype)) ** -0.5
    # Fresh arrays are updated in place: the same rounding, fewer buffers.
    normalised = np.asarray(x.data - mean, dtype=dtype)
    normalised *= inv_std
    if weight is None:
        out = Tensor(normalised)
        return out._attach((x,), lambda grad: x._accumulate(grad * inv_std))
    scale = np.asarray(weight.data.reshape(channel), dtype=dtype)
    shift = np.asarray(bias.data.reshape(channel), dtype=dtype)
    out_data = normalised * scale
    out_data += shift
    out = Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_x = grad * scale
            grad_x *= inv_std
            x._accumulate(grad_x)
        if weight.requires_grad:
            weight._accumulate(
                _unbroadcast(grad * normalised, scale.shape).reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, shift.shape).reshape(bias.shape))

    return out._attach((x, weight, bias), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims of NCHW input, returning (N, C)."""
    return mean(x, axis=(2, 3))


def max_reduce(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    """Maximum along an axis; gradient flows to the (first) argmax entries."""
    data = a.data.max(axis=axis, keepdims=keepdims)
    out = Tensor(data)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            mask = a.data == a.data.max()
            # Split gradient across ties to keep the total derivative bounded.
            a._accumulate(grad * mask / mask.sum())
            return
        expanded = data if keepdims else np.expand_dims(data, axis=axis)
        g = grad if keepdims else np.expand_dims(grad, axis=axis)
        mask = a.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)
        a._accumulate(g * mask / counts)

    return out._attach((a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = Tensor(value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            softmax = np.exp(value)
            a._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return out._attach((a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (via the stable log-softmax)."""
    return exp(log_softmax(a, axis=axis))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (N, C) logits against integer labels."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    n = logits.shape[0]
    picked = getitem(log_probs, (np.arange(n), labels))
    return neg(mean(picked))
