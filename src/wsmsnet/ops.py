"""Differentiable array operations: convolution, pooling, activations, loss.

All forward math runs in the dtype of the inputs; outputs never get cast.
Convolution is cross-correlation (no kernel flip) over NCHW tensors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, push, recording


def _wrap(arr: np.ndarray) -> Tensor:
    return Tensor(arr, dtype=arr.dtype)


def _require_4d(x: Tensor, op: str) -> None:
    if x.ndim != 4:
        raise ValueError(f"{op}: expected a 4-d NCHW tensor, got shape {x.shape}")


def _require_even_spatial(x: Tensor, op: str) -> None:
    _require_4d(x, op)
    h, w = x.shape[2], x.shape[3]
    if h % 2 or w % 2:
        raise ValueError(f"{op}: spatial extents must be even, got {h}x{w}")


# Bytes of im2col columns lowered at a time. conv2d lowers and multiplies one
# block of examples while the block's columns are still in cache (L2 holds 1-2
# MiB per core on current x86 parts); the whole batch's columns would be
# streamed back from memory.
COLUMN_BLOCK_BYTES = 1 << 20


def _lowered(x: np.ndarray, block: int, kh: int, kw: int, stride: int, padding: int,
             oh: int, ow: int):
    """im2col of ``x`` (n, C, H, W) one block of examples at a time.

    Yields ``(start, columns)`` with ``columns`` (b, C*kh*kw, OH*OW) the block
    of examples from ``start``; every block is lowered into the same buffer, so
    each must be used before the next is drawn. With padding, each block is
    first copied into the interior of a buffer whose border is zero and never
    written.
    """
    n, c, h, w = x.shape
    cols = np.empty((block, c * kh * kw, oh * ow), dtype=x.dtype)
    padded = (np.zeros((block, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
              if padding else None)
    for s in range(0, n, block):
        src = x[s:s + block]
        b = len(src)
        if padding:
            padded[:b, :, padding:padding + h, padding:padding + w] = src
            src = padded[:b]
        c6 = cols[:b].reshape(b, c, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                c6[:, :, i, j] = src[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
        yield s, cols[:b]


def _tap_range(offset: int, padding: int, stride: int, out: int, size: int):
    """(input slice, output slice) of one kernel tap along one axis: the output
    positions whose input cell lies inside the image, not in the padding."""
    first = max(0, -((offset - padding) // stride))
    count = max(0, min(out, -((offset - padding - size) // stride)) - first)
    start = offset - padding + stride * first
    return slice(start, start + stride * count, stride), slice(first, first + count)


def _from_columns(dcols: np.ndarray, dx: np.ndarray, kh: int, kw: int, stride: int,
                  padding: int, oh: int, ow: int) -> None:
    """col2im of one block: sum ``dcols`` (b, C*kh*kw, OH*OW) into zeroed ``dx``
    (b, C, H, W), tap by tap; the parts of each tap that fall on padding are
    dropped."""
    b, c, h, w = dx.shape
    d6 = dcols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        rows, orows = _tap_range(i, padding, stride, oh, h)
        for j in range(kw):
            cols, ocols = _tap_range(j, padding, stride, ow, w)
            dx[:, :, rows, cols] += d6[:, :, i, j, orows, ocols]


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate NCHW input with an (out, in, kh, kw) weight.

    The input is lowered to im2col columns one block of examples at a time
    (``COLUMN_BLOCK_BYTES``), and each block is multiplied at once. Every
    example makes the same GEMM calls, and every sum runs in the same order,
    as lowering the whole batch at once, so results do not depend on the block
    size. No call keeps more than one block of columns: backward lowers each
    block again from the input.
    """
    _require_4d(x, "conv2d")
    if weight.ndim != 4:
        raise ValueError(f"conv2d: expected 4-d weight, got shape {weight.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input has {cin} channels but weight expects {cin_w}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv2d: output extent {oh}x{ow} not positive for input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}")
    k, p = cin * kh * kw, oh * ow
    dtype = x.dtype
    block = max(1, min(n, COLUMN_BLOCK_BYTES // (k * p * dtype.itemsize)))
    w2 = weight.data.reshape(cout, k)
    out_data = np.empty((n, cout, p), dtype=np.result_type(w2, dtype))
    for s, cb in _lowered(x.data, block, kh, kw, stride, padding, oh, ow):
        np.matmul(w2, cb, out=out_data[s:s + block])
    out = _wrap(out_data.reshape(n, cout, oh, ow))
    if recording(x, weight):
        def bwd(g):
            g2 = g.reshape(n, cout, p)
            # Per-example weight gradients are added in batch order onto
            # zeros, which is how .sum(axis=0) reduces a stacked product.
            dw = np.zeros((cout, k), dtype=np.result_type(g2, dtype))
            part = np.empty((block, cout, k), dtype=dw.dtype)
            dx = None
            if x.requires_grad:
                dx = np.zeros((n, cin, h, w), dtype=np.result_type(w2, g2))
                dcols = np.empty((block, k, p), dtype=dx.dtype)
            for s, cb in _lowered(x.data, block, kh, kw, stride, padding, oh, ow):
                gb = g2[s:s + block]
                m = len(gb)
                np.matmul(gb, cb.transpose(0, 2, 1), out=part[:m])
                for row in part[:m]:
                    dw += row
                if dx is None:
                    continue
                np.matmul(w2.T, gb, out=dcols[:m])
                _from_columns(dcols[:m], dx[s:s + m], kh, kw, stride, padding, oh, ow)
            return dx, dw.reshape(weight.shape)
        push((x, weight), out, bwd)
    return out


def avg_pool_half(x: Tensor) -> Tensor:
    """Mean over non-overlapping 2x2 windows; halves both spatial extents."""
    _require_even_spatial(x, "avg_pool_half")
    n, c, h, w = x.shape
    out = _wrap(x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5)))
    if recording(x):
        def bwd(g):
            return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)
        push((x,), out, bwd)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean, keeping singleton H and W axes."""
    _require_4d(x, "global_avg_pool")
    n, c, h, w = x.shape
    out = _wrap(x.data.mean(axis=(2, 3), keepdims=True))
    if recording(x):
        def bwd(g):
            return (np.broadcast_to(g, (n, c, h, w)) * (1.0 / (h * w)),)
        push((x,), out, bwd)
    return out


def relu(x: Tensor) -> Tensor:
    out = _wrap(np.maximum(x.data, 0))
    if recording(x):
        kept = out.data  # positive exactly where x is, so x itself need not stay
        def bwd(g):
            return (g * (kept > 0),)  # gradient at exactly 0 is 0
        push((x,), out, bwd)
    return out


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.shape != y.shape:
        raise ValueError(f"add: shapes {x.shape} and {y.shape} differ")
    out = _wrap(x.data + y.data)
    if recording(x, y):
        def bwd(g):
            return (g, g)
        push((x, y), out, bwd)
    return out


def mul(x: Tensor, y: Tensor) -> Tensor:
    if x.shape != y.shape:
        raise ValueError(f"mul: shapes {x.shape} and {y.shape} differ")
    out = _wrap(x.data * y.data)
    if recording(x, y):
        xd, yd = x.data, y.data
        def bwd(g):
            return (g * yd, g * xd)
        push((x, y), out, bwd)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    out = _wrap(x.data * x.dtype.type(factor))
    if recording(x):
        def bwd(g):
            return (g * g.dtype.type(factor),)
        push((x,), out, bwd)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _wrap(x.data.sum())
    if recording(x):
        shape = x.shape
        def bwd(g):
            return (np.broadcast_to(g, shape).copy(),)
        push((x,), out, bwd)
    return out


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = _wrap(x.data.reshape(shape))
    if recording(x):
        in_shape = x.shape
        def bwd(g):
            return (g.reshape(in_shape),)
        push((x,), out, bwd)
    return out


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate NCHW tensors along the channel axis, in the given order."""
    if not tensors:
        raise ValueError("concat_channels: need at least one tensor")
    first = tensors[0]
    for t in tensors:
        _require_4d(t, "concat_channels")
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ValueError(
                f"concat_channels: shape {t.shape} does not align with {first.shape} "
                "outside the channel axis")
    out = _wrap(np.concatenate([t.data for t in tensors], axis=1))
    if recording(*tensors):
        splits = np.cumsum([t.shape[1] for t in tensors])[:-1]
        def bwd(g):
            return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))
        push(tuple(tensors), out, bwd)
    return out


def subsample2(x: Tensor) -> Tensor:
    """Keep every second row and column (stride-2 identity shortcut path)."""
    _require_4d(x, "subsample2")
    out = _wrap(np.ascontiguousarray(x.data[:, :, ::2, ::2]))
    if recording(x):
        shape = x.shape
        def bwd(g):
            dx = np.zeros(shape, dtype=g.dtype)
            dx[:, :, ::2, ::2] = g
            return (dx,)
        push((x,), out, bwd)
    return out


def pad_channels(x: Tensor, channels: int) -> Tensor:
    """Zero-pad the channel axis up to ``channels`` (parameter-free shortcut)."""
    _require_4d(x, "pad_channels")
    n, c, h, w = x.shape
    if channels < c:
        raise ValueError(f"pad_channels: target {channels} is below current {c} channels")
    if channels == c:
        return x
    out_data = np.zeros((n, channels, h, w), dtype=x.dtype)
    out_data[:, :c] = x.data
    out = _wrap(out_data)
    if recording(x):
        def bwd(g):
            return (np.ascontiguousarray(g[:, :c]),)
        push((x,), out, bwd)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of (N, D) input with (K, D) weight and (K,) bias."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ValueError(f"linear: expected 2-d input and weight, got {x.shape} and {weight.shape}")
    n, d = x.shape
    k, dw = weight.shape
    if d != dw:
        raise ValueError(f"linear: input feature size {d} != weight feature size {dw}")
    if bias.shape != (k,):
        raise ValueError(f"linear: bias shape {bias.shape} does not match {k} outputs")
    out_data = x.data @ weight.data.T
    out_data += bias.data
    out = _wrap(out_data)
    if recording(x, weight, bias):
        def bwd(g):
            dx = g @ weight.data
            dw_ = g.T @ x.data
            db = g.sum(axis=0)
            return dx, dw_, db
        push((x, weight, bias), out, bwd)
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray, *,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over an NCHW tensor.

    Train mode normalizes with biased batch statistics and folds them into the
    running buffers in place; eval mode applies the running statistics.
    """
    _require_4d(x, "batch_norm")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"batch_norm: input has {c} channels, parameters have "
            f"{gamma.shape[0]} and {beta.shape[0]}")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ValueError(f"batch_norm: running buffers do not match {c} channels")
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        # a copy: backward normalizes with it again, after later training-mode
        # calls may have moved the running buffers
        mean = running_mean.copy()
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)

    def normalized():
        return (x.data - mean[None, :, None, None]) * inv[None, :, None, None]

    out = _wrap(gamma.data[None, :, None, None] * normalized() + beta.data[None, :, None, None])
    if recording(x, gamma, beta):
        if training:
            def bwd(g):
                m = n * h * w
                xhat = normalized()
                dbeta = g.sum(axis=(0, 2, 3))
                dgamma = (g * xhat).sum(axis=(0, 2, 3))
                coeff = (gamma.data * inv)[None, :, None, None]
                dx = coeff * (g - dbeta[None, :, None, None] / m
                              - xhat * dgamma[None, :, None, None] / m)
                return dx, dgamma, dbeta
        else:
            def bwd(g):
                dbeta = g.sum(axis=(0, 2, 3))
                dgamma = (g * normalized()).sum(axis=(0, 2, 3))
                dx = g * (gamma.data * inv)[None, :, None, None]
                return dx, dgamma, dbeta
        push((x, gamma, beta), out, bwd)
    return out


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of (N, K) logits against integer labels."""
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: expected 2-d logits, got shape {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    out = _wrap(np.asarray(-logp[rows, labels].mean(), dtype=logits.dtype))
    if recording(logits):
        def bwd(g):
            dlogits = np.exp(logp)
            dlogits[rows, labels] -= 1.0
            dlogits *= g[()] / n
            return (dlogits,)
        push((logits,), out, bwd)
    return out
