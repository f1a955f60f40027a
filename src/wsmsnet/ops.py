"""Differentiable array operations: convolution, pooling, activations, loss.

All forward math runs in the dtype of the inputs; outputs never get cast.
Convolution is cross-correlation (no kernel flip) over NCHW tensors.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    each must be used before the next is drawn. For each kernel column ``j``
    the block is first copied once into its own (b, C, H+2p, OW) buffer, holding
    input column ``j - p + stride*o`` at output column ``o`` between zero rows
    and columns; those borders are zeroed once and never written. Tap (i, j)
    is then rows ``i, i+stride, ...`` of buffer ``j``, so one read-only strided
    view of the buffers, built once per call, holds every tap of the block in
    the columns' (c, i, j) row order, and one copy lowers the block.
    """
    n, c, h, w = x.shape
    cols = np.empty((block, c * kh * kw, oh * ow), dtype=x.dtype)
    shifted = np.zeros((kw, block, c, h + 2 * padding, ow), dtype=x.dtype)
    sj, sb, sc, sr, se = shifted.strides
    taps = np.lib.stride_tricks.as_strided(
        shifted, (block, c, kh, kw, oh, ow), (sb, sc, sr, sj, stride * sr, se), writeable=False)
    c6 = cols.reshape(block, c, kh, kw, oh, ow)
    col_taps = [_tap_range(j, padding, stride, ow, w) for j in range(kw)]
    for s in range(0, n, block):
        src = x[s:s + block]
        b = len(src)
        for j, (in_cols, out_cols) in enumerate(col_taps):
            shifted[j, :b, :, padding:padding + h, out_cols] = src[:, :, :, in_cols]
        c6[:b] = taps[:b]
        yield s, cols[:b]


def _tap_range(offset: int, padding: int, stride: int, out: int, size: int):
    """(input slice, output slice) of one kernel tap along one axis: the output
    positions whose input cell lies inside the image, not in the padding."""
    first = max(0, -((offset - padding) // stride))
    count = max(0, min(out, -((offset - padding - size) // stride)) - first)
    start = offset - padding + stride * first
    return slice(start, start + stride * count, stride), slice(first, first + count)


def _plane_taps(k: int, padding: int, stride: int, grid: int, extent: int):
    """``(tap, shift, phase, zeroed)`` along one axis for each kernel offset
    that reaches a phase plane of extent ``grid``. Output index o of tap
    ``tap`` reads input index ``stride * (o + shift) + phase``, which is index
    ``o + shift`` of plane ``phase``. ``zeroed`` slices the output indices
    whose products must be zeroed before the shifted add: those shifted off
    the plane, which a flat add would carry into the next row or channel, and
    those past the output's ``extent``, from g's zero extension."""
    taps = []
    for tap in range(k):
        shift, phase = divmod(tap - padding, stride)
        if -grid < shift < grid:
            zeroed = (slice(0, max(0, -shift)), slice(min(grid - shift, extent), grid))
            taps.append((tap, shift, phase, [z for z in zeroed if z.start < z.stop]))
    return taps


def _dx_by_taps(weight: np.ndarray, g_dtype: np.dtype, shape: tuple, block: int,
                oh: int, ow: int, stride: int, padding: int):
    """conv2d's input gradient of ``shape``, summed tap by tap (see conv2d).

    Returns ``(dx, add)``: ``add(start, g_block)`` adds to ``dx`` what the
    (b, cout, OH*OW) gradient of the block of examples from ``start`` gives.
    """
    _, cin, h, w = shape
    cout, _, kh, kw = weight.shape
    gh, gw = max(oh, -(-h // stride)), max(ow, -(-w // stride))
    dx = np.empty(shape, dtype=np.result_type(weight, g_dtype))
    plane = cin * gh * gw
    # weight's (cout, C*kh*kw) matrix with its columns in (i, j, c) order: the
    # GEMM keeps the shape and layout of im2col's, and its rows come out tap-major
    w_taps = np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(cout, -1).T
    dcols = np.empty((block, kh * kw, plane), dtype=dx.dtype)
    products = dcols.reshape(block, -1, gh * gw, copy=False)
    planes = np.empty((block, stride * stride, plane), dtype=dx.dtype)
    g_grid = None if (gh, gw) == (oh, ow) else np.zeros((block, cout, gh, gw), dtype=g_dtype)
    taps = []
    for i, shift_h, phase_h, rows in _plane_taps(kh, padding, stride, gh, oh):
        for j, shift_w, phase_w, cols in _plane_taps(kw, padding, stride, gw, ow):
            slab = dcols[:, i * kw + j]
            shift = shift_h * gw + shift_w
            on_grid = slab.reshape(block, cin, gh, gw, copy=False)
            off = [on_grid[:, :, r] for r in rows] + [on_grid[..., c] for c in cols]
            source, target = ((slab[:, :plane - shift], slice(shift, None)) if shift >= 0
                              else (slab[:, -shift:], slice(None, plane + shift)))
            taps.append((off, phase_h * stride + phase_w, target, source))

    def add(start: int, gb: np.ndarray) -> None:
        m = len(gb)
        if g_grid is not None:
            g_grid[:m, :, :oh, :ow] = gb.reshape(m, cout, oh, ow)
            gb = g_grid[:m].reshape(m, cout, gh * gw, copy=False)
        np.matmul(w_taps, gb, out=products[:m])
        sums = planes[:m]
        sums[...] = 0
        for off, phase, target, source in taps:
            for view in off:
                view[:m] = 0
            sums[:, phase, target] += source[:m]
        for phase in range(stride * stride):
            out = dx[start:start + m, :, phase // stride::stride, phase % stride::stride]
            out[...] = sums[:, phase].reshape(m, cin, gh, gw, copy=False)[
                :, :, :out.shape[2], :out.shape[3]]
    return dx, add


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate NCHW input with an (out, in, kh, kw) weight.

    The input is lowered to im2col columns one block of examples at a time
    (``COLUMN_BLOCK_BYTES``), and each block is multiplied at once. Every
    example makes the same GEMM calls, and every sum runs in the same order,
    as lowering the whole batch at once, so results do not depend on the block
    size. No call keeps more than one block of columns: backward lowers each
    block again from the input, which it keeps as the input's ``recompute``
    when the input has one (a ReLU over a batch norm), else as ``x.data``.

    Backward sums dx one kernel tap (i, j) at a time, with no col2im. One
    GEMM per block multiplies g by the weight's (C*kh*kw, cout) transpose with
    its rows in tap-major (i, j, c) order, the shape im2col's order gives, so
    each tap's (C, GH*GW) slab of every example is contiguous. Each slab is
    added into dx as one contiguous run per example, shifted by the tap's
    offset. Input row ``y = stride * r + a`` lies on row r of phase plane a,
    so every tap lands on one of stride x stride phase planes, each on the
    grid GH = max(OH, ceil(H / stride)), GW likewise, with g zero-extended to
    that grid. The planes are summed in a one-block buffer and written into
    dx once per block, cropped to the input; at stride 1 there is one plane,
    and the write is a copy of the block. Before each add,
    the slab entries that the shift moves off the plane (into the next row or
    channel) or that come from g's extension are set to +0.0. That is exact:
    each dx element still receives its taps in (i, j) order, onto +0.0, and
    a sum that starts at +0.0 is never -0.0, so an added +0.0 changes no bit.
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
        recompute, needs_dx = x.recompute, x.requires_grad
        kept = x.data if recompute is None else None
        def bwd(g):
            xd = kept if recompute is None else recompute()
            g2 = g.reshape(n, cout, p)
            # Per-example weight gradients, each cols @ g^T as (k, cout), are
            # added in batch order onto zeros, which is how .sum(axis=0)
            # reduces a stacked product; dw is transposed once at the end.
            dw = np.zeros((k, cout), dtype=np.result_type(g2, dtype))
            part = np.empty((block, k, cout), dtype=dw.dtype)
            dx = add_dx = None
            if needs_dx:
                dx, add_dx = _dx_by_taps(weight.data, g2.dtype, (n, cin, h, w), block, oh, ow,
                                         stride, padding)
            for s, cb in _lowered(xd, block, kh, kw, stride, padding, oh, ow):
                gb = g2[s:s + block]
                m = len(gb)
                np.matmul(cb, gb.transpose(0, 2, 1), out=part[:m])
                for row in part[:m]:
                    dw += row
                if add_dx is not None:
                    add_dx(s, gb)
            return dx, dw.T.reshape(weight.shape)
        push((x, weight), out, bwd)
    return out


def avg_pool_half(x: Tensor) -> Tensor:
    """Mean over non-overlapping 2x2 windows; halves both spatial extents.

    The window sums are strided adds of the four (N, C, H/2, W/2) corner views
    ``a_ij = x[:, :, i::2, j::2]`` in the order in which
    ``x.reshape(n, c, h/2, 2, w/2, 2).mean(axis=(3, 5))`` adds, so the result
    is that mean's bit for bit at about a tenth of its time. numpy starts each
    sum at +0.0, which changes only a sum of -0.0s (into +0.0); one ``+= 0.0``
    where such a partial sum would next meet a value does the same. Where the
    image is two columns wide, a window is four adjacent values, and numpy
    adds them in turn, ``((a00 + a01) + 0.0 + a10) + a11``; otherwise it adds
    the rows' sums, ``((a00 + a01) + (a10 + a11)) + 0.0``. Dividing by 4 is
    ``* 0.25`` exactly. A NaN result may differ from the mean's in sign and
    payload, which numpy's vector loops pick among NaN operands by shape.
    Backward writes ``g * 0.25`` into the four corners of an empty gradient.
    """
    _require_even_spatial(x, "avg_pool_half")
    xd = x.data
    total = np.add(xd[:, :, 0::2, 0::2], xd[:, :, 0::2, 1::2])
    if x.shape[3] == 2:
        total += 0.0
        total += xd[:, :, 1::2, 0::2]
        total += xd[:, :, 1::2, 1::2]
    else:
        total += np.add(xd[:, :, 1::2, 0::2], xd[:, :, 1::2, 1::2])
        total += 0.0
    total *= 0.25
    out = _wrap(total)
    if recording(x):
        shape = x.shape
        def bwd(g):
            quarter = g * 0.25
            dx = np.empty(shape, dtype=quarter.dtype)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                dx[:, :, i::2, j::2] = quarter
            return (dx,)
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


def _unrecorded(op: str, out, *inputs: Tensor) -> None:
    """Refuse ``out=`` on a call that records: backward reads what it would overwrite."""
    if out is not None and recording(*inputs):
        raise RuntimeError(f"{op}: out= is for unrecorded calls only; this call records")


def relu(x: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
    """max(x, 0). Recorded, it keeps its output, whose sign is the mask, unless
    its input can be computed again (a batch norm's output): then it keeps
    only that function and sets its own ``recompute``. That leaves its result
    in a one-slot cell, which backward takes and empties (the conv reading
    this output calls it just before); backward computes the input again only
    when the cell is empty. ``max(v, 0) > 0`` is ``v > 0`` for every v, NaN
    and -0.0 included, so either gives the same mask.

    ``out``, numpy-style, is the array the result is written into, which may
    be ``x.data`` itself; a call that records raises when given one."""
    _unrecorded("relu", out, x)
    out = _wrap(np.maximum(x.data, 0, out=out))
    if recording(x):
        recompute = x.recompute
        if recompute is None:
            kept = out.data  # positive exactly where x is, so x itself need not stay
            def bwd(g):
                return (g * (kept > 0),)  # gradient at exactly 0 is 0
        else:
            cell = []

            def bwd(g):
                data = cell.pop() if cell else recompute()
                return (g * (data > 0),)

            def again():
                data = recompute()
                np.maximum(data, 0, out=data)
                cell[:] = [data]
                return data
            out.recompute = again
        push((x,), out, bwd)
    return out


def add(x: Tensor, y: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
    """x + y, into ``out`` when given (see ``relu``)."""
    if x.shape != y.shape:
        raise ValueError(f"add: shapes {x.shape} and {y.shape} differ")
    _unrecorded("add", out, x, y)
    out = _wrap(np.add(x.data, y.data, out=out))
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


def _per_channel(shape: tuple, *vectors: np.ndarray) -> np.ndarray:
    """The (C,) ``vectors`` spread over one example of an NCHW ``shape``: one
    contiguous (k, 1, C, H, W) array whose row i holds ``vectors[i][c]`` at
    every (h, w) of channel c.

    A pass ``batch op= row`` then broadcasts over N alone, so numpy runs it as
    N contiguous runs of C*H*W elements; a ``v[None, :, None, None]`` operand
    broadcasts over H and W too and ran the same pass 1.2-2.5x slower. Every
    element sees the same operand value, so no bit changes."""
    _, c, h, w = shape
    planes = np.empty((len(vectors), 1, c, h, w), dtype=np.result_type(*vectors))
    for plane, vector in zip(planes, vectors):
        plane[...] = vector[None, :, None, None]
    return planes


def _normalized(x: np.ndarray, mean: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray, out=None) -> np.ndarray:
    """Batch norm's output ``(x - mean) * inv * gamma + beta``, per channel, in
    that order, in place on one buffer (``out`` when given), each pass against
    the operand spread over one example (``_per_channel``). Forward and the
    output's ``recompute`` both call this, so their bits cannot differ."""
    mean, inv, gamma, beta = _per_channel(x.shape, mean, inv, gamma, beta)
    out = np.subtract(x, mean, out=out)
    out *= inv
    out *= gamma
    out += beta
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray, *,
               training: bool, momentum: float = 0.1, eps: float = 1e-5,
               out: Optional[np.ndarray] = None) -> Tensor:
    """Channel-wise batch normalization over an NCHW tensor.

    Train mode normalizes with biased batch statistics and folds them into the
    running buffers in place; eval mode applies the running statistics.

    Every element sees these operations in this association order, with
    ``xhat = (x - mean) * inv``, ``coeff = gamma * inv`` and ``m = N*H*W``::

        var = mean((x - mean)**2)  (train)     inv = 1 / sqrt(var + eps)
        out = gamma * xhat + beta
        dx  = coeff * ((g - dbeta/m) - (xhat*dgamma)/m)  (train), g * coeff  (eval)

    Each pass runs in place on one buffer (train mode squares the centered
    input for ``var``, then centers it again in the same buffer for ``out``),
    exact while no operand has a wider dtype than x, and never writes ``g``
    (``add``'s backward hands one ``g`` to two inputs) or ``x.data`` unless
    ``out`` is it. Every pass against a per-channel operand (mean, inv, gamma,
    beta, coeff, dbeta/m, dgamma) reads it spread over one example
    (``_per_channel``): the operands one step needs share one allocation,
    and each pass runs as N contiguous runs, with the same bits as a
    ``(1, C, 1, 1)`` broadcast.
    Recorded, the output's ``recompute`` computes ``out`` again from ``x``.

    ``out``, numpy-style, is the array the output is written into, which may
    be ``x.data`` itself: the four passes then run in place on it, with the
    same bits. A call that records raises when given one.
    """
    _require_4d(x, "batch_norm")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"batch_norm: input has {c} channels, parameters have "
            f"{gamma.shape[0]} and {beta.shape[0]}")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ValueError(f"batch_norm: running buffers do not match {c} channels")
    _unrecorded("batch_norm", out, x, gamma, beta)
    # eval mode copies the running mean: backward normalizes with it again,
    # after later training-mode calls may have moved the running buffers
    mean = x.data.mean(axis=(0, 2, 3)) if training else running_mean.copy()
    buffer, var = None, running_var
    if training:
        buffer = np.subtract(x.data, _per_channel(x.shape, mean)[0])
        var = np.square(buffer, out=buffer).mean(axis=(0, 2, 3))
        for running, batch in ((running_mean, mean), (running_var, var)):
            running *= (1.0 - momentum)
            running += momentum * batch
    inv = 1.0 / np.sqrt(var + eps)
    out = _wrap(_normalized(x.data, mean, inv, gamma.data, beta.data,
                            buffer if out is None else out))
    if recording(x, gamma, beta):
        xd, gd, bd = x.data, gamma.data, beta.data
        out.recompute = lambda: _normalized(xd, mean, inv, gd, bd)
        def bwd(g):
            centre, spread, coeff = _per_channel(g.shape, mean, inv, gamma.data * inv)
            xhat = np.subtract(x.data, centre)
            xhat *= spread
            dbeta = g.sum(axis=(0, 2, 3))
            dx = g * xhat
            dgamma = dx.sum(axis=(0, 2, 3))
            if not training:
                return np.multiply(g, coeff, out=dx), dgamma, dbeta
            m = n * h * w
            shift, slope = _per_channel(g.shape, dbeta / m, dgamma)
            np.subtract(g, shift, out=dx)
            xhat *= slope
            xhat /= m
            dx -= xhat
            dx *= coeff
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
