"""Dense forward kernels for the residual-CNN layer set.

Tensors are C-order numpy arrays: float32 for activations/weights, with
reductions (conv sums, pooling means, softmax) accumulated in float64 so
downstream relevance audits see tight sums. Images are channel-first C x H x W.
Pool indices are int64 arrays of flat offsets into the *unpadded* pooling
input; ties break toward the lowest flat offset so the backward winner routing
is deterministic.

Every forward kernel also takes a stack of N inputs along a leading batch
axis (N x C x H x W maps, N x D vectors) and returns a stack. A single input
runs as a batch of one, and each image's arithmetic is the single image's:
each image gets its own GEMM of the single-image shape, and reductions run
per image along the same axes. So every row of a batched result is bit for
bit the kernel's result on that image alone. (One GEMM over all N images'
columns is not: BLAS may pick a different kernel for the wider product.)

Convolution follows the deep-learning convention: cross-correlation with zero
padding (no kernel flip).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ShapeMismatch",
    "conv2d_forward",
    "maxpool_forward",
    "gap_forward",
    "fc_forward",
    "bn_forward",
    "relu_forward",
    "softmax",
    "conv_output_extent",
]


class ShapeMismatch(ValueError):
    """An operand dimension is inconsistent with the operation's contract."""


def _as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32))


def _as_batch(x, rank: int, what: str, shape: str) -> tuple[np.ndarray, bool]:
    """x as a float32 stack with a leading batch axis, and whether x came with
    one. An input of the per-item ``rank`` becomes a batch of one."""
    x = _as_f32(x)
    if x.ndim == rank:
        return x[None], False
    if x.ndim == rank + 1:
        return x, True
    raise ShapeMismatch(f"{what} input must be {shape} or N x {shape}, got rank {x.ndim}")


def conv_output_extent(extent: int, k: int, stride: int, padding: int, axis: str) -> int:
    """Output extent of a conv/pool window sweep; the division must be exact."""
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeMismatch(
            f"invalid window hyperparameters on {axis}: k={k} stride={stride} padding={padding}"
        )
    span = extent + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ShapeMismatch(
            f"non-integral output {axis}: ({extent} + 2*{padding} - {k}) not a "
            f"non-negative multiple of stride {stride}"
        )
    return span // stride + 1


def pad2d(x: np.ndarray, padding: int, fill: float) -> np.ndarray:
    """A (N x) C x H x W map framed by ``padding`` cells of ``fill``; x itself at 0."""
    if padding == 0:
        return x
    h, w = x.shape[-2:]
    out = np.full(x.shape[:-2] + (h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    out[..., padding : padding + h, padding : padding + w] = x
    return out


def im2col(xpad: np.ndarray, k: int, stride: int, out_h: int, out_w: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unroll k x k receptive fields of a padded (N x) C x Hp x Wp map into columns.

    Returns a (N x) (C*k*k, out_h*out_w) array whose row order matches a
    (C_out, C*k*k) reshape of conv weights. With ``out`` (a C-contiguous array
    of that shape) the columns are copied into it and it is returned. A 1x1
    stride-1 unroll is ``xpad`` itself, reshaped: ``out`` is then left unused.
    """
    lead, c = xpad.shape[:-3], xpad.shape[-3]
    shape = lead + (c * k * k, out_h * out_w)
    if k == 1 and stride == 1:
        return xpad.reshape(shape)
    win = sliding_window_view(xpad, (k, k), axis=(-2, -1))
    win = np.moveaxis(win[..., ::stride, ::stride, :, :], (-2, -1), (-4, -3))
    if out is None:
        return win.reshape(shape)
    if out.shape != shape or not out.flags.c_contiguous:
        raise ShapeMismatch(f"im2col out must be C-contiguous with shape "
                            f"{shape}, got {out.shape}")
    np.copyto(out.reshape(lead + (c, k, k, out_h, out_w)), win)
    return out


def col2im_add(cols: np.ndarray, shape: tuple[int, int, int], k: int, stride: int,
               padding: int) -> np.ndarray:
    """Scatter-add column contributions back onto the unpadded input grid.

    Inverse layout of :func:`im2col`; contributions landing on padding cells
    are cropped away. The result is a fresh array, and every zero in it is
    +0.0: the sums start from +0.0.
    """
    c, h, w = shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if k == 1 and stride == 1:
        return cols.reshape(c, hp, wp)[:, padding : padding + h, padding : padding + w] + 0.0
    out_h = (hp - k) // stride + 1
    out_w = (wp - k) // stride + 1
    acc = np.zeros((c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(c, k, k, out_h, out_w)
    for di in range(k):
        for dj in range(k):
            acc[:, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride] += (
                patches[:, di, dj]
            )
    return acc[:, padding : padding + h, padding : padding + w]


def conv2d_forward(x, weight, bias=None, stride: int = 1, padding: int = 0) -> np.ndarray:
    """2-D cross-correlation of a (N x) C_in x H x W map with C_out x C_in x k x k filters."""
    xb, batched = _as_batch(x, 3, "conv", "C x H x W")
    weight = _as_f32(weight)
    if weight.ndim != 4:
        raise ShapeMismatch(f"conv weight must be C_out x C_in x k x k, got rank {weight.ndim}")
    c_out, c_in, kh, kw = weight.shape
    if kh != kw:
        raise ShapeMismatch(f"conv kernel must be square, got {kh} x {kw}")
    n, c, h, w = xb.shape
    if c_in != c:
        raise ShapeMismatch(
            f"conv weight expects {c_in} input channels, input has {c}"
        )
    out_h = conv_output_extent(h, kh, stride, padding, "height")
    out_w = conv_output_extent(w, kw, stride, padding, "width")

    cols = im2col(pad2d(xb, padding, 0.0).astype(np.float64), kh, stride, out_h, out_w)
    # One GEMM per image, broadcast over the batch axis by matmul.
    y = weight.reshape(c_out, -1).astype(np.float64) @ cols
    if bias is not None:
        bias = _as_f32(bias)
        if bias.shape != (c_out,):
            raise ShapeMismatch(
                f"conv bias must have {c_out} entries, got shape {bias.shape}"
            )
        y += bias.astype(np.float64)[:, None]
    y = y.reshape(n, c_out, out_h, out_w).astype(np.float32)
    return y if batched else y[0]


def maxpool_forward(x, k: int, stride: int, padding: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns (pooled map, winner flat-offsets into the input).

    For an N x C x H x W stack the offsets index each image's own C x H x W map.

    Padding cells count as -inf and can never win. A window made entirely of
    padding (``padding >= k``) is an error, and so is one whose input cells
    are all -inf. Ties go to the lowest flat offset, and a NaN in a
    window wins over every number in it.
    """
    xb, batched = _as_batch(x, 3, "maxpool", "C x H x W")
    n, c, h, w = xb.shape
    out_h = conv_output_extent(h, k, stride, padding, "height")
    out_w = conv_output_extent(w, k, stride, padding, "width")
    if padding >= k:  # then the first window holds no input cell
        raise ValueError("maxpool window lies entirely in padding")

    # Pooling is per channel, so the stack pools as one map of N*C channels.
    # One strided view per window offset, in flat-offset order.
    xs = xb.reshape(n * c, h, w)
    xpad = pad2d(xs, padding, np.float32(-np.inf))
    views = [xpad[:, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride]
             for di in range(k) for dj in range(k)]
    best = views[0].copy()
    for v in views[1:]:
        np.maximum(best, v, out=best)
    if np.isneginf(best).any():
        raise ValueError("maxpool window holds only -inf values")

    # The winner is the first view that attains the max (or holds a NaN, which
    # np.maximum propagates). Branch-free: masked writes are slower here.
    nan = bool(np.isnan(best).any())

    def attains(v: np.ndarray) -> np.ndarray:
        return (v == best) | np.isnan(v) if nan else v == best

    wdt = np.min_scalar_type(k * k - 1)
    win = np.zeros(best.shape, dtype=wdt)
    found = attains(views[0])
    for i in range(1, k * k):
        hit = attains(views[i])
        win += (hit > found) * wdt.type(i)     # hit here, in no earlier view
        found |= hit

    offsets = (np.arange(k, dtype=np.int64)[:, None] * w + np.arange(k)).ravel()
    corner = (np.arange(n * c, dtype=np.int64)[:, None, None] * (h * w)
              + (np.arange(out_h, dtype=np.int64) * stride - padding)[:, None] * w
              + (np.arange(out_w, dtype=np.int64) * stride - padding))
    indices = corner + np.take(offsets, win)
    # Read the winners back so a tie between -0.0 and +0.0 keeps the winner's sign.
    pooled = np.take(xs, indices).reshape(n, c, out_h, out_w)
    # Offsets into each image's own map, not into the stack.
    indices = indices.reshape(n, c, out_h, out_w)
    indices -= (np.arange(n, dtype=np.int64) * (c * h * w))[:, None, None, None]
    return (pooled, indices) if batched else (pooled[0], indices[0])


def gap_forward(x) -> np.ndarray:
    """Global average pooling: per-channel spatial mean."""
    xb, batched = _as_batch(x, 3, "gap", "C x H x W")
    y = xb.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)
    return y if batched else y[0]


def fc_forward(x, weight, bias=None) -> np.ndarray:
    """Affine map: weight (E x D) @ x (D) + bias (E), per row of an N x D x.
    It runs as the 1x1 conv of an E x D x 1 x 1 filter bank on x as a D x 1 x 1
    map, so every row gets the conv's one matrix-vector product."""
    xb, batched = _as_batch(x, 1, "fc", "D")
    weight = _as_f32(weight)
    if weight.ndim != 2:
        raise ShapeMismatch(f"fc weight must be rank 2, got rank {weight.ndim}")
    e, d = weight.shape
    if d != xb.shape[1]:
        raise ShapeMismatch(f"fc weight expects {d} inputs, input has {xb.shape[1]}")
    if bias is not None and np.shape(bias) != (e,):
        raise ShapeMismatch(f"fc bias must have {e} entries, got shape {np.shape(bias)}")
    y = conv2d_forward(xb[:, :, None, None], weight[:, :, None, None], bias)[:, :, 0, 0]
    return y if batched else y[0]


def bn_forward(x, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """Per-channel batch-norm transform (x - mean) / sqrt(var + eps) * gamma + beta."""
    xb, batched = _as_batch(x, 3, "bn", "C x H x W")
    gamma, beta, mean, var = (_as_f32(t) for t in (gamma, beta, mean, var))
    c = xb.shape[1]
    for name, t in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if t.shape != (c,):
            raise ShapeMismatch(f"bn {name} must have {c} entries, got shape {t.shape}")
    if (var < 0).any():
        raise ValueError("bn variance must be non-negative")
    if eps < 0 or not np.all(var + np.float32(eps) > 0):
        raise ValueError("bn requires var + eps > 0")
    scale = (gamma / np.sqrt(var + np.float32(eps)))[:, None, None]
    y = (xb - mean[:, None, None]) * scale + beta[:, None, None]
    return y if batched else y[0]


def relu_forward(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(_as_f32(x), np.float32(0))


def softmax(x) -> np.ndarray:
    """Max-stabilized softmax over a logit vector, or over each row of N x E logits."""
    xb, batched = _as_batch(x, 1, "softmax", "E")
    z = xb.astype(np.float64)
    z = np.exp(z - z.max(axis=1, keepdims=True))
    y = (z / z.sum(axis=1, keepdims=True)).astype(np.float32)
    return y if batched else y[0]
