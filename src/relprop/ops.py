"""Dense forward kernels for the residual-CNN layer set.

Tensors are C-order numpy arrays: float32 for activations/weights, with
reductions (conv sums, pooling means, softmax) accumulated in float64 so
downstream relevance audits see tight sums. Images are channel-first C x H x W.
Pool indices are int64 arrays of flat offsets into the *unpadded* pooling
input; ties break toward the lowest flat offset so the backward winner routing
is deterministic.

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


def is_pointwise(k: int, stride: int, padding: int) -> bool:
    """A 1x1, stride-1, unpadded conv: a plain GEMM on the C x (H*W) map."""
    return k == 1 and stride == 1 and padding == 0


def pad2d(x: np.ndarray, padding: int, fill: float) -> np.ndarray:
    """A C x H x W map framed by ``padding`` cells of ``fill``; x itself at 0."""
    if padding == 0:
        return x
    c, h, w = x.shape
    out = np.full((c, h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    out[:, padding : padding + h, padding : padding + w] = x
    return out


def im2col(xpad: np.ndarray, k: int, stride: int, out_h: int, out_w: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unroll k x k receptive fields of a padded C x Hp x Wp map into columns.

    Returns a (C*k*k, out_h*out_w) array whose row order matches a
    (C_out, C*k*k) reshape of conv weights. With ``out`` (a C-contiguous array
    of that shape) the columns are copied into it and it is returned.
    """
    c = xpad.shape[0]
    win = sliding_window_view(xpad, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 3, 4, 1, 2)
    if out is None:
        return win.reshape(c * k * k, out_h * out_w)
    if out.shape != (c * k * k, out_h * out_w) or not out.flags.c_contiguous:
        raise ShapeMismatch(f"im2col out must be C-contiguous with shape "
                            f"{(c * k * k, out_h * out_w)}, got {out.shape}")
    np.copyto(out.reshape(c, k, k, out_h, out_w), win)
    return out


def col2im_add(cols: np.ndarray, shape: tuple[int, int, int], k: int, stride: int,
               padding: int) -> np.ndarray:
    """Scatter-add column contributions back onto the unpadded input grid.

    Inverse layout of :func:`im2col`; contributions landing on padding cells
    are cropped away.
    """
    c, h, w = shape
    hp, wp = h + 2 * padding, w + 2 * padding
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
    """2-D cross-correlation of a C_in x H x W map with C_out x C_in x k x k filters."""
    x = _as_f32(x)
    weight = _as_f32(weight)
    if x.ndim != 3:
        raise ShapeMismatch(f"conv input must be C x H x W, got rank {x.ndim}")
    if weight.ndim != 4:
        raise ShapeMismatch(f"conv weight must be C_out x C_in x k x k, got rank {weight.ndim}")
    c_out, c_in, kh, kw = weight.shape
    if kh != kw:
        raise ShapeMismatch(f"conv kernel must be square, got {kh} x {kw}")
    if c_in != x.shape[0]:
        raise ShapeMismatch(
            f"conv weight expects {c_in} input channels, input has {x.shape[0]}"
        )
    out_h = conv_output_extent(x.shape[1], kh, stride, padding, "height")
    out_w = conv_output_extent(x.shape[2], kw, stride, padding, "width")

    if is_pointwise(kh, stride, padding):
        cols = x.reshape(c_in, -1).astype(np.float64)
    else:
        cols = im2col(pad2d(x, padding, 0.0).astype(np.float64), kh, stride, out_h, out_w)
    y = weight.reshape(c_out, -1).astype(np.float64) @ cols
    if bias is not None:
        bias = _as_f32(bias)
        if bias.shape != (c_out,):
            raise ShapeMismatch(
                f"conv bias must have {c_out} entries, got shape {bias.shape}"
            )
        y += bias.astype(np.float64)[:, None]
    return y.reshape(c_out, out_h, out_w).astype(np.float32)


def maxpool_forward(x, k: int, stride: int, padding: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns (pooled map, winner flat-offsets into the input).

    Padding cells count as -inf and can never win; a window made entirely of
    padding is an error. Ties go to the lowest flat offset, and a NaN in a
    window wins over every number in it.
    """
    x = _as_f32(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"maxpool input must be C x H x W, got rank {x.ndim}")
    c, h, w = x.shape
    out_h = conv_output_extent(h, k, stride, padding, "height")
    out_w = conv_output_extent(w, k, stride, padding, "width")

    # One strided view per window offset, in flat-offset order.
    xpad = pad2d(x, padding, np.float32(-np.inf))
    views = [xpad[:, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride]
             for di in range(k) for dj in range(k)]
    best = views[0].copy()
    for v in views[1:]:
        np.maximum(best, v, out=best)
    if np.isneginf(best).any():
        raise ValueError("maxpool window lies entirely in padding")

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
    corner = (np.arange(c, dtype=np.int64)[:, None, None] * (h * w)
              + (np.arange(out_h, dtype=np.int64) * stride - padding)[:, None] * w
              + (np.arange(out_w, dtype=np.int64) * stride - padding))
    indices = corner + np.take(offsets, win)
    # Read the winners back so a tie between -0.0 and +0.0 keeps the winner's sign.
    return np.take(x, indices), indices


def gap_forward(x) -> np.ndarray:
    """Global average pooling: per-channel spatial mean."""
    x = _as_f32(x)
    if x.ndim != 3:
        raise ShapeMismatch(f"gap input must be C x H x W, got rank {x.ndim}")
    return x.mean(axis=(1, 2), dtype=np.float64).astype(np.float32)


def fc_forward(x, weight, bias=None) -> np.ndarray:
    """Affine map: weight (E x D) @ x (D) + bias (E)."""
    x = _as_f32(x)
    weight = _as_f32(weight)
    if x.ndim != 1:
        raise ShapeMismatch(f"fc input must be rank 1, got rank {x.ndim}")
    if weight.ndim != 2:
        raise ShapeMismatch(f"fc weight must be rank 2, got rank {weight.ndim}")
    e, d = weight.shape
    if d != x.shape[0]:
        raise ShapeMismatch(f"fc weight expects {d} inputs, input has {x.shape[0]}")
    y = weight.astype(np.float64) @ x.astype(np.float64)
    if bias is not None:
        bias = _as_f32(bias)
        if bias.shape != (e,):
            raise ShapeMismatch(f"fc bias must have {e} entries, got shape {bias.shape}")
        y += bias.astype(np.float64)
    return y.astype(np.float32)


def bn_forward(x, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """Per-channel batch-norm transform (x - mean) / sqrt(var + eps) * gamma + beta."""
    x = _as_f32(x)
    gamma, beta, mean, var = (_as_f32(t) for t in (gamma, beta, mean, var))
    if x.ndim != 3:
        raise ShapeMismatch(f"bn input must be C x H x W, got rank {x.ndim}")
    c = x.shape[0]
    for name, t in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if t.shape != (c,):
            raise ShapeMismatch(f"bn {name} must have {c} entries, got shape {t.shape}")
    if (var < 0).any():
        raise ValueError("bn variance must be non-negative")
    if eps < 0 or not np.all(var + np.float32(eps) > 0):
        raise ValueError("bn requires var + eps > 0")
    scale = (gamma / np.sqrt(var + np.float32(eps)))[:, None, None]
    return (x - mean[:, None, None]) * scale + beta[:, None, None]


def relu_forward(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(_as_f32(x), np.float32(0))


def softmax(x) -> np.ndarray:
    """Max-stabilized softmax over a rank-1 logit vector."""
    x = _as_f32(x)
    if x.ndim != 1:
        raise ShapeMismatch(f"softmax input must be rank 1, got rank {x.ndim}")
    z = x.astype(np.float64)
    z = np.exp(z - z.max())
    return (z / z.sum()).astype(np.float32)
