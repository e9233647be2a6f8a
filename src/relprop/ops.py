"""Dense forward kernels for the residual-CNN layer set.

Tensors are C-order numpy arrays: float32 for activations/weights, with
reductions (conv sums, pooling means, softmax) accumulated in float64 so
downstream relevance audits see tight sums. Images are channel-first C x H x W.
Pool indices are int64 arrays of flat offsets into the *unpadded* pooling
input; ties break toward the lowest flat offset so the backward winner routing
is deterministic.

Every forward kernel works on the trailing axes of its input, so it takes
one input (C x H x W map, D vector) or a stack of N along a leading axis
(N x C x H x W, N x D) through the same lines, and returns one result or a
stack of them. Each image's arithmetic is the single image's: each image
gets its own GEMM of the single-image shape, and reductions run per image
along the same axes. So every row of a stack's result is bit for bit the
kernel's result on that image alone. (One GEMM over all N images' columns
is not: BLAS may pick a different kernel for the wider product.)

Convolution follows the deep-learning convention: cross-correlation with zero
padding (no kernel flip).

Scratch memory is per thread: :func:`workspace` returns the calling thread's
:class:`Workspace`, made on first use and freed with the thread. Convs pad and
unroll their input in it, ``lrp.lrp_conv`` keeps its shares and z there, and
``lrp.lrp_maxpool`` returns its relevance there, so a steady-state run takes
no fresh memory from the allocator (which would hand it back to the OS between
layers and fault it in again). Threads never share a workspace, and nothing a
conv returns (or a forward trace keeps) is a view of one. On the
64ch/8-block/64px toy it holds 9.0 MiB: padded input 0.5, columns 2.25,
shares 2.25, z 2.0, pool 2.0. A forward of a stack pads and unrolls all of it
at once, so the padded and columns buffers keep the size of the largest stack
the thread has forwarded.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "ShapeMismatch",
    "Workspace",
    "workspace",
    "conv2d_forward",
    "maxpool_forward",
    "gap_forward",
    "fc_forward",
    "bn_forward",
    "relu_forward",
    "softmax",
]


class ShapeMismatch(ValueError):
    """An operand dimension is inconsistent with the operation's contract."""


def _as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32))


def _as_item_or_stack(x, rank: int, what: str, shape: str) -> np.ndarray:
    """x as float32, if it is one item of the per-item ``rank`` or a stack of them.
    The rank is checked before :func:`_as_f32`, which lifts a scalar to rank 1."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (rank, rank + 1):
        raise ShapeMismatch(f"{what} input must be {shape} or N x {shape}, got rank {x.ndim}")
    return _as_f32(x)


# Each layer's operand rules, written once: the kernels, ``lrp_conv``, ``lrp_linear``
# and ``validate_graph`` all check with them, so load and kernels word a failure alike.

def check_linear(kind: str, weight: np.ndarray, bias: np.ndarray | None, channels: int,
                 names: tuple[str, str] = ("weight", "bias")) -> int:
    """Check a conv (C_out x C_in x k x k, square) or fc (E x D) weight and its
    bias against the ``channels`` the layer receives; returns its output
    channel count. ``names`` label the two tensors in a message."""
    wname, bname = names
    if kind == "conv" and (weight.ndim != 4 or weight.shape[2] != weight.shape[3]):
        raise ShapeMismatch(f"conv {wname} must be C_out x C_in x k x k, "
                            f"got shape {weight.shape}")
    if kind == "fc" and weight.ndim != 2:
        raise ShapeMismatch(f"fc {wname} must be rank 2, got shape {weight.shape}")
    c_out, c_in = weight.shape[:2]
    if c_in != channels:
        unit = "input channels" if kind == "conv" else "inputs"
        raise ShapeMismatch(f"{kind} expects {c_in} {unit} but receives {channels}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeMismatch(f"{kind} {bname} must have {c_out} entries, "
                            f"got shape {bias.shape}")
    return c_out


def check_bn(channels: int, gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
             var: np.ndarray, eps: float) -> None:
    """Check batch-norm parameters: one entry per channel each, no negative
    variance, and var + eps > 0 in float32 on every channel, which the least
    variance decides, since float32 addition is monotonic."""
    for name, t in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if t.shape != (channels,):
            raise ShapeMismatch(f"bn {name} must have {channels} entries, got shape {t.shape}")
    low = np.float32(var.min(initial=np.inf))
    if low < 0:
        raise ValueError("bn variance must be non-negative")
    if not (eps >= 0 and low + np.float32(eps) > 0):
        raise ValueError("bn requires var + eps > 0")


def check_window(kind: str, k: int, stride: int, padding: int,
                 hw: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Check a conv or max-pool window (k and stride >= 1, padding >= 0, and
    for a max-pool padding < k, or its corner window holds no input cell);
    returns its output extent over each extent in ``hw``, which must be exact."""
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeMismatch(f"invalid {kind} hyperparameters: k={k} stride={stride} "
                            f"padding={padding}")
    if kind == "maxpool" and padding >= k:
        raise ShapeMismatch("maxpool window lies entirely in padding")
    out = ()
    for extent, axis in zip(hw, ("height", "width")):
        span = extent + 2 * padding - k
        if span < 0 or span % stride != 0:
            raise ShapeMismatch(f"non-integral output {axis}: ({extent} + 2*{padding} - {k}) "
                                f"not a non-negative multiple of stride {stride}")
        out += (span // stride + 1,)
    return out


def pad2d(x: np.ndarray, padding: int, fill: float) -> np.ndarray:
    """A (N x) C x H x W map framed by ``padding`` cells of ``fill``; x itself at 0."""
    if padding == 0:
        return x
    h, w = x.shape[-2:]
    out = np.full(x.shape[:-2] + (h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    out[..., padding : padding + h, padding : padding + w] = x
    return out


class Workspace:
    """Float64 scratch: a conv's padded input and its unrolled columns (forward
    and backward), its back-projected shares and z share totals (backward), and
    a max-pool backward's result. Each buffer grows to the largest layer it has
    served and is reused after that; its contents are dead once the call that
    wrote them returns, the pool buffer's once the next max-pool backward runs.
    """

    def __init__(self):
        self._bufs = dict.fromkeys(("padded", "cols", "shares", "z", "pool"), np.empty(0))

    def holds(self, a: np.ndarray) -> bool:
        """Whether ``a`` may share memory with one of these buffers."""
        return any(np.may_share_memory(a, buf) for buf in self._bufs.values())

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of the named buffer with the given shape,
        holding whatever the last user left there."""
        buf, n = self._bufs[name], math.prod(shape)
        if buf.size < n:
            buf = self._bufs[name] = np.empty(n)
        return buf[:n].reshape(shape)

    def padded(self, x: np.ndarray, padding: int) -> np.ndarray:
        """The (N x) C x H x W map x framed by ``padding`` zeros, cast to float64
        in the padded buffer: :func:`pad2d` and the cast in one copy."""
        p = padding
        h, w = x.shape[-2:]
        out = self.buffer("padded", x.shape[:-2] + (h + 2 * p, w + 2 * p))
        if p:  # one fill is cheaper than four frame strips on small maps
            out.fill(0.0)
        out[..., p : p + h, p : p + w] = x
        return out

    def columns(self, x: np.ndarray, k: int, stride: int, padding: int,
                out_h: int, out_w: int) -> np.ndarray:
        """:func:`im2col` of x framed by ``padding`` zeros, in this workspace:
        the padded map goes to the padded buffer and its columns to the
        columns buffer, except a 1x1 stride-1 unroll, a view of the padded
        buffer that leaves the columns buffer as it is."""
        xpad = self.padded(x, padding)
        out = None
        if not _pointwise(k, stride):
            c = xpad.shape[-3]
            out = self.buffer("cols", xpad.shape[:-3] + (c * k * k, out_h * out_w))
        return im2col(xpad, k, stride, out_h, out_w, out=out)


_local = threading.local()


def workspace() -> Workspace:
    """The calling thread's conv workspace, made on first use."""
    try:
        return _local.work
    except AttributeError:
        _local.work = Workspace()
        return _local.work


def _pointwise(k: int, stride: int) -> bool:
    """Whether a k x k window at this stride unrolls to its input's own layout."""
    return k == 1 and stride == 1


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
    if _pointwise(k, stride):
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
    if _pointwise(k, stride):
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
    x = _as_item_or_stack(x, 3, "conv", "C x H x W")
    weight = _as_f32(weight)
    bias = None if bias is None else _as_f32(bias)
    c_out = check_linear("conv", weight, bias, x.shape[-3])
    k = weight.shape[-1]
    out_h, out_w = check_window("conv", k, stride, padding, x.shape[-2:])

    cols = workspace().columns(x, k, stride, padding, out_h, out_w)
    # One GEMM per image, broadcast over the batch axis by matmul.
    y = weight.reshape(c_out, -1).astype(np.float64) @ cols
    if bias is not None:
        y += bias.astype(np.float64)[:, None]
    return y.reshape(x.shape[:-3] + (c_out, out_h, out_w)).astype(np.float32)


def maxpool_forward(x, k: int, stride: int, padding: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns (pooled map, winner flat-offsets into the input).

    For an N x C x H x W stack the offsets index each image's own C x H x W map.

    Padding cells count as -inf and can never win. A window made entirely of
    padding (``padding >= k``) is an error, and so is one whose input cells
    are all -inf. Ties go to the lowest flat offset, and a NaN in a
    window wins over every number in it.
    """
    x = _as_item_or_stack(x, 3, "maxpool", "C x H x W")
    c, h, w = x.shape[-3:]
    out_h, out_w = check_window("maxpool", k, stride, padding, (h, w))

    # Pooling is per channel, so a stack pools as one map of N*C channels.
    # One strided view per window offset, in flat-offset order.
    xs = x.reshape(-1, h, w)
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
    corner = (np.arange(len(xs), dtype=np.int64)[:, None, None] * (h * w)
              + (np.arange(out_h, dtype=np.int64) * stride - padding)[:, None] * w
              + (np.arange(out_w, dtype=np.int64) * stride - padding))
    indices = corner + np.take(offsets, win)
    # Read the winners back so a tie between -0.0 and +0.0 keeps the winner's sign.
    shape = x.shape[:-2] + (out_h, out_w)
    pooled = np.take(xs, indices).reshape(shape)
    indices %= c * h * w  # offsets into each image's own map, not into the stack
    return pooled, indices.reshape(shape)


def gap_forward(x) -> np.ndarray:
    """Global average pooling: per-channel spatial mean."""
    x = _as_item_or_stack(x, 3, "gap", "C x H x W")
    return x.mean(axis=(-2, -1), dtype=np.float64).astype(np.float32)


def fc_forward(x, weight, bias=None) -> np.ndarray:
    """Affine map: weight (E x D) @ x (D) + bias (E), per row of an N x D x.
    It runs as the 1x1 conv of an E x D x 1 x 1 filter bank on x as a D x 1 x 1
    map, so every row gets the conv's one matrix-vector product."""
    x = _as_item_or_stack(x, 1, "fc", "D")
    weight = _as_f32(weight)
    bias = None if bias is None else _as_f32(bias)
    check_linear("fc", weight, bias, x.shape[-1])
    return conv2d_forward(x[..., None, None], weight[:, :, None, None], bias)[..., 0, 0]


def bn_forward(x, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """Per-channel batch-norm transform (x - mean) / sqrt(var + eps) * gamma + beta."""
    x = _as_item_or_stack(x, 3, "bn", "C x H x W")
    gamma, beta, mean, var = (_as_f32(t) for t in (gamma, beta, mean, var))
    check_bn(x.shape[-3], gamma, beta, mean, var, eps)
    scale = (gamma / np.sqrt(var + np.float32(eps)))[:, None, None]
    y = x - mean[:, None, None]
    y *= scale
    y += beta[:, None, None]
    return y


def relu_forward(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(_as_f32(x), np.float32(0))


def softmax(x) -> np.ndarray:
    """Max-stabilized softmax over a logit vector, or over each row of N x E logits."""
    z = _as_item_or_stack(x, 1, "softmax", "E").astype(np.float64)
    z = np.exp(z - z.max(axis=-1, keepdims=True))
    return (z / z.sum(axis=-1, keepdims=True)).astype(np.float32)
