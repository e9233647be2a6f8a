"""Independent brute-force oracles the engine is checked against.

Everything here deliberately takes the slow, obvious route: materialize the
full share matrix of each linear projection, normalize its rows, and multiply.
No code is shared with the propagation paths under test.

The kernel references at the end are the engine's earlier implementations of
max pooling (argmax over copied windows) and of the 1x1 conv (through a
general window unroll and scatter-add, which the engine's 1x1 paths skip).
The faster kernels must match them bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view



def share_matrix_lrp(h, weight, r_out, rule="zplus", epsilon=1e-6):
    """Relevance through one linear projection via the dense share matrix.

    Under z+ a zero-sum output row spreads its relevance uniformly over all
    inputs; under epsilon the row sum is stabilized away from zero instead.
    """
    h = np.asarray(h, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    r_out = np.asarray(r_out, dtype=np.float64)
    e, d = weight.shape
    w = np.maximum(weight, 0.0) if rule == "zplus" else weight
    shares = w * h[None, :]          # (E, D): contribution of input i to output j
    norm = np.zeros_like(shares)
    for j in range(e):
        total = shares[j].sum()
        if rule == "zplus":
            if total == 0.0:
                norm[j, :] = 1.0 / d
            else:
                norm[j] = shares[j] / total
        else:
            total = total + epsilon * (1.0 if total >= 0 else -1.0)
            norm[j] = shares[j] / total
    return norm.T @ r_out


def unrolled_conv_matrix(x_shape, weight, stride, padding):
    """The conv as an explicit (C_out*oh*ow) x (C_in*H*W) matrix.

    Padding positions simply have no column, so they are absent from both
    numerators and denominators of any rule applied to this matrix.
    """
    c_in, h, w = x_shape
    c_out, _, k, _ = weight.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    mat = np.zeros((c_out * oh * ow, c_in * h * w), dtype=np.float64)
    for co in range(c_out):
        for oi in range(oh):
            for oj in range(ow):
                row = (co * oh + oi) * ow + oj
                for ci in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            ii = oi * stride - padding + di
                            jj = oj * stride - padding + dj
                            if 0 <= ii < h and 0 <= jj < w:
                                col = (ci * h + ii) * w + jj
                                mat[row, col] = weight[co, ci, di, dj]
    return mat


def maxpool_winner_matrix(x, k, stride, padding=0):
    """0/1 routing matrix of a max pool: one winner column per output row."""
    c, h, w = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    mat = np.zeros((c * oh * ow, c * h * w), dtype=np.float64)
    for ci in range(c):
        for oi in range(oh):
            for oj in range(ow):
                best = None
                best_val = -np.inf
                for di in range(k):
                    for dj in range(k):
                        ii = oi * stride - padding + di
                        jj = oj * stride - padding + dj
                        if 0 <= ii < h and 0 <= jj < w and x[ci, ii, jj] > best_val:
                            best_val = x[ci, ii, jj]
                            best = (ci * h + ii) * w + jj
                mat[(ci * oh + oi) * ow + oj, best] = 1.0
    return mat


def fc_chain_layers(graph):
    """Extract the weight matrices of a 1x1-image fully-connected-style graph.

    Expects a stem of 1x1 convs (with optional relus), no blocks, and a head
    of [gap, fc, softmax]; returns the matrices in forward order.
    """
    mats = []
    for node in graph.stem:
        if node.kind == "conv":
            w = graph.tensors[node.weight]
            mats.append(w.reshape(w.shape[0], w.shape[1]).astype(np.float64))
        elif node.kind != "relu":
            raise AssertionError(f"unexpected stem node {node.kind}")
    assert [n.kind for n in graph.head] == ["gap", "fc", "softmax"]
    mats.append(graph.tensors[graph.head[1].weight].astype(np.float64))
    return mats


def fc_oracle_explain(graph, x0, class_index):
    """Brute-force explanation of a 1x1-image FC-style graph.

    Replays the forward contract (float64 accumulation, float32 storage, relu
    between projections, bias on the final fc) and then propagates the seeded
    class probability back through dense share matrices.
    """
    mats = fc_chain_layers(graph)
    bias = graph.tensors[graph.head[1].bias] if graph.head[1].bias else None

    acts = []  # input of each projection, float32 like the engine caches
    v = np.asarray(x0, dtype=np.float32)
    for i, mat in enumerate(mats):
        acts.append(v)
        y = mat @ v.astype(np.float64)
        if i == len(mats) - 1 and bias is not None:
            y = y + bias.astype(np.float64)
        v = y.astype(np.float32)
        if i < len(mats) - 1:
            v = np.maximum(v, np.float32(0))
    logits = v.astype(np.float64)
    z = np.exp(logits - logits.max())
    probs = (z / z.sum()).astype(np.float32)

    r = np.zeros(len(probs), dtype=np.float64)
    r[class_index] = probs[class_index]
    for mat, h in zip(reversed(mats), reversed(acts)):
        r = share_matrix_lrp(h.astype(np.float64), mat, r, rule="zplus")
    return r, probs


def maxpool_argmax_reference(x, k, stride, padding=0):
    """Max pooling by argmax over a copy of every window; ties to the lowest
    window offset, a NaN wins its window."""
    if padding >= k:
        raise ValueError("maxpool window lies entirely in padding")
    x = np.ascontiguousarray(x, dtype=np.float32)
    c, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    xpad = np.full((c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=np.float32)
    xpad[:, padding:padding + h, padding:padding + w] = x
    win = sliding_window_view(xpad, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    flat_win = win.reshape(c, out_h, out_w, k * k)
    arg = flat_win.argmax(axis=-1)
    out = np.take_along_axis(flat_win, arg[..., None], axis=-1)[..., 0]
    if np.isneginf(out).any():
        raise ValueError("maxpool window holds only -inf values")
    di, dj = arg // k, arg % k
    rows = (np.arange(out_h) * stride - padding)[None, :, None] + di
    cols = (np.arange(out_w) * stride - padding)[None, None, :] + dj
    chan = np.arange(c, dtype=np.int64)[:, None, None]
    indices = chan * (h * w) + rows.astype(np.int64) * w + cols.astype(np.int64)
    return np.ascontiguousarray(out), np.ascontiguousarray(indices)


def _unroll(x, k, stride):
    """k x k windows of an unpadded C x H x W map as (C*k*k, out_h*out_w) columns."""
    c = x.shape[0]
    win = sliding_window_view(x, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    out_h, out_w = win.shape[1:3]
    return np.moveaxis(win, (3, 4), (1, 2)).reshape(c * k * k, out_h * out_w)


def _scatter_add(cols, shape, k, stride):
    """Inverse layout of :func:`_unroll`: sum each column entry onto its cell."""
    c, h, w = shape
    out_h, out_w = (h - k) // stride + 1, (w - k) // stride + 1
    acc = np.zeros(shape, dtype=cols.dtype)
    patches = cols.reshape(c, k, k, out_h, out_w)
    for di in range(k):
        for dj in range(k):
            acc[:, di:di + stride * out_h:stride, dj:dj + stride * out_w:stride] += (
                patches[:, di, dj])
    return acc


def conv1x1_im2col_reference(x, weight, bias=None):
    """Forward 1x1, stride-1, unpadded conv through the general unroll."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    c_out = weight.shape[0]
    _, h, w = x.shape
    cols = _unroll(x.astype(np.float64), 1, 1)
    y = np.asarray(weight, dtype=np.float64).reshape(c_out, -1) @ cols
    if bias is not None:
        y += np.asarray(bias, dtype=np.float64)[:, None]
    return y.reshape(c_out, h, w).astype(np.float32)


def lrp_conv1x1_im2col_reference(x, weight, r_out, rule="zplus", epsilon=1e-6):
    """Backward relevance through a 1x1, stride-1, unpadded conv through the
    general unroll and scatter-add."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    c_out = weight.shape[0]
    cols = _unroll(x, 1, 1)
    r_flat = np.asarray(r_out, dtype=np.float64).reshape(c_out, -1)
    if rule == "zplus":
        wmat = np.maximum(weight, 0.0).reshape(c_out, -1)
        denom = wmat @ cols
        live = denom != 0.0
        ratio = np.where(live, r_flat / np.where(live, denom, 1.0), 0.0)
        r_in = _scatter_add(cols * (wmat.T @ ratio), x.shape, 1, 1)
        dead_total = float(r_flat[~live].sum())
        if dead_total != 0.0:
            r_in += dead_total / x.size
        return r_in
    wmat = weight.reshape(c_out, -1)
    denom = wmat @ cols
    denom = denom + epsilon * np.where(denom < 0, -1.0, 1.0)
    return _scatter_add(cols * (wmat.T @ (r_flat / denom)), x.shape, 1, 1)
