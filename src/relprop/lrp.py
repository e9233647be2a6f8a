"""Backward relevance propagation through a residual CNN.

The backward pass mirrors the forward graph in reverse. Linear projections
(conv, fc, global average pooling) redistribute relevance under the z+ rule or
the epsilon rule; ReLU and batch-norm pass relevance through unchanged; max
pooling routes each output's relevance to its recorded winner. At every
bottleneck merge the incoming relevance is split between the skip connection
and the main path, either symmetrically or in proportion to the magnitudes of
the two pre-merge activations, and the two backward flows are summed at the
block input.

Under the z+ rule every step conserves the total relevance, so the sum at any
depth equals the seeded class probability; checkpoint sums are recorded along
the way so that claim is machine-checkable. The epsilon rule deliberately
leaks (its stabilized denominators are not exact share totals) and is only
audited, never enforced.

Relevance is computed and stored in float64: the conservation audit tolerances
are tighter than float32 storage would support.

z+ rule, zero denominator: when an output unit's positive-weight share total
is exactly zero but it still carries relevance, that relevance is spread
uniformly over the projection's inputs (the whole input for conv and fc, the
channel plane for GAP). An epsilon stabilizer would leak; uniform spreading is
the simplest strictly conserving completion.

Bias terms feed the forward pass but absorb no relevance under either rule.

One ``explain`` call owns one :class:`Workspace`: every conv backward in that
call unrolls its input and back-projects its shares in the same two buffers.
Nothing is shared between calls, so concurrent explanations stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .forward import BlockTrace, ForwardTrace, NodeTrace, run_forward
from .image import ImageSample
from .model import ModelGraph

RULES = ("zplus", "epsilon", "mixture")
SPLITTINGS = ("symmetric", "ratio")
QUANTIZE_MODES = ("paper", "binwidth", "off")

RATIO_DENOM_GUARD = 1e-12


@dataclass(frozen=True)
class RuleConfig:
    """Propagation rule selection for one explanation run.

    ``mixture`` applies the epsilon rule at every depth >= ``mixture_boundary``
    and the z+ rule at every smaller one (see :meth:`rule_at`). An unset
    boundary means 8, or the model's block count when it has fewer: ``explain``
    sets it. ``include_identity`` controls whether identity skips receive a
    relevance share at all; projection skips always do.
    """

    rule: str = "zplus"
    epsilon: float = 1e-6
    mixture_boundary: int | None = None
    splitting: str = "ratio"
    include_identity: bool = True
    quantize: str = "paper"
    bins: int = 8

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"rule must be one of {RULES}, got {self.rule!r}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}, got {self.splitting!r}")
        if self.quantize not in QUANTIZE_MODES:
            raise ValueError(f"quantize must be one of {QUANTIZE_MODES}, got {self.quantize!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.mixture_boundary is not None and self.mixture_boundary < 0:
            raise ValueError("mixture_boundary must be >= 0")

    def rule_at(self, depth: int) -> str:
        """The rule at a depth: block ``b`` is at depth ``b``, the stem at -1 and
        the head at ``len(blocks)``, so a boundary in 0..len(blocks) keeps the
        stem z+ and the head epsilon under ``mixture``."""
        if self.rule != "mixture":
            return self.rule
        if self.mixture_boundary is None:
            raise ValueError("mixture_boundary is unset; explain sets it from the model")
        return "epsilon" if depth >= self.mixture_boundary else "zplus"


@dataclass
class RelevanceState:
    """Relevance tensor in flight plus the conservation checkpoint ledger."""

    current: np.ndarray
    checkpoint_sums: list[tuple[str, float]] = field(default_factory=list)
    class_index: int | None = None      # the class whose probability was seeded

    def record(self, label: str, r: np.ndarray) -> None:
        total = float(np.sum(r, dtype=np.float64))
        if not np.isfinite(total):
            raise FloatingPointError(f"checkpoint {label}: relevance sum is not finite")
        self.current = r
        self.checkpoint_sums.append((label, total))


@dataclass
class AttributionMap:
    """Channel-summed input relevance, optionally heat-quantized."""

    raw: np.ndarray                   # H x W float64
    quantized: np.ndarray | None
    quantize_mode: str
    bins: int

    @property
    def values(self) -> np.ndarray:
        """The map downstream consumers should rank and export."""
        return self.raw if self.quantized is None else self.quantized


class Workspace:
    """Two float64 scratch buffers for the conv backward passes of one call:
    one holds the unrolled input columns, the other the back-projected shares.
    Both grow to the largest layer served; their contents never outlive the
    layer that wrote them.
    """

    def __init__(self):
        self._cols = self._shares = np.empty(0)

    def take(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """C-contiguous (columns, shares) views of the given shape."""
        n = math.prod(shape)
        if self._cols.size < n:
            self._cols, self._shares = np.empty(n), np.empty(n)
        return self._cols[:n].reshape(shape), self._shares[:n].reshape(shape)


# ---------------------------------------------------------------------------
# Per-layer backward rules
# ---------------------------------------------------------------------------

def _as64(x) -> np.ndarray:
    # No copy when x is already float64: callers must not write into the result.
    return np.asarray(x, dtype=np.float64)


def seed_relevance(probs: np.ndarray, class_index: int) -> np.ndarray:
    """Initial relevance: the target class probability at its index, 0 elsewhere."""
    probs = _as64(probs)
    if probs.ndim != 1:
        raise ops.ShapeMismatch(f"probs must be rank 1, got rank {probs.ndim}")
    if not 0 <= class_index < probs.shape[0]:
        raise ValueError(f"class {class_index} out of range for {probs.shape[0]} classes")
    r = np.zeros_like(probs)
    r[class_index] = probs[class_index]
    return r


def _ratio(r: np.ndarray, z: np.ndarray, rule: str,
           epsilon: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Relevance per unit of share total, r / z, for a fresh z this may overwrite.

    z+ divides only where the share total is nonzero, leaves 0 elsewhere, and
    returns that dead mask for the caller's completion. Epsilon first shifts z
    away from zero (sign(0) counts as +1, so zero totals become +epsilon) and
    returns no mask: it leaks instead of completing.
    """
    if rule == "zplus":
        dead = z == 0.0
        return np.divide(r, z, out=np.zeros_like(z), where=~dead), dead
    if rule == "epsilon":
        z += np.where(z < 0, -epsilon, epsilon)
        return np.divide(r, z, out=z), None
    raise ValueError(f"unknown rule {rule!r}")


def lrp_linear(h, weight, r_out, rule: str = "zplus", epsilon: float = 1e-6) -> np.ndarray:
    """Backward relevance through an affine layer (bias absorbs nothing): the
    1x1 conv case on a 1x1 map."""
    if np.ndim(weight) != 2 or np.ndim(h) != 1 or np.ndim(r_out) != 1:
        raise ops.ShapeMismatch("lrp_linear expects weight (E x D), h (D), r_out (E)")
    r_in = lrp_conv(np.reshape(h, (-1, 1, 1)), np.reshape(weight, np.shape(weight) + (1, 1)),
                    1, 0, np.reshape(r_out, (-1, 1, 1)), rule, epsilon)
    return r_in.reshape(-1)


def lrp_conv(x, weight, stride: int, padding: int, r_out,
             rule: str = "zplus", epsilon: float = 1e-6, *,
             work: Workspace | None = None) -> np.ndarray:
    """Backward relevance through a conv layer, treated as the linear projection
    it is. Padding cells carry zero activation so they drop out of both the
    share numerators and the denominators; nothing is scattered onto them.

    With ``work``, the unrolled columns and the back-projected shares live in
    its buffers instead of fresh arrays.
    """
    x = _as64(x)
    weight = _as64(weight)
    r_out = _as64(r_out)
    if x.ndim != 3 or weight.ndim != 4:
        raise ops.ShapeMismatch("lrp_conv expects x (C x H x W) and weight rank 4")
    c_out, c_in, k, kw = weight.shape
    if k != kw or c_in != x.shape[0]:
        raise ops.ShapeMismatch(
            f"lrp_conv weight {weight.shape} inconsistent with input {x.shape}")
    out_h = ops.conv_output_extent(x.shape[1], k, stride, padding, "height")
    out_w = ops.conv_output_extent(x.shape[2], k, stride, padding, "width")
    if r_out.shape != (c_out, out_h, out_w):
        raise ops.ShapeMismatch(
            f"lrp_conv r_out shape {r_out.shape} != expected {(c_out, out_h, out_w)}")

    cols, shares = (None, None) if work is None else work.take((c_in * k * k, out_h * out_w))
    cols = ops.im2col(ops.pad2d(x, padding, 0.0), k, stride, out_h, out_w,
                      out=cols)  # (C_in*k*k, L)
    r_flat = r_out.reshape(c_out, -1)

    wmat = (np.maximum(weight, 0.0) if rule == "zplus" else weight).reshape(c_out, -1)
    ratio, dead = _ratio(r_flat, wmat @ cols, rule, epsilon)      # (C_out, L)
    shares = np.matmul(wmat.T, ratio, out=shares)
    np.multiply(cols, shares, out=shares)
    r_in = ops.col2im_add(shares, x.shape, k, stride, padding)
    dead_total = 0.0 if dead is None else float(r_flat[dead].sum())
    if dead_total != 0.0:
        r_in += dead_total / x.size
    return r_in


def lrp_maxpool(indices: np.ndarray, r_out, input_shape) -> np.ndarray:
    """Winner-take-all projection backward: scatter-add onto recorded winners."""
    indices = np.asarray(indices)
    r_out = _as64(r_out)
    if indices.shape != r_out.shape:
        raise ops.ShapeMismatch(
            f"pool indices shape {indices.shape} != relevance shape {r_out.shape}")
    r_in = np.zeros(int(np.prod(input_shape)), dtype=np.float64)
    np.add.at(r_in, indices.ravel(), r_out.ravel())
    return r_in.reshape(tuple(input_shape))


def lrp_gap(x, r_out, rule: str = "zplus", epsilon: float = 1e-6) -> np.ndarray:
    """Backward relevance through global average pooling.

    GAP is a per-channel projection with uniform positive weights 1/(H*W), so
    under z+ the shares are just h/(H*W) (negative cells contribute
    negatively). A channel whose share total is exactly zero spreads its
    relevance uniformly over its own plane. The shares stay elementwise: a
    GEMM form would sum in another order and change the bits.
    """
    x = _as64(x)
    r_out = _as64(r_out)
    if x.ndim != 3 or r_out.ndim != 1 or r_out.shape[0] != x.shape[0]:
        raise ops.ShapeMismatch(
            f"lrp_gap expects x (C x H x W) and r_out (C); got {x.shape}, {r_out.shape}")
    c, h, w = x.shape
    shares = x / (h * w)
    ratio, dead = _ratio(r_out, shares.sum(axis=(1, 2)), rule, epsilon)
    r_in = shares * ratio[:, None, None]
    if dead is not None and dead.any():
        r_in[dead] += (r_out[dead] / (h * w))[:, None, None]
    return r_in


def passthrough(r: np.ndarray) -> np.ndarray:
    """ReLU and BN relevance rule: unchanged."""
    return _as64(r)


def split_relevance(r, h_s, h_m, splitting: str, include_identity: bool,
                    skip_is_identity: bool) -> tuple[np.ndarray, np.ndarray]:
    """Divide merge-point relevance into skip and main shares.

    The two shares always recombine to the input exactly (the main share is
    computed as the complement); where both pre-merge magnitudes vanish the
    ratio split degenerates and falls back to the symmetric split. Both shares
    are fresh arrays; the arguments are only read.
    """
    r = _as64(r)
    h_s = np.asarray(h_s)
    h_m = np.asarray(h_m)
    if not (r.shape == h_s.shape == h_m.shape):
        raise ops.ShapeMismatch(
            f"split_relevance shapes differ: r {r.shape}, h_s {h_s.shape}, h_m {h_m.shape}")
    if splitting not in SPLITTINGS:
        raise ValueError(f"splitting must be one of {SPLITTINGS}, got {splitting!r}")

    if skip_is_identity and not include_identity:
        return np.zeros_like(r), r.copy()
    if splitting == "symmetric":
        half = 0.5 * r
        return half, r - half
    # Two full-size buffers: |h_s| becomes the skip fraction, then the main
    # share; the magnitude total becomes the skip share.
    a = np.abs(h_s, dtype=np.float64)
    total = np.abs(h_m, dtype=np.float64)
    total += a
    degenerate = total < RATIO_DENOM_GUARD
    np.copyto(total, 1.0, where=degenerate)
    frac = np.divide(a, total, out=a)  # h_m == 0 gives exactly 1
    r_s = np.multiply(r, frac, out=total)
    np.multiply(r, 0.5, out=r_s, where=degenerate)
    return r_s, np.subtract(r, r_s, out=a)


def node_backward(trace: NodeTrace, r: np.ndarray, rule: str,
                  epsilon: float, *, work: Workspace | None = None) -> np.ndarray:
    """Backward relevance through one traced node."""
    kind = trace.spec.kind
    if kind == "conv":
        return lrp_conv(trace.x, trace.weight, trace.spec.stride, trace.spec.padding,
                        r, rule, epsilon, work=work)
    if kind == "fc":
        return lrp_linear(trace.x, trace.weight, r, rule, epsilon)
    if kind == "gap":
        return lrp_gap(trace.x, r, rule, epsilon)
    if kind == "maxpool":
        if trace.pool_indices is None:
            raise LookupError("maxpool trace is missing its cached winner indices")
        return lrp_maxpool(trace.pool_indices, r, trace.x_shape)
    if kind in ("bn", "relu"):
        r = passthrough(r)
        if r.shape != trace.x_shape:
            raise ops.ShapeMismatch(
                f"{kind} relevance shape {r.shape} != activation shape {trace.x_shape}")
        return r
    raise ValueError("relevance never propagates through softmax; "
                     "it only generates the seed")


def path_backward(traces: list[NodeTrace], r: np.ndarray, rule: str, epsilon: float,
                  work: Workspace | None) -> np.ndarray:
    """Backward relevance through a traced path of nodes, last node first."""
    for node_trace in reversed(traces):
        r = node_backward(node_trace, r, rule, epsilon, work=work)
    return r


def propagate_bottleneck(trace: BlockTrace, r, config: RuleConfig,
                         rule: str | None = None, *,
                         work: Workspace | None = None) -> np.ndarray:
    """Backward relevance through one bottleneck block.

    The post-merge ReLU passes relevance through; the merge splits it between
    skip and main; each side is propagated to the block input and the two
    flows are summed there.
    """
    if trace.h_s is None or trace.h_m is None or trace.main is None:
        raise LookupError("block trace is missing cached activations")
    if len(trace.main) != len(trace.spec.main):
        raise LookupError("block trace does not cover the whole main path")
    rule = config.rule_at(0) if rule is None else rule

    r = passthrough(r)  # post-merge relu
    r_s, r_m = split_relevance(r, trace.h_s, trace.h_m, config.splitting,
                               config.include_identity, trace.spec.identity_skip)
    r_m = path_backward(trace.main, r_m, rule, config.epsilon, work)
    if not trace.spec.identity_skip:
        if trace.skip is None or len(trace.skip) != 2:
            raise LookupError("block trace is missing the projection skip cache")
        r_s = path_backward(trace.skip, r_s, rule, config.epsilon, work)
    r_m += r_s  # r_m is a fresh array: the split's share or a layer's output
    return r_m


def channel_sum(r0: np.ndarray) -> np.ndarray:
    """Collapse input relevance C x H x W to the H x W attribution values."""
    r0 = _as64(r0)
    if r0.ndim != 3:
        raise ops.ShapeMismatch(f"channel_sum expects C x H x W, got shape {r0.shape}")
    return r0.sum(axis=0)


def heat_quantize(raw, bins: int, mode: str = "paper") -> np.ndarray:
    """Quantize a map into at most ``bins`` levels, preserving the value order.

    ``paper`` scales the bin index by the bin count; ``binwidth`` scales it by
    the bin width. Both share bin boundaries, so they rank pixels identically.
    A constant map is returned unchanged, and so is a map whose bin width
    underflows to zero (its range spans fewer than ``bins`` / 2 of the smallest
    subnormal steps, so it already has at most ``bins`` levels). The maximum
    lands in the top bin, and the levels stay finite even when the range
    itself overflows.
    """
    raw = _as64(raw)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if mode not in ("paper", "binwidth"):
        raise ValueError(f"quantize mode must be paper or binwidth, got {mode!r}")
    lo, hi = float(raw.min()), float(raw.max())
    # A range wider than the largest double is binned at half scale, where it
    # fits; halving keeps the value order.
    scale = 0.5 if math.isinf(hi - lo) else 1.0
    step = (hi * scale - lo * scale) / bins
    if step == 0.0:
        return raw.copy()
    idx = np.minimum(np.floor((raw * scale - lo * scale) / step), bins - 1)
    if mode == "paper":
        return lo + idx * float(bins)
    levels = lo + idx * step
    if scale != 1.0:  # the bin width is two steps; adding them one at a time stays finite
        levels += idx * step
    return levels


# ---------------------------------------------------------------------------
# Whole-network explanation
# ---------------------------------------------------------------------------

CHECKPOINT_SEED = "seed"
CHECKPOINT_INPUT = "network_input"


def block_input_label(block_index: int) -> str:
    """Checkpoint label for the input of the (1-based) n-th block."""
    return f"block_{block_index}_input"


def explain(graph: ModelGraph, sample: ImageSample, class_index: int | None = None,
            config: RuleConfig = RuleConfig()) -> tuple[AttributionMap, RelevanceState]:
    """Forward the sample, then propagate relevance for ``class_index`` back to
    the pixels. Records conservation checkpoints at the seed, at every block
    input, and at the network input.

    With ``class_index=None`` the class is the argmax of this forward's
    probabilities (lowest index on ties). The class used is returned as
    ``state.class_index``.
    """
    if class_index is not None and not 0 <= class_index < graph.num_classes:
        raise ValueError(f"class {class_index} out of range for "
                         f"{graph.num_classes} classes")
    blocks = len(graph.blocks)
    if config.mixture_boundary is None:
        config = replace(config, mixture_boundary=min(8, blocks))
    elif config.rule == "mixture" and config.mixture_boundary > blocks:
        raise ValueError(f"mixture_boundary {config.mixture_boundary} exceeds {blocks} blocks")

    trace: ForwardTrace = run_forward(graph, sample.normalized, want_trace=True)
    if class_index is None:
        class_index = int(np.argmax(trace.probs))
    r = seed_relevance(trace.probs, class_index)
    state = RelevanceState(current=r, class_index=class_index)
    state.record(CHECKPOINT_SEED, r)

    # The seed is the softmax output, the head's last node (validate_graph
    # allows a softmax nowhere else).
    work = Workspace()
    r = path_backward(trace.head[:-1], r, config.rule_at(len(trace.blocks)),
                      config.epsilon, work)
    for b in range(len(trace.blocks) - 1, -1, -1):
        r = propagate_bottleneck(trace.blocks[b], r, config, config.rule_at(b), work=work)
        state.record(block_input_label(b + 1), r)
    r = path_backward(trace.stem, r, config.rule_at(-1), config.epsilon, work)
    state.record(CHECKPOINT_INPUT, r)

    raw = channel_sum(r)
    quantized = None
    if config.quantize != "off":
        quantized = heat_quantize(raw, config.bins, config.quantize)
    amap = AttributionMap(raw=raw, quantized=quantized,
                          quantize_mode=config.quantize, bins=config.bins)
    return amap, state
