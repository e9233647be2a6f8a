"""Graph execution: run a model forward, optionally capturing the activation
trace the backward relevance pass needs (the inputs of conv, fc and gap
layers, every layer's input shape, pooling winner indices, and the pre-merge
skip/main outputs of each block).

A run takes one 3 x H x W image or a stack of them along a leading batch
axis, and every layer keeps the input's rank. A trace is of one image, and
holds its C x H x W arrays. A layer or merge whose output overflows float32
fails the run with its location.

Everything here is a pure function of (graph, input); a loaded graph is
immutable and may be shared across concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .model import BottleneckSpec, ModelGraph, NodeSpec, node_location


class GraphExecutionError(RuntimeError):
    """A layer failed; the message carries the layer's location in the graph."""


# The node kinds whose backward rule reads the input activation itself; the
# others need only its shape.
KEEPS_INPUT = ("conv", "fc", "gap")


@dataclass
class NodeTrace:
    """Cached context for one executed node."""

    spec: NodeSpec
    x_shape: tuple[int, ...]            # the node's input shape
    x: np.ndarray | None = None         # the input activation, for KEEPS_INPUT kinds
    weight: np.ndarray | None = None    # resolved conv/fc weight
    pool_indices: np.ndarray | None = None


@dataclass
class BlockTrace:
    """Cached context for one executed bottleneck block."""

    spec: BottleneckSpec
    main: list[NodeTrace]
    skip: list[NodeTrace] | None        # None for an identity skip
    h_s: np.ndarray                     # skip output, pre-merge
    h_m: np.ndarray                     # main output, pre-merge


@dataclass
class ForwardTrace:
    x: np.ndarray
    stem: list[NodeTrace] = field(default_factory=list)
    blocks: list[BlockTrace] = field(default_factory=list)
    head: list[NodeTrace] = field(default_factory=list)
    probs: np.ndarray | None = None


def _run_node(graph: ModelGraph, node: NodeSpec, x: np.ndarray,
              sink: list[NodeTrace] | None) -> np.ndarray:
    kind = node.kind
    weight = None
    pool_indices = None
    if kind in ("conv", "fc"):
        weight = graph.tensor(node.weight)
        bias = graph.tensor(node.bias) if node.bias is not None else None
        y = (ops.conv2d_forward(x, weight, bias, node.stride, node.padding)
             if kind == "conv" else ops.fc_forward(x, weight, bias))
    elif kind == "bn":
        y = ops.bn_forward(x, graph.tensor(node.gamma), graph.tensor(node.beta),
                           graph.tensor(node.mean), graph.tensor(node.var), node.eps)
    elif kind == "relu":
        y = ops.relu_forward(x)
    elif kind == "maxpool":
        y, pool_indices = ops.maxpool_forward(x, node.k, node.stride, node.padding)
    elif kind == "gap":
        y = ops.gap_forward(x)
    else:  # softmax
        y = ops.softmax(x)
    if sink is not None:
        sink.append(NodeTrace(spec=node, x_shape=x.shape,
                              x=x if kind in KEEPS_INPUT else None, weight=weight,
                              pool_indices=pool_indices))
    return y


def _run_sequence(graph: ModelGraph, nodes, x: np.ndarray, segment: str,
                  block: int | None, sink: list[NodeTrace] | None) -> np.ndarray:
    for i, node in enumerate(nodes):
        try:
            x = _run_node(graph, node, x, sink)
        except (ValueError, KeyError) as exc:
            raise GraphExecutionError(
                f"{node_location(segment, i, block)} ({node.kind}): {exc}") from exc
        except FloatingPointError as exc:
            raise GraphExecutionError(f"{node_location(segment, i, block)} ({node.kind}): "
                                      f"output is not finite ({exc})") from exc
    return x


def _run_block(graph: ModelGraph, b: int, x: np.ndarray,
               sink: list[BlockTrace] | None) -> np.ndarray:
    block = graph.blocks[b]
    main_sink, skip_sink = (None, None) if sink is None else ([], [])
    h_m = _run_sequence(graph, block.main, x, "main", b, main_sink)
    if block.skip is None:
        h_s, skip_sink = x, None
    else:
        h_s = _run_sequence(graph, block.skip, x, "skip", b, skip_sink)
    if h_s.shape != h_m.shape:
        raise GraphExecutionError(f"{node_location('blocks', b)}: skip output "
                                  f"{h_s.shape[-3:]} does not match main output "
                                  f"{h_m.shape[-3:]}")
    try:
        y = h_s + h_m
    except FloatingPointError as exc:
        raise GraphExecutionError(f"{node_location('blocks', b)}: merge output is not "
                                  f"finite ({exc})") from exc
    if block.post_merge_relu:
        y = ops.relu_forward(y)
    if sink is not None:
        sink.append(BlockTrace(spec=block, main=main_sink, skip=skip_sink, h_s=h_s, h_m=h_m))
    return y


def run_forward(graph: ModelGraph, x: np.ndarray,
                want_trace: bool = False) -> np.ndarray | ForwardTrace:
    """Run the network on a normalized 3 x H x W input, or on a stack of them.

    Returns the class probability vector (N x classes for an N x 3 x H x W
    stack), or the full :class:`ForwardTrace` of a single image when
    ``want_trace`` is set. Each row of a stack's result is bit for bit the
    result of that image alone (see :mod:`relprop.ops`).
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (3, 4) or x.shape[-3] != 3:
        raise GraphExecutionError(
            f"network input must be 3 x H x W or N x 3 x H x W, got {x.shape}")
    if want_trace and x.ndim != 3:
        raise GraphExecutionError(f"a traced forward takes one 3 x H x W image, got {x.shape}")
    trace = ForwardTrace(x=x)
    stem, blocks, head = (trace.stem, trace.blocks, trace.head) if want_trace else (None,) * 3
    with np.errstate(over="raise"):
        x = _run_sequence(graph, graph.stem, x, "stem", None, stem)
        for b in range(len(graph.blocks)):
            x = _run_block(graph, b, x, blocks)
        trace.probs = _run_sequence(graph, graph.head, x, "head", None, head)
    return trace if want_trace else trace.probs
