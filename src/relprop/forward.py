"""Graph execution: run a model forward, optionally capturing the activation
trace the backward relevance pass needs (the inputs of conv, fc and gap
layers, every layer's input shape, pooling winner indices, and the pre-merge
skip/main outputs of each block).

Everything here is a pure function of (graph, input); a loaded graph is
immutable and may be shared across concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .model import BottleneckSpec, ModelGraph, NodeSpec


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
    x: np.ndarray                       # block input
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
    if kind == "conv":
        weight = graph.tensor(node.weight)
        bias = graph.tensor(node.bias) if node.bias is not None else None
        y = ops.conv2d_forward(x, weight, bias, node.stride, node.padding)
    elif kind == "bn":
        y = ops.bn_forward(x, graph.tensor(node.gamma), graph.tensor(node.beta),
                           graph.tensor(node.mean), graph.tensor(node.var), node.eps)
    elif kind == "relu":
        y = ops.relu_forward(x)
    elif kind == "maxpool":
        y, pool_indices = ops.maxpool_forward(x, node.k, node.stride, node.padding)
    elif kind == "gap":
        y = ops.gap_forward(x)
    elif kind == "fc":
        weight = graph.tensor(node.weight)
        bias = graph.tensor(node.bias) if node.bias is not None else None
        y = ops.fc_forward(x, weight, bias)
    elif kind == "softmax":
        y = ops.softmax(x)
    else:
        raise GraphExecutionError(f"unknown node kind {kind!r}")
    if sink is not None:
        sink.append(NodeTrace(spec=node, x_shape=x.shape,
                              x=x if kind in KEEPS_INPUT else None,
                              weight=weight, pool_indices=pool_indices))
    return y


def _run_sequence(graph: ModelGraph, nodes, x: np.ndarray, where: str,
                  sink: list[NodeTrace] | None) -> np.ndarray:
    for i, node in enumerate(nodes):
        try:
            x = _run_node(graph, node, x, sink)
        except (ValueError, KeyError) as exc:
            raise GraphExecutionError(f"{where}[{i}] ({node.kind}): {exc}") from exc
    return x


def _run_block(graph: ModelGraph, block: BottleneckSpec, x: np.ndarray, where: str,
               want_trace: bool) -> tuple[np.ndarray, BlockTrace | None]:
    main_sink: list[NodeTrace] | None = [] if want_trace else None
    skip_sink: list[NodeTrace] | None = [] if want_trace else None
    h_m = _run_sequence(graph, block.main, x, f"{where}.main", main_sink)
    if block.skip is None:
        h_s = x
        skip_sink = None
    else:
        h_s = _run_sequence(graph, block.skip, x, f"{where}.skip", skip_sink)
    if h_s.shape != h_m.shape:
        raise GraphExecutionError(f"{where}: skip output {h_s.shape} does not match "
                                  f"main output {h_m.shape}")
    y = h_s + h_m
    if block.post_merge_relu:
        y = ops.relu_forward(y)
    trace = None
    if want_trace:
        trace = BlockTrace(spec=block, x=x, main=main_sink, skip=skip_sink,
                           h_s=h_s, h_m=h_m)
    return y, trace


def run_forward(graph: ModelGraph, x: np.ndarray,
                want_trace: bool = False) -> np.ndarray | ForwardTrace:
    """Run the network on a normalized 3 x H x W input.

    Returns the class probability vector, or the full :class:`ForwardTrace`
    when ``want_trace`` is set.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or x.shape[0] != 3:
        raise GraphExecutionError(f"network input must be 3 x H x W, got {x.shape}")
    trace = ForwardTrace(x=x) if want_trace else None

    x = _run_sequence(graph, graph.stem, x, "stem",
                      trace.stem if want_trace else None)
    for b, block in enumerate(graph.blocks):
        x, block_trace = _run_block(graph, block, x, f"blocks[{b}]", want_trace)
        if want_trace:
            trace.blocks.append(block_trace)
    probs = _run_sequence(graph, graph.head, x, "head",
                          trace.head if want_trace else None)
    if want_trace:
        trace.probs = probs
        return trace
    return probs
