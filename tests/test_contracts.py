"""Each layer's operand rules have one home, ``relprop.ops``: a graph that
breaks one fails ``validate_graph`` at load with the same words its kernel
raises at the first forward, at the same location.

Each row edits one node of the default toy without validating it, then loads
and forwards the edited graph. The load message is the forward's, less the
node kind the forward adds, plus the tensor name the load adds to a conv or
fc weight or bias.
"""

import dataclasses

import numpy as np
import pytest

from relprop.forward import GraphExecutionError, run_forward
from relprop.model import (GraphValidationError, generate_toy_resnet, node_location,
                           validate_graph)

# rule: (node path as node_location's arguments, node fields, tensor values)
RULES = {
    "conv_weight_rank": (("stem", 0), {}, {"stem.conv.w": np.ones((4, 3, 9))}),
    "conv_weight_not_square": (("stem", 0), {}, {"stem.conv.w": np.ones((4, 3, 3, 1))}),
    "conv_input_channels": (("main", 0, 1), {"weight": "stem.conv.w"}, {}),
    "conv_bias_length": (("stem", 0), {"bias": "head.fc.b"}, {}),
    "fc_weight_rank": (("head", 1), {}, {"head.fc.w": np.ones(20)}),
    "fc_inputs": (("head", 1), {}, {"head.fc.w": np.ones((5, 3))}),
    "fc_bias_length": (("head", 1), {"bias": "stem.bn.gamma"}, {}),
    "bn_parameter_length": (("stem", 1), {"gamma": "head.fc.b"}, {}),
    "bn_negative_variance": (("stem", 1), {}, {"stem.bn.var": [1.0, -1.0, 1.0, 1.0]}),
    "bn_negative_eps": (("stem", 1), {"eps": -1.0}, {}),
    "bn_nan_eps": (("stem", 1), {"eps": float("nan")}, {}),
    "bn_zero_variance_and_eps": (("skip", 1, 0), {"eps": 0.0},
                                 {"block1.skip.bn.var": np.zeros(4)}),
    "conv_stride_zero": (("stem", 0), {"stride": 0}, {}),
    "conv_negative_padding": (("main", 3, 0), {"padding": -1}, {}),
    "maxpool_k_zero": (("stem", 3), {"k": 0}, {}),
    "maxpool_all_padding": (("stem", 3), {"padding": 2}, {}),
}


def edited_toy(path, fields, tensors):
    """The default toy with the node at ``path`` given ``fields`` and the
    named tensors given new values, unvalidated; and that node."""
    graph = generate_toy_resnet(7)
    segment, index, *block = path
    owner = graph.blocks[block[0]] if block else graph
    nodes = list(getattr(owner, segment))
    node = nodes[index] = dataclasses.replace(nodes[index], **fields)
    edited = dataclasses.replace(owner, **{segment: tuple(nodes)})
    if block:
        b = block[0]
        edited = dataclasses.replace(
            graph, blocks=graph.blocks[:b] + (edited,) + graph.blocks[b + 1:])
    values = {name: np.asarray(v, dtype=np.float32) for name, v in tensors.items()}
    return dataclasses.replace(edited, tensors={**graph.tensors, **values}), node


@pytest.mark.parametrize("rule", list(RULES))
def test_load_and_kernel_word_a_rule_alike(rule):
    path, fields, tensors = RULES[rule]
    graph, node = edited_toy(path, fields, tensors)
    where = node_location(*path)
    with pytest.raises(GraphValidationError) as load:
        validate_graph(graph)
    with pytest.raises(GraphExecutionError) as forward:
        run_forward(graph, np.zeros((3, 8, 8), np.float32))
    message = str(load.value)
    assert message.startswith(f"{where}: ")
    for name in (node.weight, node.bias):
        if node.kind in ("conv", "fc") and name is not None:
            message = message.replace(f" {name} must", " must", 1)
    assert message == str(forward.value).replace(f"{where} ({node.kind}): ", f"{where}: ", 1)


def test_validate_graph_rejects_an_eps_past_float32_for_every_caller():
    # Not only load_model: the overflowing cast raises, and warns nowhere.
    graph, _ = edited_toy(("stem", 1), {"eps": 1e300}, {})
    with pytest.raises(GraphValidationError, match=r"^stem\[1\]: overflow encountered in cast$"):
        validate_graph(graph)


def test_a_float64_variance_is_judged_in_float32_as_the_kernel_judges_it():
    # 1e-50 is positive in float64 but 0 in float32, where the kernel adds eps.
    graph, _ = edited_toy(("stem", 1), {"eps": 0.0}, {})
    graph = dataclasses.replace(graph, tensors={**graph.tensors, "stem.bn.var": np.full(4, 1e-50)})
    with pytest.raises(GraphValidationError, match=r"^stem\[1\]: bn requires var \+ eps > 0$"):
        validate_graph(graph)
    with pytest.raises(GraphExecutionError,
                       match=r"^stem\[1\] \(bn\): bn requires var \+ eps > 0$"):
        run_forward(graph, np.zeros((3, 8, 8), np.float32))
