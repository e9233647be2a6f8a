"""Model container format: manifest + raw tensors, graph validation, toy models.

A model ships as a JSON manifest plus one raw little-endian float32 file per
tensor (row-major, headerless). The manifest pins the preprocessing constants,
the stem / bottleneck-block / head structure, and the tensor name -> file map,
so a loaded graph is fully self-describing and bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ops

# Each node kind's manifest fields, in manifest order. Tensor fields hold a
# tensor name ("bias" may be null or absent), "eps" a number, the rest integers.
NODE_FIELDS = {
    "conv": ("weight", "bias", "stride", "padding"),
    "bn": ("gamma", "beta", "mean", "var", "eps"),
    "relu": (),
    "maxpool": ("k", "stride", "padding"),
    "gap": (),
    "fc": ("weight", "bias"),
    "softmax": (),
}
TENSOR_FIELDS = ("weight", "bias", "gamma", "beta", "mean", "var")


class ModelError(Exception):
    """Base class for model container and validation failures."""


class BadMagicError(ModelError):
    """The manifest is not a JSON document of the expected version."""


class MissingTensorFileError(ModelError):
    """A tensor file named in the manifest does not exist."""


class BadTensorDtypeError(ModelError):
    """A tensor file's byte length is not a whole number of float32 values."""


class TensorShapeMismatchError(ModelError):
    """A tensor file's element count disagrees with its declared shape."""


class NonFiniteTensorError(ModelError):
    """A tensor file holds a NaN or an infinity."""


class DanglingTensorNameError(ModelError):
    """A node references a tensor name absent from the manifest."""


class GraphValidationError(ModelError):
    """The node graph cannot be chained shape-consistently."""


@dataclass(frozen=True)
class NodeSpec:
    """One layer in the graph; only the fields for its kind are meaningful.
    Every node is built here, so a kind outside ``NODE_FIELDS`` fails here."""

    kind: str
    weight: str | None = None
    bias: str | None = None
    stride: int = 1
    padding: int = 0
    k: int = 0
    gamma: str | None = None
    beta: str | None = None
    mean: str | None = None
    var: str | None = None
    eps: float = 1e-5

    def __post_init__(self):
        if self.kind not in NODE_FIELDS:
            raise GraphValidationError(f"unknown node kind {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name)
                                      for name in NODE_FIELDS[self.kind]}}

    @staticmethod
    def from_json(obj: dict, where: str) -> "NodeSpec":
        """Parse one manifest node. A field of the wrong JSON type raises
        TypeError, which ``load_model`` reports as an invalid structure."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise GraphValidationError(f"{where}: node is not an object with a kind")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in NODE_FIELDS:
            raise GraphValidationError(f"{where}: unknown node kind {kind!r}")
        values = {}
        for name in NODE_FIELDS[kind]:
            if name not in obj and name != "bias":
                raise GraphValidationError(f"{where}: {kind} node missing field {name!r}")
            values[name] = _field_value(name, obj.get(name), where)
        return NodeSpec(kind, **values)


def _json_value(value, want: str, what: str):
    """value, if its JSON type is the one ``want`` names (a bool is neither a
    number nor an integer); a number comes back as a float."""
    if type(value) not in {"a tensor name": (str,), "a number": (int, float),
                           "an integer": (int,)}[want]:
        raise TypeError(f"{what} must be {want}, got {value!r}")
    return float(value) if want == "a number" else value


def _field_value(name: str, value, where: str):
    """A node field's value, checked against the JSON type its name calls for."""
    if name == "bias" and value is None:
        return None
    want = ("a tensor name" if name in TENSOR_FIELDS
            else "a number" if name == "eps" else "an integer")
    return _json_value(value, want, f"{where}: {name}")


@dataclass(frozen=True)
class BottleneckSpec:
    """A residual block: a main conv/bn/relu path and a skip path that meet at
    the merge. A projection skip is ``(conv, bn)``; an identity skip is the
    empty path ``()``, which the manifest spells ``{"kind": "identity"}``."""

    main: tuple[NodeSpec, ...]
    skip: tuple[NodeSpec, ...] = ()
    post_merge_relu: bool = True

    @property
    def identity_skip(self) -> bool:
        return not self.skip

    def to_json(self) -> dict:
        if not self.skip:
            skip = {"kind": "identity"}
        else:
            skip = {"kind": "projection", "conv": self.skip[0].to_json(),
                    "bn": self.skip[1].to_json()}
        return {"main": [n.to_json() for n in self.main], "skip": skip,
                "post_merge_relu": self.post_merge_relu}

    @staticmethod
    def from_json(obj: dict, index: int) -> "BottleneckSpec":
        """Parse block ``index`` of the manifest; ``validate_graph`` checks the
        kinds of a projection skip's two nodes."""
        where = node_location("blocks", index)
        if not isinstance(obj, dict):
            raise GraphValidationError(f"{where}: block is not an object")
        if "main" not in obj:
            raise GraphValidationError(f"{where}: block missing field 'main'")
        main = tuple(NodeSpec.from_json(n, node_location("main", i, index))
                     for i, n in enumerate(obj["main"]))
        if not main:
            raise GraphValidationError(f"{where}: main path is empty")
        skip_obj = obj.get("skip")
        if not isinstance(skip_obj, dict) or skip_obj.get("kind") not in ("identity", "projection"):
            raise GraphValidationError(f"{where}: skip must be identity or projection")
        skip = ()
        if skip_obj["kind"] == "projection":
            skip = tuple(NodeSpec.from_json(skip_obj.get(name),
                                            node_location("skip", i, index))
                         for i, name in enumerate(("conv", "bn")))
        post_merge_relu = obj.get("post_merge_relu", True)
        if not isinstance(post_merge_relu, bool):
            raise TypeError(f"{where}: post_merge_relu must be true or false, "
                            f"got {post_merge_relu!r}")
        return BottleneckSpec(main=main, skip=skip, post_merge_relu=post_merge_relu)


@dataclass(frozen=True)
class Preprocess:
    """Per-channel normalization constants applied as (x/255 - mean) / std."""

    mean: tuple[float, float, float]
    std: tuple[float, float, float]


@dataclass(eq=False)
class ModelGraph:
    """A validated residual CNN with all weights resident as float32 arrays."""

    preprocess: Preprocess
    stem: tuple[NodeSpec, ...]
    blocks: tuple[BottleneckSpec, ...]
    head: tuple[NodeSpec, ...]
    num_classes: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        return self.tensors[name]


def node_location(segment: str, index: int, block: int | None = None) -> str:
    """Where a node sits in the manifest, as every error names it: ``stem[i]``,
    ``head[i]``, ``blocks[b].main[i]``, and ``blocks[b].skip.conv`` or
    ``blocks[b].skip.bn`` for index 0 or 1 of a projection skip. Without a
    ``block``, ``node_location("blocks", b)`` names block ``b`` itself."""
    if block is None:
        return f"{segment}[{index}]"
    if segment == "skip":
        return f"blocks[{block}].skip.{('conv', 'bn')[index]}"
    return f"blocks[{block}].{segment}[{index}]"


def _check_node(graph: ModelGraph, node: NodeSpec, channels: int, where: str) -> int:
    """Check one node against the channel count it receives by its kernel's
    contract in :mod:`relprop.ops`; returns the channel count it outputs."""
    t = graph.tensors
    try:
        if node.kind in ("conv", "fc"):
            weight, bias = t[node.weight], None if node.bias is None else t[node.bias]
            channels = ops.check_linear(node.kind, weight, bias, channels,
                                        (f"weight {node.weight}", f"bias {node.bias}"))
            if node.kind == "conv":
                ops.check_window("conv", weight.shape[-1], node.stride, node.padding)
        elif node.kind == "bn":
            ops.check_bn(channels, t[node.gamma], t[node.beta], t[node.mean], t[node.var],
                         node.eps)
        elif node.kind == "maxpool":
            ops.check_window("maxpool", node.k, node.stride, node.padding)
    except KeyError as exc:
        raise DanglingTensorNameError(f"{where}: unresolved tensor {exc.args[0]}") from None
    except (ValueError, FloatingPointError) as exc:
        raise GraphValidationError(f"{where}: {exc}") from exc
    return channels


def _check_path(graph: ModelGraph, nodes, channels: int, segment: str,
                block: int | None = None, barred: tuple[str, ...] = (),
                place: str = "") -> tuple[int, int]:
    """Check a stem, main or skip path, none of whose nodes may be of a
    ``barred`` kind; returns (output channels, conv stride product)."""
    stride = 1
    for i, node in enumerate(nodes):
        where = node_location(segment, i, block)
        if node.kind in barred:
            raise GraphValidationError(f"{where}: {node.kind} not allowed {place}")
        channels = _check_node(graph, node, channels, where)
        if node.kind == "conv":
            stride *= node.stride
    return channels, stride


@np.errstate(over="raise")  # as in run_forward: a BN eps past float32 fails
def validate_graph(graph: ModelGraph) -> None:
    """Chain shapes through stem, blocks, and head; raise on any inconsistency."""
    channels, _ = _check_path(graph, graph.stem, 3, "stem",
                              barred=("gap", "fc", "softmax"), place="in the stem")
    for b, block in enumerate(graph.blocks):
        where = node_location("blocks", b)
        main_out, main_stride = _check_path(graph, block.main, channels, "main", b,
                                            barred=("maxpool", "gap", "fc", "softmax"),
                                            place="inside a block")
        if block.skip and tuple(n.kind for n in block.skip) != ("conv", "bn"):
            raise GraphValidationError(f"{where}: projection skip must be conv + bn")
        skip_out, skip_stride = _check_path(graph, block.skip, channels, "skip", b)
        if main_out != skip_out:
            raise GraphValidationError(f"{where}: main path outputs {main_out} channels "
                                       f"but skip outputs {skip_out}")
        if main_stride != skip_stride:
            raise GraphValidationError(f"{where}: main stride product {main_stride} != "
                                       f"skip stride {skip_stride}")
        channels = main_out

    kinds = [n.kind for n in graph.head]
    if kinds[-2:] != ["fc", "softmax"] or kinds.count("fc") != 1:
        raise GraphValidationError("head must end with exactly one fc followed by softmax")
    vector = False
    for i, node in enumerate(graph.head):
        where = node_location("head", i)
        if vector and node.kind in ("conv", "bn", "maxpool", "gap"):
            raise GraphValidationError(f"{where}: {node.kind} after gap")
        if node.kind == "fc" and not vector:
            raise GraphValidationError(f"{where}: fc requires a rank-1 input; "
                                       "place gap before it")
        if node.kind == "softmax" and i != len(graph.head) - 1:
            raise GraphValidationError(f"{where}: softmax is allowed only as the last "
                                       "head node; relevance never crosses one")
        vector = vector or node.kind == "gap"
        channels = _check_node(graph, node, channels, where)
    if channels != graph.num_classes:
        raise GraphValidationError(f"head produces {channels} classes, manifest declares "
                                   f"{graph.num_classes}")


# ---------------------------------------------------------------------------
# Manifest + tensor file I/O
# ---------------------------------------------------------------------------

def _load_tensor_file(path: Path, shape: tuple[int, ...], name: str) -> np.ndarray:
    if not path.is_file():
        raise MissingTensorFileError(f"tensor {name}: missing file {path}")
    data = path.read_bytes()
    if len(data) % 4 != 0:
        raise BadTensorDtypeError(f"tensor {name}: file length {len(data)} is not a "
                                  "whole number of float32 values")
    count = int(np.prod(shape)) if shape else 0
    if len(data) != 4 * count:
        raise TensorShapeMismatchError(f"tensor {name}: file holds {len(data) // 4} "
                                       f"values, shape {list(shape)} needs {count}")
    arr = np.frombuffer(data, dtype="<f4").reshape(shape)
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    if bad:
        raise NonFiniteTensorError(f"tensor {name}: {bad} of {count} values are "
                                   "NaN or infinite")
    return np.ascontiguousarray(arr).astype(np.float32, copy=False)


def load_model(manifest_path: str | Path) -> ModelGraph:
    """Load and fully validate a model from its manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingTensorFileError(f"manifest not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadMagicError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise BadMagicError("manifest version must be 1")

    try:
        pre = doc["preprocess"]
        mean, std = (tuple(_json_value(v, "a number", f"preprocess.{key}[{i}]")
                           for i, v in enumerate(pre[key])) for key in ("mean", "std"))
        preprocess = Preprocess(mean=mean, std=std)
        num_classes = _json_value(doc["num_classes"], "an integer", "num_classes")
        stem = tuple(NodeSpec.from_json(n, node_location("stem", i))
                     for i, n in enumerate(doc["stem"]))
        blocks = tuple(BottleneckSpec.from_json(b, i) for i, b in enumerate(doc["blocks"]))
        head = tuple(NodeSpec.from_json(n, node_location("head", i))
                     for i, n in enumerate(doc["head"]))
        tensor_table = doc["tensors"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadMagicError(f"manifest structure invalid: {exc}") from exc
    if not isinstance(tensor_table, dict):
        raise BadMagicError("manifest tensors must be an object mapping names to "
                            f"entries, got {type(tensor_table).__name__}")
    if len(preprocess.mean) != 3 or len(preprocess.std) != 3:
        raise BadMagicError("preprocess mean/std must each have 3 entries")
    if not np.all(np.isfinite(preprocess.mean + preprocess.std)) or min(preprocess.std) <= 0:
        raise BadMagicError("preprocess mean must be finite and std finite and positive, "
                            f"got mean {list(preprocess.mean)} std {list(preprocess.std)}")

    tensors: dict[str, np.ndarray] = {}
    base = manifest_path.parent
    for name, entry in tensor_table.items():
        try:
            shape = tuple(_json_value(v, "an integer", f"shape[{i}]")
                          for i, v in enumerate(entry["shape"]))
            rel = entry["file"]
        except (KeyError, TypeError) as exc:
            raise BadMagicError(f"manifest structure invalid: tensor table entry "
                                f"{name}: {exc}") from exc
        if not isinstance(rel, str):
            raise BadMagicError(f"tensor table entry {name}: file must be a path string")
        if any(v < 1 for v in shape) or not 1 <= len(shape) <= 4:
            raise TensorShapeMismatchError(f"tensor {name}: shape {list(shape)} must be "
                                           "rank 1-4 with positive extents")
        tensors[name] = _load_tensor_file(base / rel, shape, name)

    graph = ModelGraph(preprocess=preprocess, stem=stem, blocks=blocks, head=head,
                       num_classes=num_classes, tensors=tensors)
    validate_graph(graph)
    return graph


def manifest_dict(graph: ModelGraph) -> dict:
    """The manifest JSON object for a graph (tensor files named tensors/<name>.bin)."""
    return {
        "version": 1,
        "preprocess": {"mean": list(graph.preprocess.mean),
                       "std": list(graph.preprocess.std)},
        "num_classes": graph.num_classes,
        "stem": [n.to_json() for n in graph.stem],
        "blocks": [b.to_json() for b in graph.blocks],
        "head": [n.to_json() for n in graph.head],
        "tensors": {name: {"shape": list(arr.shape), "file": f"tensors/{name}.bin"}
                    for name, arr in graph.tensors.items()},
    }


def save_model(graph: ModelGraph, directory: str | Path) -> Path:
    """Write manifest.json plus one raw float32 file per tensor; returns manifest path."""
    directory = Path(directory)
    (directory / "tensors").mkdir(parents=True, exist_ok=True)
    for name, arr in graph.tensors.items():
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        (directory / "tensors" / f"{name}.bin").write_bytes(payload)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(manifest_dict(graph), indent=2) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Seeded toy models
# ---------------------------------------------------------------------------

def _bn_identity(prefix: str, channels: int, tensors: dict) -> NodeSpec:
    ones = np.ones(channels, dtype=np.float32)
    zeros = np.zeros(channels, dtype=np.float32)
    tensors[f"{prefix}.gamma"] = ones.copy()
    tensors[f"{prefix}.beta"] = zeros.copy()
    tensors[f"{prefix}.mean"] = zeros.copy()
    tensors[f"{prefix}.var"] = ones.copy()
    return NodeSpec("bn", gamma=f"{prefix}.gamma", beta=f"{prefix}.beta",
                    mean=f"{prefix}.mean", var=f"{prefix}.var", eps=1e-5)


def generate_toy_resnet(seed: int, channels: int = 4, blocks: int = 2,
                        num_classes: int = 5, input_hw: int = 8) -> ModelGraph:
    """Deterministic small residual network for desk-scale experiments.

    Weights are drawn uniformly from [-0.5, 0.5] from the given seed; BN
    parameters are the identity transform. The first block carries a
    projection skip, the rest identity skips.
    """
    if blocks < 1:
        raise ValueError("toy model needs at least one block")
    if channels < 1 or num_classes < 2 or input_hw < 2:
        raise ValueError("invalid toy model dimensions")
    if input_hw % 2 != 0:
        raise ValueError("input_hw must be even; the stem halves the resolution")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}

    def weight(name: str, *shape: int) -> str:
        tensors[name] = (rng.uniform(-0.5, 0.5, size=shape)).astype(np.float32)
        return name

    stem = (
        NodeSpec("conv", weight=weight("stem.conv.w", channels, 3, 3, 3),
                 stride=1, padding=1),
        _bn_identity("stem.bn", channels, tensors),
        NodeSpec("relu"),
        NodeSpec("maxpool", k=2, stride=2, padding=0),
    )

    mid = max(1, channels // 2)
    block_specs = []
    for b in range(blocks):
        p = f"block{b + 1}"
        main = (
            NodeSpec("conv", weight=weight(f"{p}.main.conv1.w", mid, channels, 1, 1)),
            _bn_identity(f"{p}.main.bn1", mid, tensors),
            NodeSpec("relu"),
            NodeSpec("conv", weight=weight(f"{p}.main.conv2.w", mid, mid, 3, 3),
                     stride=1, padding=1),
            _bn_identity(f"{p}.main.bn2", mid, tensors),
            NodeSpec("relu"),
            NodeSpec("conv", weight=weight(f"{p}.main.conv3.w", channels, mid, 1, 1)),
            _bn_identity(f"{p}.main.bn3", channels, tensors),
        )
        skip = () if b else (
            NodeSpec("conv", weight=weight(f"{p}.skip.conv.w", channels, channels, 1, 1)),
            _bn_identity(f"{p}.skip.bn", channels, tensors),
        )
        block_specs.append(BottleneckSpec(main=main, skip=skip, post_merge_relu=True))

    head = (
        NodeSpec("gap"),
        NodeSpec("fc", weight=weight("head.fc.w", num_classes, channels),
                 bias=weight("head.fc.b", num_classes)),
        NodeSpec("softmax"),
    )

    graph = ModelGraph(
        preprocess=Preprocess(mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25)),
        stem=stem, blocks=tuple(block_specs), head=head,
        num_classes=num_classes, tensors=tensors,
    )
    validate_graph(graph)
    return graph
