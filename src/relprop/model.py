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

NODE_KINDS = ("conv", "bn", "relu", "maxpool", "gap", "fc", "softmax")
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
    """One layer in the graph; only the fields for its kind are meaningful."""

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

    def to_json(self) -> dict:
        if self.kind == "conv":
            return {"kind": "conv", "weight": self.weight, "bias": self.bias,
                    "stride": self.stride, "padding": self.padding}
        if self.kind == "bn":
            return {"kind": "bn", "gamma": self.gamma, "beta": self.beta,
                    "mean": self.mean, "var": self.var, "eps": self.eps}
        if self.kind == "maxpool":
            return {"kind": "maxpool", "k": self.k, "stride": self.stride,
                    "padding": self.padding}
        if self.kind == "fc":
            return {"kind": "fc", "weight": self.weight, "bias": self.bias}
        if self.kind in ("relu", "gap", "softmax"):
            return {"kind": self.kind}
        raise GraphValidationError(f"unknown node kind {self.kind!r}")

    @staticmethod
    def from_json(obj: dict, where: str) -> "NodeSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise GraphValidationError(f"{where}: node is not an object with a kind")
        kind = obj["kind"]
        for name in TENSOR_FIELDS:
            value = obj.get(name)
            if value is not None and not isinstance(value, str):
                raise GraphValidationError(f"{where}: {name} must be a tensor name, "
                                           f"got {value!r}")
        try:
            if kind == "conv":
                return NodeSpec("conv", weight=obj["weight"], bias=obj.get("bias"),
                                stride=int(obj["stride"]), padding=int(obj["padding"]))
            if kind == "bn":
                return NodeSpec("bn", gamma=obj["gamma"], beta=obj["beta"],
                                mean=obj["mean"], var=obj["var"], eps=float(obj["eps"]))
            if kind == "maxpool":
                return NodeSpec("maxpool", k=int(obj["k"]), stride=int(obj["stride"]),
                                padding=int(obj["padding"]))
            if kind == "fc":
                return NodeSpec("fc", weight=obj["weight"], bias=obj.get("bias"))
            if kind in ("relu", "gap", "softmax"):
                return NodeSpec(kind)
        except KeyError as exc:
            raise GraphValidationError(f"{where}: {kind} node missing field {exc}") from exc
        raise GraphValidationError(f"{where}: unknown node kind {kind!r}")


@dataclass(frozen=True)
class BottleneckSpec:
    """A residual block: main conv/bn/relu path plus identity or projection skip."""

    main: tuple[NodeSpec, ...]
    skip: tuple[NodeSpec, NodeSpec] | None = None  # (conv, bn) or None for identity
    post_merge_relu: bool = True

    @property
    def identity_skip(self) -> bool:
        return self.skip is None

    def to_json(self) -> dict:
        if self.skip is None:
            skip = {"kind": "identity"}
        else:
            skip = {"kind": "projection", "conv": self.skip[0].to_json(),
                    "bn": self.skip[1].to_json()}
        return {"main": [n.to_json() for n in self.main], "skip": skip,
                "post_merge_relu": self.post_merge_relu}

    @staticmethod
    def from_json(obj: dict, where: str) -> "BottleneckSpec":
        if not isinstance(obj, dict):
            raise GraphValidationError(f"{where}: block is not an object")
        main = tuple(NodeSpec.from_json(n, f"{where}.main[{i}]")
                     for i, n in enumerate(obj.get("main", [])))
        skip_obj = obj.get("skip")
        if not isinstance(skip_obj, dict) or skip_obj.get("kind") not in ("identity", "projection"):
            raise GraphValidationError(f"{where}: skip must be identity or projection")
        if skip_obj["kind"] == "identity":
            skip = None
        else:
            conv = NodeSpec.from_json(skip_obj.get("conv"), f"{where}.skip.conv")
            bn = NodeSpec.from_json(skip_obj.get("bn"), f"{where}.skip.bn")
            if conv.kind != "conv" or bn.kind != "bn":
                raise GraphValidationError(f"{where}: projection skip must be conv + bn")
            skip = (conv, bn)
        return BottleneckSpec(main=main, skip=skip,
                              post_merge_relu=bool(obj.get("post_merge_relu", True)))


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


def _tensor_refs(node: NodeSpec) -> list[str]:
    names = (getattr(node, name) for name in TENSOR_FIELDS)
    return [n for n in names if n is not None]


def _iter_nodes(graph: ModelGraph):
    """Yield (location, node) for every node in forward order."""
    for i, n in enumerate(graph.stem):
        yield f"stem[{i}]", n
    for b, block in enumerate(graph.blocks):
        for i, n in enumerate(block.main):
            yield f"blocks[{b}].main[{i}]", n
        if block.skip is not None:
            yield f"blocks[{b}].skip.conv", block.skip[0]
            yield f"blocks[{b}].skip.bn", block.skip[1]
    for i, n in enumerate(graph.head):
        yield f"head[{i}]", n


def _check_conv(graph: ModelGraph, node: NodeSpec, channels: int, where: str) -> int:
    w = graph.tensors[node.weight]
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise GraphValidationError(f"{where}: conv weight {node.weight} must be "
                                   f"C_out x C_in x k x k, got {w.shape}")
    if w.shape[1] != channels:
        raise GraphValidationError(f"{where}: conv expects {w.shape[1]} input channels "
                                   f"but receives {channels}")
    if node.bias is not None:
        b = graph.tensors[node.bias]
        if b.shape != (w.shape[0],):
            raise GraphValidationError(f"{where}: conv bias {node.bias} must have "
                                       f"{w.shape[0]} entries, got {b.shape}")
    if node.stride < 1 or node.padding < 0:
        raise GraphValidationError(f"{where}: invalid stride/padding")
    return int(w.shape[0])


def _check_bn(graph: ModelGraph, node: NodeSpec, channels: int, where: str) -> None:
    for attr in ("gamma", "beta", "mean", "var"):
        t = graph.tensors[getattr(node, attr)]
        if t.shape != (channels,):
            raise GraphValidationError(f"{where}: bn {attr} must have {channels} "
                                       f"entries, got {t.shape}")
    if (graph.tensors[node.var] < 0).any():
        raise GraphValidationError(f"{where}: bn variance has negative entries")


def _chain_main(graph: ModelGraph, nodes: tuple[NodeSpec, ...], channels: int,
                where: str) -> tuple[int, int]:
    """Walk a conv/bn/relu sequence; returns (output channels, stride product)."""
    stride = 1
    for i, node in enumerate(nodes):
        loc = f"{where}[{i}]"
        if node.kind == "conv":
            channels = _check_conv(graph, node, channels, loc)
            stride *= node.stride
        elif node.kind == "bn":
            _check_bn(graph, node, channels, loc)
        elif node.kind == "relu":
            pass
        else:
            raise GraphValidationError(f"{loc}: {node.kind} not allowed inside a block")
    return channels, stride


def validate_graph(graph: ModelGraph) -> None:
    """Chain shapes through stem, blocks, and head; raise on any inconsistency."""
    for where, node in _iter_nodes(graph):
        if node.kind not in NODE_KINDS:
            raise GraphValidationError(f"{where}: unknown node kind {node.kind!r}")
        for name in _tensor_refs(node):
            if name not in graph.tensors:
                raise DanglingTensorNameError(f"{where}: unresolved tensor {name}")

    channels = 3
    vector = False
    for i, node in enumerate(graph.stem):
        where = f"stem[{i}]"
        if vector:
            raise GraphValidationError(f"{where}: stem must stay spatial")
        if node.kind == "conv":
            channels = _check_conv(graph, node, channels, where)
        elif node.kind == "bn":
            _check_bn(graph, node, channels, where)
        elif node.kind == "maxpool":
            if node.k < 1 or node.stride < 1 or node.padding < 0:
                raise GraphValidationError(f"{where}: invalid maxpool hyperparameters")
        elif node.kind in ("gap", "fc", "softmax"):
            raise GraphValidationError(f"{where}: {node.kind} not allowed in the stem")

    for b, block in enumerate(graph.blocks):
        where = f"blocks[{b}]"
        main_out, main_stride = _chain_main(graph, block.main, channels, f"{where}.main")
        if block.skip is None:
            skip_out, skip_stride = channels, 1
        else:
            conv, bn = block.skip
            if conv.kind != "conv" or bn.kind != "bn":
                raise GraphValidationError(f"{where}: projection skip must be conv + bn")
            skip_out = _check_conv(graph, conv, channels, f"{where}.skip.conv")
            _check_bn(graph, bn, skip_out, f"{where}.skip.bn")
            skip_stride = conv.stride
        if main_out != skip_out:
            raise GraphValidationError(f"{where}: main path outputs {main_out} channels "
                                       f"but skip outputs {skip_out}")
        if main_stride != skip_stride:
            raise GraphValidationError(f"{where}: main stride product {main_stride} != "
                                       f"skip stride {skip_stride}")
        channels = main_out

    fc_count = sum(1 for n in graph.head if n.kind == "fc")
    if len(graph.head) < 2 or graph.head[-2].kind != "fc" or graph.head[-1].kind != "softmax" \
            or fc_count != 1:
        raise GraphValidationError("head must end with exactly one fc followed by softmax")
    for i, node in enumerate(graph.head):
        where = f"head[{i}]"
        if node.kind == "conv":
            if vector:
                raise GraphValidationError(f"{where}: conv after gap")
            channels = _check_conv(graph, node, channels, where)
        elif node.kind == "bn":
            if vector:
                raise GraphValidationError(f"{where}: bn after gap")
            _check_bn(graph, node, channels, where)
        elif node.kind == "maxpool":
            if vector:
                raise GraphValidationError(f"{where}: maxpool after gap")
        elif node.kind == "gap":
            if vector:
                raise GraphValidationError(f"{where}: repeated gap")
            vector = True
        elif node.kind == "fc":
            if not vector:
                raise GraphValidationError(f"{where}: fc requires a rank-1 input; "
                                           "place gap before it")
            w = graph.tensors[node.weight]
            if w.ndim != 2:
                raise GraphValidationError(f"{where}: fc weight must be rank 2, got {w.shape}")
            if w.shape[1] != channels:
                raise GraphValidationError(f"{where}: fc expects {w.shape[1]} inputs "
                                           f"but receives {channels}")
            if node.bias is not None:
                bias = graph.tensors[node.bias]
                if bias.shape != (w.shape[0],):
                    raise GraphValidationError(f"{where}: fc bias must have {w.shape[0]} "
                                               f"entries, got {bias.shape}")
            channels = int(w.shape[0])
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
        preprocess = Preprocess(mean=tuple(float(v) for v in pre["mean"]),
                                std=tuple(float(v) for v in pre["std"]))
        num_classes = int(doc["num_classes"])
        stem = tuple(NodeSpec.from_json(n, f"stem[{i}]")
                     for i, n in enumerate(doc["stem"]))
        blocks = tuple(BottleneckSpec.from_json(b, f"blocks[{i}]")
                       for i, b in enumerate(doc["blocks"]))
        head = tuple(NodeSpec.from_json(n, f"head[{i}]")
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
            shape = tuple(int(v) for v in entry["shape"])
            rel = entry["file"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadMagicError(f"tensor table entry {name} invalid: {exc}") from exc
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
        if b == 0:
            skip = (
                NodeSpec("conv", weight=weight(f"{p}.skip.conv.w", channels, channels, 1, 1)),
                _bn_identity(f"{p}.skip.bn", channels, tensors),
            )
        else:
            skip = None
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
