import json

import numpy as np
import pytest

from relprop import lrp
from relprop.image import (ImageFormatError, load_ppm, normalize, read_map_csv,
                           write_attribution, write_ppm)
from relprop.model import (BadMagicError, BadTensorDtypeError, DanglingTensorNameError,
                           GraphValidationError, MissingTensorFileError,
                           NodeSpec, NonFiniteTensorError, Preprocess,
                           TensorShapeMismatchError, generate_toy_resnet, load_model,
                           save_model)
from relprop.forward import run_forward

from conftest import make_sample


def minimal_manifest(tmp_path, **overrides):
    """Smallest legal model: one conv, then gap + fc + softmax."""
    tensors = {
        "conv1.w": np.full((2, 3, 1, 1), 0.5, dtype=np.float32),
        "fc.w": np.full((4, 2), 0.25, dtype=np.float32),
        "fc.b": np.zeros(4, dtype=np.float32),
    }
    (tmp_path / "tensors").mkdir(exist_ok=True)
    for name, arr in tensors.items():
        (tmp_path / "tensors" / f"{name}.bin").write_bytes(
            arr.astype("<f4").tobytes())
    doc = {
        "version": 1,
        "preprocess": {"mean": [0.0, 0.0, 0.0], "std": [1.0, 1.0, 1.0]},
        "num_classes": 4,
        "stem": [{"kind": "conv", "weight": "conv1.w", "bias": None,
                  "stride": 1, "padding": 0}],
        "blocks": [],
        "head": [{"kind": "gap"},
                 {"kind": "fc", "weight": "fc.w", "bias": "fc.b"},
                 {"kind": "softmax"}],
        "tensors": {name: {"shape": list(arr.shape), "file": f"tensors/{name}.bin"}
                    for name, arr in tensors.items()},
    }
    doc.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path, doc


def graphs_equal(a, b) -> bool:
    return (a.preprocess == b.preprocess and a.stem == b.stem and a.blocks == b.blocks
            and a.head == b.head and a.num_classes == b.num_classes
            and set(a.tensors) == set(b.tensors)
            and all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors))


class TestLoadModel:
    def test_minimal_manifest_loads(self, tmp_path):
        path, _ = minimal_manifest(tmp_path)
        graph = load_model(path)
        assert len(graph.tensors) == 3
        assert [n.kind for n in graph.head] == ["gap", "fc", "softmax"]

    def test_dangling_tensor_name(self, tmp_path):
        path, doc = minimal_manifest(tmp_path)
        del doc["tensors"]["conv1.w"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DanglingTensorNameError, match="unresolved tensor conv1.w"):
            load_model(path)

    def test_missing_tensor_file(self, tmp_path):
        path, _ = minimal_manifest(tmp_path)
        (tmp_path / "tensors" / "conv1.w.bin").unlink()
        with pytest.raises(MissingTensorFileError, match="conv1.w"):
            load_model(path)

    def test_bad_magic_not_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(b"\x93NUMPY not json")
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_bad_magic_wrong_version(self, tmp_path):
        path, doc = minimal_manifest(tmp_path)
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(BadMagicError, match="version"):
            load_model(path)

    def test_non_f32_file_length(self, tmp_path):
        path, _ = minimal_manifest(tmp_path)
        (tmp_path / "tensors" / "fc.b.bin").write_bytes(b"\x00" * 10)
        with pytest.raises(BadTensorDtypeError, match="fc.b"):
            load_model(path)

    def test_shape_file_size_mismatch(self, tmp_path):
        path, _ = minimal_manifest(tmp_path)
        (tmp_path / "tensors" / "fc.b.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(TensorShapeMismatchError, match="fc.b"):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, tmp_path, bad):
        path, _ = minimal_manifest(tmp_path)
        values = np.full(8, 0.25, dtype="<f4")
        values[2] = bad
        (tmp_path / "tensors" / "fc.w.bin").write_bytes(values.tobytes())
        with pytest.raises(NonFiniteTensorError, match="tensor fc.w: 1 of 8"):
            load_model(path)

    def test_head_must_end_fc_softmax(self, tmp_path):
        path, doc = minimal_manifest(tmp_path)
        doc["head"] = doc["head"][:2]  # drop softmax
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphValidationError, match="fc followed by softmax"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("stride", True), ("padding", 1.5), ("padding", "1"),
        ("weight", None), ("bias", 5), ("bias", False)])
    def test_conv_field_of_wrong_json_type_rejected(self, tmp_path, field, value):
        path, doc = minimal_manifest(tmp_path)
        doc["stem"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(BadMagicError, match=rf"stem\[0\]: {field} must be"):
            load_model(path)

    @pytest.mark.parametrize("value", [True, "1e-5", None])
    def test_bn_eps_must_be_a_number(self, tmp_path, value):
        graph = generate_toy_resnet(3, channels=4, blocks=1, num_classes=3, input_hw=8)
        manifest = save_model(graph, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["stem"][1]["eps"] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(BadMagicError, match=r"stem\[1\]: eps must be a number"):
            load_model(manifest)

    def test_integer_eps_and_absent_bias_load(self, tmp_path):
        graph = generate_toy_resnet(3, channels=4, blocks=1, num_classes=3, input_hw=8)
        manifest = save_model(graph, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["stem"][1]["eps"] = 1
        del doc["stem"][0]["bias"]
        manifest.write_text(json.dumps(doc))
        loaded = load_model(manifest)
        assert loaded.stem[1].eps == 1.0 and type(loaded.stem[1].eps) is float
        assert loaded.stem[0].bias is None

    @pytest.mark.parametrize("mutation", range(6))
    def test_mutated_extent_fails_to_load(self, tmp_path, mutation):
        graph = generate_toy_resnet(3, channels=4, blocks=1, num_classes=3, input_hw=8)
        manifest = save_model(graph, tmp_path)
        doc = json.loads(manifest.read_text())
        names = sorted(doc["tensors"])
        rng = np.random.default_rng(mutation)
        name = names[int(rng.integers(len(names)))]
        shape = doc["tensors"][name]["shape"]
        if mutation % 2 == 0 or len(shape) < 2:
            shape[int(rng.integers(len(shape)))] += 1  # breaks the file size
        else:
            shape[0], shape[1] = shape[1], shape[0]    # same size, breaks chaining
            if shape[0] == shape[1]:
                shape[-1] += 1
        manifest.write_text(json.dumps(doc))
        with pytest.raises((TensorShapeMismatchError, GraphValidationError)):
            load_model(manifest)

    def test_node_of_unknown_kind_cannot_be_built(self):
        with pytest.raises(GraphValidationError, match="unknown node kind 'gelu'"):
            NodeSpec("gelu")


class TestToyModel:
    def test_seed_determinism(self, tmp_path):
        a = save_model(generate_toy_resnet(7), tmp_path / "a")
        b = save_model(generate_toy_resnet(7), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        for child in sorted((tmp_path / "a" / "tensors").iterdir()):
            twin = tmp_path / "b" / "tensors" / child.name
            assert child.read_bytes() == twin.read_bytes()

    def test_forward_produces_probabilities(self):
        graph = generate_toy_resnet(11, channels=4, blocks=2, num_classes=5, input_hw=8)
        sample = make_sample(graph, seed=1, hw=8)
        probs = run_forward(graph, sample.normalized)
        assert probs.shape == (5,)
        assert abs(float(probs.sum(dtype=np.float64)) - 1.0) < 1e-6

    def test_single_block_has_one_projection(self):
        graph = generate_toy_resnet(5, channels=4, blocks=1, num_classes=3, input_hw=8)
        assert sum(0 if b.identity_skip else 1 for b in graph.blocks) == 1

    def test_later_blocks_are_identity(self):
        graph = generate_toy_resnet(5, channels=4, blocks=3, num_classes=3, input_hw=8)
        assert not graph.blocks[0].identity_skip
        assert all(b.identity_skip for b in graph.blocks[1:])

    def test_weights_within_half(self):
        graph = generate_toy_resnet(9)
        w = graph.tensors["stem.conv.w"]
        assert w.min() >= -0.5 and w.max() <= 0.5

    def test_roundtrip_structurally_equal(self, tmp_path):
        graph = generate_toy_resnet(13, channels=6, blocks=2, num_classes=4, input_hw=8)
        loaded = load_model(save_model(graph, tmp_path))
        assert graphs_equal(graph, loaded)

    def test_resave_is_bit_lossless(self, tmp_path):
        graph = generate_toy_resnet(17, channels=4, blocks=2, num_classes=3, input_hw=8)
        first = save_model(graph, tmp_path / "a")
        second = save_model(load_model(first), tmp_path / "b")
        assert first.read_bytes() == second.read_bytes()
        for child in sorted((tmp_path / "a" / "tensors").iterdir()):
            assert child.read_bytes() == (tmp_path / "b" / "tensors" / child.name).read_bytes()


class TestPpm:
    PRE = Preprocess(mean=(0.0, 0.0, 0.0), std=(1.0, 1.0, 1.0))

    def test_white_pixel(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        sample = load_ppm(path, self.PRE)
        assert sample.raw.reshape(-1).tolist() == [255.0, 255.0, 255.0]
        assert sample.normalized.reshape(-1).tolist() == [1.0, 1.0, 1.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        with pytest.raises(ImageFormatError, match="bad magic"):
            load_ppm(path, self.PRE)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\xff\xff\xff\xff\xff\xff")
        with pytest.raises(ImageFormatError, match="maxval"):
            load_ppm(path, self.PRE)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\xff\xff")
        with pytest.raises(ImageFormatError, match="truncated pixel data"):
            load_ppm(path, self.PRE)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n255\n\x01\x02\x03")
        sample = load_ppm(path, self.PRE)
        assert sample.raw.reshape(-1).tolist() == [1.0, 2.0, 3.0]

    def test_gradient_roundtrip_bit_identical(self, tmp_path):
        raw = np.arange(12, dtype=np.float32).reshape(3, 2, 2) * 20
        first = tmp_path / "a.ppm"
        write_ppm(first, raw)
        sample = load_ppm(first, self.PRE)
        second = tmp_path / "b.ppm"
        write_ppm(second, sample.raw)
        assert first.read_bytes() == second.read_bytes()

    def test_normalized_recomputable_bit_exact(self, tmp_path):
        pre = Preprocess(mean=(0.4, 0.5, 0.6), std=(0.2, 0.25, 0.3))
        raw = np.random.default_rng(2).integers(0, 256, (3, 4, 5)).astype(np.float32)
        path = tmp_path / "img.ppm"
        write_ppm(path, raw)
        sample = load_ppm(path, pre)
        assert np.array_equal(sample.normalized, normalize(sample.raw, pre))


class TestWriteAttribution:
    def _map(self, values, quantized=None, mode="off", bins=8):
        return lrp.AttributionMap(raw=np.asarray(values, dtype=np.float64),
                                  quantized=quantized, quantize_mode=mode, bins=bins)

    def test_single_value(self, tmp_path):
        write_attribution(self._map([[0.5]]), tmp_path / "m")
        assert (tmp_path / "m.csv").read_text() == "0.5\n"
        pgm = (tmp_path / "m.pgm").read_bytes()
        assert pgm == b"P5\n1 1\n255\n\x00"

    def test_two_values_scale_to_full_range(self, tmp_path):
        write_attribution(self._map([[0.0, 1.0]]), tmp_path / "m")
        assert (tmp_path / "m.pgm").read_bytes()[-2:] == b"\x00\xff"

    def test_quantized_map_limits_pgm_levels(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(8, 8))
        q = lrp.heat_quantize(raw, bins=8, mode="binwidth")
        write_attribution(self._map(raw, quantized=q, mode="binwidth"), tmp_path / "m")
        body = (tmp_path / "m.pgm").read_bytes().split(b"\n255\n", 1)[1]
        assert len(set(body)) <= 8

    def test_csv_roundtrips_full_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(5, 7))
        write_attribution(self._map(raw), tmp_path / "m")
        back = read_map_csv(tmp_path / "m.csv")
        assert np.array_equal(back, raw)
