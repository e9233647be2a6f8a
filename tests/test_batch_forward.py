"""The batched forward: a stack of N images through ``run_forward`` gives, row
for row, the single-image results bit for bit, and curves give the same
points whatever their chunk size."""

import dataclasses

import numpy as np
import pytest

from relprop import cli, lrp, ops
from relprop import evaluate as ev
from relprop.forward import GraphExecutionError, run_forward
from relprop.image import ImageSample, format_float, write_attribution, write_ppm
from relprop.model import (BottleneckSpec, NodeSpec, generate_toy_resnet, load_model,
                           save_model)

from conftest import make_sample


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


def stack(hw: int, n: int, seed: int) -> np.ndarray:
    """N normalized-range images; image 1 has ties (a rounded copy of image 0)."""
    x = np.random.default_rng(seed).normal(size=(n, 3, hw, hw)).astype(np.float32)
    if n > 1:
        x[1] = np.round(x[0])
    return x


def pooled_manifest(tmp_path):
    """A saved and reloaded toy model whose stem pools 3x3, stride 2, padding 1."""
    graph = generate_toy_resnet(2, channels=6, blocks=2, num_classes=7, input_hw=8)
    stem = graph.stem[:3] + (NodeSpec("maxpool", k=3, stride=2, padding=1),)
    return load_model(save_model(dataclasses.replace(graph, stem=stem), tmp_path / "model"))


# Each forward kernel: (per-item input rank, per-item output rank, call).
KERNELS = {
    "conv": (3, 3, lambda x: ops.conv2d_forward(x, np.ones((3, 4, 3, 3)), np.ones(3), 2, 1)),
    "maxpool": (3, 3, lambda x: ops.maxpool_forward(x, 3, 2, 1)),
    "gap": (3, 1, ops.gap_forward),
    "bn": (3, 3, lambda x: ops.bn_forward(x, *np.ones((4, 4)), 1e-5)),
    "fc": (1, 1, lambda x: ops.fc_forward(x, np.ones((3, 4)), np.ones(3))),
    "softmax": (1, 1, ops.softmax),
}


def as_tuple(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


@pytest.fixture(params=["toy", "pooled"])
def graph_hw(request, tmp_path):
    """The toy model (first block has a projection skip) at 8 px, and a saved
    manifest with a padded, strided max-pool at 9 px."""
    if request.param == "toy":
        return generate_toy_resnet(7, channels=4, blocks=2, num_classes=5, input_hw=8), 8
    return pooled_manifest(tmp_path), 9


class TestStackEqualsSingle:
    @pytest.mark.parametrize("n", [1, 2, 7, 65])
    def test_rows_bit_equal(self, graph_hw, n):
        graph, hw = graph_hw
        x = stack(hw, n, seed=n)
        probs = run_forward(graph, x)
        assert probs.shape == (n, graph.num_classes)
        for i in range(n):
            assert same_bits(probs[i], run_forward(graph, x[i]))

    def test_non_finite_and_signed_zero_inputs(self, graph_hw):
        graph, hw = graph_hw
        x = stack(hw, 6, seed=3)
        x[0, 0, 0, 0] = np.nan
        x[1, 1, 2, 2] = np.inf
        x[2, 2, 1, 0] = -np.inf
        x[3] = -0.0
        x[4, :, ::2] = -0.0
        with np.errstate(all="ignore"):
            probs = run_forward(graph, x)
            singles = [run_forward(graph, image) for image in x]
        for i in range(len(x)):
            assert same_bits(probs[i], singles[i])

    def test_kernels_see_the_input_rank(self, graph_hw, monkeypatch):
        # A single image reaches each kernel as C x H x W, a stack as N x C x H x W.
        graph, hw = graph_hw
        ranks = []
        original = ops.bn_forward
        monkeypatch.setattr(ops, "bn_forward",
                            lambda x, *args: ranks.append(x.ndim) or original(x, *args))
        run_forward(graph, stack(hw, 1, seed=4)[0], want_trace=True)
        run_forward(graph, stack(hw, 1, seed=4)[0])
        assert set(ranks) == {3}
        ranks.clear()
        run_forward(graph, stack(hw, 2, seed=4))
        assert set(ranks) == {4}

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_kernel_rank_rule(self, kernel):
        # One item of the kernel's rank r or a stack of them (rank r + 1) runs,
        # giving one result or a stack whose rows are the single results;
        # ranks r - 1 and r + 2 fail.
        rank, out_rank, run = KERNELS[kernel]
        items = np.random.default_rng(6).normal(size=(2, 4, 5, 5)[:rank + 1])
        for bad in (items[0][0], items[None]):
            with pytest.raises(ops.ShapeMismatch, match=f"or N x .*, got rank {bad.ndim}$"):
                run(bad)
        stacked = as_tuple(run(items))
        for i, item in enumerate(items):
            for single, rows in zip(as_tuple(run(item)), stacked, strict=True):
                assert single.ndim == out_rank and rows.shape == (2,) + single.shape
                assert rows.dtype == single.dtype and rows[i].tobytes() == single.tobytes()

    def test_trace_probs_equal_stack_row(self, graph_hw):
        graph, hw = graph_hw
        x = stack(hw, 3, seed=5)
        trace = run_forward(graph, x[2], want_trace=True)
        assert same_bits(trace.probs, run_forward(graph, x)[2])
        assert trace.x.shape == (3, hw, hw) and trace.stem[0].x_shape == (3, hw, hw)

    def test_pool_offsets_index_each_image(self):
        x = np.random.default_rng(0).normal(size=(3, 2, 5, 5)).astype(np.float32)
        pooled, idx = ops.maxpool_forward(x, k=3, stride=2, padding=1)
        for i in range(3):
            p_i, idx_i = ops.maxpool_forward(x[i], k=3, stride=2, padding=1)
            assert same_bits(pooled[i], p_i) and np.array_equal(idx[i], idx_i)
            assert same_bits(np.take(x[i], idx[i]), p_i)


class TestChunkedCurves:
    @pytest.mark.parametrize("chunk", [1, 3, "all"])
    @pytest.mark.parametrize("mode", ev.MODES)
    def test_every_point_equals_run_forward(self, graph_hw, monkeypatch, chunk, mode):
        graph, hw = graph_hw
        sample = make_sample(graph, seed=11, hw=hw)
        amap = lrp.AttributionMap(raw=np.random.default_rng(2).normal(size=(hw, hw)),
                                  quantized=None)
        budget = ev.forward_bytes(graph, hw, hw) * (10**6 if chunk == "all" else chunk)
        monkeypatch.setattr(ev, "CHUNK_BYTES", budget)
        sizes = []

        def recording(graph_, x):
            sizes.append(len(x))
            return run_forward(graph_, x)
        monkeypatch.setattr(ev, "run_forward", recording)

        cur = ev.curve(graph, sample, amap, 3, mode, steps=hw * hw)
        points = len(cur.fractions)
        size = points if chunk == "all" else chunk
        assert sizes == [min(size, points - i) for i in range(0, points, size)]
        ranking = ev.rank_pixels(amap)
        for n, p in zip(range(points), cur.probabilities):
            x = ev.perturb(sample, ranking, n, mode)
            assert p == float(run_forward(graph, x)[3])

    def test_chunk_rule_at_the_benchmark_scales(self):
        small = generate_toy_resnet(0, channels=4, blocks=2, num_classes=5, input_hw=8)
        large = generate_toy_resnet(0, channels=64, blocks=8, num_classes=10, input_hw=64)
        # the widest conv is the stem's 3 x 3 x 3 over every pixel
        assert ev.forward_bytes(small, 8, 8) == 8 * 27 * 64
        assert ev.chunk_size(small, 8, 8) == ev.CHUNK_BYTES // (8 * 27 * 64) == 18
        assert ev.chunk_size(large, 64, 64) == 1

    @pytest.mark.parametrize("hw, steps, images", [(8, 100, 128), (64, 10, 20)])
    def test_both_curves_share_their_endpoints(self, monkeypatch, hw, steps, images):
        graph = generate_toy_resnet(1, channels=2, blocks=1, num_classes=3, input_hw=hw)
        sample = make_sample(graph, seed=4, hw=hw)
        amap = lrp.AttributionMap(raw=np.random.default_rng(4).normal(size=(hw, hw)),
                                  quantized=None)
        seen = []

        def recording(graph_, x):
            seen.extend(x)
            return run_forward(graph_, x)
        monkeypatch.setattr(ev, "run_forward", recording)
        c, (ins, dele) = ev.curves(graph, sample, amap, None, steps)
        assert len(seen) == images
        assert c == int(np.argmax(run_forward(graph, sample.normalized)))
        for mode, cur in (("insertion", ins), ("deletion", dele)):
            assert np.array_equal(cur.probabilities,
                                  ev.curve(graph, sample, amap, c, mode, steps).probabilities)

    def test_auto_class_takes_lowest_index_on_ties(self):
        graph = generate_toy_resnet(1, channels=2, blocks=1, num_classes=4, input_hw=4)
        head = dict(graph.tensors)
        head["head.fc.w"] = np.zeros_like(head["head.fc.w"])
        head["head.fc.b"] = np.array([0.0, 1.0, 1.0, 0.5], dtype=np.float32)
        graph = dataclasses.replace(graph, tensors=head)
        sample = ImageSample(raw=np.zeros((3, 4, 4), np.float32),
                             normalized=np.ones((3, 4, 4), np.float32), path="<ones>")
        amap = lrp.AttributionMap(raw=np.zeros((4, 4)), quantized=None)
        assert ev.curves(graph, sample, amap, None, 4)[0] == 1


class TestShapeErrors:
    def strided_stem(self):
        graph = generate_toy_resnet(7)
        stem = (dataclasses.replace(graph.stem[0], stride=2),) + graph.stem[1:]
        return dataclasses.replace(graph, stem=stem)

    @pytest.mark.parametrize("shape", [(3, 8, 8), (1, 3, 8, 8), (5, 3, 8, 8)])
    def test_conv_error_keeps_its_location(self, shape):
        with pytest.raises(GraphExecutionError,
                           match=r"^stem\[0\] \(conv\): non-integral output height"):
            run_forward(self.strided_stem(), np.zeros(shape, np.float32))

    @pytest.mark.parametrize("shape", [(3, 7, 7), (4, 3, 7, 7)])
    def test_pool_error_keeps_its_location(self, shape):
        with pytest.raises(GraphExecutionError,
                           match=r"^stem\[3\] \(maxpool\): non-integral output height"):
            run_forward(generate_toy_resnet(7), np.zeros(shape, np.float32))

    @pytest.mark.parametrize("shape", [(3, 8, 8), (2, 3, 8, 8)])
    def test_skip_error_names_its_manifest_location(self, shape):
        graph = generate_toy_resnet(7)
        conv, bn = graph.blocks[0].skip
        tensors = dict(graph.tensors, **{bn.var: np.zeros_like(graph.tensors[bn.var])})
        skip = (conv, dataclasses.replace(bn, eps=0.0))
        block = dataclasses.replace(graph.blocks[0], skip=skip)
        graph = dataclasses.replace(graph, blocks=(block,) + graph.blocks[1:], tensors=tensors)
        with pytest.raises(GraphExecutionError, match=r"^blocks\[0\]\.skip\.bn \(bn\): "):
            run_forward(graph, np.zeros(shape, np.float32))

    @pytest.mark.parametrize("shape", [(3, 8, 8), (2, 3, 8, 8)])
    def test_merge_overflow_names_its_block(self, shape):
        # Each path's output is finite (1.8e38) but their sum overflows float32.
        graph = generate_toy_resnet(7)
        tensors = dict(graph.tensors, big=np.full((4, 3, 1, 1), 3e37, np.float32))
        graph = dataclasses.replace(
            graph, stem=(NodeSpec("conv", weight="big"),),
            blocks=(BottleneckSpec(main=(NodeSpec("relu"),)),), tensors=tensors)
        with pytest.raises(GraphExecutionError,
                           match=r"^blocks\[0\]: merge output is not finite"):
            run_forward(graph, np.full(shape, 2.0, np.float32))

    @pytest.mark.parametrize("shape", [(8, 8), (2, 4, 8, 8), (1, 1, 3, 8, 8)])
    def test_input_rank_and_channels(self, shape):
        with pytest.raises(GraphExecutionError, match="3 x H x W or N x 3 x H x W"):
            run_forward(generate_toy_resnet(7), np.zeros(shape, np.float32))

    def test_trace_takes_one_image(self):
        with pytest.raises(GraphExecutionError, match="one 3 x H x W image"):
            run_forward(generate_toy_resnet(7), np.zeros((2, 3, 8, 8), np.float32),
                        want_trace=True)


def test_evaluate_auto_class_runs_no_forward_of_its_own(tmp_path, capsys, monkeypatch):
    graph = generate_toy_resnet(7)
    sample = make_sample(graph, seed=8)
    amap, state = lrp.explain(graph, sample)
    write_ppm(tmp_path / "img.ppm", sample.raw)
    write_attribution(amap, tmp_path / "att")
    calls = {"cli": 0, "evaluate": 0}
    for name, module in (("cli", cli), ("evaluate", ev)):
        def counting(graph_, x, *args, _name=name, _original=module.run_forward, **kwargs):
            calls[_name] += len(x) if np.ndim(x) == 4 else 1
            return _original(graph_, x, *args, **kwargs)
        monkeypatch.setattr(module, "run_forward", counting)
    code = cli.main(["evaluate", "--model", "toy", "--seed", "7",
                     "--image", str(tmp_path / "img.ppm"),
                     "--attribution", str(tmp_path / "att.csv"), "--out", str(tmp_path / "ev")])
    assert code == 0
    assert calls == {"cli": 0, "evaluate": 128}
    # insertion ends at the untouched image, for the class explain picked
    last = (tmp_path / "ev.insertion.csv").read_text().splitlines()[-2]
    p_c = run_forward(graph, sample.normalized)[state.class_index]
    assert last == f"{format_float(1.0)},{format_float(p_c)}"
