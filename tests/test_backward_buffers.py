"""The backward pass's buffers: the per-call conv workspace, the rule functions'
promise to only read their arguments, and the slim forward trace."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from relprop import lrp, ops
from relprop.forward import BlockTrace, run_forward
from relprop.model import generate_toy_resnet

from conftest import make_sample


def rnd(seed):
    return np.random.default_rng(seed)


def conv_case(seed, c_in, c_out, hw, k, stride, padding):
    """Post-ReLU input with a dead channel (zero z+ denominators), signed zeros
    in the relevance, and weights of both signs; all float64."""
    g = rnd(seed)
    x = np.maximum(g.normal(size=(c_in, hw, hw)), 0.0)
    x[0] = 0.0
    weight = g.normal(size=(c_out, c_in, k, k))
    out_hw = (hw + 2 * padding - k) // stride + 1
    r_out = g.normal(size=(c_out, out_hw, out_hw))
    r_out[0, 0, 0] = -0.0
    return x, weight, r_out


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class ReadOnlyCheck:
    """Byte snapshots of float64 arguments, which ``_as64`` passes through
    uncopied, so a write into one shows as changed bytes."""

    def __init__(self, *arrays):
        for a in arrays:
            assert lrp._as64(a) is a
        self.arrays = arrays
        self.before = [a.tobytes() for a in arrays]

    def assert_unchanged(self):
        for i, (a, before) in enumerate(zip(self.arrays, self.before)):
            assert a.tobytes() == before, f"argument {i} was written"


CONV_SHAPES = [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)]


def float64_block(bt: BlockTrace) -> BlockTrace:
    """The block trace with every cached array converted to float64."""
    def node(nt):
        return dataclasses.replace(
            nt, x=None if nt.x is None else nt.x.astype(np.float64),
            weight=None if nt.weight is None else nt.weight.astype(np.float64))
    return dataclasses.replace(
        bt, main=[node(nt) for nt in bt.main],
        skip=None if bt.skip is None else [node(nt) for nt in bt.skip],
        h_s=bt.h_s.astype(np.float64), h_m=bt.h_m.astype(np.float64))


class TestArgumentsOnlyRead:
    @pytest.mark.parametrize("k,stride,padding", CONV_SHAPES)
    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    @pytest.mark.parametrize("with_work", [False, True])
    def test_lrp_conv(self, k, stride, padding, rule, with_work):
        x, weight, r_out = conv_case(1, 3, 4, 7, k, stride, padding)
        check = ReadOnlyCheck(x, weight, r_out)
        work = lrp.Workspace() if with_work else None
        r_in = lrp.lrp_conv(x, weight, stride, padding, r_out, rule, work=work)
        check.assert_unchanged()
        assert not any(np.shares_memory(r_in, a) for a in (x, weight, r_out))

    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_lrp_linear(self, rule):
        g = rnd(2)
        h = np.maximum(g.normal(size=6), 0.0)
        weight = g.normal(size=(4, 6))
        weight[1] = -1.0  # a dead output under z+
        r_out = g.normal(size=4)
        check = ReadOnlyCheck(h, weight, r_out)
        lrp.lrp_linear(h, weight, r_out, rule)
        check.assert_unchanged()

    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_lrp_gap(self, rule):
        g = rnd(3)
        x = g.normal(size=(3, 4, 4))
        x[1] = 0.0  # a dead channel under z+
        r_out = g.normal(size=3)
        check = ReadOnlyCheck(x, r_out)
        lrp.lrp_gap(x, r_out, rule)
        check.assert_unchanged()

    @pytest.mark.parametrize("splitting", lrp.SPLITTINGS)
    @pytest.mark.parametrize("include_identity", [True, False])
    @pytest.mark.parametrize("skip_is_identity", [True, False])
    def test_split_relevance(self, splitting, include_identity, skip_is_identity):
        g = rnd(4)
        r, h_s, h_m = (g.normal(size=(2, 3, 3)) for _ in range(3))
        h_s[0, 0] = h_m[0, 0] = 0.0  # degenerate cells fall back to halves
        check = ReadOnlyCheck(r, h_s, h_m)
        r_s, r_m = lrp.split_relevance(r, h_s, h_m, splitting, include_identity,
                                       skip_is_identity)
        check.assert_unchanged()
        for out in (r_s, r_m):
            assert not any(np.shares_memory(out, a) for a in (r, h_s, h_m))
        assert not np.shares_memory(r_s, r_m)

    @pytest.mark.parametrize("block", [0, 1])  # projection skip, identity skip
    @pytest.mark.parametrize("splitting", lrp.SPLITTINGS)
    @pytest.mark.parametrize("include_identity", [True, False])
    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_propagate_bottleneck(self, block, splitting, include_identity, rule):
        graph = generate_toy_resnet(5, channels=4, blocks=2, num_classes=3, input_hw=8)
        trace = run_forward(graph, make_sample(graph, seed=6).normalized,
                            want_trace=True)
        bt = float64_block(trace.blocks[block])
        r = rnd(7).normal(size=bt.h_m.shape)
        arrays = [r, bt.h_s, bt.h_m] + [a for nt in bt.main + (bt.skip or [])
                                       for a in (nt.x, nt.weight) if a is not None]
        check = ReadOnlyCheck(*arrays)
        config = lrp.RuleConfig(splitting=splitting, include_identity=include_identity)
        out = lrp.propagate_bottleneck(bt, r, config, rule, work=lrp.Workspace())
        check.assert_unchanged()
        assert not any(np.shares_memory(out, a) for a in arrays)


class TestWorkspace:
    @pytest.mark.parametrize("k,stride,padding", CONV_SHAPES)
    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_fresh_workspace_matches_none(self, k, stride, padding, rule):
        x, weight, r_out = conv_case(8, 3, 4, 7, k, stride, padding)
        expected = lrp.lrp_conv(x, weight, stride, padding, r_out, rule)
        got = lrp.lrp_conv(x, weight, stride, padding, r_out, rule,
                           work=lrp.Workspace())
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("k,stride,padding", CONV_SHAPES)
    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_stale_workspace_matches_none(self, k, stride, padding, rule):
        work = lrp.Workspace()
        big = conv_case(9, 5, 6, 10, 3, 1, 1)
        lrp.lrp_conv(*big[:2], 1, 1, big[2], rule, work=work)
        for buf in work.take((5 * 9, 100)):
            buf[:5] = np.nan  # leftovers a stray read would carry into the result
        x, weight, r_out = conv_case(10, 3, 4, 7, k, stride, padding)
        expected = lrp.lrp_conv(x, weight, stride, padding, r_out, rule)
        got = lrp.lrp_conv(x, weight, stride, padding, r_out, rule, work=work)
        assert_same_bits(got, expected)

    def test_buffers_are_reused_and_grow(self):
        work = lrp.Workspace()
        cols, shares = work.take((4, 5))
        assert cols.shape == shares.shape == (4, 5)
        assert cols.flags.c_contiguous and not np.shares_memory(cols, shares)
        small_cols, small_shares = work.take((2, 3))
        assert np.shares_memory(small_cols, cols) and np.shares_memory(small_shares, shares)
        big_cols, _ = work.take((8, 5))
        assert big_cols.shape == (8, 5) and not np.shares_memory(big_cols, cols)

    def test_im2col_into_buffer_matches_fresh(self):
        x = rnd(11).normal(size=(2, 7, 7))
        expected = ops.im2col(x, 3, 2, 3, 3)
        out = np.full((18, 9), np.nan)
        assert ops.im2col(x, 3, 2, 3, 3, out=out) is out
        assert_same_bits(out, expected)
        with pytest.raises(ops.ShapeMismatch):
            ops.im2col(x, 3, 2, 3, 3, out=np.empty((9, 18)).T)

    @pytest.mark.parametrize("padding", [0, 1])
    def test_pointwise_im2col_is_a_view_of_its_input(self, padding):
        xpad = ops.pad2d(rnd(12).normal(size=(3, 4, 5)), padding, 0.0)
        hp, wp = xpad.shape[1:]
        out = np.full((3, hp * wp), np.nan)
        cols = ops.im2col(xpad, 1, 1, hp, wp, out=out)
        assert np.shares_memory(cols, xpad) and not np.shares_memory(cols, out)
        assert_same_bits(cols, xpad.reshape(3, -1))

    def test_concurrent_explains_match_sequential(self):
        graph = generate_toy_resnet(12, channels=8, blocks=2, num_classes=5, input_hw=32)
        samples = [make_sample(graph, seed=s, hw=32) for s in range(8)]
        expected = [lrp.explain(graph, s)[0].raw for s in samples]
        workers = 4
        results = [[] for _ in range(workers)]

        def run(w):
            for j in range(len(samples)):
                i = (j + 2 * w) % len(samples)
                results[w].append((i, lrp.explain(graph, samples[i])[0].raw))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(len(r) == len(samples) for r in results)
        for i, got in (pair for r in results for pair in r):
            assert_same_bits(got, expected[i])


class TestSlimTrace:
    def test_inputs_kept_only_where_backward_reads_them(self):
        graph = generate_toy_resnet(13, channels=4, blocks=2, num_classes=5, input_hw=8)
        trace = run_forward(graph, make_sample(graph, seed=14).normalized,
                            want_trace=True)
        nodes = trace.stem + trace.head + [nt for bt in trace.blocks
                                           for nt in bt.main + (bt.skip or [])]
        kinds = {nt.spec.kind for nt in nodes}
        assert kinds == {"conv", "bn", "relu", "maxpool", "gap", "fc", "softmax"}
        for nt in nodes:
            keeps = nt.spec.kind in ("conv", "fc", "gap")
            assert (nt.x is not None) == keeps, nt.spec.kind
            if keeps:
                assert nt.x.shape == nt.x_shape

    def test_shapes_still_checked(self):
        graph = generate_toy_resnet(15, channels=4, blocks=1, num_classes=3, input_hw=8)
        trace = run_forward(graph, make_sample(graph, seed=16).normalized,
                            want_trace=True)
        for nt in trace.blocks[0].main:
            if nt.spec.kind in ("bn", "relu"):
                wrong = np.zeros((nt.x_shape[0] + 1,) + nt.x_shape[1:])
                with pytest.raises(ops.ShapeMismatch, match="activation shape"):
                    lrp.node_backward(nt, wrong, "zplus", 1e-6)
        pool = trace.stem[-1]
        assert pool.spec.kind == "maxpool" and pool.x_shape == (4, 8, 8)
        r_in = lrp.node_backward(pool, np.ones(pool.pool_indices.shape), "zplus", 1e-6)
        assert r_in.shape == pool.x_shape and r_in.sum() == pool.pool_indices.size
