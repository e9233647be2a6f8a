import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relprop import lrp, ops
from relprop.forward import run_forward
from relprop.image import ImageSample
from relprop.model import (BottleneckSpec, ModelGraph, NodeSpec, Preprocess,
                           generate_toy_resnet, validate_graph)

from conftest import make_sample
from helpers import (fc_oracle_explain, lrp_conv1x1_im2col_reference,
                     maxpool_winner_matrix, share_matrix_lrp, unrolled_conv_matrix)


def rnd(seed):
    return np.random.default_rng(seed)


class TestSeedRelevance:
    def test_places_probability_at_class(self):
        assert lrp.seed_relevance(np.array([0.5, 0.5]), 0).tolist() == [0.5, 0.0]

    def test_other_classes_zero(self):
        assert lrp.seed_relevance(np.array([0.9, 0.1]), 1).tolist() == [0.0, 0.1]

    def test_sum_equals_probability(self):
        probs = ops.softmax(rnd(0).normal(size=7).astype(np.float32))
        seed = lrp.seed_relevance(probs, 3)
        assert float(seed.sum()) == float(probs[3])

    def test_class_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            lrp.seed_relevance(np.array([1.0, 0.0]), 2)


class TestLrpLinear:
    def test_identity_projection(self):
        h = np.array([0.3, 1.2, 0.0, 4.0])
        r_out = np.array([0.1, 0.2, 0.3, 0.4])
        r_in = lrp.lrp_linear(h, np.eye(4), r_out)
        # the zero-activation unit has a dead column; its relevance spreads
        expected = r_out.copy()
        expected[2] = 0.0
        expected += 0.3 / 4
        np.testing.assert_allclose(r_in, expected, atol=1e-15)

    def test_identity_projection_positive_h(self):
        h = np.array([0.3, 1.2, 0.5, 4.0])
        r_out = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(lrp.lrp_linear(h, np.eye(4), r_out), r_out)

    def test_forced_shares(self):
        r_in = lrp.lrp_linear(np.array([1.0, 3.0]), np.array([[1.0, 1.0]]),
                              np.array([1.0]))
        assert r_in.tolist() == [0.25, 0.75]

    def test_matches_share_matrix_oracle(self):
        rng = rnd(1)
        for case in range(50):
            h = rng.uniform(0.0, 2.0, size=4)
            w = rng.normal(size=(3, 4))
            r_out = rng.uniform(0.0, 1.0, size=3)
            mine = lrp.lrp_linear(h, w, r_out)
            want = share_matrix_lrp(h, w, r_out)
            assert np.abs(mine - want).max() < 1e-6, f"case {case}"

    def test_zero_denominator_redistributes_uniformly(self):
        h = np.array([1.0, 2.0])
        w = np.array([[-1.0, -2.0], [1.0, 1.0]])  # first row all-negative: dead
        r_out = np.array([0.6, 0.3])
        r_in = lrp.lrp_linear(h, w, r_out)
        want = np.array([0.1, 0.2]) + 0.6 / 2
        np.testing.assert_allclose(r_in, want, atol=1e-15)
        assert float(r_in.sum()) == pytest.approx(0.9, rel=1e-12)

    def test_conservation_seeded(self):
        rng = rnd(2)
        for _ in range(100):
            d, e = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            h = rng.normal(size=d)
            w = rng.normal(size=(e, d))
            r_out = rng.uniform(0.0, 1.0, size=e)
            r_in = lrp.lrp_linear(h, w, r_out)
            assert abs(r_in.sum() - r_out.sum()) <= 1e-6 * abs(r_out.sum())

    def test_epsilon_matches_formula(self):
        rng = rnd(3)
        h = rng.normal(size=5)
        w = rng.normal(size=(4, 5))
        r_out = rng.uniform(0.0, 1.0, size=4)
        mine = lrp.lrp_linear(h, w, r_out, rule="epsilon", epsilon=1e-3)
        want = share_matrix_lrp(h, w, r_out, rule="epsilon", epsilon=1e-3)
        np.testing.assert_allclose(mine, want, atol=1e-12)

    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_exact_zeros_are_positive_like_the_1x1_conv(self, rule):
        # Zero inputs times negative back-projected shares are -0.0 products;
        # an fc layer is the 1x1 conv on a 1x1 map and returns +0.0 like it.
        h = np.array([0.0, 1.0, 2.0, 0.0])
        w = np.array([[1.0, 2.0, 0.5, -1.0], [0.5, -1.0, 1.0, 2.0]])
        r_out = np.array([-0.6, 0.3])
        r_in = lrp.lrp_linear(h, w, r_out, rule, 1e-3)
        conv = lrp.lrp_conv(h.reshape(4, 1, 1), w.reshape(2, 4, 1, 1), 1, 0,
                            r_out.reshape(2, 1, 1), rule, 1e-3)
        assert np.array_equal(r_in, conv.ravel())
        assert (r_in == 0.0).sum() == 2 and not np.signbit(r_in[r_in == 0.0]).any()

    def test_epsilon_leaks_but_stays_close(self):
        rng = rnd(4)
        h = rng.uniform(0.1, 1.0, size=6)
        w = rng.uniform(0.1, 1.0, size=(4, 6))
        r_out = rng.uniform(0.1, 1.0, size=4)
        r_in = lrp.lrp_linear(h, w, r_out, rule="epsilon", epsilon=1e-4)
        leak = abs(r_in.sum() - r_out.sum()) / r_out.sum()
        assert 0 < leak < 1e-3


class TestLrpConv:
    def test_one_by_one_behaves_per_pixel(self):
        rng = rnd(5)
        x = rng.uniform(0.1, 1.0, size=(1, 3, 3))
        r_out = rng.uniform(0.0, 1.0, size=(1, 3, 3))
        r_in = lrp.lrp_conv(x, np.array([[[[1.0]]]]), 1, 0, r_out)
        np.testing.assert_allclose(r_in, r_out, atol=1e-12)

    def test_forced_single_window(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 3, 3)
        w = np.ones((1, 1, 3, 3))
        r_in = lrp.lrp_conv(x, w, 1, 0, np.array([[[1.0]]]))
        np.testing.assert_allclose(r_in.ravel(), np.arange(1, 10) / 45.0, atol=1e-12)

    def test_matches_unrolled_matrix_oracle(self):
        rng = rnd(6)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        r_out = rng.uniform(0.0, 1.0, size=(3, 4, 4))
        mine = lrp.lrp_conv(x, w, 1, 1, r_out)
        mat = unrolled_conv_matrix(x.shape, w, 1, 1)
        want = share_matrix_lrp(x.ravel(), mat, r_out.ravel()).reshape(x.shape)
        assert np.abs(mine - want).max() < 1e-6

    def test_matches_unrolled_matrix_oracle_strided(self):
        rng = rnd(7)
        x = rng.normal(size=(2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        r_out = rng.uniform(0.0, 1.0, size=(2, 3, 3))
        mine = lrp.lrp_conv(x, w, 2, 1, r_out)
        mat = unrolled_conv_matrix(x.shape, w, 2, 1)
        want = share_matrix_lrp(x.ravel(), mat, r_out.ravel()).reshape(x.shape)
        assert np.abs(mine - want).max() < 1e-6

    def test_padding_absorbs_nothing(self):
        rng = rnd(8)
        x = rng.uniform(0.1, 1.0, size=(1, 4, 4))
        w = rng.uniform(0.0, 1.0, size=(2, 1, 3, 3))
        r_out = rng.uniform(0.0, 1.0, size=(2, 4, 4))
        r_in = lrp.lrp_conv(x, w, 1, 1, r_out)
        assert abs(r_in.sum() - r_out.sum()) <= 1e-9 * r_out.sum()

    def test_dead_filter_conserves(self):
        x = np.ones((1, 2, 2))
        w = -np.ones((1, 1, 1, 1))  # w+ is zero: every output is dead
        r_out = np.full((1, 2, 2), 0.25)
        r_in = lrp.lrp_conv(x, w, 1, 0, r_out)
        np.testing.assert_allclose(r_in, np.full((1, 2, 2), 0.25), atol=1e-15)

    @pytest.mark.parametrize("rule", ["zplus", "epsilon"])
    def test_pointwise_matches_im2col_reference(self, rule):
        # Post-ReLU input: its zeros times negative shares give -0.0 cells,
        # which col2im_add turns into +0.0.
        rng = rnd(10)
        x = np.maximum(rng.normal(size=(8, 6, 6)), 0.0).astype(np.float32)
        w = rng.uniform(-0.5, 0.5, size=(4, 8, 1, 1)).astype(np.float32)
        r_out = rng.normal(size=(4, 6, 6))
        mine = lrp.lrp_conv(x, w, 1, 0, r_out, rule, 1e-6)
        want = lrp_conv1x1_im2col_reference(x, w, r_out, rule, 1e-6)
        assert np.array_equal(mine, want)
        assert np.array_equal(np.signbit(mine), np.signbit(want))
        assert not np.signbit(mine[mine == 0.0]).any()

    def test_pointwise_dead_filter_matches_im2col_reference(self):
        x = np.zeros((2, 3, 3))
        x[0, 1, 1] = 2.0
        w = np.array([[[[1.0]], [[-1.0]]], [[[-1.0]], [[-2.0]]]])
        r_out = np.arange(18, dtype=np.float64).reshape(2, 3, 3)
        mine = lrp.lrp_conv(x, w, 1, 0, r_out)
        want = lrp_conv1x1_im2col_reference(x, w, r_out)
        assert np.array_equal(mine, want)
        assert np.array_equal(np.signbit(mine), np.signbit(want))


class TestLrpMaxpool:
    def test_routes_to_winner(self):
        r_in = lrp.lrp_maxpool(np.array([[[3]]]), np.array([[[1.0]]]), (1, 2, 2))
        assert r_in.ravel().tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_non_overlapping_histogram(self):
        rng = rnd(9)
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        _, idx = ops.maxpool_forward(x, k=2, stride=2)
        r_out = rng.uniform(0.5, 1.0, size=idx.shape)
        r_in = lrp.lrp_maxpool(idx, r_out, x.shape)
        assert sorted(r_in[r_in != 0].tolist()) == sorted(r_out.ravel().tolist())

    def test_overlapping_matches_winner_matrix(self):
        rng = rnd(10)
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        out, idx = ops.maxpool_forward(x, k=2, stride=1)
        r_out = rng.uniform(0.0, 1.0, size=out.shape)
        mine = lrp.lrp_maxpool(idx, r_out, x.shape)
        mat = maxpool_winner_matrix(x, 2, 1)
        want = (mat.T @ r_out.ravel()).reshape(x.shape)
        np.testing.assert_allclose(mine, want, atol=1e-12)

    def test_sum_exactly_conserved(self):
        rng = rnd(11)
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        _, idx = ops.maxpool_forward(x, k=3, stride=1, padding=1)
        r_out = rng.uniform(0.0, 1.0, size=idx.shape)
        r_in = lrp.lrp_maxpool(idx, r_out, x.shape)
        assert abs(r_in.sum() - r_out.sum()) <= 1e-12 * r_out.sum()


class TestLrpGap:
    def test_constant_channel_uniform(self):
        x = np.full((1, 2, 3), 4.0)
        r_in = lrp.lrp_gap(x, np.array([1.0]))
        np.testing.assert_allclose(r_in, np.full((1, 2, 3), 1 / 6), atol=1e-15)

    def test_forced_shares(self):
        r_in = lrp.lrp_gap(np.array([[[1.0, 3.0]]]), np.array([1.0]))
        assert r_in.ravel().tolist() == [0.25, 0.75]

    def test_mixed_signs_match_linear_row(self):
        rng = rnd(12)
        x = rng.normal(size=(3, 2, 4))
        r_out = rng.uniform(0.0, 1.0, size=3)
        mine = lrp.lrp_gap(x, r_out)
        hw = 8
        for c in range(3):
            row = np.full((1, hw), 1.0 / hw)
            want = share_matrix_lrp(x[c].ravel(), row, r_out[c:c + 1])
            np.testing.assert_allclose(mine[c].ravel(), want, atol=1e-9)

    def test_zero_channel_redistributes(self):
        x = np.zeros((2, 2, 2))
        r_out = np.array([0.8, 0.0])
        r_in = lrp.lrp_gap(x, r_out)
        np.testing.assert_allclose(r_in[0], np.full((2, 2), 0.2), atol=1e-15)
        np.testing.assert_allclose(r_in[1], 0.0, atol=1e-15)


class TestPassthrough:
    def test_returns_same_values(self):
        r = rnd(13).normal(size=(2, 3, 3))
        out = lrp.passthrough(r)
        assert np.array_equal(out, r)
        assert float(out.sum()) == float(r.sum())

    def test_composition_idempotent(self):
        r = rnd(14).normal(size=(4,))
        assert np.array_equal(lrp.passthrough(lrp.passthrough(r)), lrp.passthrough(r))


class TestSplitRelevance:
    def test_symmetric_halves(self):
        r = np.array([1.0])
        r_s, r_m = lrp.split_relevance(r, np.array([9.0]), np.array([1.0]),
                                       "symmetric", True, False)
        assert r_s.tolist() == [0.5] and r_m.tolist() == [0.5]

    def test_ratio_forced(self):
        r_s, r_m = lrp.split_relevance(np.array([1.0]), np.array([1.0]),
                                       np.array([3.0]), "ratio", True, False)
        assert r_s.tolist() == [0.25] and r_m.tolist() == [0.75]

    def test_ratio_degenerate_falls_back(self):
        r_s, r_m = lrp.split_relevance(np.array([0.8]), np.array([0.0]),
                                       np.array([0.0]), "ratio", True, False)
        assert r_s.tolist() == [0.4] and r_m.tolist() == [0.4]

    def test_exclude_identity_sends_all_to_main(self):
        r = np.array([1.0, -2.0])
        r_s, r_m = lrp.split_relevance(r, r, r, "ratio", False, True)
        assert np.all(r_s == 0.0) and np.array_equal(r_m, r)

    def test_projection_skip_still_splits_when_excluded(self):
        r = np.array([1.0])
        r_s, r_m = lrp.split_relevance(r, np.array([1.0]), np.array([1.0]),
                                       "symmetric", False, False)
        assert r_s.tolist() == [0.5] and r_m.tolist() == [0.5]

    def test_zero_main_gives_all_to_skip_exactly(self):
        rng = rnd(15)
        r = rng.normal(size=16)
        h_s = rng.uniform(0.5, 2.0, size=16) * np.sign(rng.normal(size=16))
        r_s, r_m = lrp.split_relevance(r, h_s, np.zeros(16), "ratio", True, True)
        assert np.array_equal(r_s, r)
        assert np.all(r_m == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, 8,
                      elements=st.floats(-1e6, 1e6, allow_nan=False)),
           hnp.arrays(np.float64, 8, elements=st.floats(-1e3, 1e3)),
           hnp.arrays(np.float64, 8, elements=st.floats(-1e3, 1e3)),
           st.sampled_from(["symmetric", "ratio"]))
    def test_split_identity_within_one_ulp(self, r, h_s, h_m, splitting):
        r_s, r_m = lrp.split_relevance(r, h_s, h_m, splitting, True, True)
        err = np.abs((r_s + r_m) - r)
        assert np.all(err <= np.spacing(np.abs(r)))


def single_block_trace(seed, channels=4, input_hw=8):
    graph = generate_toy_resnet(seed, channels=channels, blocks=1, num_classes=3,
                                input_hw=input_hw)
    sample = make_sample(graph, seed=seed + 1000, hw=input_hw)
    trace = run_forward(graph, sample.normalized, want_trace=True)
    return graph, trace.blocks[0]


class TestPropagateBottleneck:
    def test_zero_main_path_passes_skip_untouched(self):
        # stemless graph: the identity skip carries the (strictly positive)
        # input, the zero-weight main path contributes exactly nothing
        tensors = {
            "b.conv.w": np.zeros((3, 3, 3, 3), dtype=np.float32),
            "fc.w": np.ones((2, 3), dtype=np.float32),
        }
        block_spec = BottleneckSpec(
            main=(NodeSpec("conv", weight="b.conv.w", stride=1, padding=1),),
            skip=None)
        zgraph = ModelGraph(preprocess=Preprocess((0.0,) * 3, (1.0,) * 3),
                            stem=(), blocks=(block_spec,),
                            head=(NodeSpec("gap"), NodeSpec("fc", weight="fc.w"),
                                  NodeSpec("softmax")),
                            num_classes=2, tensors=tensors)
        validate_graph(zgraph)
        x = rnd(3).uniform(0.1, 1.0, size=(3, 4, 4)).astype(np.float32)
        trace = run_forward(zgraph, x, want_trace=True)
        bt = trace.blocks[0]
        assert np.all(bt.h_m == 0.0) and np.all(np.abs(bt.h_s) > 0)
        r = np.abs(rnd(4).normal(size=bt.h_m.shape))
        out = lrp.propagate_bottleneck(bt, r, lrp.RuleConfig(splitting="ratio"))
        np.testing.assert_array_equal(out, r)

    def test_conservation_symmetric_identity_skip(self):
        graph = generate_toy_resnet(22, channels=4, blocks=2, num_classes=3,
                                    input_hw=8)
        sample = make_sample(graph, seed=5)
        trace = run_forward(graph, sample.normalized, want_trace=True)
        bt = trace.blocks[1]
        assert bt.spec.identity_skip
        r = np.abs(rnd(6).normal(size=bt.h_m.shape))
        out = lrp.propagate_bottleneck(
            bt, r, lrp.RuleConfig(splitting="symmetric", include_identity=True))
        assert abs(out.sum() - r.sum()) <= 1e-6 * abs(r.sum())

    def test_exclude_identity_equals_pure_main(self):
        graph, _ = single_block_trace(23)
        sample = make_sample(graph, seed=7)
        trace = run_forward(graph, sample.normalized, want_trace=True)
        # append an extra pass over an identity-skip block
        graph2 = generate_toy_resnet(23, channels=4, blocks=2, num_classes=3,
                                     input_hw=8)
        trace2 = run_forward(graph2, make_sample(graph2, seed=7).normalized,
                             want_trace=True)
        bt = trace2.blocks[1]
        r = np.abs(rnd(8).normal(size=bt.h_m.shape))
        cfg = lrp.RuleConfig(splitting="ratio", include_identity=False)
        out = lrp.propagate_bottleneck(bt, r, cfg)
        r_m = r.copy()
        for nt in reversed(bt.main):
            r_m = lrp.node_backward(nt, r_m, "zplus", cfg.epsilon)
        np.testing.assert_array_equal(out, r_m)

    def test_projection_skip_conserves(self):
        graph, bt = single_block_trace(24)
        assert not bt.spec.identity_skip
        r = np.abs(rnd(9).normal(size=bt.h_m.shape))
        out = lrp.propagate_bottleneck(
            bt, r, lrp.RuleConfig(splitting="ratio", include_identity=True))
        assert abs(out.sum() - r.sum()) <= 1e-6 * abs(r.sum())


class TestExplain:
    def test_conservation_zplus(self, toy_graph):
        sample = make_sample(toy_graph, seed=31)
        probs = run_forward(toy_graph, sample.normalized)
        c = int(np.argmax(probs))
        _, state = lrp.explain(toy_graph, sample, c, lrp.RuleConfig())
        p_c = float(probs[c])
        for label, total in state.checkpoint_sums:
            assert abs(total - p_c) <= 1e-5 * p_c, label

    def test_class_defaults_to_argmax_of_its_own_forward(self, toy_graph):
        sample = make_sample(toy_graph, seed=30)
        c = int(np.argmax(run_forward(toy_graph, sample.normalized)))
        amap, state = lrp.explain(toy_graph, sample)
        want_map, want_state = lrp.explain(toy_graph, sample, c)
        assert state.class_index == want_state.class_index == c
        assert state.checkpoint_sums == want_state.checkpoint_sums
        assert np.array_equal(amap.values, want_map.values)

    def test_class_ties_go_to_lowest_index(self):
        # A zero fc weight and bias make every logit equal.
        graph = generate_toy_resnet(29, channels=4, blocks=1, num_classes=3, input_hw=8)
        tensors = {name: np.zeros_like(arr) if name.startswith("head.fc") else arr
                   for name, arr in graph.tensors.items()}
        flat = ModelGraph(preprocess=graph.preprocess, stem=graph.stem,
                          blocks=graph.blocks, head=graph.head,
                          num_classes=graph.num_classes, tensors=tensors)
        _, state = lrp.explain(flat, make_sample(flat, seed=29))
        assert state.class_index == 0

    def test_checkpoints_cover_required_points(self, toy_graph):
        sample = make_sample(toy_graph, seed=32)
        _, state = lrp.explain(toy_graph, sample, 0, lrp.RuleConfig())
        labels = [l for l, _ in state.checkpoint_sums]
        assert labels[0] == "seed"
        assert "block_1_input" in labels and "block_2_input" in labels
        assert labels[-1] == "network_input"

    def test_epsilon_drift_reported_not_conserved(self, toy_graph):
        sample = make_sample(toy_graph, seed=33)
        _, state = lrp.explain(toy_graph, sample, 1,
                               lrp.RuleConfig(rule="epsilon", epsilon=1e-4))
        sums = dict(state.checkpoint_sums)
        p_c = sums["seed"]
        drift = abs(sums["network_input"] - p_c)
        assert np.isfinite(drift)
        assert drift > 0  # the stabilized denominators leak by construction

    def test_mixture_conserves_below_boundary(self, toy_graph):
        sample = make_sample(toy_graph, seed=34)
        cfg = lrp.RuleConfig(rule="mixture", mixture_boundary=2)
        _, state = lrp.explain(toy_graph, sample, 0, cfg)
        sums = dict(state.checkpoint_sums)
        # boundary = block count: every block runs z+, only the head leaks
        drift_inside = abs(sums["network_input"] - sums["block_2_input"])
        assert drift_inside <= 1e-9 * sums["seed"]

    @pytest.mark.parametrize("rule", lrp.RULES)
    @pytest.mark.parametrize("blocks", [1, 2, 8])
    def test_rule_at_matches_stem_block_head_rules(self, rule, blocks):
        # The reference, part by part: under mixture the stem is always z+,
        # block b is epsilon from the boundary on, and the head is always epsilon.
        for boundary in range(blocks + 1):
            cfg = lrp.RuleConfig(rule=rule, mixture_boundary=boundary)
            mixture = rule == "mixture"
            assert cfg.rule_at(-1) == ("zplus" if mixture else rule)
            for b in range(blocks):
                want = ("epsilon" if b >= boundary else "zplus") if mixture else rule
                assert cfg.rule_at(b) == want
            assert cfg.rule_at(blocks) == ("epsilon" if mixture else rule)

    def test_unset_mixture_boundary_has_no_rule_by_depth(self):
        # Only the model's block count says what an unset boundary means.
        with pytest.raises(ValueError, match="mixture_boundary is unset"):
            lrp.RuleConfig(rule="mixture").rule_at(0)

    def test_mixture_boundary_validated(self, toy_graph):
        sample = make_sample(toy_graph, seed=35)
        with pytest.raises(ValueError, match="mixture_boundary"):
            lrp.explain(toy_graph, sample, 0,
                        lrp.RuleConfig(rule="mixture", mixture_boundary=5))

    def test_zero_image_on_bias_free_model_conserves(self):
        # All activations vanish, so every projection hits the uniform
        # fallback; conservation still pins each checkpoint to p_c = 1/C.
        graph = generate_toy_resnet(36, channels=4, blocks=1, num_classes=4,
                                    input_hw=8)
        tensors = dict(graph.tensors)
        tensors["head.fc.b"] = np.zeros_like(tensors["head.fc.b"])
        bias_free = ModelGraph(preprocess=Preprocess((0.0,) * 3, (1.0,) * 3),
                               stem=graph.stem, blocks=graph.blocks, head=graph.head,
                               num_classes=graph.num_classes, tensors=tensors)
        raw = np.zeros((3, 8, 8), dtype=np.float32)
        sample = ImageSample(raw=raw, normalized=raw.copy(), path="<zero>")
        amap, state = lrp.explain(bias_free, sample, 0, lrp.RuleConfig())
        for label, total in state.checkpoint_sums:
            assert total == pytest.approx(0.25, rel=1e-9), label
        assert amap.raw.sum() == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("splitting", ["symmetric", "ratio"])
    @pytest.mark.parametrize("include_identity", [True, False])
    def test_conservation_for_every_split_config(self, toy_graph, splitting,
                                                 include_identity):
        sample = make_sample(toy_graph, seed=37)
        cfg = lrp.RuleConfig(splitting=splitting, include_identity=include_identity)
        _, state = lrp.explain(toy_graph, sample, 2, cfg)
        sums = [s for _, s in state.checkpoint_sums]
        assert max(abs(s - sums[0]) for s in sums) <= 1e-5 * sums[0]

    def test_fc_chain_matches_brute_force_oracle(self):
        rng = rnd(38)
        for case in range(20):
            graph, x0 = _random_fc_graph(rng)
            raw = (x0 * 255).astype(np.float32).reshape(3, 1, 1)
            sample = ImageSample(raw=raw, normalized=x0.reshape(3, 1, 1), path="<fc>")
            c = int(rng.integers(graph.num_classes))
            _, state = lrp.explain(graph, sample, c, lrp.RuleConfig())
            want, probs = fc_oracle_explain(graph, x0, c)
            assert np.abs(state.current.ravel() - want).max() < 1e-6, f"case {case}"


def _random_fc_graph(rng) -> tuple[ModelGraph, np.ndarray]:
    """A 1x1-image conv/fc chain: <=3 projections, <=8 units per layer."""
    depth = int(rng.integers(1, 4))
    dims = [3] + [int(rng.integers(2, 9)) for _ in range(depth - 1)]
    classes = int(rng.integers(2, 9))
    tensors = {}
    stem = []
    for i in range(depth - 1):
        name = f"conv{i}.w"
        tensors[name] = rng.uniform(-0.5, 0.5,
                                    size=(dims[i + 1], dims[i], 1, 1)).astype(np.float32)
        stem.append(NodeSpec("conv", weight=name))
        stem.append(NodeSpec("relu"))
    tensors["fc.w"] = rng.uniform(-0.5, 0.5, size=(classes, dims[-1])).astype(np.float32)
    tensors["fc.b"] = rng.uniform(-0.5, 0.5, size=classes).astype(np.float32)
    head = (NodeSpec("gap"), NodeSpec("fc", weight="fc.w", bias="fc.b"),
            NodeSpec("softmax"))
    graph = ModelGraph(preprocess=Preprocess((0.0,) * 3, (1.0,) * 3),
                       stem=tuple(stem), blocks=(), head=head,
                       num_classes=classes, tensors=tensors)
    validate_graph(graph)
    x0 = rng.normal(size=3).astype(np.float32)
    return graph, x0


class TestChannelSum:
    def test_sums_across_channels(self):
        r0 = np.array([[[1.0]], [[2.0]], [[3.0]]])
        assert lrp.channel_sum(r0).tolist() == [[6.0]]

    def test_zero_tensor(self):
        assert np.all(lrp.channel_sum(np.zeros((3, 2, 2))) == 0.0)

    def test_total_preserved(self):
        r0 = rnd(40).normal(size=(3, 4, 4))
        assert lrp.channel_sum(r0).sum() == pytest.approx(r0.sum(), rel=1e-12)


class TestHeatQuantize:
    def test_binwidth_forced_values(self):
        raw = np.arange(8, dtype=np.float64).reshape(1, 8)
        out = lrp.heat_quantize(raw, 8, "binwidth")
        np.testing.assert_allclose(out.ravel(), np.arange(8) * 0.875, atol=1e-12)

    def test_paper_mode_scales_by_bin_count(self):
        raw = np.arange(8, dtype=np.float64).reshape(1, 8)
        out = lrp.heat_quantize(raw, 8, "paper")
        np.testing.assert_allclose(out.ravel(), np.arange(8) * 8.0, atol=1e-12)

    def test_constant_map_unchanged(self):
        raw = np.full((3, 3), 2.5)
        for mode in ("paper", "binwidth"):
            assert np.array_equal(lrp.heat_quantize(raw, 8, mode), raw)

    def test_single_bin_collapses_to_min(self):
        raw = rnd(41).normal(size=(4, 4))
        for mode in ("paper", "binwidth"):
            assert np.all(lrp.heat_quantize(raw, 1, mode) == raw.min())

    @pytest.mark.parametrize("mode", ["paper", "binwidth"])
    def test_subnormal_range_unchanged(self, mode):
        # (hi - lo) / bins underflows to 0; dividing by it gave NaN levels
        raw = np.array([[5e-324, 0.0, 1e-323]])
        for bins in (4, 12):
            assert np.array_equal(lrp.heat_quantize(raw, bins, mode), raw)

    @pytest.mark.parametrize("mode", ["paper", "binwidth"])
    def test_overflowing_range_gives_finite_ordered_levels(self, mode):
        # hi - lo overflows to inf; (raw - lo) / inf gave NaN levels
        raw = np.array([[-1e308, 0.0, 1e308, 5e307]])
        out = lrp.heat_quantize(raw, 8, mode)
        assert np.all(np.isfinite(out))
        order = np.argsort(raw.ravel(), kind="stable")
        assert np.all(np.diff(out.ravel()[order]) >= 0)
        width = 8.0 if mode == "paper" else 1e308 / 4  # (hi - lo) / 8
        assert out[0, 2] == pytest.approx(-1e308 + 7 * width, rel=1e-15)  # top bin

    def test_max_lands_in_top_bin(self):
        raw = np.array([[0.0, 10.0]])
        out = lrp.heat_quantize(raw, 4, "binwidth")
        assert out[0, 1] == 7.5  # bin 3 of 4, not a phantom 5th bin

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                      elements=st.floats(-1e4, 1e4, allow_nan=False)),
           st.integers(1, 12))
    def test_monotone_and_bounded_levels(self, raw, bins):
        for mode in ("paper", "binwidth"):
            out = lrp.heat_quantize(raw, bins, mode)
            assert len(np.unique(out)) <= max(bins, 1)
            flat_raw, flat_out = raw.ravel(), out.ravel()
            order = np.argsort(flat_raw, kind="stable")
            assert np.all(np.diff(flat_out[order]) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                      elements=st.floats(-1e4, 1e4, allow_nan=False)),
           st.integers(1, 12))
    def test_modes_rank_identically(self, raw, bins):
        a = lrp.heat_quantize(raw, bins, "paper").ravel()
        b = lrp.heat_quantize(raw, bins, "binwidth").ravel()
        assert np.array_equal(np.argsort(-a, kind="stable"),
                              np.argsort(-b, kind="stable"))


class TestNonNegativity:
    def test_zplus_keeps_relevance_nonnegative(self):
        rng = rnd(42)
        for _ in range(50):
            h = rng.uniform(0.0, 2.0, size=5)
            w = rng.normal(size=(4, 5))
            r_out = rng.uniform(0.0, 1.0, size=4)
            assert np.all(lrp.lrp_linear(h, w, r_out) >= 0.0)
            x = rng.uniform(0.0, 1.0, size=(2, 3, 3))
            rc = rng.uniform(0.0, 1.0, size=(3, 3, 3))
            wc = rng.normal(size=(3, 2, 3, 3))
            assert np.all(lrp.lrp_conv(x, wc, 1, 1, rc) >= 0.0)
