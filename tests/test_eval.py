import time

import numpy as np
import pytest

from relprop import evaluate as ev
from relprop import lrp
from relprop.forward import run_forward
from relprop.image import ImageSample
from relprop.model import ModelGraph, NodeSpec, Preprocess, validate_graph

from conftest import make_sample, zero_weight_copy


def amap_of(values, quantized=None):
    return lrp.AttributionMap(raw=np.asarray(values, dtype=np.float64), quantized=quantized)


class TestRankPixels:
    def test_descending_with_row_major_ties(self):
        ranking = ev.rank_pixels(amap_of([[3.0, 1.0], [2.0, 2.0]]))
        assert [tuple(rc) for rc in ranking] == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_constant_map_row_major(self):
        ranking = ev.rank_pixels(amap_of(np.zeros((2, 3))))
        assert [tuple(rc) for rc in ranking] == [(0, 0), (0, 1), (0, 2),
                                                 (1, 0), (1, 1), (1, 2)]

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 5, size=(6, 7)).astype(np.float64)
        ranking = ev.rank_pixels(amap_of(values))
        decorated = sorted(
            ((-values[i, j], i * 7 + j, (i, j)) for i in range(6) for j in range(7)))
        assert [tuple(rc) for rc in ranking] == [d[2] for d in decorated]

    def test_prefers_quantized_values(self):
        raw = np.array([[0.0, 1.0]])
        quantized = np.array([[5.0, 0.0]])
        ranking = ev.rank_pixels(amap_of(raw, quantized))
        assert [tuple(rc) for rc in ranking] == [(0, 0), (0, 1)]

    def test_bijection_onto_grid(self):
        rng = np.random.default_rng(1)
        ranking = ev.rank_pixels(amap_of(rng.normal(size=(5, 4))))
        assert sorted(map(tuple, ranking)) == [(i, j) for i in range(5)
                                               for j in range(4)]


def tiny_sample(seed=0, hw=4) -> ImageSample:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(3, hw, hw)).astype(np.float32)
    normalized = (raw / np.float32(255.0) - np.float32(0.5)) / np.float32(0.25)
    return ImageSample(raw=raw, normalized=normalized, path="<tiny>")


class TestPerturb:
    def test_endpoints(self):
        sample = tiny_sample()
        ranking = ev.rank_pixels(amap_of(np.arange(16.0).reshape(4, 4)))
        assert np.all(ev.perturb(sample, ranking, 0, "insertion") == 0.0)
        assert np.array_equal(ev.perturb(sample, ranking, 0, "deletion"),
                              sample.normalized)
        assert np.array_equal(ev.perturb(sample, ranking, 16, "insertion"),
                              sample.normalized)
        assert np.all(ev.perturb(sample, ranking, 16, "deletion") == 0.0)

    def test_complementarity_every_step(self):
        sample = tiny_sample(seed=2)
        ranking = ev.rank_pixels(amap_of(np.random.default_rng(3).normal(size=(4, 4))))
        for n in range(17):
            ins = ev.perturb(sample, ranking, n, "insertion")
            dele = ev.perturb(sample, ranking, n, "deletion")
            assert np.array_equal(ins + dele, sample.normalized), n

    def test_pixel_means_all_channels(self):
        sample = tiny_sample(seed=4)
        ranking = ev.rank_pixels(amap_of(np.arange(16.0).reshape(4, 4)))
        out = ev.perturb(sample, ranking, 1, "insertion")
        top = tuple(ranking[0])
        assert np.array_equal(out[:, top[0], top[1]],
                              sample.normalized[:, top[0], top[1]])
        out[:, top[0], top[1]] = 0
        assert np.all(out == 0.0)

    def test_n_out_of_range(self):
        sample = tiny_sample()
        ranking = ev.rank_pixels(amap_of(np.zeros((4, 4))))
        with pytest.raises(ValueError, match="n must be"):
            ev.perturb(sample, ranking, 17, "insertion")


class TestCurve:
    def test_constant_model_flat_curve(self, toy_graph):
        constant = zero_weight_copy(toy_graph)
        sample = make_sample(constant, seed=5)
        amap = amap_of(np.random.default_rng(6).normal(size=(8, 8)))
        cur = ev.curve(constant, sample, amap, 0, "insertion", steps=10)
        np.testing.assert_allclose(cur.probabilities, 0.2, atol=1e-7)
        assert cur.auc == pytest.approx(0.2, abs=1e-7)

    def test_deletion_end_equals_insertion_start(self, toy_graph):
        sample = make_sample(toy_graph, seed=7)
        amap = amap_of(np.random.default_rng(8).normal(size=(8, 8)))
        ins = ev.curve(toy_graph, sample, amap, 1, "insertion", steps=8)
        dele = ev.curve(toy_graph, sample, amap, 1, "deletion", steps=8)
        assert ins.probabilities[0] == dele.probabilities[-1]

    def test_full_resolution_matches_enumeration_oracle(self, toy_graph):
        sample = make_sample(toy_graph, seed=9, hw=8)
        amap = amap_of(np.random.default_rng(10).normal(size=(8, 8)))
        n_pixels = 64
        cur = ev.curve(toy_graph, sample, amap, 0, "deletion", steps=n_pixels)
        ranking = ev.rank_pixels(amap)
        assert len(cur.fractions) == n_pixels + 1
        for t, (f, p) in enumerate(cur.points):
            assert f == t / n_pixels
            x = sample.normalized.copy()
            for (i, j) in [tuple(rc) for rc in ranking[:t]]:
                x[:, i, j] = 0.0
            want = float(run_forward(toy_graph, x)[0])
            assert p == want

    def test_fractions_strictly_increasing_with_endpoints(self, toy_graph):
        sample = make_sample(toy_graph, seed=11)
        amap = amap_of(np.random.default_rng(12).normal(size=(8, 8)))
        cur = ev.curve(toy_graph, sample, amap, 0, "insertion", steps=7)
        assert cur.fractions[0] == 0.0 and cur.fractions[-1] == 1.0
        assert np.all(np.diff(cur.fractions) > 0)
        assert np.all((cur.probabilities >= 0) & (cur.probabilities <= 1))

    @pytest.mark.parametrize("total", range(1, 50))
    def test_steps_past_the_pixel_count_change_no_count(self, total):
        for steps in (2, total - 1, total, total + 1, 2 * total + 3, 7 * total):
            if steps < 2:
                continue
            want = {int(np.floor(t * total / steps + 0.5)) for t in range(steps + 1)}
            assert ev._step_counts(total, steps) == sorted(want | {0, total})

    def test_huge_steps_take_no_time(self):
        t0 = time.perf_counter()
        assert ev._step_counts(64, 10**12) == ev._step_counts(64, 64) == list(range(65))
        assert time.perf_counter() - t0 < 1.0

    def test_steps_validation(self, toy_graph):
        sample = make_sample(toy_graph, seed=13)
        with pytest.raises(ValueError, match="steps"):
            ev.curve(toy_graph, sample, amap_of(np.zeros((8, 8))), 0,
                     "insertion", steps=1)

    @pytest.fixture
    def forwards(self, monkeypatch):
        """The number of run_forward calls the curve module makes."""
        calls = []
        original = ev.run_forward
        monkeypatch.setattr(ev, "run_forward",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("class_index", [-1, 5])
    def test_class_out_of_range_rejected_before_any_forward(self, toy_graph, forwards,
                                                            class_index):
        sample = make_sample(toy_graph, seed=14)
        amap = amap_of(np.random.default_rng(15).normal(size=(8, 8)))
        with pytest.raises(ValueError, match=f"class {class_index} out of range for 5"):
            ev.curves(toy_graph, sample, amap, class_index, 4)
        with pytest.raises(ValueError, match=f"class {class_index} out of range for 5"):
            ev.curve(toy_graph, sample, amap, class_index, "deletion", 4)
        assert forwards == []

    def test_map_must_match_the_image(self, toy_graph, forwards):
        sample = make_sample(toy_graph, seed=16)
        amap = amap_of(np.random.default_rng(17).normal(size=(4, 4)))
        with pytest.raises(ValueError, match=r"attribution \(4, 4\) does not match "
                                             r"image \(8, 8\)"):
            ev.curves(toy_graph, sample, amap, None, 4)
        assert forwards == []


class TestAuc:
    def test_constant_curve_auc_equals_level(self):
        fr = np.linspace(0, 1, 11)
        assert ev.trapezoid_auc(fr, np.full(11, 0.37)) == pytest.approx(0.37, abs=1e-12)

    def test_auc_stays_in_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            fr = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 5)]))
            pr = rng.uniform(0, 1, fr.size)
            assert 0.0 <= ev.trapezoid_auc(fr, pr) <= 1.0


class TestIdScore:
    def _curve(self, auc):
        return ev.EvalCurve(fractions=np.array([0.0, 1.0]),
                            probabilities=np.array([auc, auc]), auc=auc)

    def test_difference_arithmetic(self):
        assert ev.id_score(self._curve(0.563), self._curve(0.018)) == \
            pytest.approx(0.545, abs=1e-12)

    def test_identical_curves_zero(self):
        assert ev.id_score(self._curve(0.4), self._curve(0.4)) == 0.0

    def test_difference_survives_rounded_inputs(self):
        assert ev.id_score(self._curve(0.595), self._curve(0.014)) == \
            pytest.approx(0.582, abs=1.5e-3)


class TestConservationReport:
    def test_exact_sums_have_zero_deviation(self):
        state = lrp.RelevanceState(current=np.zeros(1),
                                   checkpoint_sums=[("seed", 0.5), ("input", 0.5)])
        report = ev.conservation_report(state, 0.5)
        assert all(r.relative_deviation == 0.0 for r in report.rows)
        assert report.max_relative_deviation == 0.0

    def test_one_percent_deviation(self):
        state = lrp.RelevanceState(current=np.zeros(1),
                                   checkpoint_sums=[("x", 0.505)])
        report = ev.conservation_report(state, 0.5)
        assert report.rows[0].relative_deviation == pytest.approx(0.01, rel=1e-9)

    def test_engine_run_stays_under_tolerance(self, toy_graph):
        sample = make_sample(toy_graph, seed=15)
        probs = run_forward(toy_graph, sample.normalized)
        c = int(np.argmax(probs))
        _, state = lrp.explain(toy_graph, sample, c, lrp.RuleConfig())
        report = ev.conservation_report(state, float(probs[c]))
        assert report.max_relative_deviation < 1e-5


def linear_two_class_graph(seed=16, hw=4):
    """gap -> fc -> softmax with a zero second row: logit gap is an exact
    linear function of the pixels, so true per-pixel contributions exist."""
    rng = np.random.default_rng(seed)
    w = np.zeros((2, 3), dtype=np.float32)
    w[0] = rng.uniform(0.2, 1.0, size=3)
    tensors = {"fc.w": w}
    graph = ModelGraph(preprocess=Preprocess((0.0,) * 3, (1.0,) * 3), stem=(),
                       blocks=(), head=(NodeSpec("gap"),
                                        NodeSpec("fc", weight="fc.w"),
                                        NodeSpec("softmax")),
                       num_classes=2, tensors=tensors)
    validate_graph(graph)
    raw = rng.integers(0, 256, size=(3, hw, hw)).astype(np.float32)
    sample = ImageSample(raw=raw, normalized=raw / np.float32(255.0), path="<lin>")
    contrib = np.einsum("c,chw->hw", w[0].astype(np.float64),
                        sample.normalized.astype(np.float64)) / (hw * hw)
    return graph, sample, contrib


class TestDeletionOrderSanity:
    def test_descending_deletion_auc_not_higher_than_ascending(self):
        graph, sample, contrib = linear_two_class_graph()
        amap_desc = amap_of(contrib)
        amap_asc = amap_of(-contrib)
        steps = contrib.size
        desc = ev.curve(graph, sample, amap_desc, 0, "deletion", steps=steps)
        asc = ev.curve(graph, sample, amap_asc, 0, "deletion", steps=steps)
        assert desc.auc <= asc.auc


class TestCurveCsv:
    def test_format(self, tmp_path, toy_graph):
        sample = make_sample(toy_graph, seed=17)
        amap = amap_of(np.random.default_rng(18).normal(size=(8, 8)))
        cur = ev.curve(toy_graph, sample, amap, 0, "insertion", steps=4)
        path = tmp_path / "curve.csv"
        ev.write_curve_csv(path, cur)
        lines = path.read_text().splitlines()
        assert lines[0] == "fraction,probability"
        assert lines[-1] == f"# auc={cur.auc!r}"
        assert len(lines) == len(cur.points) + 2
        f0, p0 = lines[1].split(",")
        assert float(f0) == cur.points[0][0] and float(p0) == cur.points[0][1]
