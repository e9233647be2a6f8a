import csv
import gc
import json

import numpy as np
import pytest

from relprop import cli, lrp
from relprop import evaluate as ev
from relprop.image import write_ppm
from relprop.model import ModelGraph, generate_toy_resnet, save_model

from conftest import write_random_ppms, zero_weight_copy


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_image(tmp_path, seed=0, hw=8):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(3, hw, hw)).astype(np.float32)
    path = tmp_path / "img.ppm"
    write_ppm(path, raw)
    return str(path)


class TestInfer:
    def test_topk_lines(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, out, _ = run_cli(["infer", "--model", "toy", "--seed", "7",
                                "--image", img], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        probs = [float(line.split()[1]) for line in lines]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) <= 1.0 + 1e-6

    def test_topk_one_on_two_class_model(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, out, _ = run_cli(["infer", "--model", "toy:4,1,2,8", "--seed", "1",
                                "--image", img, "--topk", "1"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["infer", "--model", "toy",
                                "--image", str(tmp_path / "nope.ppm")], capsys)
        assert code == 2
        assert "error:" in err

    def test_loads_saved_manifest(self, tmp_path, capsys):
        manifest = save_model(generate_toy_resnet(3), tmp_path / "model")
        img = one_image(tmp_path)
        code, out, _ = run_cli(["infer", "--model", str(manifest), "--image", img],
                               capsys)
        assert code == 0 and out


class TestExplain:
    def test_zplus_within_tolerance(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, out, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                "--image", img, "--out", str(tmp_path / "att")],
                               capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["max_relative_deviation"] < 1e-5
        assert summary["p_c"] == summary["checkpoint_sums"]["seed"]
        assert (tmp_path / "att.csv").is_file() and (tmp_path / "att.pgm").is_file()

    def test_epsilon_rule_not_enforced(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, out, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                "--image", img, "--rule", "epsilon",
                                "--tolerance", "0",
                                "--out", str(tmp_path / "att")], capsys)
        assert code == 0  # deviations are reported, not enforced
        assert "max_relative_deviation" in json.loads(out)

    def test_zplus_zero_tolerance_trips_exit_3(self, tmp_path, capsys):
        # over a handful of images at least one checkpoint sum differs from
        # p_c by a nonzero float rounding, so tolerance 0 must fail
        for seed in range(5):
            img = one_image(tmp_path, seed=seed)
            code, _, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                  "--image", img, "--tolerance", "0",
                                  "--out", str(tmp_path / "att")], capsys)
            if code == 3:
                return
        pytest.fail("no invocation tripped the conservation gate")

    def test_quantize_off_keeps_full_resolution(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, _, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                              "--image", img, "--quantize", "off",
                              "--out", str(tmp_path / "raw")], capsys)
        assert code == 0
        values = [v for line in (tmp_path / "raw.csv").read_text().splitlines()
                  for v in line.split(",")]
        assert len(set(values)) > 8

    def test_quantize_paper_limits_levels(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, _, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                              "--image", img, "--quantize", "paper", "--bins", "8",
                              "--out", str(tmp_path / "q")], capsys)
        assert code == 0
        values = [v for line in (tmp_path / "q.csv").read_text().splitlines()
                  for v in line.split(",")]
        assert len(set(values)) <= 8

    def test_explicit_class(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, out, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                "--image", img, "--class", "3",
                                "--out", str(tmp_path / "att")], capsys)
        assert code == 0
        assert json.loads(out)["class"] == 3

    def test_class_out_of_range_exits_2(self, tmp_path, capsys):
        img = one_image(tmp_path)
        code, _, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                              "--image", img, "--class", "9",
                              "--out", str(tmp_path / "att")], capsys)
        assert code == 2

    def test_mixture_without_boundary_uses_the_block_count(self, tmp_path, capsys):
        # An unset boundary is 8, or the block count (the toy's 2) when fewer.
        img = one_image(tmp_path)
        runs = []
        for boundary in ([], ["--mixture-boundary", "2"]):
            code, out, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                    "--image", img, "--rule", "mixture", *boundary,
                                    "--out", str(tmp_path / "att")], capsys)
            assert code == 0
            runs.append((out, (tmp_path / "att.csv").read_bytes(),
                         (tmp_path / "att.pgm").read_bytes()))
        assert runs[0] == runs[1]


class TestEvaluate:
    def test_single_image_scores(self, tmp_path, capsys):
        img = one_image(tmp_path)
        run_cli(["explain", "--model", "toy", "--seed", "7", "--image", img,
                 "--out", str(tmp_path / "att")], capsys)
        code, out, _ = run_cli(["evaluate", "--model", "toy", "--seed", "7",
                                "--image", img,
                                "--attribution", str(tmp_path / "att.csv"),
                                "--steps", "10", "--out", str(tmp_path / "ev")],
                               capsys)
        assert code == 0
        scores = json.loads(out)
        assert scores["id_score"] == scores["insertion_auc"] - scores["deletion_auc"]
        assert (tmp_path / "ev.insertion.csv").is_file()
        assert (tmp_path / "ev.deletion.csv").is_file()

    def test_empty_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("\n")
        code, _, err = run_cli(["evaluate", "--model", "toy", "--images",
                                str(manifest), "--recompute",
                                "--out", str(tmp_path / "ev")], capsys)
        assert code == 2 and "no images" in err

    def test_constant_everything_scores_zero(self, tmp_path, capsys):
        graph = zero_weight_copy(generate_toy_resnet(7))
        manifest = save_model(graph, tmp_path / "const")
        img = one_image(tmp_path)
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(",".join(["0.5"] * 8) for _ in range(8)) + "\n")
        code, out, _ = run_cli(["evaluate", "--model", str(manifest),
                                "--image", img, "--attribution", str(flat),
                                "--steps", "8", "--out", str(tmp_path / "ev")],
                               capsys)
        assert code == 0
        assert json.loads(out)["id_score"] == 0.0

    def test_manifest_reports_mean_and_std(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=3, seed=4)
        code, out, _ = run_cli(["evaluate", "--model", "toy", "--seed", "7",
                                "--images", manifest, "--recompute",
                                "--steps", "6", "--out", str(tmp_path / "ev")],
                               capsys)
        assert code == 0
        summary = json.loads(out)
        assert len(summary["per_image"]) == 3
        ids = [r["id_score"] for r in summary["per_image"]]
        assert summary["id_score_mean"] == pytest.approx(np.mean(ids))
        assert summary["id_score_std"] == pytest.approx(np.std(ids, ddof=1))

    def test_attribution_with_manifest_rejected(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=2, seed=5)
        code, _, err = run_cli(["evaluate", "--model", "toy", "--images", manifest,
                                "--attribution", "whatever.csv",
                                "--out", str(tmp_path / "ev")], capsys)
        assert code == 2 and "--recompute" in err


class TestCheckConservation:
    def test_audit_rows_and_exit(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=4, seed=6)
        code, out, _ = run_cli(["check-conservation", "--model", "toy", "--seed", "7",
                                "--images", manifest, "--tolerance", "1e-5",
                                "--out", str(tmp_path / "cons")], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["images"] == 4 and summary["enforced"]
        lines = (tmp_path / "cons.csv").read_text().splitlines()
        assert lines[0] == "image,checkpoint,sum_R,p_c,relative_deviation"
        assert len(lines) == 1 + summary["rows"]
        for line in lines[1:]:
            assert float(line.rsplit(",", 1)[1]) < 1e-5

    def test_epsilon_rule_informational(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=2, seed=8)
        code, out, _ = run_cli(["check-conservation", "--model", "toy", "--seed", "7",
                                "--images", manifest, "--rule", "epsilon",
                                "--tolerance", "0",
                                "--out", str(tmp_path / "cons")], capsys)
        assert code == 0
        assert not json.loads(out)["enforced"]

    def test_zero_tolerance_exits_3(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=8, seed=9)
        code, out, _ = run_cli(["check-conservation", "--model", "toy", "--seed", "7",
                                "--images", manifest, "--tolerance", "0",
                                "--out", str(tmp_path / "cons")], capsys)
        assert code == 3
        assert json.loads(out)["max_relative_deviation"] > 0


    def test_audit_csv_quotes_paths_with_commas_and_quotes(self, tmp_path, capsys):
        names = ["a,b.ppm", 'q"x.ppm', "plain.ppm"]
        rng = np.random.default_rng(13)
        for name in names:
            write_ppm(tmp_path / name, rng.integers(0, 256, size=(3, 8, 8)))
        manifest = tmp_path / "images.txt"
        manifest.write_text("\n".join(names) + "\n")
        code, out, _ = run_cli(["check-conservation", "--model", "toy", "--seed", "7",
                                "--images", str(manifest), "--out", str(tmp_path / "cons")],
                               capsys)
        assert code == 0
        text = (tmp_path / "cons.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert len(rows) == 1 + json.loads(out)["rows"]
        assert all(len(row) == 5 for row in rows)
        per_image = (len(rows) - 1) // len(names)
        assert [row[0] for row in rows[1:]] == [
            str(tmp_path / name) for name in names for _ in range(per_image)]
        plain = [line for line in text.splitlines() if "plain" in line]
        assert all(line.startswith(str(tmp_path / "plain.ppm") + ",") for line in plain)


class TestDeterminism:
    def test_explain_twice_byte_identical(self, tmp_path, capsys):
        img = one_image(tmp_path, seed=10)
        outs = []
        for name in ("a", "b"):
            code, out, _ = run_cli(["explain", "--model", "toy", "--seed", "7",
                                    "--image", img, "--out", str(tmp_path / name)],
                                   capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=4, seed=11)
        results = {}
        for threads, tag in (("1", "t1"), ("4", "t4")):
            code, out, _ = run_cli(["evaluate", "--model", "toy", "--seed", "7",
                                    "--images", manifest, "--recompute",
                                    "--steps", "6", "--threads", threads,
                                    "--out", str(tmp_path / tag)], capsys)
            assert code == 0
            files = {p.name.split(".", 1)[1]: p.read_bytes()
                     for p in tmp_path.glob(f"{tag}.*.csv")}
            results[tag] = (out, files)
        assert results["t1"][0] == results["t4"][0]
        assert results["t1"][1] == results["t4"][1]


def count_forwards(monkeypatch) -> dict[str, int]:
    """Count run_forward calls, and the images they forward (``<name>_images``),
    under the name each module looks it up by."""
    counts = {}
    for name, module in (("cli", cli), ("lrp", lrp), ("evaluate", ev)):
        counts[name] = counts[f"{name}_images"] = 0

        def counting(graph, x, *args, _name=name, _original=module.run_forward, **kwargs):
            counts[_name] += 1
            counts[f"{_name}_images"] += len(x) if np.ndim(x) == 4 else 1
            return _original(graph, x, *args, **kwargs)
        monkeypatch.setattr(module, "run_forward", counting)
    return counts


class TestOneForwardPerImage:
    @pytest.mark.parametrize("command", ["explain", "check-conservation", "evaluate"])
    def test_one_forward_per_image_before_curves(self, tmp_path, capsys, monkeypatch,
                                                 command):
        manifest = write_random_ppms(tmp_path, count=3, seed=21)
        images = 1 if command == "explain" else 3
        argv = [command, "--model", "toy", "--seed", "7", "--out", str(tmp_path / "o")]
        if command == "explain":
            argv += ["--image", str(tmp_path / "img000.ppm")]
        else:
            argv += ["--images", manifest]
        if command == "evaluate":
            argv += ["--recompute", "--steps", "4"]
        counts = count_forwards(monkeypatch)
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert counts["cli"] + counts["lrp"] == images
        # the curves alone: insertion and deletion over 5 step counts each,
        # which share the untouched and the all-zero image, as one stack
        assert counts["evaluate"] == (images if command == "evaluate" else 0)
        assert counts["evaluate_images"] == (images * (2 * 5 - 2) if command == "evaluate"
                                             else 0)

    @pytest.mark.parametrize("command", ["explain", "check-conservation", "evaluate"])
    def test_auto_class_matches_explicit(self, tmp_path, capsys, command):
        img = one_image(tmp_path, seed=3)
        _, out, _ = run_cli(["explain", "--model", "toy", "--seed", "1", "--image", img,
                             "--out", str(tmp_path / "probe")], capsys)
        c = json.loads(out)["class"]
        assert c != 0  # so a class defaulting to 0 cannot pass
        extra = ["--recompute", "--steps", "4"] if command == "evaluate" else []
        results = []
        for tag, cls in (("auto", []), ("explicit", ["--class", str(c)])):
            code, out, _ = run_cli([command, "--model", "toy", "--seed", "1",
                                    "--image", img, *extra, *cls,
                                    "--out", str(tmp_path / tag)], capsys)
            files = {p.name.split(".", 1)[1]: p.read_bytes()
                     for p in sorted(tmp_path.glob(f"{tag}.*"))}
            results.append((code, out, files))
        assert results[0][0] == 0 and results[0][2]
        assert results[0] == results[1]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("fill", ["all_nan", "one_inf"])
    def test_non_finite_attribution_csv_exits_2(self, tmp_path, capsys, fill):
        img = one_image(tmp_path)
        rows = [["nan" if fill == "all_nan" else "0.5"] * 8 for _ in range(8)]
        if fill == "one_inf":
            rows[3][4] = "-inf"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code, out, err = run_cli(["evaluate", "--model", "toy", "--seed", "7",
                                  "--image", img, "--attribution", str(bad),
                                  "--out", str(tmp_path / "ev")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(bad) in err
        assert not (tmp_path / "ev.insertion.csv").exists()

    def test_nan_weight_exits_2_naming_tensor(self, tmp_path, capsys):
        manifest = save_model(generate_toy_resnet(7), tmp_path / "model")
        path = tmp_path / "model" / "tensors" / "block1.main.conv2.w.bin"
        values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        values[5] = np.nan
        path.write_bytes(values.tobytes())
        code, _, err = run_cli(["explain", "--model", str(manifest),
                                "--image", one_image(tmp_path),
                                "--out", str(tmp_path / "att")], capsys)
        assert code == 2
        assert err.startswith("error:") and "block1.main.conv2.w" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflow_to_non_finite_relevance_exits_2(self, tmp_path, capsys):
        # Finite weights pass the load checks, but the forward overflows
        # float32, so the seeded relevance is not finite.
        graph = generate_toy_resnet(7)
        tensors = {name: arr * np.float32(1e30) if name.endswith(".w") else arr
                   for name, arr in graph.tensors.items()}
        huge = ModelGraph(preprocess=graph.preprocess, stem=graph.stem,
                          blocks=graph.blocks, head=graph.head,
                          num_classes=graph.num_classes, tensors=tensors)
        manifest = save_model(huge, tmp_path / "model")
        code, _, err = run_cli(["explain", "--model", str(manifest),
                                "--image", one_image(tmp_path),
                                "--out", str(tmp_path / "att")], capsys)
        assert code == 2
        assert err.startswith("error:") and "not finite" in err
        assert len(err.strip().splitlines()) == 1


class TestValidationErrors:
    def test_bad_rule_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--model", "toy", "--image", "x.ppm",
                      "--rule", "gamma", "--out", "y"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_image_and_images_mutually_exclusive(self, tmp_path, capsys):
        manifest = write_random_ppms(tmp_path, count=1, seed=12)
        img = one_image(tmp_path)
        code, _, err = run_cli(["check-conservation", "--model", "toy",
                                "--image", img, "--images", manifest,
                                "--out", str(tmp_path / "c")], capsys)
        assert code == 2 and "exactly one" in err

    def test_bad_toy_spec_exits_2(self, capsys):
        code, _, err = run_cli(["infer", "--model", "toy:1,2", "--image", "x.ppm"],
                               capsys)
        assert code == 2 and "toy" in err


MINIMAL_ARGV = {
    "infer": ["infer", "--model", "toy"],
    "explain": ["explain", "--model", "toy", "--out", "att"],
    "evaluate": ["evaluate", "--model", "toy", "--out", "ev"],
    "check-conservation": ["check-conservation", "--model", "toy", "--out", "cons"],
}


class TestDefaults:
    @pytest.mark.parametrize("command", list(MINIMAL_ARGV))
    def test_absent_flags_take_the_dataclass_defaults(self, command):
        argv = MINIMAL_ARGV[command]
        job = cli.JobConfig.from_args(cli.build_parser().parse_args(argv))
        out = argv[-1] if "--out" in argv else None
        assert job == cli.JobConfig(model="toy", out=out)
        assert job.rule_config == lrp.RuleConfig()

    def test_include_identity_false_parses(self):
        argv = ["explain", "--model", "toy", "--include-identity", "false", "--out", "att"]
        job = cli.JobConfig.from_args(cli.build_parser().parse_args(argv))
        assert job.rule_config == lrp.RuleConfig(include_identity=False)


class TestSharedParser:
    """Every cli.main call parses with one parser, built once per process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_leave_few_objects_for_the_collector(self, tmp_path, capsys):
        img = one_image(tmp_path)
        out = str(tmp_path / "att")
        calls = [["infer", "--model", "toy", "--image", img],
                 ["explain", "--model", "toy", "--image", img, "--out", out],
                 ["evaluate", "--model", "toy", "--image", img,
                  "--attribution", out + ".csv", "--out", str(tmp_path / "ev")]]
        for argv in calls:  # warm-up: imports, logging, the parser itself
            assert cli.main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for argv in calls:
                assert cli.main(argv) == 0
            found = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert found < 50

    def _explain_bytes(self, tmp_path, capsys, img, *flags):
        out = tmp_path / "att"
        code, stdout, _ = run_cli(["explain", "--model", "toy", "--seed", "7", "--image", img,
                                   *flags, "--out", str(out)], capsys)
        return code, stdout, out.with_suffix(".csv").read_bytes(), \
            out.with_suffix(".pgm").read_bytes()

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        img = one_image(tmp_path, seed=14)
        alone = self._explain_bytes(tmp_path, capsys, img)
        self._explain_bytes(tmp_path, capsys, img, "--rule", "epsilon", "--epsilon", "0.5",
                            "--quantize", "off", "--bins", "3")
        assert self._explain_bytes(tmp_path, capsys, img) == alone

    def test_argparse_failure_then_valid_call(self, tmp_path, capsys):
        img = one_image(tmp_path, seed=15)
        alone = self._explain_bytes(tmp_path, capsys, img)
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--model", "toy", "--image", img, "--rule", "bogus",
                      "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        capsys.readouterr()
        assert self._explain_bytes(tmp_path, capsys, img) == alone
