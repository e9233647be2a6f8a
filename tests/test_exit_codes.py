"""Every documented failure mode, run through ``cli.main``: one row per case.

Each row builds its inputs under ``tmp_path`` and returns the argv, the
expected exit code and a fragment the single ``error:`` line must contain.
Exit 2 rows must print exactly that one line; exit 3 (a conservation
violation under z+) is a result, reported in the stdout JSON instead.
"""

import json

import numpy as np
import pytest

from relprop import cli
from relprop.image import write_ppm
from relprop.model import generate_toy_resnet, save_model

from conftest import write_random_ppms


def image(tmp_path) -> str:
    raw = np.random.default_rng(0).integers(0, 256, size=(3, 8, 8)).astype(np.float32)
    path = tmp_path / "img.ppm"
    write_ppm(path, raw)
    return str(path)


def edited_manifest(tmp_path, edit) -> str:
    manifest = save_model(generate_toy_resnet(7), tmp_path / "model")
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    return str(manifest)


def infer_with_manifest(edit, fragment):
    def build(tmp_path):
        argv = ["infer", "--model", edited_manifest(tmp_path, edit),
                "--image", image(tmp_path)]
        return argv, 2, fragment
    return build


def set_key(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def explain(*extra):
    return lambda tmp_path: ["explain", "--model", "toy", "--seed", "7",
                             "--image", image(tmp_path), *extra,
                             "--out", str(tmp_path / "att")]


def missing_image(tmp_path):
    missing = tmp_path / "nope.ppm"
    return ["infer", "--model", "toy", "--image", str(missing)], 2, "nope.ppm"


def bad_ppm(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n8 8\n255\n" + bytes(192))
    return ["infer", "--model", "toy", "--image", str(path)], 2, "bad magic"


def non_finite_csv(tmp_path):
    rows = [["0.5"] * 8 for _ in range(8)]
    rows[3][4] = "nan"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
    argv = ["evaluate", "--model", "toy", "--seed", "7", "--image", image(tmp_path),
            "--attribution", str(bad), "--out", str(tmp_path / "ev")]
    return argv, 2, str(bad)


def non_finite_weight(tmp_path):
    manifest = save_model(generate_toy_resnet(7), tmp_path / "model")
    path = tmp_path / "model" / "tensors" / "head.fc.w.bin"
    values = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    values[2] = np.inf
    path.write_bytes(values.tobytes())
    argv = ["infer", "--model", str(manifest), "--image", image(tmp_path)]
    return argv, 2, "head.fc.w"


def evaluate_attribution(tmp_path, hw, *extra):
    csv = tmp_path / "att.csv"
    csv.write_text("\n".join(",".join(["0.5"] * hw) for _ in range(hw)) + "\n")
    return ["evaluate", "--model", "toy", "--seed", "7", "--image", image(tmp_path),
            "--attribution", str(csv), *extra, "--out", str(tmp_path / "ev")]


def overflowing_stem(tmp_path):
    # Finite weights whose stem conv output overflows float32 on a black image.
    manifest = save_model(generate_toy_resnet(7), tmp_path / "model")
    path = tmp_path / "model" / "tensors" / "stem.conv.w.bin"
    path.write_bytes(np.full(len(path.read_bytes()) // 4, 3e38, dtype="<f4").tobytes())
    black = tmp_path / "black.ppm"
    write_ppm(black, np.zeros((3, 8, 8), np.float32))
    argv = ["infer", "--model", str(manifest), "--image", str(black)]
    return argv, 2, "stem[0] (conv): output is not finite"


def empty_image_manifest(tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("\n")
    argv = ["check-conservation", "--model", "toy", "--images", str(manifest),
            "--out", str(tmp_path / "cons")]
    return argv, 2, "no images"


def zplus_zero_tolerance(tmp_path):
    # Over eight images some checkpoint sum differs from p_c by a rounding.
    manifest = write_random_ppms(tmp_path, count=8, seed=9)
    argv = ["check-conservation", "--model", "toy", "--seed", "7", "--images", manifest,
            "--tolerance", "0", "--out", str(tmp_path / "cons")]
    return argv, 3, None


def insert_node(segment, index, node):
    def edit(doc):
        doc[segment].insert(index, node)
    return edit


def drop_key(path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def fixed(argv_of, code, fragment):
    return lambda tmp_path: (argv_of(tmp_path), code, fragment)


def infer_on_ppm(data: bytes, fragment):
    def build(tmp_path):
        path = tmp_path / "in.ppm"
        path.write_bytes(data)
        return ["infer", "--model", "toy", "--image", str(path)], 2, fragment
    return build


def evaluate_on_csv(text: str, fragment):
    def build(tmp_path):
        path = tmp_path / "att.csv"
        path.write_text(text)
        argv = ["evaluate", "--model", "toy", "--seed", "7", "--image", image(tmp_path),
                "--attribution", str(path), "--out", str(tmp_path / "ev")]
        return argv, 2, fragment
    return build


def toy(spec, *extra):
    return lambda tmp_path: ["infer", "--model", spec, "--image", image(tmp_path), *extra]


def evaluate(tmp_path, *extra):
    return ["evaluate", "--model", "toy", *extra, "--out", str(tmp_path / "ev")]


def images_manifest(tmp_path) -> str:
    return write_random_ppms(tmp_path, count=2, seed=3)


CASES = {
    "manifest_tensors_not_object": infer_with_manifest(
        set_key(["tensors"], []), "manifest tensors must be an object"),
    "manifest_block_not_object": infer_with_manifest(
        set_key(["blocks"], [5]), "blocks[0]: block is not an object"),
    "manifest_tensor_name_not_string": infer_with_manifest(
        set_key(["stem", 0, "weight"], ["x"]), "stem[0]: weight must be a tensor name"),
    "manifest_tensor_file_not_string": infer_with_manifest(
        set_key(["tensors", "head.fc.w", "file"], 5), "head.fc.w"),
    "manifest_zero_std": infer_with_manifest(
        set_key(["preprocess", "std"], [0.0, 1.0, 1.0]), "std finite and positive"),
    "manifest_infinite_integer": infer_with_manifest(
        set_key(["stem", 0, "stride"], float("inf")), "manifest structure invalid"),
    "manifest_fractional_integer": infer_with_manifest(
        set_key(["stem", 0, "padding"], 1.5), "stem[0]: padding must be an integer"),
    "manifest_bool_as_string": infer_with_manifest(
        set_key(["blocks", 1, "post_merge_relu"], "false"),
        "blocks[1]: post_merge_relu must be true or false"),
    "manifest_block_missing_main": infer_with_manifest(
        drop_key(["blocks", 1, "main"]), "blocks[1]: block missing field 'main'"),
    "manifest_head_maxpool_hyperparameters": infer_with_manifest(
        insert_node("head", 0, {"kind": "maxpool", "k": 0, "stride": 0, "padding": -1}),
        "head[0]: invalid maxpool hyperparameters"),
    "manifest_maxpool_all_padding": infer_with_manifest(
        set_key(["stem", 3, "padding"], 2), "stem[3]: maxpool window lies entirely in padding"),
    "manifest_inner_softmax": infer_with_manifest(
        insert_node("head", 1, {"kind": "softmax"}), "head[1]: softmax is allowed only as"),
    "manifest_block_main_empty": infer_with_manifest(
        set_key(["blocks", 1, "main"], []), "blocks[1]: main path is empty"),
    "manifest_num_classes_fractional": infer_with_manifest(
        set_key(["num_classes"], 5.7), "manifest structure invalid: num_classes must be"),
    "manifest_num_classes_string": infer_with_manifest(
        set_key(["num_classes"], "5"), "manifest structure invalid: num_classes must be"),
    "manifest_shape_fractional": infer_with_manifest(
        set_key(["tensors", "stem.conv.w", "shape", 0], 4.5),
        "manifest structure invalid: tensor table entry stem.conv.w: shape[0] must be"),
    "manifest_shape_string": infer_with_manifest(
        set_key(["tensors", "stem.conv.w", "shape", 0], "4"),
        "manifest structure invalid: tensor table entry stem.conv.w: shape[0] must be"),
    "manifest_preprocess_string": infer_with_manifest(
        set_key(["preprocess", "mean", 1], "0.5"),
        "manifest structure invalid: preprocess.mean[1] must be a number"),
    "manifest_preprocess_bool": infer_with_manifest(
        set_key(["preprocess", "std", 2], True),
        "manifest structure invalid: preprocess.std[2] must be a number"),
    "manifest_preprocess_two_entries": infer_with_manifest(
        set_key(["preprocess", "mean"], [0.5, 0.5]), "preprocess mean/std must each have 3"),
    "manifest_missing": lambda tmp_path: (
        ["infer", "--model", str(tmp_path / "none.json"), "--image", image(tmp_path)], 2,
        "manifest not found"),
    "manifest_node_not_object": infer_with_manifest(
        set_key(["stem", 1], 5), "stem[1]: node is not an object with a kind"),
    "manifest_unknown_kind": infer_with_manifest(
        set_key(["stem", 2], {"kind": "gelu"}), "stem[2]: unknown node kind 'gelu'"),
    "manifest_node_missing_field": infer_with_manifest(
        drop_key(["stem", 0, "weight"]), "stem[0]: conv node missing field 'weight'"),
    "manifest_bad_skip_kind": infer_with_manifest(
        set_key(["blocks", 0, "skip", "kind"], "dense"),
        "blocks[0]: skip must be identity or projection"),
    "manifest_projection_skip_not_conv_bn": infer_with_manifest(
        set_key(["blocks", 0, "skip", "bn"], {"kind": "relu"}),
        "blocks[0]: projection skip must be conv + bn"),
    "manifest_tensor_entry_without_shape": infer_with_manifest(
        drop_key(["tensors", "head.fc.w", "shape"]), "tensor table entry head.fc.w"),
    "manifest_rank_5_shape": infer_with_manifest(
        set_key(["tensors", "head.fc.b", "shape"], [1, 1, 1, 1, 5]),
        "tensor head.fc.b: shape [1, 1, 1, 1, 5] must be rank 1-4"),
    "graph_stride_zero": infer_with_manifest(
        set_key(["stem", 0, "stride"], 0), "stem[0]: invalid stride/padding"),
    "graph_maxpool_in_block": infer_with_manifest(
        lambda doc: doc["blocks"][1]["main"].append(
            {"kind": "maxpool", "k": 1, "stride": 1, "padding": 0}),
        "blocks[1].main[8]: maxpool not allowed inside a block"),
    "graph_gap_after_gap": infer_with_manifest(
        insert_node("head", 1, {"kind": "gap"}), "head[1]: gap after gap"),
    "graph_fc_without_gap": infer_with_manifest(
        lambda doc: doc["head"].pop(0), "head[0]: fc requires a rank-1 input"),
    "graph_class_count_mismatch": infer_with_manifest(
        set_key(["num_classes"], 4), "head produces 5 classes, manifest declares 4"),
    "graph_conv_channel_mismatch": infer_with_manifest(
        set_key(["blocks", 1, "main", 0, "weight"], "stem.conv.w"),
        "blocks[1].main[0]: conv expects 3 input channels but receives 4"),
    "graph_bias_length": infer_with_manifest(
        set_key(["head", 1, "bias"], "stem.bn.gamma"),
        "head[1]: fc bias stem.bn.gamma must have 5 entries"),
    "graph_bn_parameter_length": infer_with_manifest(
        set_key(["stem", 1, "gamma"], "head.fc.b"), "stem[1]: bn gamma must have 4 entries"),
    "ppm_truncated_header": infer_on_ppm(b"P6\n8 8\n", "in.ppm: truncated PPM header"),
    "ppm_non_numeric_field": infer_on_ppm(b"P6\n8 x\n255\n" + bytes(192),
                                          "in.ppm: non-numeric header field"),
    "ppm_zero_width": infer_on_ppm(b"P6\n0 8\n255\n", "in.ppm: non-positive dimensions"),
    "ppm_empty": infer_on_ppm(b"", "in.ppm: bad magic"),
    "csv_ragged": evaluate_on_csv("0.5,0.5\n0.5\n", "att.csv: malformed attribution CSV"),
    "csv_empty": evaluate_on_csv("", "att.csv: malformed attribution CSV"),
    "csv_non_numeric": evaluate_on_csv("0.5,0.5\n\n0.5,abc\n",
                                       "att.csv:3: could not convert string to float: 'abc'"),
    "threads_zero": fixed(explain("--threads", "0"), 2, "--threads must be >= 1"),
    "topk_zero": fixed(toy("toy", "--topk", "0"), 2, "--topk must be >= 1"),
    "toy_non_integer": fixed(toy("toy:4,2,x,8"), 2, "non-integer toy model parameter"),
    "toy_two_parameters": fixed(toy("toy:4,2"), 2, "--model toy:<channels>,<blocks>"),
    "toy_odd_size": fixed(toy("toy:4,2,5,7"), 2, "input_hw must be even"),
    "toy_no_blocks": fixed(toy("toy:4,0,5,8"), 2, "toy model needs at least one block"),
    "images_manifest_missing": lambda tmp_path: (
        evaluate(tmp_path, "--recompute", "--images", str(tmp_path / "none.txt")), 2,
        "image manifest not found"),
    "evaluate_without_attribution_or_recompute": lambda tmp_path: (
        evaluate(tmp_path, "--image", image(tmp_path)), 2,
        "provide --attribution <csv> or --recompute"),
    "attribution_with_images": lambda tmp_path: (
        evaluate(tmp_path, "--attribution", "att.csv", "--images", images_manifest(tmp_path)),
        2, "--attribution applies to a single --image"),
    "image_and_images": lambda tmp_path: (
        evaluate(tmp_path, "--recompute", "--image", image(tmp_path),
                 "--images", images_manifest(tmp_path)), 2,
        "exactly one of --image and --images"),
    "missing_image": missing_image,
    "bad_ppm": bad_ppm,
    "non_finite_csv": non_finite_csv,
    "non_finite_weight": non_finite_weight,
    "forward_overflow": overflowing_stem,
    "attribution_size_mismatch": lambda tmp_path: (
        evaluate_attribution(tmp_path, 4), 2, "attribution (4, 4) does not match image (8, 8)"),
    "evaluate_class_negative": lambda tmp_path: (
        evaluate_attribution(tmp_path, 8, "--class", "-1"), 2, "class -1 out of range"),
    "class_out_of_range": fixed(explain("--class", "9"), 2, "out of range"),
    "class_not_integer": fixed(explain("--class", "x"), 2, "--class"),
    "steps_below_two": lambda tmp_path: (
        ["evaluate", "--model", "toy", "--image", image(tmp_path), "--recompute",
         "--steps", "1", "--out", str(tmp_path / "ev")], 2, "--steps"),
    "unknown_rule_flag": fixed(explain("--rule", "gamma"), 2, "invalid choice"),
    "tolerance_nan": lambda tmp_path: (
        ["check-conservation", "--model", "toy", "--seed", "7", "--image", image(tmp_path),
         "--tolerance", "nan", "--out", str(tmp_path / "cons")], 2, "--tolerance"),
    "tolerance_inf": lambda tmp_path: (
        ["check-conservation", "--model", "toy", "--seed", "7", "--image", image(tmp_path),
         "--tolerance", "inf", "--out", str(tmp_path / "cons")], 2, "--tolerance"),
    "epsilon_inf": fixed(explain("--rule", "epsilon", "--epsilon", "inf"), 2,
                         "epsilon must be finite"),
    "empty_image_manifest": empty_image_manifest,
    "zplus_zero_tolerance": zplus_zero_tolerance,
}


def run_main(argv) -> int:
    """cli.main's exit code, including argparse's, which raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", list(CASES))
def test_exit_code_and_message(case, tmp_path, capsys):
    argv, expected, fragment = CASES[case](tmp_path)
    code = run_main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    error_lines = [line for line in err.splitlines() if "error:" in line]
    if expected == 3:
        assert error_lines == []
        summary = json.loads(out)
        assert summary["enforced"] and summary["max_relative_deviation"] > 0
        return
    assert out == ""
    assert len(error_lines) == 1 and fragment in error_lines[0]
    if case != "unknown_rule_flag":  # argparse prints its usage first
        assert err.splitlines() == error_lines and err.startswith("error:")
