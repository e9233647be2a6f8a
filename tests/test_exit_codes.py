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


def fixed(argv_of, code, fragment):
    return lambda tmp_path: (argv_of(tmp_path), code, fragment)


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
    "missing_image": missing_image,
    "bad_ppm": bad_ppm,
    "non_finite_csv": non_finite_csv,
    "non_finite_weight": non_finite_weight,
    "class_out_of_range": fixed(explain("--class", "9"), 2, "out of range"),
    "class_not_integer": fixed(explain("--class", "x"), 2, "--class"),
    "steps_below_two": lambda tmp_path: (
        ["evaluate", "--model", "toy", "--image", image(tmp_path), "--recompute",
         "--steps", "1", "--out", str(tmp_path / "ev")], 2, "--steps"),
    "unknown_rule_flag": fixed(explain("--rule", "gamma"), 2, "invalid choice"),
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
