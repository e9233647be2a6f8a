"""Byte-identity digest of the CLI over a fixed matrix of valid runs.

Every row of the matrix is one ``relprop.cli.main`` call, run in-process in a
scratch working directory that holds seeded PPM images, image lists,
attribution CSVs and a saved manifest (6 channels, 3 blocks, 16 px, with
random BN statistics and scales down to -0.2). The rows cover every command,
rule, splitting, ``--include-identity`` value and quantize mode, on four toys
and on the saved manifest. Runs over an image list get ``--threads``.

A row's digest covers its id, exit code, stdout, and every file it writes,
by file name. Inputs are named relative to the working directory and each
row writes under the same ``--out`` prefix, so the scratch path never enters
a digest; the id leaves out ``--threads``, so no thread count does either.

    PYTHONPATH=src python tests/golden.py [--threads N]

prints one sha256 over all rows, then one per command. Two checkouts whose
printed lines are equal gave byte-identical outputs on this matrix. float64
GEMM bits may differ between BLAS builds and CPUs, so compare digests taken
on one machine; no digest is meant to be committed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relprop import cli
from relprop.image import write_ppm
from relprop.model import generate_toy_resnet, save_model

COMMANDS = ("infer", "explain", "evaluate", "check-conservation")
OUT = "out/r"

# label: (--model arguments, image size)
MODELS = {
    "toy": (["toy", "--seed", "7"], 8),
    "toy:2,1,5,4": (["toy:2,1,5,4", "--seed", "3"], 4),
    "toy:6,3,5,16": (["toy:6,3,5,16", "--seed", "5"], 16),
    "toy:2,8,5,4": (["toy:2,8,5,4", "--seed", "11"], 4),
    "manifest": (["model/manifest.json"], 16),
}


@dataclass(frozen=True)
class Row:
    id: str
    command: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Result:
    row: Row
    code: int
    stderr: str
    sha256: str


def rows(threads: int, models=tuple(MODELS)) -> list[Row]:
    """The matrix over ``models``; runs over an image list get ``--threads``."""
    out = []
    for label in models:
        model, hw = MODELS[label]
        image, images = f"img{hw}_0.ppm", f"images{hw}.txt"

        def add(command, *flags, many=False):
            source = (["--images", images, "--threads", str(threads)] if many
                      else ["--image", image])
            out.append(Row(" ".join([label, command, *flags, *(["--images"] if many else [])]),
                           command, (command, "--model", *model, *source, *flags)))

        add("infer")
        for rule, splitting, identity, quantize in itertools.product(
                ("zplus", "epsilon", "mixture"), ("ratio", "symmetric"), ("true", "false"),
                ("paper", "binwidth", "off")):
            add("explain", "--rule", rule, "--splitting", splitting,
                "--include-identity", identity, "--quantize", quantize, "--out", OUT)
        add("explain", "--class", "1", "--out", OUT)
        add("explain", "--rule", "epsilon", "--epsilon", "0.01", "--bins", "5", "--out", OUT)
        add("explain", "--rule", "mixture", "--mixture-boundary", "1", "--out", OUT)
        add("evaluate", "--attribution", f"map{hw}.csv", "--steps", "7", "--out", OUT)
        add("evaluate", "--attribution", f"map{hw}.csv", "--class", "2", "--out", OUT)
        add("evaluate", "--recompute", "--steps", "1000", "--out", OUT, many=True)
        add("evaluate", "--recompute", "--rule", "epsilon", "--splitting", "symmetric",
            "--steps", "9", "--out", OUT, many=True)
        add("check-conservation", "--out", OUT, many=True)
        add("check-conservation", "--rule", "mixture", "--out", OUT, many=True)
        add("check-conservation", "--rule", "epsilon", "--splitting", "symmetric",
            "--include-identity", "false", "--out", OUT, many=True)
    return out


def write_inputs(directory: Path) -> None:
    """Seeded images, image lists and attribution maps at each size, and the
    saved manifest with random BN statistics."""
    rng = np.random.default_rng(2024)
    for hw in sorted({hw for _, hw in MODELS.values()}):
        names = []
        for i in range(2):
            names.append(f"img{hw}_{i}.ppm")
            write_ppm(directory / names[-1], rng.integers(0, 256, size=(3, hw, hw)))
        (directory / f"images{hw}.txt").write_text("\n".join(names) + "\n")
        values = rng.normal(size=(hw, hw))
        (directory / f"map{hw}.csv").write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n")
    graph = generate_toy_resnet(7, 6, 3, 5, 16)
    for name, t in graph.tensors.items():
        field = name.rsplit(".", 1)[-1]
        if field in ("gamma", "beta", "mean", "var"):
            low, high = {"gamma": (-0.2, 1.2), "beta": (-0.1, 0.1), "mean": (-0.1, 0.1),
                         "var": (0.5, 1.5)}[field]
            graph.tensors[name] = rng.uniform(low, high, size=t.shape).astype(np.float32)
    save_model(graph, directory / "model")


def run_row(row: Row) -> Result:
    """Run one row in the current directory, which must hold the inputs."""
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(row.argv))
    digest = hashlib.sha256()
    for part in (row.id, str(code), stdout.getvalue()):
        digest.update(part.encode() + b"\0")
    for name in sorted(os.listdir("out")):
        digest.update(name.encode() + b"\0" + Path("out", name).read_bytes() + b"\0")
    return Result(row, code, stderr.getvalue(), digest.hexdigest())


def run(matrix: list[Row], directory: Path) -> list[Result]:
    """Write the inputs to ``directory``, then run every row there."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_inputs(directory)
    home = os.getcwd()
    os.chdir(directory)
    try:
        return [run_row(row) for row in matrix]
    finally:
        os.chdir(home)


def digests(results: list[Result]) -> dict[str, str]:
    """One sha256 over every row's digest, keyed "all", and one per command."""
    out = {}
    for key in ("all",) + COMMANDS:
        h = hashlib.sha256()
        for r in results:
            if key in ("all", r.row.command):
                h.update(f"{r.row.id}\0{r.sha256}\n".encode())
        out[key] = h.hexdigest()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=2,
                        help="--threads of the runs over an image list (default 2)")
    args = parser.parse_args(argv)
    matrix = rows(args.threads)
    with tempfile.TemporaryDirectory() as scratch:
        results = run(matrix, Path(scratch))
    for r in results:
        if r.code != 0 or r.stderr:
            print(f"row {r.row.id!r}: exit {r.code}: {r.stderr.strip()}", file=sys.stderr)
    counts = {c: sum(r.row.command == c for r in results) for c in COMMANDS}
    for key, value in digests(results).items():
        print(f"{value}  {key} ({counts.get(key, len(results))} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
