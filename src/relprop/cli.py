"""Command-line surface: infer, explain, evaluate, check-conservation.

Machine-readable results (JSON, one object per invocation) go to stdout;
diagnostics go to stderr, gated by RELPROP_LOG={error|info|debug}. Exit codes:
0 success, 2 input/validation error, 3 conservation violation. Outputs are
byte-deterministic for identical inputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import lrp
from .forward import GraphExecutionError, run_forward
from .image import (ImageFormatError, ImageSample, format_float, load_ppm,
                    read_map_csv, write_attribution)
from .model import ModelError, ModelGraph, generate_toy_resnet, load_model

log = logging.getLogger("relprop")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSERVATION = 3


class CliError(Exception):
    """Invalid invocation; maps to exit code 2."""


# FloatingPointError: a model whose finite weights still overflow to a
# non-finite relevance sum.
_INPUT_ERRORS = (CliError, ModelError, ImageFormatError, GraphExecutionError, ValueError,
                 LookupError, OSError, FloatingPointError)


@dataclass
class JobConfig:
    """Validated flags for one subcommand invocation. These field defaults
    are the only home of the CLI's flag defaults."""

    model: str
    image: str | None = None
    images: str | None = None
    class_spec: str = "auto"
    rule_config: lrp.RuleConfig = field(default_factory=lrp.RuleConfig)
    steps: int = 100
    tolerance: float = 1e-4
    out: str | None = None
    topk: int = 5
    threads: int = 1
    seed: int = 0
    attribution: str | None = None
    recompute: bool = False
    # --class as parsed: None for 'auto' (the argmax of the image's forward).
    # The engine range-checks it against the model.
    class_index: int | None = field(init=False, default=None)

    def __post_init__(self):
        if self.class_spec != "auto":
            try:
                self.class_index = int(self.class_spec)
            except ValueError:
                raise CliError(f"--class must be 'auto' or an integer, "
                               f"got {self.class_spec!r}")
        if self.steps < 2:
            raise CliError("--steps must be >= 2")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise CliError(f"--tolerance must be finite and >= 0, got {self.tolerance}")
        if self.threads < 1:
            raise CliError("--threads must be >= 1")
        if self.topk < 1:
            raise CliError("--topk must be >= 1")

    @staticmethod
    def from_args(args: argparse.Namespace) -> "JobConfig":
        """The job for a parsed command line, which holds only the flags given."""
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
        rule_flags = {f.name: flags.pop(f.name) for f in fields(lrp.RuleConfig)
                      if f.name in flags}
        job = JobConfig(**flags)
        job.rule_config = lrp.RuleConfig(**rule_flags)
        return job


def _parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def _load_graph(job: JobConfig) -> ModelGraph:
    """Load a manifest, or build a seeded toy model for 'toy[:C,B,K,HW]'."""
    spec = job.model
    if spec == "toy" or spec.startswith("toy:"):
        params = [4, 2, 5, 8]
        if spec.startswith("toy:"):
            parts = spec[4:].split(",")
            if len(parts) != 4:
                raise CliError("--model toy:<channels>,<blocks>,<classes>,<hw>")
            try:
                params = [int(p) for p in parts]
            except ValueError:
                raise CliError(f"non-integer toy model parameter in {spec!r}")
        log.info("generating toy model seed=%d channels=%d blocks=%d classes=%d hw=%d",
                 job.seed, *params)
        return generate_toy_resnet(job.seed, *params)
    return load_model(spec)


def _image_paths(job: JobConfig) -> list[Path]:
    if (job.image is None) == (job.images is None):
        raise CliError("exactly one of --image and --images is required")
    if job.image is not None:
        return [Path(job.image)]
    manifest = Path(job.images)
    if not manifest.is_file():
        raise CliError(f"image manifest not found: {manifest}")
    paths = []
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if line:
            p = Path(line)
            paths.append(p if p.is_absolute() else manifest.parent / p)
    if not paths:
        raise CliError(f"image manifest {manifest} lists no images")
    return paths


def _csv_field(text: str) -> str:
    """RFC 4180 minimal quoting: a field that holds a comma, a double quote,
    CR or LF is quoted, with its quotes doubled; any other is written as is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _map_jobs(fn, items, threads: int) -> list:
    """Apply fn over items, optionally in a thread pool; order-preserving."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: a single-threaded run never loads the pool's modules.
    from concurrent.futures import ThreadPoolExecutor
    # The pool's threads end when it exits, and their conv workspaces
    # (ops.workspace) are freed with them.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_infer(job: JobConfig) -> int:
    graph = _load_graph(job)
    sample = load_ppm(_image_paths(job)[0], graph.preprocess)
    probs = run_forward(graph, sample.normalized)
    order = np.argsort(-probs.astype(np.float64), kind="stable")
    for idx in order[: job.topk]:
        sys.stdout.write(f"{int(idx)} {format_float(probs[idx])}\n")
    return EXIT_OK


def _explain_one(graph: ModelGraph, job: JobConfig, path: Path
                 ) -> tuple[ImageSample, lrp.AttributionMap, lrp.RelevanceState]:
    sample = load_ppm(path, graph.preprocess)
    return sample, *lrp.explain(graph, sample, job.class_index, job.rule_config)


def _verdict(job: JobConfig, worst: float) -> int:
    """The exit code for a run whose largest checkpoint deviation is ``worst``:
    only z+ promises conservation, so only z+ is held to the tolerance."""
    if job.rule_config.rule == "zplus" and worst > job.tolerance:
        log.error("conservation violated: %.3e > %.3e", worst, job.tolerance)
        return EXIT_CONSERVATION
    return EXIT_OK


def cmd_explain(job: JobConfig) -> int:
    graph = _load_graph(job)
    _, amap, state = _explain_one(graph, job, _image_paths(job)[0])
    written = write_attribution(amap, job.out)
    log.info("wrote %s", ", ".join(str(p) for p in written))

    p_c = state.checkpoint_sums[0][1]  # the seed sum is exactly p(class)
    report = ev.conservation_report(state, p_c)
    _emit({
        "class": state.class_index,
        "p_c": p_c,
        "checkpoint_sums": {label: total for label, total in state.checkpoint_sums},
        "max_relative_deviation": report.max_relative_deviation,
    })
    return _verdict(job, report.max_relative_deviation)


def _curves_for_image(graph: ModelGraph, job: JobConfig, path: Path
                      ) -> tuple[int, ev.EvalCurve, ev.EvalCurve]:
    if job.recompute:
        sample, amap, _ = _explain_one(graph, job, path)
    else:
        sample = load_ppm(path, graph.preprocess)
        amap = lrp.AttributionMap(raw=read_map_csv(job.attribution), quantized=None)
    c, (ins, dele) = ev.curves(graph, sample, amap, job.class_index, job.steps)
    return c, ins, dele


def cmd_evaluate(job: JobConfig) -> int:
    if not job.recompute and job.attribution is None:
        raise CliError("provide --attribution <csv> or --recompute")
    if not job.recompute and job.images is not None:
        raise CliError("--attribution applies to a single --image; "
                       "use --recompute with --images")
    graph = _load_graph(job)
    paths = _image_paths(job)

    results = _map_jobs(lambda p: _curves_for_image(graph, job, p), paths, job.threads)

    per_image = []
    for path, (c, ins, dele) in zip(paths, results):
        prefix = job.out if len(paths) == 1 else f"{job.out}.{len(per_image):04d}"
        ev.write_curve_csv(f"{prefix}.insertion.csv", ins)
        ev.write_curve_csv(f"{prefix}.deletion.csv", dele)
        per_image.append({
            "image": str(path),
            "class": c,
            "insertion_auc": ins.auc,
            "deletion_auc": dele.auc,
            "id_score": ev.id_score(ins, dele),
        })
        log.info("evaluated %s: id=%.4f", path, per_image[-1]["id_score"])

    if len(per_image) == 1:
        _emit({k: per_image[0][k]
               for k in ("insertion_auc", "deletion_auc", "id_score")})
        return EXIT_OK
    summary = {"per_image": per_image}
    for key in ("insertion_auc", "deletion_auc", "id_score"):
        vals = np.asarray([r[key] for r in per_image], dtype=np.float64)
        summary[f"{key}_mean"] = float(vals.mean())
        summary[f"{key}_std"] = float(vals.std(ddof=1))
    _emit(summary)
    return EXIT_OK


def cmd_check_conservation(job: JobConfig) -> int:
    graph = _load_graph(job)
    paths = _image_paths(job)

    def one(path: Path):
        _, _, state = _explain_one(graph, job, path)
        p_c = state.checkpoint_sums[0][1]
        return path, ev.conservation_report(state, p_c)

    results = _map_jobs(one, paths, job.threads)

    lines = ["image,checkpoint,sum_R,p_c,relative_deviation"]
    worst = 0.0
    for path, report in results:
        for row in report.rows:
            lines.append(",".join([
                _csv_field(str(path)), row.checkpoint, format_float(row.sum_relevance),
                format_float(row.p_c), format_float(row.relative_deviation),
            ]))
        worst = max(worst, report.max_relative_deviation)
    rows = len(lines) - 1
    out_path = Path(f"{job.out}.csv")
    out_path.write_text("\n".join(lines) + "\n", newline="\n")
    log.info("wrote %s (%d rows)", out_path, rows)

    _emit({
        "images": len(paths),
        "rows": rows,
        "rule": job.rule_config.rule,
        "tolerance": job.tolerance,
        "max_relative_deviation": worst,
        "enforced": job.rule_config.rule == "zplus",
    })
    return _verdict(job, worst)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   help="manifest path, or toy[:channels,blocks,classes,hw]")
    p.add_argument("--seed", type=int,
                   help="seed for toy-model generation")
    p.add_argument("--threads", type=int,
                   help="concurrent per-image jobs; outputs are identical for any value")


def _add_image_flags(p: argparse.ArgumentParser, manifest: bool) -> None:
    p.add_argument("--image", help="input PPM (binary P6)")
    if manifest:
        p.add_argument("--images", help="newline-delimited manifest of PPM paths")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", choices=list(lrp.RULES))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--mixture-boundary", dest="mixture_boundary", type=int)
    p.add_argument("--splitting", choices=list(lrp.SPLITTINGS))
    p.add_argument("--include-identity", dest="include_identity", type=_parse_bool,
                   metavar="{true,false}")
    p.add_argument("--quantize", choices=list(lrp.QUANTIZE_MODES))
    p.add_argument("--bins", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use and shared by every
    ``main`` call, so callers must never mutate it."""
    parser = argparse.ArgumentParser(
        prog="relprop",
        description="Relevance propagation for residual CNNs with conservation "
                    "auditing and insertion/deletion evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    # An absent flag stays out of the namespace, so JobConfig's default applies.
    add_parser = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add_parser("infer", help="top-k class probabilities for an image")
    _add_model_flags(p)
    _add_image_flags(p, manifest=False)
    p.add_argument("--topk", type=int)
    p.set_defaults(fn=cmd_infer)

    p = add_parser("explain", help="attribution map + conservation summary")
    _add_model_flags(p)
    _add_image_flags(p, manifest=False)
    p.add_argument("--class", dest="class_spec",
                   help="target class index, or 'auto' for the argmax")
    _add_rule_flags(p)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", required=True, help="output prefix (.csv/.pgm)")
    p.set_defaults(fn=cmd_explain)

    p = add_parser("evaluate", help="insertion/deletion curves and scores")
    _add_model_flags(p)
    _add_image_flags(p, manifest=True)
    p.add_argument("--class", dest="class_spec")
    _add_rule_flags(p)
    p.add_argument("--attribution", help="attribution CSV from a previous explain")
    p.add_argument("--recompute", action="store_true",
                   help="recompute attributions instead of reading a CSV")
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True, help="output prefix for curve CSVs")
    p.set_defaults(fn=cmd_evaluate)

    p = add_parser("check-conservation",
                   help="per-checkpoint conservation audit over images")
    _add_model_flags(p)
    _add_image_flags(p, manifest=True)
    p.add_argument("--class", dest="class_spec")
    _add_rule_flags(p)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--out", required=True, help="output prefix for the audit CSV")
    p.set_defaults(fn=cmd_check_conservation)
    return parser


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RELPROP_LOG", "error"), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        job = JobConfig.from_args(args)
        return args.fn(job)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
