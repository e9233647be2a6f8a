"""Command-line surface: infer, explain, evaluate, check-conservation.

Machine-readable results (JSON, one object per invocation) go to stdout;
diagnostics go to stderr, gated by RELPROP_LOG={error|info|debug}. Exit codes:
0 success, 2 input/validation error, 3 conservation violation. Outputs are
byte-deterministic for identical inputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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

# FloatingPointError: a model whose finite weights still overflow to a
# non-finite relevance sum.
_INPUT_ERRORS = (ModelError, ImageFormatError, GraphExecutionError, ValueError,
                 LookupError, OSError, FloatingPointError)


class CliError(Exception):
    """Invalid invocation; maps to exit code 2."""


@dataclass
class JobConfig:
    """Validated flags for one subcommand invocation."""

    model: str
    image: str | None
    images: str | None
    class_spec: str
    rule_config: lrp.RuleConfig
    steps: int
    tolerance: float
    out: str | None
    topk: int
    threads: int
    seed: int
    attribution: str | None
    recompute: bool

    @staticmethod
    def from_args(args: argparse.Namespace) -> "JobConfig":
        cls = getattr(args, "class_spec", "auto")
        if cls != "auto":
            try:
                int(cls)
            except ValueError:
                raise CliError(f"--class must be 'auto' or an integer, got {cls!r}")
        steps = getattr(args, "steps", 100)
        if steps < 2:
            raise CliError("--steps must be >= 2")
        tolerance = getattr(args, "tolerance", 1e-4)
        if tolerance < 0:
            raise CliError("--tolerance must be >= 0")
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise CliError("--threads must be >= 1")
        topk = getattr(args, "topk", 5)
        if topk < 1:
            raise CliError("--topk must be >= 1")
        try:
            rule_config = lrp.RuleConfig(
                rule=getattr(args, "rule", "zplus"),
                epsilon=getattr(args, "epsilon", 1e-6),
                mixture_boundary=getattr(args, "mixture_boundary", 8),
                splitting=getattr(args, "splitting", "ratio"),
                include_identity=getattr(args, "include_identity", True),
                quantize=getattr(args, "quantize", "paper"),
                bins=getattr(args, "bins", 8),
            )
        except ValueError as exc:
            raise CliError(str(exc))
        return JobConfig(
            model=args.model,
            image=getattr(args, "image", None),
            images=getattr(args, "images", None),
            class_spec=cls,
            rule_config=rule_config,
            steps=steps,
            tolerance=tolerance,
            out=getattr(args, "out", None),
            topk=topk,
            threads=threads,
            seed=getattr(args, "seed", 0),
            attribution=getattr(args, "attribution", None),
            recompute=getattr(args, "recompute", False),
        )


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


def _explicit_class(job: JobConfig, num_classes: int) -> int | None:
    """The --class index, or None for 'auto' (the argmax of the image's forward)."""
    if job.class_spec == "auto":
        return None
    c = int(job.class_spec)
    if not 0 <= c < num_classes:
        raise CliError(f"--class {c} out of range for {num_classes} classes")
    return c


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _map_jobs(fn, items, threads: int) -> list:
    """Apply fn over items, optionally in a thread pool; order-preserving."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
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
                 ) -> tuple[ImageSample, int, lrp.AttributionMap, lrp.RelevanceState]:
    sample = load_ppm(path, graph.preprocess)
    c = _explicit_class(job, graph.num_classes)
    amap, state = lrp.explain(graph, sample, c, job.rule_config)
    return sample, state.class_index, amap, state


def cmd_explain(job: JobConfig) -> int:
    if job.out is None:
        raise CliError("--out is required")
    graph = _load_graph(job)
    _, c, amap, state = _explain_one(graph, job, _image_paths(job)[0])
    written = write_attribution(amap, job.out)
    log.info("wrote %s", ", ".join(str(p) for p in written))

    p_c = state.checkpoint_sums[0][1]  # the seed sum is exactly p(class)
    report = ev.conservation_report(state, p_c)
    _emit({
        "class": c,
        "p_c": p_c,
        "checkpoint_sums": {label: total for label, total in state.checkpoint_sums},
        "max_relative_deviation": report.max_relative_deviation,
    })
    if job.rule_config.rule == "zplus" and report.max_relative_deviation > job.tolerance:
        log.error("conservation violated: %.3e > %.3e",
                  report.max_relative_deviation, job.tolerance)
        return EXIT_CONSERVATION
    return EXIT_OK


def _curves_for_image(graph: ModelGraph, job: JobConfig, path: Path
                      ) -> tuple[int, ev.EvalCurve, ev.EvalCurve]:
    if job.recompute:
        sample, c, amap, _ = _explain_one(graph, job, path)
    else:
        sample = load_ppm(path, graph.preprocess)
        raw = read_map_csv(job.attribution)
        if raw.shape != sample.normalized.shape[1:]:
            raise CliError(f"attribution {raw.shape} does not match image "
                           f"{sample.normalized.shape[1:]}")
        amap = lrp.AttributionMap(raw=raw, quantized=None, quantize_mode="off",
                                  bins=job.rule_config.bins)
        c = _explicit_class(job, graph.num_classes)
        if c is None:
            c = int(np.argmax(run_forward(graph, sample.normalized)))
    ins = ev.curve(graph, sample, amap, c, "insertion", job.steps)
    dele = ev.curve(graph, sample, amap, c, "deletion", job.steps)
    return c, ins, dele


def cmd_evaluate(job: JobConfig) -> int:
    if job.out is None:
        raise CliError("--out is required")
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
        if len(paths) == 1:
            ins_path, del_path = f"{job.out}.insertion.csv", f"{job.out}.deletion.csv"
        else:
            i = len(per_image)
            ins_path = f"{job.out}.{i:04d}.insertion.csv"
            del_path = f"{job.out}.{i:04d}.deletion.csv"
        ev.write_curve_csv(ins_path, ins)
        ev.write_curve_csv(del_path, dele)
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
    if job.out is None:
        raise CliError("--out is required")
    graph = _load_graph(job)
    paths = _image_paths(job)

    def one(path: Path):
        _, c, _, state = _explain_one(graph, job, path)
        p_c = state.checkpoint_sums[0][1]
        return path, ev.conservation_report(state, p_c)

    results = _map_jobs(one, paths, job.threads)

    lines = ["image,checkpoint,sum_R,p_c,relative_deviation"]
    worst = 0.0
    rows = 0
    for path, report in results:
        for row in report.rows:
            lines.append(",".join([
                str(path), row.checkpoint, format_float(row.sum_relevance),
                format_float(row.p_c), format_float(row.relative_deviation),
            ]))
            rows += 1
        worst = max(worst, report.max_relative_deviation)
    out_path = Path(f"{job.out}.csv")
    out_path.write_text("\n".join(lines) + "\n", newline="\n")
    log.info("wrote %s (%d rows)", out_path, rows)

    conserving = job.rule_config.rule == "zplus"
    _emit({
        "images": len(paths),
        "rows": rows,
        "rule": job.rule_config.rule,
        "tolerance": job.tolerance,
        "max_relative_deviation": worst,
        "enforced": conserving,
    })
    if conserving and worst > job.tolerance:
        log.error("conservation violated: %.3e > %.3e", worst, job.tolerance)
        return EXIT_CONSERVATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   help="manifest path, or toy[:channels,blocks,classes,hw]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for toy-model generation")
    p.add_argument("--threads", type=int, default=1,
                   help="concurrent per-image jobs; outputs are identical for any value")


def _add_image_flags(p: argparse.ArgumentParser, manifest: bool) -> None:
    p.add_argument("--image", help="input PPM (binary P6)")
    if manifest:
        p.add_argument("--images", help="newline-delimited manifest of PPM paths")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", choices=list(lrp.RULES), default="zplus")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--mixture-boundary", dest="mixture_boundary", type=int, default=8)
    p.add_argument("--splitting", choices=list(lrp.SPLITTINGS), default="ratio")
    p.add_argument("--include-identity", dest="include_identity", type=_parse_bool,
                   default=True, metavar="{true,false}")
    p.add_argument("--quantize", choices=list(lrp.QUANTIZE_MODES), default="paper")
    p.add_argument("--bins", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprop",
        description="Relevance propagation for residual CNNs with conservation "
                    "auditing and insertion/deletion evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="top-k class probabilities for an image")
    _add_model_flags(p)
    _add_image_flags(p, manifest=False)
    p.add_argument("--topk", type=int, default=5)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("explain", help="attribution map + conservation summary")
    _add_model_flags(p)
    _add_image_flags(p, manifest=False)
    p.add_argument("--class", dest="class_spec", default="auto",
                   help="target class index, or 'auto' for the argmax")
    _add_rule_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--out", required=True, help="output prefix (.csv/.pgm)")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("evaluate", help="insertion/deletion curves and scores")
    _add_model_flags(p)
    _add_image_flags(p, manifest=True)
    p.add_argument("--class", dest="class_spec", default="auto")
    _add_rule_flags(p)
    p.add_argument("--attribution", help="attribution CSV from a previous explain")
    p.add_argument("--recompute", action="store_true",
                   help="recompute attributions instead of reading a CSV")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True, help="output prefix for curve CSVs")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("check-conservation",
                       help="per-checkpoint conservation audit over images")
    _add_model_flags(p)
    _add_image_flags(p, manifest=True)
    p.add_argument("--class", dest="class_spec", default="auto")
    _add_rule_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-4)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = JobConfig.from_args(args)
        return args.fn(job)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
