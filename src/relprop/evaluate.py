"""Faithfulness harness: pixel ranking, insertion/deletion curves, and the
conservation report.

A "pixel" is all three channels at one spatial location, perturbation writes
literal zeros in normalized space (the values the model actually consumes),
and curve areas use the trapezoidal rule over the inserted/deleted fraction,
which is exact for the piecewise-linear curve.

A curve's perturbed inputs go through ``run_forward`` as stacks of up to
:func:`chunk_size` images. Each row of a stack's result is bit for bit the
single-image forward, so the chunk size never changes a curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forward import run_forward
from .image import ImageSample, format_float
from .lrp import AttributionMap, RelevanceState
from .model import ModelGraph

MODES = ("insertion", "deletion")

# The activation budget of one batched curve forward: a chunk holds as many
# images as fit their largest float64 GEMM operand into this many bytes. At
# 4ch/8px that is 18 images, so both 100-step curves (128 distinct inputs) run
# as 8 stacks; at 16ch/32px and 64ch/64px it is 1. Larger chunks run the 8 px
# curves faster but hold more memory at once (about 18 KB per image at 8 px).
CHUNK_BYTES = 256 << 10


@dataclass
class EvalCurve:
    """Probability-vs-fraction curve with its trapezoidal area."""

    fractions: np.ndarray      # strictly increasing, 0 .. 1
    probabilities: np.ndarray  # class probability at each fraction
    auc: float

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(float(f), float(p)) for f, p in zip(self.fractions, self.probabilities)]


@dataclass
class ConservationRow:
    checkpoint: str
    sum_relevance: float
    p_c: float
    relative_deviation: float


@dataclass
class ConservationReport:
    rows: list[ConservationRow]

    @property
    def max_relative_deviation(self) -> float:
        return max((r.relative_deviation for r in self.rows), default=0.0)


def rank_pixels(amap: AttributionMap) -> np.ndarray:
    """All (row, col) positions, descending by attribution, ties row-major.

    Ranks the quantized map when present, else the raw map.
    """
    values = np.asarray(amap.values, dtype=np.float64)
    h, w = values.shape
    order = np.argsort(-values.ravel(), kind="stable")
    return np.stack([order // w, order % w], axis=1).astype(np.int64)


def forward_bytes(graph: ModelGraph, h: int, w: int) -> int:
    """An estimate of the largest float64 GEMM operand of one H x W image's
    forward: the widest conv (C_in*k*k or C_out rows) over every input pixel."""
    depth = max((max(t.shape[0], math.prod(t.shape[1:]))
                 for t in graph.tensors.values() if t.ndim == 4), default=1)
    return 8 * depth * h * w


def chunk_size(graph: ModelGraph, h: int, w: int) -> int:
    """Images per batched curve forward: as many as fit CHUNK_BYTES, at least 1."""
    return max(1, CHUNK_BYTES // forward_bytes(graph, h, w))


def perturb(sample: ImageSample, ranking: np.ndarray, n: int, mode: str) -> np.ndarray:
    """Keep (insertion) or zero (deletion) the top-n ranked pixels, in
    normalized space; the two modes are exact complements of each other.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    x = sample.normalized
    _, h, w = x.shape
    total = h * w
    if not 0 <= n <= total:
        raise ValueError(f"n must be in [0, {total}], got {n}")
    mask = np.zeros((h, w), dtype=bool)
    head = ranking[:n]
    mask[head[:, 0], head[:, 1]] = True
    keep = mask[None, :, :] if mode == "insertion" else ~mask[None, :, :]
    return np.where(keep, x, np.float32(0.0))


def _step_counts(total: int, steps: int) -> list[int]:
    """Distinct pixel counts of steps 0..steps, ascending; from ``total`` steps on, 0..total."""
    steps = min(steps, total)
    return sorted({int(np.floor(t * total / steps + 0.5)) for t in range(steps + 1)})


def trapezoid_auc(fractions: np.ndarray, probabilities: np.ndarray) -> float:
    return float(np.trapezoid(np.asarray(probabilities, dtype=np.float64),
                              np.asarray(fractions, dtype=np.float64)))


def _kept(n: int, total: int, mode: str) -> tuple[int, int]:
    """The slice [a, b) of the ranking that the input at step n keeps; every
    empty slice is (0, 0), since each makes the all-zero image."""
    a, b = (0, n) if mode == "insertion" else (n, total)
    return (a, b) if a < b else (0, 0)


def curves(graph: ModelGraph, sample: ImageSample, amap: AttributionMap,
           class_index: int | None, steps: int = 100,
           modes: tuple[str, ...] = MODES) -> tuple[int, list[EvalCurve]]:
    """The curves of ``modes``, from one batched pass over their distinct inputs.

    Insertion at n=total and deletion at n=0 are both the untouched image, and
    insertion at n=0 and deletion at n=total both the all-zero image; each
    distinct input is forwarded once, in chunks of :func:`chunk_size`. With
    ``class_index`` None the class is the argmax of the untouched image's
    probabilities (lowest index on ties). Returns the class and the curves.

    A map whose size differs from the image's, or a class outside the model's
    range, raises ``ValueError`` before anything is forwarded.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if amap.values.shape != sample.normalized.shape[1:]:
        raise ValueError(f"attribution {amap.values.shape} does not match image "
                         f"{sample.normalized.shape[1:]}")
    if class_index is not None and not 0 <= class_index < graph.num_classes:
        raise ValueError(f"class {class_index} out of range for "
                         f"{graph.num_classes} classes")
    ranking = rank_pixels(amap)
    total = ranking.shape[0]
    counts = _step_counts(total, steps)
    rows: dict[tuple[int, int], int] = {}
    inputs = []
    for mode in modes:
        for n in counts:
            if rows.setdefault(_kept(n, total, mode), len(rows)) == len(inputs):
                inputs.append((n, mode))

    chunk = chunk_size(graph, *sample.normalized.shape[1:])
    probs = np.concatenate([
        run_forward(graph, np.stack([perturb(sample, ranking, n, mode)
                                     for n, mode in inputs[i:i + chunk]]))
        for i in range(0, len(inputs), chunk)])
    if class_index is None:
        class_index = int(np.argmax(probs[rows[(0, total)]]))

    fr = np.asarray([n / total for n in counts], dtype=np.float64)
    result = []
    for mode in modes:
        pr = np.asarray([probs[rows[_kept(n, total, mode)], class_index] for n in counts],
                        dtype=np.float64)
        result.append(EvalCurve(fractions=fr, probabilities=pr, auc=trapezoid_auc(fr, pr)))
    return class_index, result


def curve(graph: ModelGraph, sample: ImageSample, amap: AttributionMap,
          class_index: int, mode: str, steps: int = 100) -> EvalCurve:
    """Evaluate the insertion or deletion curve (see :func:`curves`)."""
    return curves(graph, sample, amap, class_index, steps, (mode,))[1][0]


def id_score(insertion: EvalCurve, deletion: EvalCurve) -> float:
    """Insertion area minus deletion area."""
    return float(insertion.auc - deletion.auc)


def conservation_report(state: RelevanceState, p_c: float) -> ConservationReport:
    """Per-checkpoint deviation of the relevance sum from the class probability."""
    rows = []
    for label, total in state.checkpoint_sums:
        dev = abs(total - p_c) / max(p_c, 1e-12)
        rows.append(ConservationRow(checkpoint=label, sum_relevance=total,
                                    p_c=float(p_c), relative_deviation=float(dev)))
    return ConservationReport(rows=rows)


def write_curve_csv(path: str | Path, curve_: EvalCurve) -> None:
    """CSV export: fraction,probability rows plus a trailing auc comment."""
    lines = ["fraction,probability"]
    lines += [f"{format_float(f)},{format_float(p)}" for f, p in curve_.points]
    lines.append(f"# auc={format_float(curve_.auc)}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
