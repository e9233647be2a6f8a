"""relprop: relevance propagation for residual CNNs, with machine-checkable
conservation and an insertion/deletion faithfulness harness."""

from .evaluate import (ConservationReport, EvalCurve, conservation_report, curve,
                       curves, id_score, perturb, rank_pixels, trapezoid_auc,
                       write_curve_csv)
from .forward import ForwardTrace, GraphExecutionError, run_forward
from .image import (ImageFormatError, ImageSample, load_ppm, read_map_csv,
                    write_attribution, write_pgm, write_ppm)
from .lrp import (AttributionMap, RelevanceState, RuleConfig, channel_sum, explain,
                  heat_quantize, lrp_conv, lrp_gap, lrp_linear, lrp_maxpool,
                  passthrough, propagate_bottleneck, seed_relevance, split_relevance)
from .model import (BottleneckSpec, ModelError, ModelGraph, NodeSpec, Preprocess,
                    generate_toy_resnet, load_model, save_model, validate_graph)
from .ops import (ShapeMismatch, bn_forward, conv2d_forward, fc_forward, gap_forward,
                  maxpool_forward, relu_forward, softmax)

__version__ = "0.1.0"

__all__ = [
    "AttributionMap", "BottleneckSpec", "ConservationReport", "EvalCurve",
    "ForwardTrace", "GraphExecutionError", "ImageFormatError", "ImageSample",
    "ModelError", "ModelGraph", "NodeSpec", "Preprocess", "RelevanceState",
    "RuleConfig", "ShapeMismatch", "bn_forward", "channel_sum",
    "conservation_report", "conv2d_forward", "curve", "curves", "explain", "fc_forward",
    "gap_forward", "generate_toy_resnet", "heat_quantize", "id_score",
    "load_model", "load_ppm", "lrp_conv", "lrp_gap", "lrp_linear", "lrp_maxpool",
    "maxpool_forward", "passthrough", "perturb", "propagate_bottleneck",
    "rank_pixels", "read_map_csv", "relu_forward", "run_forward", "save_model",
    "seed_relevance", "softmax", "split_relevance", "trapezoid_auc",
    "validate_graph", "write_attribution", "write_curve_csv", "write_pgm",
    "write_ppm",
]
