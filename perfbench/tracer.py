"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the functions one relprop module
calls in another, under the name the caller looks them up by (for example
``relprop.cli.run_forward`` and ``relprop.lrp.run_forward`` are wrapped
separately, because each module imports ``run_forward`` by name). ``src/`` is
never edited: ``install`` swaps module attributes and ``uninstall`` restores
them.

Each span records (id, parent id, name, start ns, end ns, thread, request).
Parents come from a per-thread stack, so spans opened in the CLI's worker
threads are roots of their own thread. Spans are kept in memory and written
out by ``write_spans`` when the run ends. ``layer_metrics`` turns them into
the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

OP_KINDS = ("conv1x1", "conv3x3", "bn", "relu", "maxpool", "gap", "fc", "softmax")

# (name, unit, better). Times and calls are per benchmark iteration, so runs
# of different lengths compare; the ratios are exact counts.
PER_LAYER = [
    ("cli.self_s", "s/iter", "lower"),
    ("cli.pool.idle_s", "s/iter", "lower"),
    ("model.generate_toy_resnet.s", "s/iter", "lower"),
    ("model.validate_graph.s", "s/iter", "lower"),
    ("image.load_ppm.s", "s/iter", "lower"),
    ("image.write_attribution.s", "s/iter", "lower"),
    ("image.read_map_csv.s", "s/iter", "lower"),
    ("evaluate.write_curve_csv.s", "s/iter", "lower"),
    ("forward.per_explain", "count", "lower"),
    ("forward.per_evaluate_image", "count", "lower"),
    ("forward.run_forward.traced.calls", "count/iter", "lower"),
    ("forward.run_forward.untraced.calls", "count/iter", "lower"),
    ("forward.run_forward.traced.self_s", "s/iter", "lower"),
    ("forward.run_forward.untraced.self_s", "s/iter", "lower"),
]
for _kind in OP_KINDS:
    PER_LAYER += [(f"ops.{_kind}.calls", "count/iter", "lower"),
                  (f"ops.{_kind}.s", "s/iter", "lower")]
PER_LAYER += [
    ("ops.im2col.s", "s/iter", "lower"),
    ("ops.col2im_add.s", "s/iter", "lower"),
    ("ops.conv.flops", "flop/iter", "lower"),
    ("ops.conv.bytes", "B/iter", "lower"),
    ("ops.conv.gflops_per_s", "GFLOP/s", "higher"),
    ("lrp.lrp_conv.1x1.zplus.s", "s/iter", "lower"),
    ("lrp.lrp_conv.1x1.epsilon.s", "s/iter", "lower"),
    ("lrp.lrp_conv.3x3.zplus.s", "s/iter", "lower"),
    ("lrp.lrp_conv.3x3.epsilon.s", "s/iter", "lower"),
    ("lrp.lrp_maxpool.s", "s/iter", "lower"),
    ("lrp.lrp_gap.s", "s/iter", "lower"),
    ("lrp.lrp_linear.s", "s/iter", "lower"),
    ("lrp.split_relevance.s", "s/iter", "lower"),
    ("lrp.propagate_bottleneck.self_s", "s/iter", "lower"),
    ("lrp.heat_quantize.s", "s/iter", "lower"),
    ("lrp.explain.self_s", "s/iter", "lower"),
    ("evaluate.curve.self_s", "s/iter", "lower"),
    ("evaluate.forwards_per_curve", "count", "lower"),
    ("evaluate.perturb.s", "s/iter", "lower"),
    ("evaluate.rank_pixels.s", "s/iter", "lower"),
    ("evaluate.conservation_report.s", "s/iter", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel(weight) -> str:
    k = weight.shape[-1]
    return f"{k}x{k}"


def _conv_cost(args, kwargs) -> tuple[int, int]:
    """Computed (not measured) flops and float64 GEMM bytes of one forward conv."""
    x, weight = args[0], args[1]
    stride = _arg(args, kwargs, 3, "stride", 1)
    padding = _arg(args, kwargs, 4, "padding", 0)
    c_out, c_in, k, _ = weight.shape
    out_h = (x.shape[1] + 2 * padding - k) // stride + 1
    out_w = (x.shape[2] + 2 * padding - k) // stride + 1
    depth, cols = c_in * k * k, out_h * out_w
    return 2 * c_out * depth * cols, 8 * (depth * cols + c_out * depth + c_out * cols)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name, on_call=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string, or a function of (args, kwargs) for spans whose
        name depends on the call (kernel size, rule, traced or not).
        ``on_call(args, kwargs)`` runs before the call, to record counts.
        """
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = fixed or name(args, kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, label, t0, t1,
                                     threading.get_ident(), tracer.request))
        return traced

    def _patch(self, module, attr: str, name, on_call=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_call))

    def _map_jobs(self, original):
        """Span around cli._map_jobs that also books the pool's idle time:
        workers x wall time, minus the time the jobs ran."""
        tracer = self

        def map_jobs(fn, items, threads):
            if threads <= 1 or len(items) <= 1:
                return original(fn, items, threads)
            busy = [0]
            lock = threading.Lock()

            def timed(item):
                t0 = perf_counter_ns()
                try:
                    return fn(item)
                finally:
                    with lock:
                        busy[0] += perf_counter_ns() - t0
            t0 = perf_counter_ns()
            result = original(timed, items, threads)
            wall = perf_counter_ns() - t0
            tracer.add("cli.pool.idle_ns", threads * wall - busy[0])
            return result
        return self.wrap(map_jobs, "cli._map_jobs")

    def install(self, relprop) -> None:
        """Wrap every cross-module call site of the relprop package."""
        cli, model, lrp, ev, ops = (relprop.cli, relprop.model, relprop.lrp,
                                    relprop.evaluate, relprop.ops)
        self._patch(cli, "generate_toy_resnet", "model.generate_toy_resnet")
        self._patch(model, "validate_graph", "model.validate_graph")
        for attr in ("load_ppm", "read_map_csv", "write_attribution"):
            self._patch(cli, attr, f"image.{attr}")

        def forward_name(args, kwargs):
            traced = _arg(args, kwargs, 2, "want_trace", False)
            return "forward.run_forward.traced" if traced else "forward.run_forward.untraced"
        for module in (cli, lrp, ev):
            self._patch(module, "run_forward", forward_name)

        def conv_cost(args, kwargs):
            flops, nbytes = _conv_cost(args, kwargs)
            self.add("ops.conv.flops", flops)
            self.add("ops.conv.bytes", nbytes)
        self._patch(ops, "conv2d_forward",
                    lambda args, kwargs: f"ops.conv{_kernel(args[1])}", conv_cost)
        for attr, kind in (("bn_forward", "bn"), ("relu_forward", "relu"),
                           ("maxpool_forward", "maxpool"), ("gap_forward", "gap"),
                           ("fc_forward", "fc"), ("softmax", "softmax"),
                           ("im2col", "im2col"), ("col2im_add", "col2im_add")):
            self._patch(ops, attr, f"ops.{kind}")

        self._patch(lrp, "lrp_conv", lambda args, kwargs: (
            f"lrp.lrp_conv.{_kernel(args[1])}.{_arg(args, kwargs, 5, 'rule', 'zplus')}"))
        for attr in ("explain", "propagate_bottleneck", "split_relevance", "lrp_maxpool",
                     "lrp_gap", "lrp_linear", "heat_quantize"):
            self._patch(lrp, attr, f"lrp.{attr}")

        for attr in ("curve", "perturb", "rank_pixels", "conservation_report",
                     "write_curve_csv"):
            self._patch(ev, attr, f"evaluate.{attr}")

        for attr in ("_explain_one", "_curves_for_image"):
            self._patch(cli, attr, f"cli.{attr}")
        original = cli._map_jobs
        self._patched.append((cli, "_map_jobs", original))
        cli._map_jobs = self._map_jobs(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent, name, start ns, end ns,
        thread, request."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_under(spans, by_id, scope: str, target_prefix: str) -> tuple[int, int]:
    """The number of ``scope`` spans, and of ``target_prefix`` spans that have
    a ``scope`` span among their ancestors."""
    scopes = sum(1 for s in spans if s[2] == scope)
    hits = 0
    for s in spans:
        if not s[2].startswith(target_prefix):
            continue
        parent = s[1]
        while parent != -1:
            p = by_id[parent]
            if p[2] == scope:
                hits += 1
                break
            parent = p[1]
    return scopes, hits


def layer_metrics(tracer: Tracer, iterations: int, overhead_s: float,
                  untraced_s: float) -> dict[str, float]:
    """Per-layer metrics (see ``PER_LAYER``) from the recorded spans.

    ``overhead_s`` is the traced minus the untraced request time of the same
    requests, and ``untraced_s`` the untraced one."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[1] != -1:
            child_ns[s[1]] += s[4] - s[3]
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        dur = s[4] - s[3]
        total[s[2]] += dur
        self_time[s[2]] += dur - child_ns[s[0]]
        calls[s[2]] += 1

    per_iter = 1.0 / (iterations * 1e9)
    out = {
        # The pool's wall time is booked as busy + idle, not as cli self time.
        "cli.self_s": sum(v for k, v in self_time.items()
                          if k.startswith("cli.") and k != "cli._map_jobs") * per_iter,
        "cli.pool.idle_s": tracer.counters["cli.pool.idle_ns"] * per_iter,
    }
    for name in ("model.generate_toy_resnet", "model.validate_graph", "image.load_ppm",
                 "image.write_attribution", "image.read_map_csv",
                 "evaluate.write_curve_csv", "evaluate.perturb", "evaluate.rank_pixels",
                 "evaluate.conservation_report", "ops.im2col", "ops.col2im_add",
                 "lrp.lrp_maxpool", "lrp.lrp_gap", "lrp.lrp_linear",
                 "lrp.split_relevance", "lrp.heat_quantize"):
        out[f"{name}.s"] = total[name] * per_iter
    for kernel in ("1x1", "3x3"):
        for rule in ("zplus", "epsilon"):
            out[f"lrp.lrp_conv.{kernel}.{rule}.s"] = (
                total[f"lrp.lrp_conv.{kernel}.{rule}"] * per_iter)
    for name in ("lrp.propagate_bottleneck", "lrp.explain", "evaluate.curve"):
        out[f"{name}.self_s"] = self_time[name] * per_iter
    for mode in ("traced", "untraced"):
        name = f"forward.run_forward.{mode}"
        out[f"{name}.calls"] = calls[name] / iterations
        out[f"{name}.self_s"] = self_time[name] * per_iter
    for kind in OP_KINDS:
        out[f"ops.{kind}.calls"] = calls[f"ops.{kind}"] / iterations
        out[f"ops.{kind}.s"] = total[f"ops.{kind}"] * per_iter
    conv_ns = total["ops.conv1x1"] + total["ops.conv3x3"]
    out["ops.conv.flops"] = tracer.counters["ops.conv.flops"] / iterations
    out["ops.conv.bytes"] = tracer.counters["ops.conv.bytes"] / iterations
    out["ops.conv.gflops_per_s"] = (tracer.counters["ops.conv.flops"] / conv_ns
                                    if conv_ns else 0.0)

    for metric, scope in (("forward.per_explain", "cli._explain_one"),
                          ("forward.per_evaluate_image", "cli._curves_for_image"),
                          ("evaluate.forwards_per_curve", "evaluate.curve")):
        scopes, hits = _count_under(spans, by_id, scope, "forward.run_forward.")
        out[metric] = hits / scopes if scopes else 0.0

    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = overhead_s / untraced_s
    return out
