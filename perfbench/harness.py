"""Closed-loop benchmark of the relprop CLI.

One client sends real ``relprop.cli.main`` invocations from this process; each
request is sent only after the previous one returns. Inputs are fresh PPM
images made from ``--seed`` and the iteration index, so the same seed gives
the same requests and the same output bytes. Outputs are checked after the
timed loop against ``relprop.run_forward`` and hashed.

The last line of stdout is the result: correct, attempted, failed and the
metrics with their units. The line before it is a report with the raw and
per-command latencies, the failure fraction, the output digest and the
environment.

Import this module only through ``run.py``, which pins BLAS to one thread
before numpy loads and puts the checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import relprop
from relprop import cli
from relprop.image import normalize

import tracer as tracing

WORK_DIR = Path(".perfbench_work")
SETUP_PROBES = 7
DIGEST_ITERATIONS = 4       # digest covers iterations 0..3, which every run makes
SMOKE_ITERATIONS = 3
SPAN_BUDGET = 200_000       # keeps the traced run's memory and span file small
ZPLUS_TOLERANCE = 1e-5
P90_MIN_SAMPLES = 100       # so that at least ten samples lie beyond the p90

REFERENCE_S = 0.006         # about the Reference kernel's median time on the tuning host

END_TO_END = [
    ("iteration_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Times import relprop plus one cold request in a fresh interpreter.
PROBE = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from relprop import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "seconds": time.perf_counter() - t0}))
"""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int
    blocks: int
    classes: int
    hw: int
    cycle: tuple[str, ...]          # the requests of one iteration, in order
    images_per_request: int = 1
    rule_flags: tuple[str, ...] = ()
    threads: int = 1

    @property
    def model(self) -> str:
        return f"toy:{self.channels},{self.blocks},{self.classes},{self.hw}"

    @property
    def zplus(self) -> bool:
        return "--rule" not in self.rule_flags


WORKLOADS = {w.name: w for w in (
    Workload("small-pipeline", 4, 2, 5, 8, ("infer", "explain", "evaluate")),
    Workload("explain-large", 64, 8, 10, 64, ("explain",)),
    Workload("audit-large-threads", 64, 8, 10, 64, ("check-conservation", "evaluate"),
             images_per_request=2, threads=min(2, _nproc()),
             rule_flags=("--rule", "mixture", "--mixture-boundary", "4",
                         "--splitting", "symmetric")),
)}


@dataclass
class Request:
    command: str
    argv: list[str]
    images: list[str]                   # paths as the CLI sees them
    out: str | None = None              # output prefix
    code: int = -1
    stdout: str = ""
    files: dict[str, bytes] = field(default_factory=dict)
    latency_s: float = 0.0


def _pixels(seed: int, iteration: int, index: int, hw: int) -> bytes:
    return random.Random(f"{seed}/{iteration}/{index}").randbytes(3 * hw * hw)


def _write_image(path: Path, hw: int, pixels: bytes) -> None:
    path.write_bytes(b"P6\n%d %d\n255\n" % (hw, hw) + pixels)


class Client:
    """Builds, sends and records the requests of one workload."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w = workload
        self.seed = seed
        self.model_seed = seed % 2**31
        self.work_dir = work_dir
        self.call = cli.main

    def _base(self, command: str) -> list[str]:
        argv = [command, "--model", self.w.model, "--seed", str(self.model_seed)]
        if command != "infer":
            argv += ["--threads", str(self.w.threads), *self.w.rule_flags]
        return argv

    def requests(self, iteration: int) -> list[Request]:
        """Write this iteration's images and build its requests."""
        w, reqs = self.w, []
        stem = self.work_dir / f"i{iteration:05d}"
        if w.images_per_request == 1:
            pixels = _pixels(self.seed, iteration, 0, w.hw)
            image = Path(f"{stem}.ppm")
            _write_image(image, w.hw, pixels)
            for command in w.cycle:
                out = f"{stem}_{command}"
                argv = self._base(command) + ["--image", str(image)]
                if command == "explain":
                    argv += ["--out", out]
                elif command == "evaluate":
                    argv += ["--attribution", f"{stem}_explain.csv", "--steps", "100",
                             "--out", out]
                reqs.append(Request(command, argv, [str(image)],
                                    None if command == "infer" else out))
            return reqs
        for r, command in enumerate(w.cycle):
            names = []
            for j in range(w.images_per_request):
                index = r * w.images_per_request + j
                image = Path(f"{stem}_{index}.ppm")
                _write_image(image, w.hw, _pixels(self.seed, iteration, index, w.hw))
                names.append(image.name)
            manifest = Path(f"{stem}_{command}_images.txt")
            manifest.write_text("".join(n + "\n" for n in names))
            out = f"{stem}_{command}"
            argv = self._base(command) + ["--images", str(manifest), "--out", out]
            if command == "evaluate":
                argv += ["--recompute", "--steps", "10"]
            reqs.append(Request(command, argv, [str(self.work_dir / n) for n in names], out))
        return reqs

    def send(self, req: Request) -> None:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                req.code = self.call(req.argv)
        except SystemExit as exc:          # argparse rejects an invocation this way
            req.code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # an uncaught engine error is a failed request
            traceback.print_exc()
            req.code = 1
        req.latency_s = time.perf_counter() - t0
        req.stdout = buf.getvalue()

    def iteration(self, i: int, on_request=None) -> list[Request]:
        """Send iteration ``i``. Its files stay on disk until ``settle``."""
        reqs = self.requests(i)
        for req in reqs:
            if on_request is not None:
                on_request(req)
            self.send(req)
        return reqs

    def settle(self, i: int, reqs: list[Request], checker: "Checker | None"
               ) -> tuple[str, int, list[str]]:
        """Hash iteration ``i``'s outputs and check them, then delete its files.

        Returns the iteration's digest, the number of requests that failed a
        check, and the problems found."""
        h = hashlib.sha256()
        failed, problems = 0, []
        for req in reqs:
            if req.out is not None:
                for path in sorted(self.work_dir.glob(Path(req.out).name + ".*")):
                    req.files[path.name] = path.read_bytes()
            h.update(f"{req.command}\0{req.code}\0{req.stdout}\0".encode())
            for name, data in req.files.items():
                h.update(name.encode() + b"\0" + data + b"\0")
            found = checker.check(req) if checker is not None else []
            failed += bool(found)
            problems += [f"{req.command} {req.images[0]}: {p}" for p in found]
            req.files.clear()
        for path in self.work_dir.glob(f"i{i:05d}*"):
            path.unlink()
        return h.hexdigest(), failed, problems


def digest(iteration_digests: list[str]) -> str:
    return hashlib.sha256("".join(iteration_digests).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output checks, made outside the engine against relprop.run_forward
# ---------------------------------------------------------------------------

class Checker:
    """Checks one request's exit code, stdout and files against
    ``relprop.run_forward`` on the pixels of its input images."""

    def __init__(self, w: Workload, model_seed: int):
        self.w = w
        self.graph = relprop.generate_toy_resnet(model_seed, w.channels, w.blocks,
                                                 w.classes, w.hw)
        zeros = np.zeros((3, w.hw, w.hw), dtype=np.float32)
        self.p_deleted = relprop.run_forward(self.graph, zeros)

    def probs(self, image: str) -> np.ndarray:
        hw = self.w.hw
        pixels = Path(image).read_bytes()[-3 * hw * hw:]      # after the P6 header
        raw = np.frombuffer(pixels, dtype=np.uint8).reshape(hw, hw, 3)
        raw = np.ascontiguousarray(raw.transpose(2, 0, 1)).astype(np.float32)
        return relprop.run_forward(self.graph, normalize(raw, self.graph.preprocess))

    def check(self, req: Request) -> list[str]:
        """Problems with one request's outputs; empty when it is correct."""
        if req.code != 0:
            return [f"exit code {req.code}"]
        probs = [self.probs(image) for image in req.images]
        classes = [int(np.argmax(p)) for p in probs]
        try:
            return getattr(self, "_" + req.command.replace("-", "_"))(req, probs, classes)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"malformed output: {exc!r}"]

    def _infer(self, req, probs, classes):
        p = probs[0]
        order = np.argsort(-p.astype(np.float64), kind="stable")[:5]
        got = [line.split() for line in req.stdout.splitlines()]
        want = [[str(int(i)), repr(float(p[i]))] for i in order]
        return [] if got == want else ["infer top-k differs from run_forward"]

    def _explain(self, req, probs, classes):
        out = json.loads(req.stdout)
        c = classes[0]
        p_c = float(probs[0][c])
        problems = []
        if out["class"] != c or out["p_c"] != p_c:
            problems.append("explain class or p_c differs from run_forward")
        sums = out["checkpoint_sums"]
        if len(sums) != self.w.blocks + 2:
            problems.append(f"{len(sums)} checkpoints, want {self.w.blocks + 2}")
        if self.w.zplus and any(abs(s - p_c) > ZPLUS_TOLERANCE * p_c for s in sums.values()):
            problems.append("z+ checkpoint sum off p_c by more than 1e-5 relative")
        rows = req.files[Path(req.out).name + ".csv"].decode().splitlines()
        if len(rows) != self.w.hw or any(len(r.split(",")) != self.w.hw for r in rows):
            problems.append("attribution CSV is not H x W")
        return problems

    def _curve_ends(self, text: str, first: float, last: float) -> bool:
        points = [line.split(",") for line in text.splitlines()[1:]
                  if not line.startswith("#")]
        return (points[0] == ["0.0", repr(first)] and points[-1] == ["1.0", repr(last)])

    def _evaluate(self, req, probs, classes):
        out = json.loads(req.stdout)
        prefix = Path(req.out).name
        if len(req.images) == 1:
            stems = [prefix]
        else:
            stems = [f"{prefix}.{i:04d}" for i in range(len(req.images))]
            if [r["class"] for r in out["per_image"]] != classes:
                return ["evaluate class differs from run_forward"]
        problems = []
        for stem, p, c in zip(stems, probs, classes):
            full, deleted = float(p[c]), float(self.p_deleted[c])
            if not (self._curve_ends(req.files[stem + ".insertion.csv"].decode(),
                                     deleted, full)
                    and self._curve_ends(req.files[stem + ".deletion.csv"].decode(),
                                         full, deleted)):
                problems.append(f"{stem}: curve endpoints differ from run_forward")
        return problems

    def _check_conservation(self, req, probs, classes):
        out = json.loads(req.stdout)
        rows = req.files[Path(req.out).name + ".csv"].decode().splitlines()[1:]
        per_image = self.w.blocks + 2
        if len(rows) != len(req.images) * per_image or out["rows"] != len(rows):
            return [f"audit has {len(rows)} rows, want {len(req.images) * per_image}"]
        problems = []
        for k, row in enumerate(rows):
            image, _, _, p_c, _ = row.split(",")
            i = k // per_image
            if image != req.images[i] or p_c != repr(float(probs[i][classes[i]])):
                problems.append(f"audit row {k} differs from run_forward")
        return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": _nproc(),
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Reference:
    """A fixed numpy and pure-Python kernel that shares no code with relprop.

    The 2-core host this benchmark was tuned on is shared: in phases lasting
    seconds to minutes it runs the same code up to 1.6x slower, and raw
    medians of 25 s runs spread 9-23% across runs. Each iteration is paired
    with one run of this kernel right after it and scaled by
    REFERENCE_S / (the kernel's time). Scaled medians spread 1-8%, so a
    bound can tell a regression from a slow phase.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.gemm = rng.standard_normal((256, 256))
        self.small = rng.standard_normal((4, 10, 10)).astype(np.float32)
        self.times: list[float] = []
        self.run()                  # the first call is cold; keep it out
        self.times.clear()

    def run(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(100):
            y = np.maximum(self.small, 0)
            ((y - 1.0) * 2.0).sum(dtype=np.float64)
        for _ in range(4):
            self.gemm @ self.gemm
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def scaled(self, samples: list[float]) -> list[float]:
        """``samples[i]`` at reference speed, by the i-th kernel time."""
        return [s * REFERENCE_S / t for s, t in zip(samples, self.times, strict=True)]

    def scale(self) -> float:
        """Factor to reference speed from the median kernel time."""
        return REFERENCE_S / statistics.median(self.times)


def setup_seconds(client: Client, probes: int) -> list[float]:
    """Import relprop plus one cold request, each in a fresh interpreter."""
    req = client.requests(-1)[0]
    env = dict(os.environ, PYTHONPATH="src")
    samples = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(req.argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
        if result.get("code") != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(result["seconds"])
    for path in client.work_dir.glob("i-0001*"):
        path.unlink()
    return samples


def loop(client: Client, seconds: float, min_iterations: int,
         reference: Reference | None = None) -> tuple[list[list[Request]], float]:
    """Run iterations from 1 until ``seconds`` pass and ``min_iterations`` ran.

    Returns the iterations and the loop's wall time, without the time spent
    in ``reference``, which runs after every iteration."""
    iterations, ref_s = [], 0.0
    t0 = time.perf_counter()
    while len(iterations) < min_iterations or time.perf_counter() - t0 - ref_s < seconds:
        iterations.append(client.iteration(len(iterations) + 1))
        if reference is not None:
            ref_s += reference.run()
    return iterations, time.perf_counter() - t0 - ref_s


def replay(client: Client, count: int, tr: tracing.Tracer) -> list[list[Request]]:
    """Re-send iterations 1..count with ``tr`` installed, stopping early once
    it holds SPAN_BUDGET spans (but not before the digest's iterations)."""
    requests = itertools.count()

    def on_request(req: Request) -> None:
        tr.request = next(requests)
    iterations = []
    client.call = tr.wrap(cli.main, "cli.main")
    tr.install(relprop)
    try:
        while len(iterations) < count and (len(iterations) < DIGEST_ITERATIONS - 1
                                           or len(tr.spans) < SPAN_BUDGET):
            iterations.append(client.iteration(len(iterations) + 1, on_request))
    finally:
        tr.uninstall()
        client.call = cli.main
    return iterations


def _busy_s(iterations: list[list[Request]]) -> float:
    return sum(r.latency_s for reqs in iterations for r in reqs)


def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def command_report(iterations: list[list[Request]]) -> dict:
    """Per-command latencies: a p50 always, a p90 from 100 samples on."""
    by_command: dict[str, list[float]] = {}
    for reqs in iterations:
        for req in reqs:
            name = "audit" if req.command == "check-conservation" else req.command
            by_command.setdefault(name, []).append(req.latency_s)
    report = {}
    for name, values in by_command.items():
        report[f"{name}_n"] = len(values)
        report[f"{name}_p50_ms"] = _ms(values)
        if len(values) >= P90_MIN_SAMPLES:
            report[f"{name}_p90_ms"] = statistics.quantiles(values, n=10)[8] * 1e3
    return report


def settle_all(client: Client, iterations: list[list[Request]], first: int,
               checker: Checker | None = None) -> tuple[list[str], int, list[str]]:
    """Settle iterations numbered from ``first``: their digests, the number of
    requests that failed a check, and the problems found."""
    digests, failed, problems = [], 0, []
    for i, reqs in enumerate(iterations, start=first):
        d, n, found = client.settle(i, reqs, checker)
        digests.append(d)
        failed += n
        problems += found
    return digests, failed, problems


def run(args) -> int:
    w = WORKLOADS[args.workload]
    work_dir = WORK_DIR / w.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    client = Client(w, args.seed, work_dir)

    min_iterations = SMOKE_ITERATIONS if args.smoke else DIGEST_ITERATIONS - 1
    seconds = 0 if args.smoke else args.seconds
    checker = Checker(w, client.model_seed)
    warmup = client.iteration(0)       # the cold request; kept out of every metric
    digests, failed, problems = settle_all(client, [warmup], 0, checker)
    report: dict = {"workload": w.name, "seed": args.seed, "seconds": seconds,
                    "trace": args.trace, "environment": environment()}
    if args.trace:
        untraced, _ = loop(client, seconds / 2, min_iterations)
        untraced_digests, _, _ = settle_all(client, untraced, 1)
        tr = tracing.Tracer()
        timed = replay(client, len(untraced), tr)
        tr.write_spans(work_dir / "spans.jsonl")
        untraced = untraced[:len(timed)]
        untraced_s, traced_s = _busy_s(untraced), _busy_s(timed)
        metrics = tracing.layer_metrics(tr, len(timed), traced_s - untraced_s, untraced_s)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        report.update(iterations=len(timed), traced_s=traced_s, untraced_s=untraced_s,
                      spans=len(tr.spans))
    else:
        probes = setup_seconds(client, 1 if args.smoke else SETUP_PROBES)
        ref = Reference()
        timed, wall = loop(client, seconds, min_iterations, ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = [sum(r.latency_s for r in reqs) for reqs in timed]
        images = sum(len({i for r in reqs for i in r.images}) for reqs in timed)
        metrics = {
            "iteration_p50_ms": _ms(ref.scaled(latencies)),
            # The kernel runs cold right after a child process, so setup is
            # scaled by the run's median kernel time, not by a paired one.
            "setup_s": statistics.median(probes) * ref.scale(),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        report.update(iterations=len(timed), wall_s=wall, images_per_s=images / wall,
                      iteration_p50_ms=_ms(latencies), reference_ms=_ms(ref.times),
                      setup_samples_s=probes, **command_report(timed))

    timed_digests, timed_failed, timed_problems = settle_all(client, timed, 1, checker)
    digests += timed_digests
    failed += timed_failed
    problems += timed_problems
    same = True
    if args.trace:
        same = untraced_digests[:len(timed)] == timed_digests
        report.update(digest_untraced=digest(untraced_digests[:len(timed)]),
                      digest_traced=digest(timed_digests))
        if not same:
            problems.append("traced outputs differ from untraced outputs")
    attempted = sum(len(reqs) for reqs in [warmup] + timed)
    report.update(failed_frac=failed / attempted, digest=digest(digests[:DIGEST_ITERATIONS]),
                  digest_iterations=DIGEST_ITERATIONS)
    for problem in problems[:20]:
        print("check failed:", problem, file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"small-pipeline, {SMOKE_ITERATIONS} timed iterations, "
                             "one setup probe")
    args = parser.parse_args(argv)
    if args.smoke:
        args.workload = "small-pipeline"
    elif args.workload is None:
        parser.error("--workload is required without --smoke")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)
