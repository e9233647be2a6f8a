"""The per-thread conv workspace: one per thread, reused across calls, never
shared between threads, freed with its pool thread, and invisible in every
result, whatever stale values its buffers hold; and a steady-state explain
that takes almost no fresh memory."""

import dataclasses
import gc
import os
import platform
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import relprop
from relprop import cli, lrp, ops
from relprop.forward import run_forward
from relprop.model import NodeSpec, generate_toy_resnet, validate_graph

from conftest import make_sample


def buffers(work: ops.Workspace) -> list[np.ndarray]:
    return list(work._bufs.values())


def poison(work: ops.Workspace) -> None:
    """Fill every buffer with NaN, as a stray read of stale scratch would see."""
    for buf in buffers(work):
        buf.fill(np.nan)


def trace_arrays(trace):
    """(name, array) for every array a forward trace keeps."""
    yield "x", trace.x
    yield "probs", trace.probs
    nodes = [(f"stem[{i}]", nt) for i, nt in enumerate(trace.stem)]
    nodes += [(f"head[{i}]", nt) for i, nt in enumerate(trace.head)]
    for b, bt in enumerate(trace.blocks):
        yield f"blocks[{b}].h_s", bt.h_s
        yield f"blocks[{b}].h_m", bt.h_m
        nodes += [(f"blocks[{b}].main[{i}]", nt) for i, nt in enumerate(bt.main)]
        nodes += [(f"blocks[{b}].skip[{i}]", nt) for i, nt in enumerate(bt.skip)]
    for loc, nt in nodes:
        for field in ("x", "weight", "pool_indices"):
            if getattr(nt, field) is not None:
                yield f"{loc}.{field}", getattr(nt, field)


CONFIGS = {f"{rule}.{splitting}": lrp.RuleConfig(
               rule=rule, splitting=splitting,
               mixture_boundary=1 if rule == "mixture" else None)
           for rule in lrp.RULES for splitting in lrp.SPLITTINGS}


def engine_outputs(before_each=lambda: None) -> dict[str, np.ndarray]:
    """Every array the forward and explain return on a small toy, by name;
    ``before_each`` runs before each call."""
    graph = generate_toy_resnet(21, channels=8, blocks=3, num_classes=5, input_hw=16)
    samples = [make_sample(graph, seed=s, hw=16) for s in (22, 23)]
    out = {}
    before_each()
    out["probs"] = run_forward(graph, samples[0].normalized)
    before_each()
    out["probs_stack"] = run_forward(graph, np.stack([s.normalized for s in samples]))
    before_each()
    for name, a in trace_arrays(run_forward(graph, samples[1].normalized, want_trace=True)):
        out[f"trace.{name}"] = a
    for name, config in CONFIGS.items():
        before_each()
        amap, state = lrp.explain(graph, samples[0], None, config)
        out[f"explain.{name}.raw"] = amap.raw
        out[f"explain.{name}.quantized"] = amap.quantized
        out[f"explain.{name}.input"] = state.current
        out[f"explain.{name}.sums"] = np.array([s for _, s in state.checkpoint_sums])
    return out


@pytest.fixture(scope="module")
def fresh_reference(tmp_path_factory) -> dict[str, np.ndarray]:
    """engine_outputs() from a new interpreter, whose workspaces start empty."""
    path = tmp_path_factory.mktemp("reference") / "outputs.npz"
    src = str(Path(relprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, numpy as np, test_workspace as t; "
              "np.savez(sys.argv[1], **t.engine_outputs())")
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True,
                   timeout=120)
    with np.load(path) as data:
        return dict(data)


def grow_workspace() -> None:
    """Size this thread's buffers beyond anything engine_outputs needs."""
    graph = generate_toy_resnet(24, channels=16, blocks=1, num_classes=5, input_hw=32)
    samples = [make_sample(graph, seed=s, hw=32) for s in (25, 26)]
    run_forward(graph, np.stack([s.normalized for s in samples]))
    lrp.explain(graph, samples[0])


class TestPerThread:
    def test_same_thread_reuses_one_workspace_and_its_buffers(self):
        work = ops.workspace()
        assert ops.workspace() is work
        grow_workspace()
        before = buffers(work)
        engine_outputs()
        grow_workspace()
        assert ops.workspace() is work
        assert all(a is b for a, b in zip(buffers(work), before, strict=True))

    def test_threads_never_share_a_workspace(self):
        graph = generate_toy_resnet(27, channels=8, blocks=2, num_classes=5, input_hw=16)
        sample = make_sample(graph, seed=28, hw=16)
        ops.conv2d_forward(np.ones((2, 5, 5)), np.ones((3, 2, 3, 3)), padding=1)
        barrier = threading.Barrier(3, timeout=60)
        seen = {}

        def run(i):
            lrp.explain(graph, sample)
            seen[i] = ops.workspace()
            barrier.wait()      # all three threads alive, each holding its own

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        works = [seen[0], seen[1], seen[2], ops.workspace()]
        assert len({id(w) for w in works}) == 4
        for i, a in enumerate(works):
            for b in works[i + 1:]:
                assert not any(np.shares_memory(x, y)
                               for x in buffers(a) for y in buffers(b))

    def test_pointwise_convs_leave_the_columns_buffer_alone(self):
        def run():
            g = np.random.default_rng(31)
            ops.conv2d_forward(g.normal(size=(2, 8, 9, 9)), g.normal(size=(4, 8, 1, 1)))
            lrp.lrp_conv(np.abs(g.normal(size=(8, 9, 9))), g.normal(size=(4, 8, 1, 1)),
                         1, 0, g.normal(size=(4, 9, 9)))
            sizes.update((name, buf.size) for name, buf in ops.workspace()._bufs.items())

        sizes = {}
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
        assert sizes == {"padded": 2 * 8 * 81, "cols": 0, "shares": 8 * 81, "z": 4 * 81,
                         "pool": 0}

    def test_pool_threads_release_their_workspace(self):
        def job(_):
            ops.conv2d_forward(np.ones((2, 5, 5)), np.ones((3, 2, 3, 3)), padding=1)
            return weakref.ref(ops.workspace())

        refs = cli._map_jobs(job, list(range(4)), threads=2)
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)


# Minor page faults per steady-state explain, under a fixed glibc policy:
# every block of 128 KiB or more is mapped fresh and unmapped on free, and
# the heap top is never trimmed. glibc's own adaptive thresholds move with
# the heap layout, so without this the count of the same code flips between
# about 1 and about 100 from one interpreter setup to the next.
FAULTS_PER_EXPLAIN = """
import ctypes
import resource
import numpy as np
from relprop import lrp
from relprop.image import ImageSample, normalize
from relprop.model import generate_toy_resnet

libc = ctypes.CDLL(None)
libc.mallopt(-3, 128 * 1024)    # M_MMAP_THRESHOLD
libc.mallopt(-1, 1 << 30)       # M_TRIM_THRESHOLD
graph = generate_toy_resnet(7, 32, 4, 10, 32)
raw = np.random.default_rng(8).integers(0, 256, size=(3, 32, 32)).astype(np.float32)
sample = ImageSample(raw=raw, normalized=normalize(raw, graph.preprocess), path="")
for _ in range(3):
    lrp.explain(graph, sample)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    lrp.explain(graph, sample)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under a glibc malloc policy")
def test_steady_state_explain_takes_few_page_faults():
    # A fresh interpreter, so the rest of the suite's heap stays out of the
    # count. It reads about 1. One fresh 128 KiB array per call costs 32
    # faults: a new z array per lrp_conv reads about 66.
    src = str(Path(relprop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_EXPLAIN], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert float(out) < 32


class TestStaleBuffers:
    def test_poisoned_buffers_match_a_fresh_process(self, fresh_reference):
        grow_workspace()
        work = ops.workspace()
        before = buffers(work)
        got = engine_outputs(before_each=lambda: poison(work))
        # The runs read and wrote the poisoned memory, not regrown buffers.
        assert all(a is b for a, b in zip(buffers(work), before, strict=True))
        assert got.keys() == fresh_reference.keys()
        for name, want in fresh_reference.items():
            have = np.asarray(got[name])
            assert have.dtype == want.dtype and have.shape == want.shape, name
            assert have.tobytes() == want.tobytes(), name


class TestNoAliasing:
    def test_no_result_shares_memory_with_a_buffer(self):
        g = np.random.default_rng(29)
        results = list(engine_outputs().values())
        results += [ops.conv2d_forward(g.normal(size=(n, 4, 7, 7)), g.normal(size=(5, 4, k, k)),
                                       g.normal(size=5), stride, padding)
                    for n in (1, 2) for k, stride, padding in ((1, 1, 0), (3, 2, 1))]
        results.append(ops.fc_forward(g.normal(size=6), g.normal(size=(3, 6))))
        x = np.maximum(g.normal(size=(4, 7, 7)), 0.0)
        for rule in ("zplus", "epsilon"):
            for k, stride, padding in ((1, 1, 0), (3, 2, 1)):
                out_hw = (7 + 2 * padding - k) // stride + 1
                results.append(lrp.lrp_conv(x, g.normal(size=(5, 4, k, k)), stride, padding,
                                            g.normal(size=(5, out_hw, out_hw)), rule))
            results.append(lrp.lrp_linear(x[:, 0, 0], g.normal(size=(3, 4)),
                                          g.normal(size=3), rule))
        bufs = buffers(ops.workspace())
        assert all(buf.size for buf in bufs)
        for i, result in enumerate(results):
            assert not any(np.shares_memory(result, buf) for buf in bufs), i

    def test_a_stem_that_opens_with_a_max_pool_returns_fresh_relevance(self):
        # Its input relevance is the max-pool backward's, which lives in the
        # workspace until the next max-pool backward.
        graph = generate_toy_resnet(32, channels=4, blocks=1, num_classes=3, input_hw=8)
        graph = dataclasses.replace(graph, stem=(NodeSpec("maxpool", k=1),) + graph.stem)
        validate_graph(graph)
        samples = [make_sample(graph, seed=s, hw=8) for s in (33, 34)]
        _, state = lrp.explain(graph, samples[0])
        first = state.current.copy()
        assert not ops.workspace().holds(state.current)
        lrp.explain(graph, samples[1])
        assert state.current.tobytes() == first.tobytes()
