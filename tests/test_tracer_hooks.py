"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` times layers by swapping relprop's module attributes
by name, so renaming one of them, or capturing one at import, silently drops
its per-layer metric. This test installs the tracer on the package as the
benchmark does, runs one explanation and one audited evaluation through
``cli.main``, and checks that every per-layer span was recorded and that
uninstalling puts every attribute back.
"""

import importlib.util
from pathlib import Path

import relprop
from relprop import cli

from conftest import write_random_ppms

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

SPANS = (
    [f"ops.{kind}" for kind in ("conv1x1", "conv3x3", "bn", "relu", "maxpool", "gap",
                                "fc", "softmax")]
    + [f"lrp.lrp_conv.{k}.{rule}" for k in ("1x1", "3x3") for rule in ("zplus", "epsilon")]
    + ["lrp.lrp_linear", "lrp.lrp_gap", "lrp.lrp_maxpool", "lrp.split_relevance",
       "lrp.propagate_bottleneck", "forward.run_forward.traced",
       "forward.run_forward.untraced"])


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_attributes():
    modules = (relprop.cli, relprop.model, relprop.lrp, relprop.evaluate, relprop.ops)
    return {(m.__name__, name): getattr(m, name) for m in modules for name in vars(m)}


def test_every_span_recorded_and_uninstall_restores(tmp_path, capsys):
    before = module_attributes()
    images = write_random_ppms(tmp_path, count=2, seed=4)
    tracer = load_tracer().Tracer()
    tracer.install(relprop)
    try:
        assert cli.main(["explain", "--model", "toy", "--seed", "7",
                         "--image", str(tmp_path / "img000.ppm"),
                         "--out", str(tmp_path / "att")]) == 0
        assert cli.main(["evaluate", "--model", "toy", "--seed", "7", "--images", images,
                         "--recompute", "--rule", "mixture", "--mixture-boundary", "1",
                         "--threads", "2", "--steps", "4",
                         "--out", str(tmp_path / "ev")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {span[2] for span in tracer.spans}
    assert [name for name in SPANS if name not in recorded] == []
    after = module_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
