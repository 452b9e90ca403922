"""The benchmark's tracer (``perfbench/tracer.py``) rebinds program names
from outside; a rename of one of them must fail here, not only in a traced
benchmark pass."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import multirel
import multirel.cli  # noqa: F401  (the tracer rebinds names in every loaded module)
from multirel import laws, mrel
from multirel.laws import Law, Slot, check

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_its_hook_points():
    shrink, post_init, closure = laws.shrink, mrel.MRel.__post_init__, mrel.closure
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert laws.shrink.__wrapped__ is shrink
        assert mrel.MRel.__post_init__.__wrapped__ is post_init
        assert mrel.closure.__wrapped__ is closure
        assert multirel.closure is mrel.closure
        # check reaches shrink through the name the tracer rebinds
        law = Law("dev-empty", "neg", "not every multirelation is empty", "R == 0",
                  (Slot("R", "mrel", "X", "Y"),), expected="fail")
        assert check(law, sizes=(1, 1)).verdict == "fail"
        assert "laws.shrink" in tracer.names
    finally:
        tracer.uninstall()
    assert laws.shrink is shrink
    assert mrel.MRel.__post_init__ is post_init
    assert mrel.closure is closure and multirel.closure is closure
