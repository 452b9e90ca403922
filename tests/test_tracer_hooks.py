"""The benchmark's tracer (``perfbench/tracer.py``) rebinds program names
from outside; a rename of one of them must fail here, not only in a traced
benchmark pass."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import multirel
import multirel.cli  # noqa: F401  (the tracer rebinds names in every loaded module)
from multirel import generate, laws, mrel, rel
from multirel.dsl import _CONSTS, _OPS, evaluate
from multirel.generate import GenSpec
from multirel.laws import Law, Slot, check
from conftest import C, M, R

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
KERNEL = ("rel.", "mrel.", "power.", "peleg.", "determinise.")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded(tracer, since: int = 0) -> set[str]:
    """The labels of the spans recorded from the ``since``-th on; the
    tracer's ``names`` also lists every label it installed."""
    return {tracer.names[i] for i in tracer.name[since:]}


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
        assert "laws.shrink" in _recorded(tracer)
    finally:
        tracer.uninstall()
    assert laws.shrink is shrink
    assert mrel.MRel.__post_init__ is post_init
    assert mrel.closure is closure and multirel.closure is closure


def _implementations():
    """``(label, impl, operands)`` for every implementation of every
    constant and every operation but ``==`` (``operator.eq``), at 2,2."""
    values = {"r": R(2, 2, [(0, 1), (1, 0)]), "m": M(2, 2, [(0, [0, 1]), (1, [0])])}
    for table, entries in (("const", _CONSTS), ("op", _OPS)):
        for name, spec in sorted(entries.items()):
            if name == "==":
                continue
            if isinstance(spec.impl, tuple):  # one implementation per sort
                kinds = {f"{name} ({k})": (impl, k * len(spec.views))
                         for impl, k in zip(spec.impl, "rm")}
            else:
                kinds = {name: (spec.impl, spec.views.replace("s", "r"))}
            for label, (impl, views) in kinds.items():
                if table == "const":
                    operands = (C(2),) * len(spec.letters)
                else:
                    operands = tuple(values[v] for v in views)
                yield f"{table} {label}", impl, operands


@pytest.fixture
def tracer():
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_every_term_operation_reaches_a_traced_kernel_function(tracer):
    for label, impl, operands in _implementations():
        before = len(tracer.name)
        impl(*operands)
        spans = _recorded(tracer, since=before) - {"mrel.validate"}
        assert any(s.startswith(KERNEL) for s in spans), label


def test_determinisation_is_traced_under_its_map(tracer):
    evaluate("di(R)", {"R": M(2, 2, [(0, [0, 1]), (1, [0])])})
    assert "determinise.fission" in _recorded(tracer)


def test_filtered_random_stream_is_traced(tracer):
    # the tracer rebinds generate's classifier names and counts the values
    # of streams drawn through laws.instances
    assert generate.classify_mrel.__wrapped__ is mrel.classify_mrel
    assert generate.classify_rel.__wrapped__ is rel.classify_rel
    spec = GenSpec((3, 3), "random", count=5, seed=1, where=frozenset({"inner_total"}))
    values = list(laws.instances("mrel", spec))
    assert len(values) == 5 and all(0 not in row for v in values for row in v.rows)
    assert _tracer_module().layer_metrics(tracer)[0]["generate.instances.items"] == 5
    # a filter tests rows as they are drawn, never a whole value
    assert "generate.classify_mrel" not in _recorded(tracer)
