"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

multirel, LAWS, _ = worker.setup()

# light registry laws: exhaustive at 2,2 except the two sampled
# associativity laws; ``_light_ids`` adds the first pinned regression
LIGHT = ("L2.1-residuation-left", "A-domain", "L2.2-subassociativity",
         "L2.2-icup-assoc", "NEG-icup-idempotent")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_sum_to_root_inclusive_time():
    tr = tracing.Tracer(clock=FakeClock())
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    root = tr.wrap("root", lambda: (mid(), leaf(), mid()))
    root()
    self_s = tracing.self_times(tr.start, tr.duration, tr.parent)
    assert tr.names[tr.name[0]] == "root"
    assert sum(self_s) == pytest.approx(tr.duration[0])
    assert all(s > 0 for s in self_s)
    metrics, _ = tracing.layer_metrics(tr)
    assert metrics["leaf.calls"] == 5
    assert metrics["root.incl_s"] == tr.duration[0]


def test_self_time_counts_overlapping_children_once():
    # root [0, 10]; children [1, 5] and [3, 8] overlap; grandchild [2, 4]
    start = [0.0, 1.0, 2.0, 3.0]
    duration = [10.0, 4.0, 2.0, 5.0]
    parent = [-1, 0, 1, 0]
    assert list(tracing.self_times(start, duration, parent)) == [3.0, 2.0, 2.0, 5.0]


def test_groups_follow_law_checks():
    tr = tracing.Tracer(clock=FakeClock())
    inner = tr.wrap("dsl.eval_term", lambda: None)
    check = tr.wrap("laws.check", lambda: inner())
    check()
    check()
    _, group = tracing.layer_metrics(tr)
    assert list(group) == [0, 0, 2, 2]


def test_sampler_takes_slices_out_of_its_clock():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    sampler = worker.SpeedSampler()
    sampler.start()
    wall, clock = time.perf_counter(), sampler.clock()
    while time.perf_counter() - wall < 0.2:
        pass
    wall, clock = time.perf_counter() - wall, sampler.clock() - clock
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.slices) >= 5
    assert clock == pytest.approx(wall - sampler.spent, abs=1e-3)
    assert sampler.scale() == pytest.approx(
        worker.REF_SLICE_S * len(sampler.slices) / sum(sampler.slices))
    # a window without slices takes one
    assert sampler.scale(len(sampler.slices)) > 0


def _light_ids():
    ids = [law.id for law in LAWS if law.id in LIGHT]
    ids.append(next(law.id for law in LAWS if law.id.startswith("REG-")))
    return ids


def _pass(workload, seed, law_ids=None, traced=False):
    check, main, tr = multirel.check, None, None
    if traced:
        tr = tracing.Tracer()
        tr.install()
        check = tr.wrap("laws.check", check)
        main = tr.wrap("cli.main", multirel.cli.main)
    try:
        out = worker.run_pass(multirel, LAWS, workload, seed, check, law_ids, main)
    finally:
        if tr:
            tr.uninstall()
    if tr:
        assert len(tr.start) > 0
    return out


@pytest.mark.parametrize("workload", ["registry-2x2", "cex-hunt"])
def test_traced_pass_reports_the_same_bytes(workload):
    ids = _light_ids() if workload == "registry-2x2" else None
    plain = _pass(workload, 3, ids)[3]
    traced = _pass(workload, 3, ids, traced=True)[3]
    assert traced == plain
    # uninstall restored every wrapped name
    assert _pass(workload, 3, ids)[3] == plain
    assert not hasattr(multirel.MRel.__post_init__, "__wrapped__")


def _unseeded(workload, seed, law_ids=None):
    """Reports of a pass with the seed fields dropped, keyed by law."""
    out = {}
    for rep in _pass(workload, seed, law_ids)[2]:
        out.setdefault(rep["law"], []).append(dict(rep, seed=None))
    return out


def test_seeds_leave_exhaustive_reports_alone_at_2x2():
    a, b = _unseeded("registry-2x2", 1, _light_ids()), _unseeded("registry-2x2", 2, _light_ids())
    assert {r[0]["mode"] for r in a.values()} == {"exhaustive", "random", "pinned"}
    for law, reps in a.items():
        if reps[0]["mode"] != "random":
            assert reps == b[law], law


@pytest.mark.parametrize("workload", ["registry-3x3", "cex-hunt"])
def test_seeds_change_the_report(workload):
    a, b = _unseeded(workload, 1), _unseeded(workload, 2)
    assert a != b
    assert _pass(workload, 1)[3] != _pass(workload, 2)[3]


def test_passes_verify_clean():
    _, ran, reports, _ = _pass("cex-hunt", 1)
    counts = worker.verify(ran, reports)
    assert counts["witnesses"] > 0
    assert counts["not_declared"] == counts["skipped"] == counts["not_refailing"] == 0
    # a witness that no longer fails is caught
    forged = json.loads(json.dumps(reports))
    rep = next(r for r in forged if r["counterexamples"])
    law = next(law for law in ran if law.id == rep["law"])
    rep["counterexamples"][0] = {"carriers": rep["counterexamples"][0]["carriers"],
                                 "slots": {s.name: _empty(rep, s.name) for s in law.slots}}
    assert worker.verify(ran, forged)["not_refailing"] == 1


def _empty(rep, name):
    value = rep["counterexamples"][0]["slots"][name]
    return {"src": value["src"], "dst": value["dst"], "rows": [[] for _ in value["rows"]]}


def test_heavy_laws_left_out_at_2x2_are_registry_laws():
    assert worker.SKIP_2X2 <= {law.id for law in LAWS}


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
