"""Row sweeps: exhaustive checks that take the last slot a row at a time.

Where every node of a law's claim and guard that reads a slot is a table
node, ``dsl.Typed.rows`` evaluates them for every value of one slot at
once, and ``laws.check`` of a law expected to pass sweeps the last slot's
whole stream per tuple of the other slots.  The row sweep only counts: at
a place where the claim fails, or at a cap, it gives up and the per-tuple
sweep reports.  So its report must be the per-tuple sweep's, byte for
byte: the same counts, each weighted by its orbit.  These tests compare the
two sweeps on every registry law checked by rows at 2,2, 3,2 and 2,3 where
it is not factored, and on laws built for the cases the registry meets
seldom; ``report_by`` with no sweep named turns every fast sweep off."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from multirel import GenSpec, instances, laws, mrel, peleg
from multirel.dsl import _id_row
from multirel.errors import CapExceeded, ShapeMismatch
from multirel.generate import _group, _orbits, space_size
from multirel.laws import Law, Slot, _resolve_sizes, _stream_args, _Terms, check
from multirel.registry import law_by_id, registry
from multirel.rel import Carrier
from conftest import plan_of, report_by


def by_rows(law: Law, sizes, **kw) -> dict:
    """The report of ``check`` with no factored sweep, which must have swept
    by rows."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laws, "_id_row", lambda values: made.append(_id_row(values)) or made[-1])
        report = report_by(law, sizes, "group", "row", **kw)
    assert made and made[-1], law.id
    return report


def swept_by_rows(law: Law, sizes) -> bool:
    """Whether ``check`` sweeps ``law`` by rows at ``sizes`` where it does
    not factor it (see ``laws._plan``)."""
    try:
        fast = plan_of(law, sizes, factored=False).fast
        return fast is not None and fast.row is not None
    except ShapeMismatch:
        return False


def by_rows_evaluable(law: Law, sizes) -> bool:
    """Whether ``check`` would sweep ``law`` by rows at ``sizes`` were it
    expected to pass."""
    return swept_by_rows(replace(law, expected="pass"), sizes)


def evaluable(sizes) -> list[Law]:
    return [law for law in registry() if law.kind != "regression" and by_rows_evaluable(law, sizes)]


def swept(sizes) -> list[Law]:
    return [law for law in registry() if law.kind != "regression" and swept_by_rows(law, sizes)]


# the registry laws evaluable by rows at 2,2 that are expected to fail
EXPECTED_TO_FAIL = ("NEG-icup-idempotent", "NEG-kleisli-left-unit",
                    "NEG-alpha-peleg-multiplicative", "NEG-down-peleg-chain")


def test_registry_laws_swept_by_rows_at_2x2():
    chosen = swept((2, 2))
    assert len(chosen) >= 140 and any(law.guard for law in chosen)
    assert any(len(law.slots) == 1 for law in chosen) and any(len(law.slots) == 3 for law in chosen)
    left = {law.id for law in evaluable((2, 2))} - {law.id for law in chosen}
    assert left == set(EXPECTED_TO_FAIL)


@pytest.mark.parametrize("sizes,count", [((2, 2), 147), ((3, 2), 11), ((2, 3), 5), ((3, 3), 0)])
def test_row_sweeps_equal_per_tuple_sweeps(sizes, count, monkeypatch):
    # the per-tuple sweep runs second and reads the tables the row sweep
    # filled: both fill an entry by one rule, and the lookups keep it cheap;
    # the counts are pinned, so that no change of the table rule moves a law
    # off the row sweep unseen
    chosen = swept(sizes)
    assert len(chosen) == count
    kept: dict = {}
    terms = laws._Terms
    monkeypatch.setattr(laws, "_Terms", lambda law: kept.setdefault(law.id, terms(law)))
    for law in chosen:
        assert by_rows(law, sizes) == report_by(law, sizes), law.id
        del kept[law.id]


def test_a_row_gives_at_each_place_the_answer_of_its_value():
    # a table node has one evaluator for single ids and for rows: over the
    # last slot's whole stream, claim and guard give at each place what they
    # give with that place's value bound, one entry at a time (each path on
    # tables of its own, so that each fills its own entries)
    rng = random.Random(7)
    chosen = evaluable((2, 2))
    assert {"L2.2-icup-idempotent-univalent", *EXPECTED_TO_FAIL} <= {law.id for law in chosen}
    for law in chosen:
        ones, rows = _Terms(law), _Terms(law)
        resolved = _resolve_sizes(ones.law, (2, 2))
        carriers = {role: Carrier(n) for role, n in resolved.items()}
        *outer, inner = (list(instances(*_stream_args(s, resolved))) for s in ones.law.slots)
        env = dict(zip([s.name for s in ones.law.slots], [rng.choice(v) for v in outer]))
        last = ones.law.slots[-1].name
        for one, typed in zip(ones.at(carriers), rows.at(carriers)):
            if typed is None:
                continue
            row = laws._cells(typed, {**env, last: _id_row(inner)}, len(inner))
            assert row == bytes(one.rows({**env, last: v}) for v in inner), law.id


@pytest.mark.parametrize("law_id,collect", [
    ("NEG-icup-idempotent", 3),
    ("NEG-kleisli-left-unit", 3),
    ("NEG-alpha-peleg-multiplicative", 1),
    ("NEG-alpha-peleg-multiplicative", 3),
    ("NEG-alpha-peleg-multiplicative", 5),
    ("NEG-down-peleg-chain", 3),
])
def test_a_law_expected_to_fail_is_checked_per_tuple(law_id, collect, monkeypatch):
    # its claim evaluates over rows, but only the per-tuple sweep shrinks
    # and collects witnesses, so no row of ids is ever built for it
    law = law_by_id(law_id)
    want = report_by(law, (2, 2), collect=collect)

    def refused(values):
        raise AssertionError(f"{law_id} is swept by rows")

    monkeypatch.setattr(laws, "_id_row", refused)
    report = check(law, sizes=(2, 2), seed=7, collect=collect).to_json()
    assert report == want
    assert report["verdict"] == "fail" and 1 <= len(report["counterexamples"]) <= collect


def test_a_single_slot_law_stops_at_its_last_witness(monkeypatch):
    # (1 @ R) == R fails at many R: the per-tuple sweep stops at its third
    # witness, where a row sweep would compose every R of its row
    calls = []
    compose = peleg.kleisli_compose
    monkeypatch.setattr(peleg, "kleisli_compose", lambda r, s: calls.append(r) or compose(r, s))
    report = check(law_by_id("NEG-kleisli-left-unit"), sizes=(2, 2), seed=7)
    assert report.verdict == "fail" and report.checked == 3
    assert 0 < len(calls) <= 16


# each claim under the guard R <= up(S), and its verdict at 2,2
GUARDED = {"icap(R, S) <= down(S)": "pass", "icap(R, S) <= R": "fail", "icap(R, S) == R": "fail"}


@pytest.mark.parametrize("claim", GUARDED)
def test_a_guarded_law(claim):
    # the first holds wherever the guard does, so the fast sweep reports;
    # the others fail where it holds (the second at R = {(0,{0})} and
    # S = {(0,{})}), so the fast sweep gives up and the plain sweep reports
    law = Law("dev-guarded", "theorem", "", claim, (Slot("R"), Slot("S")), guard="R <= up(S)")
    report = by_rows(law, (2, 2))
    assert report == report_by(law, (2, 2))
    assert report["verdict"] == GUARDED[claim]
    assert report["checked"] and report["skipped_by_condition"]
    if GUARDED[claim] == "pass":
        assert (report["checked"], report["skipped_by_condition"]) == (26_569, 38_967)


@pytest.mark.parametrize("claim,verdict", [("icup(R, S) == icup(S, R)", "pass"),
                                           ("icup(R, S) == R", "fail")])
def test_an_inner_slot_with_a_filter(claim, verdict):
    # the row holds the ids of the filtered stream, so a failing place
    # names a value of that stream
    needs = frozenset({"inner_deterministic"})
    law = Law("dev-filtered", "theorem", "", claim, (Slot("R"), Slot("S", needs=tuple(needs))))
    report = by_rows(law, (2, 2))
    assert report == report_by(law, (2, 2))
    assert report["verdict"] == verdict
    if verdict == "pass":
        assert report["checked"] == 256 * space_size("mrel", GenSpec((2, 2), where=needs))


def test_a_cap_in_a_row_sweep_gives_the_per_tuple_report(monkeypatch):
    # as in test_symmetry: a cap at a one-row pair (x, x) for icap, met
    # first at a first value that stands for an orbit of 4; the fast sweep,
    # reduced and by rows, gives up, and the per-tuple sweep reports the cap
    law = law_by_id("L2.2-icap-comm")
    values = list(instances("mrel", GenSpec((2, 2))))
    seen: set = set()
    for first, weight in _orbits(iter(values), _group((2, 2), False)):
        fresh = set(first.rows) - seen
        if weight == 4 and fresh and seen:
            break
        seen.update(first.rows)
    x = min(fresh)
    inner_bool = mrel.inner_bool
    hits = []

    def capped(op, r, s=None):
        if r.src.size == 1 and r.rows == s.rows == (x,):
            hits.append(op)
            raise CapExceeded("capped")
        return inner_bool(op, r, s)

    monkeypatch.setattr(mrel, "inner_bool", capped)
    report = by_rows(law, (2, 2))
    assert report["verdict"] == "skipped" and hits
    assert report == report_by(law, (2, 2))
