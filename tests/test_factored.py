"""Factored sweeps: a law checked at one element of its row-local role.

Where every slot of a law has one source role X that claim and guard read
only row by row (``dsl._row_local``), each exhaustive stream is the product
of one list of rows per element of X, and claim and guard hold on a tuple
exactly when they hold on each of its rows.  So ``laws.check`` of a law
expected to pass sweeps it at |X| = 1, and where that sweep checks g of c
tuples, it reports g^n checked and c^n - g^n skipped at |X| = n.  Where a
tuple fails or a cap is met at |X| = 1, it reports that too, with the
witnesses it shrank at |X| = 1 and its counts up to there, and the law is
never typed at |X| = n.  So where the law passes, its report must be the
plain sweep's, byte for byte.  These tests compare the two on every
registry law factored at 2,2 and 3,2, on a seeded handful at 2,3, and on
laws built for the cases the registry meets seldom, and they pin the rule
itself."""

from __future__ import annotations

import random
from math import prod

import pytest

from multirel import laws, mrel
from multirel.dsl import _CONSTS, infer_slots, parse, value_names
from multirel.errors import CapExceeded
from multirel.generate import space_size
from multirel.laws import Law, Slot, check
from multirel.registry import law_by_id, registry
from multirel.rel import Carrier
from conftest import but_counts, counts, plan_of, report_by


def power(law: Law, sizes) -> int:
    """The power ``check`` raises the counts of ``law`` to at ``sizes``: the
    size of its row-local role where it factors it, else 1."""
    return plan_of(law, sizes).power


def factored(sizes) -> list[Law]:
    """The registry laws ``check`` factors at ``sizes``."""
    return [law for law in registry() if law.kind != "regression" and power(law, sizes) > 1]


@pytest.mark.parametrize("sizes,count", [((2, 2), 82), ((3, 2), 70), ((2, 3), 71), ((3, 3), 16)])
def test_registry_laws_factored(sizes, count):
    # pinned beside the row-swept counts of test_rows, so that no change of
    # the rule or of the plan moves a law on or off the factored sweep unseen
    assert len(factored(sizes)) == count


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2)])
def test_factored_reports_equal_plain_ones(sizes):
    for law in factored(sizes):
        report = check(law, sizes=sizes, seed=7).to_json()
        assert report == report_by(law, sizes), law.id
        assert report["verdict"] == "pass", law.id


def test_a_seeded_handful_of_factored_reports_at_2x3_equal_plain_ones():
    # of the laws whose plain sweep has at most 4,096 tuples, as in
    # test_symmetry: a plain sweep over MRel(2,3) takes up to 4 s
    small = [law for law in factored((2, 3)) if prod(
        space_size(*a) for a in plan_of(law, (2, 3), factored=False).phases[0]) <= 4096]
    for law in random.Random(7).sample(small, 5):
        assert check(law, sizes=(2, 3), seed=7).to_json() == report_by(law, (2, 3)), law.id


def one_element(law: Law, sizes) -> bool:
    """Whether ``check`` sweeps ``law`` first at one element of its
    row-local role X."""
    run = plan_of(law, sizes)
    return run.carriers["X"].size == 1 and run.power == sizes[0]


def raised(report: dict, n: int) -> tuple[int, int]:
    """The counts of ``report`` at one element, of g of c tuples checked,
    raised to the power ``n``: g^n checked and c^n - g^n skipped."""
    checked, skipped = counts(report)
    return checked**n, (checked + skipped)**n - checked**n


@pytest.mark.parametrize("claim,slots,sizes", [
    ("icap(R, S) == R", (Slot("R"), Slot("S")), (2, 2)),
    ("up(R) == R", (Slot("R"),), (3, 2)),
])
def test_a_law_that_fails_at_one_element_gives_the_plain_witnesses(claim, slots, sizes):
    # a row value u that fails gives the failing tuple (u, ..., u) at n
    # elements; the sweep shrinks u at one element, where the plain sweep's
    # witnesses shrink to here, and raises its counts up to there to the
    # power n
    law = Law("dev-fails", "theorem", "", claim, slots)
    assert one_element(law, sizes)
    report = check(law, sizes=sizes, seed=7).to_json()
    assert report["verdict"] == "fail" and report["counterexamples"]
    assert but_counts(report) == but_counts(report_by(law, sizes))
    at_one = check(law, sizes=(1, sizes[1]), seed=7).to_json()
    assert report["counterexamples"] == at_one["counterexamples"]
    assert counts(report) == raised(at_one, sizes[0])


def test_a_failing_law_is_never_typed_at_its_sizes(monkeypatch):
    # do(R) == R fails at one element, and neither plan nor sweep types it
    # at three: a failing factored law costs no sweep of its plain space
    law = Law("dev-do", "theorem", "", "do(R) == R", (Slot("R"),))
    assert one_element(law, (3, 2))
    at = laws._Terms.at
    typed = []
    monkeypatch.setattr(laws._Terms, "at", lambda terms, carriers: typed.append(
        carriers["X"].size) or at(terms, carriers))
    report = check(law, sizes=(3, 2), seed=7).to_json()
    assert report["verdict"] == "fail" and report["counterexamples"]
    assert typed and set(typed) == {1}
    assert all(cex["carriers"]["X"] == 1 for cex in report["counterexamples"])


def test_a_guard_that_holds_on_no_row_value_checks_nothing():
    law = Law("dev-never", "theorem", "", "icap(R, S) == icap(S, R)", (Slot("R"), Slot("S")),
              guard="U <= (R & -R)")
    assert one_element(law, (2, 2))
    report = check(law, sizes=(2, 2), seed=7).to_json()
    assert (report["checked"], report["skipped_by_condition"]) == (0, 65_536)
    assert report == report_by(law, (2, 2))


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2)])
def test_a_pick_draw_and_a_filtered_subset_draw(sizes):
    # R picks one row per element, row 0 varying slowest; S takes subsets of
    # its candidates, row 0 varying fastest, and is filtered: each stream is
    # still the product of one list of rows per element
    slots = (Slot("R", needs=("outer_deterministic",)),
             Slot("S", needs=("inner_univalent", "union_closed")))
    law = Law("dev-draws", "theorem", "", "icap(R, S) <= down(S)", slots, guard="S <= up(R)")
    assert one_element(law, sizes)
    report = check(law, sizes=sizes, seed=7).to_json()
    # 4 rows of R by 6 of S, of which 11 pairs pass the guard
    n = sizes[0]
    assert (report["checked"], report["skipped_by_condition"]) == (11**n, 24**n - 11**n)
    assert report == report_by(law, sizes)


def test_a_cap_at_one_element_gives_the_plain_skipped_report(monkeypatch):
    # icap is capped at one one-row pair, which the sweep at one element
    # meets and reports, with its counts up to there raised to the power 2;
    # the plain sweep at 2,2 fills its tables from one-row calls, so it
    # meets the pair too and reports the same cap
    law = law_by_id("L2.2-icap-comm")
    assert one_element(law, (2, 2))
    inner_bool = mrel.inner_bool
    hits = []

    def capped(op, r, s=None):
        if r.src.size == 1 and r.rows == s.rows == ((1, 2),):
            hits.append(op)
            raise CapExceeded("capped")
        return inner_bool(op, r, s)

    monkeypatch.setattr(mrel, "inner_bool", capped)
    report = check(law, sizes=(2, 2), seed=7).to_json()
    assert hits
    assert report["verdict"] == "skipped" and report["reason"] == "capped"
    assert but_counts(report) == but_counts(report_by(law, (2, 2)))
    assert counts(report) == raised(check(law, sizes=(1, 2), seed=7).to_json(), 2)


# ---------------------------------------------------------------------------
# The rule


def row_local(claim: str, guard: str | None = None) -> str | None:
    """The row-local role that ``infer_slots`` names for a claim and guard
    whose value names are all slots to infer."""
    terms = [parse(claim), guard and parse(guard)]
    names = dict.fromkeys(n for t in filter(None, terms) for n in value_names(t))
    return infer_slots(terms, [(n, None, None, None) for n in names])[2]


@pytest.mark.parametrize("claim,guard", [
    ("R <= U(X, Y)", None),
    ("icap(R, At(X, Y)) <= R", None),
    ("icap(R, S) <= down(S)", "R <= up(S)"),
    ("(R * U(Y, Z)) <= U(X, Z)", None),  # the second operand of * is read whole
])
def test_accepted(claim, guard):
    assert row_local(claim, guard) == "X"


@pytest.mark.parametrize("claim,guard", [
    ("R <= U(X, Y)", "-Id(X) <= 0"),  # holds at one element of X, not at two
    ("R <= U(X, Y)", "Id(X) == Id(X)"),
    ("R <= U(X, Y)", "eta(X) <= eta(X)"),
    ("R <= U(X, Y)", "mem(X) <= mem(X)"),
    ("R^ <= R^", None),
    ("dom(R) <= dom(R)", None),
    ("Pf(R) <= Pf(R)", None),
    ("(R <= S) == (S <= R)", None),
    ("dsup(R) <= R", None),  # dsup reads R whole
    ("(R ; S) <= (R ; S)", None),  # R and S have two sources
])
def test_refused(claim, guard):
    assert row_local(claim, guard) is None


def test_a_refused_law_is_checked_at_its_own_sizes():
    # -Id(X) <= 0 holds only where X has one element
    law = Law("dev-id", "theorem", "", "R <= U(X, Y)", (Slot("R"),), guard="-Id(X) <= 0")
    assert power(law, (2, 2)) == 1
    report = check(law, sizes=(2, 2), seed=7).to_json()
    assert (report["checked"], report["skipped_by_condition"]) == (0, 16)
    assert report == report_by(law, (2, 2))


def test_a_test_slot_is_not_factored():
    # ``test`` reads the row index, and no arrow between roles of two
    # sizes has it, so its rows are not one list per element
    law = Law("dev-test", "theorem", "", "(R & T) <= R", (Slot("R"), Slot("T", needs=("test",))))
    assert row_local("(R & T) <= R") == "X" and power(law, (2, 2)) == 1
    assert check(law, sizes=(2, 2), seed=7).to_json() == report_by(law, (2, 2))


def test_constants_from_a_role_outside_their_target_have_one_row():
    # so the rule may let them through: each row of the constant at n
    # elements is its row at one
    chosen = []
    for name, spec in _CONSTS.items():
        src, dst = spec.result
        if src[-1] in dst:
            continue
        chosen.append(name)
        impls = spec.impl if isinstance(spec.impl, tuple) else (spec.impl,)
        for impl in impls:
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    value = impl(Carrier(n), Carrier(m))
                    assert value.rows == value.rows[:1] * n, (name, n, m)
    assert sorted(chosen) == ["0", "At", "U", "coAt", "ihigh", "ilow"]
