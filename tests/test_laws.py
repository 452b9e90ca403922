from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from multirel import GenSpec, instances, mrel, power, rel
from multirel.dsl import Sig, _typecheck, env_from_json, eval_term, parse, typecheck
from multirel.errors import PowersetTooLarge, ShapeMismatch
from multirel.laws import (
    Law, Slot, _resolve_sizes, _still_fails, _Terms, _tuples, check, law_seed, shrink,
)
from multirel.mrel import MRel
from multirel.registry import law_by_id, registry
from multirel.rel import Carrier, Rel
from conftest import C, M, R, plan_of, report_by


def resolved_registry() -> list[Law]:
    """Every registry law with its slots' sorts and roles inferred."""
    return [_Terms(law).law for law in registry()]


def types_over_distinct_roles(terms: _Terms) -> bool:
    """Whether the claim and guard type as booleans with each role a carrier
    of its own, the premise of laws._symmetries: a claim over slots whose
    roles were given may type only because two roles have one size, as
    ``R * S`` does over two slots X -> Y."""
    types: dict = {r: r for r in terms.law.roles}
    types.update((s.name, Sig(s.sort, s.src, s.dst)) for s in terms.law.slots)
    try:
        return all(typecheck(t, types).sort == "bool" for t in (terms.claim, terms.guard) if t)
    except ShapeMismatch:
        return False


class TestRegistry:
    def test_size_and_uniqueness(self):
        laws = registry()
        assert len(laws) >= 60
        ids = [l.id for l in laws]
        assert len(ids) == len(set(ids))

    def test_required_entries_present(self):
        ids = {l.id for l in registry()}
        assert "L2.1-lambda-alpha-inverse" in ids
        assert "REG-nonassoc-triple" in ids
        for suffix in ("alpha-lambda", "lambda-alpha", "alpha-eta", "eta-alpha"):
            assert f"REG-galois-subset-{suffix}" in ids

    def test_anchors_or_pins(self):
        for law in registry():
            if law.kind == "regression":
                assert law.pinned is not None
            else:
                assert law.anchor

    def test_claims_parse_and_print_round_trip(self):
        from multirel.dsl import print_term

        for law in registry():
            t = parse(law.claim)
            assert parse(print_term(t)) == t
            if law.guard:
                g = parse(law.guard)
                assert parse(print_term(g)) == g


    def test_claims_type_as_booleans(self):
        # over distinct symbolic roles, so no claim relies on two roles
        # happening to have the same size, and every check may permute the
        # roles (see laws._symmetries); regressions over their pins
        from multirel.dsl import env_types, typecheck

        for law in registry():
            if law.kind != "regression":
                assert types_over_distinct_roles(_Terms(law)), law.id
                continue
            types = env_types(env_from_json(law.pinned))
            assert typecheck(parse(law.claim), types).sort == "bool", law.id

    @pytest.mark.parametrize("law_id", [l.id for l in registry() if l.kind != "regression"])
    def test_inferred_roles_type_as_distinct_carriers(self, law_id):
        # laws._symmetries reduces every law whose slots give no role, so
        # each role infer_slots names must be a carrier of its own, also
        # where the slots' sorts are given and the free roles renamed
        law = law_by_id(law_id)
        inferred = _Terms(law).law
        slots = tuple(Slot(s.name, s.sort, needs=s.needs) for s in inferred.slots)
        renamed = tuple(f"A{i}" for i in range(len(inferred.roles)))
        terms = _Terms(replace(law, slots=slots, roles=renamed))
        assert not terms.roles_given
        assert [s.sort for s in terms.law.slots] == [s.sort for s in inferred.slots]
        assert types_over_distinct_roles(terms)

    def test_slot_needs_are_flags_of_their_sort(self):
        flags = {"rel": rel.REL_ROW_FLAGS, "mrel": mrel.MREL_ROW_FLAGS}
        for law in resolved_registry():
            for slot in law.slots:
                assert set(slot.needs) <= set(flags[slot.sort]), (law.id, slot)

    def test_no_law_is_stated_twice(self):
        # statements are compared with slots and roles renamed by position,
        # so a law that only renames another's operands is caught too
        from multirel.dsl import print_term

        def statement(law):
            names = {slot.name: f"s{i}" for i, slot in enumerate(law.slots)}
            names.update((role, f"c{j}") for j, role in enumerate(law.roles))

            def canonical(text):
                printed = print_term(parse(text))
                return re.sub(r"\w+", lambda m: names.get(m[0], m[0]), printed)

            slots = tuple((s.sort, names[s.src], names[s.dst], s.needs) for s in law.slots)
            guard = law.guard and canonical(law.guard)
            return (canonical(law.claim), guard, slots, len(law.roles), law.kind,
                    law.expected)

        first: dict = {}
        for law in resolved_registry():
            assert first.setdefault(statement(law), law.id) == law.id, (
                f"{law.id} restates {first[statement(law)]}"
            )

    def test_inferred_slots_and_roles_are_pinned(self):
        # the digest of the hand-written slot lists and roles that the
        # inference replaced, so any drift in the inference fails here
        rows = [[law.id, list(law.roles),
                 [[s.name, s.sort, s.src, s.dst, list(s.needs)] for s in law.slots]]
                for law in resolved_registry()]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "30761f1609dde2652137b20d5d5db9ea91e343beff2001ac44597ebdff4eb33e"

    def test_registry_states_no_sorts_or_roles(self):
        for law in registry():
            assert all((s.sort, s.src, s.dst) == (None,) * 3 for s in law.slots), law.id

    def test_building_the_registry_parses_nothing(self):
        # the inference runs when a law is checked, not at import
        code = (
            "import sys\n"
            "calls = []\n"
            "def watch(frame, event, arg):\n"
            "    code = frame.f_code\n"
            "    if event == 'call' and code.co_filename.endswith('dsl.py'):\n"
            "        calls.append(code.co_name)\n"
            "sys.setprofile(watch)\n"
            "import multirel\n"
            "multirel.registry()\n"
            "sys.setprofile(None)\n"
            "print(sorted(set(calls) & {'parse', '_walk', 'infer_slots'}))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


def plan_line(law: Law, sizes) -> str:
    """How ``check`` sweeps ``law`` at ``sizes``: the mode, any cap met in
    planning, and where the sweep is fast, its sizes, power, group size and
    row length, or None where it is plain (no group, no row, power 1)."""
    run = plan_of(law, sizes)
    fast = None
    if run.group or run.row or run.power > 1:
        fast = (f"{','.join(str(c.size) for c in run.carriers.values())} power={run.power}"
                f" group={run.group and len(run.group)} row={run.row and len(run.row)}")
    return f"{law.id} {sizes} {run.mode} capped={run.capped} fast={fast}"


class TestCheck:
    def test_every_plan_is_pinned(self):
        # one digest over each law's plan at four sizes, so that no law moves
        # between sweeps unseen, as two that swapped would under the pinned
        # counts of test_rows and test_factored
        lines = [plan_line(law, sizes) for sizes in [(2, 2), (3, 2), (2, 3), (3, 3)]
                 for law in registry() if law.kind != "regression"]
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        assert digest == (Path(__file__).parent / "data" / "plans.sha256").read_text().strip()

    def test_lambda_alpha_exhaustive_counts(self):
        rep = check(law_by_id("L2.1-lambda-alpha-inverse"), sizes=(2, 2))
        assert rep.verdict == "pass"
        assert rep.mode == "exhaustive"
        assert rep.checked == 16

    def test_sizes_2_2_are_the_default(self):
        # so `check --sizes` may state its default as 2,2
        tiny = Law("tiny", "theorem", "", "R == R", (Slot("R"),), size_cap=1)
        for law in [*registry(), tiny]:
            law = _Terms(law).law
            assert _resolve_sizes(law, (2, 2)) == _resolve_sizes(law, None), law.id

    def test_pinned_regression_fails_with_witness(self):
        rep = check(law_by_id("REG-nonassoc-triple"))
        assert rep.verdict == "fail" and rep.as_declared
        assert rep.counterexamples

    def test_subassociativity_random_seeded(self):
        rep = check(law_by_id("L2.2-subassociativity"), sizes=(3, 3), seed=42)
        assert rep.verdict == "pass"
        assert rep.mode == "random"
        assert rep.checked == 200

    def test_neg_counterexamples_reevaluate_to_fail(self):
        law = law_by_id("NEG-peleg-assoc-general")
        rep = check(law, seed=7)
        assert rep.verdict == "fail"
        for cex in rep.counterexamples:
            env = env_from_json(
                {"carriers": cex["carriers"], "mrels": cex["slots"]}
            )
            assert eval_term(parse(law.claim), env) is False

    def test_reports_deterministic(self):
        law = law_by_id("NEG-alpha-peleg-multiplicative")
        a = check(law, sizes=(2, 2), seed=11).to_json()
        b = check(law, sizes=(2, 2), seed=11).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_guard_records_skips(self):
        rep = check(law_by_id("L5-prefix-fusion-total"), sizes=(2, 2))
        assert rep.verdict == "pass"
        assert rep.skipped_by_condition > 0
        assert rep.checked + rep.skipped_by_condition == 256

    def test_side_conditions_honored_constructively(self):
        rep = check(law_by_id("L3.2-assoc-outer-det"), sizes=(2, 2))
        # 16 outer deterministic multirelations per slot
        assert rep.mode == "exhaustive"
        assert rep.checked == 16 ** 3
        assert rep.verdict == "pass"

    def test_non_boolean_claims_are_rejected(self):
        law = Law("dev-rel-claim", "theorem", "a relation, not a claim", "R ; S",
                  (Slot("R", "rel", "X", "Y"), Slot("S", "rel", "Y", "X")))
        with pytest.raises(ShapeMismatch, match="claim R ; S is a rel"):
            check(law, sizes=(2, 2))
        guarded = Law("dev-rel-guard", "theorem", "a relation as a guard", "R == R",
                      (Slot("R", "rel", "X", "Y"),), guard="-R")
        with pytest.raises(ShapeMismatch, match="guard -R is a rel"):
            check(guarded, sizes=(2, 2))
        pinned = Law("dev-rel-pinned", "regression", "a pinned relation", "R", pinned={
            "carriers": {"X": 1}, "rels": {"R": {"src": 1, "dst": 1, "pairs": []}}})
        with pytest.raises(ShapeMismatch, match="claim R is a rel"):
            check(pinned)

    def test_misspelt_flag_is_named(self):
        law = Law("dev-misspelt-need", "theorem", "a misspelt flag", "R <= R",
                  (Slot("R", "mrel", "X", "Y", ("inner_totl",)),))
        with pytest.raises(ValueError, match="^unknown mrel flag 'inner_totl'$"):
            check(law, sizes=(2, 2))

    @pytest.mark.parametrize("claim,slots,named", [
        ("(R <= R) == (mu(pw(pw(X))) == mu(pw(pw(X))))", (), "none"),
        ("(R <= S) == (U(R, R) <= U(R, R))", (Slot("S"), Slot("T", "rel")), "'S', 'T'"),
    ], ids=["no-slots", "two-slots"])
    def test_an_undeclared_slot_is_named_as_one(self, claim, slots, named):
        # a name that is no slot is taken for a carrier role, also where the
        # claim uses it as a value, so it is named as no slot of the law
        law = Law("dev-undeclared", "theorem", "", claim, slots, roles=("X",))
        message = f"'R' is not a slot of the law (its slots: {named}) [in sub-term: R]"
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            check(law, sizes=(2, 2))
        # where a carrier's name is given as one, it still names a carrier
        with pytest.raises(ShapeMismatch, match="^'X' names a carrier, not a value"):
            typecheck(parse("X <= X"), {"X": 2})

    @pytest.mark.parametrize("guard", [None, "(R & -R) == U(X, X)"])
    def test_a_capped_constant_is_skipped_before_the_first_tuple(self, guard):
        # mu(pw(X)) at X of 3 elements needs the powerset of P(X), past the
        # cap; the constant is built as the claim is typed, so nothing is
        # counted, also where the guard holds nowhere
        law = Law("dev-capped-constant", "theorem", "", "(R == R) == (mu(pw(X)) == mu(pw(X)))",
                  (Slot("R", "rel"),), guard=guard)
        rep = check(law, sizes=(3, 3))
        assert (rep.mode, rep.verdict, rep.checked, rep.skipped_by_condition) == (
            "exhaustive", "skipped", 0, 0)
        assert rep.reason == "cannot materialize powerset of carrier of size 256 (cap 16)"

    @pytest.mark.parametrize("claim,slots", [
        ("mu(pw(pw(X))) == mu(pw(pw(X)))", ()),
        ("(R <= R) == (mu(pw(pw(X))) == mu(pw(pw(X))))", (Slot("R"),)),
    ], ids=["no-slots", "one-slot"])
    def test_a_capped_constant_is_skipped_with_or_without_slots(self, claim, slots):
        # a law with no slots keeps values by the rule every law does: its
        # constant is built as its claim is typed, so nothing is counted
        rep = check(Law("dev-capped", "theorem", "", claim, slots, roles=("X",)), sizes=(3, 3))
        assert (rep.mode, rep.verdict, rep.checked, rep.skipped_by_condition) == (
            "exhaustive", "skipped", 0, 0)
        assert rep.reason == "cannot materialize powerset of carrier of size 256 (cap 16)"

    def test_sampled_plans_name_every_phase(self):
        # a NEG entry hunts over the densities [density, 0.15, 0.5, 0.75]
        # without repeats, a theorem draws at its density alone, and every
        # phase draws the law's count from a sub-seed of its own per slot
        cases = [(law, (3, 3)) for law in registry() if law.kind != "regression"]
        cases.append((law_by_id("NEG-peleg-assoc-general"), (2, 2)))
        sampled = 0
        for law, sizes in cases:
            plan = plan_of(law, sizes)
            if plan.mode != "random":
                continue
            sampled += 1
            hunt = (0.15, 0.5, 0.75) if law.kind == "neg" else ()
            densities = list(dict.fromkeys([law.density, *hunt]))
            phases = plan.phases
            assert [{spec.density for _, spec in phase} for phase in phases] == [
                {d} for d in densities], law.id
            specs = [spec for phase in phases for _, spec in phase]
            assert all(len(phase) == len(law.slots) for phase in phases), law.id
            assert {(spec.mode, spec.count) for spec in specs} == {("random", law.count)}, law.id
            assert len({spec.seed for spec in specs}) == len(specs), law.id
        assert sampled == 160  # 159 at 3,3, and the NEG entry at 2,2

    def test_a_sampled_sweep_draws_count_tuples_per_phase(self):
        law = law_by_id("NEG-peleg-assoc-general")  # at densities 0.3, 0.15, 0.5, 0.75
        plan = plan_of(law, (2, 2))
        assert len(plan.phases) == 4 and law.count == 400
        assert sum(w for w, _ in _tuples(plan)) == 4 * 400

    @pytest.mark.parametrize("law,sizes,error,message", [
        pytest.param(Law("dev-capped-constant", "theorem", "", "mu(pw(X)) == mu(pw(X))",
                         (Slot("R"),)), (3, 3), PowersetTooLarge, "of size 256", id="cap"),
        pytest.param(Law("dev-ill-shaped", "theorem", "", "(R * S) == (R * S)",
                         (Slot("R", "mrel", "X", "Y"), Slot("S", "mrel", "X", "Y"))),
                     (2, 3), ShapeMismatch, "'\\*' cannot take S: it is 2 -> pw\\(3\\)",
                     id="shape"),
    ])
    def test_a_capped_constant_is_no_shape_error(self, law, sizes, error, message):
        # typing at those sizes raises its own error each time, a fresh one
        # each time: a cap is no shape error, and a shape error keeps its text
        terms = _Terms(law)
        carriers = {role: Carrier(n) for role, n in _resolve_sizes(terms.law, sizes).items()}
        raised = []
        for _ in range(2):
            with pytest.raises(error, match=message) as info:
                terms.at(carriers)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_law_seed_is_stable(self):
        assert law_seed(7, "some-law") == law_seed(7, "some-law")
        assert law_seed(7, "some-law") != law_seed(8, "some-law")
        assert law_seed(7, "a") != law_seed(7, "b")

    def test_unknown_law(self):
        import pytest

        from multirel.errors import UnknownLaw

        with pytest.raises(UnknownLaw):
            law_by_id("L9.9-no-such-law")


def _shrink_input(name):
    """A failing instance of a stated non-law: ``(law, carriers, values)``."""
    c2, c3 = Carrier(2), Carrier(3)
    if name == "assoc":
        law = Law("dev-assoc", "neg", "associativity probe", "((R * S) * T) == (R * (S * T))",
                  (Slot("R", "mrel", "X", "Y"), Slot("S", "mrel", "Y", "Z"),
                   Slot("T", "mrel", "Z", "W")), roles=("X", "Y", "Z", "W"), expected="fail")
        return law, {"X": c3, "Y": c3, "Z": c3, "W": c3}, {
            "R": M(3, 3, [(0, [0, 1]), (1, [0]), (2, [2])]),
            "S": M(3, 3, [(0, [0]), (0, [1]), (1, [0]), (1, [2]), (2, [2])]),
            "T": M(3, 3, [(0, [0]), (0, [1]), (1, [0]), (1, [2]), (2, [2])]),
        }
    if name == "galois":
        law = Law("dev-galois", "neg", "inclusion Galois probe", "(a(R) <= S) == (R <= L(S))",
                  (Slot("R", "mrel", "X", "Y"), Slot("S", "rel", "X", "Y")), expected="fail")
        return law, {"X": c2, "Y": c2}, {
            "R": M(2, 2, [(0, []), (1, [0, 1])]),
            "S": R(2, 2, [(0, 0), (1, 0), (1, 1)]),
        }
    if name == "alpha":
        law = Law("dev-alpha", "neg", "alpha is not multiplicative", "a(R * S) == a(R) ; a(S)",
                  (Slot("R", "mrel", "X", "Y"), Slot("S", "mrel", "Y", "Z")),
                  roles=("X", "Y", "Z"), expected="fail")
        return law, {"X": c3, "Y": c3, "Z": c3}, {
            "R": M(3, 3, [(0, [0, 1]), (0, [2]), (1, [1, 2]), (2, [0, 1, 2])]),
            "S": M(3, 3, [(0, [0, 2]), (1, []), (1, [1]), (2, [0, 1, 2])]),
        }
    law = Law("dev-up", "neg", "not every multirelation is up-closed", "up(R) == R",
              (Slot("R", "mrel", "X", "Y"),), expected="fail")
    return law, {"X": c3, "Y": c3}, {"R": M(3, 3, [(0, [0, 2]), (1, [1]), (1, [0, 1, 2]), (2, [2])])}


# shrink's exact results on the inputs above, which pin the order in which
# it tries its reductions.  "assoc" and "galois" drop pairs and then top
# elements (of every role, and of a relation's roles); "alpha" also clears
# mask bits; "up" clears a mask bit and drops the top elements of a
# multirelation's target role.
_SHRUNK = {
    "assoc": {"carriers": {"W": 2, "X": 1, "Y": 2, "Z": 1}, "slots": {
        "R": {"src": 1, "dst": 2, "rows": [[[0, 1]]]},
        "S": {"src": 2, "dst": 1, "rows": [[[0]], [[0]]]},
        "T": {"src": 1, "dst": 2, "rows": [[[0], [1]]]}}},
    "galois": {"carriers": {"X": 1, "Y": 1}, "slots": {
        "R": {"src": 1, "dst": 1, "rows": [[[]]]},
        "S": {"src": 1, "dst": 1, "pairs": [[0, 0]]}}},
    "alpha": {"carriers": {"X": 3, "Y": 3, "Z": 3}, "slots": {
        "R": {"src": 3, "dst": 3, "rows": [[], [], [[1, 2]]]},
        "S": {"src": 3, "dst": 3, "rows": [[], [], [[2]]]}}},
    "up": {"carriers": {"X": 3, "Y": 1}, "slots": {
        "R": {"src": 3, "dst": 1, "rows": [[], [], [[]]]}}},
}


class TestShrink:
    def test_nonassoc_witness_shrinks_small(self):
        small_carriers, small_values = shrink(*_shrink_input("assoc"))
        total = sum(v.count() for v in small_values.values())
        assert total <= 9

    def test_galois_subset_failure_shrinks_to_pinned_family(self):
        # shrinking any inclusion-Galois failure lands on (a renaming of)
        # one of the four pinned one-point instances; recorded, not required
        law, carriers, values = _shrink_input("galois")
        sc, sv = shrink(law, carriers, values)
        env = {**sc, **sv}
        assert eval_term(parse(law.claim), env) is False
        assert sv["R"].count() == 1 and list(sv["R"].pairs())[0][1] == 0
        assert sc["X"].size == 1 and sc["Y"].size == 1

    def test_shrunk_witness_is_pair_minimal(self):
        from multirel.mrel import MRel

        law, carriers, values = _shrink_input("assoc")
        sc, sv = shrink(law, carriers, values)
        env = {**sc, **sv}
        assert eval_term(parse(law.claim), env) is False
        for name, v in sv.items():
            for pair in v.pairs():
                rows = [list(r) for r in v.rows]
                rows[pair[0]] = [m for m in rows[pair[0]] if m != pair[1]]
                cand = dict(sv)
                cand[name] = MRel.make(v.src, v.dst, rows)
                env2 = {**sc, **cand}
                assert eval_term(parse(law.claim), env2) is True

    @pytest.mark.parametrize("name", sorted(_SHRUNK))
    def test_result_is_pinned(self, name):
        carriers, values = shrink(*_shrink_input(name))
        assert {
            "carriers": {k: c.size for k, c in carriers.items()},
            "slots": {k: v.to_json() for k, v in values.items()},
        } == _SHRUNK[name]


    @pytest.mark.parametrize("law,sizes,kept", [
        pytest.param("NEG-kleisli-left-unit", (2, 2), ("row",), id="rows"),
        pytest.param("NEG-alpha-peleg-multiplicative", (2, 2), ("group",), id="reduced"),
        pytest.param("NEG-down-peleg-chain", (2, 2), ("group", "row"), id="both"),
        pytest.param("NEG-icup-idempotent", (3, 2), None, id="factored"),
        pytest.param("do(R) == R", (3, 2), None, id="factored-dev"),
    ])
    def test_every_witness_of_a_failing_fast_sweep_still_fails(self, law, sizes, kept):
        # a NEG entry stated as a theorem takes the fast sweeps ``kept``, or
        # where None is kept, the factored sweep, which shrinks at |X| = 1
        if law.startswith("NEG"):
            law = replace(law_by_id(law), kind="theorem", expected="pass")
        else:
            law = Law("dev-fast", "theorem", "", law, (Slot("R"),))
        fast = plan_of(law, sizes, factored=kept is None)
        if kept is None:
            assert fast.power == sizes[0]
            report = check(law, sizes=sizes, seed=7, collect=5).to_json()
        else:
            assert fast.power == 1 and all(getattr(fast, f) for f in kept)
            report = report_by(law, sizes, *kept, collect=5)
        assert report["verdict"] == "fail" and report["counterexamples"]
        terms = _Terms(law)
        for cex in report["counterexamples"]:
            carriers = {role: Carrier(n) for role, n in cex["carriers"].items()}
            values = {name: (MRel if "rows" in data else Rel).from_json(data)
                      for name, data in cex["slots"].items()}
            assert _still_fails(terms.law, terms, carriers, values), (law.id, cex)


class TestKeptSubterms:
    """``check`` compiles a law's terms with the check's tables, so nodes
    over small shapes look their values up and sub-terms that read no slot
    are computed once (``dsl._compile``).  Neither changes a result."""

    # a claim over the whole product; a constant sub-term with an operation
    # under a node of one slot; a node of two slots under one of three
    CASES = ("di(R * S) <= (di(R) * di(S))", "(R ; mem(Y)^) ; a(S)", "icap(R, S) * T")

    def test_kept_results_equal_fresh_ones(self):
        values = list(instances("mrel", GenSpec((2, 2))))
        few = values[::16]
        types = {"X": 2, "Y": 2, "Z": 2, **{n: Sig("mrel", 2, 2) for n in "RST"}}
        for text, pools in zip(self.CASES, ((values, values), (few, values), (few, few, few))):
            tables: dict = {}
            kept = _typecheck(parse(text), types, tables)
            fresh = typecheck(parse(text), types)
            for tup in product(*pools):
                b = dict(zip("RST", tup))
                assert kept.run(b) == fresh.run(b)
            assert tables

    def test_kept_results_equal_fresh_ones_at_2x3(self):
        # no multirelation from 2 or 3 elements into the powerset of 3 is of
        # a small shape, so no node looks its value up, as at every size
        # past 2,2; constant sub-terms are still computed once
        def some(shape, seed):
            return list(instances("mrel", GenSpec(shape, "random", count=12, seed=seed)))

        wide, square = some((2, 3), 1), some((3, 3), 2)
        types = {"X": 2, "Y": 3, "Z": 3}
        for text, slots in zip(self.CASES, (
            {"R": wide, "S": square},
            {"R": wide, "S": square},
            {"R": wide, "S": wide, "T": square},
        )):
            sigs = {n: Sig("mrel", len(v[0].rows), v[0].dst.size) for n, v in slots.items()}
            tables: dict = {}
            kept = _typecheck(parse(text), {**types, **sigs}, tables)
            fresh = typecheck(parse(text), {**types, **sigs})
            for tup in product(*slots.values()):
                b = dict(zip(slots, tup))
                assert kept.run(b) == fresh.run(b)
            assert tables == {}

    def test_constants_are_built_once_per_law(self, monkeypatch):
        calls = []
        mu = power.mu
        monkeypatch.setattr(power, "mu", lambda x: calls.append(x) or mu(x))
        claim = "mu(X) == Pf(mem(X)^)"
        env = {"X": C(2)}
        # public evaluation keeps nothing
        for _ in range(2):
            assert eval_term(parse(claim), env)
        typed = typecheck(parse(claim), {"X": 2})
        for _ in range(2):
            assert eval_term(typed, env)
        assert len(calls) == 4
        # a law with no slots builds it once, as it is typed
        law = Law("dev-mu", "theorem", "mu is union-flattening", claim, roles=("X",))
        typed, _ = _Terms(law).at({"X": C(2)})
        for _ in range(2):
            assert eval_term(typed, {})
        assert len(calls) == 5
        # a law with slots builds it once, however many tuples it checks
        r, s = Slot("R", "mrel", "X", "Y"), Slot("S", "mrel", "Y", "Y")
        for law, sizes in (
            (Law("dev-kl", "theorem", "kl through mu", "kl(R) == (Pf(R) ; mu(Y))", (r,)), (2, 2)),
            (Law("dev-at", "theorem", "@ through mu", "(R @ S) == ((R ; Pf(S)) ; mu(Y))",
                 (r, s)), (1, 2)),
        ):
            calls.clear()
            rep = check(law, sizes=sizes)
            assert rep.verdict == "pass" and rep.checked > 1
            assert len(calls) == 1

    def test_converted_constants_are_converted_once(self, monkeypatch):
        # eta(Y) is a multirelation where ';' asks for a relation
        calls = []
        to_rel = mrel.mrel_to_rel
        monkeypatch.setattr(mrel, "mrel_to_rel", lambda m: calls.append(m) or to_rel(m))
        rep = check(law_by_id("L2.2-pow-from-klift"), sizes=(2, 2))
        assert rep.verdict == "pass" and rep.checked == 16
        assert len(calls) == 1

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 3)])
    def test_operations_on_constants_run_once(self, monkeypatch, sizes):
        calls = []
        converse = rel.rel_converse
        monkeypatch.setattr(rel, "rel_converse", lambda r: calls.append(r) or converse(r))
        rep = check(law_by_id("A-alpha"), sizes=sizes)  # a(R) == (R ; mem(Y)^)
        assert rep.verdict == "pass" and rep.checked > 1
        assert len(calls) == 1
