"""Symmetry-reduced exhaustive checks.

Every operation and constant of the term language is defined from the sets
its values hold, so it commutes with renaming the elements of each carrier:
permuting the operands' carriers permutes the value the same way.  Then a
law's claim and guard give the same verdict on a tuple and on its image,
and ``laws.check`` may run its first slot over orbit representatives only.
These tests check the equivariance itself, on seeded values, and that every
reduced check of a law that passes reports the bytes of the plain sweep,
and one of a law that fails the plain sweep's first witness."""

from __future__ import annotations

import random
from dataclasses import replace
from math import prod

import pytest

from multirel import GenSpec, instances, mrel
from multirel.dsl import _CONSTS, _OPS
from multirel.errors import CapExceeded, ShapeMismatch
from multirel.generate import _group, _orbits, space_size
from multirel.laws import Law, Slot, _resolve_sizes, _stream_args, _Terms, check
from multirel.mrel import MREL_ROW_FLAGS
from multirel.registry import law_by_id, registry
from multirel.rel import REL_ROW_FLAGS, Carrier, pow_carrier
from conftest import but_counts, counted_to_stop, counts, plan_of, report_by, seeded

SIZES = [(2, 2), (2, 3), (3, 3)]


def renamed(mask: int, perm) -> int:
    return sum(1 << perm[b] for b in range(len(perm)) if mask >> b & 1)


class Carriers:
    """A carrier and a random permutation of it for each letter of a
    signature, and what they induce on the powersets ``pa`` and ``ppa``."""

    def __init__(self, letters, sizes, rng):
        self.base = {x: Carrier(sizes[min(i, 1)]) for i, x in enumerate(letters)}
        self.perm = {x: rng.sample(range(c.size), c.size) for x, c in self.base.items()}

    def carrier(self, token: str) -> Carrier:
        c = self.base[token[-1]]
        for _ in token[:-1]:
            c = pow_carrier(c)
        return c

    def permutation(self, token: str) -> list[int]:
        perm = self.perm[token[-1]]
        for _ in token[:-1]:
            perm = [renamed(m, perm) for m in range(1 << len(perm))]
        return perm


def letters_of(spec) -> list[str]:
    tokens = [t for _, *ends in spec.operands for t in ends] + list(spec.result)
    return list(dict.fromkeys(t[-1] for t in tokens))


def implementations(spec):
    """``(impl, operand views, result sort)`` for each implementation."""
    if isinstance(spec.impl, tuple):  # a relation and a multirelation form
        for impl, kind in zip(spec.impl, ("rel", "mrel")):
            sort = kind if spec.sort in ("same", "?") else spec.sort
            yield impl, ("r" if kind == "rel" else "m") * len(spec.views), sort
    else:
        yield spec.impl, spec.views.replace("s", "r").replace("*", "r"), spec.sort


def permuted(value, cs: Carriers, src: str, dst: str):
    return value._permuted(cs.permutation(src), cs.permutation(dst))


@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("table, name", [("op", n) for n in _OPS] + [("const", n) for n in _CONSTS])
def test_every_operation_commutes_with_permuting_carriers(table, name, sizes):
    spec = (_OPS if table == "op" else _CONSTS)[name]
    rng = random.Random(f"{name} {sizes}")
    for impl, views, sort in implementations(spec):
        for _ in range(6):
            cs = Carriers(letters_of(spec), sizes, rng)
            if table == "const":
                operands, images = [cs.base[x] for x in spec.letters], None
            else:
                operands, images = [], []
                for view, (_, src, dst) in zip(views, spec.operands):
                    kind = "mrel" if view == "m" else "rel"
                    shape = (cs.carrier(src).size, cs.carrier(dst).size)
                    seed = rng.randrange(1 << 30)
                    value = seeded(kind, *shape, count=1, seed=seed, density=0.4)[0]
                    operands.append(value)
                    images.append(permuted(value, cs, src, dst))
            value = impl(*operands)
            if sort == "bool":
                assert impl(*images) == value, (name, operands)
                continue
            expected = permuted(value, cs, *spec.result)
            got = impl(*images) if images is not None else value
            assert got == expected, (name, operands, cs.perm)


def checkable_laws():
    return [law for law in registry() if law.kind != "regression"]


@pytest.mark.parametrize("sizes", SIZES)
def test_claim_and_guard_verdicts_commute_with_permuting_roles(sizes):
    rng = random.Random(sizes[0] * 10 + sizes[1])
    evaluated = 0
    for law in checkable_laws():
        terms = _Terms(law)
        law = terms.law
        resolved = _resolve_sizes(law, sizes)
        carriers = {role: Carrier(n) for role, n in resolved.items()}
        try:
            claim, guard = terms.at(carriers)
            streams = [seeded(s.sort, *_stream_args(s, resolved)[1].shape, count=5,
                              seed=rng.randrange(1 << 30), density=0.4, where=s.needs)
                       for s in law.slots]
        except (ShapeMismatch, CapExceeded):
            continue
        for tup in zip(*streams):
            perm = {role: rng.sample(range(n), n) for role, n in resolved.items()}
            env = dict(zip((s.name for s in law.slots), tup))
            image = {s.name: env[s.name]._permuted(perm[s.src], perm[s.dst]) for s in law.slots}
            for term in filter(None, (claim, guard)):
                try:
                    verdict = term.run(env)
                except CapExceeded:
                    continue
                assert term.run(image) == verdict, (law.id, sizes, env, perm)
                evaluated += 1
    assert evaluated >= 5 * sum(1 for law in checkable_laws() if law.slots)


@pytest.mark.parametrize("kind, flags", [("rel", REL_ROW_FLAGS), ("mrel", MREL_ROW_FLAGS)])
def test_flags_commute_with_permuting_carriers(kind, flags):
    rng = random.Random(kind)
    for ns, nd in SIZES + [(3, 2)]:
        values = seeded(kind, ns, nd, count=20, seed=5, density=0.4)
        for flag in flags:
            spec = GenSpec((ns, nd), where=frozenset([flag]))
            if space_size(kind, spec) == 0:
                continue
            every = list(instances(kind, spec)) if space_size(kind, spec) <= 1 << 14 else []
            values += rng.sample(every, min(5, len(every)))
        for v in values:
            for _ in range(3):
                p, q = rng.sample(range(ns), ns), rng.sample(range(nd), nd)
                w = v._permuted(p, q)
                for flag in flags:
                    if flag != "test":
                        assert w.has_flags([flag]) == v.has_flags([flag]), (v, flag, p, q)
                if ns == nd and "test" in flags:  # it reads the row index, so only p on both ends keeps it
                    assert v._permuted(p, p).has_flags(["test"]) == v.has_flags(["test"]), v


def test_orbits_partition_the_stream():
    # MRel(2,2) has 88 orbits under Sym(2) x Sym(2), Rel(3,3) 36 under
    # Sym(3) x Sym(3), and Rel(2,2) 10 under one Sym(2) acting on both ends
    for kind, shape, diagonal, orbits in [("mrel", (2, 2), False, 88), ("rel", (3, 3), False, 36),
                                          ("rel", (2, 2), True, 10)]:
        values = list(instances(kind, GenSpec(shape)))
        reps = list(_orbits(iter(values), _group(shape, diagonal)))
        assert len(reps) == orbits
        assert sum(w for _, w in reps) == len(values)
        at = [values.index(v) for v, _ in reps]  # each first in its orbit
        assert at == sorted(at) and at[0] == 0


# ---------------------------------------------------------------------------
# Agreement with the plain sweep


def group_of(law: Law, sizes) -> tuple[list | None, int]:
    """The group ``check`` reduces ``law``'s first slot by at ``sizes`` where
    it does not factor it, or None where it runs the plain sweep, and the
    size of its tuple space (see ``laws._plan``)."""
    run = plan_of(law, sizes, factored=False)
    return run.group, prod(space_size(*a) for a in run.phases[0])


def reduced_check(law: Law, sizes, **kw) -> dict:
    """The report of ``check`` with no factored sweep."""
    return report_by(law, sizes, "group", "row", **kw)


def reduced(sizes) -> list[Law]:
    """The laws reduced at ``sizes`` whose plain sweep has at most 4,096 tuples."""
    out = []
    for law in checkable_laws():
        group, space = group_of(law, sizes)
        if group is not None and space <= 4096:
            out.append(law)
    return out


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2)])
def test_reduced_reports_equal_plain_ones(sizes):
    chosen = reduced(sizes)
    assert len(chosen) >= 20
    for law in chosen:
        assert reduced_check(law, sizes) == report_by(law, sizes), law.id


@pytest.mark.parametrize("law_id, sizes", [("L2.2-icap-comm", (2, 2)),
                                           ("L2.1-lambda-natural-det", (3, 3))])
def test_large_reduced_sweeps_equal_plain_ones(law_id, sizes):
    law = law_by_id(law_id)
    assert len(group_of(law, sizes)[0]) > 1
    assert reduced_check(law, sizes) == report_by(law, sizes)


def test_a_failing_reduced_sweep_gives_the_plain_report():
    # but for its counts, which weight each tuple by its orbit up to the
    # last witness; its first witness is the plain one, and here the others
    # are too
    law = Law("dev-peleg-kleisli", "theorem", "R*S = R@S (it does not hold)",
              "(R * S) == (R @ S)", (Slot("R"), Slot("S")))
    assert len(group_of(law, (2, 2))[0]) == 4
    for collect, weighted in [(1, (772, 0)), (3, (792, 0))]:
        report = reduced_check(law, (2, 2), collect=collect)
        assert report["verdict"] == "fail" and len(report["counterexamples"]) == collect
        assert but_counts(report) == but_counts(report_by(law, (2, 2), collect=collect))
        assert counts(report) == counted_to_stop(law, (2, 2), collect) == weighted


# theorems that fail at 2,2, each reduced there
FAILING = {"dev-peleg-kleisli": "(R * S) == (R @ S)",
           "dev-guarded": "icap(R, S) == R",
           "dev-icup": "icup(R, S) == R",
           "dev-subset": "(R ; S) <= R"}


@pytest.mark.parametrize("law_id", [*FAILING, "NEG-alpha-peleg-multiplicative",
                                    "NEG-down-peleg-chain"])
def test_the_first_witness_of_a_failing_reduced_sweep_is_the_plain_one(law_id):
    # the first stream value with a failing tuple is first in its orbit, so
    # the reduced sweep meets the plain sweep's first failing tuple first
    if law_id in FAILING:
        law = Law(law_id, "theorem", "", FAILING[law_id], (Slot("R"), Slot("S")),
                  guard="R <= up(S)" if law_id == "dev-guarded" else None)
    else:
        law = replace(law_by_id(law_id), kind="theorem", expected="pass")
    assert group_of(law, (2, 2))[0]
    report = report_by(law, (2, 2), "group", collect=1)
    assert report["verdict"] == "fail"
    assert report["counterexamples"] == report_by(law, (2, 2), collect=1)["counterexamples"]


def test_a_cap_error_in_a_reduced_sweep_gives_the_plain_report(monkeypatch):
    # a cap hit at a one-row pair (x, x) for icap, which reads both operands
    # row by row: x is a row of a first value that stands for an orbit of 4,
    # and of no first value before it, so that value's tuples meet the pair
    # first; the reduced sweep reports the plain sweep's verdict and reason,
    # and counts the tuples of each earlier first value as often as its
    # orbit is large
    law = law_by_id("L2.2-icap-comm")
    values = list(instances("mrel", GenSpec((2, 2))))
    seen: set = set()
    before = 0  # the values in the orbits before the first value's
    for first, weight in _orbits(iter(values), _group((2, 2), False)):
        fresh = set(first.rows) - seen
        if weight == 4 and fresh and seen:
            break
        seen.update(first.rows)
        before += weight
    x = min(fresh)
    inner_bool = mrel.inner_bool
    hits = []

    def capped(op, r, s=None):
        if r.src.size == 1 and r.rows == s.rows == (x,):
            hits.append(op)
            raise CapExceeded("capped")
        return inner_bool(op, r, s)

    monkeypatch.setattr(mrel, "inner_bool", capped)
    report = report_by(law, (2, 2), "group")
    assert report["verdict"] == "skipped" and hits
    assert but_counts(report) == but_counts(report_by(law, (2, 2)))
    # and the first value's tuples up to the first whose second value has x
    # where it does, which is checked as the cap is met
    at = next(i for i, s in enumerate(values) if (x, x) in zip(first.rows, s.rows))
    assert counts(report) == (before * len(values) + weight * (at + 1), 0)


# Both reductions, the orbits of the first slot and the factored sweep, need
# the law's roles to be its own (see ``laws._plan``).  The second law of each
# pair below has a row-local role, so only that premise keeps it unfactored.


def neither_reduced_nor_factored(law: Law, local: str | None) -> None:
    assert _Terms(law).local == local
    run = plan_of(law, (2, 2))
    assert run.group is None and run.power == 1
    assert check(law, sizes=(2, 2), seed=7).to_json() == report_by(law, (2, 2))


@pytest.mark.parametrize("claim,ends,guard,local", [
    # ``R ; S`` types over two slots X -> Y only where X and Y have one size
    pytest.param("(R ; S) <= (R ; S)", ("XY", "XY"), "(R ; S) == (S ; R)", None,
                 id="composition"),
    # ``R <= S`` types over R: X -> Y and S: X -> Z only where Y and Z have one size
    pytest.param("R <= S", ("XY", "XZ"), None, "X", id="row-local"),
])
def test_roles_given_equal_sizes_are_not_reduced(claim, ends, guard, local):
    slots = (Slot("R", "rel", *ends[0]), Slot("S", "rel", *ends[1]))
    neither_reduced_nor_factored(Law("dev-given-roles", "theorem", "", claim, slots, guard=guard),
                                 local)


def test_a_slot_from_a_role_to_itself_gets_the_diagonal_group():
    law = Law("dev-diagonal", "theorem", "(R & Id);S <= S for transitive R",
              "((R & Id(X)) ; S) <= S", (Slot("R"), Slot("S")), guard="(R ; R) <= R")
    group, _ = group_of(law, (2, 2))
    assert sorted(group) == [((0, 1), (0, 1)), ((1, 0), (1, 0))]
    assert reduced_check(law, (2, 2)) == report_by(law, (2, 2))


@pytest.mark.parametrize("claim,sort,ends,local", [
    pytest.param("(R ; S) <= U(X, Z)", "rel", ("XY", "YZ"), None, id="composition"),
    # as perfbench's ad hoc laws give their slots' roles
    pytest.param("icap(R, S) <= R", "mrel", ("XY", "XY"), "X", id="row-local"),
])
def test_consistent_given_roles_are_not_reduced(claim, sort, ends, local):
    # the reductions need roles that infer_slots named, and these are given
    slots = (Slot("R", sort, *ends[0]), Slot("S", sort, *ends[1]))
    neither_reduced_nor_factored(Law("dev-given-chain", "theorem", "", claim, slots), local)


TEST_SLOTS = {"R": Slot("R"), "T": Slot("T", needs=("test",))}


@pytest.mark.parametrize("claim,order", [pytest.param("(R & T) <= R", "RT", id="R-first"),
                                         pytest.param("(T & R) <= T", "TR", id="T-first")])
def test_a_test_slot_between_two_roles_is_not_reduced(claim, order):
    # ``test`` reads the row index, so it survives only a permutation of both ends
    slots = tuple(TEST_SLOTS[name] for name in order)
    neither_reduced_nor_factored(Law("dev-test-roles", "theorem", "", claim, slots), "X")


@pytest.mark.parametrize("claim,order,size", [
    # T: Y -> Y, and R: X -> Y gets every permutation of X and Y
    pytest.param("(R ; T) <= R", "RT", 4, id="Y-to-Y"),
    pytest.param("(T ; R) <= R", "TR", 2, id="X-to-X"),  # the diagonal group
])
def test_a_test_slot_from_a_role_to_itself_is_reduced_and_not_factored(claim, order, size):
    # the slot's role is its target, which a row-local role never is, so
    # the premise of both reductions need not refuse every ``test`` slot
    law = Law("dev-test", "theorem", "", claim, tuple(TEST_SLOTS[name] for name in order))
    run = plan_of(law, (2, 2))
    assert len(run.group) == size and run.power == 1
    assert check(law, sizes=(2, 2), seed=7).to_json() == report_by(law, (2, 2))
