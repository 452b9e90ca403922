from __future__ import annotations

import json
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirel import (
    Carrier,
    GenSpec,
    MRel,
    ShapeMismatch,
    alpha,
    classify_mrel,
    closure,
    eta,
    inner_bool,
    inner_dual,
    instances,
    is_submrel,
    member_rel,
    mrel_bool,
    mrel_const,
    mrel_to_rel,
    omega,
    peleg_compose,
    preorder,
    rel_compose,
    rel_converse,
    rel_to_mrel,
    split_terminal,
)
from conftest import C, M, mask


def every_mrel(ns, nd):
    return instances("mrel", GenSpec((ns, nd)))


def some_mrels(ns, nd, count, seed, density=0.5):
    return instances(
        "mrel", GenSpec((ns, nd), "random", count=count, seed=seed, density=density)
    )


class TestConstants:
    def test_inner_unit(self):
        assert mrel_const("inner_unit", C(2), C(2)) == M(2, 2, [(0, []), (1, [])])

    def test_atoms(self):
        assert mrel_const("atoms", C(1), C(2)) == M(1, 2, [(0, [0]), (0, [1])])

    def test_coatoms_width_2(self):
        got = mrel_const("coatoms", C(1), C(2))
        assert got == M(1, 2, [(0, [1]), (0, [0])])

    def test_counit_is_complement_of_unit(self):
        lo = mrel_const("inner_unit", C(2), C(3))
        hi = mrel_const("inner_counit", C(2), C(3))
        assert inner_bool("icomp", lo) == hi


class TestInnerBool:
    def test_icup_pointwise(self):
        got = inner_bool("icup", M(1, 2, [(0, [0])]), M(1, 2, [(0, [1])]))
        assert got == M(1, 2, [(0, [0, 1])])

    def test_icup_unit(self):
        unit = mrel_const("inner_unit", C(2), C(2))
        for r in some_mrels(2, 2, 12, seed=1):
            assert inner_bool("icup", r, unit) == r
            assert inner_bool("icup", unit, r) == r

    def test_icup_not_idempotent(self):
        r = M(1, 2, [(0, [0]), (0, [1])])
        got = inner_bool("icup", r, r)
        # pairwise-union oracle over the two rows
        expected = {m | n for m in (mask(0), mask(1)) for n in (mask(0), mask(1))}
        assert set(got.rows[0]) == expected
        assert got == M(1, 2, [(0, [0]), (0, [1]), (0, [0, 1])])

    def test_icup_idempotent_on_outer_univalent(self):
        for r in every_mrel(2, 2):
            if classify_mrel(r).outer_univalent:
                assert inner_bool("icup", r, r) == r

    def test_icap_formula(self):
        for r in some_mrels(1, 3, 10, seed=3):
            for s in some_mrels(1, 3, 6, seed=4):
                dual = inner_bool("icup", inner_bool("icomp", r), inner_bool("icomp", s))
                assert inner_bool("icap", r, s) == inner_bool("icomp", dual)

    def test_associative_commutative_exhaustive_small(self):
        rs = list(every_mrel(1, 2))
        for op in ("icup", "icap"):
            for r in rs:
                for s in rs:
                    assert inner_bool(op, r, s) == inner_bool(op, s, r)
            for r in rs[:8]:
                for s in rs[:8]:
                    for t in rs[:8]:
                        lhs = inner_bool(op, inner_bool(op, r, s), t)
                        assert lhs == inner_bool(op, r, inner_bool(op, s, t))

    def test_associative_sampled(self):
        rs = list(some_mrels(2, 3, 30, seed=5))
        for r, s, t in zip(rs[::3], rs[1::3], rs[2::3]):
            for op in ("icup", "icap"):
                lhs = inner_bool(op, inner_bool(op, r, s), t)
                assert lhs == inner_bool(op, r, inner_bool(op, s, t))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            inner_bool("icup", M(1, 2, []), M(1, 3, []))


class TestFamily:
    """The inner union of a finite family: an ``icup`` fold that starts
    from the inner unit."""

    @staticmethod
    def inner_union(family, src, dst):
        return reduce(partial(inner_bool, "icup"), family, mrel_const("inner_unit", src, dst))

    def test_empty_family_is_unit(self):
        got = self.inner_union([], C(1), C(1))
        assert got == M(1, 1, [(0, [])])

    def test_singleton_family(self):
        r = M(1, 2, [(0, [0])])
        assert self.inner_union([r], C(1), C(2)) == r

    def test_two_members(self):
        got = self.inner_union([M(1, 2, [(0, [0])]), M(1, 2, [(0, [1])])], C(1), C(2))
        assert got == M(1, 2, [(0, [0, 1])])


class TestClosures:
    def test_up(self):
        assert closure("up", M(1, 2, [(0, [0])])) == M(1, 2, [(0, [0]), (0, [0, 1])])

    def test_down(self):
        assert closure("down", M(1, 2, [(0, [0])])) == M(1, 2, [(0, []), (0, [0])])

    def test_up_of_unit_is_membership(self):
        assert mrel_to_rel(closure("up", eta(C(2)))) == member_rel(C(2))

    def test_up_is_omega_postcomposition(self):
        for nd in (1, 2, 3):
            for r in some_mrels(1, nd, 10, seed=6):
                lhs = mrel_to_rel(closure("up", r))
                rhs = rel_compose(mrel_to_rel(r), omega(C(nd)))
                assert lhs == rhs

    def test_down_is_omega_converse_postcomposition(self):
        for nd in (1, 2, 3):
            for r in some_mrels(1, nd, 10, seed=7):
                lhs = mrel_to_rel(closure("down", r))
                rhs = rel_compose(mrel_to_rel(r), rel_converse(omega(C(nd))))
                assert lhs == rhs

    def test_convex_is_meet_of_closures(self):
        for r in some_mrels(2, 2, 10, seed=8):
            assert closure("convex", r) == mrel_bool("inter", closure("up", r), closure("down", r))

    def test_closures_are_closures(self):
        for r in some_mrels(2, 2, 10, seed=9):
            assert closure("up", closure("up", r)) == closure("up", r)
            assert closure("down", closure("down", r)) == closure("down", r)
            assert is_submrel(r, closure("up", r)) and is_submrel(r, closure("down", r))


@pytest.mark.parametrize("ns", [0, 2])
@pytest.mark.parametrize("fn, operands", [(closure, 1), (inner_bool, 2), (mrel_bool, 2)],
                         ids=lambda v: getattr(v, "__name__", None))
def test_unknown_modes_are_rejected(fn, operands, ns):
    # also where no row would reach the dispatch on the mode
    r = M(ns, 2, [])
    with pytest.raises(ValueError, match="unknown"):
        fn("bogus", *[r] * operands)


class TestPreorders:
    def test_reflexive(self):
        for r in some_mrels(2, 2, 8, seed=10):
            for mode in ("smyth", "hoare", "egli_milner"):
                assert preorder(mode, r, r)

    def test_hoare_example(self):
        assert preorder("hoare", M(1, 2, [(0, [0])]), M(1, 2, [(0, [0, 1])]))

    def test_smyth_via_up_closure(self):
        for r in some_mrels(2, 2, 8, seed=11):
            for s in some_mrels(2, 2, 6, seed=12):
                assert preorder("smyth", r, s) == is_submrel(s, closure("up", r))
                assert preorder("hoare", r, s) == is_submrel(r, closure("down", s))

    def test_orders_coincide_on_outer_deterministic(self):
        spec = GenSpec((2, 2), where=frozenset(["outer_deterministic"]))
        dets = list(instances("mrel", spec))
        for r in dets:
            for s in dets:
                sm = preorder("smyth", r, s)
                assert sm == preorder("hoare", r, s)
                assert sm == preorder("egli_milner", r, s)


class TestClassify:
    def test_atoms_inner_deterministic(self):
        assert classify_mrel(mrel_const("atoms", C(2), C(2))).inner_deterministic

    def test_inner_unit_univalent_not_total(self):
        flags = classify_mrel(mrel_const("inner_unit", C(1), C(2)))
        assert flags.inner_univalent and not flags.inner_total

    def test_doubleton_mask(self):
        flags = classify_mrel(M(1, 2, [(0, [0, 1])]))
        assert flags.inner_total and not flags.inner_univalent

    def test_fixpoint_characterizations(self):
        # inner univalent / total / deterministic agree with their
        # intersection-with-constants fixpoint forms
        for ns in (1, 2):
            for r in every_mrel(ns, 2):
                flags = classify_mrel(r)
                at = mrel_const("atoms", C(ns), C(2))
                lo = mrel_const("inner_unit", C(ns), C(2))
                at_or_lo = mrel_bool("union", at, lo)
                assert flags.inner_univalent == (mrel_bool("inter", r, at_or_lo) == r)
                assert flags.inner_total == (mrel_bool("minus", r, lo) == r)
                assert flags.inner_deterministic == (mrel_bool("inter", r, at) == r)
                # Rel-view form: R ; 1~ ; 1 keeps exactly the singleton pairs
                one = mrel_to_rel(eta(C(2)))
                via = rel_compose(rel_compose(mrel_to_rel(r), rel_converse(one)), one)
                assert flags.inner_deterministic == (via == mrel_to_rel(r))

    def test_closed_flags_match_closures(self):
        for r in some_mrels(2, 3, 20, seed=13):
            flags = classify_mrel(r)
            assert flags.up_closed == (closure("up", r) == r)
            assert flags.down_closed == (closure("down", r) == r)

    def test_union_closed(self):
        assert classify_mrel(M(1, 2, [(0, [0]), (0, [1]), (0, [0, 1])])).union_closed
        assert not classify_mrel(M(1, 2, [(0, [0]), (0, [1])])).union_closed


class TestTerminalSplit:
    def test_partition(self):
        r = M(2, 1, [(0, []), (1, [0])])
        n, t = split_terminal(r)
        assert n == M(2, 1, [(1, [0])])
        assert t == M(2, 1, [(0, [])])

    def test_partition_property(self):
        for r in some_mrels(2, 2, 15, seed=14):
            n, t = split_terminal(r)
            assert mrel_bool("union", n, t) == r
            assert mrel_bool("inter", n, t) == mrel_const("empty", C(2), C(2))

    def test_fission_has_no_terminal_part(self):
        from multirel import fission

        for r in some_mrels(2, 2, 15, seed=15):
            assert split_terminal(fission(r))[1] == mrel_const("empty", C(2), C(2))

    def test_down_closure_is_peleg_with_lowered_unit(self):
        lowered = closure("down", eta(C(2)))
        for r in some_mrels(2, 2, 15, seed=16):
            assert closure("down", r) == peleg_compose(r, lowered)


class TestDualAndOdot:
    def test_dual_involutive(self):
        for r in some_mrels(2, 2, 10, seed=17):
            assert inner_dual(inner_dual(r)) == r

    def test_dual_swaps_extremes(self):
        u = mrel_const("universal", C(1), C(2))
        e = mrel_const("empty", C(1), C(2))
        assert inner_dual(u) == e
        assert inner_dual(e) == u

    def test_odot_formula(self):
        from multirel import odot

        rs = list(some_mrels(2, 2, 6, seed=18))
        for r, s in zip(rs[::2], rs[1::2]):
            assert odot(r, s) == inner_bool("icomp", peleg_compose(r, inner_bool("icomp", s)))


class TestViews:
    def test_round_trip(self):
        for r in some_mrels(2, 3, 10, seed=19):
            assert rel_to_mrel(mrel_to_rel(r)) == r

    def test_rel_to_mrel_needs_powerset_tag(self):
        from multirel import rel_const

        with pytest.raises(ShapeMismatch):
            rel_to_mrel(rel_const("empty", C(1), C(4)))


class TestJson:
    def test_pinned_form(self):
        r = M(2, 2, [(0, [1, 0]), (0, []), (1, [1])])
        data = json.loads(json.dumps(r.to_json()))
        assert data == {"src": 2, "dst": 2, "rows": [[[], [0, 1]], [[1]]]}
        assert MRel.from_json(data) == r

    @settings(max_examples=60)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_round_trip_random(self, ns, nd, data):
        pairs = data.draw(
            st.sets(st.tuples(st.integers(0, ns - 1), st.integers(0, (1 << nd) - 1)))
        )
        r = MRel.from_pairs(Carrier(ns), Carrier(nd), pairs)
        assert MRel.from_json(json.loads(json.dumps(r.to_json()))) == r

    @pytest.mark.parametrize("a", [-1, 2])
    def test_source_index_out_of_range_is_rejected(self, a):
        with pytest.raises(ValueError, match="source index"):
            MRel.from_pairs(C(2), C(2), [(0, 1), (a, 0)])

    @pytest.mark.parametrize("b,message", [
        (-1, "row 1: element index -1 is outside 0..1"),
        (2, "row 1: element index 2 is outside 0..1"),
        (0.0, "row 1: element index 0.0 is not an integer"),
        (False, "row 1: element index False is not an integer"),
    ])
    def test_subset_elements_are_named(self, b, message):
        with pytest.raises(ValueError, match=message):
            MRel.from_json({"src": 2, "dst": 2, "rows": [[[0]], [[1], [b]]]})

    @pytest.mark.parametrize("key", ["src", "dst"])
    @pytest.mark.parametrize("size", [2.7, -1, "2", True, None])
    def test_sizes_are_not_truncated(self, key, size):
        doc = {"src": 2, "dst": 2, "rows": [[], [[0]]], key: size}
        with pytest.raises(ValueError, match=f"'{key}' must be a non-negative integer"):
            MRel.from_json(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "mrel", None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            MRel.from_json(doc)
