from __future__ import annotations

import setmodel
from multirel import (
    GenSpec,
    alpha,
    classify_mrel,
    closure,
    cofission,
    cofusion,
    eta,
    fission,
    fusion,
    inner_bool,
    instances,
    is_submrel,
    mrel_bool,
    mrel_const,
    mrel_to_rel,
    peleg_compose,
    power_transpose,
    preorder,
    rel_compose,
    split_terminal,
)
from conftest import C, M, every, mask, seeded


class TestFusionFission:
    def test_fusion_of_empty_fills_with_empty_sets(self):
        got = fusion(mrel_const("empty", C(2), C(2)))
        assert got == M(2, 2, [(0, []), (1, [])])

    def test_fission_splits_into_singletons(self):
        assert fission(M(2, 2, [(0, [0, 1])])) == M(2, 2, [(0, [0]), (0, [1])])

    def test_cofusion_intersects(self):
        got = cofusion(M(1, 2, [(0, [0]), (0, [0, 1])]))
        assert got == M(1, 2, [(0, [0])])

    def test_cofusion_empty_row_gets_full_set(self):
        # the empty intersection: conjugating fusion under inner complement
        got = cofusion(mrel_const("empty", C(1), C(2)))
        assert got == M(1, 2, [(0, [0, 1])])

    def test_match_set_model(self):
        for r in seeded("mrel", 2, 3, count=20, seed=1, density=0.5):
            m = setmodel.mrel_sets(r)
            assert setmodel.mrel_sets(fusion(r)) == setmodel.fusion(m, 2)
            assert setmodel.mrel_sets(fission(r)) == setmodel.fission(m, 2)

    def test_compositional_definitions(self):
        for r in seeded("mrel", 2, 3, count=20, seed=2, density=0.5):
            assert fusion(r) == power_transpose(alpha(r))
            assert mrel_to_rel(fission(r)) == rel_compose(
                alpha(r), mrel_to_rel(eta(C(3)))
            )
            assert cofusion(r) == inner_bool("icomp", fusion(inner_bool("icomp", r)))
            assert cofission(r) == inner_bool("icomp", fission(inner_bool("icomp", r)))

    def test_cofission_is_upclosure_meet_coatoms(self):
        for r in seeded("mrel", 2, 2, count=20, seed=3, density=0.5):
            rhs = mrel_bool("inter", closure("up", r), mrel_const("coatoms", C(2), C(2)))
            assert cofission(r) == rhs

    def test_fission_is_downclosure_meet_atoms(self):
        for r in seeded("mrel", 2, 2, count=20, seed=4, density=0.5):
            rhs = mrel_bool("inter", closure("down", r), mrel_const("atoms", C(2), C(2)))
            assert fission(r) == rhs

    def test_idempotence_square(self):
        for r in every("mrel", 2, 2):
            assert fusion(fusion(r)) == fusion(r)
            assert fission(fission(r)) == fission(r)
            assert fission(fusion(r)) == fission(r)
            assert fusion(fission(r)) == fusion(r)


class TestExplicitFormulas:
    def test_down_of_fusion(self):
        # down-closure of fusion equals the complement of the up-closure of
        # the atoms missing from the down-closure
        for nd in (1, 2, 3):
            at = mrel_const("atoms", C(1), C(nd))
            for r in seeded("mrel", 1, nd, count=15, seed=5, density=0.5):
                lhs = closure("down", fusion(r))
                inner = mrel_bool("inter", mrel_bool("complement", closure("down", r)), at)
                rhs = mrel_bool("complement", closure("up", inner))
                assert lhs == rhs

    def test_up_of_fusion(self):
        for nd in (1, 2, 3):
            coat = mrel_const("coatoms", C(1), C(nd))
            for r in seeded("mrel", 1, nd, count=15, seed=6, density=0.5):
                lhs = closure("up", fusion(r))
                inner = mrel_bool("inter", inner_bool("icomp", closure("down", r)), coat)
                rhs = mrel_bool("complement", closure("down", inner))
                assert lhs == rhs

    def test_fusion_as_meet_of_both(self):
        for nd in (1, 2):
            at = mrel_const("atoms", C(1), C(nd))
            coat = mrel_const("coatoms", C(1), C(nd))
            for r in seeded("mrel", 1, nd, count=15, seed=7, density=0.5):
                lowered = closure("down", r)
                outside = mrel_bool("inter", mrel_bool("complement", lowered), at)
                first = mrel_bool("complement", closure("up", outside))
                inside = mrel_bool("inter", inner_bool("icomp", lowered), coat)
                second = mrel_bool("complement", closure("down", inside))
                assert fusion(r) == mrel_bool("inter", first, second)


class TestGalois:
    def test_downward_galois_exhaustive(self):
        rels = list(instances("rel", GenSpec((2, 2))))
        mrels = every("mrel", 2, 2)
        for r in mrels:
            ar = alpha(r)
            for t in rels:
                lhs = all(ar.has(*p) <= t.has(*p) for p in ar.pairs())
                rhs = preorder("hoare", r, power_transpose(t))
                assert lhs == rhs
        for t in rels:
            from multirel import rel_to_mrel

            eta_t = rel_to_mrel(rel_compose(t, mrel_to_rel(eta(C(2)))))
            for s in mrels:
                lhs = preorder("hoare", eta_t, s)
                a_s = alpha(s)
                rhs = all(a_s.has(*p) or not t.has(*p) for p in t.pairs())
                assert lhs == rhs

    def test_fission_fusion_galois_exhaustive(self):
        mrels = every("mrel", 2, 2)
        for r in mrels:
            fr = fission(r)
            for s in mrels:
                assert preorder("hoare", fr, s) == preorder("hoare", r, fusion(s))

    def test_closure_and_interior(self):
        for r in every("mrel", 2, 2):
            assert preorder("hoare", r, fusion(r))
            assert preorder("hoare", fission(r), r)
        rs = seeded("mrel", 2, 2, count=30, seed=8, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            if preorder("hoare", r, s):
                assert preorder("hoare", fusion(r), fusion(s))
                assert preorder("hoare", fission(r), fission(s))

    def test_least_and_greatest(self):
        mrels = every("mrel", 2, 2)
        for r in mrels:
            fo = fusion(r)
            fi = fission(r)
            for s in mrels:
                flags = classify_mrel(s)
                if flags.outer_deterministic and preorder("hoare", r, s):
                    assert preorder("hoare", fo, s)
                if flags.inner_deterministic and preorder("hoare", s, r):
                    assert preorder("hoare", s, fi)


class TestClosedRepresentations:
    def test_fusion_recovered_from_down_repr(self):
        for r in seeded("mrel", 2, 2, count=20, seed=9, density=0.5):
            assert fusion(closure("down", fusion(r))) == fusion(r)

    def test_fission_inside_down_repr(self):
        at = mrel_const("atoms", C(2), C(2))
        for r in seeded("mrel", 2, 2, count=20, seed=10, density=0.5):
            assert fission(r) == mrel_bool("inter", closure("down", fusion(r)), at)

    def test_fusion_recovered_from_up_repr_by_cofusion(self):
        for r in seeded("mrel", 2, 2, count=20, seed=11, density=0.5):
            assert cofusion(closure("up", fusion(r))) == fusion(r)

    def test_cofission_of_fusion_inside_up_repr(self):
        coat = mrel_const("coatoms", C(2), C(2))
        for r in seeded("mrel", 2, 2, count=20, seed=12, density=0.5):
            lhs = cofission(fusion(r))
            assert lhs == mrel_bool("inter", closure("up", fusion(r)), coat)

    def test_cofission_literal_up_repr_fails(self):
        # the literal reading breaks on a two-set row
        r = M(1, 2, [(0, [0]), (0, [1])])
        coat = mrel_const("coatoms", C(1), C(2))
        assert cofission(r) != mrel_bool("inter", closure("up", fusion(r)), coat)


class TestNuTau:
    def test_alpha_kills_terminal_part(self):
        from multirel import Rel

        for r in seeded("mrel", 2, 2, count=15, seed=13, density=0.5):
            n, t = split_terminal(r)
            assert alpha(t) == Rel.from_pairs(C(2), C(2), [])
            assert alpha(n) == alpha(r)

    def test_fission_is_nonterminal(self):
        for r in seeded("mrel", 2, 2, count=15, seed=14, density=0.5):
            fi = fission(r)
            n, t = split_terminal(fi)
            assert n == fi
            assert fission(split_terminal(r)[0]) == fi
            assert t == mrel_const("empty", C(2), C(2))

    def test_fusion_ignores_terminal_part(self):
        for r in seeded("mrel", 2, 2, count=15, seed=15, density=0.5):
            assert fusion(split_terminal(r)[0]) == fusion(r)

    def test_nu_fusion_regression(self):
        # fusion invents empty-set pairs for unrelated elements, so the
        # non-terminal projection does not fix its image
        r = M(2, 2, [(0, [])])
        fo = fusion(r)
        assert fo == M(2, 2, [(0, []), (1, [])])
        assert split_terminal(fo)[0] == mrel_const("empty", C(2), C(2))
        assert split_terminal(fo)[0] != fo

    def test_peleg_through_terminal_split(self):
        rs = seeded("mrel", 2, 2, count=30, seed=16, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            n, t = split_terminal(r)
            assert peleg_compose(r, s) == mrel_bool("union", peleg_compose(n, s), t)
            lhs = split_terminal(peleg_compose(r, s))[1]
            rhs = mrel_bool(
                "union", t, peleg_compose(n, split_terminal(s)[1])
            )
            assert lhs == rhs


class TestInnerUnivalent:
    def test_characterizations(self):
        at = mrel_const("atoms", C(2), C(2))
        lo = mrel_const("inner_unit", C(2), C(2))
        at_or_lo = mrel_bool("union", at, lo)
        for r in every("mrel", 2, 2):
            iu = classify_mrel(r).inner_univalent
            n, t = split_terminal(r)
            assert iu == is_submrel(n, at)
            assert iu == (n == fission(r))
            assert iu == (r == mrel_bool("union", fission(r), t))
            if iu:
                assert is_submrel(fission(r), r)

    def test_fission_precomposition(self):
        # fission(r) * s is relational precomposition with alpha(r)
        from multirel import rel_to_mrel

        rs = seeded("mrel", 2, 2, count=30, seed=17, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            lhs = peleg_compose(fission(r), s)
            rhs = rel_to_mrel(rel_compose(alpha(r), mrel_to_rel(s)))
            assert lhs == rhs

    def test_alpha_multiplicative_on_inner_univalent(self):
        uni = [r for r in every("mrel", 2, 2) if classify_mrel(r).inner_univalent]
        for r in uni[:32]:
            for s in seeded("mrel", 2, 2, count=6, seed=18, density=0.5):
                lhs = alpha(peleg_compose(r, s))
                rhs = rel_compose(alpha(r), alpha(s))
                assert lhs == rhs

    def test_closure_and_associativity(self):
        uni = [r for r in every("mrel", 2, 2) if classify_mrel(r).inner_univalent]
        assert len(uni) == 64
        for r in uni[:16]:
            for s in uni[:16]:
                assert classify_mrel(peleg_compose(r, s)).inner_univalent

    def test_second_argument_nonempty_sups(self):
        uni = [r for r in every("mrel", 2, 2) if classify_mrel(r).inner_univalent]
        rs = seeded("mrel", 2, 2, count=20, seed=19, density=0.5)
        for r in uni[:10]:
            for s1, s2 in zip(rs[::2], rs[1::2]):
                lhs = peleg_compose(r, mrel_bool("union", s1, s2))
                rhs = mrel_bool(
                    "union", peleg_compose(r, s1), peleg_compose(r, s2)
                )
                assert lhs == rhs


class TestAlphaInteraction:
    def test_alpha_subdistributes_always(self):
        from multirel import is_subrel

        rs = seeded("mrel", 2, 2, count=30, seed=20, density=0.5)
        for r, s in zip(rs[::2], rs[1::2]):
            lhs = alpha(peleg_compose(r, s))
            rhs = rel_compose(alpha(r), alpha(s))
            assert is_subrel(lhs, rhs)

    def test_alpha_multiplicative_on_outer_total(self):
        total = [r for r in every("mrel", 2, 2) if classify_mrel(r).outer_total]
        for r in total[:30]:
            for s in total[:30]:
                lhs = alpha(peleg_compose(r, s))
                rhs = rel_compose(alpha(r), alpha(s))
                assert lhs == rhs

    def test_alpha_of_down_closure(self):
        for r in seeded("mrel", 2, 3, count=15, seed=21, density=0.5):
            assert alpha(closure("down", r)) == alpha(r)

    def test_outer_total_determinisation_failure_pinned(self):
        r = M(2, 2, [(0, [0, 1])])
        s = M(2, 2, [(0, [0])])
        rs = peleg_compose(r, s)
        assert rs == mrel_const("empty", C(2), C(2))
        assert fission(rs) == mrel_const("empty", C(2), C(2))
        assert peleg_compose(fission(r), fission(s)) == M(2, 2, [(0, [0])])
        assert fusion(rs) == M(2, 2, [(0, []), (1, [])])
        assert peleg_compose(fusion(r), fusion(s)) == M(2, 2, [(0, [0]), (1, [])])


class TestFixpointClass:
    """Where a multirelation sits relative to its fusion and fission: a
    prefixpoint of a map lies above its image in an order, a postfixpoint
    below it."""

    def test_eta_fixes_both(self):
        e = eta(C(2))
        assert fusion(e) == e and fission(e) == e

    def test_doubleton_fixes_fusion_only(self):
        r = M(1, 2, [(0, [0, 1])])
        assert fusion(r) == r and fission(r) != r

    def test_inner_unit_postfix_of_fusion(self):
        lo = mrel_const("inner_unit", C(2), C(2))
        assert is_submrel(lo, fusion(lo))

    def test_fixpoints_agree_with_classification(self):
        for r in every("mrel", 2, 2):
            flags = classify_mrel(r)
            assert (fusion(r) == r) == flags.outer_deterministic
            assert (fission(r) == r) == flags.inner_deterministic

    def test_refinements_exhaustive(self):
        for r in every("mrel", 2, 2):
            flags = classify_mrel(r)
            fo, fi = fusion(r), fission(r)
            # outer univalent <=> below fusion <=> fusion Smyth-prefixes it
            assert is_submrel(r, fo) == flags.outer_univalent
            assert preorder("smyth", fo, r) == flags.outer_univalent
            # prefixpoints wrt subset/hoare and postfixpoints wrt smyth are total
            if is_submrel(fo, r):
                assert flags.outer_total
            if preorder("hoare", fo, r):
                assert flags.outer_total
            if preorder("smyth", r, fo):
                assert flags.outer_total
            assert preorder("egli_milner", r, fo) == preorder("smyth", r, fo)
            if preorder("egli_milner", fo, r):
                assert flags.outer_deterministic
            # fission side
            if flags.inner_univalent:
                assert is_submrel(fi, r)
                assert preorder("smyth", r, fi)
            if preorder("hoare", r, fi):
                assert flags.inner_univalent
            assert preorder("egli_milner", r, fi) == preorder("hoare", r, fi)
            assert preorder("smyth", fi, r) == flags.inner_total
            assert preorder("egli_milner", fi, r) == preorder("smyth", fi, r)
            if is_submrel(r, fi):
                assert flags.inner_deterministic
